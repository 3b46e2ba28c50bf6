"""The public names of the package, and the ones the benchmark harness calls.

``pabfit`` loads each public name from its defining module on first use.
``perfbench/`` drives the package through module attributes, so a name it
reaches that goes missing breaks the harness without failing any other
test; each such name is pinned here.
"""

import importlib
import inspect
import subprocess
import sys

import pytest

import pabfit
from pabfit import cli, dataio, domain, expmodel, gp, numeric

PUBLIC_NAMES = [
    "__version__",
    "Contaminant", "FitReport", "ModelKind", "ObservationSeries", "PredictionRow", "Sample",
    "TransformedInputs", "log_time_norm", "transform_time",
    "ExpModelParams", "ExponentForm", "exp_model_eval", "fit_exp_model",
    "GpHyperParams", "GpModel", "GpPrediction", "default_hyperparams", "gp_fit", "gp_loo_sse",
    "gp_nlml", "gp_optimize_hyperparams", "gp_predict", "kernel_matrix",
    "KineticFitResult", "fit_first_order", "predict_first_order",
    "FitMetrics", "compute_metrics", "obs_pred_slope", "r_squared", "rmse",
    "CholeskyFactor", "DescentResult", "cholesky", "gradient_descent", "solve",
]


def test_public_names_are_pinned():
    assert pabfit.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES[1:])
def test_every_exported_name_is_its_modules_object(name):
    value = getattr(pabfit, name)
    assert value.__module__.startswith("pabfit.")
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_version_is_bound_at_import():
    assert pabfit.__version__ == "0.1.0"


def test_import_loads_no_numpy_and_no_submodule(cli_env, tmp_path):
    code = (
        "import sys, pabfit\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('pabfit.')))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=cli_env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pabfit.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from pabfit import *", namespace)
    assert [name for name in pabfit.__all__ if name not in namespace] == []
    assert namespace["gp_fit"] is gp.gp_fit


def test_dir_lists_every_public_name():
    assert set(pabfit.__all__) <= set(dir(pabfit))


@pytest.mark.parametrize(
    "module,names",
    [
        (gp, ["GpHyperParams", "gp_fit", "gp_predict", "gp_nlml", "gp_loo_sse",
              "gp_optimize_hyperparams", "cholesky", "kernel_matrix"]),
        (numeric, ["cholesky", "solve", "gradient_descent"]),
        (expmodel, ["fit_exp_model", "ExponentForm", "ExpModelParams"]),
        (cli, ["main", "PredictionRow", "build_parser"]),
        (dataio, ["_atomic_write"]),
        (domain, ["transform_time"]),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_benchmark_dependencies_exist(module, names):
    assert [n for n in names if not callable(getattr(module, n, None))] == []


def test_benchmark_bindings_and_signatures():
    assert gp._OBJECTIVES["nlml"] is gp.gp_nlml
    assert gp._OBJECTIVES["sse"] is gp.gp_loo_sse
    assert gp.cholesky is numeric.cholesky
    assert list(inspect.signature(gp.kernel_matrix).parameters) == ["hp", "x", "x2"]
    # the tracer reads os.path.getsize(args[0]) after each call
    assert list(inspect.signature(dataio._atomic_write).parameters) == ["path", "text"]
    assert "exponent_form" in inspect.signature(expmodel.fit_exp_model).parameters
    assert {"mean", "variance"} <= set(gp.GpPrediction.__dataclass_fields__)
    params = expmodel.ExpModelParams(a=1.0, b=2.0, exponent_form=expmodel.ExponentForm.PRODUCT)
    assert (params.a, params.b) == (1.0, 2.0)
