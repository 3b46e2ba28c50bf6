"""The public names of the package, and the ones the benchmark harness calls.

``perfbench/`` drives the package through module attributes, so a name it
reaches that goes missing breaks the harness without failing any other
test; each such name is pinned here.
"""

import inspect

import pytest

import pabfit
from pabfit import cli, dataio, domain, expmodel, gp, numeric


@pytest.mark.parametrize("name", pabfit.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(pabfit, name) is not None


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
    assert "exponent_form" in inspect.signature(expmodel.fit_exp_model).parameters
    assert {"mean", "variance"} <= set(gp.GpPrediction.__dataclass_fields__)
    params = expmodel.ExpModelParams(a=1.0, b=2.0, exponent_form=expmodel.ExponentForm.PRODUCT)
    assert (params.a, params.b) == (1.0, 2.0)
