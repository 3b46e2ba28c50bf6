"""Breakthrough-curve modeling for permeable adsorptive barriers.

Fits first-order kinetics, an exponential removal model, and Gaussian
Process regression to contaminant breakthrough series, with prediction
and goodness-of-fit reporting. See the CLI (``pabfit --help``) for the
end-to-end pipelines.

Each public name loads on first use, from the module ``_EXPORTS`` lists it
under (PEP 562), so ``import pabfit`` alone loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it defines, in the order of ``__all__``
_EXPORTS = {
    "domain": "Contaminant FitReport ModelKind ObservationSeries PredictionRow Sample "
    "TransformedInputs log_time_norm transform_time",
    "expmodel": "ExpModelParams ExponentForm exp_model_eval fit_exp_model",
    "gp": "GpHyperParams GpModel GpPrediction default_hyperparams gp_fit gp_loo_sse "
    "gp_loo_sse_gradient gp_nlml gp_nlml_gradient gp_optimize_hyperparams gp_predict kernel_matrix",
    "kinetics": "KineticFitResult fit_first_order predict_first_order",
    "metrics": "FitMetrics compute_metrics obs_pred_slope r_squared rmse",
    "numeric": "CholeskyFactor DescentConfig DescentResult cholesky gradient_descent solve",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
