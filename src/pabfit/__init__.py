"""Breakthrough-curve modeling for permeable adsorptive barriers.

Fits first-order kinetics, an exponential removal model, and Gaussian
Process regression to contaminant breakthrough series, with prediction
and goodness-of-fit reporting. See the CLI (``pabfit --help``) for the
end-to-end pipelines.
"""

__version__ = "0.1.0"

from .domain import (
    Contaminant,
    FitReport,
    ModelKind,
    ObservationSeries,
    PredictionRow,
    Sample,
    TransformedInputs,
    log_time_norm,
    transform_time,
)
from .expmodel import (
    ExpModelParams,
    ExponentForm,
    exp_model_eval,
    fit_exp_model,
)
from .gp import (
    GpHyperParams,
    GpModel,
    GpPrediction,
    default_hyperparams,
    gp_fit,
    gp_loo_sse,
    gp_loo_sse_gradient,
    gp_nlml,
    gp_nlml_gradient,
    gp_optimize_hyperparams,
    gp_predict,
    kernel_matrix,
)
from .kinetics import KineticFitResult, fit_first_order, predict_first_order
from .metrics import FitMetrics, compute_metrics, obs_pred_slope, r_squared, rmse
from .numeric import (
    CholeskyFactor,
    DescentConfig,
    DescentResult,
    cholesky,
    gradient_descent,
    solve,
)

__all__ = [
    "__version__",
    "Contaminant",
    "FitReport",
    "ModelKind",
    "ObservationSeries",
    "PredictionRow",
    "Sample",
    "TransformedInputs",
    "log_time_norm",
    "transform_time",
    "ExpModelParams",
    "ExponentForm",
    "exp_model_eval",
    "fit_exp_model",
    "GpHyperParams",
    "GpModel",
    "GpPrediction",
    "default_hyperparams",
    "gp_fit",
    "gp_loo_sse",
    "gp_loo_sse_gradient",
    "gp_nlml",
    "gp_nlml_gradient",
    "gp_optimize_hyperparams",
    "gp_predict",
    "kernel_matrix",
    "KineticFitResult",
    "fit_first_order",
    "predict_first_order",
    "FitMetrics",
    "compute_metrics",
    "obs_pred_slope",
    "r_squared",
    "rmse",
    "CholeskyFactor",
    "DescentConfig",
    "DescentResult",
    "cholesky",
    "gradient_descent",
    "solve",
]
