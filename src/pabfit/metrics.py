"""Goodness-of-fit statistics: R^2, RMSE, observed-vs-predicted slope."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, DimensionMismatch


class DegenerateFitWarning(UserWarning):
    """Signals the constant-observations convention (R^2 reported as 0)."""


@dataclass(frozen=True)
class FitMetrics:
    r2: float
    rmse: float
    obs_pred_slope: float
    n: int


def _paired(observed, predicted, min_len: int):
    o = np.asarray(observed, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if o.shape != p.shape:
        raise DimensionMismatch(f"length mismatch: {o.size} observed vs {p.size} predicted")
    if o.size < min_len:
        raise DimensionMismatch(f"need at least {min_len} pairs, got {o.size}")
    return o, p


def r_squared(observed, predicted) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot.

    Returns 0 (with :class:`DegenerateFitWarning`) when the observations
    are constant, since SS_tot vanishes. May be negative for fits worse
    than the mean.
    """
    o, p = _paired(observed, predicted, 2)
    # equal values, not a zero SS_tot: the mean of equal values can round
    # off them and leave an SS_tot of order 1e-32
    if np.all(o == o[0]):
        warnings.warn(
            "constant observations: R^2 reported as 0 by convention",
            DegenerateFitWarning,
            stacklevel=2,
        )
        return 0.0
    ss_res = float(np.sum((o - p) ** 2))
    ss_tot = float(np.sum((o - o.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def rmse(observed, predicted) -> float:
    """Root mean squared error."""
    o, p = _paired(observed, predicted, 1)
    return float(np.sqrt(np.mean((o - p) ** 2)))


def obs_pred_slope(observed, predicted) -> float:
    """Slope of observed regressed on predicted through the origin.

    sum(o*p)/sum(p^2), which reads as 1 for an unbiased fit.
    """
    o, p = _paired(observed, predicted, 2)
    denom = float(np.dot(p, p))
    if denom == 0.0:
        raise DegenerateFit("predictions are identically zero")
    return float(np.dot(o, p) / denom)


def compute_metrics(observed, predicted) -> FitMetrics:
    """Bundle the three statistics for a report."""
    o, p = _paired(observed, predicted, 2)
    return FitMetrics(
        r2=r_squared(o, p),
        rmse=rmse(o, p),
        obs_pred_slope=obs_pred_slope(o, p),
        n=int(o.size),
    )
