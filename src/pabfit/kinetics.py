"""First-order kinetics: least-squares fit of ln(c_t) against time.

The decay law ln(c_t) = k*t + ln(c0) is fitted on raw minutes; the rate
constant keeps the sign of the fitted slope, so decaying runs report a
negative k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ObservationSeries
from .errors import NonPositiveConcentration


@dataclass(frozen=True)
class KineticFitResult:
    k: float  # slope, 1/min
    ln_c0_fit: float  # intercept, ln(mg/L)
    n_points: int
    degenerate: bool = False


def fit_first_order(series: ObservationSeries) -> KineticFitResult:
    """Ordinary least squares of log-concentration on time.

    Raises :class:`NonPositiveConcentration` if any concentration is <= 0.
    A constant concentration series yields k = 0 (flagged degenerate). The
    fit's R^2 is ``compute_metrics`` on the log-concentrations.
    """
    c = series.concentrations()
    if np.any(c <= 0):
        raise NonPositiveConcentration(
            "log-linear fit requires strictly positive concentrations"
        )
    t = series.times()
    y = np.log(c)
    tc = t - t.mean()
    stt = float(np.dot(tc, tc))
    if np.all(y == y[0]):  # equal values, whose mean can round off them
        return KineticFitResult(
            k=0.0, ln_c0_fit=float(y.mean()), n_points=int(t.size), degenerate=True
        )
    k = float(np.dot(tc, y) / stt)
    intercept = float(y.mean() - k * t.mean())
    return KineticFitResult(k=k, ln_c0_fit=intercept, n_points=int(t.size))


def predict_first_order(fit: KineticFitResult, t) -> np.ndarray:
    """Concentration exp(k*t + ln_c0_fit) at time t (minutes); vectorized."""
    return np.exp(fit.k * np.asarray(t, dtype=float) + fit.ln_c0_fit)
