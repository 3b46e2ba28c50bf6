"""Exponential removal model over normalized log-time and barrier thickness.

    C(t, W) = 1 - e^{-t*E} - t * a * (b + W) * e^{-t*E}

with the exponent E read either literally as a + b + W (the default) or as
the product a * (b + W); the printed form of the model is ambiguous between
the two, so both are provided behind a switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .domain import Contaminant
from .errors import InvalidInput, NonFiniteObjective
from .numeric import DescentConfig, gradient_descent

# reference parameter sets shipped as CLI defaults
PB_EXP_PARAMS = (3.315, 0.829)
MB_EXP_PARAMS = (2.068, 3.486)


class ExponentForm(Enum):
    LITERAL = "literal"  # E = a + b + W
    PRODUCT = "product"  # E = a * (b + W)


@dataclass(frozen=True)
class ExpModelParams:
    a: float
    b: float
    contaminant: Contaminant | None = None
    sse: float = 0.0
    converged: bool = True
    exponent_form: ExponentForm = ExponentForm.LITERAL


def exp_model_eval(p: ExpModelParams, t_norm, w):
    """Removal fraction at normalized time ``t_norm`` and thickness ``w`` (cm).

    Exactly 0 at t_norm = 0 for any finite parameters. Callers are
    responsible for keeping t_norm in [0, 1] and w >= 0.
    """
    t = np.asarray(t_norm, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.exponent_form is ExponentForm.LITERAL:
        exponent = p.a + p.b + w
    else:
        exponent = p.a * (p.b + w)
    decay = np.exp(-t * exponent)
    return 1.0 - decay - t * p.a * (p.b + w) * decay


def exp_model_sse_gradient(p: ExpModelParams, t_norm, w, removal) -> np.ndarray:
    """Gradient in (a, b) of the residual sum of squares against ``removal``.

    With q = a * (b + W) and d = e^{-t*E} the model is 1 - d * (1 + t*q),
    so dC/dE = t * d * (1 + t*q) and dC/dq = -t * d. E = a + b + W
    (literal) gives dC/da = t*d*(1 + t*q - (b + W)) and
    dC/db = t*d*(1 + t*q - a); E = q (product) gives
    dC/da = t^2*d*q*(b + W) and dC/db = t^2*d*q*a. The SSE gradient is
    2 * sum(r * dC/dtheta) over the residuals r = C - removal.
    """
    t = np.asarray(t_norm, dtype=float)
    w = np.asarray(w, dtype=float)
    shifted = p.b + w
    q = p.a * shifted
    exponent = p.a + p.b + w if p.exponent_form is ExponentForm.LITERAL else q
    decay = np.exp(-t * exponent)
    # the model term as exp_model_eval rounds it, so an exact fit has r == 0
    resid = 1.0 - decay - t * p.a * shifted * decay - np.asarray(removal, dtype=float)
    td = t * decay
    if p.exponent_form is ExponentForm.LITERAL:
        d_a = td * (1.0 + t * q - shifted)
        d_b = td * (1.0 + t * q - p.a)
    else:
        d_a = td * t * q * shifted
        d_b = td * t * q * p.a
    return 2.0 * np.array([np.dot(resid, d_a), np.dot(resid, d_b)])


def exp_model_grid(p: ExpModelParams, t_grid: Sequence[float], w_grid: Sequence[float]) -> np.ndarray:
    """Matrix with entry [i, j] = exp_model_eval(p, t_grid[i], w_grid[j]).

    One broadcast evaluation; every entry has the bits of the scalar call.
    """
    t = np.asarray(t_grid, dtype=float).ravel()
    w = np.asarray(w_grid, dtype=float).ravel()
    if t.size == 0 or w.size == 0:
        raise InvalidInput("prediction grids must be non-empty")
    return exp_model_eval(p, t[:, None], w[None, :])


def fit_exp_model(
    data,
    x0: Sequence[float] = (1.0, 1.0),
    contaminant: Contaminant | None = None,
    exponent_form: ExponentForm = ExponentForm.LITERAL,
    config: DescentConfig | None = None,
) -> ExpModelParams:
    """Least-squares (a, b) by gradient descent on the sum of squared residuals.

    The descent follows the closed-form gradient of the SSE
    (``exp_model_sse_gradient``), one evaluation per iteration.

    Parameters
    ----------
    data : sequence of (t_norm, w, removal_fraction) triples
    x0 : initial (a, b); (1, 1) when nothing better is known
    config : optional descent settings; the default runs long enough for
        noiseless data to be recovered to ~1e-3 in the parameters.

    Runs a second descent from the a <-> (b + W) mirror of the first
    result, because that swap leaves the curve unchanged at any fixed
    thickness and single-start descent can land on the wrong branch. No
    positivity constraint is imposed on a or b; the search explores freely
    and reports whatever minimizes the SSE.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise InvalidInput("data must be a non-empty sequence of (t_norm, w, removal) triples")
    t, w, y = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.any((t < 0.0) | (t > 1.0)):
        raise InvalidInput("t_norm values must lie in [0, 1]")

    def sse(theta: np.ndarray) -> float:
        trial = ExpModelParams(a=theta[0], b=theta[1], exponent_form=exponent_form)
        r = exp_model_eval(trial, t, w) - y
        return float(np.dot(r, r))

    def sse_gradient(theta: np.ndarray) -> np.ndarray:
        trial = ExpModelParams(a=theta[0], b=theta[1], exponent_form=exponent_form)
        return exp_model_sse_gradient(trial, t, w, y)

    config = config or DescentConfig(step=0.1, tolerance=1e-16, max_iters=20000)
    res = gradient_descent(sse, sse_gradient, np.asarray(x0, dtype=float), config)
    # the curve is invariant under a <-> (b + W) at any fixed thickness, so
    # a descent can settle on the mirror branch; restart from the mirrored
    # point and keep the better of the two
    w_mean = float(np.mean(w))
    mirrored = np.array([res.x[1] + w_mean, res.x[0] - w_mean])
    try:
        res_mirror = gradient_descent(sse, sse_gradient, mirrored, config)
    except NonFiniteObjective:
        res_mirror = None
    if res_mirror is not None and res_mirror.fun < res.fun:
        res = res_mirror
    return ExpModelParams(
        a=float(res.x[0]),
        b=float(res.x[1]),
        contaminant=contaminant,
        sse=res.fun,
        converged=res.converged,
        exponent_form=exponent_form,
    )
