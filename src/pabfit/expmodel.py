"""Exponential removal model over normalized log-time and barrier thickness.

    C(t, W) = 1 - e^{-t*E} - t * a * (b + W) * e^{-t*E}

with the exponent E read either literally as a + b + W (the default) or as
the product a * (b + W); the printed form of the model is ambiguous between
the two, so both are provided behind a switch.

``exp_model_residual_jacobian`` is the one place the derivatives in (a, b)
are written; ``fit_exp_model`` runs Levenberg-Marquardt on it in
(a, b + min W), with W measured from its smallest value, from the same four
starts for every form and every set of thicknesses: on both sides of the
product form's ridges q = a * (b + W) = 0 and a = 0, where its model and
its q-derivative vanish, and of the swap line a = b + W. On one thickness
the curve depends on a and b + W alone, so the fit does not depend on W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidInput, NonFiniteObjective
from .numeric import levenberg_marquardt

# In (a, b + min W). (1, 4), the start (a, b) = (1, 1) at the bundled runs'
# 3 cm, and its swap (4, 1) have q = a * (b + W) > 0 at every row and lie
# on either side of the swap line a = b + W: on close thicknesses the
# literal form's minimum and its near-swap lie one on each side, and a run
# started on the line leaves it only through rounding. (1, -1) has q < 0 on
# one thickness, past the product form's ridge q = 0, where its model and
# q-derivative vanish and which its runs do not cross. At a = 0 that ridge
# holds at every row at once, so on several thicknesses the product form
# also needs a start with a < 0, (-1, -1); on one thickness its curve is
# the same at (a, b + W) and (-a, -b - W).
_STARTS = ((1.0, 4.0), (4.0, 1.0), (1.0, -1.0), (-1.0, -1.0))


class ExponentForm(Enum):
    LITERAL = "literal"  # E = a + b + W
    PRODUCT = "product"  # E = a * (b + W)


@dataclass(frozen=True)
class ExpModelParams:
    a: float
    b: float
    sse: float = 0.0
    converged: bool = True
    exponent_form: ExponentForm = ExponentForm.LITERAL
    identifiable: bool = True  # False when the data held a single thickness


def exp_model_eval(p: ExpModelParams, t_norm, w):
    """Removal fraction at normalized time ``t_norm`` and thickness ``w`` (cm).

    Exactly 0 at t_norm = 0 for any finite parameters. Callers are
    responsible for keeping t_norm in [0, 1] and w >= 0.
    """
    t = np.asarray(t_norm, dtype=float)
    w = np.asarray(w, dtype=float)
    exponent = p.a + p.b + w if p.exponent_form is ExponentForm.LITERAL else p.a * (p.b + w)
    decay = np.exp(-t * exponent)
    return 1.0 - decay - t * p.a * (p.b + w) * decay


def exp_model_residual_jacobian(p: ExpModelParams, t_norm, w, removal):
    """Residuals r = C - removal and their (n, 2) Jacobian in (a, b).

    With q = a * (b + W) and d = e^{-t*E} the model is 1 - d * (1 + t*q),
    so dC/dE = t * d * (1 + t*q) and dC/dq = -t * d. E = a + b + W
    (literal) gives dC/da = t*d*(1 + t*q - (b + W)) and
    dC/db = t*d*(1 + t*q - a); E = q (product) gives
    dC/da = t^2*d*q*(b + W) and dC/db = t^2*d*q*a. The residuals are
    ``exp_model_eval`` minus ``removal``, so an exact fit has r == 0.
    """
    t = np.asarray(t_norm, dtype=float)
    w = np.asarray(w, dtype=float)
    resid = exp_model_eval(p, t, w) - np.asarray(removal, dtype=float)
    shifted = p.b + w
    q = p.a * shifted
    exponent = p.a + p.b + w if p.exponent_form is ExponentForm.LITERAL else q
    td = t * np.exp(-t * exponent)
    jac = np.empty(resid.shape + (2,))
    if p.exponent_form is ExponentForm.LITERAL:
        slope = td * (1.0 + t * q)
        jac[..., 0] = slope - td * shifted
        jac[..., 1] = slope - td * p.a
    else:
        slope = td * t * q
        jac[..., 0] = slope * shifted
        jac[..., 1] = slope * p.a
    return resid, jac


def fit_exp_model(data, exponent_form: ExponentForm = ExponentForm.LITERAL) -> ExpModelParams:
    """Least-squares (a, b) by Levenberg-Marquardt on the residuals.

    Parameters
    ----------
    data : sequence of (t_norm, w, removal_fraction) triples

    The runs descend in (a, c), with c = b + min(W), on the residuals at
    W - min(W), and the answer reports b = c - min(W). On one thickness
    the curve depends on (a, c) alone, so the fit does not depend on W, and
    a and b are not identifiable (``identifiable`` is False): the swap
    a <-> c leaves E and q = a * (b + W), and so the curve, unchanged. The
    runs start from ``_STARTS`` whatever the form and thicknesses, and the
    lowest sum of squares wins; a run that meets residuals or a Jacobian that
    are not finite is dropped. On one thickness the answer is reported as the
    branch representative: in the literal form, of the minimum and its
    swap, the one with the smaller |a - b|, then a > 0, then the smaller a;
    in the product form, where only q is identified and the sum of squares
    is flat along a * (b + W) = q, the point of that curve with
    a = |b + W| >= 0, where b + W takes the sign of q.

    No positivity constraint is imposed on a or b; the fit reports whatever
    minimizes the SSE, ``sse`` is the sum of squares at the reported point,
    and ``converged`` is that of the run the answer came from (False when
    it ran out of Levenberg-Marquardt's 20000 iterations or stopped as a
    drift toward a minimum at infinity).
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise InvalidInput("data must be a non-empty sequence of (t_norm, w, removal) triples")
    t, w, y = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.any((t < 0.0) | (t > 1.0)):
        raise InvalidInput("t_norm values must lie in [0, 1]")

    def params(theta) -> ExpModelParams:
        return ExpModelParams(a=float(theta[0]), b=float(theta[1]), exponent_form=exponent_form)

    def residual_jacobian(theta: np.ndarray):
        return exp_model_residual_jacobian(params(theta), t, w_shifted, y)

    w_min = float(np.min(w))
    w_shifted = w - w_min
    identifiable = bool(np.any(w != w[0]))
    runs = []
    failure = None
    # a trial step may overflow the exponential; the fit rejects the step or
    # drops the run, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in _STARTS:
            try:
                runs.append(levenberg_marquardt(residual_jacobian, x0))
            except NonFiniteObjective as e:
                failure = failure or e
    if not runs:
        raise failure
    best = min(runs, key=lambda res: res.fun)
    a, c = best.x
    if not identifiable and exponent_form is ExponentForm.LITERAL:
        a, c = min((a, c), (c, a), key=lambda z: (abs(z[0] - z[1] + w_min), z[0] <= 0, z[0]))
    elif not identifiable:
        q = a * c
        a = math.sqrt(abs(q))
        c = math.copysign(a, q)
    fit = params((a, c - w_min))
    r = exp_model_eval(fit, t, w) - y
    return replace(fit, sse=float(np.dot(r, r)), converged=best.converged, identifiable=identifiable)
