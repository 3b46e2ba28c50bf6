"""Exponential removal model over normalized log-time and barrier thickness.

    C(t, W) = 1 - e^{-t*E} - t * a * (b + W) * e^{-t*E}

with the exponent E read either literally as a + b + W (the default) or as
the product a * (b + W); the printed form of the model is ambiguous between
the two, so both are provided behind a switch.

``exp_model_residual_jacobian`` is the one place the derivatives in (a, b)
are written; ``fit_exp_model`` runs Levenberg-Marquardt on it from starts it
picks itself. The mirror a <-> (b + W) leaves the curve at one thickness
unchanged and maps each Levenberg-Marquardt step onto itself, so on one
thickness the literal form runs once, from (1, 1), and the product form also
from (1, -1 - W), across the ridge q = a * (b + W) = 0 where its model and
its q-derivative vanish; on several thicknesses, where the mirror is no
symmetry, the fit runs from (1, 1) and from its mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidInput, NonFiniteObjective
from .numeric import levenberg_marquardt

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

    The fit picks its own starts, beginning at (1, 1). The mirror
    (a, b) -> (b + mean(W), a - mean(W)) swaps a and b + W. With a single
    thickness, a and b are not identifiable (``identifiable`` is False):
    the swap leaves E and q = a * (b + W), and so the curve, unchanged. It
    also maps each Levenberg-Marquardt step onto itself, since at the
    mirrored point J has its two columns swapped and J^T J and its diagonal
    scaling are permuted alike, so a run from the mirror of (1, 1) would
    only end at the mirror of the run from (1, 1). In the product form the
    model is 0 at q = 0 and so is its derivative in q, a ridge no run from
    q > 0 crosses, so a second run starts at (1, -1 - W), where q = -1. The
    literal form has no such ridge (its runs from (1, 1) on the lead
    fixtures end at q < 0), so it runs once. The answer is reported as the
    branch representative: in the literal form, of the minimum and its
    mirror, the one with the smaller |a - b|, then a > 0, then the smaller
    a; in the product form, where only q is identified and the sum of
    squares is flat along a * (b + W) = q, the point of that curve with
    a = |b + W| >= 0, where b + W takes the sign of q.

    With several thicknesses the mirror is no symmetry, so runs start from
    (1, 1) and from its mirror. Of the runs, the lower sum of squares wins.
    No positivity constraint is imposed on a or b; the fit reports whatever
    minimizes the SSE, ``sse`` is the sum of squares at the reported point,
    and ``converged`` is that of the run the answer came from (False when
    it ran out of Levenberg-Marquardt's 20000 iterations).
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
        return exp_model_residual_jacobian(params(theta), t, w, y)

    def mirror(theta) -> np.ndarray:
        return np.array([theta[1] + w_mean, theta[0] - w_mean])

    w_mean = float(np.mean(w))
    identifiable = bool(np.any(w != w[0]))
    start = np.array([1.0, 1.0])
    if identifiable:
        starts = (start, mirror(start))
    elif exponent_form is ExponentForm.PRODUCT:
        starts = (start, np.array([1.0, -1.0 - w_mean]))
    else:
        starts = (start,)
    runs = []
    failure = None
    # a trial step may overflow the exponential; the fit rejects the step or
    # drops the run, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for x0 in starts:
            try:
                runs.append(levenberg_marquardt(residual_jacobian, x0))
            except NonFiniteObjective as e:
                failure = failure or e
    if not runs:
        raise failure
    best = min(runs, key=lambda res: res.fun)
    x = best.x
    if not identifiable and exponent_form is ExponentForm.LITERAL:
        x = min(x, mirror(x), key=lambda z: (abs(z[0] - z[1]), z[0] <= 0, z[0]))
    elif not identifiable:
        q = x[0] * (x[1] + w[0])
        root = math.sqrt(abs(q))
        x = np.array([root, math.copysign(root, q) - w[0]])
    r = exp_model_eval(params(x), t, w) - y
    return replace(
        params(x), sse=float(np.dot(r, r)), converged=best.converged, identifiable=identifiable
    )
