"""Exponential removal model over normalized log-time and barrier thickness.

    C(t, W) = 1 - e^{-t*E} - t * a * (b + W) * e^{-t*E}

with the exponent E read either literally as a + b + W (the default) or as
the product a * (b + W); the printed form of the model is ambiguous between
the two, so both are provided behind a switch.

``exp_model_residual_jacobian`` is the one place the derivatives in (a, b)
are written; ``fit_exp_model`` runs Levenberg-Marquardt on it. The mirror
a <-> (b + W) leaves the curve at one thickness unchanged and maps each
Levenberg-Marquardt step onto itself, so on one thickness the fit runs once,
from the branch representative of its start; on several thicknesses, where
the mirror is no symmetry, it runs from the start and from its mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

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


def fit_exp_model(
    data,
    x0: Sequence[float] = (1.0, 1.0),
    exponent_form: ExponentForm = ExponentForm.LITERAL,
) -> ExpModelParams:
    """Least-squares (a, b) by Levenberg-Marquardt on the residuals.

    Parameters
    ----------
    data : sequence of (t_norm, w, removal_fraction) triples
    x0 : initial (a, b), two finite numbers; (1, 1) when nothing better is known

    The mirror (a, b) -> (b + mean(W), a - mean(W)) swaps a and b + W.
    With a single thickness, a and b are not identifiable
    (``identifiable`` is False): the swap leaves E and q = a * (b + W),
    and so the curve, unchanged. It also maps each Levenberg-Marquardt
    step onto itself, since at the mirrored point J has its two columns
    swapped and J^T J and its diagonal scaling are permuted alike; a run
    from the mirror of ``x0`` only ends at the mirror of the run from
    ``x0``. So one run starts from the branch representative of ``x0``:
    of ``x0`` and its mirror, the one with the smaller |a - b|, then
    a > 0, then the smaller a. The answer is reported the same way: in
    the literal form, the representative of the minimum and its mirror;
    in the product form, where only q is identified and the sum of
    squares is flat along a * (b + W) = q, the point of that curve with
    a = |b + W| >= 0, where b + W takes the sign of q.

    With several thicknesses the mirror is no symmetry, so runs start from
    ``x0`` and from its mirror, and the lower sum of squares wins. No
    positivity constraint is imposed on a or b; the fit reports whatever
    minimizes the SSE, ``sse`` is the sum of squares at the reported
    point, and ``converged`` is that of the run the answer came from
    (False when it ran out of Levenberg-Marquardt's 20000 iterations).
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise InvalidInput("data must be a non-empty sequence of (t_norm, w, removal) triples")
    t, w, y = arr[:, 0], arr[:, 1], arr[:, 2]
    if np.any((t < 0.0) | (t > 1.0)):
        raise InvalidInput("t_norm values must lie in [0, 1]")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,) or not np.isfinite(x0).all():
        raise InvalidInput(f"x0 must hold exactly two finite numbers (a, b), got {x0.tolist()}")

    def params(theta) -> ExpModelParams:
        return ExpModelParams(a=float(theta[0]), b=float(theta[1]), exponent_form=exponent_form)

    def residual_jacobian(theta: np.ndarray):
        return exp_model_residual_jacobian(params(theta), t, w, y)

    def mirror(theta) -> np.ndarray:
        return np.array([theta[1] + w_mean, theta[0] - w_mean])

    def branch(theta) -> np.ndarray:  # the branch rule's pick of theta and its mirror
        return min(theta, mirror(theta), key=lambda x: (abs(x[0] - x[1]), x[0] <= 0, x[0]))

    w_mean = float(np.mean(w))
    identifiable = bool(np.any(w != w[0]))
    runs = []
    failure = None
    # a trial step may overflow the exponential; the fit rejects it, so
    # numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for start in (x0, mirror(x0)) if identifiable else (branch(x0),):
            try:
                runs.append(levenberg_marquardt(residual_jacobian, start))
            except NonFiniteObjective as e:
                failure = failure or e
    if not runs:
        raise failure
    best = min(runs, key=lambda res: res.fun)
    x = best.x
    if not identifiable and exponent_form is ExponentForm.LITERAL:
        x = branch(x)
    elif not identifiable:
        q = x[0] * (x[1] + w[0])
        root = math.sqrt(abs(q))
        x = np.array([root, math.copysign(root, q) - w[0]])
    r = exp_model_eval(params(x), t, w) - y
    return replace(
        params(x), sse=float(np.dot(r, r)), converged=best.converged, identifiable=identifiable
    )
