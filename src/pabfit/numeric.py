"""Dense SPD linear algebra and two optimizers.

A jittered Cholesky factorization M = L L^T is computed once and reused.
``solve`` runs two triangular solves against it. ``triangular_inverse``
forms L^-1, in a third of the flops of solving against the identity, for a
caller that reads it more than once; ``multiply_lower`` then applies it (or
any lower-triangular matrix) to right-hand sides in place of a solve.
The factor (``dpotrf``), the triangular solves (``dtrtrs``) and the inverse
(``dtrtri``) are calls into scipy's compiled LAPACK extension ``_flapack``,
the triangular product (``dtrmm``) a call into its BLAS extension
``_fblas``, each handed a Fortran-ordered transpose, so no call makes a
transposing copy of the triangle. ``_lapack`` and ``_blas`` load those two
files by path on first use, without running the ``scipy.linalg`` package
import, so commands that factor no matrix load nothing of scipy.
``gradient_descent`` is plain steepest descent on a caller-supplied
gradient with a backtracking (halving) line search; the GP hyperparameter
search uses it. It has one stopping rule: the first step is 0.1, and the
descent stops when an accepted step lowers the objective by less than
1e-9, or after 200 iterations. ``levenberg_marquardt`` minimizes a sum of
squares from its residuals and their Jacobian (More 1978, "The
Levenberg-Marquardt algorithm: implementation and theory"); the
exponential-model fit uses it, at most 20000 iterations per run, and fewer
for a run that only drifts. Neither optimizer takes a setting. Both return
a ``DescentResult``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteObjective,
    NotPositiveDefinite,
)

# sqrt(double eps): first rung when escalating from a zero jitter; small
# enough not to distort a healthy matrix, large enough to rescue a
# near-singular one.
DEFAULT_JITTER = float(np.sqrt(np.finfo(float).eps))
JITTER_CAP = 1e-4
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of ``M + jitter_used * I``."""

    lower: np.ndarray
    jitter_used: float


def cholesky(m: np.ndarray) -> CholeskyFactor:
    """Factor a symmetric matrix, escalating diagonal jitter on failure.

    The first attempt adds no jitter. An attempt fails when LAPACK's
    ``dpotrf`` finds a non-positive pivot, or when the smallest pivot
    squared is at most n * eps * max(diag M), the size rounding alone can
    leave on a zero pivot of the matrix M factored. On failure the jitter
    enters the ladder at ``DEFAULT_JITTER`` and grows tenfold per attempt,
    capped at ``JITTER_CAP``.

    Parameters
    ----------
    m : (n, n) array_like
        Symmetric matrix with finite entries.

    Returns
    -------
    CholeskyFactor
        Factor of ``m + jitter_used * I`` with the jitter actually applied.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails even at the jitter cap.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput("matrix entries must be finite")

    jitter = 0.0
    while True:
        shifted = m
        if jitter > 0.0:
            # the jitter touches only the diagonal of a copy, so no n x n
            # identity is built; m[i, j] + jitter * 0 adds nothing off it
            shifted = m.copy()
            shifted[np.diag_indices_from(shifted)] += jitter
        # the transpose of the symmetric matrix is its Fortran-ordered view:
        # LAPACK factors a plain copy of it as U^T U, and L = U^T
        upper, info = _lapack().dpotrf(shifted.T, lower=0, clean=1)
        pivots = np.diag(upper)
        floor = pivots.size * _EPS * np.diag(shifted).max(initial=0.0)
        if info == 0 and pivots.min(initial=math.inf) ** 2 > floor:
            return CholeskyFactor(lower=upper.T, jitter_used=jitter)
        if jitter >= JITTER_CAP:
            raise NotPositiveDefinite(f"matrix not positive definite even with jitter {JITTER_CAP:g}")
        jitter = min(JITTER_CAP, jitter * 10.0 if jitter > 0.0 else DEFAULT_JITTER)


def _scipy_extension(name: str, fallback: str):
    """scipy's compiled module ``scipy.linalg.<name>``, without the package import.

    The module already imported, if any; otherwise its extension file in
    scipy's ``linalg`` directory, found without importing scipy, loaded by
    path and registered under its own name, so a later ``import scipy.linalg``
    reuses it. A scipy whose layout hides the file is served by the public
    module ``fallback``, which exports the same functions.
    """
    qualified = f"scipy.linalg.{name}"
    module = sys.modules.get(qualified)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg = Path(scipy_spec.submodule_search_locations[0]) / "linalg"
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = linalg / f"{name}{suffix}"
            if path.is_file():
                spec = importlib.util.spec_from_file_location(qualified, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[qualified] = module
                spec.loader.exec_module(module)
                return module
    return importlib.import_module(fallback)


def _lapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``."""
    return _scipy_extension("_flapack", "scipy.linalg.lapack")


def _blas():
    """scipy's compiled BLAS wrappers, ``scipy.linalg._fblas``."""
    return _scipy_extension("_fblas", "scipy.linalg.blas")


def _checked(routine: str, result: np.ndarray, info: int) -> np.ndarray:
    """``result``, unless LAPACK's ``info`` reports a failure."""
    if info != 0:
        raise NotPositiveDefinite(f"the factor is singular (LAPACK {routine} info={info})")
    return result


def _right_hand_side(rhs, n: int) -> np.ndarray:
    """``rhs`` as floats, checked against an n x n matrix: n rows, finite entries."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs has leading dimension {rhs.shape[0]}, matrix is {n}x{n}")
    if not np.isfinite(rhs).all():
        raise InvalidInput("right-hand side entries must be finite")
    return rhs


def solve(factor: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(M + jitter_used * I) x = rhs`` via two triangular solves.

    ``rhs`` may be a vector or a matrix of stacked right-hand-side columns.

    Raises
    ------
    InvalidInput
        If ``rhs`` has a non-finite entry.
    NotPositiveDefinite
        If LAPACK finds a zero on the factor's diagonal.
    """
    rhs = _right_hand_side(rhs, factor.lower.shape[0])
    # L^T is the factor's Fortran-ordered view: LAPACK reads it in place,
    # the layout scipy's solve_triangular hands it for a C-ordered L
    forward, info = _lapack().dtrtrs(factor.lower.T, rhs, lower=0, trans=1)
    forward = _checked("dtrtrs", forward, info)
    # the forward result is ours, so the back solve overwrites it in place
    x, info = _lapack().dtrtrs(factor.lower.T, forward, lower=0, overwrite_b=1)
    return _checked("dtrtrs", x, info)


def triangular_inverse(factor: CholeskyFactor) -> np.ndarray:
    """The lower-triangular ``L^-1``, from LAPACK's ``dtrtri`` in n^3/3 flops.

    ``(M + jitter_used * I)^-1 = L^-T L^-1``.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK reports the factor singular (a zero on its diagonal).
    """
    # LAPACK inverts a plain copy of the Fortran-ordered U = L^T, and
    # U^-1 = (L^-1)^T
    inv, info = _lapack().dtrtri(factor.lower.T, lower=0)
    return _checked("dtrtri", inv, info).T


def multiply_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Return ``lower @ rhs`` for a lower-triangular ``lower``, by BLAS ``dtrmm``.

    Only the lower triangle of ``lower`` is read. ``rhs`` may be a vector
    or a matrix of stacked right-hand-side columns. A Fortran-ordered
    float ``rhs`` is overwritten with the product, so no second array of
    its size is made; pass a copy to keep it. With
    ``lower = triangular_inverse(factor)`` this is the forward solve
    ``L^-1 rhs`` up to rounding, in a product's flops rather than a solve's.

    Raises
    ------
    InvalidInput
        If ``rhs`` has a non-finite entry.
    """
    n = lower.shape[0]
    rhs = _right_hand_side(rhs, n)
    # lower.T is the Fortran-ordered upper triangle U = lower^T; BLAS
    # applies U^T = lower to the columns of rhs
    out = _blas().dtrmm(1.0, lower.T, rhs.reshape(n, -1), lower=0, trans_a=1, overwrite_b=1)
    return out.reshape(rhs.shape)


@dataclass(frozen=True)
class DescentResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


_STEP = 0.1  # the first trial step, as a multiple of the gradient
_TOLERANCE = 1e-9  # an accepted decrease below this ends the descent
_MAX_ITERS = 200
_MIN_STEP = 1e-18
_MAX_MOVE = 1.0  # per-iteration cap on the largest coordinate move
_MAX_STEP_GROWTH = 1024.0  # keeps the doubled step bounded on flat objectives


def gradient_descent(
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float] | np.ndarray,
) -> DescentResult:
    """Minimize a scalar objective by backtracking steepest descent.

    ``gradient(x)`` returns the gradient of ``objective`` at ``x``; it is
    called once per iteration, at the last accepted point, which is also
    the last point the objective was evaluated at.

    Each iteration takes a step ``-step * grad`` (rescaled so no coordinate
    moves more than ``_MAX_MOVE``, which keeps a huge early gradient
    from tunneling into a flat far-away region); the step starts at 0.1,
    halves until the objective strictly decreases and doubles after an
    accepted move. Converged when an accepted decrease falls below 1e-9
    or when no decrease can be found; not converged after 200 iterations.

    The returned point never has a higher objective than ``x0``. A NaN
    objective anywhere, or a non-finite gradient, raises
    :class:`NonFiniteObjective`; an overflowing (infinite) objective at a
    trial point is treated as an ordinary increase and backtracked.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = float(objective(x))
    if not math.isfinite(f):
        raise NonFiniteObjective("objective not finite at the starting point")

    step = _STEP
    converged = False
    for iterations in range(1, _MAX_ITERS + 1):
        grad = np.asarray(gradient(x), dtype=float)
        if not np.all(np.isfinite(grad)):
            raise NonFiniteObjective(f"gradient not finite at iteration {iterations}: {grad}")
        if not np.any(grad):
            converged = True
            break
        cap = _MAX_MOVE / float(np.max(np.abs(grad)))
        f_trial = f
        trial = x
        while step > _MIN_STEP:
            scale = min(step, cap)
            trial = x - scale * grad
            f_trial = float(objective(trial))
            if math.isnan(f_trial):
                raise NonFiniteObjective("objective returned NaN during descent")
            if f_trial < f:
                step = scale  # the scale actually used seeds the next doubling
                break
            step = scale * 0.5
        else:
            converged = True
            break
        delta = f - f_trial
        x, f = trial, f_trial
        step = min(step * 2.0, _MAX_STEP_GROWTH * _STEP)
        if delta < _TOLERANCE:
            converged = True
            break
    return DescentResult(x=x, fun=f, iterations=iterations, converged=converged)


# Levenberg-Marquardt damping: its start, the factor it moves by after each
# trial, and the cap past which the step is a vanishing gradient step. A
# start of 1 halves the first Gauss-Newton step; on the bundled fixtures it
# saves a sixth of the evaluations that 1e-3 spends on rejected trials
_LM_DAMPING = 1.0
_LM_FACTOR = 10.0
_LM_MAX_DAMPING = 1e16
_LM_XTOL = 1e-10  # relative step below which the fit has converged
_LM_MAX_ITERS = 20000  # iterations of one run; no bundled fit's run uses over 62
# a run whose sum of squares falls by at most this share over this many
# iterations only drifts, toward a minimum at infinity, and stops
_LM_STALL_ITERS = 50
_LM_STALL_RTOL = 1e-4


def levenberg_marquardt(
    residual_jacobian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: Sequence[float] | np.ndarray,
) -> DescentResult:
    """Minimize the sum of squares ``r(x) . r(x)`` by Levenberg-Marquardt.

    ``residual_jacobian(x)`` returns the residual vector r and its Jacobian
    J, one column per parameter. Each iteration solves the damped normal
    equations (J^T J + lam * D) step = -J^T r with D = diag(J^T J) at the
    current point, which makes the step independent of the units of each
    parameter. (More's running maximum of that diagonal leaves the literal
    exponential fit of pcp_run2 in a local minimum.) ``lam`` shrinks tenfold
    after a step that lowers the sum of squares and grows tenfold after one
    that does not; a rank-deficient J^T J (a flat valley) is handled by the
    damping. ``fun`` is the sum of squares and ``iterations`` counts the
    Jacobians used.

    Converged when a step moves x by at most 1e-10 relative to |x|,
    when an accepted decrease is at the rounding level of the sum of
    squares, or when no damping up to 1e16 lowers it. Not converged after
    20000 iterations, or when the 50 iterations since the last multiple of
    50 lowered the sum of squares by at most 1e-4 of it: a run that only
    drifts, toward an infimum at infinity, stops there rather than creep
    on for the 20000. The returned point never has a higher sum of squares
    than ``x0``. Residuals that are not finite at ``x0``, or a Jacobian that
    is not finite at ``x0`` or at an accepted point, raise
    :class:`NonFiniteObjective`; a trial point whose sum of squares is
    infinite or NaN is rejected like any increase.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, jac = residual_jacobian(x)
    f = float(np.dot(r, r))
    if not math.isfinite(f):
        raise NonFiniteObjective("residuals not finite at the starting point")
    damping = _LM_DAMPING
    iterations = 0
    converged = False
    mark = f  # the sum of squares at the last multiple of _LM_STALL_ITERS
    while not converged and iterations < _LM_MAX_ITERS:
        if iterations and iterations % _LM_STALL_ITERS == 0:
            if mark - f <= _LM_STALL_RTOL * mark:
                break
            mark = f
        iterations += 1
        grad = jac.T @ r
        normal = jac.T @ jac
        if not (np.isfinite(grad).all() and np.isfinite(normal).all()):
            raise NonFiniteObjective(f"Jacobian not finite at iteration {iterations}")
        scale = np.diag(normal)
        damped = np.diag(np.where(scale > 0.0, scale, 1.0))  # a dead column takes any
        min_move = _LM_XTOL * (math.hypot(*x) + _LM_XTOL)
        converged = True  # unless a damped step lowers the sum of squares
        while grad.any() and damping <= _LM_MAX_DAMPING:
            try:
                step = np.linalg.solve(normal + damping * damped, -grad)
            except np.linalg.LinAlgError:  # singular to working precision
                damping *= _LM_FACTOR
                continue
            trial = x + step
            r_trial, jac_trial = residual_jacobian(trial)
            f_trial = float(np.dot(r_trial, r_trial))
            small = math.hypot(*step) <= min_move
            if f_trial < f:
                converged = small or f - f_trial <= 4.0 * _EPS * f
                x, r, jac, f = trial, r_trial, jac_trial, f_trial
                damping /= _LM_FACTOR
                break
            if small:
                break
            damping *= _LM_FACTOR
    return DescentResult(x=x, fun=f, iterations=iterations, converged=converged)
