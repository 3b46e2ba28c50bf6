"""Reference implementations the tests hold the package against.

None of this is reached by a command: the central-difference gradient
checks each closed-form gradient and Jacobian, the scalar kernel checks
every entry of the blocked ``kernel_matrix`` and the one-broadcast
kernel matrix checks its every bit, and the two parameter pairs are
reference exponential-model fits the model tests are pinned to.
``kinetic_r2`` is the R^2 ``fit-kinetics`` reports for a first-order fit.
``gp_posterior`` is the GP posterior through an explicit matrix inverse;
``mp_posterior_variance`` is its variance in 50-digit arithmetic.
``lapack_cholesky`` is the factor ``numeric.cholesky`` computes, through
scipy's public API.
"""

import functools
import math

import mpmath
import numpy as np
import scipy.linalg

from pabfit.errors import DimensionMismatch, NonFiniteObjective
from pabfit.metrics import compute_metrics

# reference (a, b) of the exponential removal model for lead and
# methylene blue
PB_EXP_PARAMS = (3.315, 0.829)
MB_EXP_PARAMS = (2.068, 3.486)

# central-difference step: the error is the truncation, of order h^2, plus
# the objective's rounding divided by h, and 1e-3 balances the two for
# objectives accurate to ~1e-8 relative, as the GP ones are
FD_STEP = 1e-3


def kinetic_r2(series, fit) -> float:
    """R^2 of ln(c) against the fitted line k*t + ln_c0_fit."""
    t = series.times()
    return compute_metrics(np.log(series.concentrations()), fit.k * t + fit.ln_c0_fit).r2


def lapack_cholesky(m) -> np.ndarray:
    """Lower factor of a symmetric ``m``, in ``numeric.cholesky``'s layout.

    LAPACK factors the Fortran-ordered transpose of ``m`` as U^T U, and the
    factor returned is L = U^T.
    """
    return scipy.linalg.cholesky(np.asarray(m, dtype=float).T, lower=False).T


def finite_difference_gradient(objective, x) -> np.ndarray:
    """Central-difference gradient with the step 1e-3 in every coordinate."""
    x = np.asarray(x, dtype=float)
    h = FD_STEP
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp = float(objective(xp))
        fm = float(objective(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NonFiniteObjective(
                f"objective non-finite while differentiating coordinate {i}"
            )
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def kernel(hp, x, x2) -> float:
    """Covariance between two input points; exactly v at zero distance.

    The jitter is never added here: it belongs to training-matrix
    diagonals only.
    """
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.size != hp.p or x2.size != hp.p:
        raise DimensionMismatch(
            f"kernel inputs must have {hp.p} dimensions, got {x.size} and {x2.size}"
        )
    d = x - x2
    return float(hp.v * np.exp(-np.dot(np.asarray(hp.w), d * d)))


def unblocked_kernel_matrix(hp, x, x2=None) -> np.ndarray:
    """The kernel matrix as one broadcast over an (n, m, p) temporary.

    The exponent sums the columns of its terms w_p * d_p^2 left to right,
    the order ``kernel_matrix`` sums them in, so the two agree bit for bit.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    x2 = x if x2 is None else np.atleast_2d(np.asarray(x2, dtype=float))
    d = x[:, None, :] - x2[None, :, :]
    terms = d * d * np.asarray(hp.w)
    return hp.v * np.exp(-functools.reduce(np.add, np.moveaxis(terms, -1, 0)))


def gp_posterior(hp, x, y, xq, jitter_used=0.0):
    """GP posterior mean and clamped variance at ``xq`` through the explicit
    inverse of K + (epsilon + jitter_used) * I, the matrix ``gp_fit``
    factors once the factorization has added ``jitter_used``."""
    x = np.atleast_2d(x)
    xq = np.atleast_2d(xq)
    k_inv = np.linalg.inv(
        unblocked_kernel_matrix(hp, x) + (hp.epsilon + jitter_used) * np.eye(len(y))
    )
    k_cross = unblocked_kernel_matrix(hp, xq, x)
    mean = k_cross @ k_inv @ np.asarray(y)
    var = hp.v - np.einsum("ij,ij->i", k_cross @ k_inv, k_cross)
    return mean, np.maximum(var, 0.0)


def mp_posterior_variance(hp, x, xq, dps=50) -> np.ndarray:
    """v - k^T (K + epsilon*I)^-1 k at each row of ``xq``, the float inputs
    and hyperparameters taken as exact and carried in ``dps`` digits."""
    with mpmath.workdps(dps):
        v, eps = mpmath.mpf(hp.v), mpmath.mpf(hp.epsilon)
        w = [mpmath.mpf(wk) for wk in hp.w]
        x = [[mpmath.mpf(float(a)) for a in row] for row in np.atleast_2d(x)]

        def k(a, b):
            return v * mpmath.exp(-mpmath.fsum(wk * (ak - bk) ** 2 for wk, ak, bk in zip(w, a, b)))

        n = len(x)
        lower = [[mpmath.mpf(0)] * n for _ in range(n)]
        for j in range(n):
            pivot = k(x[j], x[j]) + eps - mpmath.fsum(lower[j][i] ** 2 for i in range(j))
            lower[j][j] = mpmath.sqrt(pivot)
            for r in range(j + 1, n):
                dot = mpmath.fsum(lower[r][i] * lower[j][i] for i in range(j))
                lower[r][j] = (k(x[r], x[j]) - dot) / lower[j][j]
        out = []
        for q in np.atleast_2d(xq):
            q = [mpmath.mpf(float(a)) for a in q]
            z = []
            for r in range(n):
                dot = mpmath.fsum(lower[r][i] * z[i] for i in range(r))
                z.append((k(x[r], q) - dot) / lower[r][r])
            out.append(float(v - mpmath.fsum(zi * zi for zi in z)))
        return np.array(out)
