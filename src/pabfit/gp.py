"""Gaussian Process regression with a per-dimension exponential-decay kernel.

The covariance between inputs x and x' is

    k(x, x') = v * exp(-sum_p w_p * (x_p - x'_p)^2)

with one inverse-length weight per input dimension, so each regressor
(normalized log-time, pH, thickness) carries its own relevance. A GP reads
one to three of the columns ``INPUT_NAMES`` names; ``GpHyperParams`` holds
their names and one weight each. ``kernel_matrix`` builds the covariance
on cache-sized row blocks, one input column at a time. It forms each
column's pairwise differences as one BLAS matrix product,
[x, 1] @ [1; -x'] (GPML eq. 5.1 for the kernel): both of its products are
by 1, so they are exact, and their sum is x - x' with the one rounding of
a subtraction (Higham, *Accuracy and Stability of Numerical Algorithms*,
2002, section 2.2).

The training covariance gets a jitter ``epsilon`` on its diagonal and is
factorized once, K + eps*I = L L^T. The fit forms L^-1 once from it and
keeps that inverse, not L: prediction, the marginal-likelihood and
leave-one-out objectives, and the closed-form gradients of both in log
space, which the hyperparameter search descends on, all read L^-1
(Rasmussen & Williams, *GPML*, 2006, Algorithm 2.1, eq. 5.9 and section
5.4.2); none solves or inverts again. Multiplying by an explicit inverse
costs accuracy (Higham, *Accuracy and Stability of Numerical Algorithms*,
2002, ch. 14): on the bundled fixtures the posterior variance is within
3e-14 of a 50-digit reference, against 3e-16 by a forward solve.

A fit checks its training set, builds K with ``kernel_matrix`` and hands
it to ``fit_covariance``, which adds the jitter, factors, solves and
inverts. The hyperparameter search checks its training set once and forms
each input column's squared differences D_p = (x_p - x_p^T)^2 once; at each
point it evaluates, it builds K = v * exp(sum_p -w_p * D_p) from them, in
``kernel_matrix``'s summation order so that K is the same bits, fits a copy
through ``fit_covariance``, and keeps that K for the gradient at the point
(dC/dlog w_p = -w_p * D_p * K, GPML eq. 5.9). It holds p + 1 n x n arrays
for this, 68 kB at n = 65 and p = 1.

``training_set`` gives a series' layout columns by name, (t_norm, pH, W)
for lead and (t_norm, W) for methylene blue, and ``select_inputs`` alone
decides which a GP reads: those that vary over the training rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import (
    Contaminant,
    ObservationSeries,
    TransformedInputs,
    transform_time,
)
from .errors import DimensionMismatch, InvalidInput, NotPositiveDefinite
from .numeric import (
    CholeskyFactor,
    cholesky,
    gradient_descent,
    multiply_lower,
    solve,
    triangular_inverse,
)

# diagonal jitter that keeps smooth kernel matrices invertible (~sqrt eps)
DEFAULT_EPSILON = 1.490116e-08

# the GP input columns in lead's layout order; methylene blue's are the first and last
INPUT_NAMES = ("t_norm", "ph", "thickness_cm")

# reference (v, w) shipped as CLI defaults, one weight per layout column
_DEFAULT_HYPERPARAMS = {
    Contaminant.PB: (0.3852, (0.7839, 2.8869, 2.859e-9)),
    Contaminant.METHYLENE_BLUE: (0.2397, (14.6899, 2.2309)),
}

# elements of one (rows, m) block of kernel_matrix: the squared-difference
# term it holds (512 KiB of float64) stays in cache while the block's rows
# accumulate and exponentiate, and stays small next to the (n, m) result
_KERNEL_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class GpHyperParams:
    """Signal variance, one weight per input (one to three), jitter, and the
    inputs' names; without names, by count: (t_norm, pH, W), (t_norm, W), t_norm."""

    v: float
    w: tuple[float, ...]
    epsilon: float = DEFAULT_EPSILON
    inputs: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        if not (self.v > 0) or not math.isfinite(self.v):
            raise InvalidInput(f"signal variance must be positive, got {self.v}")
        names = INPUT_NAMES[:1] + INPUT_NAMES[len(INPUT_NAMES) + 1 - self.p :]  # by count
        names = names if self.inputs is None else tuple(self.inputs)
        if not (all(n in INPUT_NAMES for n in names) and 0 < len(set(names)) == len(names) == self.p):
            raise InvalidInput(f"need 1 to {len(INPUT_NAMES)} weights, one per input, got {self.p} "
                               f"for inputs {self.inputs}, each one of {INPUT_NAMES} named once")
        object.__setattr__(self, "inputs", names)
        if any(not (x >= 0) or not math.isfinite(x) for x in self.w):
            raise InvalidInput(f"weights w must be finite and >= 0, got {self.w}")
        if not (self.epsilon > 0) or not math.isfinite(self.epsilon):
            raise InvalidInput(f"jitter epsilon must be finite and positive, got {self.epsilon}")

    @property
    def p(self) -> int:
        return len(self.w)


def default_hyperparams(contaminant: Contaminant, epsilon: float = DEFAULT_EPSILON) -> GpHyperParams:
    v, w = _DEFAULT_HYPERPARAMS[contaminant]
    return GpHyperParams(v=v, w=w, epsilon=epsilon)


def design_matrix(columns: dict, inputs) -> np.ndarray:
    """GP input rows: the ``columns`` (name -> values) that ``inputs`` names, in that order.

    All columns broadcast together as numpy arrays do (scalars, per-point arrays, a
    ``t[:, None], w[None, :]`` grid), the unnamed ones too; rows follow that shape in C order.
    """
    named = dict(zip(columns, np.broadcast_arrays(*map(np.asarray, columns.values()))))
    return np.column_stack([named[n].ravel() for n in inputs]).astype(float, copy=False)


def select_inputs(hp: GpHyperParams, columns: dict):
    """The one rule for what a GP reads: the training ``columns`` that vary.

    Returns ``hp`` with only their weights, their design matrix, and each
    other column's one value. Such a column adds -w * 0 to every kernel
    exponent, so dropping it changes no bit at the training rows; kept, its
    weight, unlearnable (its gradient is 0), would decide every answer off it.
    """
    weights = dict(zip(hp.inputs, hp.w))
    inputs = [n for n, c in columns.items() if np.any(np.asarray(c) != c[0])]
    if not set(inputs) <= weights.keys():
        raise InvalidInput(f"the columns {inputs} vary, but the weights are for {list(hp.inputs)}")
    hp = replace(hp, w=[weights[n] for n in inputs], inputs=tuple(inputs))
    fixed = {n: float(c[0]) for n, c in columns.items() if n not in inputs}
    return hp, design_matrix(columns, inputs), fixed


def _as_input_matrix(x, p: int) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != p:
        raise DimensionMismatch(f"inputs must be (n, {p}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("inputs must be finite")
    return arr


def kernel_matrix(hp: GpHyperParams, x, x2=None) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(x[i], x2[j]), without jitter.

    Rows are computed in blocks of at most ``_KERNEL_BLOCK_ELEMENTS``
    entries, one input column at a time: each column's term -w_k * d_k^2
    is a contiguous (rows, m) array, and the block is exponentiated and
    scaled by v while it is still in cache. The differences d_k of a block
    are one matrix product, [x_k, 1] @ [1; -x2_k], of shapes (rows, 2) and
    (2, m). Both of its products, x * 1 and 1 * (-y), are exact, so their
    sum is x - y with the subtraction's one rounding (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 2.2), whether BLAS
    adds them or fuses one multiply-add. The exponent sums its terms into
    the block in column order, and the negation folded into each weight is
    exact, so every entry is v * exp(-(w_0 d_0^2 + w_1 d_1^2 + ...)) summed
    left to right, and the temporary is one block whatever n and m are.
    """
    xa = _as_input_matrix(x, hp.p)
    xb = xa if x2 is None else _as_input_matrix(x2, hp.p)
    n, m = xa.shape[0], xb.shape[0]
    # the product operands of every column: pa[k] = [x_k, 1], pb[k] = [1; -x2_k]
    pa = np.ones((hp.p, n, 2))
    pa[:, :, 0] = xa.T
    pb = np.ones((hp.p, 2, m))
    np.negative(xb.T, out=pb[:, 1])
    out = np.empty((n, m))
    rows = max(1, min(n, _KERNEL_BLOCK_ELEMENTS // max(1, m)))
    scratch = np.empty((rows, m))
    for start in range(0, n, rows):
        acc = out[start : start + rows]
        for k in range(hp.p):
            term = scratch[: len(acc)] if k else acc
            np.matmul(pa[k, start : start + rows], pb[k], out=term)
            term *= term
            term *= -hp.w[k]
            if k:
                acc += term
        np.exp(acc, out=acc)
        acc *= hp.v
    return out


@dataclass(frozen=True)
class GpModel:
    """Immutable fitted state: training set, L^-1, weights, fixed inputs.

    With L L^T = K + (eps + jitter_used) * I, ``linv`` holds L^-1
    (lower-triangular, so C^-1 = linv.T @ linv), ``alpha`` = C^-1 y and
    ``log_det_half`` = sum_i log L_ii; L itself is not kept. L^-1 is the
    one n x n array, n^2 floats, 32 MB at n = 2000.
    """

    hp: GpHyperParams
    x_train: np.ndarray
    y_train: np.ndarray
    jitter_used: float
    log_det_half: float
    alpha: np.ndarray
    linv: np.ndarray
    fixed_inputs: dict = field(default_factory=dict)


def covariance_factor(hp: GpHyperParams, x) -> CholeskyFactor:
    """Cholesky factor of K(X, X) + eps*I for a prior draw, as ``fit_covariance`` forms it."""
    cov = kernel_matrix(hp, x)
    cov.flat[:: len(cov) + 1] += hp.epsilon  # the diagonal, in place
    return cholesky(cov)


def _training_arrays(hp: GpHyperParams, x_train, y_train) -> tuple[np.ndarray, np.ndarray]:
    """The checked (n, p) inputs and n targets of a fit, n >= 1."""
    x = _as_input_matrix(x_train, hp.p)
    y = np.asarray(y_train, dtype=float).ravel()
    if x.shape[0] != y.size:
        raise DimensionMismatch(f"{x.shape[0]} input rows but {y.size} targets")
    if y.size < 1:
        raise InvalidInput("need at least one training point")
    if not np.all(np.isfinite(y)):
        raise InvalidInput("targets must be finite")
    return x, y


def fit_covariance(hp: GpHyperParams, x: np.ndarray, y: np.ndarray, cov: np.ndarray) -> GpModel:
    """The model of checked training arrays ``x``, ``y`` whose K(X, X) is ``cov``.

    Adds eps to the diagonal of ``cov`` in place, factorizes C = K + eps*I,
    and precomputes L^-1 and C^-1 y. This is the one place a model's
    triangular inverse is formed; the factor L is dropped once its
    log-diagonal sum is taken. Jitter escalation beyond ``hp.epsilon``
    happens only if the factorization fails; ``model.jitter_used`` stays 0
    otherwise. The model keeps copies of ``x`` and ``y``.
    """
    cov.flat[:: len(cov) + 1] += hp.epsilon  # the diagonal, in place
    factor = cholesky(cov)
    del cov  # a kernel the caller kept no reference to is freed for solve and the inverse to reuse
    return GpModel(hp=hp, x_train=x.copy(), y_train=y.copy(), jitter_used=factor.jitter_used,
                   log_det_half=float(np.sum(np.log(np.diag(factor.lower)))),
                   alpha=solve(factor, y), linv=triangular_inverse(factor))


def gp_fit(hp: GpHyperParams, x_train, y_train) -> GpModel:
    """Check the training set and fit it from ``kernel_matrix``: see ``fit_covariance``."""
    x, y = _training_arrays(hp, x_train, y_train)
    return fit_covariance(hp, x, y, kernel_matrix(hp, x))


@dataclass(frozen=True)
class GpPrediction:
    """Posterior mean and (clamped, noise-free) variance per query point."""

    mean: np.ndarray
    variance: np.ndarray


def gp_predict(model: GpModel, x_new) -> GpPrediction:
    """Posterior mean k(X', X) alpha and variance v - ||L^-1 k(X, x')||^2.

    The mean is taken first; then V = L^-1 k(X, X') is one triangular
    product with the model's ``linv``, written over the Fortran-ordered
    transpose of the cross-covariance in place, and the variance is v
    minus the column sums of V^2 (GPML Algorithm 2.1). The jitter is
    excluded from the cross- and query-covariances, so the variance is for
    the noise-free latent; negative round-off is clamped to zero.
    """
    xs = _as_input_matrix(x_new, model.hp.p)
    cross = kernel_matrix(model.hp, xs, model.x_train)  # (m, n)
    mean = cross @ model.alpha
    lk = multiply_lower(model.linv, cross.T)  # L^-1 k(X, X'), (n, m), over cross
    variance = model.hp.v - np.einsum("ij,ij->j", lk, lk)
    return GpPrediction(mean=mean, variance=np.maximum(variance, 0.0))


def gp_nlml(model: GpModel) -> float:
    """Negative log marginal likelihood from the fit's cached terms.

    0.5 * y^T alpha + sum_i log L_ii + (n/2) log(2 pi)
    """
    return float(
        0.5 * np.dot(model.y_train, model.alpha)
        + model.log_det_half
        + 0.5 * model.y_train.size * math.log(2.0 * math.pi)
    )


def gp_loo_sse(model: GpModel) -> float:
    """Leave-one-out squared-error sum, computed from the model's L^-1.

    The held-out residual at point i is alpha_i / (K+eps*I)^-1_ii (GPML
    section 5.4.2), so no refits are needed; the diagonal is the column
    sums of the squares of the model's L^-1.
    """
    resid = model.alpha / np.einsum("ij,ij->j", model.linv, model.linv)
    return float(np.dot(resid, resid))


def _squared_differences(x: np.ndarray) -> list[np.ndarray]:
    """D_p[i, j] = (x[i, p] - x[j, p])^2, one n x n array per input column."""
    return [np.subtract.outer(col, col) ** 2 for col in x.T]


def _kernel_from_squared_differences(hp: GpHyperParams, sq: list[np.ndarray]) -> np.ndarray:
    """K = v * exp(sum_p -w_p * D_p) from ``_squared_differences(x)``.

    D_p is the square of the difference x - x' rounded once, as
    ``kernel_matrix`` forms it, and the terms are summed in the same column
    order, so K is bit for bit ``kernel_matrix(hp, x)``.
    """
    cov = sq[0] * -hp.w[0]
    for k in range(1, hp.p):
        cov += sq[k] * -hp.w[k]
    np.exp(cov, out=cov)
    cov *= hp.v
    return cov


def _log_hyper_gradient(hp: GpHyperParams, weight: np.ndarray, cov: np.ndarray,
                        sq: list[np.ndarray]) -> np.ndarray:
    """sum(weight * dC/dtheta_j) for theta = (log v, log w_1, ..., log w_p).

    C = K + eps*I with K = ``cov`` and the squared differences D_p = ``sq[p]``,
    so dC/dlog v = K and dC/dlog w_p = -w_p * D_p * K (elementwise, GPML
    eq. 5.9). With the weight W of an objective, this is its gradient in
    log space, tr(W dC/dtheta_j) for the symmetric C.
    """
    wk = weight * cov
    grad = np.zeros(hp.p + 1)
    grad[0] = wk.sum()
    for k, d in enumerate(sq):
        grad[k + 1] = -hp.w[k] * np.vdot(wk, d)
    return grad


def _nlml_weight(model: GpModel) -> np.ndarray:
    """W = (C^-1 - alpha alpha^T) / 2, so that dNLML/dtheta_j = tr(W dC/dtheta_j).

    This is GPML eq. 5.9, with C^-1 = L^-T L^-1 from the model's ``linv``.
    """
    return 0.5 * (model.linv.T @ model.linv - np.outer(model.alpha, model.alpha))


def _loo_sse_weight(model: GpModel) -> np.ndarray:
    """W with dSSE/dtheta_j = tr(W dC/dtheta_j) for the leave-one-out SSE.

    With c = diag(C^-1) and LOO residuals r = alpha / c, the derivatives
    d alpha = -C^-1 dC alpha and d C^-1 = -C^-1 dC C^-1 (GPML section
    5.4.2; Sundararajan & Keerthi, 2001) give
    W = 2 (C^-1 diag(r^2 / c) C^-1 - (C^-1 (r / c)) alpha^T), all from the
    model's ``linv``.
    """
    linv = model.linv
    cinv = linv.T @ linv
    c = np.einsum("ij,ij->j", linv, linv)
    resid = model.alpha / c
    weight = cinv @ ((resid * resid / c)[:, None] * cinv)
    weight -= np.outer(cinv @ (resid / c), model.alpha)
    return 2.0 * weight


_OBJECTIVES = {"nlml": gp_nlml, "sse": gp_loo_sse}
# W of each objective's gradient, sum(W * dC/dtheta_j)
_GRADIENT_WEIGHTS = {"nlml": _nlml_weight, "sse": _loo_sse_weight}


def gp_optimize_hyperparams(
    x_train,
    y_train,
    hp0: GpHyperParams,
    objective: str = "nlml",
) -> GpHyperParams:
    """Descend on log(v) and log(w_p); epsilon is held fixed.

    The log reparameterization keeps v and the weights positive. The
    returned hyperparameters never score worse than ``hp0`` on the chosen
    objective ("nlml" or "sse", the latter meaning held-out leave-one-out
    squared error). The descent follows the objective's closed-form
    gradient in log space, ``_log_hyper_gradient`` with the objective's
    weight from ``_GRADIENT_WEIGHTS`` (GPML eq. 5.9 and section 5.4.2), by
    ``gradient_descent``: a first step of 0.1, a stop when an accepted step
    lowers the objective by less than 1e-9, and at most 200 iterations.

    The training set is checked once, as ``gp_fit`` checks it, and the
    squared differences D_p of each input column are formed once per
    search. At each point the search evaluates, K = v * exp(sum_p -w_p * D_p)
    is built from them, bit for bit ``kernel_matrix``, and a copy of it is
    fitted by ``fit_covariance``. The model and K of the latest point are
    kept, and the gradient there reads them and D, so an iteration costs
    one fit per line-search trial and builds no kernel twice. Besides the
    model, a search holds these p + 1 n x n arrays, (p + 1) * n^2 floats:
    68 kB at n = 65 and p = 1.
    """
    if objective not in _OBJECTIVES:
        raise InvalidInput(f"objective must be one of {sorted(_OBJECTIVES)}, got {objective!r}")
    if any(wi <= 0 for wi in hp0.w):
        raise InvalidInput("log-space search needs strictly positive starting weights")
    score, gradient_weight = _OBJECTIVES[objective], _GRADIENT_WEIGHTS[objective]
    x, y = _training_arrays(hp0, x_train, y_train)
    sq = _squared_differences(x)
    last: dict[bytes, tuple[GpModel, np.ndarray]] = {}  # the model and K at the latest point fitted

    def hyper(theta: np.ndarray) -> GpHyperParams:
        vals = np.exp(theta)
        return replace(hp0, v=float(vals[0]), w=tuple(vals[1:]))

    def fitted(theta: np.ndarray) -> tuple[GpModel, np.ndarray]:
        key = theta.tobytes()
        if key not in last:
            last.clear()
            hp = hyper(theta)
            cov = _kernel_from_squared_differences(hp, sq)
            last[key] = fit_covariance(hp, x, y, cov.copy()), cov
        return last[key]

    def obj(theta: np.ndarray) -> float:
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.exp(theta))):
                return math.inf
        try:
            return score(fitted(theta)[0])
        except NotPositiveDefinite:
            return math.inf

    def grad(theta: np.ndarray) -> np.ndarray:
        model, cov = fitted(theta)
        return _log_hyper_gradient(model.hp, gradient_weight(model), cov, sq)

    return hyper(gradient_descent(obj, grad, np.log([hp0.v, *hp0.w])).x)


def training_set(
    series: ObservationSeries, default_ph: float = 7.0
) -> tuple[dict, np.ndarray, bool, TransformedInputs]:
    """Training data of a series: ``(columns, y, ph_assumed, times)``.

    ``columns`` maps each column of the contaminant's layout, in order, to
    its values; ``y`` is ``series.removal_fractions()``, the one derivation
    of removal. ``ph_assumed`` is True when ``default_ph`` filled some pH
    value. ``times`` is the log-time transform t_norm came from. Every fit
    that reads t_norm, W or removal takes them from here.
    """
    times = transform_time(series)
    columns = {"t_norm": times.t_norm}
    ph_assumed = False
    if series.contaminant is Contaminant.PB:
        ph = [s.ph for s in series.samples]
        ph_assumed = None in ph
        columns["ph"] = np.array([default_ph if p is None else p for p in ph])
    columns["thickness_cm"] = np.array([s.thickness_w for s in series.samples])
    return columns, series.removal_fractions(), ph_assumed, times
