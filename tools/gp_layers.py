"""Print how the GP layers scale with the number of points.

For n = 65 (one fixture's size), 500 and 2000, on fixed seeded inputs laid
out like a lead design matrix (t_norm, pH, W) and the reference lead
hyperparameters, it times each layer of a fit and a prediction at m = n
query points: ``kernel_matrix`` on the training set and on the cross set,
``cholesky``, ``solve`` (one right-hand side), ``solve_lower`` (m
right-hand sides), ``triangular_inverse``, the whole ``gp_fit``,
``gp_predict`` and ``gp_loo_sse``, and last one whole benchmark
``gp-scale`` op: ``gp_fit``, ``gp_predict`` at m = n, ``gp_nlml`` and
``gp_loo_sse``. Each entry is the best of REPEATS repetitions, in
milliseconds; the best rather than the median, because the layers are
deterministic and the slower repetitions measure the host. Within one
size the layers run round-robin, one call of each per repetition, so a
swing in host speed reaches every row alike. Only functions that every
version of the package has are called, so the same script compares any two
versions. Run from the repo root:

    PYTHONPATH=src python tools/gp_layers.py

Edit SIZES or REPEATS below for another sweep.
"""

from __future__ import annotations

import time

import numpy as np

from pabfit import gp, numeric
from pabfit.domain import Contaminant

SIZES = (65, 500, 2000)
REPEATS = 40


def inputs(n: int, seed: int) -> np.ndarray:
    """n seeded rows of (t_norm, pH, W) in the ranges the fixtures cover."""
    r = np.random.default_rng([seed, n])
    return np.column_stack([r.uniform(0.1, 1.0, n), r.uniform(6.0, 8.0, n), r.uniform(0.5, 3.0, n)])


def layer_times(n: int, repeats: int) -> dict[str, float]:
    hp = gp.default_hyperparams(Contaminant.PB)
    x, xq = inputs(n, 0), inputs(n, 1)
    y = np.clip(0.9 * (1 - np.exp(-3 * x[:, 0])) - 0.05 * (x[:, 1] - 7), 0.0, 1.0)
    cov = gp.kernel_matrix(hp, x)
    cov[np.diag_indices_from(cov)] += hp.epsilon
    factor = numeric.cholesky(cov)
    cross_t = gp.kernel_matrix(hp, xq, x).T
    model = gp.gp_fit(hp, x, y)

    def gp_scale_op():
        fitted = gp.gp_fit(hp, x, y)
        gp.gp_predict(fitted, xq)
        gp.gp_nlml(fitted)
        gp.gp_loo_sse(fitted)

    layers = {
        "kernel_matrix(train)": lambda: gp.kernel_matrix(hp, x),
        "kernel_matrix(cross)": lambda: gp.kernel_matrix(hp, xq, x),
        "cholesky": lambda: numeric.cholesky(cov),
        "solve": lambda: numeric.solve(factor, y),
        "solve_lower": lambda: numeric.solve_lower(factor, cross_t),
        "triangular_inverse": lambda: numeric.triangular_inverse(factor),
        "gp_fit": lambda: gp.gp_fit(hp, x, y),
        "gp_predict": lambda: gp.gp_predict(model, xq),
        "gp_loo_sse": lambda: gp.gp_loo_sse(model),
        "gp-scale op": gp_scale_op,
    }
    best = dict.fromkeys(layers, float("inf"))
    for _ in range(repeats):
        for name, fn in layers.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return {name: 1e3 * seconds for name, seconds in best.items()}


def main() -> None:
    table = {n: layer_times(n, REPEATS) for n in SIZES}
    names = list(table[SIZES[0]])
    width = max(map(len, names))
    print(f"best of {REPEATS}, ms")
    print(f"{'layer':<{width}}" + "".join(f"{f'n={n}':>12}" for n in SIZES))
    for name in names:
        print(f"{name:<{width}}" + "".join(f"{table[n][name]:>12.3f}" for n in SIZES))


if __name__ == "__main__":
    main()
