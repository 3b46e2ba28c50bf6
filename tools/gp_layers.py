"""Print how the GP layers scale with the number of points, for one or more checkouts.

For n = 65 (one fixture's size), 500 and 2000, on fixed seeded inputs laid
out like a lead design matrix (t_norm, pH, W) and the reference lead
hyperparameters, it times each layer of a fit and a prediction at m = n
query points: ``kernel_matrix`` on the training set and on the cross set,
``cholesky``, ``solve`` (one right-hand side), ``triangular_inverse``,
``multiply_lower`` (L^-1 times m right-hand sides, as ``gp_predict`` runs
it, on a fresh copy each call), the whole ``gp_fit``,
``gp_predict`` and ``gp_loo_sse``, and last one whole benchmark
``gp-scale`` op: ``gp_fit``, ``gp_predict`` at m = n, ``gp_nlml`` and
``gp_loo_sse``. Each entry is the best of ROUNDS * REPEATS repetitions, in
milliseconds; the best rather than the median, because the layers are
deterministic and the slower repetitions measure the host. Within one
size the layers run round-robin, one call of each per repetition, so a
swing in host speed reaches every row alike. Only functions that every
version of the package has are called, so the same script compares any two
versions. Run from the repo root:

    python tools/gp_layers.py
    python tools/gp_layers.py --src ../parent --src .

Each ``--src DIR`` names a checkout; its layers run in a child process
with ``PYTHONPATH=DIR/src``, which must import ``pabfit`` from there.
Without ``--src`` the checkout holding this script is timed. Each of ROUNDS
rounds runs every checkout once, REPEATS repetitions a time, and the
checkout that runs first alternates between rounds, so a slow spell of the
host reaches each alike. The output has one table per size and one column
per checkout.

The children run with one BLAS thread, as perfbench pins it:
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` are
1 unless the caller has set them, and the header prints the values used.
At the default OpenBLAS thread count on a 2-vCPU host, ``multiply_lower``
at n = 2000 read 77-86 ms against 153-194 ms on one thread (best of 8).

Edit SIZES, ROUNDS or REPEATS below for another sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (65, 500, 2000)
ROUNDS = 4
REPEATS = 10
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def inputs(n: int, seed: int) -> np.ndarray:
    """n seeded rows of (t_norm, pH, W) in the ranges the fixtures cover."""
    r = np.random.default_rng([seed, n])
    return np.column_stack([r.uniform(0.1, 1.0, n), r.uniform(6.0, 8.0, n), r.uniform(0.5, 3.0, n)])


def layer_times(n: int, repeats: int) -> dict[str, float]:
    from pabfit import gp, numeric
    from pabfit.domain import Contaminant

    hp = gp.default_hyperparams(Contaminant.PB)
    x, xq = inputs(n, 0), inputs(n, 1)
    y = np.clip(0.9 * (1 - np.exp(-3 * x[:, 0])) - 0.05 * (x[:, 1] - 7), 0.0, 1.0)
    cov = gp.kernel_matrix(hp, x)
    cov[np.diag_indices_from(cov)] += hp.epsilon
    factor = numeric.cholesky(cov)
    linv = numeric.triangular_inverse(factor)
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
        "triangular_inverse": lambda: numeric.triangular_inverse(factor),
        # the product overwrites its Fortran-ordered right-hand sides
        "multiply_lower": lambda: numeric.multiply_lower(linv, cross_t.copy(order="F")),
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


def child(src: Path) -> None:
    """One round in this process: print {n: {layer: ms}} as JSON, on the pabfit under ``src``."""
    import pabfit

    where = Path(pabfit.__file__).resolve()
    if not where.is_relative_to(src.resolve() / "src"):
        raise SystemExit(f"pabfit imported from {where}, not from {src}/src")
    print(json.dumps({n: layer_times(n, REPEATS) for n in SIZES}))


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment, with one BLAS thread unless set, importing from ``src``."""
    threads = {var: os.environ.get(var, "1") for var in BLAS_THREADS}
    return dict(os.environ, **threads, PYTHONPATH=str(src.resolve() / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", metavar="DIR", type=Path, action="append",
                        help="a checkout to time (repeatable; default: this script's)")
    parser.add_argument("--child", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    trees = args.src or [Path(__file__).resolve().parents[1]]
    env = child_env(trees[0])
    print(" ".join(f"{var}={env[var]}" for var in BLAS_THREADS))
    for i, tree in enumerate(trees, 1):
        print(f"[{i}] {tree}")
    best = [{n: {} for n in SIZES} for _ in trees]
    for r in range(ROUNDS):
        for i in [(r + j) % len(trees) for j in range(len(trees))]:
            run = subprocess.run([sys.executable, __file__, "--child", str(trees[i])],
                                 env=child_env(trees[i]), capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                raise SystemExit(f"the layers of {trees[i]} failed, exit code {run.returncode}")
            for n, times in json.loads(run.stdout).items():
                into = best[i][int(n)]
                for name, ms in times.items():
                    into[name] = min(into.get(name, ms), ms)
    names = list(best[0][SIZES[0]])
    width = max(map(len, names))
    print(f"best of {ROUNDS} rounds x {REPEATS}, ms")
    for n in SIZES:
        print(f"{f'n={n}':<{width}}" + "".join(f"{f'[{i}]':>12}" for i in range(1, len(trees) + 1)))
        for name in names:
            print(f"{name:<{width}}" + "".join(f"{b[n][name]:>12.3f}" for b in best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
