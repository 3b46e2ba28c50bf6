"""Print how much work the two optimizers do on the bundled fixtures.

For every fixture and both GP objectives, one ``gp_optimize_hyperparams``
call from the shipped hyperparameters (the ``fit-gp --optimize`` path):
its fits (calls of ``gp.fit_covariance``, or of ``gp_fit`` in versions
without it), descent iterations, how the descent stopped, the held-out
score ``loo_r2`` and the objective at the returned hyperparameters.
``loo_r2`` is 1 - ``gp_loo_sse`` / TSS there, with TSS the targets' sum of
squares about their mean, so both objectives' answers are judged on the
same leave-one-out error. For both exponent forms, one
``fit_exp_model`` call, which picks its own starts, on the columns
``gp.training_set`` gives (as ``fit-exp`` reads them): its model
evaluations, then residual-and-Jacobian evaluations ("+Nj"), the
iterations of its Levenberg-Marquardt runs, how they stopped, ``-`` for
``loo_r2``, and the final SSE. Each residual-and-Jacobian evaluation makes
one model evaluation.

The ``stop`` column reads ``converged`` when every optimizer run met its
stopping rule (``DescentResult.converged``), ``cap`` when one ran out of
iterations (``numeric._MAX_ITERS``, 200, for the GP search's descent and
``numeric._LM_MAX_ITERS`` for Levenberg-Marquardt), so a search that the
cap cuts short shows, and ``drift`` when one stopped unconverged short of
its cap, as a Levenberg-Marquardt run that only drifts does. In a version
without those caps every unconverged run reads ``cap``. The counts come
from wrapping the module-level functions the optimizers look up, and a
function the package lacks counts 0 (its ``stop`` reads ``-``), so the
same script compares any two versions of the package. Run from the repo
root:

    PYTHONPATH=src python tools/optimizer_counts.py
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np

from pabfit import expmodel, gp, numeric
from pabfit.dataio import FIXTURES, load_fixture


@contextlib.contextmanager
def counting(module, *names):
    """Count the calls of ``module.<name>`` for each name, keeping the results."""
    calls: dict[str, list] = {name: [] for name in names}
    originals = {name: getattr(module, name) for name in names if hasattr(module, name)}

    def wrap(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name].append(None)
            calls[name][-1] = fn(*args, **kwargs)
            return calls[name][-1]

        return counted

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


def stop(results, cap: str) -> str:
    """``converged`` if every run met its stopping rule, ``cap`` if one ran out
    of the iterations ``numeric.<cap>`` allows, ``drift`` if one stopped short of them."""
    results = [r for r in results if r is not None]
    if not results:
        return "-"
    unconverged = [r.iterations for r in results if not r.converged]
    if not unconverged:
        return "converged"
    limit = getattr(numeric, cap, 0)  # without it, every unconverged run is at its cap
    return "cap" if max(unconverged) >= limit else "drift"


def gp_rows(name: str):
    series = load_fixture(name)
    x, y, _, _ = gp.training_set(series)
    hp0 = gp.default_hyperparams(series.contaminant)
    if isinstance(x, dict):  # layout columns by name: fit on those that vary, as fit-gp does
        hp0, x, _ = gp.select_inputs(hp0, x)
    tss = float(np.sum((y - np.mean(y)) ** 2))
    for objective, score in (("nlml", gp.gp_nlml), ("sse", gp.gp_loo_sse)):
        with counting(gp, "fit_covariance", "gp_fit", "gradient_descent") as calls:
            hp = gp.gp_optimize_hyperparams(x, y, hp0, objective=objective)
        fits = len(calls["fit_covariance"]) or len(calls["gp_fit"])
        iterations = sum(r.iterations for r in calls["gradient_descent"] if r is not None)
        model = gp.gp_fit(hp, x, y)
        loo_r2 = 1.0 - gp.gp_loo_sse(model) / tss
        stopped = stop(calls["gradient_descent"], "_MAX_ITERS")
        yield f"gp {objective}", fits, iterations, stopped, loo_r2, score(model)


def exp_rows(name: str):
    x, y, _, _ = gp.training_set(load_fixture(name))
    columns = list(x.values()) if isinstance(x, dict) else list(x.T)  # by name, or a design matrix
    data = np.column_stack([columns[0], columns[-1], y])  # (t_norm, W, removal); W is always last
    for form in expmodel.ExponentForm:
        names = ("exp_model_eval", "exp_model_residual_jacobian")
        with counting(expmodel, *names, "levenberg_marquardt") as calls:
            fit = expmodel.fit_exp_model(data, exponent_form=form)
        evals = "{}+{}j".format(*(len(calls[name]) for name in names))
        iterations = sum(r.iterations for r in calls["levenberg_marquardt"] if r is not None)
        stopped = stop(calls["levenberg_marquardt"], "_LM_MAX_ITERS")
        yield f"exp {form.value}", evals, iterations, stopped, None, fit.sse


def main() -> None:
    header = ("fixture", "optimizer", "evaluations", "iterations", "stop", "loo_r2")
    print("{:<14} {:<12} {:>12} {:>10}  {:<9}  {:>6}  final objective".format(*header))
    for name in FIXTURES:
        for label, evals, iterations, stopped, loo_r2, final in [*gp_rows(name), *exp_rows(name)]:
            loo = "-" if loo_r2 is None else f"{loo_r2:.4f}"
            print(f"{name:<14} {label:<12} {evals!s:>12} {iterations:>10}  {stopped:<9}  {loo:>6}  {final!r}")


if __name__ == "__main__":
    main()
