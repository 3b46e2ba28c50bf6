"""Span tracing from outside the package, and the per-layer metrics it yields.

Every public function of each pabfit module is replaced, under every name
that binds it in any pabfit module or module-level dict (so
``pabfit.gp.cholesky`` is covered as well as ``pabfit.numeric.cholesky``,
and ``gp_nlml`` as reached through gp's objective table), by a wrapper
that records a span:
name, start, end, parent span and op id. The objective that
``gradient_descent`` receives is wrapped too, which separates
finite-difference evaluations from line-search trials. Spans stay in
compact arrays in memory and are written out once, at the end of the run.
Counts that need no clock (rows built, bytes written, computed flops and
temporary bytes) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "dataio", "domain", "kinetics", "expmodel", "gp", "numeric", "metrics")
# not a span: main's self time is meant to include building the parser
UNTRACED = {"cli.build_parser"}
OP = "op"
OBJECTIVE = "numeric.objective"

# per-layer metric -> span whose self time (ms per op) it reports
SELF_MS = {
    "cli.main_ms": "cli.main",
    "dataio.load_series_ms": "dataio.load_series",
    "dataio.read_report_ms": "dataio.read_report",
    "dataio.write_report_ms": "dataio.write_report",
    "domain.to_removal_series_ms": "domain.to_removal_series",
    "kinetics.fit_first_order_ms": "kinetics.fit_first_order",
    "expmodel.fit_exp_model_ms": "expmodel.fit_exp_model",
    "expmodel.eval_ms": "expmodel.exp_model_eval",
    "gp.kernel_matrix_ms": "gp.kernel_matrix",
    "gp.gp_fit_ms": "gp.gp_fit",
    "gp.gp_predict_ms": "gp.gp_predict",
    "gp.gp_loo_sse_ms": "gp.gp_loo_sse",
    "gp.gp_nlml_ms": "gp.gp_nlml",
    "numeric.cholesky_ms": "numeric.cholesky",
    "numeric.solve_ms": "numeric.solve",
    "metrics.compute_metrics_ms": "metrics.compute_metrics",
}
# per-layer metric -> span whose call count (per op) it reports
CALLS = {
    "domain.to_removal_series_calls": "domain.to_removal_series",
    "domain.transform_time_calls": "domain.transform_time",
    "expmodel.eval_calls": "expmodel.exp_model_eval",
    "gp.gp_fit_calls": "gp.gp_fit",
    "numeric.cholesky_calls": "numeric.cholesky",
    "numeric.solve_calls": "numeric.solve",
}
# work counts computed from array shapes, not measured
COMPUTED = {"gp.kernel_matrix_temp_bytes", "numeric.cholesky_flops", "numeric.solve_flops"}
# counters recorded by the wrappers, reported per op
COUNTERS = (
    "cli.rows_built",
    "dataio.bytes_written",
    "gp.kernel_matrix_temp_bytes",
    "gp.not_pd_trials",
    "numeric.jitter_escalations",
    "numeric.solve_flops",
    "numeric.descent_iterations",
    "numeric.objective_evals",
    "numeric.fd_gradient_evals",
)


class Tracer:
    """Installs the wrappers, records spans and counters, and removes them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(int)
        self._bindings_cache: list | None = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1])
        self.s_op.append(self.op_id)
        self.s_end.append(0)
        self.stack.append(idx)
        self.s_start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.s_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, after=None):
        nid = self._id(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                finish(idx)
                if after is not None:
                    after(args, kwargs, None, exc)
                raise
            finish(idx)
            if after is not None:
                after(args, kwargs, result, None)
            return result

        return wrapper

    def _after_kernel_matrix(self, args, kwargs, result, exc):
        hp, x = args[0], args[1]
        x2 = args[2] if len(args) > 2 else kwargs.get("x2")
        n = np.shape(x)[0]
        m = n if x2 is None else np.shape(x2)[0]
        self.counters["gp.kernel_matrix_temp_bytes"] += n * m * hp.p * 8

    def _after_cholesky(self, args, kwargs, result, exc):
        n = np.shape(args[0])[0]
        self.counters["numeric.cholesky_n3"] += n**3  # integer sum, so the per-op count repeats exactly
        initial = args[1] if len(args) > 1 else kwargs.get("initial_jitter", 0.0)
        if exc is not None:
            if type(exc).__name__ == "NotPositiveDefinite":
                self.counters["gp.not_pd_trials"] += 1
                self.counters["numeric.jitter_escalations"] += 1
        elif result.jitter_used > initial:
            self.counters["numeric.jitter_escalations"] += 1

    def _after_solve(self, args, kwargs, result, exc):
        rhs = np.shape(args[1])
        n = rhs[0]
        k = rhs[1] if len(rhs) > 1 else 1
        self.counters["numeric.solve_flops"] += 2 * n * n * k

    def _after_descent(self, args, kwargs, result, exc):
        if result is not None:
            self.counters["numeric.descent_iterations"] += result.iterations

    def _gradient_descent(self, fn):
        """Span around the descent, plus a span and a count per objective call."""
        traced = self._span(fn, "numeric.gradient_descent", self._after_descent)
        obj_id = self._id(OBJECTIVE)
        fd_id = self._id("numeric.finite_difference_gradient")
        c = self.counters

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            best = []  # objective at the accepted point, as the descent tracks it

            def counted(theta):
                parent = self.stack[-1]
                idx = self.begin(obj_id)
                try:
                    val = objective(theta)
                finally:
                    self.finish(idx)
                c["numeric.objective_evals"] += 1
                if self.s_name[parent] == fd_id:
                    c["numeric.fd_gradient_evals"] += 1
                elif not best:
                    best.append(float(val))  # the starting point
                else:
                    c["numeric.line_search_trials"] += 1
                    if val < best[0]:
                        c["numeric.line_search_accepted"] += 1
                        best[0] = float(val)
                return val

            return traced(counted, *args, **kwargs)

        return wrapper

    def _counting(self, fn, counter: str, amount):
        c = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            c[counter] += amount(args)
            return result

        return wrapper

    def _bindings(self) -> list[tuple[dict, str, object, object]]:
        """(namespace, name, original, wrapper) for every name to replace."""
        import pabfit.cli as cli
        import pabfit.dataio as dataio

        after = {
            "gp.kernel_matrix": self._after_kernel_matrix,
            "numeric.cholesky": self._after_cholesky,
            "numeric.solve": self._after_solve,
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"pabfit.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                if name == "numeric.gradient_descent":
                    wrappers[id(obj)] = self._gradient_descent(obj)
                else:
                    wrappers[id(obj)] = self._span(obj, name, after.get(name))
        wrappers[id(dataio._atomic_write)] = self._counting(
            dataio._atomic_write, "dataio.bytes_written", lambda a: os.path.getsize(a[0])
        )
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "pabfit" or mod_name.startswith("pabfit."):
                namespace = vars(mod)
                # module-level tables bind functions too (gp's objective table)
                tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
                for table in tables:
                    for key, obj in table.items():
                        if id(obj) in wrappers:
                            bindings.append((table, key, obj, wrappers[id(obj)]))
        rows = self._counting(cli.PredictionRow, "cli.rows_built", lambda a: 1)
        bindings.append((vars(cli), "PredictionRow", cli.PredictionRow, rows))
        return bindings

    def traced_op(self, fn, *args):
        """Run one benchmark op as a root span with every wrapper installed."""
        if self._bindings_cache is None:
            self._bindings_cache = self._bindings()
        for table, key, _, wrapper in self._bindings_cache:
            table[key] = wrapper
        self.op_id += 1
        idx = self.begin(self._id(OP))
        try:
            return fn(*args)
        finally:
            self.finish(idx)
            for table, key, original, _ in self._bindings_cache:
                table[key] = original

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.s_op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.s_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.s_end, dtype=np.int64).copy(),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Self time and calls per op for each span name, plus counters per op."""
        a = self.arrays()
        ops = self.op_id + 1
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_ns = dur - covered
        width = len(self.names)
        self_by_name = np.bincount(a["name"], weights=self_ns, minlength=width)
        calls = np.bincount(a["name"], minlength=width)

        def per_op_ms(span):
            return float(self_by_name[self._ids[span]]) / ops / 1e6 if span in self._ids else 0.0

        def per_op_calls(span):
            return float(calls[self._ids[span]]) / ops if span in self._ids else 0.0

        out = {k: per_op_ms(span) for k, span in SELF_MS.items()}
        out.update({k: per_op_calls(span) for k, span in CALLS.items()})
        out.update({k: self.counters.get(k, 0.0) / ops for k in COUNTERS})
        out["numeric.cholesky_flops"] = self.counters.get("numeric.cholesky_n3", 0) / 3 / ops
        trials = self.counters.get("numeric.line_search_trials", 0.0)
        accepted = self.counters.get("numeric.line_search_accepted", 0.0)
        out["numeric.line_search_accept_ratio"] = accepted / trials if trials else 0.0
        out["trace.ops"] = float(ops)
        out["trace.uncovered_ms"] = per_op_ms(OP)
        return out

    def save(self, path: Path, extra: dict) -> None:
        keys = sorted(self.counters)
        np.savez(path, names=np.array(self.names), **self.arrays(),
                 counter_names=np.array(keys), counter_values=np.array([self.counters[k] for k in keys]),
                 **extra)


def import_probes(env: dict, reps: int = 5) -> dict[str, float]:
    """Median wall time of a bare interpreter, and of two imports timed inside one."""
    timed = "import time{pre}; t = time.perf_counter(); import {mod}; print(time.perf_counter() - t)"
    probes = {
        "import.pabfit_cli_ms": timed.format(pre="", mod="pabfit.cli"),
        "import.scipy_linalg_ms": timed.format(pre=", numpy", mod="scipy.linalg"),
    }
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        samples["import.interpreter_ms"].append(time.perf_counter() - t0)
        for key, code in probes.items():
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            samples[key].append(float(out.strip()))
    return {k: 1e3 * statistics.median(v) for k, v in samples.items()}
