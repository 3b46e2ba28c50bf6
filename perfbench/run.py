"""pabfit benchmark: closed-loop workloads, end-to-end or traced per layer.

    python3 perfbench/run.py --workload gp-scale --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from a checkout of the repository; the code under test is the
checkout's ``src/pabfit``, nothing installed. One client runs ops one
after another and waits for each. Whole cycles of ops run while one
more is expected to end within ``--seconds``; an op's latency is the fastest
of its repetitions in the run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Lines before it give the same figures readably, the
sample counts, and the environment the run used.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUPS = 5  # set-up repeats per untraced run; setup_s is their median
MIN_CYCLES = 2  # every op repeats, so cli-mix can compare bytes and each op has a best of two

# One BLAS thread, in this process and in every child, before numpy loads.
# With nproc = 2 and the default two OpenBLAS threads, a 65 x 65 solve
# occasionally waits ~16 ms for the second thread; pinning removes that
# noise from both sides of any comparison. The setting is recorded.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}



def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def nearest_rank(values: list[float], q: float) -> float:
    """q-th percentile by nearest rank: always one of the values, never between two."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def best_per_op(cycle: list, timings: list[tuple[object, float]]) -> list[float]:
    """Latency of each op in the cycle: the fastest of its repetitions in the run.

    The host alternates between two CPU speeds about 1.7x apart, switching
    within seconds. A fixed 65 x 65 Cholesky loop has a median that moves
    by ~40% (interquartile) between 25 s windows, while its minimum moves
    by ~2.5%. The best of an op's repetitions is its latency on an
    uncontended core, which is what a change to the code can move.
    """
    best: dict = {}
    for op, d in timings:
        best[op] = min(d, best.get(op, math.inf))
    return [best[op] for op in cycle]


def measure(wl, seconds: float, call, on_fail) -> tuple[list[tuple[object, float]], int]:
    """Repeat whole cycles while one more is expected to end within ``seconds``.

    Returns (op, seconds) for every op run, and the number that failed.
    """
    timings: list[tuple[object, float]] = []
    failed = 0
    cycle_times: list[float] = []
    start = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        for op in wl.cycle:
            gc.collect()  # each op starts from the same heap, as a fresh process would
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            timings.append((op, time.perf_counter() - t0))
            try:
                if isinstance(out, Exception):
                    raise out
                wl.check(op, out)
            except Exception as exc:
                failed += 1
                on_fail(op, exc)
        cycle_times.append(time.perf_counter() - c0)
        elapsed = time.perf_counter() - start
        if len(cycle_times) >= MIN_CYCLES and elapsed + statistics.mean(cycle_times) > seconds:
            return timings, failed


def report_failure(op, exc) -> None:
    kind = type(exc).__name__
    print(f"perfbench: op {op} failed: {kind}: {exc}", file=sys.stderr)
    if kind != "CheckFailed":
        traceback.print_exception(exc, file=sys.stderr)


def run_workload(args) -> dict:
    import envinfo
    from workloads import WORKLOADS
    import tracing

    cls = WORKLOADS[args.workload]
    env = child_env()
    print("env " + json.dumps(envinfo.collect(), sort_keys=True))
    workdir = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times = []
    try:
        for k in range(1 if args.trace else SETUPS):
            d = workdir / f"setup{k}"
            d.mkdir(parents=True)
            t0 = time.perf_counter()
            wl = cls(args.seed, d, env, ROOT)
            wl.warm_up()
            setup_times.append(time.perf_counter() - t0)

        if not args.trace:
            timings, failed = measure(wl, args.seconds, wl.run, report_failure)
            best = best_per_op(wl.cycle, timings)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "op_p50_ms": 1e3 * nearest_rank(best, 50),
                "op_p90_ms": 1e3 * nearest_rank(best, 90),
                "ops_per_s": len(best) / sum(best),
                "peak_rss_mb": wl.peak_rss_mb(),
            }
            units = metric_units("end_to_end")
            every = [1e3 * d for _, d in timings]
            reps = Counter(op for op, _ in timings).values()
            print(f"samples {len(timings)} ops, {len(wl.cycle)} per cycle, "
                  f"best of {min(reps)} to {max(reps)} repetitions per op; "
                  f"all samples: p50 {nearest_rank(every, 50):.6g} ms, p90 {nearest_rank(every, 90):.6g} ms")
        else:
            half = args.seconds / 2
            plain, failed_plain = measure(wl, half, wl.replay, report_failure)
            tracer = tracing.Tracer()
            traced, failed_traced = measure(
                wl, half, lambda op: tracer.traced_op(wl.replay, op), report_failure)
            failed = failed_plain + failed_traced
            timings = plain + traced
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ms"] = 1e3 * (nearest_rank(best_per_op(wl.cycle, traced), 50)
                                                  - nearest_rank(best_per_op(wl.cycle, plain), 50))
            metrics.update(tracing.import_probes(env))
            units = metric_units("per_layer")
            RUNS.mkdir(exist_ok=True)
            out = RUNS / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.save(out, {"workload": args.workload, "seed": args.seed})
            print(f"spans {len(tracer.s_name)} written to {out.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(timings)
    for name in units:
        note = " (computed)" if name in tracing.COMPUTED else ""
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}{note}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-mix", "cli-inproc", "hyperopt", "gp-scale", "grid-predict", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "pabfit" / "__init__.py").is_file():
        fail(f"no pabfit sources at {SRC}; run from a full checkout")
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import pabfit

    if Path(pabfit.__file__).resolve().parent != SRC / "pabfit":
        fail(f"imported pabfit from {pabfit.__file__}, not from {SRC}")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
