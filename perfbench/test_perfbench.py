"""Tests of the benchmark itself: wrong outputs count as failed ops, inputs
repeat per seed, and traced counts repeat exactly.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pabfit.gp  # noqa: E402
import pabfit.numeric  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import CheckFailed, CliInproc, CliMix, GpScale, GridPredict, Hyperopt  # noqa: E402

ENV = run.child_env()
MB_RUN1 = 4  # index of the cheapest series in the hyperopt pool


class SmallGpScale(GpScale):
    SIZES = (40, 70)


def test_measure_counts_failed_checks_and_raising_ops():
    class Fake:
        cycle = [0, 1, 2]

        def run(self, op):
            if op == 2:
                raise ValueError("op raised")
            return op

        def check(self, op, out):
            if op == 1:
                raise CheckFailed("wrong")

    seen = []
    timings, failed = run.measure(Fake(), 0.0, Fake().run, lambda op, exc: seen.append(op))
    assert [op for op, _ in timings] == [0, 1, 2, 0, 1, 2]
    assert failed == 4
    assert seen == [1, 2, 1, 2]


def test_latency_is_the_best_repetition_and_percentiles_are_ranks():
    timings = [(0, 3.0), (1, 9.0), (0, 1.0), (1, 5.0), (2, 7.0), (2, 8.0)]
    best = run.best_per_op([0, 1, 1, 2], timings)
    assert best == [1.0, 5.0, 5.0, 7.0]
    assert run.nearest_rank(best, 50) == 5.0
    assert run.nearest_rank(best, 90) == 7.0
    assert run.nearest_rank([4.0], 90) == 4.0


@pytest.mark.parametrize("cls", [CliMix, CliInproc])
def test_cli_mix_counts_changed_bytes_and_bad_exit(tmp_path, cls):
    wl = cls(3, tmp_path, ENV, ROOT)
    i = next(k for k, argv in enumerate(wl.argv) if argv[0] == "fit-kinetics")
    out = wl.replay(i)
    wl.check(i, out)
    wl.check(i, wl.replay(i))  # a second identical run passes
    target = tmp_path / wl.argv[i][-1]
    target.write_text(target.read_text().replace("0", "1", 1))
    with pytest.raises(CheckFailed):
        wl.check(i, out)
    with pytest.raises(CheckFailed):
        wl.check(i, (3, out[1]))


def test_hyperopt_counts_a_worse_optimum(tmp_path):
    wl = Hyperopt(1, tmp_path, ENV, ROOT)
    hps, fits = wl.run(MB_RUN1)
    wl.check(MB_RUN1, (hps, fits))
    hp0 = wl.series[MB_RUN1]["hp0"]
    worse = dict(hps, nlml=pabfit.gp.GpHyperParams(v=1e3 * hp0.v, w=hp0.w, epsilon=hp0.epsilon))
    with pytest.raises(CheckFailed):
        wl.check(MB_RUN1, (worse, fits))
    product = fits[1].__dict__  # sse ~8e-3 on this series: far from rounding
    for wrong in ({"sse": product["sse"] / 2}, {"a": product["a"] + 0.1}):
        with pytest.raises(CheckFailed):
            wl.check(MB_RUN1, (hps, [fits[0], fits[1].__class__(**{**product, **wrong})]))


def test_gp_scale_counts_a_posterior_off_by_more_than_the_tolerance(tmp_path):
    wl = SmallGpScale(2, tmp_path, ENV, ROOT)
    for k in (0, 1):
        mean, var, nlml, loo = wl.run(k)
        wl.check(k, (mean, var, nlml, loo))
        with pytest.raises(CheckFailed):
            wl.check(k, (mean + 1e-4, var, nlml, loo))
        with pytest.raises(CheckFailed):
            wl.check(k, (mean, var * 1.01 + 1e-4, nlml, loo))


def test_grid_predict_counts_one_wrong_row(tmp_path):
    wl = GridPredict(4, tmp_path, ENV, ROOT)
    for i in wl.cycle:
        wl.check(i, wl.run(i))
    path = tmp_path / "pred_exp.json"
    payload = json.loads(path.read_text())
    payload["predictions"][1234]["predicted"] += 1e-9
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckFailed):
        wl.check(0, 0)
    path = tmp_path / "scan.json"
    payload = json.loads(path.read_text())
    payload["comparison"][1]["thickness_scan"]["removal_at_optimum"] -= 1e-3
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckFailed):
        wl.check(2, 0)


def test_inputs_repeat_per_seed_and_differ_between_seeds(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        CliMix(seed, d, ENV, ROOT)
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    assert any((dirs[0] / n).read_bytes() != (dirs[2] / n).read_bytes() for n in files)
    a, b, c = (SmallGpScale(seed, d, ENV, ROOT) for d, seed in zip(dirs, (7, 7, 8)))
    assert np.array_equal(a.cases[1]["x"], b.cases[1]["x"])
    assert not np.array_equal(a.cases[1]["x"], c.cases[1]["x"])


def test_traced_counts_repeat_and_wrappers_come_off(tmp_path):
    wl = Hyperopt(1, tmp_path, ENV, ROOT)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.traced_op(wl.replay, MB_RUN1)
        m = tracer.layer_metrics()
        counts.append([m[k] for k in ("gp.gp_fit_calls", "numeric.objective_evals",
                                      "numeric.fd_gradient_evals", "expmodel.eval_calls",
                                      "numeric.descent_iterations")])
        names = tracer.names
        parents = np.frombuffer(tracer.s_parent, dtype=np.int32)
        kinds = np.frombuffer(tracer.s_name, dtype=np.int32)
        chol = kinds == names.index("numeric.cholesky")
        assert chol.any()
        # cholesky is reached through the name gp imported from numeric
        assert set(kinds[parents[chol]]) == {names.index("gp.gp_fit")}
        assert m["numeric.fd_gradient_evals"] > 0
        assert m["gp.gp_nlml_ms"] > 0 and m["gp.gp_loo_sse_ms"] > 0  # via gp's objective table
        assert 0 < m["numeric.line_search_accept_ratio"] <= 1
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][3] > 0
    assert pabfit.gp.cholesky is pabfit.numeric.cholesky
    assert not hasattr(pabfit.gp.gp_fit, "__wrapped__")
    assert not hasattr(pabfit.gp._OBJECTIVES["nlml"], "__wrapped__")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hyperopt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
