"""``tools/optimizer_counts.py`` says how each optimizer run stopped and
scores each GP search on its leave-one-out error."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pabfit import gp, numeric
from pabfit.dataio import load_fixture
from pabfit.numeric import DescentResult

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool():
    spec = importlib.util.spec_from_file_location("optimizer_counts", TOOLS / "optimizer_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(converged, iterations=1):
    return DescentResult(x=None, fun=0.0, iterations=iterations, converged=converged)


def test_stop_reads_converged_cap_or_dash(monkeypatch):
    stop = load_tool().stop
    assert stop([result(True), result(True)], "_MAX_ITERS") == "converged"
    assert stop([result(True), result(False, numeric._MAX_ITERS)], "_MAX_ITERS") == "cap"
    assert stop([None], "_MAX_ITERS") == "-"  # a run that raised
    assert stop([], "_MAX_ITERS") == "-"  # the optimizer is not there to wrap
    # an unconverged run short of its optimizer's cap stopped because it only drifted
    assert stop([result(True), result(False, 150)], "_LM_MAX_ITERS") == "drift"
    assert stop([result(False, 150), result(False, numeric._LM_MAX_ITERS)], "_LM_MAX_ITERS") == "cap"
    monkeypatch.setattr(numeric, "_LM_MAX_ITERS", 150)  # the cap is read at each call
    assert stop([result(False, 150)], "_LM_MAX_ITERS") == "cap"
    monkeypatch.delattr(numeric, "_LM_MAX_ITERS")  # a version without the cap
    assert stop([result(False, 150)], "_LM_MAX_ITERS") == "cap"


def test_the_pcp_run2_sse_search_stops_at_the_cap():
    rows = {label: row for label, *row in load_tool().gp_rows("pcp_run2.csv")}
    _, iterations, stopped, _, _ = rows["gp sse"]
    assert (iterations, stopped) == (200, "cap")
    assert rows["gp nlml"][2] == "converged"


def test_loo_r2_scores_each_search_on_its_held_out_error():
    rows = {label: row for label, *row in load_tool().gp_rows("pcp_run1.csv")}
    assert [round(rows[label][3], 4) for label in ("gp nlml", "gp sse")] == [0.7911, 0.9938]
    # the sse search's objective is the held-out error itself
    _, y, _, _ = gp.training_set(load_fixture("pcp_run1.csv"))
    tss = float(np.sum((y - np.mean(y)) ** 2))
    assert rows["gp sse"][3] == pytest.approx(1.0 - rows["gp sse"][4] / tss, rel=1e-12)


def test_loo_r2_is_a_dash_for_the_exponential_fits(capsys):
    tool = load_tool()
    assert [row[4] for row in tool.exp_rows("mb_run1.csv")] == [None, None]
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[5] == "loo_r2"
    assert {line.split()[6] for line in lines[1:] if " exp " in line} == {"-"}
