"""``tools/optimizer_counts.py`` says how each optimizer run stopped."""

import importlib.util
from pathlib import Path

from pabfit.numeric import DescentResult

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool():
    spec = importlib.util.spec_from_file_location("optimizer_counts", TOOLS / "optimizer_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(converged):
    return DescentResult(x=None, fun=0.0, iterations=1, converged=converged)


def test_stop_reads_converged_cap_or_dash():
    stop = load_tool().stop
    assert stop([result(True), result(True)]) == "converged"
    assert stop([result(True), result(False)]) == "cap"
    assert stop([None]) == "-"  # a run that raised
    assert stop([]) == "-"  # the optimizer is not there to wrap


def test_the_pcp_run2_sse_search_stops_at_the_cap():
    rows = {label: row for label, *row in load_tool().gp_rows("pcp_run2.csv")}
    _, iterations, stopped, _ = rows["gp sse"]
    assert (iterations, stopped) == (200, "cap")
    assert rows["gp nlml"][2] == "converged"
