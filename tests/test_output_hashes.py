"""The byte contract: the CLI command set writes the files whose hashes
``tools/output_hashes.txt`` lists; ``tools/output_diff.py`` measures how
far two sets of outputs differ."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow on the command set fails
def test_command_set_outputs_match_the_listed_hashes(capsys):
    output_hashes = load_tool("output_hashes")
    code = output_hashes.main(["--check", str(TOOLS / "output_hashes.txt")])
    assert code == 0, capsys.readouterr().out


def test_a_mismatch_names_the_blas_thread_settings(tmp_path, capsys, monkeypatch):
    output_hashes = load_tool("output_hashes")
    monkeypatch.setattr(output_hashes, "output_hashes", lambda keep: {"gp.json": "ab"})
    monkeypatch.setattr(output_hashes, "simd_targets", lambda: "exp=X86_V3 log=X86_V3")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")
    listing = tmp_path / "hashes.txt"
    listing.write_text("cd  gp.json\n")
    assert output_hashes.main(["--check", str(listing)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "gp.json: hash ab differs from the listed cd",
        "BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=2",
        "numpy SIMD: exp=X86_V3 log=X86_V3 NPY_DISABLE_CPU_FEATURES=X86_V4 AVX512_ICL AVX512_SPR",
    ]
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES")
    assert output_hashes.main(["--check", str(listing)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "numpy SIMD: exp=X86_V3 log=X86_V3 NPY_DISABLE_CPU_FEATURES=unset"
    )
    listing.write_text("ab  gp.json\n")
    assert output_hashes.main(["--check", str(listing)]) == 0
    assert capsys.readouterr().out == ""


def test_simd_targets_read_numpy_or_say_unknown(monkeypatch):
    output_hashes = load_tool("output_hashes")
    introspect = pytest.importorskip("numpy.lib.introspect")
    if hasattr(introspect, "opt_func_info"):
        names = [pair.split("=") for pair in output_hashes.simd_targets().split()]
        assert [name for name, _ in names] == ["exp", "log"]
        assert "unknown" not in [target for _, target in names]
        one_loop = {"exp": {"dd": {"current": "X86_V3", "available": "X86_V3"}}}
        monkeypatch.setattr(introspect, "opt_func_info", lambda func_name, signature: one_loop)
        assert output_hashes.simd_targets() == "exp=X86_V3 log=unknown"
        monkeypatch.delattr(introspect, "opt_func_info")
    assert output_hashes.simd_targets() == "exp=unknown log=unknown"


def test_output_diff_counts_changed_numbers(tmp_path, capsys):
    output_diff = load_tool("output_diff")
    diff = output_diff.compare('{"v": 0.5, "w": [2e-3, 7]}', '{"v": 0.4, "w": [2e-3, 7]}')
    assert (diff.numbers, diff.changed) == (3, 1)
    assert abs(diff.max_abs - 0.1) < 1e-15 and abs(diff.max_rel - 0.2) < 1e-15
    assert output_diff.compare("a,1\n", "b,1\n") is None
    # a JSON file that gains keys is compared at the paths both files hold
    gp_before = '{"v": 0.5, "w": [2e-3, 7], "rows": [{"t": 1}, {"t": 2}]}'
    gp_after = (
        '{"v": 0.4, "w": [2e-3], "rows": [{"t": 1, "ph": 7}, {"t": 2, "ph": 7}], "inputs": ["t"]}'
    )
    assert output_diff.compare(gp_before, gp_after) is None
    diff = output_diff.compare_json(gp_before, gp_after)
    assert (diff.numbers, diff.changed) == (4, 1)
    assert abs(diff.max_abs - 0.1) < 1e-15 and abs(diff.max_rel - 0.2) < 1e-15
    assert diff.keys == ("+inputs", "+rows[*].ph (2)", "-w[*]")
    assert output_diff.compare_json("a,1\n", "b,1\n") is None
    before, after = tmp_path / "before", tmp_path / "after"
    for directory, text, report in (
        (before, "t,1.5\n", '{"v": 0.5}'),
        (after, "t,1.25\n", '{"v": 0.4, "p": 1}'),
    ):
        directory.mkdir()
        (directory / "same.csv").write_text("x,1\n")
        (directory / "moved.csv").write_text(text)
        (directory / "gp.json").write_text(report)
    (after / "new.csv").write_text("")
    assert output_diff.main([str(before), str(after)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["file", "gp.json", "moved.csv", "new.csv"]
    assert lines[1].split()[1:] == ["1", "1", "0.1", "0.2", "+p"]
    assert lines[2].split()[1:] == ["1", "1", "0.25", "0.167"]
    assert output_diff.main([str(before), str(before)]) == 0
