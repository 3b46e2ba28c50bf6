"""The byte contract: the CLI command set writes the files whose hashes
``tools/output_hashes.txt`` lists; ``tools/output_diff.py`` measures how
far two sets of outputs differ."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_command_set_outputs_match_the_listed_hashes(capsys):
    output_hashes = load_tool("output_hashes")
    code = output_hashes.main(["--check", str(TOOLS / "output_hashes.txt")])
    assert code == 0, capsys.readouterr().out


def test_output_diff_counts_changed_numbers(tmp_path, capsys):
    output_diff = load_tool("output_diff")
    diff = output_diff.compare('{"v": 0.5, "w": [2e-3, 7]}', '{"v": 0.4, "w": [2e-3, 7]}')
    assert (diff.numbers, diff.changed) == (3, 1)
    assert abs(diff.max_abs - 0.1) < 1e-15 and abs(diff.max_rel - 0.2) < 1e-15
    assert output_diff.compare("a,1\n", "b,1\n") is None
    before, after = tmp_path / "before", tmp_path / "after"
    for directory, text in ((before, "t,1.5\n"), (after, "t,1.25\n")):
        directory.mkdir()
        (directory / "same.csv").write_text("x,1\n")
        (directory / "moved.csv").write_text(text)
    (after / "new.csv").write_text("")
    assert output_diff.main([str(before), str(after)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["file", "moved.csv", "new.csv"]
    assert lines[1].split()[1:] == ["1", "1", "0.25", "0.167"]
    assert output_diff.main([str(before), str(before)]) == 0
