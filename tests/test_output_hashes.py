"""The byte contract: the CLI command set writes the files whose hashes
``tools/output_hashes.txt`` lists."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_command_set_outputs_match_the_listed_hashes(capsys):
    spec = importlib.util.spec_from_file_location("output_hashes", TOOLS / "output_hashes.py")
    output_hashes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_hashes)
    code = output_hashes.main(["--check", str(TOOLS / "output_hashes.txt")])
    assert code == 0, capsys.readouterr().out
