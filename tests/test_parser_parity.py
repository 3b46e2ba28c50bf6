"""``main`` parses with the invoked command's parser alone; everything it
prints, the exit code and the parsed options must be the full parser's."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from pabfit import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def readme_command_set() -> list[str]:
    spec = importlib.util.spec_from_file_location("output_hashes", TOOLS / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


# the shapes of the benchmark's in-process command lines not already in the
# README command set
BENCHMARK_LINES = [
    "synth --generator exp-model --a 2.1 --b 3.0 --seed 123 --noise-sd 0.005"
    " --contaminant mb --thickness 1.0 --output synth_mb.csv",
    "fit-kinetics --input syn_pb.csv --output kin.json",
    "fit-exp --input pcp_run1.csv --exponent-form product --output exp_product.json",
    "fit-gp --input pcp_run2.csv --hyper v=0.3852,w=0.7839,2.8869,2.859e-09 --output gp.json",
    "fit-gp --input pcbc_run2.csv --optimize --objective sse --output gp_sse.json",
    "predict --model model_gp.json --t-grid 61.5,900,3600 --w-grid 0,1.5,3 --output pred.json",
    "report --inputs model_exp.json model_gp.json --scan-w 0,1,2 --output summary.json",
]

MISUSE = [
    [],
    ["-h"],
    ["--version"],
    ["bogus"],
    ["fit-gp"],
    ["fit-gp", "--input", "a", "--output", "b", "--bogus"],
    ["fit-gp", "--objective", "foo", "--input", "a", "--output", "b"],
    ["fit-gp", "--version"],
    ["fit-gp", "--input", "a", "--output", "b", "--version"],
    ["fit-gp", "--o", "x"],  # ambiguous abbreviation
    ["fit-kinetics", "--c0", "x", "--input", "a", "--output", "b"],
    ["predict", "--model"],
    ["report", "--inputs"],
    ["synth", "--generator", "nope", "--output", "z"],
    ["synth", "--generator", "first-order", "--seed", "1.5", "--output", "z"],
    ["fit-gp", "--input", "a", "--output", "b", "report"],
    ["synth", "--generator", "first-order", "--output", "z", "--version"],
    ["fit-kinetics", "--input", "a", "--output", "b", "x", "y"],
    *([name, "-h"] for name in cli._COMMANDS),
]

ARGVS = [line.split() for line in readme_command_set() + BENCHMARK_LINES] + MISUSE


@pytest.fixture
def recorded(monkeypatch):
    """Every command's handler records its options instead of running."""
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    table = {name: (h, options, record) for name, (h, options, _) in cli._COMMANDS.items()}
    monkeypatch.setattr(cli, "_COMMANDS", table)
    return seen


def outcome(capsys, call):
    """(stdout, stderr, SystemExit code or None, return value) of ``call()``."""
    capsys.readouterr()
    try:
        result, code = call(), None
    except SystemExit as e:
        result, code = None, e.code
    out, err = capsys.readouterr()
    return out, err, code, result


def set_columns(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)


@pytest.mark.parametrize("columns", [None, "40", "15"])
@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, columns, recorded, capsys, monkeypatch):
    set_columns(monkeypatch, columns)
    out, err, code, result = outcome(capsys, lambda: cli.build_parser().parse_args(argv))
    expected = (out, err, code, None if result is None else vars(result))
    out, err, code, _ = outcome(capsys, lambda: cli.main(argv))
    assert (out, err, code, recorded[0] if recorded else None) == expected


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_one_command_parser_holds_that_command_alone(command, monkeypatch):
    # its usage names every command, as the full parser's does, so the two
    # print the same usage over the one command's argv
    parser = cli.build_parser(command)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [command]
    for columns in (None, "40"):
        set_columns(monkeypatch, columns)
        assert parser.format_usage() == cli.build_parser().format_usage()


USAGE = """usage: pabfit [-h] [--version]
              {fit-kinetics,fit-exp,fit-gp,predict,synth,report} ...
"""


def test_full_parser_names_the_command_argument(capsys, monkeypatch):
    # the subcommands' metavar, if set, would replace "command" in both messages
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(capsys, lambda: cli.main([]))[1:3] == (
        USAGE + "pabfit: error: the following arguments are required: command\n",
        2,
    )
    _, err, code, _ = outcome(capsys, lambda: cli.main(["bogus"]))
    assert code == 2
    # the quoting of the choices list differs between Python versions
    assert err.startswith(
        USAGE + "pabfit: error: argument command: invalid choice: 'bogus' (choose from "
    )
