"""Print the SHA-256 of every file the README command set, and more, writes.

The CLI outputs are byte-deterministic, so two versions of the package that
print the same lines here produce the same files. Each command runs in
process through ``pabfit.cli.main``, on the bundled fixtures, inside one
fresh temporary directory (the reports record their relative output paths,
so the directory name never reaches the bytes). Run from the repo root:

    PYTHONPATH=src python tools/output_hashes.py
    PYTHONPATH=src python tools/output_hashes.py --check tools/output_hashes.txt
    PYTHONPATH=src python tools/output_hashes.py --keep /tmp/outputs

Output: one ``<sha256>  <file>`` line per output file, sorted by name. The
commands' own summary lines go to stderr. With ``--check FILE`` it prints
nothing on a match and exits 0; otherwise it names, on stdout, every file
whose hash differs from FILE's line for it, is missing from FILE, or is
listed in FILE but no longer written, and exits 1. ``output_hashes.txt``
next to this script holds the hashes of the current package; a change that
alters output bytes on purpose updates it in the same commit. With
``--keep DIR`` the outputs are written to DIR, which must be empty or not
exist yet, and left there; ``tools/output_diff.py`` compares two such
directories number by number.

The GP outputs carry the last bits of the BLAS and LAPACK that scipy's
wheel bundles, and those bits also depend on how many threads BLAS runs.
``output_hashes.txt`` holds the values for OpenBLAS's default thread count
on a 2-vCPU host, with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` unset. With ``OPENBLAS_NUM_THREADS=1`` the check names
``gp.json``: its ``predictions[59].variance`` reads 1.0385535209600505e-09,
against 1.0385534654488993e-09 at the default. So on a mismatch
``--check`` also prints the values of those variables it ran with.

The outputs also depend on the SIMD kernels numpy dispatches ``exp`` and
``log`` to: ``output_hashes.txt`` holds the AVX-512 values (``X86_V4``).
Under ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` numpy
picks ``X86_V3`` and 25 of the 28 files change by rounding. So a mismatch
also prints numpy's float64 ``exp`` and ``log`` targets (``unknown`` where
numpy cannot report them) and that variable's value.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from pabfit import cli

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The "Command line" section of README.md, in order, then more commands on
# its outputs; later commands read the reports earlier ones write.
COMMANDS = [
    "fit-kinetics --input pcbc_run1.csv --output kin.json",
    "fit-exp --input mb_run1.csv --contaminant mb --output exp.json",
    "fit-exp --input mb_run1.csv --contaminant mb --exponent-form product --output exp2.json",
    "fit-gp --input pcbc_run1.csv --contaminant pb"
    " --hyper v=0.3852,w=0.7839,2.8869,2.859e-9 --output gp.json",
    "fit-gp --input mb_run1.csv --contaminant mb --optimize --objective nlml --output gp_mb.json",
    "fit-gp --input pcbc_run2.csv --contaminant pb --optimize --objective sse --output gp_sse.json",
    "predict --model gp.json --t-grid 60,600,3600 --w-grid 0,0.5,1.0,1.5 --output pred.json",
    "synth --generator first-order --k -0.0006 --seed 1 --output synth.csv",
    "report --inputs exp.json gp.json --scan-w 0,0.5,1.0,1.5 --output summary.json",
    # beyond the README: predict on every model kind (the first-order model,
    # the exponential model, the methylene-blue GP) and on the lead GP off
    # its one training pH, a report that scans three models at a given pH,
    # and the generators that build GP and exponential draws
    "predict --model kin.json --t-grid 0,1800,3600 --output pred_kin.json",
    "predict --model exp.json --t-grid 60,600,3600 --w-grid 0,0.5,1.0,1.5 --output pred_exp.json",
    "predict --model gp_mb.json --t-grid 60,600,3600 --w-grid 0,0.5,1.0,1.5 --output pred_mb.json",
    "predict --model gp.json --t-grid 3600 --w-grid 3 --ph 5 --output pred_ph.json",
    "report --inputs exp.json gp.json gp_mb.json --scan-w 0,0.5,1.0,1.5 --ph 7.2"
    " --output summary_ph.json",
    "synth --generator gp-draw --v 0.3 --w 6.0,2.0,1.0 --ph 6.5 --seed 3 --output synth_gp.csv",
    "synth --generator gp-draw --v 0.3 --w 6.0 --seed 4 --contaminant mb --output synth_gp1.csv",
    "synth --generator exp-model --a 2.068 --b 3.486 --noise-sd 0.005 --seed 5"
    " --contaminant mb --thickness 1.0 --output synth_exp.csv",
]


def run_command_set(workdir: Path) -> None:
    """Run every command with ``workdir`` as the working directory."""
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for command in COMMANDS:
                code = cli.main(command.split())
                if code != 0:
                    raise SystemExit(f"exit code {code} from: pabfit {command}")
    finally:
        os.chdir(previous)


def hashes_of(workdir: Path) -> dict[str, str]:
    """SHA-256 of each file in ``workdir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.iterdir())
    }


def output_hashes(keep: Path | None = None) -> dict[str, str]:
    """SHA-256 of each file the command set writes, by file name.

    The command set runs in ``keep`` when given, and its outputs stay there;
    otherwise in a temporary directory that is removed.
    """
    if keep is not None:
        keep.mkdir(parents=True, exist_ok=True)
        if any(keep.iterdir()):
            raise SystemExit(f"--keep directory {keep} is not empty")
        run_command_set(keep)
        return hashes_of(keep)
    with tempfile.TemporaryDirectory(prefix="pabfit-hashes-") as tmp:
        run_command_set(Path(tmp))
        return hashes_of(Path(tmp))


def simd_targets() -> str:
    """numpy's dispatch target for float64 ``exp`` and ``log``, by function."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy >= 2.2
    except ImportError:
        return "exp=unknown log=unknown"
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")  # name -> loop -> targets
    current = {name: loop["current"] for name, loops in info.items() for loop in loops.values()}
    return " ".join(f"{name}={current.get(name, 'unknown')}" for name in ("exp", "log"))


def mismatches(hashes: dict[str, str], listing: str) -> list[str]:
    """One line per file whose hash is not the one ``listing`` gives for it."""
    expected = {}
    for line in listing.splitlines():
        if line.strip():
            digest, name = line.split(maxsplit=1)
            expected[name] = digest
    problems = []
    for name in sorted(hashes.keys() | expected.keys()):
        if name not in expected:
            problems.append(f"{name}: not in the list")
        elif name not in hashes:
            problems.append(f"{name}: listed but not written")
        elif hashes[name] != expected[name]:
            problems.append(f"{name}: hash {hashes[name]} differs from the listed {expected[name]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE", help="compare with a saved list")
    parser.add_argument("--keep", metavar="DIR", type=Path, help="leave the outputs in DIR")
    args = parser.parse_args(argv)
    hashes = output_hashes(args.keep)
    if args.check is None:
        for name, digest in hashes.items():
            print(f"{digest}  {name}")
        return 0
    problems = mismatches(hashes, Path(args.check).read_text())
    for line in problems:
        print(line)
    if problems:
        threads = (f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREADS)
        print("BLAS threads: " + " ".join(threads))
        disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "unset")
        print(f"numpy SIMD: {simd_targets()} NPY_DISABLE_CPU_FEATURES={disabled}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
