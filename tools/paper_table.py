"""Print each model's R^2 and RMSE on each bundled fixture next to the paper's claims.

The paper reports R^2 > 0.95 for the first-order kinetic fits and
R^2 > 0.99 for every removal model against the measured removal. Each row
here is one CLI fit, run in process through ``pabfit.cli.main`` in a
temporary directory, and its numbers are the ``metrics`` of the report it
writes: for ``fit-kinetics`` on ln(concentration), for the exponential
model and the GP (reference hyperparameters) on the removal fraction. Only
the CLI is used, so the same script runs against any version of the
package. Run from the repo root:

    PYTHONPATH=src python tools/paper_table.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from pabfit import cli
from pabfit.dataio import FIXTURES

# (label, subcommand and options, the paper's R^2 threshold)
MODELS = [
    ("first-order", ["fit-kinetics"], 0.95),
    ("exp literal", ["fit-exp"], 0.99),
    ("exp product", ["fit-exp", "--exponent-form", "product"], 0.99),
    ("gp reference", ["fit-gp"], 0.99),
]


def fit_metrics(workdir: Path, fixture: str, argv: list[str]) -> dict:
    """The ``metrics`` of the report one CLI fit writes on ``fixture``."""
    out = workdir / "fit.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            *argv, "--input", fixture, "--contaminant", FIXTURES[fixture].value,
            "--output", str(out),
        ])
    if code != 0:
        raise SystemExit(f"exit code {code} from: pabfit {' '.join(argv)} on {fixture}")
    return json.loads(out.read_text())["metrics"]


def main() -> None:
    print(f"{'fixture':<14} {'model':<13} {'R^2':>8} {'RMSE':>10}  paper claim  meets")
    with tempfile.TemporaryDirectory(prefix="pabfit-paper-") as tmp:
        for fixture in FIXTURES:
            for label, argv, threshold in MODELS:
                m = fit_metrics(Path(tmp), fixture, argv)
                meets = "yes" if m["r2"] > threshold else "no"
                print(
                    f"{fixture:<14} {label:<13} {m['r2']:>8.4f} {m['rmse']:>10.4g}"
                    f"  R^2 > {threshold:<5}  {meets}"
                )


if __name__ == "__main__":
    main()
