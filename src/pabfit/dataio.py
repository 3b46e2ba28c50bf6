"""CSV ingestion, synthetic series generation, and report serialization.

Input files are headered CSV with the canonical columns ``time_min``,
``concentration_mg_l``, ``removal_pct``, ``thickness_cm``, ``ph``. Reports
go out as JSON (sorted keys, stable float repr, so identical runs produce
identical bytes) plus a flat CSV of prediction rows for external plotting.
Each output file is written to a new file beside it, then renamed over it,
so it appears whole or not at all, with the mode a plain ``open`` gives a
new file, 0666 less the umask. A report's CSV is written before its JSON:
a failed run leaves no new JSON without its CSV, though a failure on the
JSON itself can leave the new CSV beside the old JSON.

Every input file is read as UTF-8 text, less a leading byte-order mark (a
spreadsheet's "CSV UTF-8" export writes one); other bytes are a ``ParseError``.
``load_series`` and ``write_series`` both read ``_COLUMNS``, the one table
of the CSV columns. The loader checks only the CSV (a header of known
columns, each named once; no row longer than it; a time cell in every row);
the ``ObservationSeries`` constructor checks the values, times included.

``generate_synthetic`` takes the generator by its ``synth`` name and each
option as a typed keyword; the GP draw factors its covariance with
``gp.covariance_factor``, with the jitter a fit adds. Synthetic series are
seeded through numpy's default PCG64 generator, which is stable across
platforms and releases; the seed alone reproduces a file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import (
    MAX_PH,
    Contaminant,
    FitReport,
    ModelKind,
    ObservationSeries,
    PredictionRow,
    Sample,
    log_time_norm,
)
from .errors import FileIOError, InvalidInput, InvalidSpec, ParseError, ValidationError
from .expmodel import ExpModelParams, ExponentForm, exp_model_eval
from .gp import GpHyperParams, covariance_factor, design_matrix
from .metrics import FitMetrics

# each CSV column: the Sample field it holds, in field order, and the file's
# unit as a multiple of the field's (removal is a fraction, the file's a percent)
_COLUMNS = {
    "time_min": ("t_raw", 1.0),
    "concentration_mg_l": ("concentration", 1.0),
    "removal_pct": ("removal_fraction", 100.0),
    "thickness_cm": ("thickness_w", 1.0),
    "ph": ("ph", 1.0),
}
CANONICAL_COLUMNS = tuple(_COLUMNS)

# effluent sampling schedule: every 10 min over the first hour, then hourly
DEFAULT_SCHEDULE = tuple(float(t) for t in list(range(10, 61, 10)) + list(range(120, 3601, 60)))

FIXTURE_DIR_ENV = "PABFIT_FIXTURE_DIR"

_FLOAT_MAX = float(np.finfo(float).max)
# the largest ln of a finite time, so exp() of a report's time_denominator stays finite
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)


def _read_text(path: Path) -> str:
    """An input file's text, less any byte-order mark: FileIOError if unreadable, ParseError if not UTF-8."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as e:
        raise FileIOError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not valid UTF-8 ({e})") from None


def _parse_row(row: dict, i: int) -> Sample:
    """Data row ``i`` as a Sample, each cell in its field's unit; an empty
    or absent cell is None."""
    values = []
    for column, (_, unit) in _COLUMNS.items():
        raw = row.get(column)
        try:
            values.append(None if raw is None or raw.strip() == "" else float(raw) / unit)
        except ValueError:
            raise ParseError(f"row {i}, column {column}: cannot parse {raw!r} as a number") from None
    return Sample(*values)


def load_series(
    path: str | Path,
    contaminant: Contaminant,
    c0: float,
    default_thickness_cm: float | None = None,
) -> ObservationSeries:
    """Read a CSV file into an :class:`ObservationSeries`.

    ``contaminant``, ``c0`` and ``default_thickness_cm`` (for rows without a
    thickness cell) are the run-level facts the file itself does not carry.
    Row numbers in error messages count data rows from 1 (the header is
    row 0), here and in the constructor, which checks the values. Unknown
    columns raise; each cell is read in its field's unit (``_COLUMNS``).
    """
    path = Path(path)
    reader = csv.DictReader(_read_text(path).splitlines())
    try:
        records = list(reader)
    except csv.Error as e:  # a cell past csv's field size limit
        raise ParseError(f"{path}: {e}") from None
    if reader.fieldnames is None:
        raise ParseError(f"{path}: empty file, expected a CSV header row")
    unknown = [h for h in reader.fieldnames if h not in CANONICAL_COLUMNS]
    if unknown:
        raise ValidationError(f"{path}: unknown columns {unknown}")
    repeated = sorted({h for h in reader.fieldnames if reader.fieldnames.count(h) > 1})
    if repeated:
        raise ValidationError(f"{path}: repeated columns {repeated}")

    samples = []
    for i, row in enumerate(records, start=1):
        if None in row:  # DictReader's key for the cells beyond the header's
            raise ValidationError(
                f"row {i}: {len(reader.fieldnames) + len(row[None])} cells, "
                f"the header has {len(reader.fieldnames)}"
            )
        sample = _parse_row(row, i)
        if sample.t_raw is None:
            raise ValidationError(f"row {i}: missing time")
        samples.append(sample)

    return ObservationSeries(
        contaminant=contaminant,
        run_label=path.stem,
        c0=c0,
        samples=tuple(samples),
        barrier_thickness_cm=default_thickness_cm,
    )


# the generators, as ``synth --generator`` spells them
GENERATORS = ("first-order", "exp-model", "gp-draw")


def generate_synthetic(
    generator: str,
    *,
    k: float | None,
    a: float | None,
    b: float | None,
    v: float | None,
    w: Sequence[float],
    mean: float,
    epsilon: float,
    c0: float,
    thickness: float,
    ph: float | None,
    schedule: Sequence[float],
    noise_sd: float,
    seed: int,
    contaminant: Contaminant,
    run_label: str,
) -> ObservationSeries:
    """Deterministic synthetic series: identical arguments give identical
    samples.

    Each generator reads its own parameters and ignores the rest:
    ``first-order`` k, ``exp-model`` a and b, ``gp-draw`` v, w (one weight
    per input; one weight sees t_norm alone), epsilon and mean. Noise is
    additive Gaussian (sd = ``noise_sd``) applied on the generator's natural
    scale and clamped so concentrations stay within [0, c0]. k, a and b
    must be finite. A removal curve that is NaN at finite parameters (at
    a = 1e308, t * a * (b + W) overflows where e^{-t * (a + b + W)} is 0)
    is an ``InvalidSpec`` that names them, not a row the series rejects.
    """
    t = np.asarray(schedule, dtype=float)  # the series checks its times
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise InvalidSpec(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    needs = {  # the parameters each generator's curve reads; no weights is a missing w
        "first-order": {"k": k},
        "exp-model": {"a": a, "b": b, "thickness": thickness},
        "gp-draw": {"v": v, "w": w or None, "mean": mean},
    }
    if generator not in needs:
        raise InvalidSpec(f"unknown generator {generator!r}; have {list(GENERATORS)}")
    params = needs[generator]
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise InvalidSpec(f"{generator} generator needs parameters {missing}")
    # GpHyperParams checks v and w; the series checks thickness
    infinite = [f"{name}={params[name]}" for name in ("k", "a", "b")
                if name in params and not math.isfinite(params[name])]
    if infinite:
        raise InvalidSpec(f"{generator} generator needs finite parameters, got {', '.join(infinite)}")
    rng = np.random.default_rng(seed)
    # a value that overflows (an exponent, a * (b + W), the noise) goes past
    # [0, c0] or [0, 1], where the clip below saturates it all the same; a
    # c0 <= 0, an inf or nan time and a nan removal give values the series
    # rejects, so numpy need not warn
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if generator == "first-order":
            conc = np.exp(k * t + np.log(c0))
            if noise_sd > 0:
                conc = conc + noise_sd * rng.standard_normal(t.size)
            conc = np.clip(conc, 0.0, c0)
            removal = [None] * t.size
        else:
            t_norm = log_time_norm(t).t_norm
            if generator == "exp-model":
                removal = exp_model_eval(ExpModelParams(a=a, b=b), t_norm, thickness)
            else:
                hp = GpHyperParams(v=v, w=w, epsilon=epsilon)  # its inputs named by count
                columns = {"t_norm": t_norm, "ph": 7.0 if ph is None else ph, "thickness_cm": thickness}
                x = design_matrix(columns, hp.inputs)
                removal = mean + covariance_factor(hp, x).lower @ rng.standard_normal(t.size)
            if np.isnan(removal).any():
                spec = ", ".join(f"{name}={value}" for name, value in params.items())
                raise InvalidSpec(f"{generator} generator gives a NaN removal at {spec}")
            if noise_sd > 0:
                removal = removal + noise_sd * rng.standard_normal(t.size)
            removal = np.clip(removal, 0.0, 1.0)
            conc = c0 * (1.0 - removal)
    samples = tuple(
        Sample(t_raw=ti, concentration=ci, removal_fraction=ri, thickness_w=thickness, ph=ph)
        for ti, ci, ri in zip(t, conc, removal)
    )
    return ObservationSeries(contaminant, run_label, c0, samples)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")  # a name no other writer uses
    fh = None
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:  # a new file: 0666 less the umask
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise FileIOError(f"cannot write {path}: {e}") from e
    finally:
        if fh is not None and os.path.lexists(tmp):  # this call's own file, not renamed
            os.unlink(tmp)


def write_series(series: ObservationSeries, path: str | Path) -> None:
    """Write each column some sample holds as canonical CSV (floats as
    shortest round-trip repr); time and thickness always are."""
    columns = [
        (name, field, unit)
        for name, (field, unit) in _COLUMNS.items()
        if any(getattr(s, field) is not None for s in series.samples)
    ]
    cells = [  # a float multiply, cheaper than a numpy scalar's, and the same bits
        ["" if x is None else repr(unit * float(x)) for x in map(attrgetter(field), series.samples)]
        for _, field, unit in columns
    ]
    lines = [",".join(name for name, _, _ in columns), *map(",".join, zip(*cells))]
    _atomic_write(Path(path), "\n".join(lines) + "\n")


_METRIC_KEYS = ("r2", "rmse", "obs_pred_slope", "n")


def _metrics_payload(metrics: FitMetrics | None) -> dict | None:
    return None if metrics is None else {k: getattr(metrics, k) for k in _METRIC_KEYS}


def _write_json(path: str | Path, payload: dict) -> None:
    _atomic_write(Path(path), json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_payload(report: FitReport) -> dict:
    predictions = []
    for row in report.predictions:
        entry = {"inputs": dict(row.inputs), "predicted": row.predicted, "observed": row.observed}
        if row.variance is not None:
            entry["variance"] = row.variance
        predictions.append(entry)
    return {
        "model_kind": report.model_kind.value,
        "parameters": report.parameters,
        "metrics": _metrics_payload(report.metrics),
        "predictions": predictions,
        "provenance": report.provenance,
    }


def report_csv_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".csv")


def write_report(report: FitReport, path: str | Path) -> None:
    """Serialize a report as JSON plus a flat CSV of prediction rows.

    The CSV sits next to the JSON (same stem, .csv) with one column per
    input dimension followed by observed and predicted. It is written
    first, so a run that fails on it leaves no new JSON.
    """
    path = Path(path)
    input_keys = sorted({k for row in report.predictions for k in row.inputs})
    lines = [",".join(input_keys + ["observed", "predicted"])]
    for row in report.predictions:
        cells = [repr(float(row.inputs[k])) if k in row.inputs else "" for k in input_keys]
        cells.append("" if row.observed is None else repr(float(row.observed)))
        cells.append(repr(float(row.predicted)))
        lines.append(",".join(cells))
    _atomic_write(report_csv_path(path), "\n".join(lines) + "\n")
    _write_json(path, _report_payload(report))


def write_comparison(entries, provenance: dict, path: str | Path) -> None:
    """Write the merge that ``pabfit report`` produces as JSON.

    ``entries``: one (source name, report, thickness scan or None) per
    merged report. A report's top-level keys stay empty beside ``comparison``.
    """
    comparison = [
        {
            "source": source,
            "model_kind": report.model_kind.value,
            "parameters": report.parameters,
            "metrics": _metrics_payload(report.metrics),
            "thickness_scan": scan,
        }
        for source, report, scan in entries
    ]
    empty = {"model_kind": "comparison", "parameters": {}, "metrics": None, "predictions": []}
    _write_json(path, {**empty, "comparison": comparison, "provenance": provenance})


def _finite_number(value) -> bool:
    """A JSON number within the float range: not a bool, NaN, inf or a huge int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX


def _time_denominator(value) -> bool:
    """Absent, or the ln of a finite time past 1 minute: in (0, ln(float max)]."""
    return value is None or (_finite_number(value) and 0 < value <= _LOG_FLOAT_MAX)


# the check each parameter a model is rebuilt from must pass (None: absent)
_PARAMETER_CHECKS = {
    ModelKind.FIRST_ORDER: {"k": _finite_number, "ln_c0_fit": _finite_number},
    ModelKind.EXPONENTIAL: {
        "a": _finite_number,
        "b": _finite_number,
        # membership in a list, which needs no hash: the value may be a JSON list or object
        "exponent_form": lambda f: f is None or f in [form.value for form in ExponentForm],
        "time_denominator": _time_denominator,
    },
    ModelKind.GAUSSIAN_PROCESS: {
        "v": _finite_number,
        "w": lambda w: isinstance(w, list) and all(map(_finite_number, w)),
        "inputs": lambda names: names is None or isinstance(names, list),
        "epsilon": _finite_number,
        "time_denominator": _time_denominator,
        "default_ph": lambda ph: ph is None or (_finite_number(ph) and 0 <= ph <= MAX_PH),
    },
}


def _valid_row(row) -> bool:
    """A prediction row: numeric inputs and prediction, numeric or null rest."""
    return (
        isinstance(row, dict)
        and isinstance(row.get("inputs"), dict)
        and all(map(_finite_number, row["inputs"].values()))
        and _finite_number(row.get("predicted"))
        and all(row.get(k) is None or _finite_number(row[k]) for k in ("observed", "variance"))
    )


def read_report(path: str | Path) -> FitReport:
    """Load a report written by :func:`write_report`.

    Every check a report needs before a model is rebuilt from it runs
    here, in one pass, but those of a GP's training rows: a known model
    kind; each parameter the kind requires
    (a finite number; the GP's ``w`` a list, and its ``v``, ``w``,
    ``epsilon`` and ``inputs``, a list when present, within
    ``GpHyperParams``'s domain, which takes one weight per input, by
    default one to three by count), and, where
    present, ``exponent_form`` one of the forms, ``time_denominator``
    in (0, ln(float max)], so the time it maps back to is finite, and
    ``default_ph`` in [0, ``MAX_PH``]; the four metrics, unless null,
    finite; and in each prediction row ``inputs`` an object of finite
    numbers, a finite ``predicted``, and a finite or null ``observed`` and
    ``variance``. ``cli._rebuild_model`` checks the rows a GP is refitted
    on: at least one training row (a row with ``observed``), the same input
    columns in each, and each value within the loader's bound for its
    column (``cli._INPUT_MAX``).
    """
    path = Path(path)
    try:
        payload = json.loads(_read_text(path))
    except (ValueError, RecursionError) as e:  # an int past 4300 digits or deep nesting, too
        raise ParseError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: a report must be a JSON object")
    missing = [k for k in ("model_kind", "parameters", "metrics", "predictions", "provenance") if k not in payload]
    if missing:
        raise ValidationError(f"{path}: report is missing keys {missing}")
    try:
        kind = ModelKind(payload["model_kind"])
    except ValueError:
        raise ValidationError(f"{path}: unknown model_kind {payload['model_kind']!r}") from None
    params = payload["parameters"]
    if not isinstance(params, dict):
        raise ValidationError(f"{path}: parameters must be a JSON object")
    bad = [k for k, ok in _PARAMETER_CHECKS[kind].items() if not ok(params.get(k))]
    if bad:
        raise ValidationError(f"{path}: {kind.value} report has missing or invalid parameters {bad}")
    if kind is ModelKind.GAUSSIAN_PROCESS:
        try:  # the model's own domain: v > 0, w >= 0, epsilon > 0
            GpHyperParams(params["v"], params["w"], params["epsilon"], params.get("inputs"))
        except InvalidInput as e:
            raise InvalidInput(f"{path}: {e}") from None
    m = payload["metrics"]
    if m is not None and not (isinstance(m, dict) and all(_finite_number(m.get(k)) for k in _METRIC_KEYS)):
        raise ValidationError(f"{path}: metrics must be null or hold finite numbers {list(_METRIC_KEYS)}")
    rows = payload["predictions"]
    if not isinstance(rows, list):
        raise ValidationError(f"{path}: predictions must be a JSON list")
    bad_row = next((i for i, row in enumerate(rows, start=1) if not _valid_row(row)), None)
    if bad_row is not None:
        raise ValidationError(
            f"{path}: prediction row {bad_row} needs numeric inputs and predicted, "
            "and numeric or null observed and variance"
        )
    metrics = None if m is None else FitMetrics(**{k: m[k] for k in _METRIC_KEYS})
    predictions = [
        PredictionRow(
            inputs=dict(row["inputs"]),
            predicted=row["predicted"],
            observed=row.get("observed"),
            variance=row.get("variance"),
        )
        for row in rows
    ]
    return FitReport(
        model_kind=kind,
        parameters=params,
        metrics=metrics,
        predictions=predictions,
        provenance=payload["provenance"],
    )


#: Bundled reconstructions, each mapped to its contaminant; see
#: fixtures/README.md for how each was built. Every file has a thickness column.
FIXTURES: dict[str, Contaminant] = {
    "pcp_run1.csv": Contaminant.PB,
    "pcp_run2.csv": Contaminant.PB,
    "pcbc_run1.csv": Contaminant.PB,
    "pcbc_run2.csv": Contaminant.PB,
    "mb_run1.csv": Contaminant.METHYLENE_BLUE,
}

# the influent concentration of every bundled run, mg/L
FIXTURE_C0 = 50.0


def fixture_dir() -> Path:
    """Bundled fixture directory, overridable via PABFIT_FIXTURE_DIR."""
    env = os.environ.get(FIXTURE_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "fixtures"


def resolve_input(path: str | Path) -> Path:
    """An existing path as-is, else, for a bare file name, a bundled fixture of that name."""
    p = Path(path)
    if p.exists():
        return p
    bare = str(path) == p.name  # one path part: a path with a directory never falls back
    candidate = fixture_dir() / p.name
    if bare and candidate.exists():
        return candidate
    raise FileIOError(f"no such file: {path}" + (" (also not a bundled fixture)" if bare else ""))


def load_fixture(name: str) -> ObservationSeries:
    if name not in FIXTURES:
        raise InvalidSpec(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return load_series(fixture_dir() / name, FIXTURES[name], FIXTURE_C0)
