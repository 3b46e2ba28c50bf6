"""Command-line surface: fit, predict, synthesize, and merge reports.

Every subcommand reads CSV series and/or JSON reports, runs the matching
model module, and writes a report atomically. Identical options (and seed)
produce byte-identical outputs. Exit codes: 0 success, 2 parse errors,
3 validation errors, 4 numeric failures, 5 I/O failures.

``_rebuild_model`` and ``predict`` tell the three model families apart.
Other code asks one thing at most: whether a model is the first-order one,
which reads raw minutes and no W (``predict_minutes`` and the ``predict``
and ``report`` commands), or a GP of lead, which reads a pH (``_ph``, the
one code that picks a query's pH). ``predict_minutes`` answers every fit
command and ``predict`` at raw minutes, so a model rebuilt from its report
gives back the report's rows; ``_rows`` builds those rows, and
``_write_fit`` writes each fit's report. ``predict`` fails a prediction
that is not finite, under ``predict`` and ``report --scan-w`` alike; both
rebuild each model at ``stage=load``, and a bad grid option, read through
``_grid``, fails at the stage after. A GP reads the columns
``gp.select_inputs`` picks, in ``fit-gp`` and ``_rebuild_model`` alike.
``_stage`` tags an error with the stage it came from and prints a
``DegenerateFitWarning`` or a ``FixedInputWarning`` (a GP query off a
column's one training value, answered at that value) as one ``warning:
stage=...`` line.

``_COMMANDS`` maps each subcommand to its help, its options builder and its
handler. ``main`` parses once, with the invoked command's parser alone,
whose usage lists every command, and dispatches through ``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    DEFAULT_SCHEDULE,
    GENERATORS,
    generate_synthetic,
    load_series,
    read_report,
    report_csv_path,
    resolve_input,
    write_comparison,
    write_report,
    write_series,
)
from .domain import (
    MAX_PH,
    MAX_THICKNESS_CM,
    Contaminant,
    FitReport,
    ModelKind,
    ObservationSeries,
    PredictionRow,
)
from .errors import InvalidInput, NumericError, PabfitError, ParseError, ValidationError
from .expmodel import ExpModelParams, ExponentForm, exp_model_eval, fit_exp_model
from .gp import (
    DEFAULT_EPSILON,
    INPUT_NAMES,
    GpHyperParams,
    GpModel,
    default_hyperparams,
    design_matrix,
    gp_fit,
    gp_optimize_hyperparams,
    gp_predict,
    select_inputs,
    training_set,
)
from .kinetics import KineticFitResult, fit_first_order, predict_first_order
from .metrics import DegenerateFitWarning, compute_metrics

_CONTAMINANTS = {
    "pb": Contaminant.PB,
    "mb": Contaminant.METHYLENE_BLUE,
    "methylene_blue": Contaminant.METHYLENE_BLUE,
}


class FixedInputWarning(UserWarning):
    """A GP query off the one training value of a column the GP does not read."""


@contextmanager
def _stage(name: str):
    """Tag errors with the pipeline stage they came from, and print each
    ``DegenerateFitWarning`` and ``FixedInputWarning`` raised there as one
    ``warning:`` line."""
    with warnings.catch_warnings():
        warnings.simplefilter("always", FixedInputWarning)  # one line per query, repeats too
        show = warnings.showwarning

        def show_warning(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, (DegenerateFitWarning, FixedInputWarning)):
                print(f"warning: stage={name} kind={category.__name__}: {message}", file=sys.stderr)
            else:
                show(message, category, filename, lineno, file, line)

        warnings.showwarning = show_warning
        try:
            yield
        except PabfitError as e:
            if not hasattr(e, "stage"):
                e.stage = name
            raise


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError(f"{flag}: cannot parse {text!r} as comma-separated numbers") from None


# upper bound of each model input, for a grid of its values and a GP's
# training rows: thickness and pH as the loader bounds them, and normalized
# time within the range the models are fitted on
_INPUT_MAX = {"t_norm": 1.0, "thickness_cm": MAX_THICKNESS_CM, "ph": MAX_PH}


def _grid(text: str | float, flag: str, name: str | None = None) -> list[float]:
    """Values of a grid option (its string, or the float argparse read) of
    the model input ``name``, within its bound."""
    values = _floats(str(text), flag)
    upper = _INPUT_MAX.get(name, math.inf)
    if not values or not all(0 <= v <= upper and math.isfinite(v) for v in values):
        bound = ">= 0" if upper == math.inf else f"in [0, {upper:g}]"
        raise ValidationError(f"{flag} needs one or more finite values {bound}, got {text!r}")
    return values


def _parse_hyper(text: str) -> tuple[float | None, list[float]]:
    """Parse 'v=0.3852,w=0.7839,2.8869,2.859e-9' into ``(v, w)``; each key once."""
    values: dict[str, list[float]] = {}  # key -> its numbers, in the order given
    key = None
    for tok in filter(None, map(str.strip, text.split(","))):
        if "=" in tok:
            key, _, tok = tok.partition("=")
            key = key.strip().lower()
            if key not in ("v", "w"):
                raise ParseError(f"--hyper: unknown key {key!r}")
            if key in values:
                raise ParseError(f"--hyper: key {key!r} given more than once")
            values[key] = []
        elif key != "w":
            raise ParseError(f"--hyper: bare value {tok!r} outside the w list")
        try:
            values[key].append(float(tok))
        except ValueError:
            raise ParseError(f"--hyper: cannot parse {tok!r} as a number") from None
    return values.get("v", [None])[0], values.get("w", [])


def _resolve_inputs(args, names, writes: list[Path]) -> list[Path]:
    """Each input path (``resolve_input``), once none of the files the
    command ``writes`` (``--output``, and the fits' and ``predict``'s row
    CSV) is the same file as one of them: the command would write over it.
    Two of ``writes`` at one path, an ``--output`` that is its own row CSV,
    are refused too: the report would replace its rows."""
    paths = [resolve_input(name) for name in names]
    for out in writes:
        same = [path for path in paths if out.exists() and out.samefile(path)]
        if same:
            raise ValidationError(f"--output {args.output} would overwrite the input {same[0]}")
    if len(set(writes)) < len(writes):
        raise ValidationError(f"--output {args.output} is its own row CSV; give the report another suffix")
    return paths


def _load(args) -> ObservationSeries:
    (path,) = _resolve_inputs(args, [args.input], [Path(args.output), report_csv_path(args.output)])
    return load_series(path, _CONTAMINANTS[args.contaminant], args.c0, args.thickness)


def _provenance(args, **extra) -> dict:
    options = {k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None}
    return {
        "tool": "pabfit",
        "version": __version__,
        "command": args.command,
        "options": options,
        **extra,
    }


def _rows(inputs: dict, predicted, observed=None, variance=None) -> list[PredictionRow]:
    """One prediction row per point of the broadcast columns.

    ``inputs`` maps report input names to arrays or scalars; they broadcast
    with ``predicted`` and the optional ``observed`` and ``variance`` as
    numpy arrays do, and rows follow that shape in C order.
    """
    columns = {**inputs, "predicted": predicted, "observed": observed, "variance": variance}
    given = {k: np.asarray(v, dtype=float) for k, v in columns.items() if v is not None}
    flat = dict(zip(given, (a.ravel().tolist() for a in np.broadcast_arrays(*given.values()))))
    absent = [None] * len(flat["predicted"])
    return [
        PredictionRow(
            inputs={name: flat[name][i] for name in inputs},
            predicted=flat["predicted"][i],
            observed=flat.get("observed", absent)[i],
            variance=flat.get("variance", absent)[i],
        )
        for i in range(len(absent))
    ]


def _write_fit(args, series, kind, parameters, metrics, rows, summary: str) -> int:
    """Write a fit command's report and print its one-line summary.

    The run's ``c0`` and contaminant join the model's ``parameters``, and
    its label joins the provenance.
    """
    report = FitReport(
        model_kind=kind,
        parameters={**parameters, "c0": series.c0, "contaminant": series.contaminant.value},
        metrics=metrics,
        predictions=rows,
        provenance=_provenance(args, run_label=series.run_label),
    )
    with _stage("write"):
        write_report(report, args.output)
    print(f"{args.command}: {summary} -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit_kinetics(args) -> int:
    with _stage("load"):
        series = _load(args)
    with _stage("fit"):
        fit = fit_first_order(series)
        t = series.times()
        observed = series.concentrations()
        metrics = compute_metrics(np.log(observed), fit.k * t + fit.ln_c0_fit)
        inputs, predicted, _ = predict_minutes(fit, None, t)
    rows = _rows(inputs, predicted, observed)
    final_removal = series.removal_fractions()[-1]
    summary = f"k={fit.k:.6g} 1/min, R^2={metrics.r2:.4f}, final removal {100.0 * final_removal:.2f}%"
    return _write_fit(args, series, ModelKind.FIRST_ORDER, asdict(fit), metrics, rows, summary)


def _cmd_fit_exp(args) -> int:
    with _stage("load"):
        series = _load(args)
    with _stage("fit"):
        columns, observed, _, times = training_set(series)
        params = fit_exp_model(
            np.column_stack([columns["t_norm"], columns["thickness_cm"], observed]),
            exponent_form=ExponentForm(args.exponent_form),
        )
        inputs, predicted, _ = predict_minutes(params, times.denominator, times.t_raw, columns["thickness_cm"])
        metrics = compute_metrics(observed, predicted)
    parameters = {
        **asdict(params),
        "exponent_form": params.exponent_form.value,
        "negative_parameters": bool(params.a < 0 or params.b < 0),
        "time_denominator": times.denominator,
    }
    rows = _rows(inputs, predicted, observed)
    summary = (
        f"a={params.a:.6g}, b={params.b:.6g}, sse={params.sse:.3g}, "
        f"final removal {100.0 * float(observed[-1]):.2f}%"
    )
    return _write_fit(args, series, ModelKind.EXPONENTIAL, parameters, metrics, rows, summary)


def _resolve_hyper(args, contaminant: Contaminant) -> GpHyperParams:
    """``--hyper`` and ``--epsilon`` over the contaminant's reference values,
    which hold one weight per column of its layout."""
    base = default_hyperparams(contaminant, epsilon=args.epsilon)
    if args.hyper is None:
        return base
    v, w = _parse_hyper(args.hyper)
    hp = replace(base, v=base.v if v is None else v, w=w or base.w, inputs=None)
    if hp.p != base.p:
        raise ValidationError(
            f"{hp.p} kernel weights but the {contaminant.value} layout has {base.p} columns"
        )
    return hp


def _cmd_fit_gp(args) -> int:
    with _stage("load"):
        default_ph = _grid(args.default_ph, "--default-ph", "ph")[0]
        hp = _resolve_hyper(args, _CONTAMINANTS[args.contaminant])
        series = _load(args)
        columns, y, ph_assumed, times = training_set(series, default_ph=default_ph)
        hp, x, fixed = select_inputs(hp, columns)
        if args.optimize and min(hp.w) <= 0:  # the search runs in log space
            raise ValidationError(f"--optimize needs positive input weights, got {dict(zip(hp.inputs, hp.w))}")
    with _stage("fit"):
        if args.optimize:
            hp = gp_optimize_hyperparams(x, y, hp, objective=args.objective)
        model = replace(gp_fit(hp, x, y), fixed_inputs=fixed)
        inputs, mean, variance = predict_minutes(model, times.denominator, times.t_raw,
                                                 columns["thickness_cm"], columns.get("ph"))
        metrics = compute_metrics(y, mean)
    parameters = {
        **asdict(hp),
        "fixed_inputs": fixed,
        "p": hp.p,
        "time_denominator": times.denominator,
        "jitter_used": model.jitter_used,
        "default_ph": default_ph if series.contaminant is Contaminant.PB else None,
        "ph_assumed": ph_assumed,
        "optimized": bool(args.optimize),
        "objective": args.objective if args.optimize else None,
    }
    rows = _rows(inputs, mean, y, variance)
    summary = f"v={hp.v:.6g}, R^2={metrics.r2:.4f}, slope={metrics.obs_pred_slope:.4f}"
    return _write_fit(args, series, ModelKind.GAUSSIAN_PROCESS, parameters, metrics, rows, summary)


def _rebuild_model(report: FitReport):
    """Reconstruct a fitted model from its report.

    A GP is refitted on the columns of its training rows that
    ``select_inputs`` picks, and records the others as ``fixed_inputs``, as
    ``fit-gp`` does; a report without ``inputs`` holds one weight per layout
    column. The training rows, those with ``observed``, hold the same input
    columns, each in ``_INPUT_MAX``.
    """
    params = report.parameters
    if report.model_kind is ModelKind.FIRST_ORDER:
        return KineticFitResult(
            k=params["k"],
            ln_c0_fit=params["ln_c0_fit"],
            n_points=params.get("n_points", 3),
            degenerate=params.get("degenerate", False),
        )
    if report.model_kind is ModelKind.EXPONENTIAL:
        return ExpModelParams(
            a=params["a"],
            b=params["b"],
            exponent_form=ExponentForm(params.get("exponent_form", "literal")),
        )
    hp = GpHyperParams(params["v"], params["w"], params["epsilon"], params.get("inputs"))
    train = [row for row in report.predictions if row.observed is not None]
    if not train:
        raise ValidationError("GP report carries no training rows; cannot rebuild the model")
    held = train[0].inputs.keys()
    if any(row.inputs.keys() != held for row in train):
        raise ValidationError("GP report training rows do not all hold the same input columns")
    names = tuple(n for n in INPUT_NAMES if n != "ph" or n in held)  # pH: lead only
    missing = [n for n in names if n not in held]
    if missing:
        raise ValidationError(f"GP report rows lack input column {missing[0]!r}")
    columns = {name: np.array([row.inputs[name] for row in train]) for name in names}
    for name, values in columns.items():
        outside = values[~((0 <= values) & (values <= _INPUT_MAX[name]))]
        if outside.size:
            raise ValidationError(f"GP report training {name} {outside[0]:g} not in [0, {_INPUT_MAX[name]:g}]")
    hp, x, fixed = select_inputs(hp, columns)
    y = np.array([row.observed for row in train])
    return replace(gp_fit(hp, x, y), fixed_inputs=fixed)


def _ph(model, ph):
    """The pH a query of ``model`` reads: ``ph``, by default the model's mean
    training pH, for a GP of lead; None for every other model."""
    if not isinstance(model, GpModel):
        return None
    training = {**model.fixed_inputs, **dict(zip(model.hp.inputs, model.x_train.T))}
    if "ph" not in training:
        return None
    return float(np.mean(training["ph"])) if ph is None else ph


def predict(model, t_norm, w, ph=None):
    """``(mean, variance)`` of a fitted model, in the inputs' broadcast shape.

    Per-point arrays give one prediction per point, ``t[:, None], w[None, :]``
    a (time, thickness) grid. The first-order model takes raw minutes and
    ``w`` None. Only a GP of lead reads ``ph``, its mean training pH by
    default. A GP answers a query off the training value of a column it
    does not read at that value, with a ``FixedInputWarning``. ``variance``
    is None for all but the GP. A mean or variance that overflows, or is
    otherwise not finite, raises :class:`NumericError`, with no numpy
    warning, so neither ``predict`` nor a scan writes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, KineticFitResult):
            if w is not None:
                raise ValidationError("the first-order model has no thickness input")
            mean, variance = predict_first_order(model, t_norm), None
        elif w is None:
            raise ValidationError("the exponential and GP models need a thickness grid")
        elif isinstance(model, ExpModelParams):
            mean, variance = exp_model_eval(model, t_norm, w), None
        elif not isinstance(model, GpModel):
            raise InvalidInput(f"cannot predict with a {type(model).__name__}")
        else:
            query = {"t_norm": t_norm, "thickness_cm": w, "ph": _ph(model, ph)}
            query = {name: value for name, value in query.items() if value is not None}
            off = [f"{n}={v:g}" for n, v in model.fixed_inputs.items() if np.any(np.asarray(query[n]) != v)]
            if off:
                warnings.warn(f"trained at {', '.join(off)} only; queries off it get the answer there",
                              FixedInputWarning)
            shape = np.broadcast_shapes(*map(np.shape, query.values()))
            pred = gp_predict(model, design_matrix(query, model.hp.inputs))
            mean, variance = pred.mean.reshape(shape), pred.variance.reshape(shape)
    bad = ~np.isfinite(mean) if variance is None else ~(np.isfinite(mean) & np.isfinite(variance))
    if np.any(bad):
        raise NumericError(
            f"the model's prediction is not finite at {np.count_nonzero(bad)} of {np.size(bad)} "
            "grid points"
        )
    return mean, variance


def predict_minutes(model, time_denominator, minutes, w=None, ph=None):
    """``(columns, mean, variance)`` of a fitted model at raw ``minutes``.

    Every model but the first-order one reads t_norm = ln(t) /
    ``time_denominator``, for t in (1, e^``time_denominator``], and the pH
    ``_ph`` picks; ``minutes``, ``w`` and ``ph`` broadcast as in ``predict``.
    ``columns`` maps ``time_min`` and each input the model reads to its
    values, ready for ``_rows``: a model rebuilt from its report and asked
    at its rows' minutes, W and pH gives back those rows bit for bit.
    A time not inside that range (NaN included), a ``time_denominator`` of
    None for those models, or a minute that is not finite for the
    first-order model raises :class:`ValidationError`.
    """
    minutes = np.asarray(minutes, dtype=float)
    if isinstance(model, KineticFitResult):
        bad = ~np.isfinite(minutes)
        if bad.any():
            raise ValidationError(f"time {float(minutes[bad][0])} min is not finite")
        return {"time_min": minutes}, *predict(model, minutes, w)
    if time_denominator is None:
        raise ValidationError("no time_denominator; cannot map minutes")
    horizon = float(np.exp(time_denominator))
    outside = ~((minutes > 1.0) & (minutes <= horizon * (1.0 + 1e-12)))
    if np.any(outside):
        raise ValidationError(
            f"time {float(minutes[outside][0])} min outside the model's range (1, {horizon:.0f}]"
        )
    t_norm, ph = np.log(minutes) / time_denominator, _ph(model, ph)
    mean, variance = predict(model, t_norm, w, ph)
    query = {"time_min": minutes, "t_norm": t_norm, "ph": ph, "thickness_cm": w}
    return {name: value for name, value in query.items() if value is not None}, mean, variance


def optimum_thickness_scan(model, w_grid, t_fixed: float, ph: float | None = None):
    """Best thickness on the grid at a fixed normalized time.

    Returns (w_star, predicted removal). Ties go to the smaller thickness
    (the cheaper barrier).
    """
    grid = sorted(float(w) for w in w_grid)
    if not grid:
        raise InvalidInput("thickness grid must be non-empty")
    removal, _ = predict(model, t_fixed, np.array(grid), ph)
    best = int(np.argmax(removal))  # first max on the ascending grid = smallest W
    return grid[best], float(removal[best])


def _cmd_predict(args) -> int:
    with _stage("load"):
        (path,) = _resolve_inputs(args, [args.model], [Path(args.output), report_csv_path(args.output)])
        report = read_report(path)
        model = _rebuild_model(report)
        denom = report.parameters.get("time_denominator")
        if denom is None and not isinstance(model, KineticFitResult):
            raise ValidationError("report lacks time_denominator; cannot map minutes")
    with _stage("predict"):
        minutes = np.array(_grid(args.t_grid, "--t-grid"))[:, None]
        w = None if args.w_grid is None else np.array(_grid(args.w_grid, "--w-grid", "thickness_cm"))[None, :]
        ph = None if args.ph is None else _grid(args.ph, "--ph", "ph")[0]
        inputs, mean, variance = predict_minutes(model, denom, minutes, w, ph)
        rows = _rows(inputs, mean, variance=variance)
    # the model's report, its rows replaced by the predictions
    provenance = _provenance(args, model_report=str(args.model))
    out = replace(report, metrics=None, predictions=rows, provenance=provenance)
    with _stage("write"):
        write_report(out, args.output)
    print(f"predict: {len(rows)} rows -> {args.output}")
    return 0


def _cmd_synth(args) -> int:
    with _stage("generate"):
        w = () if args.w is None else _floats(args.w, "--w")
        schedule = DEFAULT_SCHEDULE if args.schedule is None else _floats(args.schedule, "--schedule")
        series = generate_synthetic(
            args.generator,
            k=args.k,
            a=args.a,
            b=args.b,
            v=args.v,
            w=w,
            mean=args.mean,
            epsilon=args.epsilon,
            c0=args.c0,
            thickness=args.thickness,
            ph=args.ph,
            schedule=schedule,
            noise_sd=args.noise_sd,
            seed=args.seed,
            contaminant=_CONTAMINANTS[args.contaminant],
            run_label=Path(args.output).stem,
        )
    with _stage("write"):
        write_series(series, args.output)
    print(f"synth: {len(series.samples)} samples -> {args.output}")
    return 0


def _cmd_report(args) -> int:
    entries = []
    with _stage("load"):
        paths = _resolve_inputs(args, args.inputs, [Path(args.output)])
        loaded = [(name, read_report(path)) for name, path in zip(args.inputs, paths)]
        # a scan reads the models: rebuilt here, so a report the rebuild rejects fails at load
        models = [None if args.scan_w is None else _rebuild_model(r) for _, r in loaded]
    with _stage("scan"):
        scan_w = None if args.scan_w is None else sorted(_grid(args.scan_w, "--scan-w", "thickness_cm"))
        ph = None if args.ph is None else _grid(args.ph, "--ph", "ph")[0]
        scan_t = _grid(args.scan_t, "--scan-t", "t_norm")[0]
        for (path, report), model in zip(loaded, models):
            scan = None
            if model is not None and not isinstance(model, KineticFitResult):  # no W in first-order
                w_star, removal = optimum_thickness_scan(model, scan_w, scan_t, ph=ph)
                scan = {
                    "t_norm": scan_t,
                    "w_grid": scan_w,
                    "optimum_w_cm": w_star,
                    "removal_at_optimum": removal,
                }
            entries.append((Path(path).name, report, scan))
    with _stage("write"):
        write_comparison(entries, _provenance(args), args.output)
    for source, _, scan in entries:
        if scan is not None:
            print(
                f"report: {source} optimum W={scan['optimum_w_cm']:g} cm, "
                f"removal {100.0 * scan['removal_at_optimum']:.2f}%"
            )
    print(f"report: merged {len(entries)} fits -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _series_options(sub) -> None:
    sub.add_argument("--input", required=True, help="input CSV (path or bundled fixture name)")
    sub.add_argument("--c0", type=float, default=50.0, help="influent concentration, mg/L")
    sub.add_argument(
        "--contaminant", choices=sorted(_CONTAMINANTS), default="pb", help="contaminant kind"
    )
    sub.add_argument(
        "--thickness",
        type=float,
        default=3.0,
        help="barrier thickness (cm) used when the file has no thickness column",
    )
    sub.add_argument("--output", required=True, help="output report JSON path")


def _fit_exp_options(p) -> None:
    _series_options(p)
    p.add_argument(
        "--exponent-form",
        choices=[f.value for f in ExponentForm],
        default=ExponentForm.LITERAL.value,
        help="read the model exponent as a+b+W (literal) or a*(b+W) (product)",
    )


def _fit_gp_options(p) -> None:
    _series_options(p)
    p.add_argument(
        "--hyper",
        default=None,
        help="hyperparameters v and w, e.g. v=0.3852,w=0.7839,2.8869,2.859e-9; either "
        "defaults to the per-contaminant reference value (--epsilon sets the jitter)",
    )
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="diagonal jitter")
    p.add_argument("--optimize", action="store_true", help="refine hyperparameters by descent")
    p.add_argument(
        "--objective",
        choices=["nlml", "sse"],
        default="nlml",
        help="optimization objective (marginal likelihood or leave-one-out SSE)",
    )
    p.add_argument(
        "--default-ph",
        type=float,
        default=7.0,
        help="pH used for lead when the file has no ph column (flagged in the report)",
    )


def _predict_options(p) -> None:
    p.add_argument("--model", required=True, help="fit report JSON to load")
    p.add_argument("--t-grid", required=True, help="times in raw minutes, comma-separated")
    p.add_argument("--w-grid", default=None, help="thicknesses in cm, comma-separated")
    p.add_argument("--ph", type=float, default=None, help="pH for GP queries on lead")
    p.add_argument("--output", required=True, help="output report JSON path")


def _synth_options(p) -> None:
    p.add_argument("--generator", choices=GENERATORS, required=True)
    p.add_argument("--k", type=float, default=None, help="first-order rate constant, 1/min")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--v", type=float, default=None, help="GP signal variance")
    p.add_argument("--w", default=None, help="GP weights w1[,w2[,w3]]")
    p.add_argument("--mean", type=float, default=0.5, help="GP draw mean removal")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="GP draw jitter")
    p.add_argument("--c0", type=float, default=50.0)
    p.add_argument("--thickness", type=float, default=3.0)
    p.add_argument("--ph", type=float, default=None)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", default=None, help="override sample times (minutes)")
    p.add_argument("--contaminant", choices=sorted(_CONTAMINANTS), default="pb")
    p.add_argument("--output", required=True, help="output CSV path")


def _report_options(p) -> None:
    p.add_argument("--inputs", nargs="+", required=True, help="fit report JSON files")
    p.add_argument("--scan-w", default=None, help="thickness grid for the optimum scan")
    p.add_argument("--scan-t", type=float, default=1.0, help="normalized time for the scan")
    p.add_argument("--ph", type=float, default=None, help="pH for GP scans on lead")
    p.add_argument("--output", required=True, help="output JSON path")


# name -> (help, options builder, handler), in the order usage lists them
_COMMANDS = {
    "fit-kinetics": ("first-order log-linear kinetic fit", _series_options, _cmd_fit_kinetics),
    "fit-exp": ("exponential removal model fit", _fit_exp_options, _cmd_fit_exp),
    "fit-gp": ("Gaussian Process regression fit", _fit_gp_options, _cmd_fit_gp),
    "predict": ("evaluate a saved model on a grid", _predict_options, _cmd_predict),
    "synth": ("generate a deterministic synthetic series", _synth_options, _cmd_synth),
    "report": ("merge fit reports into a comparison table", _report_options, _cmd_report),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only ``command``'s.

    A one-command parser parses that command's argv to the same namespace
    and prints what the full parser prints for it, since its usage names
    every command. The full parser leaves the metavar unset, so that
    argparse names the missing or unknown command ``command`` in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="pabfit",
        description="Fit and evaluate contaminant-removal models for permeable adsorptive barriers.",
    )
    parser.add_argument("--version", action="version", version=f"pabfit {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_options, _) in _COMMANDS.items():
        if command in (None, name):
            add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except PabfitError as e:
        stage = getattr(e, "stage", args.command)
        print(
            f"error: stage={stage} code={e.exit_code} kind={type(e).__name__}: {e}",
            file=sys.stderr,
        )
        return e.exit_code
    except OSError as e:
        print(f"error: stage=io code=5 kind=OSError: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
