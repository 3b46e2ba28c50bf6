"""Seeded property tests: CSV and report JSON round trips, the loaders on
malformed input, the blocked kernel matrix on adversarial inputs, and the
GP posterior on near-singular kernels.

``derandomize=True`` draws the same examples on every run, so these tests
pass or fail the same way each time.
"""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pabfit.dataio import CANONICAL_COLUMNS, load_series, read_report, write_report, write_series
from pabfit.domain import (
    CONSISTENCY_TOL,
    MAX_PH,
    MAX_THICKNESS_CM,
    Contaminant,
    FitReport,
    ModelKind,
    ObservationSeries,
    PredictionRow,
    Sample,
)
from pabfit.errors import PabfitError
from pabfit.gp import _KERNEL_BLOCK_ELEMENTS, GpHyperParams, gp_fit, gp_predict, kernel_matrix
from pabfit.metrics import FitMetrics

from oracles import gp_posterior, unblocked_kernel_matrix

SEEDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
fraction = st.floats(0.0, 1.0)
positive = st.floats(0.0, exclude_min=True, allow_infinity=False)


@st.composite
def series(draw):
    c0 = draw(st.floats(1e-3, 1e6))
    n = draw(st.integers(3, 12))
    times = sorted(draw(st.sets(st.floats(1.0, 1e6, exclude_min=True), min_size=n, max_size=n)))
    # which response column(s) the file carries, and which optional ones
    has_conc, has_removal = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    has_ph = draw(st.booleans())
    samples = []
    for t in times:
        removal = draw(fraction)
        samples.append(
            Sample(
                t_raw=t,
                concentration=c0 * (1.0 - removal) if has_conc else None,
                removal_fraction=removal if has_removal else None,
                thickness_w=draw(st.floats(0.0, MAX_THICKNESS_CM)),
                ph=draw(st.floats(0.0, MAX_PH)) if has_ph else None,
            )
        )
    contaminant = draw(st.sampled_from(Contaminant))
    return ObservationSeries(contaminant, "run", c0, tuple(samples))


def without_removal(s: ObservationSeries) -> tuple:
    samples = [replace(x, removal_fraction=None) for x in s.samples]
    return s.contaminant, s.run_label, s.c0, s.barrier_thickness_cm, samples


@SEEDED
@given(series())
def test_series_round_trips_through_csv(s):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{s.run_label}.csv"
        write_series(s, path)
        back = load_series(path, s.contaminant, s.c0)
    assert without_removal(back) == without_removal(s)
    # the file holds removal in percent: x * 100 is written and read back
    # / 100, which can move x by an ulp or two
    for a, b in zip(s.samples, back.samples):
        assert (a.removal_fraction is None) == (b.removal_fraction is None)
        if a.removal_fraction is not None:
            assert math.isclose(a.removal_fraction, b.removal_fraction, rel_tol=2**-50, abs_tol=0)


@SEEDED
@given(series())
def test_removal_fractions_give_back_the_concentrations(s):
    back = s.c0 * (1.0 - s.removal_fractions())
    assert np.all(np.abs(back - s.concentrations()) <= CONSISTENCY_TOL * s.c0)


names = st.text(min_size=1, max_size=8)
json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**53), 2**53), finite, st.text(max_size=8)
)


def parameters(kind: ModelKind):
    required = {
        ModelKind.FIRST_ORDER: {"k": finite, "ln_c0_fit": finite},
        ModelKind.EXPONENTIAL: {
            "a": finite,
            "b": finite,
            "exponent_form": st.sampled_from(["literal", "product"]),
            "time_denominator": st.floats(0.0, 1e300, exclude_min=True),
        },
        ModelKind.GAUSSIAN_PROCESS: {  # within GpHyperParams's domain
            "v": positive,
            "w": st.lists(st.floats(0.0, allow_infinity=False), min_size=1, max_size=3),
            "epsilon": positive,
            "time_denominator": st.floats(0.0, 1e300, exclude_min=True),
            "default_ph": st.none() | st.floats(0.0, MAX_PH),
        },
    }[kind]
    extra = st.dictionaries(names.filter(lambda k: k not in required), json_scalar, max_size=3)
    return st.tuples(st.fixed_dictionaries(required), extra).map(lambda d: {**d[1], **d[0]})


rows = st.builds(
    PredictionRow,
    inputs=st.dictionaries(names, finite, max_size=3),
    predicted=finite,
    observed=st.none() | finite,
    variance=st.none() | finite,
)
metrics = st.none() | st.builds(
    FitMetrics, r2=finite, rmse=finite, obs_pred_slope=finite, n=st.integers(0, 10**6)
)


@st.composite
def reports(draw):
    kind = draw(st.sampled_from(ModelKind))
    return FitReport(
        model_kind=kind,
        parameters=draw(parameters(kind)),
        metrics=draw(metrics),
        predictions=draw(st.lists(rows, max_size=5)),
        provenance=draw(st.dictionaries(names, json_scalar, max_size=4)),
    )


@SEEDED
@given(reports())
def test_report_round_trips_through_json(report):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        write_report(report, path)
        assert read_report(path) == report


def load_or_refuse(read, data: bytes, name: str):
    """``read`` on a file holding ``data``: its result, or the PabfitError
    it raised; any other exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            return read(path)
        except PabfitError as e:
            return e


# cells and headers near the CSV a loader expects, so that rows get past
# the header checks and reach the value checks
cell = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "0", "1e999", "x", '"']), finite.map(repr)
)
csv_text = st.builds(
    lambda header, rows: "\n".join(",".join(r) for r in [header, *rows]),
    st.lists(st.sampled_from(CANONICAL_COLUMNS), min_size=1, max_size=6),
    st.lists(st.lists(cell, max_size=7), max_size=8),
)


@SEEDED
@given(st.one_of(st.binary(), st.text().map(str.encode), csv_text.map(str.encode)))
def test_load_series_returns_a_series_or_refuses(data):
    result = load_or_refuse(lambda p: load_series(p, Contaminant.PB, 50.0, 3.0), data, "run.csv")
    assert isinstance(result, (ObservationSeries, PabfitError))


json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=6,
)


@SEEDED
@given(st.binary())
def test_read_report_on_arbitrary_bytes_returns_a_report_or_refuses(data):
    assert isinstance(load_or_refuse(read_report, data, "report.json"), (FitReport, PabfitError))


@SEEDED
@given(st.data())
def test_read_report_on_any_parameter_value_returns_a_report_or_refuses(data):
    kind = data.draw(st.sampled_from(ModelKind))
    params = data.draw(parameters(kind))
    params[data.draw(st.sampled_from(sorted(params)))] = data.draw(json_value)
    payload = {"model_kind": kind.value, "parameters": params, "metrics": None,
               "predictions": [], "provenance": {}}
    result = load_or_refuse(read_report, json.dumps(payload).encode(), "report.json")
    assert isinstance(result, (FitReport, PabfitError))


# signed zeros, subnormals, values whose differences overflow, and 1 with
# its next float, whose difference is exact; equal values cancel to 0
EDGE_INPUTS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, 1.0 + 2.0**-52,
               -1.0, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def adversarial_kernels(draw):
    """``(hp, x, x2)``: inputs drawn from a few edge and finite values, so
    many pairs are equal, with weights 0, 1e-300 or 1e300.

    There are 1 to 3 inputs, and ``x2`` is None or its own rows. Both ways
    the rows span more than one (rows, m) block and end in a short one.
    """
    p = draw(st.integers(1, 3))
    pool = draw(st.lists(st.one_of(st.sampled_from(EDGE_INPUTS), finite), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(257, 400).filter(lambda m: m % (_KERNEL_BLOCK_ELEMENTS // m)))
    rows, n = _KERNEL_BLOCK_ELEMENTS // m, m
    if not draw(st.booleans()):
        n = rows * draw(st.integers(1, 2)) + draw(st.integers(1, rows - 1))
    x = rng.choice(pool, (n, p))
    x2 = None if n == m and draw(st.booleans()) else rng.choice(pool, (m, p))
    v = draw(st.sampled_from([1e-300, 0.3852, 1e300]))
    w = draw(st.lists(st.sampled_from([0.0, 1e-300, 1e300]), min_size=p, max_size=p))
    return GpHyperParams(v=v, w=w), x, x2


@SEEDED
@given(adversarial_kernels())
def test_kernel_matrix_matches_the_einsum_oracle_on_adversarial_inputs(case):
    hp, x, x2 = case
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = kernel_matrix(hp, x, x2), unblocked_kernel_matrix(hp, x, x2)
    # 0 * inf, a zero weight on an overflowing difference, is NaN in both,
    # but its sign differs between the einsum and the blocked sum
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@st.composite
def near_singular_gps(draw):
    """``(hp, x, y, queries, ladder)``: a GP whose inputs repeat a few centres.

    With ``ladder`` the centres repeat exactly and epsilon lies far below
    v * 2^-52, so the kernel matrix plus epsilon is singular in floating
    point and the factorization has to climb the jitter ladder. Otherwise
    each input is offset from its centre by up to 1e-8 to 1e-2 and epsilon
    lies in [1e-8, 1e-5]: K is near singular, K + epsilon * I is not.
    The queries are the inputs and three more points.
    """
    p, n = draw(st.integers(1, 3)), draw(st.integers(2, 8))
    unit = st.floats(0.0, 1.0)
    points = lambda k: np.array(draw(st.lists(unit, min_size=k * p, max_size=k * p))).reshape(k, p)
    centres = points(draw(st.integers(1, n - 1)))
    x = centres[np.arange(n) % len(centres)]
    ladder = draw(st.booleans())
    if ladder:
        epsilon = 10.0 ** draw(st.floats(-300.0, -17.0))
    else:
        x = x + 10.0 ** draw(st.floats(-8.0, -2.0)) * (2.0 * points(n) - 1.0)
        epsilon = 10.0 ** draw(st.floats(-8.0, -5.0))
    v = 10.0 ** draw(st.floats(-2.0, 0.0))
    w = draw(st.lists(st.floats(0.0, 10.0), min_size=p, max_size=p))
    y = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    return GpHyperParams(v=v, w=w, epsilon=epsilon), x, y, np.vstack([x, points(3)]), ladder


# three equal inputs with v = 1: the factorization meets a zero pivot and
# has to add jitter
@example((GpHyperParams(v=1.0, w=(1.0,), epsilon=1e-300), np.zeros((3, 1)),
          np.array([0.2, 0.5, 0.9]), np.array([[0.0], [0.5]]), True))
# a repeated input whose zero pivot rounding leaves at ~1e-9 > 0: factored
# without jitter, it gave |alpha| ~ 1e14 and a mean of 0.740 at the input 0.4
@example((GpHyperParams(v=0.28, w=(1.0,), epsilon=1e-20), np.array([[0.13], [0.4], [0.13]]),
          np.array([0.26, 0.75, 0.28]), np.array([[0.4]]), True))
@SEEDED
@given(near_singular_gps())
def test_gp_predict_matches_the_explicit_inverse_on_near_singular_kernels(case):
    hp, x, y, queries, ladder = case
    model = gp_fit(hp, x, y)
    jitter = model.jitter_used
    # a pivot that rounding left just above zero still climbs the ladder
    assert jitter > 0 or not ladder
    pred = gp_predict(model, queries)
    mean, variance = gp_posterior(hp, x, y, queries, jitter)
    # K's eigenvalues lie in [0, v n], so this bounds the condition number
    # of K + s * I, which bounds the rounding of both computations
    s = hp.epsilon + jitter
    rounding = np.finfo(float).eps * (hp.v * len(y) + s) / s
    np.testing.assert_allclose(pred.mean, mean, rtol=0, atol=1e3 * rounding)
    np.testing.assert_allclose(pred.variance, variance, rtol=0, atol=10.0 * rounding * hp.v)
