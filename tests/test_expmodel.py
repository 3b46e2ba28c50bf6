import inspect
import math
import warnings

import numpy as np
import pytest

from pabfit import expmodel, numeric
from pabfit.dataio import FIXTURES, load_fixture
from pabfit.domain import Contaminant
from pabfit.errors import InvalidInput
from pabfit.expmodel import (
    ExpModelParams,
    ExponentForm,
    exp_model_eval,
    exp_model_residual_jacobian,
    fit_exp_model,
)
from pabfit.gp import training_set
from pabfit.numeric import levenberg_marquardt

from oracles import MB_EXP_PARAMS, PB_EXP_PARAMS, finite_difference_gradient


def removal_oracle(a, b, t, w):
    """Independent scalar evaluation of the removal expression."""
    e = math.exp(-t * (a + b + w))
    return 1.0 - e - t * a * (b + w) * e


def make_grid_data(a, b, n_t=20, w_values=(0.0, 0.5, 1.0)):
    p = ExpModelParams(a=a, b=b)
    t = np.linspace(0.05, 1.0, n_t)
    return [(float(ti), float(wj), float(exp_model_eval(p, ti, wj))) for ti in t for wj in w_values]


def grid_residual_jacobian(data, form=ExponentForm.LITERAL):
    """The residuals and Jacobian in (a, b) that ``fit_exp_model`` descends,
    so a test can run Levenberg-Marquardt from a start of its choosing."""
    t, w, y = np.asarray(data, dtype=float).T
    return lambda theta: exp_model_residual_jacobian(ExpModelParams(*theta, exponent_form=form), t, w, y)


class TestEval:
    def test_zero_time_is_exactly_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = ExpModelParams(a=rng.uniform(-5, 5), b=rng.uniform(-5, 5))
            assert exp_model_eval(p, 0.0, rng.uniform(0, 3)) == 0.0

    def test_pb_reference_point(self):
        p = ExpModelParams(a=PB_EXP_PARAMS[0], b=PB_EXP_PARAMS[1])
        got = float(exp_model_eval(p, 1.0, 0.5))
        assert got == pytest.approx(removal_oracle(3.315, 0.829, 1.0, 0.5), abs=1e-15)
        assert got == pytest.approx(0.948, abs=1e-3)

    def test_mb_reference_point(self):
        p = ExpModelParams(a=MB_EXP_PARAMS[0], b=MB_EXP_PARAMS[1])
        got = float(exp_model_eval(p, 1.0, 1.0))
        assert got == pytest.approx(removal_oracle(2.068, 3.486, 1.0, 1.0), abs=1e-15)
        assert 0.0 < got < 1.0

    def test_increasing_in_time_for_reference_params(self):
        for a, b in (PB_EXP_PARAMS, MB_EXP_PARAMS):
            p = ExpModelParams(a=a, b=b)
            for w in (0.0, 0.5, 1.0, 1.5):
                assert exp_model_eval(p, 1.0, w) > exp_model_eval(p, 0.1, w)

    def test_product_exponent_form(self):
        p = ExpModelParams(a=2.0, b=1.0, exponent_form=ExponentForm.PRODUCT)
        t, w = 0.7, 0.5
        e = math.exp(-t * (2.0 * (1.0 + w)))
        expected = 1.0 - e - t * 2.0 * (1.0 + w) * e
        assert float(exp_model_eval(p, t, w)) == pytest.approx(expected, abs=1e-15)


def exp_model_grid(p, t_grid, w_grid):
    """The (time, thickness) grid as ``cli.predict`` evaluates it, in one broadcast."""
    t = np.asarray(t_grid, dtype=float)
    w = np.asarray(w_grid, dtype=float)
    return exp_model_eval(p, t[:, None], w[None, :])


def exp_model_sse_gradient(p, t, w, y):
    """Gradient in (a, b) of the sum of squares: 2 J^T r."""
    r, jac = exp_model_residual_jacobian(p, t, w, y)
    return 2.0 * (jac.T @ r)


class TestGrid:
    def test_zero_time_row(self):
        p = ExpModelParams(a=1.2, b=0.3)
        grid = exp_model_grid(p, [0.0], [0.0, 0.5, 1.0])
        assert grid.shape == (1, 3)
        assert np.all(grid == 0.0)

    def test_single_cell_matches_eval(self):
        p = ExpModelParams(a=1.2, b=0.3)
        grid = exp_model_grid(p, [0.6], [0.9])
        assert grid[0, 0] == exp_model_eval(p, 0.6, 0.9)

    def test_grid_equals_pointwise_bit_for_bit(self):
        p = ExpModelParams(a=PB_EXP_PARAMS[0], b=PB_EXP_PARAMS[1])
        t_grid = [0.25, 0.5, 0.75, 1.0]
        w_grid = [0.0, 0.5, 1.0, 1.5]
        grid = exp_model_grid(p, t_grid, w_grid)
        for i, t in enumerate(t_grid):
            for j, w in enumerate(w_grid):
                assert grid[i, j] == exp_model_eval(p, t, w)

    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_broadcast_equals_double_loop_oracle(self, form):
        rng = np.random.default_rng(23)
        t_grid = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 38)])
        w_grid = np.concatenate([[0.0], rng.uniform(0.0, 5.0, 29)])
        for a, b in (PB_EXP_PARAMS, MB_EXP_PARAMS, (0.519, 0.876), (3.876, -2.481)):
            p = ExpModelParams(a=a, b=b, exponent_form=form)
            # the double loop of scalar calls that the broadcast replaced
            oracle = np.empty((t_grid.size, w_grid.size))
            for i, ti in enumerate(t_grid):
                for j, wj in enumerate(w_grid):
                    oracle[i, j] = exp_model_eval(p, ti, wj)
            assert np.array_equal(exp_model_grid(p, t_grid, w_grid), oracle)


class TestFit:
    def test_recovery_from_default_start(self):
        data = make_grid_data(*PB_EXP_PARAMS)
        fit = fit_exp_model(data)
        assert fit.a == pytest.approx(PB_EXP_PARAMS[0], abs=1e-3)
        assert fit.b == pytest.approx(PB_EXP_PARAMS[1], abs=1e-3)

    def test_start_at_truth_is_stationary(self):
        fit = levenberg_marquardt(grid_residual_jacobian(make_grid_data(*MB_EXP_PARAMS)), MB_EXP_PARAMS)
        assert fit.fun < 1e-12
        assert fit.converged

    def test_constant_zero_data_descends(self):
        data = [(t, w, 0.0) for t in np.linspace(0.1, 1, 10) for w in (0.0, 1.0)]

        def sse_at(a, b):
            p = ExpModelParams(a=a, b=b)
            return sum((float(exp_model_eval(p, t, w)) - y) ** 2 for t, w, y in data)

        fit = fit_exp_model(data)
        assert fit.sse < sse_at(1.0, 1.0)

    def test_basin_recovery_within_tolerance(self):
        for a, b in (PB_EXP_PARAMS, MB_EXP_PARAMS):
            residual_jacobian = grid_residual_jacobian(make_grid_data(a, b))
            for da, db in ((0.5, 0.5), (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)):
                fit = levenberg_marquardt(residual_jacobian, (a + da, b + db))
                assert fit.fun < 1e-8
                assert fit.x == pytest.approx((a, b), abs=1e-3)

    def test_takes_no_start(self):
        # the fit picks its own starts
        assert list(inspect.signature(fit_exp_model).parameters) == ["data", "exponent_form"]

    def test_rejects_bad_data(self):
        with pytest.raises(InvalidInput):
            fit_exp_model([])
        with pytest.raises(InvalidInput):
            fit_exp_model([(1.5, 0.0, 0.2)])  # t_norm out of range

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_names_its_column(self, column, value):
        row = [0.5, 1.0, 0.2]
        row[column] = value
        name = ("t_norm", "w", "removal")[column]
        with pytest.raises(InvalidInput, match=f"^{name} values must"):
            fit_exp_model([(0.4, 1.0, 0.1), row])

    def test_negative_thickness_is_invalid_input(self):
        with pytest.raises(InvalidInput, match=r"^w values must"):
            fit_exp_model([(0.4, 1.0, 0.1), (0.5, -1.0, 0.2)])


def fixture_data(name):
    series = load_fixture(name)
    columns, removal, _, _ = training_set(series)
    data = np.column_stack([columns["t_norm"], columns["thickness_cm"], removal])
    return series.contaminant, data


def assert_sse_gradient_matches_fd(a, b, form, data):
    t, w, y = data.T

    def sse(theta):
        r = exp_model_eval(ExpModelParams(a=theta[0], b=theta[1], exponent_form=form), t, w) - y
        return float(np.dot(r, r))

    analytic = exp_model_sse_gradient(ExpModelParams(a=a, b=b, exponent_form=form), t, w, y)
    reference = finite_difference_gradient(sse, np.array([a, b]))
    scale = np.max(np.abs(analytic))
    assert scale > 0
    assert np.max(np.abs(analytic - reference)) <= 1e-4 * scale, (form, analytic, reference)


class TestSseGradient:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_fixtures_at_shipped_parameters(self, name, form):
        contaminant, data = fixture_data(name)
        a, b = PB_EXP_PARAMS if contaminant is Contaminant.PB else MB_EXP_PARAMS
        if name == "mb_run1.csv" and form is ExponentForm.LITERAL:
            # mb_run1 is this model at these parameters without noise, so the
            # SSE sits at its minimum there and only a zero can be checked;
            # the comparison moves to (1, 1)
            t, w, y = data.T
            assert np.max(np.abs(exp_model_sse_gradient(ExpModelParams(a, b), t, w, y))) < 1e-15
            a, b = 1.0, 1.0
        assert_sse_gradient_matches_fd(a, b, form, data)

    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_random_small_inputs(self, form):
        rng = np.random.default_rng(70)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            data = np.column_stack(
                [rng.uniform(0, 1, n), rng.choice([0.0, 0.5, 1.0, 3.0], n), rng.uniform(0, 1, n)]
            )
            # positive parameters, as the fits find; where a*(b + W) < 0 the
            # product form grows as e^{+t|E|}, and h = 1e-3 truncation alone
            # exceeds 1e-4 of the gradient
            a, b = rng.uniform(0.5, 4.5, 2)
            assert_sse_gradient_matches_fd(a, b, form, data)

    def test_zero_at_an_exact_fit(self):
        data = np.array(make_grid_data(*MB_EXP_PARAMS))
        t, w, y = data.T
        g = exp_model_sse_gradient(ExpModelParams(*MB_EXP_PARAMS), t, w, y)
        np.testing.assert_array_equal(g, [0.0, 0.0])


class TestResidualJacobian:
    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_columns_match_finite_differences(self, form):
        # each row of J is the gradient of one residual; positive parameters
        # as in TestSseGradient, so h = 1e-3 truncation stays below 1e-4
        rng = np.random.default_rng(71)
        for name in ("pcp_run1.csv", "mb_run1.csv"):
            _, data = fixture_data(name)
            t, w, y = data.T
            for a, b in ((1.0, 1.0), PB_EXP_PARAMS, tuple(rng.uniform(0.5, 4.5, 2))):
                _, jac = exp_model_residual_jacobian(ExpModelParams(a, b, exponent_form=form), t, w, y)
                for i in range(t.size):

                    def residual(theta, i=i):
                        p = ExpModelParams(theta[0], theta[1], exponent_form=form)
                        return float(exp_model_eval(p, t[i], w[i]) - y[i])

                    reference = finite_difference_gradient(residual, np.array([a, b]))
                    scale = max(np.max(np.abs(jac[i])), 1e-12)
                    assert np.max(np.abs(jac[i] - reference)) <= 1e-4 * scale, (name, i)

    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_residuals_are_eval_minus_removal(self, form):
        _, data = fixture_data("pcbc_run2.csv")
        t, w, y = data.T
        p = ExpModelParams(*PB_EXP_PARAMS, exponent_form=form)
        r, _ = exp_model_residual_jacobian(p, t, w, y)
        np.testing.assert_array_equal(r, exp_model_eval(p, t, w) - y)


# SSE of the fit on each fixture: with the steepest descent from (1, 1) this
# fit replaced, and as reached now (literal, product)
FIXTURE_SSE = {
    "pcp_run1.csv": ((2.276920756151712, 1.6822409013395776), (0.0770210662558104, 0.4127986790142778)),
    "pcp_run2.csv": ((1.0140183426114948, 0.6218200944065903), (0.11919082312787499, 0.16425340851266132)),
    "pcbc_run1.csv": ((2.6115756597928588, 1.9813591669509376), (0.030353970439770103, 0.43210512850779575)),
    "pcbc_run2.csv": ((2.365921718242557, 1.7671751373944764), (0.034377688731918606, 0.47168699510653106)),
    "mb_run1.csv": ((1.3764151616359444e-16, 0.007670096219265564), (0.0, 0.00767009621926557)),
}


class TestFixtureFits:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_sse_no_higher_than_the_descent(self, name, form):
        _, data = fixture_data(name)
        fit = fit_exp_model(data, exponent_form=form)
        column = list(ExponentForm).index(form)
        before, now = FIXTURE_SSE[name][0][column], FIXTURE_SSE[name][1][column]
        # mb_run1's product fit lands on the descent's minimum, equal up to
        # the rounding of the sum (~1e-15 relative)
        assert fit.sse <= before * (1.0 + 1e-12)
        assert fit.sse == pytest.approx(now, rel=1e-9, abs=1e-28)
        assert fit.converged
        assert not fit.identifiable

    def test_mb_literal_branch_rule_gives_the_reference(self):
        _, data = fixture_data("mb_run1.csv")
        fit = fit_exp_model(data)
        assert (fit.a, fit.b) == pytest.approx(MB_EXP_PARAMS, abs=1e-12)

    @pytest.mark.parametrize(
        "name,sse",
        [
            ("pcp_run1.csv", 0.41280),
            ("pcp_run2.csv", 0.16425),
            ("pcbc_run1.csv", 0.43211),
            ("pcbc_run2.csv", 0.47169),
        ],
    )
    def test_lead_product_fits_reach_the_lower_minimum(self, name, sse):
        # the minimum lies at q = a * (b + W) < 0, across the ridge q = 0
        # that a run from q > 0 stops at (SSE 1.682, 0.622, 1.981, 1.767)
        _, data = fixture_data(name)
        fit = fit_exp_model(data, exponent_form=ExponentForm.PRODUCT)
        assert fit.sse == pytest.approx(sse, rel=1e-4)
        assert fit.converged
        w = data[0, 1]
        assert -1.0 < fit.a * (fit.b + w) < -0.8
        assert fit.b + w == pytest.approx(-fit.a, rel=1e-12)

    @pytest.mark.parametrize("name", ["pcp_run1.csv", "pcp_run2.csv", "pcbc_run1.csv", "pcbc_run2.csv"])
    def test_literal_lead_fits_end_past_the_ridge(self, monkeypatch, name):
        # the literal fit runs the same starts as the product fit, and ends
        # at q = a * (b + W) < 0
        _, data = fixture_data(name)
        starts = []

        def counted(residual_jacobian, x0):
            starts.append(tuple(x0))
            return levenberg_marquardt(residual_jacobian, x0)

        monkeypatch.setattr(expmodel, "levenberg_marquardt", counted)
        fit = fit_exp_model(data)
        assert starts == list(expmodel._STARTS)
        assert -1.0 < fit.a * (fit.b + data[0, 1]) < -0.8
        assert fit.converged

    @pytest.mark.parametrize("form,sse", [(ExponentForm.LITERAL, 0.07702), (ExponentForm.PRODUCT, 0.41280)])
    def test_one_thickness_fit_does_not_depend_on_w(self, form, sse):
        # on one thickness the curve depends on a and b + W alone, so the
        # fit's SSE and the pair {a, b + W} do not depend on W. The literal
        # branch rule compares a with b, so which member of the pair is
        # reported as a does
        _, data = fixture_data("pcp_run1.csv")
        fits = []
        for w in (0.0, 3.0, 10.0, 30.0, 1e4):
            moved = data.copy()
            moved[:, 1] = w
            fit = fit_exp_model(moved, exponent_form=form)
            fits.append((fit.sse, sorted((fit.a, fit.b + w))))
        for got_sse, got_pair in fits:
            assert got_sse == pytest.approx(fits[0][0], rel=1e-9)
            assert got_pair == pytest.approx(fits[0][1], rel=1e-9)
        assert fits[0][0] == pytest.approx(sse, rel=1e-4)

    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_identifiable_needs_two_thicknesses(self, form):
        truth = ExpModelParams(*PB_EXP_PARAMS, exponent_form=form)
        t = np.linspace(0.05, 1.0, 20)
        one = [(ti, 1.0, float(exp_model_eval(truth, ti, 1.0))) for ti in t]
        assert not fit_exp_model(one, exponent_form=form).identifiable
        # layouts where a run can end away from the minimum: on (0, 5) cm
        # q = a * (b + W) changes sign between the rows at some starts, and
        # on close thicknesses the literal minimum and its near-swap lie one
        # on each side of the swap line a = b + W
        cases = [(PB_EXP_PARAMS, w) for w in ((0.5, 1.5), (0.0, 5.0), (2.75, 3.0))]
        cases.append(((0.5, 2.5), (2.9, 3.0)))
        for params, thicknesses in cases:
            truth = ExpModelParams(*params, exponent_form=form)
            two = [(ti, wj, float(exp_model_eval(truth, ti, wj))) for ti in t for wj in thicknesses]
            fit = fit_exp_model(two, exponent_form=form)
            assert fit.identifiable
            assert (fit.a, fit.b) == pytest.approx(params, abs=1e-8), thicknesses

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_swapped_starts_give_the_same_fit(self, monkeypatch, name, form):
        # with every run started at the swap of the fit's own start in
        # (a, b + W), the runs end on the other branch, and the fit reports
        # the same branch representative up to the rounding of the runs
        _, data = fixture_data(name)
        fit = fit_exp_model(data, exponent_form=form)

        def from_the_swap(residual_jacobian, x0):
            return levenberg_marquardt(residual_jacobian, (x0[1], x0[0]))

        monkeypatch.setattr(expmodel, "levenberg_marquardt", from_the_swap)
        swapped = fit_exp_model(data, exponent_form=form)
        assert (swapped.a, swapped.b) == pytest.approx((fit.a, fit.b), rel=1e-9)
        assert swapped.sse == pytest.approx(fit.sse, rel=1e-9, abs=1e-28)
        assert (swapped.converged, swapped.identifiable) == (fit.converged, fit.identifiable)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    @pytest.mark.parametrize("form", list(ExponentForm))
    def test_a_run_from_the_mirror_ends_at_the_mirror(self, name, form):
        # on one thickness the mirror maps each Levenberg-Marquardt step onto
        # itself, so a second run from the mirror of x0 only repeats the first
        _, data = fixture_data(name)
        t, w, y = data.T
        shift = float(np.mean(w))

        def residual_jacobian(theta):
            return exp_model_residual_jacobian(ExpModelParams(*theta, exponent_form=form), t, w, y)

        first = levenberg_marquardt(residual_jacobian, (1.0, 1.0)).x
        second = levenberg_marquardt(residual_jacobian, (1.0 + shift, 1.0 - shift)).x
        mirrored = np.array([first[1] + shift, first[0] - shift])
        assert np.linalg.norm(second - mirrored) <= 1e-9 * np.linalg.norm(mirrored)

    @pytest.mark.parametrize("form", list(ExponentForm))
    @pytest.mark.parametrize("thicknesses", [(1.0,), (0.5, 1.5)])
    def test_runs_by_thickness_and_form(self, monkeypatch, form, thicknesses):
        # every form and every thickness layout runs the same starts
        starts = []

        def counted(residual_jacobian, x0):
            starts.append(tuple(x0))
            return levenberg_marquardt(residual_jacobian, x0)

        monkeypatch.setattr(expmodel, "levenberg_marquardt", counted)
        truth = ExpModelParams(*PB_EXP_PARAMS, exponent_form=form)
        t = np.linspace(0.05, 1.0, 20)
        data = [(ti, wj, float(exp_model_eval(truth, ti, wj))) for ti in t for wj in thicknesses]
        fit = fit_exp_model(data, exponent_form=form)
        assert starts == list(expmodel._STARTS)
        assert fit.identifiable == (len(thicknesses) == 2)

    @pytest.mark.parametrize("b,w", [(1.0, 0.5), (1.0, 0.0), (1.0, 3.0), (-1.5, 0.5)])
    def test_product_valley_point_is_canonical(self, b, w):
        # one thickness identifies only q = a * (b + W); the fit reports the
        # point of that curve with a = |b + W|, where b + W takes the sign of q
        truth = ExpModelParams(2.0, b, exponent_form=ExponentForm.PRODUCT)
        q = 2.0 * (b + w)
        t = np.linspace(0.05, 1.0, 20)
        data = [(ti, w, float(exp_model_eval(truth, ti, w))) for ti in t]
        fit = fit_exp_model(data, exponent_form=ExponentForm.PRODUCT)
        assert fit.a == pytest.approx(math.sqrt(abs(q)), rel=1e-9)
        assert fit.b + w == pytest.approx(math.copysign(fit.a, q), rel=1e-12)

    def test_a_start_whose_residuals_are_not_finite_is_dropped(self, monkeypatch):
        # on one thickness E >= -2 at every start, so finite data gives them
        # finite residuals; every run but the one from (1, -1) is handed NaN
        # residuals instead. Each raises at its start and is dropped,
        # silently, for the run from (1, -1) (SSE 0.022 on mb_run1, where
        # the others reach 2e-31)
        _, data = fixture_data("mb_run1.csv")
        nan = (np.full(len(data), np.nan), np.ones((len(data), 2)))
        kept = (1.0, -1.0)
        assert kept in expmodel._STARTS

        def poisoned(residual_jacobian, x0):
            if x0 != kept:
                return levenberg_marquardt(lambda theta: nan, x0)
            return levenberg_marquardt(residual_jacobian, x0)

        monkeypatch.setattr(expmodel, "levenberg_marquardt", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_exp_model(data)
        at_zero = data.copy()
        at_zero[:, 1] = 0.0  # the residuals the runs see: W - min(W)
        kept_run = levenberg_marquardt(grid_residual_jacobian(at_zero), kept)
        assert fit.sse == pytest.approx(kept_run.fun, rel=1e-9)
        assert fit.sse > 0.02
        assert fit.converged

    @pytest.mark.parametrize("thicknesses", [(0.5, 1.5), (2.75, 3.0)])
    def test_runs_that_only_drift_stop_early(self, monkeypatch, thicknesses):
        # on close thicknesses the runs from q = a * (b + W) < 0 at every row
        # drift toward a -> 0, b -> -inf, where their sum of squares has its
        # infimum; each stops a few hundred iterations in, far below the
        # 20000-iteration cap, and a run from q > 0 gives the exact fit
        runs = []

        def counted(residual_jacobian, x0):
            runs.append(levenberg_marquardt(residual_jacobian, x0))
            return runs[-1]

        monkeypatch.setattr(expmodel, "levenberg_marquardt", counted)
        truth = ExpModelParams(*PB_EXP_PARAMS, exponent_form=ExponentForm.PRODUCT)
        t = np.linspace(0.05, 1.0, 20)
        data = [(ti, wj, float(exp_model_eval(truth, ti, wj))) for ti in t for wj in thicknesses]
        fit = fit_exp_model(data, exponent_form=ExponentForm.PRODUCT)
        assert fit.sse < 1e-20
        assert fit.converged
        assert not all(run.converged for run in runs)
        assert sum(run.iterations for run in runs) < 2000

    def test_iteration_cap_reaches_the_report(self, monkeypatch):
        _, data = fixture_data("pcp_run1.csv")
        monkeypatch.setattr(numeric, "_LM_MAX_ITERS", 2)
        assert not fit_exp_model(data).converged
