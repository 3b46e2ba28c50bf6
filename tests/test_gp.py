import math
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from pabfit import gp as gp_module
from pabfit.dataio import FIXTURES, load_fixture
from pabfit.domain import Contaminant, ObservationSeries, Sample, transform_time
from pabfit.errors import DimensionMismatch, InvalidInput, NotPositiveDefinite
from pabfit.gp import (
    DEFAULT_EPSILON,
    INPUT_NAMES,
    GpHyperParams,
    covariance_factor,
    default_hyperparams,
    design_matrix,
    gp_fit,
    gp_loo_sse,
    gp_nlml,
    gp_optimize_hyperparams,
    gp_predict,
    kernel_matrix,
    select_inputs,
    training_set,
)
from pabfit.numeric import DescentResult, triangular_inverse

from oracles import (
    finite_difference_gradient,
    gp_posterior,
    kernel,
    lapack_cholesky,
    mp_posterior_variance,
    unblocked_kernel_matrix,
)


def fixture_fit(name):
    """(hp, x, y) of a bundled fixture as ``fit-gp`` fits it: the shipped
    weights of the columns that vary, and their design matrix."""
    series = load_fixture(name)
    columns, y, _, _ = training_set(series)
    hp, x, _ = select_inputs(default_hyperparams(series.contaminant), columns)
    return hp, x, y


SCORES = {"nlml": gp_nlml, "sse": gp_loo_sse}


def search_closures(x, y, hp0, objective):
    """The objective and gradient, in theta = (log v, log w_1, ..., log w_p),
    that ``gp_optimize_hyperparams`` hands ``gradient_descent``, caught by a
    stub descent that returns its start."""
    seen = {}

    def keeping_descent(objective_fn, gradient, x0):
        seen.update(objective=objective_fn, gradient=gradient)
        return DescentResult(x=np.asarray(x0, dtype=float), fun=0.0, iterations=0, converged=True)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp_module, "gradient_descent", keeping_descent)
        gp_optimize_hyperparams(x, y, hp0, objective=objective)
    return seen["objective"], seen["gradient"]


class TestKernel:
    def test_zero_distance_is_exactly_v(self):
        hp = GpHyperParams(v=0.3852, w=(0.7839, 2.8869, 2.859e-9))
        x = np.array([0.5, 7.0, 3.0])
        assert kernel(hp, x, x) == 0.3852

    def test_unit_example(self):
        hp = GpHyperParams(v=1.0, w=(1.0,))
        assert kernel(hp, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_symmetry_bit_for_bit(self):
        rng = np.random.default_rng(31)
        hp = GpHyperParams(v=0.7, w=(0.9, 2.1, 0.3))
        for _ in range(50):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            assert kernel(hp, a, b) == kernel(hp, b, a)

    def test_dimension_mismatch(self):
        hp = GpHyperParams(v=1.0, w=(1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            kernel(hp, [0.0], [1.0, 2.0])

    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(32)
        hp = GpHyperParams(v=0.4, w=(1.3, 0.2))
        x = rng.standard_normal((6, 2))
        x2 = rng.standard_normal((4, 2))
        mat = kernel_matrix(hp, x, x2)
        for i in range(6):
            for j in range(4):
                assert mat[i, j] == pytest.approx(kernel(hp, x[i], x2[j]), rel=1e-14)

    def test_hyperparameter_validation(self):
        with pytest.raises(InvalidInput):
            GpHyperParams(v=0.0, w=(1.0,))
        with pytest.raises(InvalidInput):
            GpHyperParams(v=1.0, w=(-0.1,))
        with pytest.raises(InvalidInput):
            GpHyperParams(v=1.0, w=(1.0,), epsilon=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInput, match="weights w"):
                GpHyperParams(v=0.3, w=(bad, 1.0, 1.0))
            with pytest.raises(InvalidInput, match="jitter epsilon"):
                GpHyperParams(v=0.3, w=(1.0,), epsilon=bad)

    @pytest.mark.parametrize("count", range(8))
    def test_one_weight_per_input_one_to_three_inputs(self, count):
        # a GP has one to three inputs; a weight for a fourth is rejected,
        # not dropped
        w = (1.0,) * count
        if 1 <= count <= 3:
            assert GpHyperParams(v=1.0, w=w).p == count
        else:
            with pytest.raises(InvalidInput, match=f"1 to 3 weights, one per input, got {count}"):
                GpHyperParams(v=1.0, w=w)

    def test_pb_thickness_insensitivity(self):
        # the tiny thickness weight makes +-1.5 cm perturbations invisible
        hp = default_hyperparams(Contaminant.PB)
        rng = np.random.default_rng(33)
        for _ in range(100):
            t1, t2 = rng.uniform(0, 1, 2)
            ph1, ph2 = rng.uniform(5, 9, 2)
            w0 = rng.uniform(0, 3)
            base = kernel(hp, [t1, ph1, w0], [t2, ph2, w0])
            for dw in (1.5, -1.5):
                moved = kernel(hp, [t1, ph1, w0], [t2, ph2, w0 + dw])
                assert abs(moved - base) / base < 1e-8


class TestKernelFromSquaredDifferences:
    """The search's K, v * exp(sum -w_p * D_p) from D formed once, is ``kernel_matrix``."""

    @staticmethod
    def search_kernel(hp, x):
        return gp_module._kernel_from_squared_differences(hp, gp_module._squared_differences(x))

    def test_random_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(60):
            n, p = int(rng.integers(1, 90)), int(rng.integers(1, 4))
            x = rng.uniform(-3.0, 3.0, (n, p)) * 10.0 ** rng.uniform(-3, 2, p)
            hp = GpHyperParams(v=rng.uniform(0.01, 5.0), w=10.0 ** rng.uniform(-4, 3, p))
            np.testing.assert_array_equal(self.search_kernel(hp, x), kernel_matrix(hp, x))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_point_and_repeated_points(self, p):
        hp = GpHyperParams(v=0.7, w=(0.3, 2.0, 11.0)[:p])
        for x in (np.full((1, p), 0.25), np.array([[0.5] * p, [0.5] * p, [1.5] * p])):
            np.testing.assert_array_equal(self.search_kernel(hp, x), kernel_matrix(hp, x))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_with_every_layout_column(self, name):
        series = load_fixture(name)
        columns, _, _, _ = training_set(series)
        hp = default_hyperparams(series.contaminant)
        x = design_matrix(columns, hp.inputs)
        np.testing.assert_array_equal(self.search_kernel(hp, x), kernel_matrix(hp, x))
        hp, x, _ = select_inputs(hp, columns)
        np.testing.assert_array_equal(self.search_kernel(hp, x), kernel_matrix(hp, x))


class TestKernelMatrixBlocks:
    """The column-by-column, row-blocked kernel matrix is bit-identical to
    the one-einsum oracle for every p a GP has, 1 to 3."""

    BLOCK = gp_module._KERNEL_BLOCK_ELEMENTS
    P_RANGE = range(1, 4)

    @staticmethod
    def hp(p):
        return GpHyperParams(v=0.3852, w=(0.7839, 2.8869, 2.859e-9)[:p])

    @pytest.mark.parametrize("p", P_RANGE)
    def test_cross_matrix_across_block_edges(self, p):
        rng = np.random.default_rng(50 + p)
        m = 512
        rows = self.BLOCK // m
        x2 = rng.uniform(0, 3, (m, p))
        for n in (1, 5, 2 * rows, 2 * rows + 1):
            x = rng.uniform(0, 3, (n, p))
            got = kernel_matrix(self.hp(p), x, x2)
            np.testing.assert_array_equal(got, unblocked_kernel_matrix(self.hp(p), x, x2))

    def test_empty_inputs(self):
        hp = self.hp(2)
        x = np.ones((4, 2))
        assert kernel_matrix(hp, np.empty((0, 2)), x).shape == (0, 4)
        assert kernel_matrix(hp, x, np.empty((0, 2))).shape == (4, 0)

    @pytest.mark.parametrize("p", P_RANGE)
    def test_training_matrix_across_block_edges(self, p):
        rng = np.random.default_rng(60 + p)
        # a block holds BLOCK // n rows: 65 rows fit one block, 512 split
        # into blocks of 128 evenly, and 700 into blocks of 93 and a short
        # last one
        assert 65 <= self.BLOCK // 65
        assert 512 % (self.BLOCK // 512) == 0 and 700 % (self.BLOCK // 700) != 0
        for n in (1, 65, 512, 700):
            x = rng.uniform(0, 3, (n, p))
            np.testing.assert_array_equal(
                kernel_matrix(self.hp(p), x), unblocked_kernel_matrix(self.hp(p), x)
            )

    @pytest.mark.parametrize("p", P_RANGE)
    def test_single_row_blocks(self, p):
        rng = np.random.default_rng(70 + p)
        m = self.BLOCK + 1  # one row exceeds a block
        x = rng.uniform(0, 3, (3, p))
        x2 = rng.uniform(0, 3, (m, p))
        np.testing.assert_array_equal(
            kernel_matrix(self.hp(p), x, x2), unblocked_kernel_matrix(self.hp(p), x, x2)
        )

    @pytest.mark.parametrize("p", P_RANGE)
    def test_training_matrix_is_symmetric_with_v_on_the_diagonal(self, p):
        x = np.random.default_rng(75 + p).uniform(0, 3, (300, p))
        mat = kernel_matrix(self.hp(p), x)
        np.testing.assert_array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == self.hp(p).v)

    def test_peak_memory_below_two_result_matrices(self):
        # tighter than the name: the result plus two (rows, m) blocks
        n = 1000
        x = np.random.default_rng(80).uniform(0, 3, (n, 3))
        tracemalloc.start()
        try:
            kernel_matrix(self.hp(3), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 + 2 * self.BLOCK * 8


class TestFit:
    def test_peak_memory_two_matrices(self):
        # K goes once its factor is taken: LAPACK's copy of K, then the
        # factor and its inverse, are the most n x n arrays alive at once
        n = 300
        rng = np.random.default_rng(24)
        x, y = rng.uniform(0, 1, (n, 1)), rng.uniform(0, 1, n)
        hp = GpHyperParams(v=0.5, w=(2.0,), epsilon=1e-4)
        gp_fit(hp, x, y)
        tracemalloc.start()
        try:
            gp_fit(hp, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8

    def test_single_point_alpha(self):
        hp = GpHyperParams(v=1.0, w=(1.0,))
        model = gp_fit(hp, [[0.3]], [0.5])
        assert model.alpha[0] == pytest.approx(0.5 / (1.0 + hp.epsilon), rel=1e-12)

    def test_two_distant_points_near_diagonal(self):
        hp = GpHyperParams(v=1.0, w=(1.0,))
        y = np.array([0.2, 0.9])
        model = gp_fit(hp, [[0.0], [100.0]], y)
        np.testing.assert_allclose(model.alpha, y / (1.0 + hp.epsilon), rtol=1e-12)

    def test_alpha_matches_dense_solve(self):
        hp = default_hyperparams(Contaminant.PB)
        rng = np.random.default_rng(34)
        x = np.column_stack([rng.uniform(0, 1, 3), rng.uniform(5, 9, 3), rng.uniform(0, 3, 3)])
        y = rng.uniform(0, 1, 3)
        model = gp_fit(hp, x, y)
        k = kernel_matrix(hp, x) + hp.epsilon * np.eye(3)
        np.testing.assert_allclose(model.alpha, np.linalg.solve(k, y), atol=1e-8)

    def test_residual_identity(self):
        hp = default_hyperparams(Contaminant.METHYLENE_BLUE)
        rng = np.random.default_rng(35)
        x = np.column_stack([rng.uniform(0, 1, 8), rng.uniform(0, 3, 8)])
        y = rng.uniform(0, 1, 8)
        model = gp_fit(hp, x, y)
        k = kernel_matrix(hp, x) + hp.epsilon * np.eye(8)
        resid = np.linalg.norm(k @ model.alpha - y) / np.linalg.norm(y)
        assert resid < 1e-8

    def test_shape_validation(self):
        hp = GpHyperParams(v=1.0, w=(1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            gp_fit(hp, [[0.0, 1.0]], [0.5, 0.7])
        with pytest.raises(DimensionMismatch):
            gp_fit(hp, [[0.0, 1.0, 2.0]], [0.5])

    def test_one_dimensional_input_is_one_column(self):
        hp, y = GpHyperParams(v=0.5, w=(2.0,)), [0.1, 0.4, 0.3]
        flat, column = gp_fit(hp, [0.0, 0.5, 1.0], y), gp_fit(hp, [[0.0], [0.5], [1.0]], y)
        np.testing.assert_array_equal(flat.x_train, column.x_train)
        np.testing.assert_array_equal(flat.linv, column.linv)
        np.testing.assert_array_equal(flat.alpha, column.alpha)

    def test_non_finite_inputs_and_targets_rejected(self):
        hp = GpHyperParams(v=1.0, w=(1.0,))
        with pytest.raises(InvalidInput, match="inputs must be finite"):
            gp_fit(hp, [[0.0], [np.nan]], [0.5, 0.7])
        with pytest.raises(InvalidInput, match="targets must be finite"):
            gp_fit(hp, [[0.0], [1.0]], [0.5, np.inf])

    def test_psd_without_escalation(self):
        # random inputs up to n=32 factor at the nominal jitter alone
        rng = np.random.default_rng(36)
        for _ in range(20):
            n = int(rng.integers(2, 33))
            p = int(rng.integers(1, 4))
            hp = GpHyperParams(
                v=float(rng.uniform(0.1, 4.0)),
                w=tuple(rng.uniform(0.1, 20.0, p)),
                epsilon=float(rng.choice([1e-8, DEFAULT_EPSILON, 1e-6])),
            )
            x = rng.uniform(0, 1, size=(n, p))
            model = gp_fit(hp, x, rng.uniform(0, 1, n))
            assert model.jitter_used == 0.0


class TestUnchangedBits:
    """Fit, mean and nlml equal, bit for bit, the direct two-solve formulas."""

    def cases(self):
        for name in ("pcbc_run1.csv", "mb_run1.csv"):
            hp, x, y = fixture_fit(name)
            yield hp, x, y, x
        rng = np.random.default_rng(90)
        hp = default_hyperparams(Contaminant.PB)
        scale = np.array([1.0, 9.0, 3.0])
        yield hp, rng.uniform(0, 1, (65, 3)) * scale, rng.uniform(0, 1, 65), rng.uniform(
            0, 1, (40, 3)
        ) * scale

    def test_factor_alpha_mean_nlml(self):
        for hp, x, y, xq in self.cases():
            cov = unblocked_kernel_matrix(hp, x) + hp.epsilon * np.eye(len(y))
            lower = lapack_cholesky(cov)
            alpha = solve_triangular(lower.T, solve_triangular(lower, y, lower=True), lower=False)
            model = gp_fit(hp, x, y)
            assert model.jitter_used == 0.0
            np.testing.assert_array_equal(covariance_factor(hp, x).lower, lower)
            np.testing.assert_array_equal(model.alpha, alpha)
            pred = gp_predict(model, xq)
            np.testing.assert_array_equal(pred.mean, unblocked_kernel_matrix(hp, xq, x) @ alpha)
            nlml = float(
                0.5 * np.dot(y, alpha)
                + float(np.sum(np.log(np.diag(lower))))
                + 0.5 * len(y) * math.log(2.0 * math.pi)
            )
            assert gp_nlml(model) == nlml
            # the variance formula changed: one product with L^-1 in place of two solves
            cross = unblocked_kernel_matrix(hp, xq, x)
            two_solves = hp.v - np.einsum(
                "ij,ji->i", cross, solve_triangular(
                    lower.T, solve_triangular(lower, cross.T, lower=True), lower=False
                )
            )
            np.testing.assert_allclose(pred.variance, np.maximum(two_solves, 0.0), atol=1e-10)


class TestPredict:
    def test_single_point_shrinkage(self):
        hp = GpHyperParams(v=0.3852, w=(1.0,))
        model = gp_fit(hp, [[0.4]], [0.8])
        pred = gp_predict(model, [[0.4]])
        assert pred.mean[0] == pytest.approx(0.8 * hp.v / (hp.v + hp.epsilon), rel=1e-12)
        assert abs(pred.mean[0] - 0.8) < 1e-6

    def test_far_query_reverts_to_prior(self):
        hp = GpHyperParams(v=0.5, w=(2.0,))
        model = gp_fit(hp, [[0.0], [0.5], [1.0]], [0.2, 0.5, 0.9])
        pred = gp_predict(model, [[500.0]])
        assert abs(pred.mean[0]) < 1e-9
        assert pred.variance[0] == pytest.approx(hp.v, rel=1e-12)

    def test_brute_force_equivalence(self):
        for hp in map(default_hyperparams, Contaminant):
            rng = np.random.default_rng(37)
            for _ in range(30):
                n = int(rng.integers(1, 6))
                x = rng.uniform(0, 1, size=(n, hp.p)) * np.array([1.0, 9.0, 3.0])[: hp.p]
                y = rng.uniform(0, 1, n)
                xq = rng.uniform(0, 1, size=(4, hp.p)) * np.array([1.0, 9.0, 3.0])[: hp.p]
                model = gp_fit(hp, x, y)
                pred = gp_predict(model, xq)
                mean_o, var_o = gp_posterior(hp, x, y, xq)
                np.testing.assert_allclose(pred.mean, mean_o, atol=1e-8)
                np.testing.assert_allclose(pred.variance, var_o, atol=1e-8)

    def test_interpolation_on_separated_design(self):
        # 4x4 lattice keeps the kernel matrix well conditioned, so training
        # targets are reproduced to the epsilon/v scale
        rng = np.random.default_rng(38)
        for _ in range(10):
            v = float(rng.uniform(0.3, 2.0))
            hp = GpHyperParams(v=v, w=(3.0, 3.0))
            g = np.arange(4.0)
            base = np.array([[a, b] for a in g for b in g])
            x = base + rng.uniform(-0.05, 0.05, base.shape)
            y = rng.uniform(0, 1, len(x))
            pred = gp_predict(gp_fit(hp, x, y), x)
            bound = 10.0 * hp.epsilon / v * np.max(np.abs(y)) + 1e-9
            assert np.max(np.abs(pred.mean - y)) <= bound

    def test_variance_bounds(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            hp = GpHyperParams(v=float(rng.uniform(0.2, 3.0)), w=(4.0, 1.0))
            g = np.arange(3.0)
            x = np.array([[a, b] for a in g for b in g])
            y = rng.uniform(0, 1, len(x))
            model = gp_fit(hp, x, y)
            at_train = gp_predict(model, x)
            assert np.all(at_train.variance <= hp.epsilon * (1.0 + 1e-6) * max(1.0, hp.v))
            queries = rng.uniform(-1, 3, size=(20, 2))
            anywhere = gp_predict(model, queries)
            assert np.all(anywhere.variance <= hp.v + 1e-12)
            assert np.all(anywhere.variance >= 0.0)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_variance_against_high_precision(self, name):
        # the product with the explicit L^-1 keeps the variance within 1e-11
        # of a 50-digit reference at 40 query points between the training rows
        hp, x, y = fixture_fit(name)
        rng = np.random.default_rng(sorted(FIXTURES).index(name))
        xq = rng.uniform(x.min(axis=0), x.max(axis=0), (40, hp.p))
        model = gp_fit(hp, x, y)
        assert model.jitter_used == 0.0
        reference = np.maximum(mp_posterior_variance(hp, x, xq), 0.0)
        np.testing.assert_allclose(gp_predict(model, xq).variance, reference, rtol=0, atol=1e-11)


class TestNlml:
    def test_scalar_zero_target(self):
        hp = GpHyperParams(v=1.0 - 1.490116e-08, w=(1.0,), epsilon=1.490116e-08)
        model = gp_fit(hp, [[0.0]], [0.0])
        assert gp_nlml(model) == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_scalar_unit_target(self):
        hp = GpHyperParams(v=1.0 - 1.490116e-08, w=(1.0,), epsilon=1.490116e-08)
        model = gp_fit(hp, [[0.0]], [1.0])
        assert gp_nlml(model) == pytest.approx(0.5 + 0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_zero_targets_minimize_data_term(self):
        hp = GpHyperParams(v=0.7, w=(2.0,))
        rng = np.random.default_rng(40)
        x = rng.uniform(0, 1, size=(6, 1))
        zero_model = gp_fit(hp, x, np.zeros(6))
        data_term = 0.5 * float(zero_model.y_train @ zero_model.alpha)
        assert data_term == 0.0

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_model_keeps_the_inverse_alone_and_nlml_keeps_its_bits(self, name):
        # L^-1 is the model's one n x n array, and the nlml's log-determinant
        # term is the sum of log L_ii over the factor gp_fit takes, bit for bit
        hp, x, y = fixture_fit(name)
        model = gp_fit(hp, x, y)
        n = len(y)

        def array_sizes(obj):  # every array the model reaches, in nested fields too
            if isinstance(obj, np.ndarray):
                return [obj.size]
            values = [getattr(obj, f.name) for f in fields(obj)] if is_dataclass(obj) else []
            values += list(obj.values()) if isinstance(obj, dict) else []
            return [size for value in values for size in array_sizes(value)]

        assert sorted(array_sizes(model)) == sorted([n * hp.p, n, n, n * n])
        assert model.linv.shape == (n, n)
        lower = covariance_factor(hp, x).lower
        nlml = float(
            0.5 * np.dot(y, model.alpha)
            + float(np.sum(np.log(np.diag(lower))))
            + 0.5 * n * math.log(2.0 * math.pi)
        )
        assert gp_nlml(model) == nlml


def draw_from(hp, x, rng):
    k = kernel_matrix(hp, x)
    k[np.diag_indices_from(k)] += hp.epsilon
    return np.linalg.cholesky(k) @ rng.standard_normal(len(x))


class TestLooSse:
    def test_hand_expanded_two_points(self):
        # C = [[a, b], [b, a]]: each held-out mean is (b / a) times the other target
        hp = GpHyperParams(v=0.8, w=(1.5,))
        y = np.array([0.3, 0.7])
        model = gp_fit(hp, [[0.0], [0.6]], y)
        a, b = hp.v + hp.epsilon, kernel(hp, [0.0], [0.6])
        resid = y - (b / a) * y[::-1]
        assert gp_loo_sse(model) == pytest.approx(float(np.dot(resid, resid)), rel=1e-12)

    def test_inverse_diagonal_matches_explicit_inverse(self):
        # well-separated inputs keep K + eps*I far from singular
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            hp = GpHyperParams(v=float(rng.uniform(0.2, 2.0)), w=(float(rng.uniform(0.5, 2.0)),))
            x = np.sort(rng.uniform(0, 3 * n, n))[:, None]
            model = gp_fit(hp, x, rng.standard_normal(n))
            np.testing.assert_array_equal(model.linv, triangular_inverse(covariance_factor(hp, x)))
            cov = kernel_matrix(hp, x) + hp.epsilon * np.eye(n)
            diag = np.einsum("ij,ij->j", model.linv, model.linv)
            np.testing.assert_allclose(diag, np.diag(np.linalg.inv(cov)), rtol=1e-10)

    def test_matches_refits_on_near_singular_kernel(self):
        # closely spaced points and long length scales put cond(K + eps*I)
        # near 1e8, within reach of the nominal jitter
        rng = np.random.default_rng(45)
        n = 12
        for w in (0.5, 1.0, 3.0):
            hp = GpHyperParams(v=0.5, w=(w,))
            x = np.sort(rng.uniform(0, 1, n))[:, None]
            y = np.sin(3 * x[:, 0]) + 0.01 * rng.standard_normal(n)
            model = gp_fit(hp, x, y)
            cov = kernel_matrix(hp, x) + hp.epsilon * np.eye(n)
            assert np.linalg.cond(cov) > 1e8
            resid = []
            for i in range(n):
                keep = np.arange(n) != i
                sub = gp_fit(hp, x[keep], y[keep])
                assert sub.jitter_used == 0.0 == model.jitter_used
                resid.append(y[i] - gp_predict(sub, x[i : i + 1]).mean[0])
            assert gp_loo_sse(model) == pytest.approx(float(np.dot(resid, resid)), rel=1e-6)


class TestOptimize:
    def test_objective_never_worse_than_start(self):
        rng = np.random.default_rng(41)
        x = np.sort(rng.uniform(0, 1, 15))[:, None]
        y = draw_from(GpHyperParams(v=0.5, w=(8.0,)), x, rng)
        hp0 = GpHyperParams(v=1.0, w=(1.0,))
        before = gp_nlml(gp_fit(hp0, x, y))
        hp_opt = gp_optimize_hyperparams(x, y, hp0)
        assert hp_opt.epsilon == hp0.epsilon
        assert gp_nlml(gp_fit(hp_opt, x, y)) <= before

    def test_start_at_truth_barely_moves(self):
        rng = np.random.default_rng(42)
        hp_true = GpHyperParams(v=0.5, w=(8.0,))
        x = np.sort(rng.uniform(0, 1, 15))[:, None]
        y = draw_from(hp_true, x, rng)
        hp_opt = gp_optimize_hyperparams(x, y, hp_true)
        before = gp_nlml(gp_fit(hp_true, x, y))
        after = gp_nlml(gp_fit(hp_opt, x, y))
        assert after <= before
        # sample-level optimum sits near the generating values
        assert 0.2 < hp_opt.w[0] / hp_true.w[0] < 5.0
        assert 0.2 < hp_opt.v / hp_true.v < 5.0

    def test_descent_lands_in_best_grid_cell(self):
        # coarse grid-search oracle over log space for a 1-d sin-like toy
        # (zero mean, matching the prior)
        rng = np.random.default_rng(43)
        x = np.linspace(0, 1, 20)[:, None]
        y = 0.3 * np.sin(2 * np.pi * x[:, 0]) + 0.01 * rng.standard_normal(20)
        hp0 = GpHyperParams(v=1.0, w=(1.0,))
        hp_opt = gp_optimize_hyperparams(x, y, hp0)
        log_w_grid = np.linspace(math.log(0.5), math.log(200.0), 9)
        log_v_grid = np.linspace(math.log(0.05), math.log(5.0), 7)
        best = min(
            (
                gp_nlml(gp_fit(GpHyperParams(v=math.exp(lv), w=(math.exp(lw),)), x, y)),
                lw,
            )
            for lv in log_v_grid
            for lw in log_w_grid
        )
        assert gp_nlml(gp_fit(hp_opt, x, y)) <= best[0]
        cell = log_w_grid[1] - log_w_grid[0]
        assert abs(math.log(hp_opt.w[0]) - best[1]) <= cell

    def test_loo_objective_supported(self):
        rng = np.random.default_rng(44)
        x = np.sort(rng.uniform(0, 1, 12))[:, None]
        y = draw_from(GpHyperParams(v=0.5, w=(10.0,)), x, rng)
        hp0 = GpHyperParams(v=1.0, w=(1.0,))
        before = gp_loo_sse(gp_fit(hp0, x, y))
        hp_opt = gp_optimize_hyperparams(x, y, hp0, objective="sse")
        assert gp_loo_sse(gp_fit(hp_opt, x, y)) <= before

    @pytest.mark.parametrize("objective", ["nlml", "sse"])
    def test_objective_is_infinite_where_exp_overflows(self, objective):
        x, y = np.linspace(0, 1, 5)[:, None], np.linspace(0.1, 0.5, 5)
        score = search_closures(x, y, GpHyperParams(v=1.0, w=(1.0,)), objective)[0]
        assert score(np.array([0.0, 0.0])) < math.inf
        assert score(np.array([1000.0, 0.0])) == math.inf
        assert score(np.array([0.0, 1000.0])) == math.inf

    @pytest.mark.parametrize("objective", ["nlml", "sse"])
    def test_objective_is_infinite_where_the_fit_is_not_positive_definite(self, monkeypatch, objective):
        x, y = np.linspace(0, 1, 5)[:, None], np.linspace(0.1, 0.5, 5)
        score = search_closures(x, y, GpHyperParams(v=1.0, w=(1.0,)), objective)[0]

        def failing_fit(*args):
            raise NotPositiveDefinite("no jitter made C positive definite")

        monkeypatch.setattr(gp_module, "fit_covariance", failing_fit)
        assert score(np.array([0.0, 0.0])) == math.inf

    def test_rejects_bad_arguments(self):
        x = np.linspace(0, 1, 5)[:, None]
        y = np.zeros(5)
        with pytest.raises(InvalidInput):
            gp_optimize_hyperparams(x, y, GpHyperParams(v=1.0, w=(1.0,)), objective="rmse")
        with pytest.raises(InvalidInput):
            gp_optimize_hyperparams(x, y, GpHyperParams(v=1.0, w=(0.0,)))


class TestBuildInputs:
    def make_series(self, contaminant, ph=None):
        samples = tuple(
            Sample(t_raw=t, concentration=50.0 - 0.01 * t, thickness_w=3.0, ph=ph)
            for t in (10.0, 100.0, 3600.0)
        )
        return ObservationSeries(contaminant, "x", 50.0, samples)

    def test_pb_columns_with_assumed_ph(self):
        columns, y, ph_assumed, _ = training_set(self.make_series(Contaminant.PB), default_ph=7.0)
        assert list(columns) == list(INPUT_NAMES) == ["t_norm", "ph", "thickness_cm"]
        assert ph_assumed
        np.testing.assert_array_equal(columns["ph"], [7.0] * 3)
        np.testing.assert_array_equal(columns["thickness_cm"], [3.0] * 3)
        assert columns["t_norm"][-1] == 1.0

    def test_pb_columns_with_recorded_ph(self):
        columns, _, ph_assumed, _ = training_set(self.make_series(Contaminant.PB, ph=6.2))
        assert not ph_assumed
        np.testing.assert_array_equal(columns["ph"], [6.2] * 3)

    def test_mb_columns(self):
        columns, y, ph_assumed, _ = training_set(self.make_series(Contaminant.METHYLENE_BLUE))
        assert list(columns) == ["t_norm", "thickness_cm"]
        assert not ph_assumed
        np.testing.assert_allclose(y, 0.01 * np.array([10.0, 100.0, 3600.0]) / 50.0)


class TestDesignMatrix:
    def test_columns_in_the_named_order(self):
        columns = {"t_norm": [0.5, 1.0], "ph": [6.2, 7.1], "thickness_cm": [3.0, 1.5]}
        x = design_matrix(columns, INPUT_NAMES)
        np.testing.assert_array_equal(x, [[0.5, 6.2, 3.0], [1.0, 7.1, 1.5]])
        np.testing.assert_array_equal(design_matrix(columns, ("thickness_cm", "t_norm")),
                                      [[3.0, 0.5], [1.5, 1.0]])

    def test_scalars_give_one_row(self):
        columns = {"t_norm": 1.0, "ph": 7.0, "thickness_cm": 0.5}
        np.testing.assert_array_equal(design_matrix(columns, ("t_norm", "thickness_cm")), [[1.0, 0.5]])
        np.testing.assert_array_equal(design_matrix(columns, INPUT_NAMES), [[1.0, 7.0, 0.5]])

    def test_scalar_broadcasts_over_array(self):
        x = design_matrix({"t_norm": np.array([0.2, 0.4, 1.0]), "ph": 6.5, "thickness_cm": 3.0},
                          INPUT_NAMES)
        np.testing.assert_array_equal(x, [[0.2, 6.5, 3.0], [0.4, 6.5, 3.0], [1.0, 6.5, 3.0]])

    def test_grid_rows_in_c_order(self):
        t, w = np.array([0.5, 1.0]), np.array([0.0, 1.5, 3.0])
        columns = {"t_norm": t[:, None], "ph": 7.0, "thickness_cm": w[None, :]}
        expected = [[ti, 7.0, wj] for ti in t for wj in w]
        np.testing.assert_array_equal(design_matrix(columns, INPUT_NAMES), expected)
        # a column left out still shapes the rows
        np.testing.assert_array_equal(design_matrix(columns, ("t_norm",)),
                                      [[ti] for ti in t for _ in w])

    def test_training_set_holds_the_series_columns(self):
        series = load_fixture("pcbc_run1.csv")
        columns, _, _, _ = training_set(series)
        np.testing.assert_array_equal(columns["t_norm"], transform_time(series).t_norm)
        np.testing.assert_array_equal(columns["thickness_cm"], [s.thickness_w for s in series.samples])
        np.testing.assert_array_equal(columns["ph"], [s.ph for s in series.samples])


class TestSelectInputs:
    """A GP reads the training columns that vary, and nothing else."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_inputs_only_fit_equals_the_layout_fit(self, name):
        # every bundled series holds one thickness, and each lead series one
        # pH: t_norm is the one input, and dropping the constant columns
        # changes no bit at the training rows
        series = load_fixture(name)
        columns, y, _, _ = training_set(series)
        layout_hp = default_hyperparams(series.contaminant)
        hp, x, fixed = select_inputs(layout_hp, columns)
        assert hp.inputs == ("t_norm",) and hp.w == layout_hp.w[:1]
        assert fixed == ({"ph": 7.0, "thickness_cm": 3.0} if series.contaminant is Contaminant.PB
                         else {"thickness_cm": 1.0})
        x_layout = design_matrix(columns, layout_hp.inputs)
        model, layout = gp_fit(hp, x, y), gp_fit(layout_hp, x_layout, y)
        np.testing.assert_array_equal(covariance_factor(hp, x).lower, covariance_factor(layout_hp, x_layout).lower)
        np.testing.assert_array_equal(model.linv, layout.linv)
        np.testing.assert_array_equal(model.alpha, layout.alpha)
        pred, pred_layout = gp_predict(model, x), gp_predict(layout, x_layout)
        np.testing.assert_array_equal(pred.mean, pred_layout.mean)
        np.testing.assert_array_equal(pred.variance, pred_layout.variance)
        assert gp_nlml(model) == gp_nlml(layout)
        assert gp_loo_sse(model) == gp_loo_sse(layout)
        for objective in SCORES:  # (log v, log w_t) lead both gradients
            gradient = search_closures(x, y, hp, objective)[1](np.log([hp.v, *hp.w]))
            layout_gradient = search_closures(x_layout, y, layout_hp, objective)[1](
                np.log([layout_hp.v, *layout_hp.w]))
            np.testing.assert_array_equal(gradient, layout_gradient[:2])

    def test_a_varying_ph_is_an_input_with_its_layout_weight(self):
        columns = {"t_norm": [0.2, 0.6, 1.0], "ph": [6.5, 7.0, 7.0], "thickness_cm": [3.0] * 3}
        hp, x, fixed = select_inputs(default_hyperparams(Contaminant.PB), columns)
        assert hp.inputs == ("t_norm", "ph") and hp.w == (0.7839, 2.8869)
        np.testing.assert_array_equal(x, [[0.2, 6.5], [0.6, 7.0], [1.0, 7.0]])
        assert fixed == {"thickness_cm": 3.0}

    def test_a_varying_column_needs_a_weight(self):
        hp = GpHyperParams(v=1.0, w=(1.0,), inputs=("t_norm",))
        with pytest.raises(InvalidInput, match="vary"):
            select_inputs(hp, {"t_norm": [0.2, 1.0], "thickness_cm": [1.0, 2.0]})

    def test_inputs_by_count_or_by_name(self):
        assert GpHyperParams(v=1.0, w=(1.0,) * 3).inputs == INPUT_NAMES
        assert GpHyperParams(v=1.0, w=(1.0,) * 2).inputs == ("t_norm", "thickness_cm")
        assert GpHyperParams(v=1.0, w=(1.0,)).inputs == ("t_norm",)
        assert GpHyperParams(v=1.0, w=(1.0,), inputs=["ph"]).inputs == ("ph",)
        for names in (["t_norm"], ["t_norm", "t_norm"], ["t_norm", "pH"], []):
            with pytest.raises(InvalidInput, match="one per input"):
                GpHyperParams(v=1.0, w=(1.0,) * 2, inputs=names)


def log_space_objective(score, x, y, epsilon):
    """theta = (log v, log w_1, ..., log w_p) -> score of the refitted GP."""

    def f(theta):
        hp = GpHyperParams(v=math.exp(theta[0]), w=np.exp(theta[1:]), epsilon=epsilon)
        return score(gp_fit(hp, x, y))

    return f


def assert_gradient_matches_fd(objective, hp, x, y):
    # central differences at h = 1e-3 carry O(h^2) truncation and
    # ~1e-8 / h rounding; both stay well below 1e-4 of the largest entry
    theta = np.log([hp.v, *hp.w])
    analytic = search_closures(x, y, hp, objective)[1](theta)
    score = log_space_objective(SCORES[objective], x, y, hp.epsilon)
    reference = finite_difference_gradient(score, theta)
    scale = np.max(np.abs(analytic))
    assert scale > 0
    err = np.max(np.abs(analytic - reference))
    assert err <= 1e-4 * scale, (objective, analytic, reference)


class TestGradients:
    """The gradient the hyperparameter search descends on, against central differences."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_at_shipped_hyperparameters(self, name):
        hp, x, y = fixture_fit(name)
        for objective in SCORES:
            assert_gradient_matches_fd(objective, hp, x, y)

    def test_random_small_inputs(self):
        # eps = 1e-4 bounds cond(K + eps*I) near 1e5; at the nominal 1.5e-8
        # some draws reach 1e9, where the differences carry more rounding
        # than 1e-4 of the gradient at any step
        rng = np.random.default_rng(60)
        for _ in range(20):
            n, p = int(rng.integers(3, 25)), int(rng.integers(1, 4))
            x = rng.uniform(0, 1, (n, p))
            hp = GpHyperParams(v=rng.uniform(0.2, 2.0), w=rng.uniform(0.5, 5.0, p), epsilon=1e-4)
            y = rng.standard_normal(n)
            for objective in SCORES:
                assert_gradient_matches_fd(objective, hp, x, y)

    def test_constant_column_entry_is_exactly_zero(self):
        rng = np.random.default_rng(61)
        x = np.column_stack([rng.uniform(0, 1, 10), np.full(10, 7.0), rng.uniform(0, 2, 10)])
        hp, y = GpHyperParams(v=0.5, w=(2.0, 1.0, 0.3)), rng.standard_normal(10)
        for objective in SCORES:
            g = search_closures(x, y, hp, objective)[1](np.log([hp.v, *hp.w]))
            assert g[2] == 0.0
            assert np.all(g[[0, 1, 3]] != 0.0)


class TestOptimizeWithGradients:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_the_search_sees_only_the_inputs(self, name):
        # pH = 7 and W = 3 in every Pb fixture, W = 1 in mb_run1: the search
        # runs on t_norm's weight alone, whatever the constant columns' weights
        series = load_fixture(name)
        columns, y, _, _ = training_set(series)
        layout_hp = default_hyperparams(series.contaminant)
        unused = layout_hp.w[:1] + (0.0,) * (layout_hp.p - 1)
        found = []
        for hp0 in (layout_hp, replace(layout_hp, w=unused)):
            hp0, x, _ = select_inputs(hp0, columns)
            found.append([gp_optimize_hyperparams(x, y, hp0, objective=o) for o in ("nlml", "sse")])
        assert found[0] == found[1]
        assert all(hp.inputs == ("t_norm",) for hp in found[0])

    def test_one_fit_per_objective_evaluation(self, monkeypatch):
        # the gradient reuses the model the objective fitted at the same point
        hp0, x, y = fixture_fit("pcbc_run2.csv")
        counts = {"fits": 0, "objective": 0}
        real_fit, real_descent = gp_module.fit_covariance, gp_module.gradient_descent

        def counting_fit(*args, **kwargs):
            counts["fits"] += 1
            return real_fit(*args, **kwargs)

        def counting_descent(objective, *args, **kwargs):
            def counted(theta):
                counts["objective"] += 1
                return objective(theta)

            return real_descent(counted, *args, **kwargs)

        monkeypatch.setattr(gp_module, "fit_covariance", counting_fit)
        monkeypatch.setattr(gp_module, "gradient_descent", counting_descent)
        gp_optimize_hyperparams(x, y, hp0, objective="sse")
        assert counts["objective"] > 2
        assert counts["fits"] == counts["objective"]

    def test_one_triangular_inverse_per_fit(self, monkeypatch):
        # only fit_covariance forms L^-1; the objective, its gradient and
        # prediction read it off the model
        hp0, x, y = fixture_fit("pcbc_run2.csv")
        callers, counts = [], {"fits": 0, "gradients": 0}
        real_inverse, real_fit = gp_module.triangular_inverse, gp_module.fit_covariance
        real_gradient = gp_module._GRADIENT_WEIGHTS["sse"]

        def counting_inverse(factor):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_inverse(factor)

        def counting_fit(*args, **kwargs):
            counts["fits"] += 1
            return real_fit(*args, **kwargs)

        def counting_gradient(model):
            counts["gradients"] += 1
            return real_gradient(model)

        monkeypatch.setattr(gp_module, "triangular_inverse", counting_inverse)
        monkeypatch.setattr(gp_module, "fit_covariance", counting_fit)
        monkeypatch.setitem(gp_module._GRADIENT_WEIGHTS, "sse", counting_gradient)
        hp = gp_optimize_hyperparams(x, y, hp0, objective="sse")
        assert counts["fits"] > 2 and counts["gradients"] > 1
        assert callers == ["fit_covariance"] * counts["fits"]
        model = gp_module.gp_fit(hp, x, y)
        for read in (gp_loo_sse, gp_nlml, *gp_module._GRADIENT_WEIGHTS.values()):
            read(model)
        gp_predict(model, x)
        assert len(callers) == counts["fits"]

    @pytest.mark.parametrize("objective", ["nlml", "sse"])
    def test_differences_once_and_no_kernel_matrix_per_search(self, monkeypatch, objective):
        # D is formed once per search; every K of the search is built from it
        hp0, x, y = fixture_fit("pcbc_run2.csv")
        counts = {"differences": 0, "kernels": 0}
        real_differences, real_kernel = gp_module._squared_differences, gp_module.kernel_matrix

        def counting_differences(*args):
            counts["differences"] += 1
            return real_differences(*args)

        def counting_kernel(*args):
            counts["kernels"] += 1
            return real_kernel(*args)

        monkeypatch.setattr(gp_module, "_squared_differences", counting_differences)
        monkeypatch.setattr(gp_module, "kernel_matrix", counting_kernel)
        gp_optimize_hyperparams(x, y, hp0, objective=objective)
        assert counts == {"differences": 1, "kernels": 0}

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_every_kernel_of_a_search_is_kernel_matrix(self, monkeypatch, name):
        hp0, x, y = fixture_fit(name)
        kernels = []
        real_fit = gp_module.fit_covariance

        def recording_fit(hp, x_fit, y_fit, cov):
            kernels.append((hp, cov.copy()))
            return real_fit(hp, x_fit, y_fit, cov)

        monkeypatch.setattr(gp_module, "fit_covariance", recording_fit)
        for objective in ("nlml", "sse"):
            gp_optimize_hyperparams(x, y, hp0, objective=objective)
        assert len(kernels) > 4
        for hp, cov in kernels:
            np.testing.assert_array_equal(cov, kernel_matrix(hp, x))

    @pytest.mark.parametrize("objective", ["nlml", "sse"])
    def test_no_training_rows_rejected(self, objective):
        hp0 = GpHyperParams(v=1.0, w=(1.0, 2.0))
        with pytest.raises(InvalidInput, match="at least one training point"):
            gp_optimize_hyperparams(np.empty((0, 2)), np.empty(0), hp0, objective=objective)
