import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.blas
import scipy.linalg.lapack
from scipy.linalg import solve_triangular

from pabfit import numeric
from pabfit.errors import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteObjective,
    NotPositiveDefinite,
)
from pabfit.numeric import (
    CholeskyFactor,
    cholesky,
    gradient_descent,
    levenberg_marquardt,
    multiply_lower,
    solve,
    triangular_inverse,
)

from oracles import finite_difference_gradient, lapack_cholesky


class TestCholesky:
    def test_identity_no_jitter(self):
        f = cholesky(np.eye(2))
        np.testing.assert_array_equal(f.lower, np.eye(2))
        assert f.jitter_used == 0.0

    def test_hand_expanded_2x2(self):
        # L*L^T for L=[[2,0],[1,sqrt(2)]] gives [[4,2],[2,3]]
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(f.lower, expected, rtol=0, atol=1e-15)

    def test_singular_from_zero_start_escalates(self):
        f = cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert f.jitter_used > 0.0
        rebuilt = f.lower @ f.lower.T - f.jitter_used * np.eye(2)
        np.testing.assert_allclose(rebuilt, [[1, 1], [1, 1]], atol=1e-7)

    def test_zero_pivot_left_positive_by_rounding_climbs_the_ladder(self):
        # inputs 0.13, 0.4, 0.13 repeat a row, so the last pivot is zero;
        # rounding leaves it at ~1e-8, which LAPACK accepts, but no solve
        # against that factor can be trusted
        x = np.array([0.13, 0.4, 0.13])
        m = 0.28 * np.exp(-((x[:, None] - x[None, :]) ** 2)) + 1e-20 * np.eye(3)
        assert lapack_cholesky(m)[2, 2] > 0.0
        f = cholesky(m)
        assert f.jitter_used > 0.0
        np.testing.assert_array_equal(f.lower, lapack_cholesky(m + f.jitter_used * np.eye(3)))

    def test_hopeless_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_escalated_jitter_bits_match_identity_shift(self):
        # the retry shifts the diagonal of a copy; the factor is the one
        # of m + jitter * I, bit for bit, and m itself is left untouched
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 3))
        m = a @ a.T  # rank 3, so the jitter-free attempt fails
        before = m.copy()
        f = cholesky(m)
        assert f.jitter_used > 0.0
        np.testing.assert_array_equal(m, before)
        expected = lapack_cholesky(m + f.jitter_used * np.eye(30))
        np.testing.assert_array_equal(f.lower, expected)

    def test_peak_memory_below_one_and_a_half_matrices(self):
        # the jitter-free attempt builds no n x n identity next to the factor
        n = 1000
        a = np.random.default_rng(9).standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
        tracemalloc.start()
        try:
            cholesky(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    def test_reconstruction_property_random_spd(self):
        # relative Frobenius error of L L^T vs M + jitter*I stays below 1e-8
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 65))
            a = rng.standard_normal((n, n))
            m = a @ a.T + n * np.eye(n)
            f = cholesky(m)
            rebuilt = f.lower @ f.lower.T
            target = m + f.jitter_used * np.eye(n)
            err = np.linalg.norm(rebuilt - target) / np.linalg.norm(target)
            assert err < 1e-8
            assert np.all(np.diag(f.lower) > 0)


class TestSolve:
    def test_identity(self):
        f = cholesky(np.eye(2))
        np.testing.assert_array_equal(solve(f, [3.0, 7.0]), [3.0, 7.0])

    def test_direct_inverse_oracle_2x2(self):
        # inverse of [[4,2],[2,3]] is [[3,-2],[-2,4]]/8, so x = [10,12]/8
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(solve(f, [8.0, 7.0]), [1.25, 1.5], rtol=1e-14)

    def test_diagonal_scaling(self):
        f = cholesky(np.diag([2.0, 2.0]))
        np.testing.assert_allclose(solve(f, [1.0, 1.0]), [0.5, 0.5], rtol=1e-15)

    def test_length_mismatch(self):
        f = cholesky(np.eye(3))
        with pytest.raises(DimensionMismatch):
            solve(f, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            solve(f, np.ones((2, 2)))

    def test_roundtrip_property(self):
        # solve(chol(M), M x) recovers x to 1e-6 relative error
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            a = rng.standard_normal((n, n))
            m = a @ a.T + n * np.eye(n)
            x = rng.standard_normal(n)
            got = solve(cholesky(m), m @ x)
            assert np.linalg.norm(got - x) <= 1e-6 * max(np.linalg.norm(x), 1e-30)

    def test_forward_then_back_solve_is_solve(self):
        rng = np.random.default_rng(12)
        for shape in ((9,), (9, 4)):
            a = rng.standard_normal((9, 9))
            f = cholesky(a @ a.T + 9 * np.eye(9))
            rhs = rng.standard_normal(shape)
            x = solve(f, rhs)
            np.testing.assert_allclose(f.lower @ (f.lower.T @ x), rhs, atol=1e-12)
            forward = solve_triangular(f.lower, rhs, lower=True)
            back = solve_triangular(f.lower.T, forward, lower=False)
            np.testing.assert_array_equal(back, x)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_peak_memory_one_right_hand_side(self, order):
        # the back solve overwrites the forward result in place of copying it
        n = 300
        rng = np.random.default_rng(13)
        a = rng.standard_normal((n, n))
        f = cholesky(a @ a.T + n * np.eye(n))
        rhs = np.asarray(rng.standard_normal((n, n)), order=order)
        tracemalloc.start()
        try:
            solve(f, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rhs.nbytes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_is_invalid_input(self, bad):
        f = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        for rhs in ([1.0, bad], [[1.0, 2.0], [bad, 0.0]]):
            with pytest.raises(InvalidInput, match="right-hand side"):
                solve(f, rhs)

    def test_zero_on_the_factor_diagonal_is_not_positive_definite(self):
        f = CholeskyFactor(lower=np.array([[1.0, 0.0], [2.0, 0.0]]), jitter_used=0.0)
        for rhs in ([1.0, 1.0], np.ones((2, 3))):
            with pytest.raises(NotPositiveDefinite, match="dtrtrs info=2"):
                solve(f, rhs)


class TestLapackLayouts:
    """Every LAPACK call equals scipy's public call in the same layout, bit for bit."""

    @pytest.mark.parametrize("n", [1, 5, 65, 500])
    def test_factor_solves_and_inverse(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
        f = cholesky(m)
        assert f.jitter_used == 0.0
        # C-ordered, so each call hands LAPACK a Fortran-ordered transpose
        assert f.lower.flags.c_contiguous
        np.testing.assert_array_equal(f.lower, lapack_cholesky(m))
        for rhs in (
            rng.standard_normal(n),
            rng.standard_normal((n, 3)),
            np.asfortranarray(rng.standard_normal((n, 3))),
        ):
            forward = solve_triangular(f.lower, rhs, lower=True)
            back = solve_triangular(f.lower.T, forward, lower=False)
            np.testing.assert_array_equal(solve(f, rhs), back)
        inverse_of_upper, info = scipy.linalg.lapack.dtrtri(f.lower.T, lower=0)
        assert info == 0
        np.testing.assert_array_equal(triangular_inverse(f), inverse_of_upper.T)
        rhs = np.asfortranarray(rng.standard_normal((n, 3)))
        product = scipy.linalg.blas.dtrmm(1.0, inverse_of_upper, rhs, lower=0, trans_a=1)
        np.testing.assert_array_equal(multiply_lower(triangular_inverse(f), rhs), product)

    def test_one_module_with_scipy_linalg(self):
        assert numeric._lapack() is sys.modules["scipy.linalg._flapack"]
        assert numeric._blas() is sys.modules["scipy.linalg._fblas"]

    HIDE_SCIPY = (
        "import importlib.util, sys, numpy as np\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find_spec(name, *a)\n"
        "from pabfit import numeric\n"
    )

    def test_missing_extension_falls_back_to_scipy_linalg_lapack(self, cli_env):
        # a scipy whose _flapack file cannot be found is served through its
        # public module: same results, slower start
        code = self.HIDE_SCIPY + (
            "lapack = numeric._lapack()\n"
            "f = numeric.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))\n"
            "print(lapack.__name__, numeric.solve(f, [8.0, 7.0]).tolist())\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        x = solve(cholesky(np.array([[4.0, 2.0], [2.0, 3.0]])), [8.0, 7.0])
        assert r.stdout == f"scipy.linalg.lapack {x.tolist()}\n"

    def test_missing_extension_falls_back_to_scipy_linalg_blas(self, cli_env):
        # the same for _fblas, asked for first: scipy.linalg.blas serves it
        code = self.HIDE_SCIPY + (
            "blas = numeric._blas()\n"
            "print(blas.__name__, numeric.multiply_lower(np.array([[2.0, 0.0], [1.0, 3.0]]), [1.0, 2.0]).tolist())\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "scipy.linalg.blas [2.0, 7.0]\n"


class TestTriangularInverse:
    def test_singular_factor_raises(self):
        f = CholeskyFactor(lower=np.array([[1.0, 0.0], [2.0, 0.0]]), jitter_used=0.0)
        with pytest.raises(NotPositiveDefinite, match="dtrtri info=2"):
            triangular_inverse(f)


class TestMultiplyLower:
    def factor(self, n=9, seed=14):
        a = np.random.default_rng(seed).standard_normal((n, n))
        return cholesky(a @ a.T + n * np.eye(n))

    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_inverse_times_rhs_is_forward_solve(self, layout):
        f = self.factor()
        rhs = np.random.default_rng(15).standard_normal((9,) if layout == "vector" else (9, 4))
        rhs = np.asfortranarray(rhs) if layout == "F" else rhs
        got = multiply_lower(triangular_inverse(f), rhs.copy(order="A"))
        assert got.shape == rhs.shape
        np.testing.assert_allclose(got, solve_triangular(f.lower, rhs, lower=True), rtol=1e-12, atol=1e-14)

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(16)
        full = rng.standard_normal((6, 6))
        rhs = rng.standard_normal((6, 3))
        np.testing.assert_allclose(multiply_lower(full, rhs), np.tril(full) @ rhs, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("order, in_place", [("F", True), ("C", False)])
    def test_overwrites_a_fortran_rhs_alone(self, order, in_place):
        linv = triangular_inverse(self.factor())
        rhs = np.asarray(np.random.default_rng(17).standard_normal((9, 5)), order=order)
        before = rhs.copy()
        got = multiply_lower(linv, rhs)
        np.testing.assert_allclose(got, linv @ before, rtol=1e-12, atol=1e-14)
        assert np.shares_memory(got, rhs) == in_place
        np.testing.assert_array_equal(rhs, got if in_place else before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_is_invalid_input(self, bad):
        linv = triangular_inverse(cholesky(np.array([[4.0, 2.0], [2.0, 3.0]])))
        for rhs in ([1.0, bad], [[1.0, 2.0], [bad, 0.0]]):
            with pytest.raises(InvalidInput, match="right-hand side"):
                multiply_lower(linv, rhs)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multiply_lower(np.eye(3), np.ones((2, 2)))


class TestGradientDescent:
    def test_scalar_quadratic(self):
        res = gradient_descent(lambda x: (x[0] - 2.0) ** 2, lambda x: 2.0 * (x - 2.0), [0.0])
        assert abs(res.x[0] - 2.0) < 1e-4
        assert res.converged

    def test_anisotropic_bowl(self):
        res = gradient_descent(
            lambda x: x[0] ** 2 + 10.0 * x[1] ** 2,
            lambda x: np.array([2.0 * x[0], 20.0 * x[1]]),
            [1.0, 1.0],
        )
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-4)

    def test_unbounded_descent_stops_at_the_cap(self):
        # every step lowers -x by more than the tolerance, so only the
        # 200-iteration cap ends the descent
        res = gradient_descent(lambda x: -x[0], lambda x: np.array([-1.0]), [0.0])
        assert res.iterations == 200
        assert not res.converged
        assert res.fun < 0.0

    def test_never_increases_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            center = rng.standard_normal(dim)
            scale = rng.uniform(0.5, 5.0, dim)

            def f(x):
                return float(np.sum(scale * (x - center) ** 2))

            def grad(x):
                return 2.0 * scale * (x - center)

            x0 = rng.standard_normal(dim) * 3
            res = gradient_descent(f, grad, x0)
            assert res.fun <= f(x0)

    def test_non_finite_start_raises(self):
        with pytest.raises(NonFiniteObjective):
            gradient_descent(lambda x: float("nan"), lambda x: np.zeros(1), [0.0])

    def test_nan_during_descent_raises(self):
        def trap(x):
            return float("nan") if x[0] < 0.5 else (x[0] - 0.4) ** 2

        with pytest.raises(NonFiniteObjective):
            gradient_descent(trap, lambda x: 2.0 * (x - 0.4), [0.6])

    def test_non_finite_gradient_raises(self):
        # the analytic gradient keeps the contract the finite differences
        # enforced: a non-finite derivative fails cleanly, not as a NaN step
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(NonFiniteObjective, match="gradient"):
                gradient_descent(
                    lambda x: float(np.sum(x**2)),
                    lambda x, bad=bad: np.array([1.0, bad]),
                    [0.5, 0.5],
                )

    def test_zero_gradient_converges_immediately(self):
        res = gradient_descent(lambda x: 1.0, lambda x: np.zeros(2), [0.3, -0.2])
        assert res.converged
        assert res.fun == 1.0


class TestFiniteDifferenceGradient:
    def test_matches_analytic_quadratic(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((3, 3))
        q = q @ q.T + np.eye(3)
        b = rng.standard_normal(3)

        def f(x):
            return float(0.5 * x @ q @ x + b @ x)

        for _ in range(10):
            x = rng.standard_normal(3) * 2
            analytic = q @ x + b
            numeric = finite_difference_gradient(f, x)
            np.testing.assert_allclose(numeric, analytic, rtol=1e-4, atol=1e-8)


def exp_decay_problem(truth=(2.0, -1.5), n=12):
    """Residuals y - A e^{k t} of noiseless data, with their Jacobian in (A, k)."""
    t = np.linspace(0.0, 2.0, n)
    y = truth[0] * np.exp(truth[1] * t)

    def residual_jacobian(x):
        e = np.exp(x[1] * t)
        return x[0] * e - y, np.column_stack([e, x[0] * t * e])

    return residual_jacobian


def rosenbrock_residuals(x):
    return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)]), np.array(
        [[-1.0, 0.0], [-20.0 * x[0], 10.0]]
    )


class TestLevenbergMarquardt:
    def test_recovers_an_exact_fit(self):
        res = levenberg_marquardt(exp_decay_problem(), [1.0, 0.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [2.0, -1.5], rtol=1e-10)
        assert res.fun < 1e-20

    def test_rosenbrock_reaches_its_minimum(self):
        res = levenberg_marquardt(rosenbrock_residuals, [-1.2, 1.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_never_ends_above_its_start(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(30):
            x0 = rng.uniform(-3.0, 3.0, 2)
            residual_jacobian = (
                rosenbrock_residuals if rng.random() < 0.5
                else exp_decay_problem(tuple(rng.uniform(-2.0, 2.0, 2)))
            )
            r0, _ = residual_jacobian(x0)
            monkeypatch.setattr(numeric, "_LM_MAX_ITERS", int(rng.integers(1, 6)))
            # far trial points may overflow; they are rejected like any increase
            with np.errstate(over="ignore", invalid="ignore"):
                res = levenberg_marquardt(residual_jacobian, x0)
            assert res.fun <= float(r0 @ r0)
            r_end, _ = residual_jacobian(res.x)
            assert res.fun == float(r_end @ r_end)

    def test_respects_the_iteration_cap(self, monkeypatch):
        for cap in (1, 2, 3):
            monkeypatch.setattr(numeric, "_LM_MAX_ITERS", cap)
            res = levenberg_marquardt(rosenbrock_residuals, [-1.2, 1.0])
            assert res.iterations == cap
            assert not res.converged

    def test_a_run_that_only_drifts_stops_not_converged(self, monkeypatch):
        def valley(x):  # 1 + x0^2 along x0 * x1 = 1: the infimum 1 lies at x1 -> inf
            r = np.array([x[0] * x[1] - 1.0, x[0], 1.0])
            return r, np.array([[x[1], x[0]], [1.0, 0.0], [0.0, 0.0]])

        res = levenberg_marquardt(valley, [1.0, 1.0])
        assert not res.converged
        assert res.iterations <= 200
        assert 1.0 < res.fun < 1.0 + 1e-4
        # without the stall rule the run creeps on past 1000 iterations
        monkeypatch.setattr(numeric, "_LM_STALL_ITERS", numeric._LM_MAX_ITERS)
        monkeypatch.setattr(numeric, "_LM_MAX_ITERS", 1000)
        assert levenberg_marquardt(valley, [1.0, 1.0]).iterations == 1000

    def test_nan_residual_raises(self):
        with pytest.raises(NonFiniteObjective):
            levenberg_marquardt(lambda x: (np.array([np.nan]), np.ones((1, 1))), [0.0])

    def test_nan_trial_is_rejected(self):
        def edge(x):  # e^x - 2, NaN past x = 1.5, where the undamped step from -3 lands
            e = math.exp(x[0])
            value = np.nan if x[0] > 1.5 else e - 2.0
            return np.array([value]), np.array([[e]])

        res = levenberg_marquardt(edge, [-3.0])
        assert res.converged
        assert res.x[0] == pytest.approx(math.log(2.0), rel=1e-10)
        assert res.fun < 1e-20

    def test_infinite_jacobian_raises(self):
        with pytest.raises(NonFiniteObjective, match="Jacobian not finite at iteration 1"):
            levenberg_marquardt(lambda x: (np.array([x[0] - 1.0]), np.array([[np.inf]])), [0.0])

    def test_infinite_trial_is_rejected(self):
        def wall(x):  # the undamped step from 3 lands at 1, behind an overflow
            value = np.inf if x[0] < 1.5 else x[0] - 1.0
            return np.array([value]), np.ones((1, 1))

        res = levenberg_marquardt(wall, [3.0])
        assert math.isfinite(res.fun)
        assert res.fun < 4.0
        assert res.x[0] >= 1.5

    def test_singular_damped_solve_raises_the_damping(self, monkeypatch):
        clean = levenberg_marquardt(rosenbrock_residuals, [-1.2, 1.0])
        real_solve, faults = np.linalg.solve, []

        def solve_failing_once(*args):
            if not faults:
                faults.append(args)
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(*args)

        monkeypatch.setattr(np.linalg, "solve", solve_failing_once)
        res = levenberg_marquardt(rosenbrock_residuals, [-1.2, 1.0])
        assert len(faults) == 1
        assert res.converged
        np.testing.assert_allclose(res.x, clean.x, atol=1e-8)

    def test_flat_valley_converges(self):
        # one residual in two parameters: J^T J has rank 1 everywhere
        def valley(x):
            return np.array([x[0] * x[1] - 2.0]), np.array([[x[1], x[0]]])

        res = levenberg_marquardt(valley, [1.0, 1.0])
        assert res.converged
        assert res.fun < 1e-20
