import numpy as np
import pytest

from pabfit.errors import DegenerateFit, DimensionMismatch
from pabfit.metrics import (
    DegenerateFitWarning,
    compute_metrics,
    obs_pred_slope,
    r_squared,
    rmse,
)


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_hand_computed(self):
        # SS_res = 1, SS_tot = 2
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-15)

    def test_null_model_is_zero(self):
        obs = np.array([1.0, 2.0, 3.0])
        assert r_squared(obs, np.full(3, obs.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_constant_observations_warn(self):
        with pytest.warns(DegenerateFitWarning):
            assert r_squared([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_equal_observations_whose_mean_rounds_off_them_warn(self):
        # the mean of three 0.4s is 0.4000000000000001, so SS_tot is 9.2e-33
        with pytest.warns(DegenerateFitWarning):
            assert r_squared([0.4, 0.4, 0.4], [0.3, 0.4, 0.5]) == 0.0

    def test_can_be_negative(self):
        assert r_squared([1.0, 2.0, 3.0], [10.0, -10.0, 10.0]) < 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            o = rng.standard_normal(20)
            p = o + 0.3 * rng.standard_normal(20)
            lam = rng.uniform(0.1, 5.0)
            c = rng.uniform(-10, 10)
            base = r_squared(o, p)
            assert r_squared(lam * o + c, lam * p + c) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            r_squared([1.0, 2.0], [1.0])


class TestRmse:
    def test_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_computed(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)

    def test_single_pair(self):
        assert rmse([1.0], [2.0]) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        o = rng.standard_normal(15)
        p = rng.standard_normal(15)
        assert rmse(o, p) == rmse(p, o)


class TestObsPredSlope:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            o = rng.standard_normal(10)
            if np.dot(o, o) == 0:
                continue
            assert obs_pred_slope(o, o) == 1.0

    def test_exact_scaling(self):
        p = np.array([1.0, 2.0, 3.0])
        assert obs_pred_slope(2.0 * p, p) == 2.0

    def test_hand_computed_through_origin(self):
        # sum(o*p)/sum(p^2) = 6/8
        assert obs_pred_slope([1.0, 2.0], [2.0, 2.0]) == 0.75

    def test_zero_predictions_degenerate(self):
        with pytest.raises(DegenerateFit):
            obs_pred_slope([1.0, 2.0], [0.0, 0.0])


def test_compute_metrics_bundle():
    o = np.array([1.0, 2.0, 3.0])
    m = compute_metrics(o, o)
    assert (m.r2, m.rmse, m.obs_pred_slope, m.n) == (1.0, 0.0, 1.0, 3)


def test_compute_metrics_needs_two_pairs():
    with pytest.raises(DimensionMismatch, match="need at least 2 pairs, got 1"):
        compute_metrics([1.0], [1.0])
