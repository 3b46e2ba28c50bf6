import math
import warnings

import numpy as np
import pytest

from pabfit.dataio import DEFAULT_SCHEDULE, load_fixture
from pabfit.domain import Contaminant, ObservationSeries, Sample
from pabfit.errors import DegenerateFit, NonPositiveConcentration
from pabfit.kinetics import KineticFitResult, fit_first_order, predict_first_order
from pabfit.metrics import DegenerateFitWarning

from oracles import kinetic_r2


def decay_series(k, c0, times=DEFAULT_SCHEDULE):
    samples = tuple(
        Sample(t_raw=t, concentration=c0 * math.exp(k * t), thickness_w=3.0) for t in times
    )
    return ObservationSeries(Contaminant.PB, "gen", c0, samples)


class TestFitFirstOrder:
    def test_noiseless_log_linear_recovery(self):
        s = decay_series(-0.0006, 50.0)
        fit = fit_first_order(s)
        assert fit.k == pytest.approx(-0.0006, abs=1e-12)
        assert fit.ln_c0_fit == pytest.approx(math.log(50.0), abs=1e-12)
        assert kinetic_r2(s, fit) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_degenerate(self):
        samples = tuple(Sample(t, concentration=50.0, thickness_w=3.0) for t in (10, 20, 30))
        s = ObservationSeries(Contaminant.PB, "flat", 50.0, samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fit warns nothing; its R^2 below does
            fit = fit_first_order(s)
        assert fit.k == 0.0
        with pytest.warns(DegenerateFitWarning):
            assert kinetic_r2(s, fit) == 0.0
        assert fit.degenerate

    def test_constant_series_whose_log_mean_rounds_off_is_degenerate(self):
        # five equal ln(45.0) values have a mean one ulp off them, so their
        # centred sum of squares is not 0
        samples = tuple(Sample(t, concentration=45.0, thickness_w=3.0) for t in (10, 20, 30, 40, 50))
        fit = fit_first_order(ObservationSeries(Contaminant.PB, "flat", 50.0, samples))
        assert fit.k == 0.0
        assert fit.degenerate

    def test_bundled_pcbc_run1(self):
        s = load_fixture("pcbc_run1.csv")
        fit = fit_first_order(s)
        assert round(fit.k, 4) == -0.0006
        assert kinetic_r2(s, fit) >= 0.95

    def test_nonpositive_concentration_rejected(self):
        samples = (
            Sample(10, concentration=50.0, thickness_w=3.0),
            Sample(20, concentration=0.0, thickness_w=3.0),
            Sample(30, concentration=10.0, thickness_w=3.0),
        )
        s = ObservationSeries(Contaminant.PB, "zero", 50.0, samples)
        with pytest.raises(NonPositiveConcentration):
            fit_first_order(s)

    def test_identical_times_degenerate(self):
        # the series type forbids duplicate times, so bypass construction
        # to exercise the defensive guard in the fitter
        s = object.__new__(ObservationSeries)
        object.__setattr__(s, "contaminant", Contaminant.PB)
        object.__setattr__(s, "run_label", "dup")
        object.__setattr__(s, "c0", 50.0)
        object.__setattr__(
            s,
            "samples",
            tuple(Sample(10.0, concentration=30.0, thickness_w=3.0) for _ in range(3)),
        )
        object.__setattr__(s, "barrier_thickness_cm", None)
        with pytest.raises(DegenerateFit):
            fit_first_order(s)

    def test_noiseless_recovery_property(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            k = -(10.0 ** rng.uniform(-5, -2))
            c0 = rng.uniform(1, 100)
            s = decay_series(k, c0)
            fit = fit_first_order(s)
            assert abs(fit.k - k) < 1e-10
            assert abs(kinetic_r2(s, fit) - 1.0) < 1e-12

    def test_scale_equivariance(self):
        s = decay_series(-0.0008, 50.0)
        lam = 3.7
        scaled = ObservationSeries(
            Contaminant.PB,
            "scaled",
            50.0 * lam,
            tuple(
                Sample(x.t_raw, concentration=lam * x.concentration, thickness_w=3.0)
                for x in s.samples
            ),
        )
        base = fit_first_order(s)
        other = fit_first_order(scaled)
        assert other.k == pytest.approx(base.k, abs=1e-10)
        assert other.ln_c0_fit == pytest.approx(base.ln_c0_fit + math.log(lam), abs=1e-10)

    def test_time_shift_invariance(self):
        s = decay_series(-0.0008, 50.0)
        delta = 500.0
        shifted = ObservationSeries(
            Contaminant.PB,
            "shifted",
            50.0,
            tuple(
                Sample(x.t_raw + delta, concentration=x.concentration, thickness_w=3.0)
                for x in s.samples
            ),
        )
        assert fit_first_order(shifted).k == pytest.approx(fit_first_order(s).k, abs=1e-10)

    def test_r2_matches_two_pass_oracle(self):
        rng = np.random.default_rng(13)
        t = np.asarray(DEFAULT_SCHEDULE)
        c = 50.0 * np.exp(-0.0006 * t) * np.exp(0.05 * rng.standard_normal(t.size))
        samples = tuple(Sample(ti, concentration=ci, thickness_w=3.0) for ti, ci in zip(t, c))
        # the noise lifts early samples above 50 mg/L; a c0 of 100 admits
        # them, and the fit never reads c0
        s = ObservationSeries(Contaminant.PB, "noisy", 100.0, samples)
        fit = fit_first_order(s)
        y = np.log(c)
        pred = fit.k * t + fit.ln_c0_fit
        ss_res = np.sum((y - pred) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert kinetic_r2(s, fit) == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)


class TestPredictFirstOrder:
    def test_intercept_recovery(self):
        fit = KineticFitResult(k=-0.0006, ln_c0_fit=math.log(50.0), n_points=3)
        assert float(predict_first_order(fit, 0.0)) == pytest.approx(50.0, rel=1e-15)

    def test_reference_time(self):
        fit = KineticFitResult(k=-0.0006, ln_c0_fit=math.log(50.0), n_points=3)
        assert float(predict_first_order(fit, 3600.0)) == pytest.approx(
            50.0 * math.exp(-2.16), rel=1e-12
        )

    def test_zero_rate_constant(self):
        fit = KineticFitResult(k=0.0, ln_c0_fit=math.log(50.0), n_points=3)
        for t in (0.0, 100.0, 1e6):
            assert float(predict_first_order(fit, t)) == pytest.approx(50.0, rel=1e-15)

    def test_vectorized(self):
        fit = KineticFitResult(k=-0.001, ln_c0_fit=math.log(50.0), n_points=3)
        out = predict_first_order(fit, [0.0, 100.0])
        assert out.shape == (2,)
