import math
import re

import numpy as np
import pytest

from pabfit.domain import (
    MAX_THICKNESS_CM,
    MAX_TIME_MIN,
    Contaminant,
    ObservationSeries,
    Sample,
    log_time_norm,
    transform_time,
)
from pabfit.errors import InconsistentSample, InvalidInput, InvalidTime


def series_from_concentrations(times, concentrations, c0=50.0, **kwargs):
    samples = tuple(
        Sample(t_raw=t, concentration=c, thickness_w=3.0) for t, c in zip(times, concentrations)
    )
    return ObservationSeries(Contaminant.PB, "test", c0, samples, **kwargs)


class TestSeriesValidation:
    def test_requires_three_samples(self):
        with pytest.raises(InvalidInput):
            series_from_concentrations([10, 20], [40, 30])

    def test_requires_increasing_times(self):
        with pytest.raises(InvalidInput):
            series_from_concentrations([10, 30, 20], [40, 30, 20])

    def test_rejects_nonpositive_time(self):
        with pytest.raises(InvalidTime):
            series_from_concentrations([0, 10, 20], [40, 30, 20])

    # 1.0000001e9 and 1e160 lie past MAX_TIME_MIN
    @pytest.mark.parametrize("t", [1.0, math.nan, math.inf, 1.0000001e9, 1e160])
    def test_rejects_time_not_above_one_or_not_finite(self, t):
        with pytest.raises(InvalidTime, match="row 2: time"):
            series_from_concentrations([10, t, 30], [40, 30, 20])

    def test_time_at_its_bound_accepted(self):
        series = series_from_concentrations([10, 20, MAX_TIME_MIN], [40, 30, 20])
        assert series.times()[-1] == MAX_TIME_MIN

    def test_short_series_names_its_first_bad_row(self):
        with pytest.raises(InvalidTime, match="row 1"):
            series_from_concentrations([0.5, 10], [40, 30])

    def test_rejects_negative_concentration(self):
        with pytest.raises(InvalidInput):
            series_from_concentrations([10, 20, 30], [40, -1.0, 20])

    def test_sample_needs_some_response(self):
        with pytest.raises(InvalidInput):
            ObservationSeries(
                Contaminant.PB,
                "x",
                50.0,
                (Sample(10, thickness_w=1.0),) * 3,
            )

    def test_inconsistent_pair_rejected(self):
        bad = Sample(10, concentration=40.0, removal_fraction=0.5, thickness_w=1.0)
        ok = Sample(20, concentration=40.0, removal_fraction=0.2, thickness_w=1.0)
        with pytest.raises(InconsistentSample):
            ObservationSeries(
                Contaminant.PB,
                "x",
                50.0,
                (bad, ok, Sample(30, concentration=30.0, thickness_w=1.0)),
            )

    def test_thickness_filled_from_series_default(self):
        s = ObservationSeries(
            Contaminant.PB,
            "x",
            50.0,
            tuple(Sample(t, concentration=40.0) for t in (10, 20, 30)),
            barrier_thickness_cm=3.0,
        )
        assert all(sample.thickness_w == 3.0 for sample in s.samples)

    @pytest.mark.parametrize("thickness", [1e308, 1.0001e4, -1e-9, float("inf")])
    def test_thickness_outside_its_bound_rejected(self, thickness):
        samples = tuple(Sample(t, concentration=40.0, thickness_w=thickness) for t in (10, 20, 30))
        with pytest.raises(InvalidInput, match="row 1: thickness"):
            ObservationSeries(Contaminant.PB, "x", 50.0, samples)

    @pytest.mark.parametrize("thickness", [float("nan"), float("inf"), 1e5, -1e-9])
    def test_series_thickness_outside_its_bound_rejected(self, thickness):
        # checked even when every row carries its own thickness, since a
        # report records it
        samples = tuple(Sample(t, concentration=40.0, thickness_w=1.0) for t in (10, 20, 30))
        with pytest.raises(InvalidInput, match="barrier thickness must lie in"):
            ObservationSeries(Contaminant.PB, "x", 50.0, samples, thickness)

    def test_thickness_at_its_bound_accepted(self):
        samples = tuple(Sample(t, concentration=40.0) for t in (10, 20, 30))
        series = ObservationSeries(Contaminant.PB, "x", 50.0, samples, MAX_THICKNESS_CM)
        assert all(s.thickness_w == MAX_THICKNESS_CM for s in series.samples)

    def test_missing_thickness_everywhere_rejected(self):
        with pytest.raises(InvalidInput):
            ObservationSeries(
                Contaminant.PB,
                "x",
                50.0,
                tuple(Sample(t, concentration=40.0) for t in (10, 20, 30)),
            )


class TestRemovalFractions:
    def test_reference_removals(self):
        s = series_from_concentrations([10, 20, 3600], [20.0, 10.0, 6.53])
        removal = s.removal_fractions()
        assert removal[-1] == pytest.approx(0.8694, abs=1e-12)
        s = series_from_concentrations([10, 20, 3600], [20.0, 10.0, 8.94])
        assert s.removal_fractions().tolist() == pytest.approx([0.6, 0.8, 0.8212], abs=1e-12)

    def test_no_removal_at_c0(self):
        s = series_from_concentrations([10, 20, 30], [50.0, 50.0, 50.0])
        assert s.removal_fractions().tolist() == [0.0, 0.0, 0.0]

    def test_concentration_above_c0_rejected(self):
        with pytest.raises(InconsistentSample):
            series_from_concentrations([10, 20, 30], [50.001, 40.0, 30.0])

    def test_tiny_overshoot_clamped_to_zero(self):
        s = series_from_concentrations([10, 20, 30], [50.0 * (1 + 1e-12), 40.0, 30.0])
        assert s.removal_fractions()[0] == 0.0

    def test_roundtrip_fractions_bit_exact(self):
        rng = np.random.default_rng(2)
        fracs = rng.uniform(0, 1, 10)
        samples = tuple(
            Sample(t_raw=10.0 * (i + 1), removal_fraction=f, thickness_w=1.0)
            for i, f in enumerate(fracs)
        )
        s = ObservationSeries(Contaminant.METHYLENE_BLUE, "mb", 50.0, samples)
        assert s.removal_fractions().tolist() == fracs.tolist()


class TestTransformTime:
    def test_reference_times(self):
        tr = log_time_norm([10.0, 100.0, 3600.0])
        expected = [math.log(10) / math.log(3600), math.log(100) / math.log(3600), 1.0]
        np.testing.assert_allclose(tr.t_norm, expected, rtol=0, atol=1e-15)
        assert tr.t_norm[-1] == 1.0

    def test_exact_log_ratio(self):
        tr = log_time_norm([math.e, math.e**2])
        np.testing.assert_allclose(tr.t_norm, [0.5, 1.0], rtol=0, atol=1e-15)

    def test_single_time_maps_to_one(self):
        tr = log_time_norm([3600.0])
        assert tr.t_norm.tolist() == [1.0]

    def test_rejects_no_times(self):
        with pytest.raises(InvalidTime, match="one or more times"):
            log_time_norm([])

    def test_rejects_time_at_or_below_one(self):
        with pytest.raises(InvalidTime, match="row 1: time 1.0 min is <= 1"):
            log_time_norm([1.0, 10.0])

    @pytest.mark.parametrize("t", [math.nan, math.inf, 1e160])  # 1e160: past MAX_TIME_MIN
    def test_rejects_time_not_finite(self, t):
        # the series constructor's rule and message
        with pytest.raises(InvalidTime, match=re.escape(f"row 2: time {t} min is")):
            log_time_norm([10.0, t])

    @pytest.mark.parametrize(
        "times,message",
        [
            ([10.0, 5.0], r"row 2: .* strictly increasing \(5.0 after 10.0\)"),
            ([10.0, 10.0], r"row 2: .* strictly increasing \(10.0 after 10.0\)"),
            ([10.0, 60.0, 30.0], r"row 3: .* strictly increasing \(30.0 after 60.0\)"),
        ],
        ids=["decreasing", "repeated", "late-drop"],
    )
    def test_rejects_time_not_increasing(self, times, message):
        # the series constructor's rule and message
        with pytest.raises(InvalidInput, match=message):
            log_time_norm(times)

    def test_series_transform_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = np.sort(rng.uniform(1.001, 5000, size=12))
            t = np.unique(t)
            tr = log_time_norm(t)
            assert np.all(np.diff(tr.t_norm) > 0)
            assert tr.t_norm[-1] == 1.0

    def test_transform_of_series(self):
        s = series_from_concentrations([10, 100, 3600], [40, 30, 20])
        tr = transform_time(s)
        assert tr.denominator == pytest.approx(math.log(3600))
