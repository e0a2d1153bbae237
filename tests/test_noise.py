import math
import warnings

import numpy as np
import pytest

from uamnoise.errors import FitError, ValidationError
from uamnoise.noise import (COEFFICIENTS, CUMULATIVE_OFFSET_DB, NO_CONTRIBUTION, Condition,
                            NoiseSample, cumulative_increase, fit_npd, single_event_level,
                            zone_noise_report)


def level(c0, c1, c2, z):
    lz = math.log10(z)
    return c0 + c1 * lz + c2 * lz * lz


class TestSingleEventLevel:
    def test_centerline_1000ft(self):
        assert single_event_level(Condition.L_CENTERLINE, 1000.0) == pytest.approx(
            88.09 + 3.21 * 3 - 2.62 * 9, abs=1e-9)

    def test_centerline_3000ft(self):
        assert single_event_level(Condition.L_CENTERLINE, 3000.0) == pytest.approx(
            67.57, abs=0.01)

    def test_clamped_below_floor(self):
        assert single_event_level(Condition.L_CENTERLINE, 100.0) == \
            single_event_level(Condition.L_CENTERLINE, 200.0)

    def test_clamped_above_ceiling(self):
        assert single_event_level(Condition.A_SIDE, 50000.0) == \
            single_event_level(Condition.A_SIDE, 20000.0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValidationError):
            single_event_level(Condition.L_CENTERLINE, 0.0)

    def test_monotone_decreasing_all_conditions(self):
        # 1-ft grid over the fitted domain
        zs = np.arange(200.0, 20001.0)
        for cond in Condition:
            vals = [single_event_level(cond, z) for z in zs]
            diffs = np.diff(vals)
            assert np.all(diffs < 0.0), cond


class TestFitNpd:
    def test_exact_recovery_all_conditions(self):
        dists = [200, 500, 1000, 2000, 5000, 10000, 20000]
        for cond, (c0, c1, c2) in COEFFICIENTS.items():
            samples = [NoiseSample(z, level(c0, c1, c2, z)) for z in dists]
            r0, r1, r2, rms = fit_npd(samples)
            assert abs(r0 - c0) < 1e-6 and abs(r1 - c1) < 1e-6 and abs(r2 - c2) < 1e-6
            assert rms < 1e-9

    def test_three_points_interpolate_exactly(self):
        samples = [NoiseSample(z, level(90.0, -2.0, -0.5, z)) for z in (300, 900, 4000)]
        _, _, _, rms = fit_npd(samples)
        assert rms < 1e-9

    def test_noisy_fit_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(11)
        c0, c1, c2 = COEFFICIENTS[Condition.D_SIDE]
        dists = np.array([200, 350, 700, 1500, 3000, 6000, 12000, 20000], dtype=float)
        noise = rng.uniform(-0.5, 0.5, len(dists))
        samples = [NoiseSample(z, level(c0, c1, c2, z) + e) for z, e in zip(dists, noise)]
        got = np.array(fit_npd(samples)[:3])
        # independent oracle: explicit normal-equations solve
        lz = np.log10(dists)
        X = np.column_stack([np.ones_like(lz), lz, lz * lz])
        y = np.array([s.level_db for s in samples])
        expected = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(got, expected, atol=1e-8)

    def test_rank_deficient_rejected(self):
        samples = [NoiseSample(1000, 70.0), NoiseSample(1000, 71.0), NoiseSample(2000, 69.0)]
        with pytest.raises(FitError):
            fit_npd(samples)

    @pytest.mark.parametrize("big", [1e308, 1e200])
    def test_overflowing_fit_rejected_without_warning(self, big):
        samples = [NoiseSample(z, lv) for z, lv in ((200, 80.0), (1000, 70.0), (5000, big))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="level_db"):
                fit_npd(samples)


class TestCumulativeIncrease:
    def test_single_event(self):
        assert cumulative_increase([74.14], 40.0) == pytest.approx(-1.42, abs=1e-9)

    def test_two_identical_events(self):
        assert cumulative_increase([74.14, 74.14], 40.0) == pytest.approx(
            -1.42 + 10 * math.log10(2), abs=0.01)

    def test_empty_is_sentinel(self):
        assert cumulative_increase([], 37.0) == NO_CONTRIBUTION

    def test_duplication_law(self):
        for k in (2, 4, 10):
            single = cumulative_increase([71.3], 0.0)
            multi = cumulative_increase([71.3] * k, 0.0)
            assert multi - single == pytest.approx(10 * math.log10(k), abs=1e-9)

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(5)
        levels = list(rng.uniform(50, 90, 12))
        base = cumulative_increase(levels, 42.0)
        for _ in range(20):
            rng.shuffle(levels)
            assert cumulative_increase(levels, 42.0) == base

    def test_offset_subtracted(self):
        assert cumulative_increase([74.14], 40.0) == pytest.approx(
            34.14 - CUMULATIVE_OFFSET_DB, abs=1e-9)


class TestZoneNoiseReport:
    AMBIENTS = {"Z1": 40.0, "Z2": 40.0, "Z3": 55.0}

    def test_single_aircraft(self):
        rep = zone_noise_report(self.AMBIENTS, [("Z1", 1000.0)])
        assert rep["Z1"] == pytest.approx(-1.42, abs=0.01)
        assert rep["Z2"] == NO_CONTRIBUTION
        assert rep["Z3"] == NO_CONTRIBUTION

    def test_no_aircraft_all_sentinel(self):
        rep = zone_noise_report(self.AMBIENTS, [])
        assert all(v == NO_CONTRIBUTION for v in rep.values())

    def test_symmetric_zones(self):
        rep = zone_noise_report(self.AMBIENTS, [("Z1", 1800.0), ("Z2", 1800.0)])
        assert rep["Z1"] == rep["Z2"]

    def test_unknown_zone_rejected(self):
        with pytest.raises(ValidationError):
            zone_noise_report(self.AMBIENTS, [("Z9", 1000.0)])


class TestModelFile:
    def test_fit_round_trip_all_conditions(self):
        # synthesizing samples from stored coefficients reproduces them
        for cond, (c0, c1, c2) in COEFFICIENTS.items():
            samples = [NoiseSample(z, level(c0, c1, c2, z))
                       for z in (250, 600, 1200, 2500, 8000, 16000)]
            got = fit_npd(samples)[:3]
            assert np.allclose(got, (c0, c1, c2), atol=1e-6)
