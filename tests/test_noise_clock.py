"""Tests for the noise model and cycle clock."""

import numpy as np
import pytest

from repro.gpusim.clock import CycleClock, TimedEvent
from repro.gpusim.noise import NoiseModel
from repro.gpuspec.spec import NoiseSpec


def make_noise(seed=0, **kwargs) -> NoiseModel:
    spec = NoiseSpec(**kwargs) if kwargs else NoiseSpec()
    return NoiseModel(spec, np.random.default_rng(seed))


class TestNoiseModel:
    def test_constant_overhead_added(self):
        nm = make_noise(measurement_overhead=6.0, jitter_sigma=0.0, outlier_probability=0.0)
        out = nm.perturb(np.full(100, 30.0))
        assert np.allclose(out, 36.0)

    def test_overhead_constant_across_levels(self):
        # Paper footnote 7: constant overhead affects neither the K-S test
        # nor the tendencies — differences between levels are preserved.
        nm = make_noise(jitter_sigma=0.0, outlier_probability=0.0)
        fast = nm.perturb(np.full(10, 30.0))
        slow = nm.perturb(np.full(10, 200.0))
        assert np.allclose(slow - fast, 170.0)

    def test_jitter_spread(self):
        nm = make_noise(jitter_sigma=2.0, outlier_probability=0.0)
        out = nm.perturb(np.full(4000, 100.0))
        assert 1.5 < out.std() < 2.5

    def test_outliers_appear_at_rate(self):
        nm = make_noise(
            jitter_sigma=0.0, outlier_probability=0.01, outlier_magnitude=500.0
        )
        out = nm.perturb(np.full(20000, 50.0))
        spikes = (out > 200).sum()
        assert 100 < spikes < 400  # ~200 expected

    def test_latencies_never_below_one(self):
        nm = make_noise(jitter_sigma=50.0)
        out = nm.perturb(np.full(1000, 2.0))
        assert (out >= 1.0).all()

    def test_deterministic_per_seed(self):
        a = make_noise(seed=5).perturb(np.arange(100.0))
        b = make_noise(seed=5).perturb(np.arange(100.0))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_noise(seed=1).perturb(np.full(50, 100.0))
        b = make_noise(seed=2).perturb(np.full(50, 100.0))
        assert not np.array_equal(a, b)

    def test_contention_inflates(self):
        spec = NoiseSpec(jitter_sigma=0.0, outlier_probability=0.0)
        quiet = NoiseModel(spec, np.random.default_rng(3), contention_factor=0.0)
        busy = NoiseModel(spec, np.random.default_rng(3), contention_factor=2.0)
        base = np.full(5000, 100.0)
        assert busy.perturb(base).mean() > quiet.perturb(base).mean() * 1.02

    def test_contention_negative_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(NoiseSpec(), np.random.default_rng(0), contention_factor=-1.0)

    def test_single_sample_gets_overhead_only(self):
        nm = make_noise(jitter_sigma=0.0, outlier_probability=0.0)
        assert nm.perturb(np.array([10.0]))[0] == pytest.approx(16.0)


class TestCycleClock:
    def test_advance_and_elapsed(self):
        clock = CycleClock(1e9)
        clock.advance(2e9)
        assert clock.elapsed_seconds() == pytest.approx(2.0)

    def test_advance_seconds(self):
        clock = CycleClock(2e9)
        clock.advance_seconds(1.5)
        assert clock.cycles == pytest.approx(3e9)

    def test_backwards_rejected(self):
        with pytest.raises(ValueError):
            CycleClock(1e9).advance(-1)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            CycleClock(0)

    def test_event_timing(self):
        clock = CycleClock(1e9)
        event = clock.event()
        clock.advance(5e8)
        elapsed = clock.stop(event)
        assert elapsed == pytest.approx(0.5)

    def test_event_misuse(self):
        ev = TimedEvent(start_cycle=10.0, end_cycle=5.0)
        with pytest.raises(ValueError):
            ev.elapsed_cycles()
