"""Tests for the two-sample Kolmogorov-Smirnov implementation (Eq. 1)."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.kstest import ks_2sample, ks_critical_value, ks_distance, ks_pvalue


class TestDistance:
    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ks_distance(x, x) == 0.0

    def test_disjoint_samples(self):
        assert ks_distance(np.array([1.0, 2.0]), np.array([10.0, 11.0])) == 1.0

    def test_half_overlap(self):
        d = ks_distance(np.array([1.0, 2.0, 3.0, 4.0]), np.array([3.0, 4.0, 5.0, 6.0]))
        assert d == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), np.array([1.0]))

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, st.integers(3, 40), elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, st.integers(3, 40), elements=st.floats(-1e6, 1e6)),
    )
    def test_matches_scipy(self, x, y):
        ours = ks_distance(x, y)
        scipys = scipy.stats.ks_2samp(x, y).statistic
        assert ours == pytest.approx(scipys, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(np.float64, st.integers(3, 30), elements=st.floats(-1e3, 1e3)),
        arrays(np.float64, st.integers(3, 30), elements=st.floats(-1e3, 1e3)),
    )
    def test_symmetry_and_range(self, x, y):
        d = ks_distance(x, y)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(ks_distance(y, x))


class TestCriticalValue:
    def test_paper_formula(self):
        # d_alpha = sqrt(-1/2 * (n+m)/(n*m) * ln(alpha/2))
        n, m, alpha = 100, 150, 0.05
        expected = math.sqrt(-0.5 * (n + m) / (n * m) * math.log(alpha / 2))
        assert ks_critical_value(n, m, alpha) == pytest.approx(expected)

    def test_stricter_alpha_larger_threshold(self):
        assert ks_critical_value(50, 50, 0.001) > ks_critical_value(50, 50, 0.05)

    def test_more_samples_smaller_threshold(self):
        assert ks_critical_value(200, 200, 0.05) < ks_critical_value(20, 20, 0.05)

    @pytest.mark.parametrize("n,m,alpha", [(0, 5, 0.05), (5, 0, 0.05), (5, 5, 0.0), (5, 5, 1.0)])
    def test_invalid(self, n, m, alpha):
        with pytest.raises(ValueError):
            ks_critical_value(n, m, alpha)


class TestPValue:
    def test_inverse_of_critical_value(self):
        # p(d_alpha) == alpha by construction.
        n, m, alpha = 80, 120, 0.01
        d = ks_critical_value(n, m, alpha)
        assert ks_pvalue(d, n, m) == pytest.approx(alpha)

    def test_monotone_in_distance(self):
        assert ks_pvalue(0.8, 50, 50) < ks_pvalue(0.2, 50, 50)

    def test_clipped_to_unit_interval(self):
        assert ks_pvalue(0.0, 5, 5) == 1.0
        assert 0.0 <= ks_pvalue(1.0, 500, 500) <= 1.0


class TestTwoSample:
    def test_separated_distributions_reject(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 200)
        y = rng.normal(6, 1, 200)
        res = ks_2sample(x, y, alpha=0.01)
        assert res.distance > res.critical_value
        assert res.confidence > 0.99

    def test_same_distribution_accepts(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 200)
        y = rng.normal(0, 1, 200)
        res = ks_2sample(x, y, alpha=0.01)
        assert res.distance <= res.critical_value

    def test_result_fields(self):
        res = ks_2sample(np.arange(10.0), np.arange(10.0) + 100)
        assert res.n == 10 and res.m == 10
        assert res.distance == 1.0
        assert res.distance > res.critical_value
