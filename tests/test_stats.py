"""Tests for reduction (Eq. 2), change-point detection, outlier handling
and descriptive statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats.changepoint import detect_change_point
from repro.stats.descriptive import summarize
from repro.stats.outliers import (
    find_outliers,
    near_interval_edge,
    scrub_outliers,
    scrub_outliers_matrix,
)
from repro.stats.reduction import geometric_reduction, reduce_matrix_rows


class TestGeometricReduction:
    def test_paper_equation(self):
        # S_i = sqrt(sum_j (r_ij - min(r))^2) with the GLOBAL minimum.
        m = np.array([[1.0, 2.0], [3.0, 5.0]])
        out = geometric_reduction(m)
        assert out[0] == pytest.approx(np.sqrt(0 + 1))
        assert out[1] == pytest.approx(np.sqrt(4 + 16))

    def test_explicit_floor(self):
        m = np.array([[10.0, 10.0]])
        assert geometric_reduction(m, global_min=0.0)[0] == pytest.approx(
            np.sqrt(200.0)
        )

    def test_uniform_matrix_reduces_to_zero(self):
        m = np.full((4, 16), 42.0)
        assert np.allclose(geometric_reduction(m), 0.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            geometric_reduction(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            geometric_reduction(np.empty((0, 0)))

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 10), st.integers(2, 30)),
            elements=st.floats(0, 1e6),
        )
    )
    def test_nonnegative_and_monotone_in_misses(self, m):
        out = geometric_reduction(m)
        assert (out >= 0).all()
        # Adding a large value to one row strictly increases its score.
        bumped = m.copy()
        bumped[0, 0] += 1e7
        out2 = geometric_reduction(bumped, global_min=float(m.min()))
        assert out2[0] > out[0]

    def test_ragged_rows(self):
        rows = [np.array([1.0, 1.0, 1.0]), np.array([5.0, 5.0])]
        out = reduce_matrix_rows(rows)
        assert out[1] > out[0]

    def test_ragged_rejects_empty(self):
        with pytest.raises(ValueError):
            reduce_matrix_rows([])
        with pytest.raises(ValueError):
            reduce_matrix_rows([np.array([])])

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 20)),
            elements=st.floats(0, 1e6),
        )
    )
    def test_uniform_batched_path_matches_scalar_loop(self, m):
        """The vectorised uniform-length fast path == the per-row formula."""
        rows = list(m)
        out = reduce_matrix_rows(rows)
        floor = float(m.min())
        for i, row in enumerate(rows):
            d = row - floor
            expected = np.sqrt(float(d @ d) / row.size) * np.sqrt(m.shape[1])
            assert out[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestChangePoint:
    def test_clean_step(self):
        series = np.concatenate([np.zeros(30), np.ones(30) * 10])
        cp = detect_change_point(series)
        assert cp is not None
        assert cp.index == 30
        assert cp.significant
        assert cp.confidence > 0.99

    def test_ramp_onset_detected(self):
        # Past a capacity boundary the reduction RAMPS concavely (energy
        # grows with the square root of the miss count); the change point
        # must land at the onset, not mid-ramp (size-benchmark accuracy).
        rng = np.random.default_rng(3)
        noise = rng.normal(0, 0.05, 40)
        ramp = 30.0 * np.sqrt(np.arange(1, 41) / 40.0)
        series = np.concatenate([noise, ramp + rng.normal(0, 0.05, 40)])
        cp = detect_change_point(series)
        assert cp is not None
        assert 38 <= cp.index <= 42
        assert cp.significant

    def test_pure_noise_not_significant(self):
        rng = np.random.default_rng(7)
        series = rng.normal(0, 1, 120)
        cp = detect_change_point(series, alpha=0.001)
        assert cp is None or not cp.significant

    def test_short_series_returns_none(self):
        assert detect_change_point(np.array([1.0, 2.0, 3.0])) is None

    def test_index_is_first_of_new_distribution(self):
        series = np.array([0.0] * 10 + [5.0] * 10)
        cp = detect_change_point(series)
        assert cp.index == 10
        assert series[cp.index] == 5.0

    @settings(max_examples=40, deadline=None)
    @given(
        split=st.integers(min_value=8, max_value=52),
        gap=st.floats(min_value=5.0, max_value=100.0),
    )
    def test_property_step_recovery(self, split, gap):
        rng = np.random.default_rng(split)
        series = np.concatenate(
            [rng.normal(0, 0.3, split), rng.normal(gap, 0.3, 60 - split)]
        )
        cp = detect_change_point(series)
        assert cp is not None and cp.significant
        assert abs(cp.index - split) <= 1


class TestOutliers:
    def test_isolated_spike_found(self):
        series = np.ones(50)
        series[20] = 100.0
        mask = find_outliers(series)
        assert mask[20]
        assert mask.sum() == 1

    def test_level_shift_not_flagged(self):
        # A genuine cliff is a contiguous run — not an isolated spike.
        series = np.concatenate([np.ones(25), np.ones(25) * 100])
        assert not find_outliers(series).any()

    def test_scrub_replaces_with_local_median(self):
        series = np.ones(30)
        series[10] = 500.0
        out = scrub_outliers(series)
        assert out[10] == pytest.approx(1.0)
        assert (out[:10] == 1.0).all()

    def test_scrub_returns_copy(self):
        series = np.ones(30)
        series[5] = 400.0
        scrub_outliers(series)
        assert series[5] == 400.0

    def test_short_series_no_outliers(self):
        assert not find_outliers(np.array([1.0, 99.0])).any()

    def test_series_shorter_than_five_never_flags(self):
        # below 5 points median/MAD is meaningless; even a blatant spike
        # must not be flagged (and scrubbing must be the identity)
        series = np.array([1.0, 1.0, 500.0, 1.0])
        assert not find_outliers(series).any()
        assert (scrub_outliers(series) == series).all()

    def test_adjacent_spikes_are_not_isolated(self):
        # two hot neighbours are a level feature (a cache cliff), not a
        # disturbance: neither may be flagged or scrubbed
        series = np.ones(50)
        series[20] = 100.0
        series[21] = 100.0
        assert not find_outliers(series).any()
        assert (scrub_outliers(series) == series).all()

    def test_adjacent_spike_pair_with_isolated_spike(self):
        # the isolated spike is flagged, the adjacent pair survives
        series = np.ones(60)
        series[10] = 100.0  # isolated
        series[30] = 100.0  # adjacent pair
        series[31] = 100.0
        mask = find_outliers(series)
        assert mask[10] and not mask[30] and not mask[31]
        assert mask.sum() == 1

    def test_constant_series(self):
        assert not find_outliers(np.full(20, 7.0)).any()

    @pytest.mark.parametrize(
        "index,length,expected",
        [(0, 100, True), (99, 100, True), (50, 100, False), (4, 100, True), (95, 100, True)],
    )
    def test_near_edge(self, index, length, expected):
        assert near_interval_edge(index, length) is expected

    def test_near_edge_validation(self):
        with pytest.raises(ValueError):
            near_interval_edge(5, 0)
        with pytest.raises(ValueError):
            near_interval_edge(100, 100)

    def test_short_sweep_is_all_edge(self):
        # the minimum 2-index margin covers a <=4 point sweep entirely:
        # every change point there means "widen the interval"
        for length in (1, 2, 3, 4):
            assert all(
                near_interval_edge(i, length) for i in range(length)
            ), f"length {length}"

    def test_five_point_sweep_has_one_interior_index(self):
        assert [near_interval_edge(i, 5) for i in range(5)] == [
            True, True, False, True, True,
        ]


class TestDescriptive:
    def test_summary_fields(self):
        lat = np.array([10.0, 20.0, 30.0, 40.0, 100.0])
        s = summarize(lat)
        assert s.mean == pytest.approx(40.0)
        assert s.p50 == pytest.approx(30.0)
        assert s.minimum == 10.0 and s.maximum == 100.0
        assert s.count == 5

    def test_p95_tracks_tail(self):
        lat = np.concatenate([np.full(95, 10.0), np.full(5, 1000.0)])
        assert summarize(lat).p95 >= 10.0

    def test_single_sample(self):
        s = summarize(np.array([42.0]))
        assert s.std == 0.0 and s.mean == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))

    def test_as_dict_roundtrip(self):
        d = summarize(np.array([1.0, 2.0, 3.0])).as_dict()
        assert set(d) == {"mean", "p50", "p95", "std", "min", "max", "count"}


class TestScrubOutliersMatrix:
    """The batched row-wise scrub is exactly the per-row scrub."""

    @settings(max_examples=80, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 10), st.integers(1, 40)),
            elements=st.floats(0, 1e4),
        ),
        st.data(),
    )
    def test_matches_per_row_scrub(self, m, data):
        # Plant a few spikes so the replacement path is exercised.
        n_rows, n_cols = m.shape
        for _ in range(data.draw(st.integers(0, 4))):
            r = data.draw(st.integers(0, n_rows - 1))
            c = data.draw(st.integers(0, n_cols - 1))
            m[r, c] += 1e9
        got = scrub_outliers_matrix(m)
        expected = np.stack([scrub_outliers(row) for row in m])
        assert np.array_equal(got, expected)

    def test_matches_per_row_scrub_at_size_benchmark_threshold(self):
        rng = np.random.default_rng(0)
        m = rng.normal(100.0, 1.5, size=(48, 192))
        spikes = rng.integers(0, m.size, size=30)
        m.ravel()[spikes] += 400.0
        got = scrub_outliers_matrix(m, z_threshold=8.0)
        expected = np.stack([scrub_outliers(row, z_threshold=8.0) for row in m])
        assert np.array_equal(got, expected)
        assert not np.array_equal(got, m)  # some spike was actually scrubbed

    def test_returns_copy_and_rejects_bad_shapes(self):
        m = np.ones((3, 30))
        m[1, 7] = 1e6
        out = scrub_outliers_matrix(m)
        assert m[1, 7] == 1e6 and out[1, 7] == 1.0
        with pytest.raises(ValueError):
            scrub_outliers_matrix(np.ones(5))

    def test_short_rows_are_identity(self):
        m = np.array([[1.0, 1.0, 500.0, 1.0]])
        assert np.array_equal(scrub_outliers_matrix(m), m)

    @staticmethod
    def per_row(m, z, window):
        return np.stack([scrub_outliers(row, z_threshold=z, window=window) for row in m])

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(5, 80),
        st.integers(0, 5),
        st.sampled_from([2, 3]),
        st.integers(2, 6),
        st.sampled_from([3.0, 6.0, 8.0]),
        st.data(),
    )
    def test_spike_chains(self, n, window, gap, length, z, data):
        # Spikes 2 or 3 apart stay isolated, and each lies in the window of
        # the one before: its local median must see that replacement.
        row = np.asarray(data.draw(st.lists(st.floats(50, 150), min_size=n, max_size=n)))
        start = data.draw(st.integers(0, n - 1))
        row[start : start + gap * length : gap] += 1e9
        m = row[np.newaxis, :]
        assert np.array_equal(scrub_outliers_matrix(m, z, window), self.per_row(m, z, window))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(5, 60),
        st.integers(0, 5),
        st.sets(st.integers(0, 5), min_size=1),
        st.data(),
    )
    def test_spikes_at_the_row_edges(self, n, window, slots, data):
        # Indices 0-2 and n-3..n-1: the window is clipped by the row edge.
        row = np.asarray(data.draw(st.lists(st.floats(50, 150), min_size=n, max_size=n)))
        for s in slots:
            row[s if s < 3 else n - 6 + s] += 1e9
        m = row[np.newaxis, :]
        assert np.array_equal(scrub_outliers_matrix(m, 6.0, window), self.per_row(m, 6.0, window))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(5, 61),
        st.integers(0, 5),
        st.floats(1, 1e4),
        st.lists(st.tuples(st.integers(0, 60), st.floats(1e-3, 1.0)), max_size=8),
    )
    def test_rows_with_zero_mad(self, n, window, level, bumps):
        # More than half of a quantised row sits on its median: detection
        # falls back to a per-mille of the median.
        row = np.full(n, level)
        for idx, rel in bumps:
            row[idx % n] += level * rel
        m = row[np.newaxis, :]
        assert np.array_equal(scrub_outliers_matrix(m, 6.0, window), self.per_row(m, 6.0, window))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 60), st.integers(5, 50), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_many_rows(self, n_rows, n, window, seed):
        rng = np.random.default_rng(seed)
        m = np.round(rng.normal(100.0, 2.0, size=(n_rows, n)), int(rng.integers(0, 3)))
        m[rng.random(m.shape) < rng.random() * 0.3] += 400.0
        got = scrub_outliers_matrix(m, 8.0, window)
        assert np.array_equal(got, self.per_row(m, 8.0, window))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 40), st.integers(0, 5), st.data())
    def test_a_row_holding_nan_comes_back_unchanged(self, n, window, data):
        m = np.asarray(
            data.draw(st.lists(st.floats(50, 150), min_size=2 * n, max_size=2 * n))
        ).reshape(2, n)
        m[:, n // 2] += 1e9
        m[0, data.draw(st.integers(0, n - 1))] = np.nan
        got = scrub_outliers_matrix(m, 6.0, window)
        assert np.array_equal(got[0], m[0], equal_nan=True)
        assert np.array_equal(got, self.per_row(m, 6.0, window), equal_nan=True)

    def test_a_spike_sees_the_replacement_of_the_one_before(self):
        row = np.array([10, 10, 10, 20, 1e9, 30, 1e9, 40, 50, 10, 10, 10], dtype=np.float64)
        out = scrub_outliers_matrix(row[np.newaxis, :], window=2)[0]
        # Index 4: median of (10, 20, 30, 1e9).  Index 6: median of
        # (25, 30, 40, 50) with index 4 replaced; 45 had it kept 1e9.
        assert (out[4], out[6]) == (25.0, 35.0)
        assert np.array_equal(out, scrub_outliers(row, window=2))
