"""Equivalence of the analytic cyclic warm-up with exact simulation.

The analytic warm-up is the load-bearing performance trick of the
simulator (DESIGN.md Section 5); these tests — including property-based
ones — pin down that its end state is *identical* to step-by-step
simulation for the monotone strided rings the p-chase uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.cache import SimCache


def strided_ring(nbytes: int, stride: int, base: int = 0) -> np.ndarray:
    return base + np.arange(nbytes // stride, dtype=np.int64) * stride


def exact_copy(cache: SimCache) -> SimCache:
    return SimCache(
        size=cache.size,
        line_size=cache.line_size,
        fetch_granularity=cache.fetch_granularity,
        ways=cache.ways,
    )


@st.composite
def cache_and_ring(draw):
    line = draw(st.sampled_from([32, 64, 128]))
    fg_div = draw(st.sampled_from([1, 2, 4]))
    fg = line // fg_div
    ways = draw(st.sampled_from([1, 2, 4]))
    sets = draw(st.sampled_from([4, 6, 8, 16, 23, 46]))  # A100's L1: 368 sets
    size = sets * line * ways
    stride = draw(st.sampled_from([fg // 2, fg, 2 * fg, line, 2 * line]))
    stride = max(stride, 4)
    nbytes = draw(st.integers(min_value=stride, max_value=4 * size))
    base = draw(st.sampled_from([0, line, 7 * line, size]))
    return size, line, fg, ways, stride, strided_ring(nbytes, stride, base)


class TestFreshEquivalence:
    @pytest.mark.parametrize("nbytes", [256, 1024, 4096, 5000, 16384])
    @pytest.mark.parametrize("stride", [32, 64, 96, 128])
    def test_matches_exact(self, nbytes, stride):
        if nbytes < stride:
            pytest.skip("array smaller than stride")
        addrs = strided_ring(nbytes, stride)
        analytic = SimCache(4096, 64, 32, 4)
        exact = exact_copy(analytic)
        analytic.warm_cyclic(addrs, stride=stride)
        exact.access_many(addrs)
        assert analytic.snapshot() == exact.snapshot()

    @settings(max_examples=120, deadline=None)
    @given(cache_and_ring())
    def test_property_fresh(self, params):
        size, line, fg, ways, stride, addrs = params
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        analytic.warm_cyclic(addrs, stride=stride)
        exact.access_many(addrs)
        assert analytic.snapshot() == exact.snapshot()


class TestMergeEquivalence:
    """Second warm on a non-empty cache (protocol building block)."""

    @settings(max_examples=80, deadline=None)
    @given(cache_and_ring(), st.integers(min_value=0, max_value=1 << 16))
    def test_property_merge(self, params, base_b):
        size, line, fg, ways, stride, addrs_a = params
        addrs_b = addrs_a + (base_b // fg) * fg + 8 * size
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        analytic.warm_cyclic(addrs_a, stride=stride)
        analytic.warm_cyclic(addrs_b, stride=stride)
        exact.access_many(addrs_a)
        exact.access_many(addrs_b)
        assert analytic.snapshot() == exact.snapshot()

    def test_merge_preserves_survivors(self):
        cache = SimCache(1024, 64, 64, 2)  # 8 sets
        # Fill set 0 with line 0.
        cache.access(0)
        # Warm a single new line in set 0 (line 8): both should coexist.
        cache.warm_cyclic(np.array([8 * 64]), stride=64)
        assert cache.probe(0)
        assert cache.probe(8 * 64)

    def test_merge_thrash_replaces(self):
        cache = SimCache(1024, 64, 64, 2)
        cache.access(0)
        # Three new lines in set 0 -> old line evicted, last 2 survive.
        cache.warm_cyclic(np.array([8 * 64, 16 * 64, 24 * 64]), stride=8 * 64)
        assert not cache.probe(0)
        assert not cache.probe(8 * 64)
        assert cache.probe(16 * 64)
        assert cache.probe(24 * 64)


class TestFixedPoint:
    """Repeated warm-up passes must not change the end state."""

    @settings(max_examples=60, deadline=None)
    @given(cache_and_ring())
    def test_idempotent(self, params):
        size, line, fg, ways, stride, addrs = params
        cache = SimCache(size, line, fg, ways)
        cache.warm_cyclic(addrs, stride=stride)
        snap1 = cache.snapshot()
        cache.warm_cyclic(addrs, stride=stride)
        assert cache.snapshot() == snap1


class TestNonMonotoneFallback:
    def test_empty_addresses_noop(self):
        cache = SimCache(512, 64, 32, 2)
        cache.warm_cyclic(np.array([], dtype=np.int64), stride=32)
        assert cache.resident_lines() == 0


class TestWarmAfterFlush:
    def test_flush_then_warm_is_fresh(self):
        cache = SimCache(1024, 64, 32, 2)
        cache.warm_cyclic(strided_ring(2048, 32), stride=32)
        cache.flush()
        addrs = strided_ring(512, 32)
        cache.warm_cyclic(addrs, stride=32)
        exact = SimCache(1024, 64, 32, 2)
        exact.access_many(addrs)
        assert cache.snapshot() == exact.snapshot()
