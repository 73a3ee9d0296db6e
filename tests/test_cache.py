"""Unit tests for the sectored set-associative cache model."""

import numpy as np
import pytest

from repro.gpusim.cache import SimCache


def make_cache(size=1024, line=64, fg=32, ways=2) -> SimCache:
    return SimCache(size=size, line_size=line, fetch_granularity=fg, ways=ways)


class TestConstruction:
    def test_geometry(self):
        c = make_cache()
        assert c.num_sets == 1024 // (64 * 2)
        assert c.sectors_per_line == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=0, line_size=64, fetch_granularity=32, ways=2),
            dict(size=1024, line_size=64, fetch_granularity=48, ways=2),
            dict(size=1000, line_size=64, fetch_granularity=32, ways=2),
            dict(size=1024, line_size=64, fetch_granularity=32, ways=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimCache(**kwargs)


class TestBasicAccess:
    def test_first_access_misses(self):
        c = make_cache()
        assert c.probe(0) is False
        assert c.access(0) is False
        assert c.probe(0) is True
        assert c.resident_lines() == 1

    def test_second_access_same_sector_hits(self):
        c = make_cache()
        c.access(0)
        assert c.access(4) is True
        assert c.probe(0) is True
        assert c.resident_lines() == 1

    def test_other_sector_is_sector_miss(self):
        c = make_cache()
        c.access(0)
        assert c.probe(32) is False
        assert c.access(32) is False  # same line, second sector
        assert c.resident_lines() == 1  # a sector miss installs no line
        assert c.access(32) is True  # now fetched

    def test_sector_miss_does_not_evict(self):
        c = make_cache()
        c.access(0)
        c.access(32)
        assert c.resident_lines() == 1

    def test_fetch_granularity_fills_only_sector(self):
        c = make_cache()
        c.access(0)  # fetches sector 0 (bytes 0..31) only
        assert c.probe(16) is True
        assert c.probe(48) is False


class TestLRUEviction:
    def test_capacity_eviction(self):
        c = make_cache(size=256, line=64, fg=64, ways=2)  # 2 sets x 2 ways
        # Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(0 * 64)
        c.access(2 * 64)
        c.access(4 * 64)  # evicts line 0
        assert c.probe(0) is False
        assert c.probe(2 * 64) is True
        assert c.probe(4 * 64) is True

    def test_lru_promotion_on_hit(self):
        c = make_cache(size=256, line=64, fg=64, ways=2)
        c.access(0 * 64)
        c.access(2 * 64)
        c.access(0 * 64)  # promote line 0 to MRU
        c.access(4 * 64)  # should evict line 2, not line 0
        assert c.probe(0) is True
        assert c.probe(2 * 64) is False

    def test_cyclic_thrash_all_misses(self):
        # Classic LRU pathology: cycling over ways+1 lines of one set.
        c = make_cache(size=256, line=64, fg=64, ways=2)
        addrs = [0, 2 * 64, 4 * 64] * 3
        results = [c.access(a) for a in addrs]
        assert not any(results)


class TestProbe:
    def test_probe_does_not_mutate(self):
        c = make_cache()
        c.access(0)
        snap = c.snapshot()
        c.probe(0)
        c.probe(4096)
        assert c.snapshot() == snap

    def test_probe_cold(self):
        assert make_cache().probe(0) is False


class TestFlush:
    def test_flush_invalidates(self):
        c = make_cache()
        c.access(0)
        c.flush()
        assert c.probe(0) is False
        assert c.resident_lines() == 0

    def test_flush_is_reusable(self):
        c = make_cache()
        for _ in range(5):
            c.access(0)
            assert c.probe(0)
            c.flush()
            assert not c.probe(0)

    def test_access_after_flush_misses_then_hits(self):
        c = make_cache()
        c.access(0)
        c.flush()
        assert c.access(0) is False
        assert c.access(0) is True


class TestStats:
    def test_access_many(self):
        c = make_cache()
        hits = c.access_many(np.array([0, 0, 64, 64]))
        assert hits.tolist() == [False, True, False, True]


class TestCapacityBehaviour:
    """The property the entire size benchmark rests on (Fig. 1)."""

    def test_array_fitting_hits_after_warm(self):
        c = make_cache(size=4096, line=64, fg=32, ways=4)
        addrs = np.arange(0, 4096, 32, dtype=np.int64)
        c.access_many(addrs)  # warm
        assert c.access_many(addrs).all()

    def test_array_exceeding_misses(self):
        c = make_cache(size=4096, line=64, fg=32, ways=4)
        addrs = np.arange(0, 8192, 32, dtype=np.int64)
        c.access_many(addrs)
        hits = c.access_many(addrs)
        assert not hits.any()

    def test_boundary_region_mixed(self):
        c = make_cache(size=4096, line=64, fg=32, ways=4)
        addrs = np.arange(0, 4096 + 4 * 64, 32, dtype=np.int64)  # 4 extra lines
        c.access_many(addrs)
        hits = c.access_many(addrs)
        assert hits.any() and not hits.all()
