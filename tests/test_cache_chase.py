"""Property tests for the batch/analytic measurement engine.

The analytic primitives — :meth:`SimCache.known_state_hits`, which
answers every revolution of a timed pass or a probe, the deferred warm
state (:meth:`warm_cyclic_lazy`) and the incremental suffix-extension
warm — must be *access-for-access* equivalent to the exact
:meth:`SimCache.access` loop: the same hit/miss vector, and for the
warms the same end state (snapshot).  A timed pass's or probe's end
state is unspecified until the next flush, so their tests compare hits
only.  These tests pin that equivalence over randomized cache
geometries, strides, ring sizes, sample counts (including multi-wrap
chases), warm/cold starts and post-flush generations.  A timed pass
(:func:`_walk_many`) answers each level's first revolution on the state
its flush and warm left and the later ones from that state alone; down
one cache and down a two-level path it must match the exact loop, and
walk per load only where no closed form holds.  A protocol probe
answered in closed form from a flushed cache or from its protocol's
deferred warms must match the exact loop and be indistinguishable from
one that materialises the rows and walks the loads, a timed pass handed
only the sampled prefix of its ring must be indistinguishable from one
handed the whole ring, a warm that skips the per-set replay for lines
outside the resident [min, max] tag bound must still land on the exact
end state, and a warmed pass over a ring that fits the cache, answered
in closed form, must be indistinguishable from the general per-set
analysis.  A lower level answered from its warm descriptor must match
the per-load walk on materialised rows, and the closed-form per-set
line counts of a ring strided above the line size must match counting
the whole ring.  Set counts include non-powers of two, as real caches
have.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import kernel
from repro.gpusim.cache import SimCache
from repro.gpusim.device import LoadPath, SimulatedGPU
from repro.gpusim.isa import LoadKind
from repro.gpusim.kernel import _level_hits, _pass_filtered, _walk, _walk_many, probe_hits, warm

KIND = LoadKind.S_LOAD


def strided_ring(nbytes: int, stride: int, base: int = 0) -> np.ndarray:
    return base + np.arange(max(1, nbytes // stride), dtype=np.int64) * stride


def chase_reference(cache: SimCache, addrs: np.ndarray, n: int) -> np.ndarray:
    """The exact timed pass: per-load access over the cyclic walk."""
    ring = len(addrs)
    return np.fromiter(
        (cache.access(int(addrs[i % ring])) for i in range(n)), dtype=bool, count=n
    )


def timed_hits(
    cache: SimCache, addrs: np.ndarray, n: int, stride: int, ring: int | None = None
) -> np.ndarray:
    """Hits of an ``n``-load timed pass down a path of ``cache`` alone."""
    return _walk_many(LoadPath(KIND, [(cache, 1.0)], 2.0), addrs, n, stride, ring)[1]


def warm_lazy(cache: SimCache, addrs: np.ndarray, stride: int) -> None:
    """The fresh p-chase's warm of the ring ``addrs``: a deferred descriptor."""
    cache.warm_cyclic_lazy(int(addrs[0]), len(addrs) * stride, stride)


#: Powers of two and the non-powers real parts have (A100: 368 L1 sets,
#: 10240 L2 sets per segment).
SET_COUNTS = [2, 3, 4, 6, 8, 16, 23, 46]


@st.composite
def geometry_and_ring(draw):
    line = draw(st.sampled_from([32, 64, 128]))
    fg = line // draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    sets = draw(st.sampled_from(SET_COUNTS))
    size = sets * line * ways
    stride = draw(
        st.sampled_from([max(4, fg // 2), fg, 2 * fg, 3 * fg, line, 2 * line])
    )
    nbytes = draw(st.integers(min_value=stride, max_value=5 * size))
    base = 4 * draw(st.integers(min_value=0, max_value=size))
    return size, line, fg, ways, stride, strided_ring(nbytes, stride, base)


class TestChaseCyclic:
    """A timed pass down one cache equals the exact loop.

    Every revolution is answered in closed form by
    :meth:`SimCache.known_state_hits`: warmed, from the ring's deferred
    warm; cold, from the flush for the first revolution and from the warm
    it leaves for the later ones.  No row is installed, so no load was
    walked.
    """

    @settings(max_examples=150, deadline=None)
    @given(geometry_and_ring(), st.integers(min_value=1, max_value=900))
    def test_warmed_equivalence(self, params, n_samples):
        """Warmed chase == exact loop: hits."""
        size, line, fg, ways, stride, addrs = params
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        warm_lazy(analytic, addrs, stride)
        exact.warm_cyclic(addrs, stride=stride)
        hits = timed_hits(analytic, addrs, n_samples, stride)
        assert np.array_equal(hits, chase_reference(exact, addrs, n_samples))
        assert analytic._valid_sets == 0

    @settings(max_examples=100, deadline=None)
    @given(geometry_and_ring(), st.integers(min_value=1, max_value=900))
    def test_cold_equivalence(self, params, n_samples):
        """Cold (flushed) chase == exact loop, including the first wrap."""
        size, line, fg, ways, stride, addrs = params
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        hits = timed_hits(analytic, addrs, n_samples, stride)
        assert np.array_equal(hits, chase_reference(exact, addrs, n_samples))
        assert analytic._valid_sets == 0

    @settings(max_examples=60, deadline=None)
    @given(geometry_and_ring(), st.integers(min_value=1, max_value=400))
    def test_post_flush_generation(self, params, n_samples):
        """A flushed cache behaves like a fresh one (generation stamps)."""
        size, line, fg, ways, stride, addrs = params
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        # Dirty both caches with an unrelated footprint, then flush.
        junk = strided_ring(2 * size, line, base=8 * size + 4)
        analytic.warm_cyclic(junk, stride=line)
        exact.warm_cyclic(junk, stride=line)
        analytic.flush()
        exact.flush()
        warm_lazy(analytic, addrs, stride)
        exact.warm_cyclic(addrs, stride=stride)
        hits = timed_hits(analytic, addrs, n_samples, stride)
        assert np.array_equal(hits, chase_reference(exact, addrs, n_samples))

    def test_cold_mode_rejects_dirty_cache(self):
        """Rows left without a flush: no closed form, the exact walk."""
        cache = SimCache(1024, 64, 32, 2)
        exact = SimCache(1024, 64, 32, 2)
        cache.access(0)
        exact.access(0)
        ring = strided_ring(512, 32)
        assert cache.known_state_hits(ring, 32, np.ones(ring.size, dtype=bool)) is None
        assert np.array_equal(timed_hits(cache, ring, 40, 32), chase_reference(exact, ring, 40))


class TestOverlappingMerge:
    @settings(max_examples=120, deadline=None)
    @given(geometry_and_ring(), geometry_and_ring())
    def test_warm_equals_exact_on_any_state(self, params_a, params_b):
        """warm_cyclic == access_many on overlapping prior state.

        Lines shared between the resident content and the new pass may be
        evicted by the pass itself before being re-accessed; the merge
        must reproduce that (hit-promote-union vs. evict-refetch) exactly.
        """
        size, line, fg, ways, stride_a, addrs_a = params_a
        *_, stride_b, addrs_b = params_b
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        # Same prior state on both sides; the second pass — ring B moved
        # to start inside ring A — goes through warm_cyclic vs. the exact
        # loop.
        analytic.access_many(addrs_a)
        exact.access_many(addrs_a)
        overlap = addrs_b - int(addrs_b[0]) + int(addrs_a[len(addrs_a) // 2])
        analytic.warm_cyclic(overlap, stride=stride_b)
        exact.access_many(overlap)
        assert analytic.snapshot() == exact.snapshot()

    def test_evicted_before_reaccess_is_refetched(self):
        """Reviewer scenario: a thrashing pass must not resurrect old masks."""
        cache = SimCache(4 * 32 * 2, 32, 8, 2)  # 4 sets, 2 ways, 4 sectors
        exact = SimCache(4 * 32 * 2, 32, 8, 2)
        # Lines 5 and 9 (set 1) resident with full sector masks.
        for c in (cache, exact):
            for addr in range(5 * 32, 6 * 32, 8):
                c.access(addr)
            for addr in range(9 * 32, 10 * 32, 8):
                c.access(addr)
        # Monotone pass over lines 1, 5, 9 (k=3 > ways): line 1 evicts 5,
        # so 5 and 9 refetch with only the accessed sector.
        pass_addrs = np.array([1 * 32, 5 * 32, 9 * 32], dtype=np.int64)
        cache.warm_cyclic(pass_addrs, stride=4 * 32)
        exact.access_many(pass_addrs)
        assert cache.snapshot() == exact.snapshot()


class TestIncrementalWarm:
    @settings(max_examples=120, deadline=None)
    @given(geometry_and_ring(), st.data())
    def test_suffix_extension_reaches_fixed_point(self, params, data):
        """warm(prefix) + warm(suffix) == warm(full ring) exactly."""
        size, line, fg, ways, stride, addrs = params
        if len(addrs) < 2:
            return
        cut = data.draw(st.integers(min_value=1, max_value=len(addrs) - 1))
        incremental = SimCache(size, line, fg, ways)
        full = SimCache(size, line, fg, ways)
        incremental.warm_cyclic(addrs[:cut], stride=stride)
        incremental.warm_cyclic(addrs[cut:], stride=stride)
        full.warm_cyclic(addrs, stride=stride)
        assert incremental.snapshot() == full.snapshot()

    def test_flush_discards_pending_warms(self):
        cache = SimCache(1024, 64, 32, 2)
        cache.warm_cyclic_lazy(0, 512, 32)
        cache.warm_cyclic_lazy(4096, 512, 32)
        cache.flush()
        assert cache.resident_lines() == 0


class TestLazyWarmList:
    @settings(max_examples=100, deadline=None)
    @given(geometry_and_ring(), st.integers(min_value=1, max_value=3))
    def test_replay_order_preserved(self, params, n_warms):
        """Deferred warms materialise in order, equal to eager warms."""
        size, line, fg, ways, stride, addrs = params
        lazy = SimCache(size, line, fg, ways)
        eager = SimCache(size, line, fg, ways)
        for i in range(n_warms):
            ring = addrs + i * 16 * size
            lazy.warm_cyclic_lazy(int(ring[0]), len(ring) * stride, stride)
            eager.warm_cyclic(ring, stride=stride)
        assert lazy.snapshot() == eager.snapshot()


@pytest.mark.parametrize("stride", [16, 32, 64, 96, 128, 256])
def test_chase_multi_wrap_exactness(stride):
    """n_samples far beyond the ring length wraps with the steady pattern,
    warmed and cold (whose first wrap is answered from the flush)."""
    addrs = strided_ring(1600, stride)
    n = 7 * len(addrs) + 3
    for warmed in (True, False):
        cache = SimCache(2048, 64, 32, 2)
        exact = SimCache(2048, 64, 32, 2)
        if warmed:
            warm_lazy(cache, addrs, stride)
            exact.warm_cyclic(addrs, stride=stride)
        hits = timed_hits(cache, addrs, n, stride)
        assert np.array_equal(hits, chase_reference(exact, addrs, n))
        assert cache._valid_sets == 0


#: Installs a cache's deferred rows (a test helper that reads them).
materialise = SimCache.resident_lines


class TestProbeFromDescriptor:
    """A protocol probe answered from the state its protocol left.

    :func:`probe_hits` lets a cache holding a flush and deferred warms
    answer from the descriptors (:meth:`SimCache.known_state_hits`)
    instead of materialising its rows and walking the loads one by one.
    The two routes — the second taken by materialising the first level's
    rows before the probe — must be indistinguishable: hits, noisy
    latencies, simulated time and the next noise draw.  The state a probe
    leaves is unspecified until the next flush, so it is not compared.
    """

    KIND = LoadKind.S_LOAD

    @staticmethod
    def device(l1: SimCache, l2: SimCache) -> SimulatedGPU:
        """A device whose probe path is ``l1`` then ``l2`` then memory."""
        dev = SimulatedGPU.from_preset("TestGPU-AMD", seed=11)
        path = LoadPath(TestProbeFromDescriptor.KIND, [(l1, 20.0), (l2, 110.0)], 400.0)
        dev.resolve_path = lambda kind, sm=0, core=0: path
        return dev

    def probe(self, geom, warms, probe_addrs, probe_stride, prepare=None):
        """Warm the listed rings, then probe; returns everything observable."""
        size, line, fg, ways = geom
        l1 = SimCache(size, line, fg, ways)
        l2 = SimCache(4 * size, line, fg, 2 * ways)
        dev = self.device(l1, l2)
        dev.flush_caches()
        for ring, stride in warms:
            warm(dev, self.KIND, ring, stride=stride)
        if prepare is not None:
            prepare(l1)
        hits, lat = probe_hits(dev, self.KIND, probe_addrs, stride=probe_stride)
        return {
            # Only a probe answered in closed form leaves the warms deferred.
            "fired": l1._virtual is not None,
            "hits": hits,
            "lat": lat,
            "elapsed": dev.elapsed_seconds(),
            "loads": dev.total_loads,
            "next_draw": dev.noise.rng.random(),
        }

    def assert_same(self, fast, slow):
        assert np.array_equal(fast["hits"], slow["hits"])
        assert np.array_equal(fast["lat"], slow["lat"])
        for key in ("elapsed", "loads", "next_draw"):
            assert fast[key] == slow[key], key

    @settings(max_examples=120, deadline=None)
    @given(geometry_and_ring(), st.sampled_from(["whole", "prefix", "two_rings"]))
    def test_fast_path_matches_materialised_path(self, params, case):
        """Fits and thrashes, strides below and above the line size; the
        whole ring or a prefix, alone or with a disjoint ring warmed after."""
        size, line, fg, ways, stride, addrs = params
        geom = (size, line, fg, ways)
        warms = [(addrs, stride)]
        probe_addrs = addrs
        if case == "prefix":
            probe_addrs = addrs[: (len(addrs) + 1) // 2]
        elif case == "two_rings":
            warms.append((addrs + 64 * size, stride))
        fast = self.probe(geom, warms, probe_addrs, stride)
        slow = self.probe(geom, warms, probe_addrs, stride, materialise)
        assert fast["fired"]
        assert not slow["fired"]
        self.assert_same(fast, slow)

    def test_fast_path_leaves_rows_deferred(self):
        l1 = SimCache(2048, 64, 32, 2)
        l2 = SimCache(8192, 64, 32, 4)
        dev = self.device(l1, l2)
        addrs = strided_ring(1536, 32, base=4096)
        dev.flush_caches()
        warm(dev, self.KIND, addrs, stride=32)
        hits, _ = probe_hits(dev, self.KIND, addrs, stride=32)
        assert hits.all()  # the ring fits: every probe hits the first level
        assert l1._virtual == (True, [(4096, 1536, 32)])
        assert l1._valid_sets == 0  # no row was materialised

    @settings(max_examples=60, deadline=None)
    @given(
        geometry_and_ring(),
        st.sampled_from(["base", "stride", "twice", "overlapping", "materialised"]),
    )
    def test_fast_path_does_not_fire_without_proof(self, params, case):
        size, line, fg, ways, stride, addrs = params
        geom = (size, line, fg, ways)
        warms = [(addrs, stride)]
        probe_addrs = addrs
        prepare = None
        if case == "base":
            probe_addrs = addrs + stride
        elif case == "stride":
            wide = strided_ring(len(addrs) * 2 * stride, 2 * stride, int(addrs[0]))
            warms = [(wide, 2 * stride)]
        elif case == "twice":
            warms = [(addrs, stride), (addrs, stride)]
        elif case == "overlapping":
            if len(addrs) < 2:
                return
            warms = [(addrs, stride), (addrs + stride * (len(addrs) // 2), stride)]
        else:
            prepare = materialise
        probed = self.probe(geom, warms, probe_addrs, stride, prepare)
        replayed = self.probe(geom, warms, probe_addrs, stride, materialise)
        assert not probed["fired"]
        self.assert_same(probed, replayed)

    def test_partial_wrap_keeps_the_descriptor(self):
        """``n % ring != 0``: a warmed pass with a cut final wrap is
        answered from the descriptor too, since nothing reads the state a
        timed pass leaves."""
        l1 = SimCache(2048, 64, 32, 2)
        l2 = SimCache(8192, 64, 32, 4)
        addrs = strided_ring(1536, 32)
        l1.warm_cyclic_lazy(0, 1536, 32)
        l2.warm_cyclic_lazy(0, 1536, 32)
        path = LoadPath(self.KIND, [(l1, 20.0), (l2, 110.0)], 400.0)
        lat, first = _walk_many(path, addrs, len(addrs) + 3, 32)
        assert first.all() and (lat == 20.0).all()
        assert l1._virtual == (True, [(0, 1536, 32)])
        assert l1._valid_sets == 0
        assert l1.known_state_hits(addrs, 32, np.ones(addrs.size, dtype=bool)).all()
        assert l1._virtual == (True, [(0, 1536, 32)])


@st.composite
def known_state(draw):
    """A cache geometry, its flush-first deferred warms and one probe.

    Returns ``(geom, rings, probe, stride, pending, layout)``: zero to
    three line-disjoint rings in random order, the probe a prefix of one
    of them (any strided walk over a flushed cache when there are none),
    and the loads that reach the cache, all of them or a random subset.
    ``layout`` "overlap" adds a ring sharing lines with the probed one
    after it; "earlier" adds one before it, which the probe must ignore.
    """
    line = draw(st.sampled_from([32, 64, 128]))
    fg = line // draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    sets = draw(st.sampled_from([*SET_COUNTS, 368]))
    size = sets * line * ways
    strides = st.sampled_from(
        [max(4, fg // 2), fg, line, 3 * line // 2, 2 * line, 3 * line]
    )
    rings = []
    base = 4 * draw(st.integers(min_value=0, max_value=size))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        stride = draw(strides)
        count = draw(st.integers(min_value=1, max_value=min(3000, 3 * size // stride)))
        rings.append((base, count * stride, stride))
        base += count * stride + line * draw(st.integers(min_value=1, max_value=4))
    rings = draw(st.permutations(rings))
    layout = "disjoint"
    if rings:
        j = draw(st.integers(min_value=0, max_value=len(rings) - 1))
        base, nbytes, stride = rings[j]
        count = nbytes // stride
        n = draw(st.integers(min_value=1, max_value=min(count, 600)))
        layout = draw(st.sampled_from(["disjoint", "overlap", "earlier"]))
        shift = stride * draw(st.integers(min_value=0, max_value=count - 1))
        if layout == "overlap":
            at = draw(st.integers(min_value=j + 1, max_value=len(rings)))
            rings.insert(at, (base + shift, nbytes, stride))
        elif layout == "earlier":
            rings.insert(draw(st.integers(min_value=0, max_value=j)), (base + stride, nbytes, stride))
    else:
        stride = draw(strides)
        n = draw(st.integers(min_value=1, max_value=600))
    probe = base + np.arange(n, dtype=np.int64) * stride
    if draw(st.booleans()):
        pending = np.ones(n, dtype=bool)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pending = rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    return (size, line, fg, ways), rings, probe, stride, pending, layout


class TestKnownStateHits:
    """A probe revolution answered in closed form from a known state.

    :meth:`SimCache.known_state_hits` must give the exact :meth:`access`
    loop's hit vector — the literal warms, then the pending loads one by
    one — on a flushed empty cache and after one to three deferred warms,
    whole or filtered, leaving the deferred state untouched.  It must
    decline when a ring warmed after the probed one shares its lines.
    """

    @settings(max_examples=300, deadline=None)
    @given(known_state())
    def test_matches_the_exact_loop(self, params):
        geom, rings, probe, stride, pending, layout = params
        cache = SimCache(*geom)
        exact = SimCache(*geom)
        for base, nbytes, ring_stride in rings:
            cache.warm_cyclic_lazy(base, nbytes, ring_stride)
            exact.access_many(strided_ring(nbytes, ring_stride, base))
        before = cache._virtual, cache._valid_sets
        got = cache.known_state_hits(probe, stride, pending)
        assert (cache._virtual, cache._valid_sets) == before
        if layout == "overlap":
            assert got is None
            return
        want = np.zeros(probe.size, dtype=bool)
        want[pending] = exact.access_many(probe[pending])
        assert got is not None
        assert np.array_equal(got, want)

    def test_declines_rows_and_unflushed_warms(self):
        ring = strided_ring(1024, 64)
        pending = np.ones(ring.size, dtype=bool)
        cache = SimCache(2048, 64, 32, 2)
        cache.access(4096)
        assert cache.known_state_hits(ring, 64, pending) is None
        cache.warm_cyclic_lazy(0, 1024, 64)  # deferred, but not after a flush
        assert cache.known_state_hits(ring, 64, pending) is None
        assert cache._virtual is not None


def samples_for(ring: int):
    """Sample counts below the ring length (a prefix) and above it (wraps)."""
    return st.integers(min_value=1, max_value=min(3 * ring, 2000))


class TestSampledPrefix:
    """A timed pass handed only the addresses it samples.

    ``run_pchase_ex`` builds the first ``min(ring, n)`` addresses and
    passes the ring length separately; ``_walk_many`` — and through it
    :meth:`SimCache.known_state_hits` and the per-load walker — must
    behave exactly as when handed the whole ring, in every cache state a
    timed pass can start from, and in one no closed form answers.
    """

    KIND = LoadKind.S_LOAD

    def run(self, geom, addrs, stride, n, state, prefix):
        size, line, fg, ways = geom
        l1 = SimCache(size, line, fg, ways)
        l2 = SimCache(4 * size, line, fg, 2 * ways)
        dev = TestProbeFromDescriptor.device(l1, l2)
        dev.flush_caches()
        base, nbytes = int(addrs[0]), len(addrs) * stride
        for cache in (l1, l2):
            if state == "fixed_point":
                cache.warm_cyclic_lazy(base, nbytes, stride)
            elif state == "unknown":
                # Foreign lines overlapping the ring's start, then one
                # unflushed warm of the ring: a mixed arbitrary state.
                foreign = strided_ring(2 * size, line, max(0, base - size))
                cache.warm_cyclic(foreign, stride=line)
                cache.warm_cyclic(addrs, stride=stride)
        ring = len(addrs)
        lat, first = _walk_many(
            dev.resolve_path(self.KIND),
            addrs[: min(ring, n)] if prefix else addrs,
            n,
            stride,
            ring if prefix else None,
        )
        noisy = None
        if lat is not None:
            dev.account_loads(n, float(lat.sum()))
            noisy = dev.noise.perturb(lat)
        return {
            "lat": lat,
            "first": first,
            "noisy": noisy,
            "snapshots": (l1.snapshot(), l2.snapshot()),
            "elapsed": dev.elapsed_seconds(),
            "next_draw": dev.noise.rng.random(),
        }

    @settings(max_examples=200, deadline=None)
    @given(
        geometry_and_ring(),
        st.data(),
        st.sampled_from(["fixed_point", "cold", "unknown"]),
    )
    def test_prefix_matches_whole_ring(self, params, data, state):
        """Rings shorter and longer than n; strides below, at, above a line."""
        size, line, fg, ways, stride, addrs = params
        n = data.draw(samples_for(len(addrs)))
        geom = (size, line, fg, ways)
        got = self.run(geom, addrs, stride, n, state, prefix=True)
        ref = self.run(geom, addrs, stride, n, state, prefix=False)
        for key in ("lat", "first", "noisy"):
            assert (got[key] is None) == (ref[key] is None), key
            if ref[key] is not None:
                assert np.array_equal(got[key], ref[key]), key
        for key in ("snapshots", "elapsed", "next_draw"):
            assert got[key] == ref[key], key

    @settings(max_examples=100, deadline=None)
    @given(geometry_and_ring(), st.data(), st.booleans())
    def test_one_level_prefix_matches_whole_ring(self, params, data, warmed):
        """Down one cache, the prefix and the whole ring both give the
        exact loop's hits."""
        size, line, fg, ways, stride, addrs = params
        ring = len(addrs)
        n = data.draw(samples_for(ring))
        hits = []
        for arg, ring_arg in ((addrs[: min(ring, n)], ring), (addrs, None)):
            cache = SimCache(size, line, fg, ways)
            if warmed:
                warm_lazy(cache, addrs, stride)
            hits.append(timed_hits(cache, arg, n, stride, ring_arg))
        exact = SimCache(size, line, fg, ways)
        if warmed:
            exact.warm_cyclic(addrs, stride=stride)
        assert np.array_equal(hits[0], hits[1])
        assert np.array_equal(hits[0], chase_reference(exact, addrs, n))


class ReplayAll(SimCache):
    """A cache that assumes any line may be resident: every set replays."""

    def _line_bounds(self) -> tuple[int, int]:
        return 0, 1 << 62


class TestLineBound:
    """``warm_cyclic`` skips the replay for lines outside [min, max].

    Every resident line lies inside the generation's tag bound, so a ring
    wholly below, wholly above, or straddling the resident lines must
    reach the exact :meth:`SimCache.access` end state — the same as a
    warm that replays every set.  Re-warming a ring placed below the
    first one catches a bound whose minimum never moves.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        geometry_and_ring(),
        st.lists(
            st.sampled_from(["below", "above", "straddle", "again"]),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=64),
    )
    def test_warm_matches_exact_loop(self, params, placements, gap):
        size, line, fg, ways, stride, ring = params
        extent = len(ring) * stride
        gap *= 4
        ring = ring + 40 * size + 4 * gap  # room for four rings below
        caches = [SimCache(size, line, fg, ways), ReplayAll(size, line, fg, ways)]
        exact = SimCache(size, line, fg, ways)
        lo, hi = int(ring[0]), int(ring[-1])
        prev = ring
        for placement in ["first"] + placements:
            if placement == "below":
                addrs = ring - int(ring[0]) + lo - extent - gap
            elif placement == "above":
                addrs = ring - int(ring[0]) + hi + stride + gap
            elif placement == "straddle":
                addrs = ring - int(ring[0]) + (lo + hi) // 2 // 4 * 4
            elif placement == "again":
                addrs = prev
            else:
                addrs = ring
            for cache in caches:
                cache.warm_cyclic(addrs, stride=stride)
            exact.access_many(addrs)
            lo, hi = min(lo, int(addrs[0])), max(hi, int(addrs[-1]))
            prev = addrs
        assert caches[0].snapshot() == exact.snapshot()
        assert caches[0].snapshot() == caches[1].snapshot()

    def test_ring_below_resident_lines_is_not_replayed(self, monkeypatch):
        replayed = []
        original = SimCache.access_many

        def spy(self, addrs):
            replayed.append(addrs)
            return original(self, addrs)

        monkeypatch.setattr(SimCache, "access_many", spy)
        cache = SimCache(2048, 64, 32, 2)
        cache.warm_cyclic(strided_ring(1024, 32, base=1 << 20), stride=32)
        cache.warm_cyclic(strided_ring(1024, 32, base=4096), stride=32)
        assert replayed == []
        # Control: a ring straddling the resident lines does replay.
        cache.warm_cyclic(strided_ring(1 << 20, 32, base=4096), stride=32)
        assert replayed


class GeneralPath(SimCache):
    """A cache whose timed pass never takes the fitting-ring closed form."""

    def _ring_fits(self, a0: int, ring: int, stride: int) -> bool:
        return False


@st.composite
def fitting_edge_ring(draw):
    """A geometry and a ring spanning ``num_sets*ways + {-1, 0, 1}`` lines.

    Strides lie below the fetch granularity, at it, between it and the
    line size, and at the line size: the closed form's whole domain.
    """
    line = draw(st.sampled_from([32, 64, 128]))
    fg = line // draw(st.sampled_from([1, 2, 4]))
    ways = draw(st.sampled_from([1, 2, 4, 8]))
    sets = draw(st.sampled_from([1, *SET_COUNTS]))
    stride = draw(st.sampled_from([max(4, fg // 2), fg, (fg + line) // 8 * 4, line]))
    lines = max(1, sets * ways + draw(st.sampled_from([-1, 0, 1])))
    a0 = 4 * draw(st.integers(min_value=0, max_value=4 * line))
    # The last address must fall in line a0 // line + lines - 1.
    last_line = a0 // line + lines - 1
    lo = max(0, -(-(last_line * line - a0) // stride))
    hi = ((last_line + 1) * line - 1 - a0) // stride
    ring = 1 + draw(st.integers(min_value=lo, max_value=hi))
    return (sets * ways * line, line, fg, ways), stride, a0, ring, lines


class TestFittingRing:
    """A warmed pass over a ring of at most ``num_sets*ways`` lines hits
    on every load (the capacity cliff), answered by
    :meth:`SimCache.known_state_hits` without the per-set analysis: the
    hits equal the general path's."""

    @staticmethod
    def run(cls, geom, stride, a0, ring, n, state):
        cache = cls(*geom)
        addrs = a0 + np.arange(min(ring, n), dtype=np.int64) * stride
        if state == "descriptor":
            cache.warm_cyclic_lazy(a0, ring * stride, stride)
        elif state == "materialised":
            cache.warm_cyclic(a0 + np.arange(ring, dtype=np.int64) * stride, stride=stride)
        return timed_hits(cache, addrs, n, stride, ring)

    @settings(max_examples=300, deadline=None)
    @given(
        fitting_edge_ring(),
        st.sampled_from(["descriptor", "materialised", "cold"]),
        st.sampled_from(["full_wraps", "partial"]),
        st.data(),
    )
    def test_matches_general_path(self, params, state, mode, data):
        geom, stride, a0, ring, lines = params
        if mode == "full_wraps":
            n = ring * data.draw(st.integers(min_value=1, max_value=3))
        else:
            n = data.draw(st.integers(min_value=1, max_value=3 * ring))
        args = (geom, stride, a0, ring, n, state)
        fast = self.run(SimCache, *args)
        slow = self.run(GeneralPath, *args)
        assert np.array_equal(fast, slow)
        sets, ways = geom[0] // (geom[1] * geom[3]), geom[3]
        if state != "cold" and lines <= sets * ways:
            assert fast.all()

    def test_fitting_ring_skips_the_set_counts(self, monkeypatch):
        counted = []
        original = SimCache._ring_set_counts

        def spy(self, *args):
            counted.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(SimCache, "_ring_set_counts", spy)
        geom = (2048, 64, 32, 2)  # 16 sets x 2 ways = 32 lines
        for state in ("descriptor", "cold"):
            for n in (100, 128, 6 * 64):
                self.run(SimCache, geom, 32, 0, 64, n, state)
        assert counted == []
        # Controls: one line more, a stride above the line.
        self.run(SimCache, geom, 32, 0, 66, 100, "descriptor")
        self.run(SimCache, geom, 128, 0, 16, 100, "descriptor")
        assert counted == [66, 16]


class TestFixedPointHits:
    """A lower level of a fresh warmed p-chase, answered from its descriptor.

    The level sees only the loads that missed above it (``pending``).
    :func:`_level_hits` must give the hits the per-load walker gives on
    the materialised fixed point, for one revolution and for many.  When
    every pending load lies in a set holding at most ``ways`` ring lines
    and no later revolution sends a load the first did not, the answer
    comes from the descriptor and no row is installed; a level the closed
    forms do not cover walks its pending loads one by one.
    """

    @staticmethod
    def at_fixed_point(geom, ring_addrs, stride):
        cache = SimCache(*geom)
        warm_lazy(cache, ring_addrs, stride)
        return cache

    @staticmethod
    def spy_walks(monkeypatch) -> list[str]:
        walked = []

        def spy(cache, *args):
            walked.append(cache.name)
            return _pass_filtered(cache, *args)

        monkeypatch.setattr(kernel, "_pass_filtered", spy)
        return walked

    @settings(max_examples=200, deadline=None)
    @given(geometry_and_ring(), st.data())
    def test_matches_materialised_filtered_walk(self, params, data):
        size, line, fg, ways, stride, ring_addrs = params
        geom = (size, line, fg, ways)
        sets = size // (line * ways)
        ring = len(ring_addrs)
        n = data.draw(samples_for(ring))
        addrs = ring_addrs[: min(ring, n)]
        per_set = np.bincount(np.unique(ring_addrs // line) % sets, minlength=sets)
        fits = (per_set <= ways)[(addrs // line) % sets][np.arange(n) % addrs.size]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        share = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        # A level below a warmed one sees the same loads every revolution;
        # "shrinking" drops some in later ones, "random" is any subset.
        mode = data.draw(st.sampled_from(["periodic", "shrinking", "random"]))
        if mode == "random":
            pending = rng.random(n) < share
        else:
            pending = np.resize(rng.random(addrs.size) < share, n)
            if mode == "shrinking":
                pending[addrs.size :] &= rng.random(n - addrs.size) < 0.5
        if data.draw(st.booleans()):
            pending &= fits
        fast = self.at_fixed_point(geom, ring_addrs, stride)
        slow = self.at_fixed_point(geom, ring_addrs, stride)
        got = _level_hits(fast, addrs, n, stride, pending)
        want = _pass_filtered(slow, addrs, n, pending)
        assert np.array_equal(got, want)
        if mode != "random" and not (pending & ~fits).any():
            assert fast._valid_sets == 0  # answered from the descriptor

    def test_declines_an_oversubscribed_set_untouched(self, monkeypatch):
        """A pending load that misses the fixed point in an over-subscribed
        set: the first revolution is answered, leaving the descriptor as it
        was, and the pass walks per load from there."""
        walked = self.spy_walks(monkeypatch)
        cache = SimCache(2048, 64, 32, 2)  # 16 sets x 2 ways
        exact = SimCache(2048, 64, 32, 2)
        addrs = strided_ring(3 * 1024, 1024)  # three lines, all in set 0
        warm_lazy(cache, addrs, 1024)
        exact.warm_cyclic(addrs, stride=1024)
        pending = np.array([True, False, False, True])  # one wrap + 1
        before = cache._virtual, cache._valid_sets
        # Lines 1 and 2 evicted line 0 during the warm.
        assert not cache.known_state_hits(addrs, 1024, pending[:3]).any()
        assert (cache._virtual, cache._valid_sets) == before
        got = _level_hits(cache, addrs, 4, 1024, pending)
        assert walked == [cache.name]
        assert got.tolist() == [False, False, False, True]
        assert np.array_equal(got, _pass_filtered(exact, addrs, 4, pending))

    def test_later_load_the_first_revolution_skipped_walks(self, monkeypatch):
        """Every pending load of the first revolution hits, but the second
        sends one more, to a line the warm evicted: no closed form."""
        walked = self.spy_walks(monkeypatch)
        cache = SimCache(2048, 64, 32, 2)  # 16 sets x 2 ways
        exact = SimCache(2048, 64, 32, 2)
        addrs = strided_ring(40 * 64, 64)  # sets 0-7 hold 3 lines, 8-15 hold 2
        warm_lazy(cache, addrs, 64)
        exact.warm_cyclic(addrs, stride=64)
        pending = np.zeros(80, dtype=bool)
        pending[[8, 40]] = True  # line 8 (set 8) in wrap 1, line 0 in wrap 2
        got = _level_hits(cache, addrs, 80, 64, pending)
        assert walked == [cache.name]
        assert np.flatnonzero(got).tolist() == [8]
        assert np.array_equal(got, _pass_filtered(exact, addrs, 80, pending))

    def test_later_warms_break_the_repeat(self, monkeypatch):
        """Two rings warmed after this one: every line of the first
        revolution misses, and each miss evicts a later ring's line, so the
        second revolution hits.  Only the fixed point of the walked ring
        alone repeats its first revolution; this pass walks per load."""
        walked = self.spy_walks(monkeypatch)
        cache = SimCache(2048, 64, 32, 2)  # 16 sets x 2 ways
        exact = SimCache(2048, 64, 32, 2)
        addrs = strided_ring(1024, 64)  # one line per set
        for base in (0, 4096, 8192):  # line-disjoint: three lines per set
            cache.warm_cyclic_lazy(base, 1024, 64)
            exact.warm_cyclic(strided_ring(1024, 64, base), stride=64)
        got = timed_hits(cache, addrs, 40, 64)
        assert walked == [cache.name]
        assert np.flatnonzero(got).tolist() == list(range(16, 40))
        assert np.array_equal(got, chase_reference(exact, addrs, 40))

    @pytest.mark.parametrize("state", ["other_stride", "two_rings", "materialised", "cold"])
    def test_declines_without_the_descriptor(self, state, monkeypatch):
        """Another stride's warm, a later warm sharing the ring's lines or
        installed rows prove nothing, and a flushed level whose pending
        loads miss in the first revolution holds no warm for the later
        ones: the level walks per load, with the exact loop's hits."""
        walked = self.spy_walks(monkeypatch)
        addrs = strided_ring(1024, 64)  # 16 lines: fits
        pending = np.resize([True, False], 40)  # two and a half wraps
        fast, slow = (SimCache(2048, 64, 32, 2) for _ in range(2))
        for cache in (fast, slow):
            if state == "other_stride":
                cache.warm_cyclic_lazy(0, 2048, 128)
            elif state == "two_rings":
                cache.warm_cyclic_lazy(0, 1024, 64)
                cache.warm_cyclic_lazy(512, 1024, 64)
            elif state == "materialised":
                cache.warm_cyclic_lazy(0, 1024, 64)
                cache.resident_lines()
        if state != "cold":
            before = fast._virtual, fast._valid_sets
            assert fast.known_state_hits(addrs, 64, pending[:16]) is None
            assert (fast._virtual, fast._valid_sets) == before
        got = _level_hits(fast, addrs, 40, 64, pending)
        assert walked == [fast.name]
        assert np.array_equal(got, _pass_filtered(slow, addrs, 40, pending))


class TestLevelCascade:
    """A timed pass down a two-level path equals the exact per-load walk.

    Each level answers from the state the flush and the warm left (or the
    flush alone), and the lower level sees only the loads the upper one
    missed: latencies and first-level hits must be the exact engine's
    (:func:`_walk` per load), warmed or cold, within one revolution and
    over many, for any lower-level geometry.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        geometry_and_ring(),
        st.data(),
        st.booleans(),
        st.sampled_from([32, 64, 128]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from(SET_COUNTS),
    )
    def test_matches_the_exact_walk(self, params, data, warmed, line2, sectors2, ways2, sets2):
        size, line, fg, ways, stride, addrs = params
        ring = len(addrs)
        n = data.draw(samples_for(ring))
        fast, slow = (
            LoadPath(
                KIND,
                [
                    (SimCache(size, line, fg, ways), 20.0),
                    (SimCache(sets2 * line2 * ways2, line2, line2 // sectors2, ways2), 110.0),
                ],
                400.0,
            )
            for _ in range(2)
        )
        if warmed:
            for (lazy, _), (eager, _) in zip(fast.levels, slow.levels):
                warm_lazy(lazy, addrs, stride)
                eager.warm_cyclic(addrs, stride=stride)
        lat, first = _walk_many(fast, addrs[: min(ring, n)], n, stride, ring)
        top = slow.levels[0][0]
        want_first, want = np.empty(n, dtype=bool), np.empty(n)
        for i in range(n):
            addr = int(addrs[i % ring])
            want_first[i] = top.probe(addr)
            want[i] = _walk(slow, addr)
        assert np.array_equal(first, want_first)
        assert np.array_equal(lat, want)


class TestSkipSetCounts:
    """Ring-wide per-set line counts for strides above the line size,
    counted per arithmetic progression instead of over the whole ring."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([32, 64, 128]),
        st.sampled_from([1, *SET_COUNTS, 368]),
        st.sampled_from([1, 2, 4]),
        st.data(),
    )
    def test_matches_bincount_of_the_ring(self, line, sets, ways, data):
        stride = data.draw(
            st.one_of(
                st.integers(min_value=line + 1, max_value=9 * line),
                st.sampled_from([3 * line // 2, 5 * line // 4, 2 * line, 3 * line, 8 * line]),
            )
        )
        ring = data.draw(st.integers(min_value=1, max_value=3000))
        a0 = data.draw(st.integers(min_value=0, max_value=1 << 20))
        prefix = data.draw(st.integers(min_value=1, max_value=ring))
        cache = SimCache(sets * line * ways, line, line, ways)
        full = a0 + np.arange(ring, dtype=np.int64) * stride
        want = np.bincount((full // line) % sets, minlength=sets)
        query = full[:prefix] // line
        got = cache._ring_set_counts(a0, ring, stride, query)
        assert np.array_equal(got, want[query % sets])
        every_set = a0 // line + np.arange(sets, dtype=np.int64)
        closed = cache._skip_set_counts(a0, ring, stride, every_set)
        assert np.array_equal(closed, want[every_set % sets])

    def test_a100_l2_ring_is_not_built(self):
        """A 2^20-load line-size ring on an A100 L2 segment: the whole
        ring would take 8 MiB; the counts come from its sampled prefix."""
        cache = SimCache(20 << 20, 128, 32, 16)  # 10240 sets
        ring, stride = 1 << 20, 384
        prefix = 4096 + np.arange(384, dtype=np.int64) * stride
        query = prefix // 128
        tracemalloc.start()
        try:
            got = cache._ring_set_counts(4096, ring, stride, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        full = 4096 + np.arange(ring, dtype=np.int64) * stride
        want = np.bincount((full // 128) % cache.num_sets, minlength=cache.num_sets)
        assert np.array_equal(got, want[query % cache.num_sets])
