"""Property tests for the batch/analytic measurement engine.

The analytic primitives — :meth:`SimCache.chase_cyclic`,
:meth:`SimCache.known_state_hits`, the deferred warm state
(:meth:`warm_fixed_point` / :meth:`warm_cyclic_lazy`) and the
incremental suffix-extension warm — must be *access-for-access*
equivalent to the exact :meth:`SimCache.access` loop: the same
hit/miss vector, and for the warms the same end state (snapshot).  A
timed pass's or probe's end state is unspecified until the next flush,
so their tests compare hits only.  These tests pin that equivalence over
randomized cache geometries, strides, ring sizes, sample counts
(including multi-wrap chases), warm/cold starts and post-flush
generations.  A protocol probe answered in closed form from a flushed
cache or from its protocol's deferred warms must match the exact loop
and be indistinguishable from one that materialises the rows and walks
the loads, a timed pass handed only the sampled prefix of its ring must
be indistinguishable from one handed the whole ring, a warm that skips
the per-set replay for lines outside the resident [min, max] tag bound
must still land on the exact end state, and a warmed pass over a ring
that fits the cache, answered in closed form, must be indistinguishable
from the general per-set analysis.  A lower level answered from its
warm descriptor must match the per-load walk on materialised rows, and
the closed-form per-set line counts of a ring strided above the line
size must match counting the whole ring.  Set counts include
non-powers of two, as real caches have.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.cache import SimCache
from repro.gpusim.device import LoadPath, SimulatedGPU
from repro.gpusim.isa import LoadKind
from repro.gpusim.kernel import _pass_filtered, _walk_many, probe_hits, warm


def strided_ring(nbytes: int, stride: int, base: int = 0) -> np.ndarray:
    return base + np.arange(max(1, nbytes // stride), dtype=np.int64) * stride


def chase_reference(cache: SimCache, addrs: np.ndarray, n: int) -> np.ndarray:
    """The exact timed pass: per-load access over the cyclic walk."""
    ring = len(addrs)
    return np.fromiter(
        (cache.access(int(addrs[i % ring])) for i in range(n)), dtype=bool, count=n
    )


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
    @settings(max_examples=150, deadline=None)
    @given(geometry_and_ring(), st.integers(min_value=1, max_value=900))
    def test_warmed_equivalence(self, params, n_samples):
        """Warmed chase == exact loop: hits."""
        size, line, fg, ways, stride, addrs = params
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        analytic.warm_cyclic(addrs, stride=stride)
        exact.warm_cyclic(addrs, stride=stride)
        hits = analytic.chase_cyclic(addrs, n_samples, warmed=True, stride=stride)
        ref = chase_reference(exact, addrs, n_samples)
        assert hits is not None
        assert (hits == ref).all()

    @settings(max_examples=100, deadline=None)
    @given(geometry_and_ring(), st.integers(min_value=1, max_value=900))
    def test_cold_equivalence(self, params, n_samples):
        """Cold (flushed) chase == exact loop, including the first wrap."""
        size, line, fg, ways, stride, addrs = params
        analytic = SimCache(size, line, fg, ways)
        exact = SimCache(size, line, fg, ways)
        hits = analytic.chase_cyclic(addrs, n_samples, warmed=False, stride=stride)
        ref = chase_reference(exact, addrs, n_samples)
        assert hits is not None
        assert (hits == ref).all()

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
        analytic.warm_cyclic(addrs, stride=stride)
        exact.warm_cyclic(addrs, stride=stride)
        hits = analytic.chase_cyclic(addrs, n_samples, warmed=True, stride=stride)
        ref = chase_reference(exact, addrs, n_samples)
        assert hits is not None
        assert (hits == ref).all()

    def test_cold_mode_rejects_dirty_cache(self):
        cache = SimCache(1024, 64, 32, 2)
        cache.access(0)
        assert (
            cache.chase_cyclic(strided_ring(512, 32), 8, warmed=False, stride=32) is None
        )


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
    """n_samples far beyond the ring length wraps with the steady pattern."""
    cache = SimCache(2048, 64, 32, 2)
    exact = SimCache(2048, 64, 32, 2)
    addrs = strided_ring(1600, stride)
    cache.warm_cyclic(addrs, stride=stride)
    exact.warm_cyclic(addrs, stride=stride)
    hits = cache.chase_cyclic(addrs, 7 * len(addrs) + 3, warmed=True, stride=stride)
    ref = chase_reference(exact, addrs, 7 * len(addrs) + 3)
    assert (hits == ref).all()


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
        assert l1.holds_fixed_point(4096, 1536, 32)
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
        l1.warm_fixed_point(0, 1536, 32)
        l2.warm_fixed_point(0, 1536, 32)
        path = LoadPath(self.KIND, [(l1, 20.0), (l2, 110.0)], 400.0)
        lat, first = _walk_many(path, addrs, len(addrs) + 3, True, 32)
        assert first.all() and (lat == 20.0).all()
        assert l1.holds_fixed_point(0, 1536, 32)
        assert l1._valid_sets == 0
        hits = l1.chase_cyclic(addrs, len(addrs) + 3, warmed=True, stride=32)
        assert hits.all()
        assert l1.holds_fixed_point(0, 1536, 32)


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
        for i, (base, nbytes, ring_stride) in enumerate(rings):
            if i == 0:
                cache.warm_fixed_point(base, nbytes, ring_stride)
            else:
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
    :meth:`SimCache.chase_cyclic` and the per-load walker — must behave
    exactly as when handed the whole ring, in every cache state a timed
    pass or a protocol probe can start from.
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
            if state in ("fixed_point", "unknown_descriptor"):
                cache.warm_fixed_point(base, nbytes, stride)
            elif state == "unknown":
                # Foreign lines overlapping the ring's start, then one
                # unflushed warm of the ring: a mixed arbitrary state.
                foreign = strided_ring(2 * size, line, max(0, base - size))
                cache.warm_cyclic(foreign, stride=line)
                cache.warm_cyclic(addrs, stride=stride)
        warmed = {"fixed_point": True, "cold": False}.get(state)
        ring = len(addrs)
        lat, first = _walk_many(
            dev.resolve_path(self.KIND),
            addrs[: min(ring, n)] if prefix else addrs,
            n,
            warmed,
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
        st.sampled_from(["fixed_point", "cold", "unknown", "unknown_descriptor"]),
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
    def test_chase_cyclic_prefix_matches_whole_ring(self, params, data, warmed):
        size, line, fg, ways, stride, addrs = params
        ring = len(addrs)
        n = data.draw(samples_for(ring))
        caches = [SimCache(size, line, fg, ways) for _ in range(2)]
        hits = []
        for cache, arg, ring_arg in zip(caches, (addrs[: min(ring, n)], addrs), (ring, None)):
            if warmed:
                cache.warm_cyclic(addrs, stride=stride)
            hits.append(
                cache.chase_cyclic(arg, n, warmed=warmed, stride=stride, ring=ring_arg)
            )
        assert np.array_equal(hits[0], hits[1])
        assert caches[0].snapshot() == caches[1].snapshot()


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
        monkeypatch.setattr(
            SimCache, "_replay_merge", lambda self, lines, *_: replayed.append(lines)
        )
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
    on every load (the capacity cliff), answered without the per-set
    analysis: hits and end state equal the general path's."""

    @staticmethod
    def run(cls, geom, stride, a0, ring, n, state):
        cache = cls(*geom)
        addrs = a0 + np.arange(min(ring, n), dtype=np.int64) * stride
        if state == "descriptor":
            cache.warm_fixed_point(a0, ring * stride, stride)
        elif state == "materialised":
            cache.warm_cyclic(a0 + np.arange(ring, dtype=np.int64) * stride, stride=stride)
        hits = cache.chase_cyclic(
            addrs, n, warmed=state != "cold", stride=stride, ring=ring
        )
        return hits, cache.snapshot()

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
        assert np.array_equal(fast[0], slow[0])
        assert fast[1] == slow[1]
        sets, ways = geom[0] // (geom[1] * geom[3]), geom[3]
        if state != "cold" and lines <= sets * ways:
            assert fast[0].all()

    def test_fitting_ring_skips_the_set_counts(self, monkeypatch):
        counted = []
        original = SimCache._ring_set_counts

        def spy(self, *args):
            counted.append(args[1])
            return original(self, *args)

        monkeypatch.setattr(SimCache, "_ring_set_counts", spy)
        geom = (2048, 64, 32, 2)  # 16 sets x 2 ways = 32 lines
        for state in ("descriptor", "materialised"):
            for n in (100, 128, 6 * 64):
                self.run(SimCache, geom, 32, 0, 64, n, state)
        assert counted == []
        # Controls: one line more, a stride above the line.
        self.run(SimCache, geom, 32, 0, 66, 100, "descriptor")
        self.run(SimCache, geom, 128, 0, 16, 100, "descriptor")
        assert counted == [66, 16]


class TestFixedPointHits:
    """A lower level of a fresh warmed p-chase, answered from its descriptor.

    :meth:`SimCache.fixed_point_hits` must give the hits the per-load
    walker gives on the materialised fixed point while its descriptor
    stays deferred, and must decline, leaving everything as it was,
    whenever a pending load lies in an over-subscribed set.
    """

    @staticmethod
    def at_fixed_point(geom, ring_addrs, stride):
        cache = SimCache(*geom)
        cache.warm_fixed_point(int(ring_addrs[0]), len(ring_addrs) * stride, stride)
        return cache

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
        pending = rng.random(n) < data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        if data.draw(st.booleans()):
            pending &= fits
        fast = self.at_fixed_point(geom, ring_addrs, stride)
        slow = self.at_fixed_point(geom, ring_addrs, stride)
        got = fast.fixed_point_hits(addrs, ring, stride, pending)
        assert fast.holds_fixed_point(int(addrs[0]), ring * stride, stride)
        assert fast._valid_sets == 0
        if (pending & ~fits).any():
            assert got is None
            return
        want = _pass_filtered(slow, addrs, n, pending)
        slow.warm_fixed_point(int(addrs[0]), ring * stride, stride)
        assert got is not None
        assert np.array_equal(got, want)
        assert fast.snapshot() == slow.snapshot()

    def test_declines_an_oversubscribed_set_untouched(self):
        cache = SimCache(2048, 64, 32, 2)  # 16 sets x 2 ways
        addrs = strided_ring(3 * 1024, 1024)  # three lines, all in set 0
        cache.warm_fixed_point(0, 3 * 1024, 1024)
        pending = np.array([False, True, False, False])  # one wrap + 1
        assert cache.fixed_point_hits(addrs, 3, 1024, pending) is None
        assert cache.holds_fixed_point(0, 3 * 1024, 1024)
        assert cache._valid_sets == 0

    @pytest.mark.parametrize("state", ["other_stride", "two_rings", "materialised", "cold"])
    def test_declines_without_the_descriptor(self, state):
        cache = SimCache(2048, 64, 32, 2)
        addrs = strided_ring(1024, 64)  # 16 lines: fits
        if state == "other_stride":
            cache.warm_fixed_point(0, 2048, 128)
        elif state == "two_rings":
            cache.warm_fixed_point(0, 1024, 64)
            cache.warm_cyclic_lazy(4096, 1024, 64)
        elif state == "materialised":
            cache.warm_fixed_point(0, 1024, 64)
            cache.resident_lines()
        before = cache._virtual, cache._valid_sets
        assert cache.fixed_point_hits(addrs, 16, 64, np.ones(16, dtype=bool)) is None
        assert (cache._virtual, cache._valid_sets) == before


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
        got = cache._ring_set_counts(full[:prefix], ring, stride, query)
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
            got = cache._ring_set_counts(prefix, ring, stride, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        full = 4096 + np.arange(ring, dtype=np.int64) * stride
        want = np.bincount((full // 128) % cache.num_sets, minlength=cache.num_sets)
        assert np.array_equal(got, want[query % cache.num_sets])
