"""Kernel-execution engine: p-chase, probe and streaming kernels.

These functions are the simulator-side counterparts of the GPU kernels
MT4G launches (paper Section IV):

* :func:`run_pchase_ex` — the fine-grained pointer-chase of Section IV-A:
  a warm-up pass populates the target memory element, then the timed pass
  records the latency of each of the first N dependent loads (the paper
  stores only the first N results because the pattern repeats);
* :func:`warm` / :func:`probe_hits` — the building blocks of the
  cooperative protocols (Amount, Physical-Sharing; Sections IV-F..H),
  which interleave warm-ups and probe passes from different cores/CUs;
* :func:`pair_rounds` — the all-pairs warm-A / warm-B / probe-A rounds
  of the AMD sL1d sharing protocol (Section IV-H): the first round of
  each cache-aliasing class is simulated, every other round replays its
  accounting and noise draws;
* :func:`run_stream_kernel` — the Section IV-I bandwidth kernel: vector
  loads from maximal occupancy, timed with event records.

Two execution engines produce identical results (asserted by tests and
by ``benchmarks/bench_discovery_speed.py``):

* ``engine="analytic"`` (default) answers every pass from the cache
  state it starts from — a fully vectorised hit/latency computation
  with zero per-load Python.  A timed pass starts from a flush and, when
  warmed, its own deferred warm; a protocol probe from a flush and the
  warms its protocol deferred since.  One closed form,
  :meth:`SimCache.known_state_hits`, answers the first revolution at
  every level of either — a lower level sees only the loads that missed
  above it — and later revolutions repeat it, never reach the level, or
  follow from the warm the first revolution of a flushed level leaves.  A level no closed
  form answers walks its loads one by one through
  :meth:`SimCache.access`;
* ``engine="exact"`` walks every load through the per-access simulator
  (the reference implementation the property tests compare against).

Every p-chase follows one path: flush the device, warm each cache of
the load path once (or not at all, for a cold probe), then the timed
pass over a uniform strided ring.  Every ring carries its stride: the
warm, probe and timed passes take it, and the analytic primitives need
it.  The analytic engine records the warm after the flush as an O(1)
deferred descriptor (:meth:`SimCache.warm_cyclic_lazy`).  The simulated
run-time model charges that warm pass at *miss* latency: its loads run
against flushed caches and traverse to the terminal level, and
charging them at hit latency would understate the Section V-A run-time
report.

Engine contract: after a timed pass or a probe the cache state is
unspecified until the next flush.  Every caller flushes before it warms
again, so only the latencies of a pass are data.  The analytic engine
therefore keeps only the state a pass reads while it runs (a per-load
walk over several ring revolutions, or the warm a flushed level's first
revolution leaves) and does not walk side-effect caches; :func:`warm`
still fills them, since a protocol reads them.

All functions account simulated GPU time on the device so the Section V-A
run-time model can report per-benchmark durations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.device import LoadPath, SimulatedGPU
from repro.gpusim.isa import LoadKind, VECTOR_LOAD_BYTES

__all__ = [
    "KernelLaunch",
    "pchase_addresses",
    "run_pchase_ex",
    "warm",
    "probe_hits",
    "pair_rounds",
    "run_stream_kernel",
]

#: Valid measurement engines.
ENGINES = ("analytic", "exact")


@dataclass(frozen=True)
class KernelLaunch:
    """Grid/block shape of a kernel launch."""

    blocks: int
    threads_per_block: int

    def __post_init__(self) -> None:
        if self.blocks <= 0 or self.threads_per_block <= 0:
            raise SimulationError("launch dimensions must be positive")


def pchase_addresses(
    base: int, nbytes: int, stride: int, limit: int | None = None
) -> np.ndarray:
    """Addresses of one pass through a strided p-chase ring.

    The ring is ``nbytes // stride`` loads of ``stride`` bytes from
    ``base``.  ``limit`` keeps only the first ``limit`` addresses — all a
    timed pass of ``limit`` samples reads, since the pattern repeats
    (Section IV-A).  The ring length is then not ``len(result)``; callers
    carry it separately as ``nbytes // stride``.
    """
    if stride <= 0:
        raise SimulationError("stride must be positive")
    if nbytes < stride:
        raise SimulationError(
            f"array of {nbytes} B cannot hold a single {stride} B element"
        )
    count = nbytes // stride
    if limit is not None:
        count = min(count, limit)
    return base + np.arange(count, dtype=np.int64) * stride


def _walk(path: LoadPath, addr: int) -> float:
    """Send one load down the path; returns the true (noise-free) latency."""
    for cache, latency in path.levels:
        if cache.access(addr):
            lat = latency
            break
    else:
        lat = path.terminal_latency
    for cache in path.side_effects:
        cache.access(addr)
    return lat


def _pass_filtered(
    cache, addrs: np.ndarray, n_samples: int, pending: np.ndarray
) -> np.ndarray:
    """Walk the pending loads of a cyclic sequence through a cache, one by one.

    The exact fallback for a level no closed form answers: each pending
    load ``addrs[i % len(addrs)]`` goes through :meth:`SimCache.access` in
    walk order, on whatever state the cache is in.  ``addrs`` may be the
    sampled prefix of a longer ring: a ring longer than ``n_samples`` is
    never wrapped.  Returns a full-length hit vector (False at non-pending
    positions).
    """
    out = np.zeros(n_samples, dtype=bool)
    idx = np.flatnonzero(pending)
    out[idx] = cache.access_many(addrs[idx % len(addrs)])
    return out


def _walk_many(
    path: LoadPath,
    addrs: np.ndarray,
    n_samples: int,
    stride: int,
    ring: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch pass over a cyclic ring: per-load latency vector.

    ``addrs`` starts a ring strided by ``stride``; ``ring`` is the ring
    length when ``addrs`` holds only the sampled prefix (its first
    ``min(ring, n_samples)`` addresses); ``None`` means ``addrs`` is the
    whole ring.  The pass is the first ``n_samples`` loads of the walk
    ``addrs[i % ring]``, from any cache state: a timed p-chase starts
    from a flush, alone or followed by one warm of its own ring, and a
    protocol probe (one revolution) from a flush and its protocol's warms.

    Combines the per-level hit vectors into one latency vector: a load
    observes the latency of the first level it hits, and levels below a
    hit are not accessed (the ``pending`` cascade).  Each level answers
    its first revolution by :meth:`SimCache.known_state_hits`, and later
    revolutions from that state alone (:func:`_level_hits`).  A level no
    closed form answers walks its pending loads one by one
    (:func:`_pass_filtered`); no preset's discovery reaches that
    fallback.

    The path has at least one level.  Returns ``(latencies,
    first_level_hits)``; the caches are left in an unspecified state,
    which the next flush discards.  Side-effect caches are not walked:
    nothing reads what a pass would leave in them.
    """
    n = int(n_samples)
    rev = addrs[: min(n, len(addrs) if ring is None else int(ring))]
    lat = np.full(n, path.terminal_latency, dtype=np.float64)
    pending = np.ones(n, dtype=bool)
    first_hits = None
    for level_idx, (cache, level_lat) in enumerate(path.levels):
        hits = _level_hits(cache, rev, n, stride, pending)
        if level_idx == 0:
            first_hits = hits
        lat[pending & hits] = level_lat
        pending &= ~hits
    return lat, first_hits


def _level_hits(
    cache, rev: np.ndarray, n: int, stride: int, pending: np.ndarray
) -> np.ndarray:
    """One level's hits over the ``n`` loads of a pass (see :func:`_walk_many`).

    ``rev`` is one revolution.  Past it (``n > len(rev)``) a level that
    no later load reaches answers its first revolution alone: loads it
    never sees cannot change it.  A level repeats its first revolution
    when every load reaches it over its ring's warm fixed point, or when
    every pending load hits (no line is evicted, and later revolutions
    load no line the first did not).  A flushed level that every load
    reaches holds after one revolution what one warm installs, so the
    warm is recorded and the later revolutions are answered from it.
    """
    p = rev.size
    head = pending[:p]
    hits = cache.known_state_hits(rev, stride, head)
    if hits is None:
        return _pass_filtered(cache, rev, n, pending)
    if n == p:
        return hits
    if not pending[p:].any():  # the level never sees a later revolution
        return np.concatenate([hits, np.zeros(n - p, dtype=bool)])
    if pending.all():
        v = cache._virtual
        if v is None:
            cache.warm_cyclic_lazy(int(rev[0]), p * stride, stride)
            rest = cache.known_state_hits(rev, stride, head)
            return np.concatenate([hits, np.resize(rest, n - p)])
        if len(v[1]) == 1 and v[1][0][1] // stride == p:  # this ring's fixed point
            return np.resize(hits, n)
    # Every pending load of the first revolution hit, and no later one
    # loads a position the first did not: nothing is ever evicted.
    if np.array_equal(hits, head) and (pending <= np.resize(head, n)).all():
        return pending.copy()
    return _pass_filtered(cache, rev, n, pending)


def warm(
    device: SimulatedGPU,
    kind: LoadKind,
    addrs: np.ndarray,
    sm: int = 0,
    core: int = 0,
    *,
    stride: int,
    engine: str = "analytic",
    ring: int | None = None,
) -> None:
    """One untimed pass over a strided ring: populate every cache on the path.

    The analytic engine defers the warm per cache
    (:meth:`SimCache.warm_cyclic_lazy`): protocols warm caches on the
    whole path but typically probe only the first level, and the next
    flush discards the untouched warms for free.  The deferred warm needs
    only ``addrs[0]`` and the ring length, so ``addrs`` may be a prefix
    when ``ring`` gives the true length; the exact engine builds the
    whole ring and replays it.
    """
    n_ring = len(addrs) if ring is None else int(ring)
    if n_ring == 0:
        raise SimulationError("warm ring is empty")
    path = device.resolve_path(kind, sm, core)
    caches = [c for c, _ in path.levels] + list(path.side_effects)
    if engine == "analytic":
        for cache in caches:
            cache.warm_cyclic_lazy(int(addrs[0]), n_ring * stride, stride)
    else:
        if len(addrs) < n_ring:
            addrs = pchase_addresses(int(addrs[0]), n_ring * stride, stride)
        for cache in caches:
            cache.warm_cyclic(addrs, stride=stride)
    device.account_loads(n_ring, _warm_cycles(path, n_ring))


def _warm_cycles(path: LoadPath, n_ring: int) -> float:
    """Cycles charged for one protocol warm of an ``n_ring``-load ring.

    Protocol warms are charged at first-level hit latency irrespective
    of cache state (the run_pchase_ex cold-warm miss surcharge relies on
    knowing a flush preceded; a standalone warm cannot know that).
    """
    first_latency = path.levels[0][1] if path.levels else path.terminal_latency
    return n_ring * first_latency


def _probe_walk(
    path: LoadPath, addrs: np.ndarray, stride: int, engine: str
) -> tuple[np.ndarray, np.ndarray]:
    """One probe pass down a path: (first-level hits, noise-free latencies).

    The analytic engine batches the pass level by level (see
    :func:`probe_hits`); the exact engine walks every load.
    """
    n = len(addrs)
    if not path.levels:
        return np.ones(n, dtype=bool), np.full(n, float(path.terminal_latency))
    if engine == "analytic":
        lat, first_hits = _walk_many(path, np.asarray(addrs, dtype=np.int64), n, stride)
        return first_hits, lat
    hits = np.empty(n, dtype=bool)
    base = np.empty(n, dtype=np.float64)
    first_cache = path.levels[0][0]
    for i, addr in enumerate(addrs):
        addr = int(addr)
        hits[i] = first_cache.probe(addr)
        base[i] = _walk(path, addr)
    return hits, base


def probe_hits(
    device: SimulatedGPU,
    kind: LoadKind,
    addrs: np.ndarray,
    sm: int = 0,
    core: int = 0,
    *,
    stride: int,
    engine: str = "analytic",
) -> tuple[np.ndarray, np.ndarray]:
    """Timed probe pass: per-load (first-level hit?, observed latency).

    The hit booleans refer to the *first* cache level of the path — the
    cooperative protocols ask "did my data survive in the target cache?".
    The observed latencies include measurement noise, exactly what a real
    evaluation would have to threshold.

    The analytic engine batches the pass level by level.  ``addrs`` is
    one revolution of a ring strided by ``stride`` (a prefix of the ring
    :func:`warm` takes).  Each level is answered in closed form by
    :meth:`SimCache.known_state_hits` from what the protocol did since
    its flush — nothing, or deferred warms of line-disjoint rings, the
    probed one among them (the usual round: warm A, warm B elsewhere or
    in the same cache, probe A) — without materialising any rows.  A
    level in another state walks the loads it sees one by one through
    :meth:`SimCache.access`; a probe immediately precedes its own load,
    so the probe outcome *is* the first-level hit outcome of the walk.
    """
    path = device.resolve_path(kind, sm, core)
    hits, base = _probe_walk(path, addrs, stride, engine)
    device.account_loads(len(addrs), float(base.sum()))
    return hits, device.noise.perturb(base)


def _class_parts(path: LoadPath) -> tuple[tuple, tuple, tuple[int, ...]]:
    """One SM/CU's share of a pair's aliasing class (see :func:`pair_rounds`).

    Returns the path's signature as the probing side A (per cache its
    geometry and hit latency, then the terminal latency), as the warming
    side B (its level and terminal latencies: B's warm is charged at its
    first-level latency), and the identities of its caches.
    """
    caches = [c for c, _ in path.levels] + list(path.side_effects)
    lats = [lat for _, lat in path.levels] + [None] * len(path.side_effects)
    as_a = tuple(
        (c.size, c.line_size, c.fetch_granularity, c.ways, lat)
        for c, lat in zip(caches, lats)
    ) + (path.terminal_latency,)
    as_b = tuple(lat for _, lat in path.levels) + (path.terminal_latency,)
    return as_a, as_b, tuple(id(c) for c in caches)


def pair_rounds(
    device: SimulatedGPU,
    kind: LoadKind,
    base_a: int,
    base_b: int,
    nbytes: int,
    stride: int,
    pairs: list[tuple[int, int]],
    n_samples: int,
    engine: str = "analytic",
) -> np.ndarray:
    """Cooperative rounds over SM/CU pairs: first-level miss fraction per pair.

    Round ``(a, b)`` is the Section IV-H protocol step: flush the device,
    warm ring A (``base_a``) from ``a``, warm ring B (``base_b``, same
    size and stride) from ``b``, then probe the first ``n_samples`` loads
    of ring A from ``a``.  The result is the share of probe loads that
    missed the first cache of ``a``'s path.

    After the flush, a round's probe outcome and its charged cycles are a
    function of the pair's *aliasing class* alone: for each cache on
    ``a``'s path, its geometry and latency and which cache on ``b``'s path
    (if any) is the same object, plus both paths' latencies.  Two pairs of
    one class start from empty caches and replay the same loads into equal
    caches.  So the first round of each class is simulated, and every
    later round of that class replays only what it leaves observable, in
    the original order: the flush's ``op_serial`` bump, the three
    :meth:`SimulatedGPU.account_loads` charges with the representative's
    exact floats, and one ``device.noise.perturb`` of the probe's samples,
    whose output the protocol discards but whose draws advance the device
    generator.

    Every path must be fixed per SM (:meth:`SimulatedGPU.resolve_path`
    stores it); a path that re-draws side effects on each resolve, like
    the P6000 constant path, has no classes.
    """
    out = np.empty(len(pairs), dtype=np.float64)
    if not pairs:
        return out
    count = nbytes // stride
    if count == 0:
        raise SimulationError("probe array smaller than one stride")
    n = min(int(n_samples), count)
    probe_addrs = base_a + np.arange(n, dtype=np.int64) * stride
    head_a = np.array([base_a], dtype=np.int64)
    head_b = np.array([base_b], dtype=np.int64)
    # Resolve in the order the literal loop first touches each SM/CU.
    order = dict.fromkeys(sm for pair in pairs for sm in pair)
    paths = {sm: device.resolve_path(kind, sm) for sm in order}
    parts = {sm: _class_parts(path) for sm, path in paths.items()}
    slots = {sm: {c: j for j, c in enumerate(ids)} for sm, (_, _, ids) in parts.items()}
    warm_cycles = {sm: _warm_cycles(path, count) for sm, path in paths.items()}
    classes: dict[tuple, tuple[float, np.ndarray, float]] = {}
    for i, (a, b) in enumerate(pairs):
        as_a, _, ids_a = parts[a]
        _, as_b, _ = parts[b]
        key = (as_a, as_b, tuple(map(slots[b].get, ids_a)))
        known = classes.get(key)
        if known is None:
            device.flush_caches()
            warm(device, kind, head_a, sm=a, stride=stride, engine=engine, ring=count)
            warm(device, kind, head_b, sm=b, stride=stride, engine=engine, ring=count)
            hits, base = _probe_walk(paths[a], probe_addrs, stride, engine)
            known = classes[key] = (float(np.mean(~hits)), base, float(base.sum()))
        else:
            device.op_serial += 1  # the flush
            device.account_loads(count, warm_cycles[a])
            device.account_loads(count, warm_cycles[b])
        miss, base, probe_cycles = known
        device.account_loads(n, probe_cycles)
        device.noise.perturb(base)
        out[i] = miss
    return out


def run_pchase_ex(
    device: SimulatedGPU,
    kind: LoadKind,
    base: int,
    nbytes: int,
    stride: int,
    n_samples: int,
    warmup: bool = True,
    engine: str = "analytic",
) -> np.ndarray:
    """Fine-grained p-chase from SM 0, core 0: the first ``n_samples`` latencies.

    Follows the paper's recipe: flush the device's caches, with
    ``warmup`` one untimed pass over the whole ring (a repeated cyclic
    warm is an LRU fixed point, so one pass makes the array resident in
    the benchmarked element), then a timed pass whose first N per-load
    latencies are recorded (wrapping around the ring if N exceeds the
    element count).

    Only the sampled addresses are generated: the timed pass reads at
    most the first ``min(ring, n_samples)`` of them, and the ring length
    ``nbytes // stride`` travels separately.  The whole ring is built
    only for the exact engine's warm, which replays it load by load.
    """
    if n_samples <= 0:
        raise SimulationError("n_samples must be positive")
    if engine not in ENGINES:
        raise SimulationError(f"unknown engine {engine!r}; valid: {ENGINES}")
    analytic = engine == "analytic"
    device.flush_caches()
    path = device.resolve_path(kind)
    if not path.levels:
        # Scratchpad: constant latency, no cache dynamics.
        base_lat = np.full(n_samples, path.terminal_latency)
        device.account_loads(n_samples, float(base_lat.sum()))
        return device.noise.perturb(base_lat)

    addrs = pchase_addresses(base, nbytes, stride, limit=n_samples)
    n_ring = nbytes // stride
    caches = [c for c, _ in path.levels] + list(path.side_effects)
    if analytic:
        if warmup:
            # The warm after the flush is a deferred descriptor — O(1).
            for cache in caches:
                cache.warm_cyclic_lazy(base, nbytes, stride)
        base_lat, _ = _walk_many(path, addrs, n_samples, stride, n_ring)
    else:
        if warmup:
            ring_addrs = pchase_addresses(base, nbytes, stride)
            for cache in caches:
                cache.warm_cyclic(ring_addrs, stride=stride)
        base_lat = np.empty(n_samples, dtype=np.float64)
        for i in range(n_samples):
            base_lat[i] = _walk(path, int(addrs[i % n_ring]))

    # Run-time model (Section V-A): the warm pass after the flush runs
    # against cold caches and is charged at terminal (miss) latency, as a
    # hit-latency pass plus the miss surcharge: ``n_ring * terminal_latency``
    # rounds differently and would move the reported simulated times.
    loads, cycles = n_samples, float(base_lat.sum())
    if warmup:
        first = path.levels[0][1]
        loads += n_ring
        cycles += n_ring * first + n_ring * (path.terminal_latency - first)
    device.account_loads(loads, cycles)
    return device.noise.perturb(base_lat)


def run_stream_kernel(
    device: SimulatedGPU,
    level: str,
    op: str = "read",
    nbytes: int | None = None,
    launch: KernelLaunch | None = None,
    vector_bytes: int = VECTOR_LOAD_BYTES,
) -> float:
    """Streaming bandwidth kernel (Section IV-I); returns bytes/second.

    Defaults follow the paper's heuristics: ``num_SMs *
    max_blocks_per_SM`` blocks of ``max_threads_per_block`` threads using
    128-bit vector loads, a working set 4x the target level, timed with
    event records around a device-synchronised launch.
    """
    c = device.spec.compute
    if launch is None:
        launch = KernelLaunch(
            blocks=device.bandwidth.optimal_blocks,
            threads_per_block=c.max_threads_per_block,
        )
    if nbytes is None:
        cap = (
            device.spec.memory.size // 64
            if level == "DeviceMemory"
            else device.spec.cache(level).size * device.spec.cache(level).segments
        )
        # Loop over the level-resident buffer until the launch overhead is
        # negligible against the transfer time (real stream benchmarks
        # re-walk an L2-resident array many times for exactly this reason).
        nbytes = max(int(cap) * 4, 1 << 30)
    seconds = device.bandwidth.kernel_seconds(
        nbytes,
        level,
        op,
        blocks=launch.blocks,
        threads_per_block=launch.threads_per_block,
        vector_bytes=vector_bytes,
        mig=device.mig if device.mig.profile != "full" else None,
    )
    event = device.clock.event()
    device.clock.advance_seconds(seconds)
    elapsed = device.clock.stop(event)
    device.total_loads += nbytes // max(vector_bytes, 1)
    return nbytes / elapsed
