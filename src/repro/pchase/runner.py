"""The host-side p-chase driver: buffers, runs, sweeps.

Owns the benchmark buffers (one reusable arena slot per address space, so
repeated sweeps do not exhaust the device allocator) and exposes the three
measurement primitives every Section-IV benchmark builds on:

* :meth:`PChaseRunner.latencies` — one fine-grained p-chase run;
* :meth:`PChaseRunner.sweep` — a latency matrix over array sizes;
* :meth:`PChaseRunner.probe` — cold/warm probe passes for the protocols;
  :meth:`PChaseRunner.pair_rounds` runs a whole all-pairs protocol.

**Every run** follows the paper's recipe literally: flush the device,
warm every cache of the load path once, then the timed pass.  On the
analytic engine the warm after the flush is an O(1) deferred descriptor
(:meth:`SimCache.warm_cyclic_lazy`).  A timed run loads from SM 0,
core 0 and keeps the first ``config.n_samples`` latencies.

One caveat the benchmarks satisfy by construction: after every timed
pass and every probe (:meth:`PChaseRunner.latencies`,
:meth:`PChaseRunner.probe`, :meth:`PChaseRunner.pair_rounds`) the cache
state is unspecified until the next flush, and the analytic engine does
not keep the state the exact engine would leave.  Measurements are
unaffected (every run and every protocol round flushes before it warms),
but a caller that *reads* cache state after a pass or a probe without
flushing first — no benchmark does — would see something else; use
``PChaseConfig(engine="exact")`` when that distinction matters.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.isa import LoadKind, MemorySpace, space_for_kind
from repro.gpusim.kernel import pair_rounds, probe_hits, run_pchase_ex, warm
from repro.pchase.config import PChaseConfig

__all__ = ["PChaseRunner"]

_SHARED_BASE = 1 << 28


def _ring_count(nbytes: int, stride: int) -> int:
    """Loads in one pass over a ``nbytes`` ring; an empty ring is an error."""
    count = nbytes // stride
    if count == 0:
        raise SimulationError("probe array smaller than one stride")
    return count


class PChaseRunner:
    """Stateful driver bound to one simulated device."""

    def __init__(self, device: SimulatedGPU, config: PChaseConfig | None = None) -> None:
        self.device = device
        self.config = config or PChaseConfig()
        self._buffers: dict[tuple[MemorySpace, int], tuple[int, int]] = {}
        #: Run accounting: ``runs`` counts every :meth:`latencies` call
        #: and ``seconds`` the wall time spent inside the kernel.  Every
        #: run flushes first and is one flush + warm, so ``fresh_runs``
        #: and ``full_warms`` equal ``runs``; the layer ledger reads them.
        #: Discovery phase spans carry the ``runs`` and ``seconds`` deltas.
        self.stats = {"runs": 0, "seconds": 0.0, "fresh_runs": 0, "full_warms": 0}

    # ------------------------------------------------------------------ #
    # buffers                                                             #
    # ------------------------------------------------------------------ #

    def buffer(self, kind: LoadKind, nbytes: int, slot: int = 0) -> int:
        """Base address of a buffer large enough for ``nbytes``.

        Buffers are cached per (address space, slot) and only re-allocated
        when they must grow; the cooperative protocols use two slots of
        the same space (arrays A and B of Sections IV-F..H).  The
        shared-memory space needs no arena (loads never touch a cache)
        and uses fixed scratch addresses.
        """
        if nbytes <= 0:
            raise SimulationError("buffer size must be positive")
        space = space_for_kind(kind)
        if space is MemorySpace.SHARED:
            if nbytes > self.device.spec.scratchpad.size:
                raise SimulationError(
                    f"shared buffer of {nbytes} B exceeds the "
                    f"{self.device.spec.scratchpad.size} B scratchpad"
                )
            return _SHARED_BASE + slot * (64 << 10)
        key = (space, slot)
        cached = self._buffers.get(key)
        if cached is not None and cached[1] >= nbytes:
            return cached[0]
        if space is MemorySpace.CONSTANT:
            # The whole constant bank is allocated once — it cannot grow.
            # Slot 1 (the cooperative protocols' array B) lives in the
            # upper half; a full-bank slot-0 sweep and a slot-1 array are
            # never live simultaneously (benchmarks flush between runs).
            limit = self.device.memory.constant_limit
            if (MemorySpace.CONSTANT, 0) not in self._buffers:
                base = self.device.alloc(space, limit)
                self._buffers[(MemorySpace.CONSTANT, 0)] = (base, limit)
            base = self._buffers[(MemorySpace.CONSTANT, 0)][0]
            if slot not in (0, 1):
                raise SimulationError("the constant bank offers two slots")
            offset = 0 if slot == 0 else limit // 2
            if nbytes > limit - offset:
                raise SimulationError(
                    f"constant buffer of {nbytes} B exceeds the available "
                    f"{limit - offset} B of the bank (slot {slot})"
                )
            return base + offset
        # Grow with headroom, so ascending probe chains (doubling ascent,
        # linear sweeps) keep one base address.  The base decides the set
        # mapping of every ring, and therefore what the benchmarks measure.
        granted = max(2 * nbytes, 1 << 16)
        base = self.device.alloc(space, granted)
        self._buffers[key] = (base, granted)
        return base

    # ------------------------------------------------------------------ #
    # measurement primitives                                              #
    # ------------------------------------------------------------------ #

    def latencies(
        self,
        kind: LoadKind,
        nbytes: int,
        stride: int,
        warmup: bool = True,
    ) -> np.ndarray:
        """One flushed p-chase run; returns the first-N observed latencies."""
        base = self.buffer(kind, nbytes)
        stats = self.stats
        run_start = perf_counter()
        lat = run_pchase_ex(
            self.device,
            kind,
            base,
            nbytes,
            stride,
            n_samples=self.config.n_samples,
            warmup=warmup,
            engine=self.config.engine,
        )
        stats["seconds"] += perf_counter() - run_start
        stats["runs"] += 1
        stats["fresh_runs"] += 1
        stats["full_warms"] += 1
        return lat

    def sweep(self, kind: LoadKind, sizes: np.ndarray, stride: int) -> np.ndarray:
        """Latency matrix: one fresh p-chase run per array size."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if sizes.size == 0:
            raise SimulationError("sweep requires at least one size")
        matrix = np.empty((sizes.size, self.config.n_samples), dtype=np.float64)
        for i, size in enumerate(sizes):
            matrix[i] = self.latencies(kind, int(size), stride)
        return matrix

    def warm(
        self,
        kind: LoadKind,
        nbytes: int,
        stride: int,
        core: int = 0,
        slot: int = 0,
    ) -> None:
        """Untimed warm pass over a buffer from SM 0 (protocol building block)."""
        base = self.buffer(kind, nbytes, slot)
        count = _ring_count(nbytes, stride)
        # The first address and the ring length describe the ring; the
        # kernel builds the rest only for a warm that replays every load.
        warm(
            self.device,
            kind,
            np.array([base], dtype=np.int64),
            core=core,
            stride=stride,
            engine=self.config.engine,
            ring=count,
        )

    def probe(
        self,
        kind: LoadKind,
        nbytes: int,
        stride: int,
        n_samples: int | None = None,
        slot: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Timed probe pass (no warm-up): (first-level hits, latencies).

        The probe loads from SM 0, core 0, as every protocol's probing side does.
        """
        base = self.buffer(kind, nbytes, slot)
        n = min(n_samples or self.config.n_samples, _ring_count(nbytes, stride))
        addrs = base + np.arange(n, dtype=np.int64) * stride
        return probe_hits(
            self.device,
            kind,
            addrs,
            stride=stride,
            engine=self.config.engine,
        )

    def pair_rounds(
        self,
        kind: LoadKind,
        nbytes: int,
        stride: int,
        pairs: list[tuple[int, int]],
    ) -> np.ndarray:
        """Warm-A / warm-B / probe-A rounds over (sm, sm) pairs.

        Ring A is slot 0 and ring B slot 1, both ``nbytes`` long; returns
        the probe's first-level miss fraction per pair (see
        :func:`repro.gpusim.kernel.pair_rounds`).
        """
        if not pairs:
            return np.empty(0, dtype=np.float64)
        return pair_rounds(
            self.device,
            kind,
            self.buffer(kind, nbytes, 0),
            self.buffer(kind, nbytes, 1),
            nbytes,
            stride,
            pairs,
            n_samples=self.config.n_samples,
            engine=self.config.engine,
        )
