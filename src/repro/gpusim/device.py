"""The simulated GPU device: wiring of caches, SMs, memory and clocks.

:class:`SimulatedGPU` stands in for the physical machines of the paper's
Table II.  It resolves every :class:`~repro.gpusim.isa.LoadKind` onto the
ordered cache path that load traverses (the semantic content of the
paper's inline-assembly listings), owns the lazily-instantiated cache
instances (per SM, per L2/L3 segment, per sL1d CU group), enforces the
scheduling constraints the Section V anomalies stem from, and accounts
simulated time for the Section V-A run-time model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulingError, SimulationError
from repro.gpusim.bandwidth import BandwidthModel
from repro.gpusim.cache import SimCache
from repro.gpusim.clock import CycleClock
from repro.gpusim.isa import LoadKind, MemorySpace, space_for_kind
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.mig import MIGState, resolve_mig
from repro.gpusim.noise import NoiseModel
from repro.gpusim.smcore import SMCore
from repro.gpuspec.spec import CacheScope, CacheSpec, GPUSpec, Quirk, Vendor

__all__ = ["SimulatedGPU", "LoadPath"]


@dataclass
class LoadPath:
    """Resolved route of a load: caches tried in order, then memory.

    ``levels`` pairs each cache with the latency *observed on a hit at
    that level via this logical path* (the paper's Table III shows e.g.
    L1=38 but Readonly=35 cycles through the same silicon on the H100).
    ``side_effects`` are caches that get filled but add no latency —
    used to model the P6000's flaky constant-path cross-talk.
    """

    kind: LoadKind
    levels: list[tuple[SimCache, float]]
    terminal_latency: float
    side_effects: list[SimCache] = field(default_factory=list)


class SimulatedGPU:
    """A complete simulated device built from a :class:`GPUSpec`.

    Parameters
    ----------
    spec:
        Hardware description (see :mod:`repro.gpuspec.presets`).
    seed:
        Seeds all stochastic behaviour (noise, quirk coin-flips).
    cache_config:
        NVIDIA L1/shared carveout: ``PreferL1`` (default, as in the
        paper's Section V), ``PreferShared`` or ``PreferEqual``.
    contention:
        0.0 models the paper's exclusive-GPU assumption; positive values
        inject co-tenant interference (failure testing).
    mig_profile:
        Optional MIG instance to present instead of the full GPU.
    """

    def __init__(
        self,
        spec: GPUSpec,
        *,
        seed: int = 0,
        cache_config: str = "PreferL1",
        contention: float = 0.0,
        mig_profile: str | None = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.cache_config = cache_config
        self.rng = np.random.default_rng(seed)
        self._quirk_rng = np.random.default_rng(seed + 0x9E3779B9)
        self.noise = NoiseModel(spec.noise, self.rng, contention_factor=contention)
        self.clock = CycleClock(spec.core_clock_hz)
        self.memory = DeviceMemory(spec.memory)
        self.bandwidth = BandwidthModel(spec, self.rng)
        self.mig: MIGState = resolve_mig(spec, mig_profile)
        self._sms: dict[int, SMCore] = {}
        self._gpu_caches: dict[tuple[str, int], SimCache] = {}
        self._cu_group_caches: dict[int, SimCache] = {}
        self._l2_fetch_granularity_override: int | None = None
        # Resolved load paths by (kind, sm, core); see resolve_path.
        self._paths: dict[tuple[LoadKind, int, int], LoadPath] = {}
        self.total_loads = 0
        # Monotone counter bumped by every accounted kernel operation and
        # every flush; part of the device state a cache key fingerprints.
        self.op_serial = 0

    @classmethod
    def from_preset(cls, name: str, **kwargs) -> "SimulatedGPU":
        from repro.gpuspec.presets import get_preset

        return cls(get_preset(name), **kwargs)

    # ------------------------------------------------------------------ #
    # identity                                                            #
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def vendor(self) -> Vendor:
        return self.spec.vendor

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedGPU({self.spec.name!r}, seed={self.seed})"

    # ------------------------------------------------------------------ #
    # compute resources                                                   #
    # ------------------------------------------------------------------ #

    def sm(self, index: int) -> SMCore:
        core = self._sms.get(index)
        if core is None:
            if not 0 <= index < self.visible_sms:
                raise SimulationError(
                    f"SM {index} out of range (instance exposes {self.visible_sms})"
                )
            core = SMCore(self.spec, index, self.cache_config)
            self._sms[index] = core
        return core

    @property
    def visible_sms(self) -> int:
        return self.mig.visible_sms(self.spec)

    def pin_block_to_cu(self, logical_cu: int) -> int:
        """Pin a thread block onto a CU; returns its *physical* id.

        AMD-only (paper Section IV-H).  Raises :class:`SchedulingError`
        under virtualization (MI300X VF, paper Section V item 1) or for
        out-of-range ids.
        """
        if self.vendor is not Vendor.AMD:
            raise SchedulingError("CU pinning is an AMD-only operation")
        if Quirk.VIRTUALIZED in self.spec.quirks:
            raise SchedulingError(
                f"{self.name}: virtualized GPU access — thread blocks "
                "cannot be pinned to specific CU ids"
            )
        ids = self.spec.compute.physical_cu_ids
        if not 0 <= logical_cu < self.spec.compute.num_sms:
            raise SchedulingError(f"CU {logical_cu} out of range")
        return ids[logical_cu] if ids else logical_cu

    # ------------------------------------------------------------------ #
    # cache instances                                                     #
    # ------------------------------------------------------------------ #

    def _gpu_cache(self, cache_spec: CacheSpec, segment: int) -> SimCache:
        key = (cache_spec.effective_physical_id, segment)
        cache = self._gpu_caches.get(key)
        if cache is None:
            fg = cache_spec.fetch_granularity
            if cache_spec.name == "L2" and self._l2_fetch_granularity_override:
                fg = self._l2_fetch_granularity_override
            cache = SimCache(
                size=cache_spec.size,
                line_size=cache_spec.line_size,
                fetch_granularity=fg,
                ways=cache_spec.ways,
                name=f"{cache_spec.name}.{segment}",
            )
            self._gpu_caches[key] = cache
        return cache

    def set_limit(self, limit: str, value: int) -> None:
        """``cudaDeviceSetLimit``-style runtime knob.

        Newer NVIDIA parts expose a configurable L2 fetch granularity
        (paper Section IV-D); setting it rebuilds the L2 instances so the
        next benchmark observes the new transaction size.
        """
        if limit != "l2_fetch_granularity":
            raise SimulationError(f"unknown device limit {limit!r}")
        if self.vendor is not Vendor.NVIDIA:
            raise SimulationError("the L2 fetch granularity knob is NVIDIA-only")
        l2 = self.spec.cache("L2")
        if value <= 0 or l2.line_size % value:
            raise SimulationError(
                f"L2 fetch granularity must divide the {l2.line_size} B line"
            )
        self._l2_fetch_granularity_override = int(value)
        stale = [k for k in self._gpu_caches if k[0] == l2.effective_physical_id]
        for key in stale:
            del self._gpu_caches[key]
        self._paths.clear()

    def l2_segment_of_sm(self, sm: int) -> int:
        """Which L2 segment an SM is wired to (paper footnote 13)."""
        l2 = self.spec.cache("L2")
        return (sm * l2.segments) // self.spec.compute.num_sms

    def l2_cache_for_sm(self, sm: int) -> SimCache:
        return self._gpu_cache(self.spec.cache("L2"), self.l2_segment_of_sm(sm))

    def sl1d_group_of_cu(self, logical_cu: int) -> int:
        """The sL1d sharing-group id of a CU (by *physical* id)."""
        sl1d = self.spec.cache("sL1d")
        ids = self.spec.compute.physical_cu_ids
        phys = ids[logical_cu] if ids else logical_cu
        return phys // sl1d.cu_share_group

    def sl1d_cache_for_cu(self, logical_cu: int) -> SimCache:
        group = self.sl1d_group_of_cu(logical_cu)
        cache = self._cu_group_caches.get(group)
        if cache is None:
            spec = self.spec.cache("sL1d")
            cache = SimCache(
                size=spec.size,
                line_size=spec.line_size,
                fetch_granularity=spec.fetch_granularity,
                ways=spec.ways,
                name=f"sL1d.group{group}",
            )
            self._cu_group_caches[group] = cache
        return cache

    def cache_instance(self, name: str, sm: int = 0, core: int = 0) -> SimCache:
        """The physical instance behind a logical cache name for (sm, core)."""
        cache_spec = self.spec.cache(name)
        if cache_spec.scope is CacheScope.SM:
            return self.sm(sm).cache_for(cache_spec, core)
        if cache_spec.scope is CacheScope.CU_GROUP:
            return self.sl1d_cache_for_cu(sm)
        if name == "L2":
            return self.l2_cache_for_sm(sm)
        return self._gpu_cache(cache_spec, 0)

    def flush_caches(self) -> None:
        """Invalidate every instantiated cache (between benchmark runs)."""
        self.op_serial += 1
        for sm in self._sms.values():
            sm.flush_caches()
        for cache in self._gpu_caches.values():
            cache.flush()
        for cache in self._cu_group_caches.values():
            cache.flush()

    # ------------------------------------------------------------------ #
    # load-path resolution (the ISA dispatch)                             #
    # ------------------------------------------------------------------ #

    def resolve_path(self, kind: LoadKind, sm: int = 0, core: int = 0) -> LoadPath:
        """Resolve which caches a load of ``kind`` traverses from (sm, core).

        A path is built once per (kind, sm, core) and reused: the cache
        instances behind it only change when :meth:`set_limit` rebuilds
        the L2, which drops every stored path.  The P6000 constant path
        is never stored — its cross-talk coin is drawn on every resolve.
        """
        key = (kind, sm, core)
        path = self._paths.get(key)
        if path is not None:
            return path
        if self.vendor is Vendor.NVIDIA:
            path = self._resolve_nvidia(kind, sm, core)
        else:
            path = self._resolve_amd(kind, sm, core)
        flaky = kind is LoadKind.LD_CONST and Quirk.FLAKY_L1_CONST_SHARING in self.spec.quirks
        if not (flaky or path.side_effects):
            self._paths[key] = path
        return path

    def _lvl(self, name: str, sm: int, core: int) -> tuple[SimCache, float]:
        spec = self.spec.cache(name)
        return self.cache_instance(name, sm, core), spec.load_latency

    def _resolve_nvidia(self, kind: LoadKind, sm: int, core: int) -> LoadPath:
        dram = self.spec.memory.load_latency
        if kind in (LoadKind.LD_GLOBAL_CA, LoadKind.LD_GLOBAL_V4):
            levels = [self._lvl("L1", sm, core), self._lvl("L2", sm, core)]
        elif kind is LoadKind.LD_GLOBAL_CG:
            levels = [self._lvl("L2", sm, core)]
        elif kind is LoadKind.LDG:
            levels = [self._lvl("Readonly", sm, core), self._lvl("L2", sm, core)]
        elif kind is LoadKind.TEX1DFETCH:
            levels = [self._lvl("Texture", sm, core), self._lvl("L2", sm, core)]
        elif kind is LoadKind.LD_CONST:
            levels = [
                self._lvl("ConstL1", sm, core),
                self._lvl("ConstL1.5", sm, core),
                self._lvl("L2", sm, core),
            ]
            side = self._constant_path_side_effects(sm, core)
            return LoadPath(kind, levels, dram, side)
        elif kind is LoadKind.LD_SHARED:
            return LoadPath(kind, [], self.spec.scratchpad.load_latency)
        else:
            raise SimulationError(f"{kind} is not an NVIDIA load")
        return LoadPath(kind, levels, dram)

    def _constant_path_side_effects(self, sm: int, core: int) -> list[SimCache]:
        """P6000 quirk: constant traffic sometimes pollutes the L1 silicon.

        The paper (Section V, item 3) reports that the Pascal sharing
        benchmark "sometimes incorrectly indicates L1 and Constant L1
        cache sharing"; we model the underlying hardware cross-talk as a
        per-path coin flip so the flakiness is observable end-to-end.
        """
        if Quirk.FLAKY_L1_CONST_SHARING not in self.spec.quirks:
            return []
        if self._quirk_rng.random() < 0.5:
            return [self.cache_instance("L1", sm, core)]
        return []

    def _resolve_amd(self, kind: LoadKind, sm: int, core: int) -> LoadPath:
        dram = self.spec.memory.load_latency
        has_l3 = self.spec.has_cache("L3")
        tail = [self._lvl("L2", sm, core)]
        if has_l3:
            tail.append(self._lvl("L3", sm, core))
        if kind in (LoadKind.FLAT_LOAD, LoadKind.FLAT_LOAD_X4):
            levels = [self._lvl("vL1", sm, core), *tail]
        elif kind is LoadKind.FLAT_LOAD_GLC:
            levels = tail
        elif kind is LoadKind.S_LOAD:
            levels = [self._lvl("sL1d", sm, core), *tail]
        elif kind is LoadKind.DS_READ:
            return LoadPath(kind, [], self.spec.scratchpad.load_latency)
        else:
            raise SimulationError(f"{kind} is not an AMD load")
        return LoadPath(kind, levels, dram)

    # ------------------------------------------------------------------ #
    # allocation                                                          #
    # ------------------------------------------------------------------ #

    def alloc(self, space: MemorySpace | LoadKind, nbytes: int, sm: int = 0) -> int:
        """Allocate a benchmark buffer in the proper address space."""
        if isinstance(space, LoadKind):
            space = space_for_kind(space)
        if space is MemorySpace.CONSTANT:
            return self.memory.allocate_constant(nbytes)
        if space is MemorySpace.SHARED:
            self.sm(sm).allocate_shared(nbytes)
            return self.memory.allocate_scratch(nbytes)
        return self.memory.allocate_global(nbytes)

    def reset(self) -> None:
        """Flush caches and release all buffers (fresh benchmark state)."""
        self.flush_caches()
        self.memory.reset()
        for sm in self._sms.values():
            sm.free_shared()

    # ------------------------------------------------------------------ #
    # time accounting (Section V-A run-time model)                        #
    # ------------------------------------------------------------------ #

    def account_loads(self, count: int, cycles: float) -> None:
        """Record simulated GPU work (used by the kernel engine)."""
        if count < 0 or cycles < 0:
            raise SimulationError("accounting values must be non-negative")
        self.op_serial += 1
        self.total_loads += count
        self.clock.advance(cycles)

    def elapsed_seconds(self) -> float:
        return self.clock.elapsed_seconds()
