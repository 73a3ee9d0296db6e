"""Dataclasses describing a GPU's compute and memory topology.

The model follows the paper's Section II-A / III decomposition:

* **compute** — SMs/CUs, cores, warps, register files, physical CU ids;
* **caches** — one :class:`CacheSpec` per *logical* memory space
  (L1, Texture, Readonly, Constant L1, Constant L1.5, L2, L3, vL1, sL1d).
  Logical spaces that share silicon (paper Section IV-G) carry the same
  ``physical_id`` — the simulator instantiates one physical cache per
  distinct id and routes all aliased spaces through it;
* **scratchpads** — Shared Memory / LDS (directly addressed, no tags);
* **memory** — device memory capacity, latency and peak bandwidths;
* **noise** — the measurement-disturbance model (clock overhead, jitter,
  outlier spikes) that the statistical evaluation must survive;
* **quirks** — per-device oddities the paper reports in Section V
  (virtualized MI300X, P6000 warp-scheduling bug, flaky L1/CL1 sharing).

All sizes are bytes, latencies are GPU clock cycles, bandwidths are
bytes/second, frequencies are Hz.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SpecError
from repro.units import is_power_of_two

__all__ = [
    "Vendor",
    "CacheScope",
    "Quirk",
    "CacheSpec",
    "ScratchpadSpec",
    "ComputeSpec",
    "MemorySpec",
    "NoiseSpec",
    "GPUSpec",
]


class Vendor(enum.Enum):
    """GPU vendor.  The paper's syntax ``<NVIDIA term>/<AMD term>`` maps here."""

    NVIDIA = "NVIDIA"
    AMD = "AMD"


class CacheScope(enum.Enum):
    """Where independent instances of a cache live (paper Table I, 'Amount per')."""

    SM = "sm"  # one (or more segments) per SM/CU
    GPU = "gpu"  # one (or more segments) per GPU
    CU_GROUP = "cu_group"  # AMD sL1d: shared by a small group of CUs


class Quirk(enum.Enum):
    """Device-level oddities reproduced from the paper's Section V."""

    #: MI300X: virtualized environment; thread blocks cannot be pinned to
    #: specific CU ids, so the sL1d CU-sharing benchmark cannot run.
    VIRTUALIZED = "virtualized"
    #: P6000 (Pascal): a thread cannot be scheduled on warp 3 (of 4),
    #: breaking the L1 Amount benchmark.
    WARP_SCHEDULING_BUG = "warp_scheduling_bug"
    #: P6000 (Pascal): the L1 <-> Constant L1 physical-sharing benchmark
    #: sometimes sees spurious cross-eviction and reports sharing.
    FLAKY_L1_CONST_SHARING = "flaky_l1_const_sharing"


@dataclass(frozen=True)
class CacheSpec:
    """One *logical* cache space and the physical structure backing it.

    ``size`` is the capacity of a **single** physical instance (one segment).
    ``segments`` counts independent instances inside the scope — e.g. the
    NVIDIA A100's API-visible 40 MB L2 is two independent 20 MB segments
    (paper footnote 13), and some SMs host multiple isolated L1 segments
    (paper Section IV-F).
    """

    name: str
    size: int
    line_size: int
    fetch_granularity: int
    ways: int
    load_latency: float
    scope: CacheScope = CacheScope.SM
    segments: int = 1
    #: logical spaces sharing one physical cache carry the same id
    #: (e.g. "l1tex" on post-Pascal NVIDIA for L1/Texture/Readonly).
    physical_id: str = ""
    #: attributes exposed by a vendor API instead of benchmarking (Table I).
    size_via_api: bool = False
    line_size_via_api: bool = False
    segments_via_api: bool = False
    #: the paper only measures bandwidth on higher-level caches / device
    #: memory (Table I dagger footnote).
    bandwidth_measured: bool = False
    #: achieved fraction of the peak bandwidth MT4G's untuned stream kernel
    #: reaches on this level (paper Section V: ~20% below reports on L2).
    read_bandwidth: float = 0.0
    write_bandwidth: float = 0.0
    #: AMD sL1d: how many CUs share one physical cache (2 or 3, cf. IV-H).
    cu_share_group: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SpecError(f"{self.name}: size must be positive, got {self.size}")
        if self.line_size <= 0 or not is_power_of_two(self.line_size):
            raise SpecError(f"{self.name}: line_size must be a positive power of two")
        if self.fetch_granularity <= 0 or self.line_size % self.fetch_granularity:
            raise SpecError(
                f"{self.name}: fetch_granularity must divide line_size "
                f"({self.fetch_granularity} vs {self.line_size})"
            )
        if self.ways <= 0:
            raise SpecError(f"{self.name}: ways must be positive")
        if self.size % (self.line_size * self.ways):
            raise SpecError(
                f"{self.name}: size {self.size} not divisible by "
                f"line_size*ways = {self.line_size * self.ways}"
            )
        if self.load_latency <= 0:
            raise SpecError(f"{self.name}: load_latency must be positive")
        if self.segments <= 0:
            raise SpecError(f"{self.name}: segments must be positive")

    @property
    def effective_physical_id(self) -> str:
        """Physical identity; defaults to the logical name when unshared."""
        return self.physical_id or self.name

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.ways)

    @property
    def sectors_per_line(self) -> int:
        return self.line_size // self.fetch_granularity


@dataclass(frozen=True)
class ScratchpadSpec:
    """Directly-addressed scratchpad: NVIDIA Shared Memory / AMD LDS."""

    name: str
    size: int
    load_latency: float
    size_via_api: bool = True

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SpecError(f"{self.name}: size must be positive")
        if self.load_latency <= 0:
            raise SpecError(f"{self.name}: load_latency must be positive")


@dataclass(frozen=True)
class ComputeSpec:
    """Compute-resource information (paper Section III-B)."""

    num_sms: int
    cores_per_sm: int
    warp_size: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    max_threads_per_sm: int
    registers_per_block: int
    registers_per_sm: int
    #: GPCs (NVIDIA) / XCDs (AMD); L2 segmentation follows this on AMD.
    num_clusters: int = 1
    #: AMD only — SIMD units per CU (the paper reports "warps/SIMD per
    #: SM/CU"); 0 means not applicable (NVIDIA reports warps instead).
    simds_per_sm: int = 0
    #: AMD only — logical CU index -> physical CU id.  The MI210 exposes 104
    #: active CUs with physical ids drawn from a 128-CU die (paper fn. 15).
    physical_cu_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for fname in (
            "num_sms",
            "cores_per_sm",
            "warp_size",
            "max_blocks_per_sm",
            "max_threads_per_block",
            "max_threads_per_sm",
            "registers_per_block",
            "registers_per_sm",
            "num_clusters",
        ):
            if getattr(self, fname) <= 0:
                raise SpecError(f"ComputeSpec.{fname} must be positive")
        if self.cores_per_sm % self.warp_size:
            raise SpecError("cores_per_sm must be a multiple of warp_size")
        if self.simds_per_sm < 0:
            raise SpecError("simds_per_sm must be non-negative")
        if self.physical_cu_ids and len(self.physical_cu_ids) != self.num_sms:
            raise SpecError(
                "physical_cu_ids must provide exactly one id per logical CU "
                f"({len(self.physical_cu_ids)} ids for {self.num_sms} CUs)"
            )

    @property
    def warps_per_sm(self) -> int:
        return self.cores_per_sm // self.warp_size

    @property
    def max_warps_per_sm(self) -> int:
        return self.max_threads_per_sm // self.warp_size


@dataclass(frozen=True)
class MemorySpec:
    """Device (main) memory attributes."""

    size: int
    load_latency: float
    read_bandwidth: float
    write_bandwidth: float
    memory_clock_hz: float
    bus_width_bits: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise SpecError("MemorySpec.size must be positive")
        if self.load_latency <= 0:
            raise SpecError("MemorySpec.load_latency must be positive")
        if min(self.read_bandwidth, self.write_bandwidth) <= 0:
            raise SpecError("MemorySpec bandwidths must be positive")
        if self.memory_clock_hz <= 0 or self.bus_width_bits <= 0:
            raise SpecError("MemorySpec clock/bus width must be positive")


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-disturbance model.

    The paper (Section IV-A, footnote 7) notes that the clock-read overhead
    is constant and "affects neither the K-S test nor the tendencies"; the
    jitter and outliers are what the K-S machinery and the outlier-widening
    step (Section IV-B workflow step 3) are designed to survive.
    """

    measurement_overhead: float = 6.0  # constant cycles added to every sample
    jitter_sigma: float = 1.5  # std-dev of Gaussian timing noise (cycles)
    outlier_probability: float = 0.002  # chance of a spurious spike per load
    outlier_magnitude: float = 220.0  # spike height (cycles)

    def __post_init__(self) -> None:
        if self.measurement_overhead < 0 or self.jitter_sigma < 0:
            raise SpecError("noise parameters must be non-negative")
        if not 0.0 <= self.outlier_probability < 1.0:
            raise SpecError("outlier_probability must be in [0, 1)")


@dataclass(frozen=True)
class GPUSpec:
    """Complete description of one GPU model."""

    name: str
    vendor: Vendor
    microarchitecture: str
    chip: str
    compute_capability: str
    core_clock_hz: float
    compute: ComputeSpec
    caches: tuple[CacheSpec, ...]
    scratchpad: ScratchpadSpec
    memory: MemorySpec
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    quirks: frozenset[Quirk] = frozenset()
    #: effective L1 size per cudaDeviceSetCacheConfig option (paper fn. 17);
    #: keys: "PreferL1" (default), "PreferShared", "PreferEqual".
    l1_carveout: dict[str, int] = field(default_factory=dict)
    #: MIG profile name -> (compute fraction numerator, memory slice count);
    #: empty when the device does not support MIG.
    mig_profiles: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: peak compute throughput per datatype in FLOP/s (or OP/s for int):
    #: e.g. {"fp64": ..., "fp32": ..., "fp16": ..., "int32": ...,
    #: "tensor_fp16": ...}.  Consumed by the Section VII extension that
    #: benchmarks FLOPS and tensor engines; empty = extension unavailable.
    compute_throughput: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.core_clock_hz <= 0:
            raise SpecError("core_clock_hz must be positive")
        names = [c.name for c in self.caches]
        if len(names) != len(set(names)):
            raise SpecError(f"duplicate cache names in {self.name}: {names}")
        # Logical spaces sharing a physical id must agree on the physical
        # structure (capacity, geometry) — they are the same silicon.
        by_phys: dict[str, CacheSpec] = {}
        for c in self.caches:
            pid = c.effective_physical_id
            if pid in by_phys:
                ref = by_phys[pid]
                if (c.size, c.line_size, c.ways, c.segments) != (
                    ref.size,
                    ref.line_size,
                    ref.ways,
                    ref.segments,
                ):
                    raise SpecError(
                        f"{self.name}: caches {ref.name!r} and {c.name!r} share "
                        f"physical id {pid!r} but differ in geometry"
                    )
            else:
                by_phys[pid] = c

    def cache(self, name: str) -> CacheSpec:
        """Look up a cache spec by logical name (raises ``SpecError``)."""
        for c in self.caches:
            if c.name == name:
                return c
        raise SpecError(f"{self.name} has no cache named {name!r}")

    def has_cache(self, name: str) -> bool:
        return any(c.name == name for c in self.caches)

    def effective_l1_size(self, cache_config: str = "PreferL1") -> int:
        """L1 capacity under a runtime carveout configuration.

        On NVIDIA the L1 and Shared Memory share one SRAM block whose split
        is a runtime option (paper fn. 17); AMD vL1 is fixed.
        """
        if self.l1_carveout:
            try:
                return self.l1_carveout[cache_config]
            except KeyError:
                raise SpecError(
                    f"{self.name}: unknown cache config {cache_config!r}; "
                    f"expected one of {sorted(self.l1_carveout)}"
                ) from None
        primary = "L1" if self.vendor is Vendor.NVIDIA else "vL1"
        return self.cache(primary).size

    def sharing_groups(self) -> dict[str, tuple[str, ...]]:
        """Map physical id -> logical cache names routed through it."""
        groups: dict[str, list[str]] = {}
        for c in self.caches:
            groups.setdefault(c.effective_physical_id, []).append(c.name)
        return {pid: tuple(names) for pid, names in groups.items()}
