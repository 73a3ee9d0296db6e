"""The MT4G orchestrator (paper contribution C1).

Drives the Section-IV benchmark suite and the vendor-API reads into a
unified :class:`~repro.core.report.TopologyReport`, following Table I's
source-of-truth matrix exactly: attributes available through an interface
are never benchmarked, attributes no interface exposes are measured, and
attributes that cannot be obtained are reported as such.

Per-element pipelines (dependencies dictate the order):

1. *fetch granularity* first — it is the access stride and the natural
   sweep step of everything that follows;
2. *size* — K-S change-point detection over a p-chase size sweep;
3. *load latency* — fixed-size p-chase (capped at the measured size so
   small caches like the 2 KiB Constant L1 are probed in-cache);
4. *cache line size* — stride profiles around the measured capacity;
5. *amount* / *L2 segments* — cooperative-eviction protocols;
6. *physical sharing* — pairwise eviction across logical spaces
   (NVIDIA) or CU pairs (AMD);
7. *bandwidth* — streaming kernels on higher-level caches and DRAM.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING, Any, Iterable

from repro.api.hip import hip_get_device_properties
from repro.api.hsa import hsa_cache_info
from repro.api.kfd import kfd_cache_line_sizes
from repro.core.benchmarks.amount import measure_amount, resolve_l2_segments
from repro.core.benchmarks.bandwidth import measure_bandwidth
from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult, Source
from repro.core.benchmarks.cacheline import measure_cache_line_size
from repro.core.benchmarks.fetch_granularity import measure_fetch_granularity
from repro.core.benchmarks.flops import measure_all_flops
from repro.core.benchmarks.latency import measure_load_latency
from repro.core.benchmarks.sharing import measure_sharing_nvidia, measure_sl1d_sharing
from repro.core.benchmarks.size import measure_cache_size
from repro.core.report import (
    AttributeValue,
    ComputeReport,
    GeneralReport,
    MemoryElementReport,
    RuntimeReport,
    TopologyReport,
)
from repro.errors import ReproError, SimulationError, SpecError
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.isa import LoadKind
from repro.gpuspec.presets.amd import CORES_PER_CU
from repro.gpuspec.presets.nvidia import CORES_PER_SM
from repro.gpuspec.spec import Vendor
from repro.obs import trace as _trace
from repro.pchase.config import PChaseConfig
from repro.stats.compare import majority_index, median_index
from repro.units import KiB, MiB

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache pkg is leaf)
    from repro.cache.store import DiscoveryCache

__all__ = ["MT4G", "NVIDIA_ELEMENTS", "AMD_ELEMENTS"]

#: Modeled CPU-side cost (setup, transfers, K-S evaluation) per benchmark;
#: feeds the Section V-A run-time report.
CPU_SECONDS_PER_BENCHMARK = 0.35

#: NVIDIA compute capability -> microarchitecture (the tool's own table;
#: the simulator spec is not consulted).
CC_TO_MICROARCH = {
    "6.0": "Pascal",
    "6.1": "Pascal",
    "7.0": "Volta",
    "7.2": "Volta",
    "7.5": "Turing",
    "8.0": "Ampere",
    "8.6": "Ampere",
    "8.9": "Ada Lovelace",
    "9.0": "Hopper",
}

#: AMD gfx arch -> microarchitecture.
GFX_TO_MICROARCH = {
    "gfx908": "CDNA",
    "gfx90a": "CDNA2",
    "gfx942": "CDNA3",
    "gfxtest": "CDNA2",
}

NVIDIA_ELEMENTS = (
    "L1",
    "L2",
    "Texture",
    "Readonly",
    "ConstL1",
    "ConstL1.5",
    "SharedMem",
    "DeviceMemory",
)
AMD_ELEMENTS = ("vL1", "sL1d", "L2", "L3", "LDS", "DeviceMemory")

_NV_KINDS = {
    "L1": LoadKind.LD_GLOBAL_CA,
    "L2": LoadKind.LD_GLOBAL_CG,
    "Texture": LoadKind.TEX1DFETCH,
    "Readonly": LoadKind.LDG,
    "ConstL1": LoadKind.LD_CONST,
    "ConstL1.5": LoadKind.LD_CONST,
    "SharedMem": LoadKind.LD_SHARED,
}

_CONST_BANK = 64 * KiB  # paper Section III-C / footnote 10

_AMD_KINDS = {
    "vL1": LoadKind.FLAT_LOAD,
    "sL1d": LoadKind.S_LOAD,
    "L2": LoadKind.FLAT_LOAD_GLC,
}

#: Seed offsets of the escalation re-measurements: three independent
#: noise streams, far from any seed a user would pick deliberately.
_ESCALATION_SEED_OFFSETS = (1009, 2003, 3001)

#: One shared no-op context for every untraced phase scope: entering it
#: allocates nothing, keeping ``MT4G._phase`` free when tracing is off
#: (the ``faults.inject()`` zero-cost contract).
_NULL_PHASE = nullcontext()

#: ``PChaseRunner.stats`` counters a phase span closes with, as deltas.
_PHASE_COUNTERS = ("runs", "seconds")


class MT4G:
    """Vendor-agnostic GPU topology discovery against a (simulated) device.

    >>> tool = MT4G(SimulatedGPU.from_preset("H100-80"))
    >>> report = tool.discover()
    >>> report.attribute("L2", "amount").value
    2
    """

    #: opt-in Section VII extensions.
    EXTENSIONS = frozenset({"flops", "lowlevel_bandwidth"})

    def __init__(
        self,
        device: SimulatedGPU,
        config: PChaseConfig | None = None,
        targets: Iterable[str] | None = None,
        extensions: Iterable[str] = (),
        cache: "DiscoveryCache | None" = None,
    ) -> None:
        self.device = device
        self.ctx = BenchmarkContext(device, config)
        #: Optional :class:`repro.cache.DiscoveryCache`: whole-report
        #: discoveries are memoised under content-addressed keys; None
        #: measures always.
        self.cache = cache
        self.extensions = frozenset(extensions)
        unknown_ext = self.extensions - self.EXTENSIONS
        if unknown_ext:
            raise SpecError(
                f"unknown extensions {sorted(unknown_ext)}; "
                f"available: {sorted(self.EXTENSIONS)}"
            )
        all_elements = (
            NVIDIA_ELEMENTS if device.vendor is Vendor.NVIDIA else AMD_ELEMENTS
        )
        if targets is None:
            self.targets = set(all_elements)
        else:
            unknown = set(targets) - set(all_elements)
            if unknown:
                raise SpecError(
                    f"unknown targets {sorted(unknown)}; "
                    f"valid for {device.vendor.value}: {all_elements}"
                )
            self.targets = set(targets)
        self._measured_sizes: dict[str, int] = {}
        self._measured_fg: dict[str, int] = {}
        #: raw benchmark artefacts (size grids, reduced latency vectors,
        #: per-run statistics) keyed element -> attribute; the CLI's
        #: ``--raw`` flag serialises this.
        self.raw_data: dict[str, dict[str, Any]] = {}
        #: The NVIDIA sharing protocol measures the *whole* pairwise
        #: matrix at once; when several shared_with checks escalate in
        #: one pass, the per-(seed, targets) matrix is computed once and
        #: each element takes its row from it.
        self._sharing_remeasure_cache: dict[tuple, dict[str, MeasurementResult]] = {}
        #: stats of every runner this tool drives (the pipeline's, then
        #: one per escalation context), so a phase's run delta includes
        #: re-measurements nested inside it.
        self._runner_stats: list[dict] = [self.ctx.runner.stats]

    # ------------------------------------------------------------------ #
    # public API                                                          #
    # ------------------------------------------------------------------ #

    def discover(self, validate: bool = False) -> TopologyReport:
        """Run the full pipeline and return the unified report.

        ``validate=True`` appends the post-hoc validation pass
        (:mod:`repro.validate`): plausibility checks, cross-checks against
        the device's reference values, confidence recalibration and — for
        failing checks — re-measurement escalation.

        With a :class:`~repro.cache.DiscoveryCache` attached, a previous
        run with identical inputs (device spec + seed + carveout + MIG,
        p-chase config, targets, extensions, validate flag, schema salt)
        is returned from the store instead of re-measured — byte-identical
        to the cold report, with the raw sweep artefacts and the measured
        sizes the escalation path depends on restored alongside.  The
        report's ``meta["cache"]`` records hit/miss provenance.
        """
        key = None
        if self.cache is not None:
            # A cache must never sink a run: an unkeyable input (e.g. an
            # exotic spec field the canonicaliser refuses) degrades this
            # discovery to uncached measurement.
            try:
                key = self.cache.report_key(
                    self.device,
                    self.ctx.config,
                    self.targets,
                    self.extensions,
                    validate,
                )
            except Exception:
                key = None
            if key is not None:
                with self._phase("cache", "restore"):
                    report = self._restore_cached_discovery(
                        self.cache.get(key), key
                    )
                if report is not None:
                    return report
        with self._phase("general", "api_query"):
            general, compute = self._general_and_compute()
        if self.device.vendor is Vendor.NVIDIA:
            memory = self._discover_nvidia()
        else:
            memory = self._discover_amd()
        throughput: dict[str, AttributeValue] = {}
        if "flops" in self.extensions:
            with self._phase("throughput", "flops"):
                throughput = {
                    dtype: AttributeValue.from_measurement(m)
                    for dtype, m in measure_all_flops(self.ctx).items()
                }
        if "lowlevel_bandwidth" in self.extensions:
            with self._phase("bandwidth", "extension"):
                self._extension_lowlevel_bandwidth(memory)
        runtime = RuntimeReport(
            benchmarks_executed=self.ctx.benchmarks_run,
            simulated_gpu_seconds=self.device.elapsed_seconds(),
            modeled_cpu_seconds=self.ctx.benchmarks_run * CPU_SECONDS_PER_BENCHMARK,
            per_benchmark_seconds=self.ctx.seconds_per_benchmark(),
        )
        report = TopologyReport(
            general=general,
            compute=compute,
            memory=memory,
            runtime=runtime,
            seed=self.device.seed,
            throughput=throughput,
        )
        if validate:
            with self._phase("validation", "checks"):
                self.validate(report)
        if self.cache is not None and key is not None:
            # Serialised before meta is attached: the stored payload must
            # not claim to be its own cache miss.
            self.cache.put(
                key,
                {
                    "report": report,
                    "raw_data": self.raw_data,
                    "measured_sizes": self._measured_sizes,
                    "measured_fg": self._measured_fg,
                },
            )
            report.meta["cache"] = self._cache_provenance("miss", key)
        return report

    def _cache_provenance(self, status: str, key: str) -> dict[str, Any]:
        return {"status": status, "key": key, "store": str(self.cache.root)}

    def _restore_cached_discovery(
        self, payload: Any, key: str
    ) -> TopologyReport | None:
        """Rehydrate a cached discovery, or None when the payload is unusable.

        Restores the tool state a later validation pass depends on
        (measured sizes/granularities shape the escalation probe rings)
        and the raw sweep artefacts the CLI's ``--raw`` flag serialises.
        """
        if not isinstance(payload, dict):
            return None
        report = payload.get("report")
        if not isinstance(report, TopologyReport):
            return None
        try:
            # Parsed fully before any assignment: a payload rejected
            # half-way must not leave stale cached state merged into the
            # fresh measurement that follows.
            raw_data = dict(payload["raw_data"])
            measured_sizes = dict(payload["measured_sizes"])
            measured_fg = dict(payload["measured_fg"])
        except (KeyError, TypeError, ValueError):
            return None
        self.raw_data = raw_data
        self._measured_sizes = measured_sizes
        self._measured_fg = measured_fg
        report.meta["cache"] = self._cache_provenance("hit", key)
        return report

    def validate(self, report: TopologyReport):
        """Run the validation pass over ``report`` (stored on the report).

        Wires this tool in as the validator's escalation backend: a
        failing check re-measures the implicated attribute with doubled
        sample counts across fresh seeds and keeps the median result.
        """
        # Imported lazily: the validate package's fleet runner imports
        # this module, so a module-level import would be circular.
        from repro.validate.validator import validate_report

        return validate_report(
            report,
            spec=self.device.spec,
            cache_config=self.device.cache_config,
            escalate=self._escalate_measurement,
        )

    def _extension_lowlevel_bandwidth(
        self, memory: dict[str, MemoryElementReport]
    ) -> None:
        """Section VII: "extend the bandwidth benchmarking to low-level
        caches" — measure the first-level data cache when the device's
        stream path can target it; otherwise record an honest no-result."""
        target = "L1" if self.device.vendor is Vendor.NVIDIA else "vL1"
        element = memory.get(target)
        if element is None:
            return
        for op in ("read", "write"):
            try:
                m = measure_bandwidth(self.ctx, target, op)
                m.note = "extension: low-level bandwidth"
            except SimulationError as exc:
                m = MeasurementResult.no_result(
                    f"bandwidth_{op}", target, "B/s", str(exc)
                )
            self._bench(element, f"{op}_bandwidth", m)

    # ------------------------------------------------------------------ #
    # general / compute (Sections III-A/B: APIs + lookup table)           #
    # ------------------------------------------------------------------ #

    def _general_and_compute(self) -> tuple[GeneralReport, ComputeReport]:
        props = hip_get_device_properties(self.device)
        if self.device.vendor is Vendor.NVIDIA:
            microarch = CC_TO_MICROARCH.get(props.compute_capability, "unknown")
            cores = CORES_PER_SM.get(microarch, 64)
            cc = props.compute_capability
            simds = 0
        else:
            microarch = GFX_TO_MICROARCH.get(props.gcnArchName, "unknown")
            cores = CORES_PER_CU.get(microarch, 64)
            cc = props.gcnArchName
            simds = 4
        general = GeneralReport(
            vendor=self.device.vendor.value,
            model=props.name,
            microarchitecture=microarch,
            compute_capability=cc,
            clock_rate_hz=props.clockRate * 1000.0,
            memory_clock_rate_hz=props.memoryClockRate * 1000.0,
            memory_bus_width_bits=props.memoryBusWidth,
        )
        compute = ComputeReport(
            num_sms=props.multiProcessorCount,
            cores_per_sm=cores,
            warp_size=props.warpSize,
            max_blocks_per_sm=props.maxBlocksPerMultiProcessor,
            max_threads_per_block=props.maxThreadsPerBlock,
            max_threads_per_sm=props.maxThreadsPerMultiProcessor,
            registers_per_block=props.regsPerBlock,
            registers_per_sm=props.regsPerMultiprocessor,
            warps_per_sm=cores // props.warpSize,
            simds_per_sm=simds,
            physical_cu_ids=tuple(self.device.spec.compute.physical_cu_ids),
        )
        return general, compute

    # ------------------------------------------------------------------ #
    # shared helpers                                                      #
    # ------------------------------------------------------------------ #

    def _phase(self, element: str, phase: str):
        """Discovery phase scope: a ``discover.phase`` child span of the
        active trace, or the shared no-op when tracing is off.

        Spans nest like the phases do and carry totals (wall duration,
        p-chase run deltas); :func:`repro.obs.profile.fold` turns them
        into self-time rows.
        """
        if _trace.CURRENT.get() is None:
            return _NULL_PHASE
        return self._phase_span(element, phase)

    @contextmanager
    def _phase_span(self, element: str, phase: str):
        stats = self._runner_stats
        before = [sum(s[k] for s in stats) for k in _PHASE_COUNTERS]
        attrs: dict[str, Any] = {"element": element, "phase": phase}
        with _trace.child("discover.phase", attrs):
            try:
                yield
            finally:
                for k, b in zip(_PHASE_COUNTERS, before):
                    attrs[k] = sum(s[k] for s in stats) - b

    def _bench(self, element: MemoryElementReport, attribute: str, m: MeasurementResult) -> None:
        element.set(attribute, AttributeValue.from_measurement(m))
        if m.detail:
            self.raw_data.setdefault(element.name, {})[attribute] = {
                "benchmark": m.benchmark,
                "unit": m.unit,
                **m.detail,
            }

    def _fg(self, name: str, default: int = 32) -> int:
        return self._measured_fg.get(name, default)

    def _bandwidth_element(self, element: MemoryElementReport, name: str) -> None:
        with self._phase(name, "bandwidth"):
            for op in ("read", "write"):
                self._bench(
                    element, f"{op}_bandwidth", measure_bandwidth(self.ctx, name, op)
                )

    def _latency_element(
        self,
        element: MemoryElementReport,
        kind: LoadKind,
        name: str,
        array_bytes: int | None = None,
        cold: bool = False,
    ) -> None:
        m = measure_load_latency(
            self.ctx,
            kind,
            name,
            self._fg(name),
            array_bytes=array_bytes,
            cold=cold,
        )
        self._bench(element, "load_latency", m)

    @property
    def _props_struct(self) -> str:
        """The device-properties struct the vendor's runtime exposes."""
        return (
            "cudaDeviceProp" if self.device.vendor is Vendor.NVIDIA else "hipDeviceProp"
        )

    def _new_element(self, name: str) -> MemoryElementReport:
        el = MemoryElementReport(name)
        for attr in (
            "size",
            "load_latency",
            "read_bandwidth",
            "write_bandwidth",
            "cache_line_size",
            "fetch_granularity",
            "amount",
            "shared_with",
        ):
            el.set(attr, AttributeValue.not_applicable())
        return el

    def _lowlevel_bandwidth_note(self, element: MemoryElementReport) -> None:
        """Table I dagger: bandwidth only measured on higher levels."""
        note = "bandwidth measured only on higher-level caches / device memory"
        element.set("read_bandwidth", AttributeValue.not_applicable("B/s"))
        element.set("write_bandwidth", AttributeValue.not_applicable("B/s"))
        element.get("read_bandwidth").note = note

    # ------------------------------------------------------------------ #
    # NVIDIA pipeline                                                     #
    # ------------------------------------------------------------------ #

    def _discover_nvidia(self) -> dict[str, MemoryElementReport]:
        props = hip_get_device_properties(self.device)
        memory: dict[str, MemoryElementReport] = {}

        # --- cache family: FG -> size -> latency -> line -> amount -----
        cacheable = [
            n for n in ("L1", "Texture", "Readonly") if n in self.targets
        ]
        for name in cacheable:
            with self._phase(name, "measure"):
                memory[name] = self._nv_generic_cache(name)
        if "ConstL1" in self.targets or "ConstL1.5" in self.targets:
            with self._phase("ConstL1", "measure"):
                memory.update(self._nv_constant_pair())
        if "L2" in self.targets:
            with self._phase("L2", "measure"):
                memory["L2"] = self._nv_l2(props.l2CacheSize)
        if "SharedMem" in self.targets:
            with self._phase("SharedMem", "measure"):
                memory["SharedMem"] = self._nv_shared(props.sharedMemPerBlock)
        if "DeviceMemory" in self.targets:
            with self._phase("DeviceMemory", "measure"):
                memory["DeviceMemory"] = self._device_memory(props.totalGlobalMem)

        # --- physical sharing across logical spaces (Section IV-G) -----
        sharing_targets = {
            name: (
                _NV_KINDS[name],
                self._measured_sizes.get(name, 16 * KiB),
                self._fg(name),
            )
            for name in ("L1", "Texture", "Readonly", "ConstL1")
            if name in memory and self._measured_sizes.get(name)
        }
        if len(sharing_targets) >= 2:
            with self._phase("sharing", "measure"):
                results = measure_sharing_nvidia(self.ctx, sharing_targets)
            for name, res in results.items():
                self._bench(memory[name], "shared_with", res)
        return memory

    def _nv_generic_cache(self, name: str) -> MemoryElementReport:
        el = self._new_element(name)
        kind = _NV_KINDS[name]
        with self._phase(name, "fetch_granularity"):
            fg = measure_fetch_granularity(self.ctx, kind, name)
        self._bench(el, "fetch_granularity", fg)
        if fg.conclusive:
            self._measured_fg[name] = int(fg.value)
        with self._phase(name, "size_sweep"):
            size = measure_cache_size(
                self.ctx, kind, name, self._fg(name), lo=1 * KiB, hi_cap=1 * MiB
            )
        self._bench(el, "size", size)
        if size.conclusive:
            self._measured_sizes[name] = int(size.value)
        with self._phase(name, "latency"):
            self._latency_element(
                el, kind, name, array_bytes=self._latency_array(name)
            )
        if size.conclusive:
            with self._phase(name, "line_size"):
                line = measure_cache_line_size(
                    self.ctx, kind, name, int(size.value), self._fg(name)
                )
            self._bench(el, "cache_line_size", line)
            with self._phase(name, "amount"):
                amount = measure_amount(
                    self.ctx,
                    kind,
                    name,
                    int(size.value),
                    self._fg(name),
                    spans_all_warps=(name == "L1"),
                )
            self._bench(el, "amount", amount)
        self._lowlevel_bandwidth_note(el)
        return el

    def _latency_array(self, name: str) -> int | None:
        """Latency-benchmark array size: 256 x FG, capped inside the cache.

        The cap keeps a 10 % margin below the *measured* size so a slight
        size-benchmark overestimate cannot push the p-chase into the next
        level (Section IV-C requires in-cache probing).
        """
        measured = self._measured_sizes.get(name)
        default = self.ctx.config.latency_array_elems * self._fg(name)
        if measured is not None and measured < default:
            stride = self._fg(name)
            return max(stride, int(measured * 0.9) // stride * stride)
        return None

    def _nv_constant_pair(self) -> dict[str, MemoryElementReport]:
        """The constant hierarchy needs latency-band thresholds (IV-B fn. 10)."""
        ctx = self.ctx
        kind = LoadKind.LD_CONST
        cl1 = self._new_element("ConstL1")
        cl15 = self._new_element("ConstL1.5")

        # Latency bands: a tiny warmed array is surely inside CL1; the
        # CL1.5 band is the *smallest* clearly-elevated mean over a few
        # probe sizes (an array that overruns CL1.5 would report the next
        # level instead); a cold un-warmed run gives the DRAM band.
        band_cl1 = float(
            ctx.runner.latencies(kind, 512, 64, fresh=True, warmup=True).mean()
        )
        mid_candidates = [
            float(ctx.runner.latencies(kind, nb, 64, fresh=True, warmup=True).mean())
            for nb in (4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB)
        ]
        elevated = [m for m in mid_candidates if m > band_cl1 + 10.0]
        band_cl15 = min(elevated) if elevated else max(mid_candidates)
        band_dram = float(
            ctx.runner.latencies(
                LoadKind.LD_GLOBAL_CG, 64 * KiB, 256, fresh=True, warmup=False
            ).mean()
        )

        # Fetch granularities: CL1 hits are below the CL1/CL1.5 midpoint;
        # CL1.5 hits below the CL1.5/DRAM midpoint.
        fg1 = measure_fetch_granularity(
            ctx, kind, "ConstL1", hit_threshold=(band_cl1 + band_cl15) / 2.0
        )
        self._bench(cl1, "fetch_granularity", fg1)
        if fg1.conclusive:
            self._measured_fg["ConstL1"] = int(fg1.value)
        fg15 = measure_fetch_granularity(
            ctx, kind, "ConstL1.5", hit_threshold=(band_cl15 + band_dram) / 2.0
        )
        self._bench(cl15, "fetch_granularity", fg15)
        if fg15.conclusive:
            self._measured_fg["ConstL1.5"] = int(fg15.value)

        size1 = measure_cache_size(
            ctx, kind, "ConstL1", self._fg("ConstL1", 64), lo=256, hi_cap=_CONST_BANK
        )
        self._bench(cl1, "size", size1)
        if size1.conclusive:
            self._measured_sizes["ConstL1"] = int(size1.value)
        cl1_size = self._measured_sizes.get("ConstL1", 2 * KiB)

        # CL1.5: probe window starts above the CL1 boundary; the constant
        # bank caps it at 64 KiB (the paper's ">64KiB, confidence 0" case).
        size15 = measure_cache_size(
            ctx,
            kind,
            "ConstL1.5",
            self._fg("ConstL1.5", 256),
            lo=min(4 * cl1_size, _CONST_BANK // 2),
            hi_cap=_CONST_BANK,
        )
        self._bench(cl15, "size", size15)
        if size15.conclusive:
            self._measured_sizes["ConstL1.5"] = int(size15.value)

        # Like every other cache, probe 10 % inside the measured size: an
        # overestimate by one sweep stride would otherwise thrash the ring
        # and read the next level's latency.
        self._latency_element(
            cl1, kind, "ConstL1", array_bytes=self._latency_array("ConstL1") or cl1_size
        )
        self._latency_element(
            cl15, kind, "ConstL1.5", array_bytes=min(8 * cl1_size, _CONST_BANK)
        )

        if size1.conclusive:
            line1 = measure_cache_line_size(
                ctx,
                kind,
                "ConstL1",
                int(size1.value),
                self._fg("ConstL1", 64),
                max_size_cap=_CONST_BANK,
            )
            self._bench(cl1, "cache_line_size", line1)
            amount1 = measure_amount(
                ctx, kind, "ConstL1", int(size1.value), self._fg("ConstL1", 64)
            )
            self._bench(cl1, "amount", amount1)
        # The CL1.5 line size is never computed (paper Section V): the
        # size input is capped by the constant bank, and line-skipping
        # strides shrink the probe footprint back into the Constant L1,
        # which then captures every load before it reaches CL1.5.
        cl15.set(
            "cache_line_size",
            AttributeValue.unavailable(
                "B", "takes the cache size as input, which the 64 KiB bank caps"
            ),
        )
        # Amount cannot evict beyond the constant bank (paper Section III-C).
        cl15.set(
            "amount",
            AttributeValue.unavailable(
                "count", "64 KiB constant-array limit prevents eviction probing"
            ),
        )
        self._lowlevel_bandwidth_note(cl1)
        self._lowlevel_bandwidth_note(cl15)
        return {"ConstL1": cl1, "ConstL1.5": cl15}

    def _nv_l2(self, api_total: int) -> MemoryElementReport:
        el = self._new_element("L2")
        kind = LoadKind.LD_GLOBAL_CG
        el.set(
            "size",
            AttributeValue(api_total, "B", 1.0, Source.API, "cudaDeviceProp l2CacheSize"),
        )
        with self._phase("L2", "fetch_granularity"):
            fg = measure_fetch_granularity(self.ctx, kind, "L2")
        self._bench(el, "fetch_granularity", fg)
        if fg.conclusive:
            self._measured_fg["L2"] = int(fg.value)
        stride = self._fg("L2")
        l1_size = self._measured_sizes.get("L1", 256 * KiB)
        with self._phase("L2", "size_sweep"):
            segment = measure_cache_size(
                self.ctx,
                kind,
                "L2",
                stride,
                lo=max(4 * l1_size, 16 * KiB),
                hi_cap=2 * api_total,
            )
        if segment.conclusive:
            self._measured_sizes["L2"] = int(segment.value)
            with self._phase("L2", "amount"):
                segments = resolve_l2_segments(self.ctx, int(segment.value), api_total)
            self._bench(el, "amount", segments)
            with self._phase("L2", "line_size"):
                line = measure_cache_line_size(
                    self.ctx, kind, "L2", int(segment.value), stride
                )
            self._bench(el, "cache_line_size", line)
        else:
            el.set("amount", AttributeValue.unavailable("count", segment.note))
        with self._phase("L2", "latency"):
            self._latency_element(el, kind, "L2")
        self._bandwidth_element(el, "L2")
        el.set("shared_with", AttributeValue.not_applicable("elements"))
        return el

    def _nv_shared(self, api_size: int) -> MemoryElementReport:
        el = self._new_element("SharedMem")
        el.set(
            "size",
            AttributeValue(api_size, "B", 1.0, Source.API, "cudaDeviceProp sharedMemPerBlock"),
        )
        self._latency_element(el, LoadKind.LD_SHARED, "SharedMem", array_bytes=4 * KiB)
        self._lowlevel_bandwidth_note(el)
        return el

    def _device_memory(self, api_size: int) -> MemoryElementReport:
        el = self._new_element("DeviceMemory")
        el.set(
            "size",
            AttributeValue(
                api_size, "B", 1.0, Source.API, f"{self._props_struct} totalGlobalMem"
            ),
        )
        cold_kind = (
            LoadKind.LD_GLOBAL_CG
            if self.device.vendor is Vendor.NVIDIA
            else LoadKind.FLAT_LOAD_GLC
        )
        # The cold probe's stride must exceed every cache's sector size so
        # no access lands in a sector an earlier miss already fetched.
        m = measure_load_latency(
            self.ctx, cold_kind, "DeviceMemory", fetch_granularity=256, cold=True
        )
        self._bench(el, "load_latency", m)
        self._bandwidth_element(el, "DeviceMemory")
        return el

    # ------------------------------------------------------------------ #
    # AMD pipeline                                                        #
    # ------------------------------------------------------------------ #

    def _discover_amd(self) -> dict[str, MemoryElementReport]:
        props = hip_get_device_properties(self.device)
        hsa = hsa_cache_info(self.device)
        kfd_lines = kfd_cache_line_sizes(self.device)
        memory: dict[str, MemoryElementReport] = {}

        if "vL1" in self.targets:
            with self._phase("vL1", "measure"):
                memory["vL1"] = self._amd_l1("vL1", LoadKind.FLAT_LOAD, amount=True)
        if "sL1d" in self.targets:
            with self._phase("sL1d", "measure"):
                memory["sL1d"] = self._amd_l1("sL1d", LoadKind.S_LOAD, amount=False)
            sl1d_size = self._measured_sizes.get("sL1d", 16 * KiB)
            with self._phase("sL1d", "sharing"):
                sharing = measure_sl1d_sharing(
                    self.ctx, sl1d_size, self._fg("sL1d", 64)
                )
            self._bench(memory["sL1d"], "shared_with", sharing)
        if "L2" in self.targets:
            with self._phase("L2", "measure"):
                memory["L2"] = self._amd_llc("L2", hsa, kfd_lines, latency=True)
        if "L3" in self.targets and self.device.spec.has_cache("L3"):
            with self._phase("L3", "measure"):
                memory["L3"] = self._amd_llc("L3", hsa, kfd_lines, latency=False)
        if "LDS" in self.targets:
            with self._phase("LDS", "measure"):
                memory["LDS"] = self._amd_lds(props.sharedMemPerBlock)
        if "DeviceMemory" in self.targets:
            with self._phase("DeviceMemory", "measure"):
                memory["DeviceMemory"] = self._device_memory(props.totalGlobalMem)
        return memory

    def _amd_l1(self, name: str, kind: LoadKind, amount: bool) -> MemoryElementReport:
        el = self._new_element(name)
        with self._phase(name, "fetch_granularity"):
            fg = measure_fetch_granularity(self.ctx, kind, name)
        self._bench(el, "fetch_granularity", fg)
        if fg.conclusive:
            self._measured_fg[name] = int(fg.value)
        with self._phase(name, "size_sweep"):
            size = measure_cache_size(
                self.ctx, kind, name, self._fg(name, 64), lo=1 * KiB, hi_cap=1 * MiB
            )
        self._bench(el, "size", size)
        if size.conclusive:
            self._measured_sizes[name] = int(size.value)
            with self._phase(name, "line_size"):
                line = measure_cache_line_size(
                    self.ctx, kind, name, int(size.value), self._fg(name, 64)
                )
            self._bench(el, "cache_line_size", line)
            if amount:
                with self._phase(name, "amount"):
                    amt = measure_amount(
                        self.ctx, kind, name, int(size.value), self._fg(name, 64)
                    )
                self._bench(el, "amount", amt)
        with self._phase(name, "latency"):
            self._latency_element(
                el, kind, name, array_bytes=self._latency_array(name)
            )
        self._lowlevel_bandwidth_note(el)
        return el

    def _amd_llc(
        self,
        name: str,
        hsa: dict[str, dict[str, int]],
        kfd_lines: dict[str, int],
        latency: bool,
    ) -> MemoryElementReport:
        el = self._new_element(name)
        info = hsa.get(name)
        if info:
            el.set(
                "size",
                AttributeValue(
                    info["size"] * info["instances"], "B", 1.0, Source.API, "HSA runtime"
                ),
            )
            el.set(
                "amount",
                AttributeValue(
                    info["instances"], "count", 1.0, Source.API, "one L2 per XCD"
                ),
            )
        if name in kfd_lines:
            el.set(
                "cache_line_size",
                AttributeValue(kfd_lines[name], "B", 1.0, Source.API, "KFD driver files"),
            )
        if latency:
            kind = LoadKind.FLAT_LOAD_GLC
            with self._phase(name, "fetch_granularity"):
                fg = measure_fetch_granularity(self.ctx, kind, name)
            self._bench(el, "fetch_granularity", fg)
            if fg.conclusive:
                self._measured_fg[name] = int(fg.value)
            with self._phase(name, "latency"):
                self._latency_element(el, kind, name)
        else:
            # Paper Section III-C: no load-latency / fetch-granularity
            # benchmark exists yet for the CDNA3 L3.
            el.set(
                "load_latency",
                AttributeValue.unavailable(
                    "cycles", "no benchmark can isolate the CDNA3 L3 yet"
                ),
            )
            el.set(
                "fetch_granularity",
                AttributeValue.unavailable(
                    "B", "no benchmark can isolate the CDNA3 L3 yet"
                ),
            )
        self._bandwidth_element(el, name)
        return el

    def _amd_lds(self, api_size: int) -> MemoryElementReport:
        el = self._new_element("LDS")
        el.set(
            "size",
            AttributeValue(api_size, "B", 1.0, Source.API, "hipDeviceProp sharedMemPerBlock"),
        )
        self._latency_element(el, LoadKind.DS_READ, "LDS", array_bytes=4 * KiB)
        self._lowlevel_bandwidth_note(el)
        return el

    # ------------------------------------------------------------------ #
    # validation escalation (re-measurement backend)                      #
    # ------------------------------------------------------------------ #

    def _kind_for(self, element: str) -> LoadKind | None:
        """The load instruction that targets ``element``, if one exists."""
        if element == "SharedMem":
            return LoadKind.LD_SHARED
        if element == "LDS":
            return LoadKind.DS_READ
        if element == "DeviceMemory":
            return (
                LoadKind.LD_GLOBAL_CG
                if self.device.vendor is Vendor.NVIDIA
                else LoadKind.FLAT_LOAD_GLC
            )
        if self.device.vendor is Vendor.NVIDIA:
            return _NV_KINDS.get(element)
        return _AMD_KINDS.get(element)

    def _escalation_context(self, seed_offset: int) -> BenchmarkContext:
        """A fresh device (new noise stream) with doubled sample counts."""
        device = SimulatedGPU(
            self.device.spec,
            seed=self.device.seed + seed_offset,
            cache_config=self.device.cache_config,
        )
        config = dataclasses.replace(
            self.ctx.config, n_samples=2 * self.ctx.config.n_samples
        )
        ctx = BenchmarkContext(device, config)
        self._runner_stats.append(ctx.runner.stats)
        return ctx

    def _remeasure_latency(
        self, ctx: BenchmarkContext, element: str
    ) -> MeasurementResult | None:
        kind = self._kind_for(element)
        if kind is None:
            return None
        if element == "DeviceMemory":
            return measure_load_latency(
                ctx, kind, element, fetch_granularity=256, cold=True
            )
        if element in ("SharedMem", "LDS"):
            return measure_load_latency(
                ctx, kind, element, self._fg(element), array_bytes=4 * KiB
            )
        stride = self._fg(element)
        if element == "ConstL1":
            # The same 10 % in-cache margin as the pipeline's
            # ``_latency_array`` (a size one sweep stride too large, cf.
            # Table III's 2.1 KiB, would thrash the ring); an inconclusive
            # size falls back to the nominal 2 KiB, also margined.
            measured = self._measured_sizes.get("ConstL1", 2 * KiB)
            array = max(stride, int(measured * 0.9) // stride * stride)
        elif element == "ConstL1.5":
            cl1 = self._measured_sizes.get("ConstL1", 2 * KiB)
            cl15 = self._measured_sizes.get("ConstL1.5")
            if cl15 is not None and cl15 < _CONST_BANK:
                array = max(
                    2 * cl1, int(cl15 * 0.9) // stride * stride
                )
            else:
                array = min(8 * cl1, _CONST_BANK)
        else:
            array = self._latency_array(element)
        return measure_load_latency(
            ctx, kind, element, stride, array_bytes=array
        )

    def _remeasure_size(
        self, ctx: BenchmarkContext, element: str
    ) -> MeasurementResult | None:
        kind = self._kind_for(element)
        # L2/L3/ConstL1.5 sizes are API values or capped lower bounds;
        # re-sweeping them cannot produce a better answer.
        if kind is None or element in (
            "L2",
            "L3",
            "ConstL1.5",
            "SharedMem",
            "LDS",
            "DeviceMemory",
        ):
            return None
        if element == "ConstL1":
            return measure_cache_size(
                ctx, kind, element, self._fg("ConstL1", 64), lo=256, hi_cap=_CONST_BANK
            )
        return measure_cache_size(
            ctx, kind, element, self._fg(element), lo=1 * KiB, hi_cap=1 * MiB
        )

    def _remeasure_amount(
        self, ctx: BenchmarkContext, element: str
    ) -> MeasurementResult | None:
        """Protocol re-measurement: re-run the eviction amount protocol.

        The L2 special case replays the segment-size sweep and realigns
        it to the API total (Section IV-F.1); elements whose amount is an
        API value or structurally unmeasurable return None.
        """
        kind = self._kind_for(element)
        if kind is None:
            return None
        if element == "L2":
            if self.device.vendor is not Vendor.NVIDIA:
                return None  # AMD L2/L3 segment counts are API values
            api_total = hip_get_device_properties(self.device).l2CacheSize
            l1_size = self._measured_sizes.get("L1", 256 * KiB)
            segment = measure_cache_size(
                ctx,
                kind,
                "L2",
                self._fg("L2"),
                lo=max(4 * l1_size, 16 * KiB),
                hi_cap=2 * api_total,
            )
            if not segment.conclusive:
                return None
            return resolve_l2_segments(ctx, int(segment.value), api_total)
        if element in ("ConstL1.5", "sL1d", "L3", "SharedMem", "LDS", "DeviceMemory"):
            return None  # no eviction protocol exists for these (Section III-C)
        size = self._measured_sizes.get(element)
        if size is None:
            return None
        default_fg = 64 if element in ("ConstL1", "vL1") else 32
        return measure_amount(
            ctx,
            kind,
            element,
            size,
            self._fg(element, default_fg),
            spans_all_warps=(element == "L1"),
        )

    def _remeasure_sharing(
        self, ctx: BenchmarkContext, element: str
    ) -> MeasurementResult | None:
        """Protocol re-measurement: re-run the physical-sharing protocol.

        NVIDIA re-runs the full pairwise eviction matrix over the same
        targets the pipeline used (the protocol is pairwise — a single
        element cannot be re-measured in isolation) and returns the
        requested element's row; AMD re-runs the sL1d CU-pair sweep.
        """
        if self.device.vendor is Vendor.NVIDIA:
            targets = {
                name: (_NV_KINDS[name], self._measured_sizes[name], self._fg(name))
                for name in ("L1", "Texture", "Readonly", "ConstL1")
                if self._measured_sizes.get(name)
            }
            if element not in targets or len(targets) < 2:
                return None
            # One matrix per (escalation seed, target geometry): other
            # elements escalated in the same pass reuse their row rather
            # than re-running the identical full pairwise protocol.
            key = (
                ctx.device.seed,
                tuple(sorted((n, s, f) for n, (_, s, f) in targets.items())),
            )
            matrix = self._sharing_remeasure_cache.get(key)
            if matrix is None:
                matrix = measure_sharing_nvidia(ctx, targets)
                self._sharing_remeasure_cache[key] = matrix
            # A copy, so the escalation note never mutates the cached row.
            return dataclasses.replace(matrix[element])
        if element == "sL1d":
            size = self._measured_sizes.get("sL1d", 16 * KiB)
            return measure_sl1d_sharing(ctx, size, self._fg("sL1d", 64))
        return None

    def _escalate_measurement(
        self, element: str, attribute: str
    ) -> MeasurementResult | None:
        """Re-measure one attribute across fresh seeds and keep one run.

        The validator calls this when a check fails.  Numeric results
        (latency, size, bandwidth, and the integer amount — re-run via
        its full eviction protocol) keep the median run; ``shared_with``
        re-runs the sharing protocol and keeps the majority outcome —
        a partner tuple has no meaningful median.  Returns None when the
        attribute has no re-measurement path (API values) — the failure
        then stands as recorded.
        """
        handlers = {
            "load_latency": self._remeasure_latency,
            "size": self._remeasure_size,
            "read_bandwidth": lambda ctx, el: measure_bandwidth(ctx, el, "read"),
            "write_bandwidth": lambda ctx, el: measure_bandwidth(ctx, el, "write"),
            "amount": self._remeasure_amount,
            "shared_with": self._remeasure_sharing,
        }
        handler = handlers.get(attribute)
        if handler is None:
            return None
        candidates: list[MeasurementResult] = []
        for offset in _ESCALATION_SEED_OFFSETS:
            ctx = self._escalation_context(offset)
            try:
                with self._phase(element, f"escalate:{attribute}"):
                    m = handler(ctx, element)
            except ReproError:
                continue
            if m is None or not m.conclusive:
                continue
            if attribute != "shared_with" and (
                isinstance(m.value, bool) or not isinstance(m.value, (int, float))
            ):
                continue
            candidates.append(m)
        if not candidates:
            return None
        if attribute == "shared_with":
            # Majority vote over canonical forms; ties keep the earliest
            # seed so the outcome is deterministic.
            chosen = candidates[majority_index([repr(c.value) for c in candidates])]
            tag = (
                f"escalated: majority of {len(candidates)} protocol re-runs "
                "across fresh seeds"
            )
        else:
            chosen = candidates[median_index([float(c.value) for c in candidates])]
            # Bandwidth re-measurements run the stream benchmark's fixed
            # best-of-3 loop, amount re-runs the full eviction protocol;
            # only the p-chase paths consume n_samples.
            if attribute in ("read_bandwidth", "write_bandwidth"):
                per_run = "best-of-3 stream runs each"
            elif attribute == "amount":
                per_run = "full eviction protocol each"
            else:
                per_run = f"{2 * self.ctx.config.n_samples} samples each"
            tag = f"escalated: median of {len(candidates)} re-measurements, {per_run}"
        chosen.note = f"{chosen.note}; {tag}" if chosen.note else tag
        # A corrected size recalibrates the tool: later escalations (the
        # latency ring is sized from the measured capacity) must use it.
        if attribute == "size":
            self._measured_sizes[element] = int(chosen.value)
        # Keep the -o raw artifact consistent with the validated report:
        # the escalated run's sweep detail supersedes the original's.
        if chosen.detail:
            self.raw_data.setdefault(element, {})[attribute] = {
                "benchmark": chosen.benchmark,
                "unit": chosen.unit,
                "escalated": True,
                **chosen.detail,
            }
        return chosen
