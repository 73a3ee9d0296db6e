"""Unit tests for the individual Section-IV benchmark families.

End-to-end pipeline assertions live in ``test_tool_*.py``; these tests
exercise each benchmark in isolation, including the honesty paths.
"""

import numpy as np
import pytest

from repro.core.benchmarks import fetch_granularity
from repro.core.benchmarks.amount import measure_amount, resolve_l2_segments
from repro.core.benchmarks.bandwidth import measure_bandwidth, vector_load_kind
from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.core.benchmarks.cacheline import measure_cache_line_size
from repro.core.benchmarks.fetch_granularity import measure_fetch_granularity
from repro.core.benchmarks.latency import measure_load_latency
from repro.core.benchmarks.sharing import measure_sharing_nvidia, measure_sl1d_sharing
from repro.core.benchmarks.size import find_capacity_bounds, measure_cache_size
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.isa import LoadKind
from repro.gpuspec.spec import Quirk, Vendor
from repro.units import KiB
from tests.conftest import make_quirked_amd, make_quirked_nv


@pytest.fixture
def nv_ctx() -> BenchmarkContext:
    return BenchmarkContext(SimulatedGPU.from_preset("TestGPU-NV", seed=4))


@pytest.fixture
def nv2seg_ctx() -> BenchmarkContext:
    return BenchmarkContext(SimulatedGPU.from_preset("TestGPU-NV-2SEG", seed=4))


@pytest.fixture
def amd_ctx() -> BenchmarkContext:
    return BenchmarkContext(SimulatedGPU.from_preset("TestGPU-AMD", seed=4))


class TestMeasurementResult:
    def test_confidence_validated(self):
        with pytest.raises(ValueError):
            MeasurementResult("size", "L1", 1, "B", confidence=2.0)

    def test_no_result(self):
        m = MeasurementResult.no_result("amount", "L1", "count", "because")
        assert m.value is None and not m.conclusive and m.note == "because"


class TestSizeBenchmark:
    def test_l1_size(self, nv_ctx):
        m = measure_cache_size(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1", 32,
                               lo=1024, hi_cap=1 << 20)
        assert m.conclusive
        assert abs(m.value - 4096) / 4096 < 0.12
        assert m.detail["change_point_index"] > 0

    def test_lower_bound_when_capped(self, nv_ctx):
        # Probing capped below the capacity -> honest lower bound, conf 0.
        m = measure_cache_size(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1", 32,
                               lo=512, hi_cap=2048)
        assert m.confidence == 0.0
        assert m.value == 2048
        assert m.detail.get("lower_bound")

    def test_bounds_finder(self, nv_ctx):
        bounds = find_capacity_bounds(nv_ctx, LoadKind.LD_GLOBAL_CA, 32,
                                      lo=1024, hi_cap=1 << 20)
        assert bounds is not None
        a, b = bounds
        assert a <= 4096 <= b

    def test_bounds_none_when_never_exceeding(self, nv_ctx):
        bounds = find_capacity_bounds(nv_ctx, LoadKind.LD_GLOBAL_CA, 32,
                                      lo=512, hi_cap=3072)
        assert bounds is None

    def test_counts_execution(self, nv_ctx):
        before = nv_ctx.benchmarks_run
        measure_cache_size(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1", 32,
                           lo=1024, hi_cap=1 << 20)
        assert nv_ctx.benchmarks_run == before + 1


class TestLatencyBenchmark:
    def test_l1_latency(self, nv_ctx):
        m = measure_load_latency(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1", 32,
                                 array_bytes=2048)
        spec = nv_ctx.device.spec
        expected = spec.cache("L1").load_latency + spec.noise.measurement_overhead
        assert m.value == pytest.approx(expected, abs=3)
        assert m.confidence > 0.5

    def test_stats_attached(self, nv_ctx):
        m = measure_load_latency(nv_ctx, LoadKind.LD_SHARED, "SharedMem", 32,
                                 array_bytes=1024)
        stats = m.detail["stats"]
        assert stats["p50"] <= stats["p95"]
        assert stats["count"] == nv_ctx.config.n_samples

    def test_cold_dram(self, nv_ctx):
        m = measure_load_latency(nv_ctx, LoadKind.LD_GLOBAL_CG, "DeviceMemory",
                                 256, cold=True)
        spec = nv_ctx.device.spec
        expected = spec.memory.load_latency + spec.noise.measurement_overhead
        assert m.value == pytest.approx(expected, abs=6)


class TestFetchGranularity:
    def test_l1(self, nv_ctx):
        m = measure_fetch_granularity(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1")
        assert m.value == 32
        assert m.detail["hits_per_stride"][4] > 0

    def test_amd_vl1(self, amd_ctx):
        m = measure_fetch_granularity(amd_ctx, LoadKind.FLAT_LOAD, "vL1")
        assert m.value == 64

    def test_cap_produces_no_result(self, nv_ctx, monkeypatch):
        monkeypatch.setattr(fetch_granularity, "_MAX_STRIDE", 16)
        m = measure_fetch_granularity(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1")
        assert m.value is None

    def test_threshold_override(self, nv_ctx):
        # With an absolute threshold below every latency, nothing counts
        # as a hit and the smallest stride already looks all-miss.
        m = measure_fetch_granularity(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1",
                                      hit_threshold=1.0)
        assert m.value == 4


class TestCacheLine:
    def test_l1_line(self, nv_ctx):
        m = measure_cache_line_size(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1",
                                    cache_size=4096, fetch_granularity=32)
        assert m.value == 64

    def test_sl1d_line(self, amd_ctx):
        m = measure_cache_line_size(amd_ctx, LoadKind.S_LOAD, "sL1d",
                                    cache_size=2048, fetch_granularity=64)
        assert m.value == 64

    def test_tiny_cache_no_result(self, nv_ctx):
        m = measure_cache_line_size(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1",
                                    cache_size=128, fetch_granularity=64)
        assert m.value is None or m.confidence == 0.0


class TestAmount:
    def test_single_segment(self, nv_ctx):
        m = measure_amount(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1", 4096, 32)
        assert m.value == 1

    def test_two_segments(self, nv2seg_ctx):
        m = measure_amount(nv2seg_ctx, LoadKind.LD_GLOBAL_CA, "L1", 4096, 32)
        assert m.value == 2
        assert m.detail["first_isolated_core"] == 32

    def test_warp_bug_aborts_honestly(self):
        spec = make_quirked_nv(frozenset({Quirk.WARP_SCHEDULING_BUG}))
        ctx = BenchmarkContext(SimulatedGPU(spec, seed=4))
        m = measure_amount(ctx, LoadKind.LD_GLOBAL_CA, "L1", 4096, 32,
                           spans_all_warps=True)
        assert m.value is None
        assert "warp 3" in m.note

    def test_l2_segment_alignment(self, nv_ctx):
        m = resolve_l2_segments(nv_ctx, measured_segment_size=24_900_000,
                                api_total_size=50_000_000)
        assert m.value == 2
        assert m.confidence > 0.9
        assert m.detail["aligned_segment_size"] == 25_000_000

    def test_l2_alignment_validates(self, nv_ctx):
        with pytest.raises(ValueError):
            resolve_l2_segments(nv_ctx, 0, 100)


class TestSharingNvidia:
    def test_l1tex_family_detected(self, nv_ctx):
        targets = {
            "L1": (LoadKind.LD_GLOBAL_CA, 4096, 32),
            "Texture": (LoadKind.TEX1DFETCH, 4096, 32),
            "ConstL1": (LoadKind.LD_CONST, 1024, 32),
        }
        res = measure_sharing_nvidia(nv_ctx, targets)
        assert res["L1"].value == ("Texture",)
        assert res["Texture"].value == ("L1",)
        assert res["ConstL1"].value == ()
        assert res["L1"].confidence > 0.5

    def test_flaky_pascal_lowers_confidence(self):
        # Seed 3 is known to flip the quirk coin both ways within the
        # voting rounds (the flakiness is stochastic by design; a seed
        # where all coins land "clean" is a valid hardware outcome too).
        spec = make_quirked_nv(frozenset({Quirk.FLAKY_L1_CONST_SHARING}))
        ctx = BenchmarkContext(SimulatedGPU(spec, seed=3))
        targets = {
            "L1": (LoadKind.LD_GLOBAL_CA, 4096, 32),
            "ConstL1": (LoadKind.LD_CONST, 1024, 32),
        }
        res = measure_sharing_nvidia(ctx, targets)
        # The coin-flip cross-talk must surface: either disagreeing votes
        # (low confidence) or a spurious sharing verdict.
        flaky = res["L1"].confidence < 1.0 or "ConstL1" in res["L1"].value
        assert flaky


def protocol_log(ctx: BenchmarkContext, monkeypatch) -> list[str]:
    """Record, in order, every flush, warm and probe a protocol makes."""
    log: list[str] = []
    flush = ctx.device.flush_caches

    def flush_spy():
        log.append("flush")
        flush()

    monkeypatch.setattr(ctx.device, "flush_caches", flush_spy)
    for name in ("warm", "probe"):

        def spy(*args, _name=name, _original=getattr(ctx.runner, name), **kwargs):
            log.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(ctx.runner, name, spy)
    return log


class TestEveryRoundFlushes:
    """Each warm-A, warm-B, probe-A round starts from its own flush.

    The probes answer from the known post-flush state in closed form; a
    round that skipped its flush would still produce the same report,
    because its warms re-install the probed ring, so only the order of
    the calls shows it.
    """

    ROUND = ["flush", "warm", "warm", "probe"]

    def test_amount(self, nv_ctx, monkeypatch):
        log = protocol_log(nv_ctx, monkeypatch)
        measure_amount(nv_ctx, LoadKind.LD_GLOBAL_CA, "L1", 4096, 32)
        rounds = nv_ctx.device.sm(0).cores.bit_length() - 1  # core B: 1, 2, 4, ...
        assert log == self.ROUND * rounds

    def test_sharing(self, nv_ctx, monkeypatch):
        log = protocol_log(nv_ctx, monkeypatch)
        targets = {
            "L1": (LoadKind.LD_GLOBAL_CA, 4096, 32),
            "Texture": (LoadKind.TEX1DFETCH, 4096, 32),
            "ConstL1": (LoadKind.LD_CONST, 1024, 32),
        }
        measure_sharing_nvidia(nv_ctx, targets)
        assert log == self.ROUND * (3 * 2 * 3)  # ordered pairs x votes


class TestSharingAMD:
    def test_cu_map_matches_physical_pairs(self, amd_ctx):
        m = measure_sl1d_sharing(amd_ctx, cache_size=2048, fetch_granularity=64)
        pairs = m.value
        # physical ids (0,1,2,4,5,6,8,9): logical pairs (0,1), (3,4), (6,7)
        assert pairs[0] == (1,)
        assert pairs[1] == (0,)
        assert pairs[3] == (4,)
        assert set(m.detail["exclusive_cus"]) == {2, 5}

    def test_virtualized_no_result(self):
        spec = make_quirked_amd(frozenset({Quirk.VIRTUALIZED}))
        ctx = BenchmarkContext(SimulatedGPU(spec, seed=4))
        m = measure_sl1d_sharing(ctx, cache_size=2048, fetch_granularity=64)
        assert m.value is None
        assert "pinned" in m.note


class TestBandwidth:
    def test_l2_read(self, nv_ctx):
        m = measure_bandwidth(nv_ctx, "L2", "read")
        assert m.value == pytest.approx(
            nv_ctx.device.spec.cache("L2").read_bandwidth, rel=0.12
        )
        assert m.confidence > 0.8

    def test_dram_write(self, nv_ctx):
        m = measure_bandwidth(nv_ctx, "DeviceMemory", "write")
        assert m.value == pytest.approx(
            nv_ctx.device.spec.memory.write_bandwidth, rel=0.12
        )

    def test_vector_kind_per_vendor(self):
        assert vector_load_kind(Vendor.NVIDIA) is LoadKind.LD_GLOBAL_V4
        assert vector_load_kind(Vendor.AMD) is LoadKind.FLAT_LOAD_X4

    def test_samples_recorded(self, nv_ctx):
        m = measure_bandwidth(nv_ctx, "L2", "read", repeats=4)
        assert len(m.detail["samples"]) == 4


class TestContextAccounting:
    def test_timeline(self, nv_ctx):
        measure_load_latency(nv_ctx, LoadKind.LD_SHARED, "SharedMem", 32,
                             array_bytes=512)
        measure_load_latency(nv_ctx, LoadKind.LD_SHARED, "SharedMem", 32,
                             array_bytes=512)
        per = nv_ctx.seconds_per_benchmark()
        assert "load_latency:SharedMem" in per
        assert nv_ctx.benchmarks_run == 2
