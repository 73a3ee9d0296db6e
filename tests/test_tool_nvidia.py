"""End-to-end discovery assertions on the synthetic NVIDIA devices.

Every assertion compares the *discovered* report against the spec ground
truth the tool never saw directly — the core claim of the paper.
"""

import pytest

from repro import MT4G, SimulatedGPU
from repro.core.benchmarks.base import Source
from repro.core.tool import NVIDIA_ELEMENTS
from repro.errors import SpecError
from repro.gpuspec.presets import get_preset
from repro.validate.validator import validate_report


SPEC = get_preset("TestGPU-NV")


class TestGeneralAndCompute:
    def test_general(self, nv_report):
        g = nv_report.general
        assert g.vendor == "NVIDIA"
        assert g.microarchitecture == "Hopper"
        assert g.compute_capability == "9.0"
        assert g.clock_rate_hz == pytest.approx(SPEC.core_clock_hz, rel=1e-3)

    def test_compute_from_api(self, nv_report):
        c = nv_report.compute
        assert c.num_sms == SPEC.compute.num_sms
        assert c.warp_size == 32
        assert c.max_threads_per_block == SPEC.compute.max_threads_per_block
        assert c.registers_per_sm == SPEC.compute.registers_per_sm

    def test_cores_from_lookup_table(self, nv_report):
        # Hopper lookup: 128 cores/SM (Section III-B's internal table);
        # the synthetic device actually has 64 — the tool reports the
        # lookup value, as the real tool would.
        assert nv_report.compute.cores_per_sm == 128
        assert nv_report.compute.cores_per_sm_source is Source.LOOKUP


class TestElementCoverage:
    def test_all_elements_reported(self, nv_report):
        assert set(nv_report.memory) == set(NVIDIA_ELEMENTS)

    def test_api_attributes_marked(self, nv_report):
        assert nv_report.attribute("L2", "size").source is Source.API
        assert nv_report.attribute("SharedMem", "size").source is Source.API
        assert nv_report.attribute("DeviceMemory", "size").source is Source.API

    def test_benchmarked_attributes_marked(self, nv_report):
        assert nv_report.attribute("L1", "size").source is Source.BENCHMARK
        assert nv_report.attribute("L1", "fetch_granularity").source is Source.BENCHMARK


class TestDiscoveredValues:
    @pytest.mark.parametrize("element", ["L1", "Texture", "Readonly"])
    def test_l1_family_size(self, nv_report, element):
        measured = nv_report.attribute(element, "size").value
        assert abs(measured - 4096) / 4096 < 0.12

    def test_const_sizes(self, nv_report):
        assert nv_report.attribute("ConstL1", "size").value == pytest.approx(1024, rel=0.1)
        assert nv_report.attribute("ConstL1.5", "size").value == pytest.approx(8192, rel=0.1)

    @pytest.mark.parametrize(
        "element,expected",
        [("L1", 32), ("Texture", 32), ("Readonly", 32), ("ConstL1", 32),
         ("ConstL1.5", 64), ("L2", 32)],
    )
    def test_fetch_granularities(self, nv_report, element, expected):
        assert nv_report.attribute(element, "fetch_granularity").value == expected

    @pytest.mark.parametrize(
        "element,expected",
        [("L1", 64), ("Texture", 64), ("Readonly", 64), ("ConstL1", 32), ("L2", 64)],
    )
    def test_cache_lines(self, nv_report, element, expected):
        assert nv_report.attribute(element, "cache_line_size").value == expected

    @pytest.mark.parametrize(
        "element,true_latency",
        [("L1", 30.0), ("Texture", 32.0), ("Readonly", 31.0), ("ConstL1", 20.0),
         ("ConstL1.5", 60.0), ("L2", 100.0), ("SharedMem", 15.0),
         ("DeviceMemory", 300.0)],
    )
    def test_latencies_track_truth_plus_overhead(self, nv_report, element, true_latency):
        measured = nv_report.attribute(element, "load_latency").value
        overhead = SPEC.noise.measurement_overhead
        assert measured == pytest.approx(true_latency + overhead, abs=5)

    def test_constl1_latency_probes_inside_an_overestimated_size(self):
        """H100-80 at seed 100 measures ConstL1 at 2112 B against 2048 B.

        Within the size tolerance, yet a latency ring of the full
        measured size would thrash and read about 40 cycles.  With the
        10 % in-cache margin the unescalated cross-check passes.
        """
        dev = SimulatedGPU.from_preset("H100-80", seed=100)
        report = MT4G(dev).discover()
        validation = validate_report(
            report, spec=dev.spec, cache_config=dev.cache_config, escalate=None
        )
        check = next(
            c
            for c in validation.cross_checks
            if (c.element, c.attribute) == ("ConstL1", "load_latency")
        )
        assert check.passed, (check.measured, check.reference)

    def test_bandwidths(self, nv_report):
        l2 = nv_report.attribute("L2", "read_bandwidth").value
        assert l2 == pytest.approx(SPEC.cache("L2").read_bandwidth, rel=0.12)
        dram_w = nv_report.attribute("DeviceMemory", "write_bandwidth").value
        assert dram_w == pytest.approx(SPEC.memory.write_bandwidth, rel=0.12)

    def test_low_level_bandwidth_not_measured(self, nv_report):
        # Table I dagger: only higher levels get bandwidth numbers.
        assert nv_report.attribute("L1", "read_bandwidth").source is Source.NOT_APPLICABLE

    def test_sharing_matrix(self, nv_report):
        assert set(nv_report.attribute("L1", "shared_with").value) == {"Readonly", "Texture"}
        assert nv_report.attribute("ConstL1", "shared_with").value == ()

    def test_amounts(self, nv_report):
        assert nv_report.attribute("L1", "amount").value == 1
        assert nv_report.attribute("L2", "amount").value == 1

    def test_cl15_amount_unavailable(self, nv_report):
        av = nv_report.attribute("ConstL1.5", "amount")
        assert av.source is Source.UNAVAILABLE
        assert "64 KiB" in av.note

    def test_cl15_line_unavailable(self, nv_report):
        assert nv_report.attribute("ConstL1.5", "cache_line_size").source is Source.UNAVAILABLE


class TestTwoSegmentVariant:
    def test_l1_amount_two(self, nv2seg_report):
        assert nv2seg_report.attribute("L1", "amount").value == 2

    def test_l2_segments_from_alignment(self, nv2seg_report):
        av = nv2seg_report.attribute("L2", "amount")
        assert av.value == 2
        assert av.confidence > 0.8

    def test_l2_size_reports_api_total(self, nv2seg_report):
        # API reports segments * size = 64 KiB even though one segment is 32.
        assert nv2seg_report.attribute("L2", "size").value == 64 * 1024


class TestRuntimeAccounting:
    def test_benchmark_count_in_paper_range(self, nv_report):
        # Paper Section V-A: ~35 benchmarks on NVIDIA.
        assert 30 <= nv_report.runtime.benchmarks_executed <= 45

    def test_time_positive(self, nv_report):
        assert nv_report.runtime.simulated_gpu_seconds > 0
        assert nv_report.runtime.modeled_total_seconds > nv_report.runtime.simulated_gpu_seconds


class TestTargetFiltering:
    def test_subset_discovery(self):
        device = SimulatedGPU.from_preset("TestGPU-NV", seed=9)
        report = MT4G(device, targets={"SharedMem", "DeviceMemory"}).discover()
        assert set(report.memory) == {"SharedMem", "DeviceMemory"}

    def test_unknown_target_rejected(self):
        device = SimulatedGPU.from_preset("TestGPU-NV", seed=9)
        with pytest.raises(SpecError):
            MT4G(device, targets={"vL1"})


class TestDeterminism:
    def test_same_seed_same_sizes(self):
        r1 = MT4G(SimulatedGPU.from_preset("TestGPU-NV", seed=77),
                  targets={"SharedMem"}).discover()
        r2 = MT4G(SimulatedGPU.from_preset("TestGPU-NV", seed=77),
                  targets={"SharedMem"}).discover()
        a = r1.attribute("SharedMem", "load_latency").value
        b = r2.attribute("SharedMem", "load_latency").value
        assert a == b
