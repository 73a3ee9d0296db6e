"""Tests for the validation subsystem (repro.validate + stats.compare)."""

import dataclasses
import inspect
import json

import pytest

from repro import MT4G, SimulatedGPU, available_presets
from repro.core.benchmarks.base import MeasurementResult, Source
from repro.core.report import (
    AttributeValue,
    ComputeReport,
    GeneralReport,
    MemoryElementReport,
    RuntimeReport,
    TopologyReport,
)
from repro.gpuspec.presets import get_preset
from repro.pchase.config import PChaseConfig
from repro.stats.compare import (
    agreement_score,
    majority_index,
    median_index,
    recalibrated_confidence,
    relative_error,
    within_tolerance,
)
from repro.validate import (
    is_roundish_size,
    reference_for,
    run_structural_checks,
    validate_report,
)
from repro.validate.validator import run_cross_checks


# ---------------------------------------------------------------------- #
# helpers                                                                 #
# ---------------------------------------------------------------------- #


def _attr(value, unit="B", confidence=0.9, source=Source.BENCHMARK):
    return AttributeValue(value, unit, confidence, source)


def make_report(vendor="NVIDIA", memory=None) -> TopologyReport:
    """A minimal hand-built report for check unit tests."""
    elements = {}
    for name, attrs in (memory or {}).items():
        el = MemoryElementReport(name)
        for attr, av in attrs.items():
            el.set(attr, av)
        elements[name] = el
    return TopologyReport(
        general=GeneralReport(
            vendor=vendor,
            model="synthetic",
            microarchitecture="Test",
            compute_capability="0.0",
            clock_rate_hz=1e9,
            memory_clock_rate_hz=1e9,
            memory_bus_width_bits=256,
        ),
        compute=ComputeReport(
            num_sms=1,
            cores_per_sm=64,
            warp_size=32,
            max_blocks_per_sm=1,
            max_threads_per_block=32,
            max_threads_per_sm=32,
            registers_per_block=1,
            registers_per_sm=1,
            warps_per_sm=2,
            simds_per_sm=0,
        ),
        memory=elements,
        runtime=RuntimeReport(0, 0.0, 0.0),
    )


# ---------------------------------------------------------------------- #
# stats.compare                                                           #
# ---------------------------------------------------------------------- #


class TestCompare:
    def test_relative_error(self):
        assert relative_error(105.0, 100.0) == pytest.approx(0.05)
        assert relative_error(0.0, 0.0) == 0.0

    def test_within_tolerance(self):
        assert within_tolerance(105, 100, 0.05)
        assert not within_tolerance(106, 100, 0.05)

    def test_exact_tolerance(self):
        assert within_tolerance(64, 64, 0.0)
        assert not within_tolerance(64, 63.9, 0.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            within_tolerance(1, 1, -0.1)

    def test_agreement_score_bounds(self):
        assert agreement_score(100, 100, 0.1) == 1.0
        assert agreement_score(120, 100, 0.1) == 0.0
        assert 0.0 < agreement_score(105, 100, 0.1) < 1.0

    def test_recalibration_never_resurrects_zero(self):
        assert recalibrated_confidence(0.0, 1.0) == 0.0

    def test_recalibration_raises_on_agreement(self):
        assert recalibrated_confidence(0.6, 1.0) > 0.6

    def test_recalibration_lowers_on_disagreement(self):
        assert recalibrated_confidence(0.9, 0.0) < 0.9

    def test_median_index(self):
        assert median_index([3.0]) == 0
        assert median_index([9.0, 1.0, 5.0]) == 2
        with pytest.raises(ValueError):
            median_index([])

    def test_majority_index(self):
        assert majority_index(["a"]) == 0
        assert majority_index(["a", "b", "b"]) == 1
        # ties go to the earliest-seen key
        assert majority_index(["a", "b"]) == 0
        assert majority_index(["b", "a", "b", "a"]) == 0
        with pytest.raises(ValueError):
            majority_index([])


# ---------------------------------------------------------------------- #
# structural checks                                                       #
# ---------------------------------------------------------------------- #


class TestRoundishSize:
    @pytest.mark.parametrize(
        "value",
        [
            1024,
            4096,
            3 * 64 * 1024,  # 192 KiB: odd multiple of a power of two
            5 * 1024 * 1024,
            120 * 1024,  # V100 PreferL1 carveout: 15 * 8 KiB
            184 * 1024,  # A100 carveout: 23 * 8 KiB
            2112,  # one 64 B stride past 2 KiB (Table III's "2.1 KiB")
        ],
    )
    def test_accepts_real_capacities(self, value):
        assert is_roundish_size(value)

    @pytest.mark.parametrize("value", [0, -4096, 11111, 1088, 53000])
    def test_rejects_junk(self, value):
        assert not is_roundish_size(value)

    # The tightened carveout rule: with vendor context, an 8 KiB quantum
    # is only accepted when it is consistent with the generation's
    # unified SRAM block and claimed by an L1-silicon element.

    @pytest.mark.parametrize(
        "value,march",
        [
            (120 * 1024, "Volta"),  # V100 PreferL1: 15 * 8 KiB of 128 KiB
            (184 * 1024, "Ampere"),  # A100: 23 * 8 KiB of 192 KiB
            (238 * 1024, "Hopper"),  # H100: fits the 256 KiB block
        ],
    )
    def test_accepts_generation_consistent_carveouts(self, value, march):
        assert is_roundish_size(
            value, vendor="NVIDIA", microarchitecture=march, element="L1"
        )

    def test_rejects_quantum_exceeding_the_generation_block(self):
        # 27 * 8 KiB passed the old "any 8 KiB multiple within 2 %" rule,
        # but no Ampere SRAM block is 216 KiB — only the 256 KiB Hopper
        # block can host that carveout.
        value = 216 * 1024
        assert is_roundish_size(value)  # legacy, context-free call
        assert not is_roundish_size(
            value, vendor="NVIDIA", microarchitecture="Ampere", element="L1"
        )
        assert is_roundish_size(
            value, vendor="NVIDIA", microarchitecture="Hopper", element="L1"
        )

    def test_rejects_carveout_claims_from_non_l1_elements(self):
        value = 184 * 1024
        assert not is_roundish_size(
            value, vendor="NVIDIA", microarchitecture="Ampere", element="ConstL1"
        )
        assert is_roundish_size(
            value, vendor="NVIDIA", microarchitecture="Ampere", element="Texture"
        )

    def test_ampere_block_is_compute_capability_granular(self):
        # GA100 (cc 8.0) has a 192 KiB block; GA10x (cc 8.6) only
        # 128 KiB — the same 184 KiB claim is real on one and impossible
        # on the other.  An unknown CC falls back to the generation's
        # largest block (permissive, never rejects real hardware).
        value = 184 * 1024
        common = dict(vendor="NVIDIA", microarchitecture="Ampere", element="L1")
        assert is_roundish_size(value, compute_capability="8.0", **common)
        assert not is_roundish_size(value, compute_capability="8.6", **common)
        assert is_roundish_size(value, **common)

    def test_amd_has_no_carveout_branch(self):
        assert not is_roundish_size(
            120 * 1024, vendor="AMD", microarchitecture="CDNA2", element="vL1"
        )

    def test_unknown_generation_falls_back_to_quantum_rule(self):
        assert is_roundish_size(
            120 * 1024, vendor="NVIDIA", microarchitecture="FutureArch", element="L1"
        )

    # Element-scope-aware roundness (closes the ROADMAP round-size open
    # item): GPU-scope LLC capacities are whole-MiB slice counts, not
    # SM-SRAM carveouts, and must be judged by the slice rule.

    def test_accepts_whole_mib_llc_slices(self):
        # The latent H100-style case: a *benchmarked* 25 MiB L2 segment
        # (half the 50 MiB L2) is 25 x 1 MiB slices — round for an LLC,
        # impossible for any SM-level element of the same device.
        value = 25 * 1024 * 1024
        assert is_roundish_size(
            value,
            vendor="NVIDIA",
            microarchitecture="Hopper",
            element="L2",
            compute_capability="9.0",
        )
        assert not is_roundish_size(
            value,
            vendor="NVIDIA",
            microarchitecture="Hopper",
            element="L1",
            compute_capability="9.0",
        )

    def test_mib_slices_apply_to_amd_llcs_too(self):
        assert is_roundish_size(
            11 * 1024 * 1024, vendor="AMD", microarchitecture="CDNA3", element="L3"
        )
        assert not is_roundish_size(
            11 * 1024 * 1024, vendor="AMD", microarchitecture="CDNA3", element="vL1"
        )

    def test_mib_slice_slack_is_absolute_not_relative(self):
        # A sweep overshoots by at most one stride (a few KiB); at
        # 25 MiB a relative tolerance would span half a slice and wave
        # any value through.
        mib = 1024 * 1024
        kw = dict(vendor="NVIDIA", microarchitecture="Hopper", element="L2")
        assert is_roundish_size(25 * mib + 32 * 1024, **kw)
        assert not is_roundish_size(25 * mib + 512 * 1024, **kw)

    def test_small_llc_capacities_keep_the_odd_multiple_rule(self):
        kw = dict(vendor="NVIDIA", microarchitecture="Hopper", element="L2")
        assert is_roundish_size(768 * 1024, **kw)  # 3 * 256 KiB
        assert not is_roundish_size(53000, **kw)

    def test_context_free_calls_keep_legacy_behaviour(self):
        # Without element context the MiB-slice branch never engages;
        # the permissive legacy quantum rule still judges (25.5 MiB is
        # an exact 8 KiB multiple, so legacy passes it — the scoped L2
        # call is what correctly rejects it).
        value = 25 * 1024 * 1024 + 512 * 1024
        assert is_roundish_size(value)
        assert not is_roundish_size(
            value, vendor="NVIDIA", microarchitecture="Hopper", element="L2"
        )


class TestStructuralChecks:
    def test_monotonic_hierarchy_passes(self):
        report = make_report(
            memory={
                "L1": {"size": _attr(128 * 1024), "load_latency": _attr(34, "cycles")},
                "L2": {
                    "size": _attr(40 << 20, source=Source.API, confidence=1.0),
                    "load_latency": _attr(200, "cycles"),
                    "read_bandwidth": _attr(2e12, "B/s"),
                },
                "DeviceMemory": {
                    "size": _attr(80 << 30, source=Source.API, confidence=1.0),
                    "load_latency": _attr(600, "cycles"),
                    "read_bandwidth": _attr(1e12, "B/s"),
                },
            }
        )
        results = run_structural_checks(report)
        assert all(c.status != "fail" for c in results)
        assert any(
            c.check == "size_monotonicity:L1<=L2" and c.status == "pass"
            for c in results
        )

    def test_size_inversion_fails(self):
        report = make_report(
            memory={
                "L1": {"size": _attr(64 << 20)},
                "L2": {"size": _attr(1 << 20, source=Source.API, confidence=1.0)},
            }
        )
        failed = [c for c in run_structural_checks(report) if c.status == "fail"]
        assert any(c.check == "size_monotonicity:L1<=L2" for c in failed)
        # only the benchmarked side is implicated for escalation
        assert failed[0].implicated == (("L1", "size"),)

    def test_benchmarked_llc_mib_segment_passes_round_size(self):
        # The latent H100-style case end to end: a future GPU-scope
        # benchmark reporting a 25 MiB L2 segment must not be flagged
        # implausible under vendor context.
        report = make_report(memory={"L2": {"size": _attr(25 << 20)}})
        report.general.microarchitecture = "Hopper"
        report.general.compute_capability = "9.0"
        results = run_structural_checks(report)
        assert any(
            c.check == "round_size:L2" and c.status == "pass" for c in results
        )
        # ... while a half-slice misread of the same magnitude fails.
        report = make_report(memory={"L2": {"size": _attr((25 << 20) + (512 << 10))}})
        report.general.microarchitecture = "Hopper"
        report.general.compute_capability = "9.0"
        assert any(
            c.check == "round_size:L2" and c.status == "fail"
            for c in run_structural_checks(report)
        )

    def test_latency_inversion_fails(self):
        report = make_report(
            memory={
                "L1": {"load_latency": _attr(300, "cycles")},
                "L2": {"load_latency": _attr(100, "cycles")},
            }
        )
        assert any(
            c.check == "latency_monotonicity:L1<=L2" and c.status == "fail"
            for c in run_structural_checks(report)
        )

    def test_bandwidth_inversion_fails(self):
        report = make_report(
            memory={
                "L2": {"read_bandwidth": _attr(1e11, "B/s")},
                "DeviceMemory": {"read_bandwidth": _attr(2e12, "B/s")},
            }
        )
        results = run_structural_checks(report)
        assert any(
            c.check == "bandwidth_ordering.read_bandwidth:L2>=DeviceMemory"
            and c.status == "fail"
            for c in results
        )
        # the write direction (absent here) skips under its own id
        assert any(
            c.check == "bandwidth_ordering.write_bandwidth:L2>=DeviceMemory"
            and c.status == "skip"
            for c in results
        )

    def test_line_smaller_than_fetch_fails(self):
        report = make_report(
            memory={
                "L1": {
                    "cache_line_size": _attr(32),
                    "fetch_granularity": _attr(64),
                }
            }
        )
        assert any(
            c.check == "line_vs_fetch:L1" and c.status == "fail"
            for c in run_structural_checks(report)
        )

    def test_missing_inputs_skip(self):
        report = make_report(memory={"L1": {}})
        results = run_structural_checks(report)
        assert results and all(c.status == "skip" for c in results)

    def test_inconclusive_size_skips_round_check(self):
        report = make_report(
            memory={"ConstL1.5": {"size": _attr(65536, confidence=0.0)}}
        )
        round_checks = [
            c for c in run_structural_checks(report) if c.check.startswith("round_size")
        ]
        assert round_checks[0].status == "skip"

    def test_unround_benchmarked_size_fails(self):
        report = make_report(memory={"L1": {"size": _attr(53000)}})
        assert any(
            c.check == "round_size:L1" and c.status == "fail"
            for c in run_structural_checks(report)
        )


# ---------------------------------------------------------------------- #
# cross-checks                                                            #
# ---------------------------------------------------------------------- #


class TestCrossChecks:
    def test_reference_values(self):
        spec = get_preset("TestGPU-NV")
        size_ref = reference_for(spec, "L1", "size")
        assert size_ref is not None and size_ref[0] == 4096.0
        lat_ref = reference_for(spec, "ConstL1", "load_latency")
        assert lat_ref is not None
        assert lat_ref[0] == pytest.approx(20.0 + spec.noise.measurement_overhead)
        dram = reference_for(spec, "DeviceMemory", "read_bandwidth")
        assert dram is not None and dram[0] == spec.memory.read_bandwidth
        assert reference_for(spec, "NoSuchCache", "size") is None

    def test_l1_reference_respects_carveout(self):
        spec = get_preset("A100")
        ref = reference_for(spec, "L1", "size", cache_config="PreferShared")
        assert ref is not None and ref[0] == spec.l1_carveout["PreferShared"]

    def test_l1tex_siblings_follow_the_carveout(self):
        # Texture/Readonly share the l1tex silicon: their reference size
        # is the carveout, not the nominal spec capacity
        spec = get_preset("A100")
        for element in ("Texture", "Readonly"):
            ref = reference_for(spec, element, "size", cache_config="PreferShared")
            assert ref is not None and ref[0] == spec.l1_carveout["PreferShared"]

    def test_agreeing_value_passes_and_disagreeing_fails(self):
        spec = get_preset("TestGPU-NV")
        report = make_report(
            memory={
                "L1": {"size": _attr(4096)},
                "Texture": {"size": _attr(6000)},
            }
        )
        crosses = {
            (c.element, c.attribute): c for c in run_cross_checks(report, spec)
        }
        assert crosses[("L1", "size")].passed
        assert not crosses[("Texture", "size")].passed

    def test_api_and_inconclusive_values_not_cross_checked(self):
        spec = get_preset("TestGPU-NV")
        report = make_report(
            memory={
                "L2": {"size": _attr(1, source=Source.API, confidence=1.0)},
                "ConstL1.5": {"size": _attr(65536, confidence=0.0)},
            }
        )
        assert run_cross_checks(report, spec) == []

    def test_sharing_protocol_cross_check(self):
        # L1/Texture share the l1tex silicon, ConstL1 has its own cache:
        # the measured partner tuples are judged against the spec groups
        spec = get_preset("TestGPU-NV")
        report = make_report(
            memory={
                "L1": {"shared_with": _attr(("Texture",), "elements")},
                "Texture": {"shared_with": _attr(("L1",), "elements")},
                "ConstL1": {"shared_with": _attr(("L1",), "elements")},
            }
        )
        crosses = {
            (c.element, c.attribute): c for c in run_cross_checks(report, spec)
        }
        assert crosses[("L1", "shared_with")].passed
        assert crosses[("Texture", "shared_with")].passed
        bad = crosses[("ConstL1", "shared_with")]
        assert not bad.passed and bad.rel_error == 1.0
        assert bad.reference == ()  # ConstL1 shares with nobody
        assert bad.reference_source == "spec: physical sharing groups"

    def test_sharing_reference_restricted_to_participants(self):
        # Readonly never ran the protocol here, so it cannot be expected
        # as a partner even though the spec routes it through l1tex
        spec = get_preset("TestGPU-NV")
        report = make_report(
            memory={
                "L1": {"shared_with": _attr(("Texture",), "elements")},
                "Texture": {"shared_with": _attr(("L1",), "elements")},
                "Readonly": {"size": _attr(4096)},
            }
        )
        crosses = {
            (c.element, c.attribute): c for c in run_cross_checks(report, spec)
        }
        assert crosses[("L1", "shared_with")].passed

    def test_flaky_sharing_result_is_not_cross_checked(self):
        # confidence 0 (split repetition votes) is not a claim
        spec = get_preset("TestGPU-NV")
        report = make_report(
            memory={
                "L1": {"shared_with": _attr(("ConstL1",), "elements", confidence=0.0)},
            }
        )
        assert run_cross_checks(report, spec) == []


# ---------------------------------------------------------------------- #
# the full validation pass                                                #
# ---------------------------------------------------------------------- #


class TestValidatePass:
    def _corrupt_report(self):
        spec = get_preset("TestGPU-NV")
        return spec, make_report(
            memory={"L1": {"size": _attr(6000)}}  # ~46% off the 4 KiB truth
        )

    def test_failing_without_escalation(self):
        spec, report = self._corrupt_report()
        v = validate_report(report, spec=spec)
        assert not v.passed
        assert "L1.size" in v.failures()
        assert report.validation is v

    def test_escalation_repairs_and_repasses(self):
        spec, report = self._corrupt_report()
        calls = []

        def escalate(element, attribute):
            calls.append((element, attribute))
            return MeasurementResult("size", element, 4096, "B", 0.95)

        v = validate_report(report, spec=spec, escalate=escalate)
        assert calls == [("L1", "size")]
        assert v.passed
        assert v.escalations[0].resolved
        assert v.escalations[0].old_value == 6000
        assert v.escalations[0].new_value == 4096
        assert report.attribute("L1", "size").value == 4096

    def test_unresolvable_escalation_keeps_failure(self):
        spec, report = self._corrupt_report()
        v = validate_report(report, spec=spec, escalate=lambda e, a: None)
        assert not v.passed
        assert v.escalations and not v.escalations[0].resolved
        assert report.attribute("L1", "size").value == 6000

    def test_inconclusive_escalation_cannot_launder_verdict(self):
        # a confidence-0 re-measurement is a bound, not a claim: if it
        # replaced the conclusive value, the failing checks would merely
        # *skip* on the re-run and the verdict would flip to "pass"
        spec, report = self._corrupt_report()

        def escalate(element, attribute):
            return MeasurementResult(
                "size", element, 65536, "B", 0.0, note="lower bound"
            )

        v = validate_report(report, spec=spec, escalate=escalate)
        assert not v.passed
        assert not v.escalations[0].resolved
        assert report.attribute("L1", "size").value == 6000

    def test_raising_escalator_is_contained(self):
        spec, report = self._corrupt_report()

        def escalate(element, attribute):
            raise RuntimeError("worker died")

        v = validate_report(report, spec=spec, escalate=escalate)
        assert not v.passed and not v.escalations[0].resolved

    def test_recalibration_folds_agreement_into_confidence(self):
        spec = get_preset("TestGPU-NV")
        report = make_report(memory={"L1": {"size": _attr(4096, confidence=0.6)}})
        v = validate_report(report, spec=spec)
        assert report.attribute("L1", "size").confidence > 0.6
        assert v.recalibrations and v.recalibrations[0].before == 0.6

    def test_as_dict_shape(self):
        spec, report = self._corrupt_report()
        d = validate_report(report, spec=spec).as_dict()
        assert d["verdict"] == "fail"
        assert set(d) == {
            "verdict",
            "summary",
            "checks",
            "cross_checks",
            "escalations",
            "recalibrations",
        }
        json.dumps(d)  # must be serialisable as-is


# ---------------------------------------------------------------------- #
# protocol re-measurement escalation (amount, shared_with)                 #
# ---------------------------------------------------------------------- #


class TestProtocolEscalation:
    def _discovered(self, preset="TestGPU-NV"):
        tool = MT4G(SimulatedGPU.from_preset(preset, seed=0))
        return tool, tool.discover()

    def test_seeded_amount_failure_is_remeasured(self):
        tool, report = self._discovered()
        report.memory["L1"].set(
            "amount", AttributeValue(3, "count", 0.9, Source.BENCHMARK)
        )
        v = tool.validate(report)
        rec = next(
            e for e in v.escalations if (e.element, e.attribute) == ("L1", "amount")
        )
        assert rec.resolved and rec.old_value == 3 and rec.new_value == 1
        assert v.passed
        av = report.attribute("L1", "amount")
        assert av.value == 1
        assert "full eviction protocol" in av.note

    def test_seeded_sharing_failure_is_remeasured(self):
        tool, report = self._discovered()
        report.memory["L1"].set(
            "shared_with",
            AttributeValue(("ConstL1",), "elements", 0.9, Source.BENCHMARK),
        )
        v = tool.validate(report)
        rec = next(
            e
            for e in v.escalations
            if (e.element, e.attribute) == ("L1", "shared_with")
        )
        assert rec.resolved
        assert rec.old_value == ("ConstL1",)
        assert rec.new_value == ("Readonly", "Texture")
        assert v.passed
        assert "majority" in report.attribute("L1", "shared_with").note
        assert "protocol check disagrees" in rec.reason

    def test_l2_segment_miscount_is_remeasured(self):
        # TestGPU-NV-2SEG has two L2 segments; a seeded miscount must be
        # repaired by replaying the segment sweep + API alignment
        tool, report = self._discovered("TestGPU-NV-2SEG")
        old = report.attribute("L2", "amount")
        assert old.value == 2
        report.memory["L2"].set(
            "amount", AttributeValue(5, "count", 0.9, Source.BENCHMARK)
        )
        v = tool.validate(report)
        rec = next(
            e for e in v.escalations if (e.element, e.attribute) == ("L2", "amount")
        )
        assert rec.resolved and rec.new_value == 2
        assert v.passed

    def test_sharing_matrix_reused_across_escalated_elements(self, monkeypatch):
        # the pairwise protocol measures the whole matrix at once: two
        # escalated elements must share one matrix per seed, not re-run it
        import repro.core.tool as tool_mod

        tool, report = self._discovered()
        for el in ("L1", "Texture"):
            report.memory[el].set(
                "shared_with",
                AttributeValue(("ConstL1",), "elements", 0.9, Source.BENCHMARK),
            )
        calls = []
        real = tool_mod.measure_sharing_nvidia

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tool_mod, "measure_sharing_nvidia", counting)
        v = tool.validate(report)
        resolved = [e for e in v.escalations if e.attribute == "shared_with"]
        assert len(resolved) == 2 and all(e.resolved for e in resolved)
        assert v.passed
        # 3 escalation seeds x 2 elements, but only 3 matrix runs
        assert len(calls) == 3

    def test_amd_sl1d_sharing_has_remeasurement_path(self):
        device = SimulatedGPU.from_preset("TestGPU-AMD", seed=0)
        tool = MT4G(device)
        tool.discover()
        ctx = tool._escalation_context(1009)
        m = tool._remeasure_sharing(ctx, "sL1d")
        assert m is not None and m.unit == "cu-map" and m.conclusive

    def test_protocol_paths_refuse_unmeasurable_elements(self):
        device = SimulatedGPU.from_preset("TestGPU-NV", seed=0)
        tool = MT4G(device)
        tool.discover()
        ctx = tool._escalation_context(1009)
        # the constant bank caps eviction probing (paper Section III-C)
        assert tool._amount(ctx, "ConstL1.5") is None
        assert tool._remeasure_sharing(ctx, "L2") is None

    def test_amd_l2_amount_is_api_and_not_remeasured(self):
        device = SimulatedGPU.from_preset("TestGPU-AMD", seed=0)
        tool = MT4G(device)
        tool.discover()
        ctx = tool._escalation_context(1009)
        assert tool._amount(ctx, "L2") is None

    @pytest.mark.parametrize("preset", ["TestGPU-NV", "TestGPU-AMD"])
    def test_escalation_reruns_the_pipelines_recipe(self, preset, monkeypatch):
        # discovery and escalation share one recipe per (element,
        # attribute): a re-measurement repeats the experiment that was
        # checked, only on a fresh seed with more samples
        import repro.core.tool as tool_mod

        calls = []
        for fn in ("measure_load_latency", "measure_cache_size", "measure_amount"):
            real = getattr(tool_mod, fn)

            def recording(*args, _fn=fn, _real=real, **kwargs):
                bound = inspect.signature(_real).bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = dict(bound.arguments)
                del arguments["ctx"]
                calls.append((_fn, arguments["target"], arguments))
                return _real(*args, **kwargs)

            monkeypatch.setattr(tool_mod, fn, recording)
        tool, report = self._discovered(preset)
        pipeline = list(calls)
        remeasured = set()
        for element in report.memory:
            for attribute in ("load_latency", "size", "amount"):
                calls.clear()
                sizes = dict(tool._measured_sizes)
                tool._escalate_measurement(element, attribute)
                tool._measured_sizes = sizes  # a kept size recalibrates
                for call in calls:
                    assert call in pipeline, (element, attribute, call)
                    remeasured.add((call[0], call[1]))
        latency_elements = {c[1] for c in pipeline if c[0] == "measure_load_latency"}
        assert {("measure_load_latency", e) for e in latency_elements} <= remeasured
        if preset == "TestGPU-NV":
            assert "ConstL1.5" in latency_elements


# ---------------------------------------------------------------------- #
# end-to-end: every preset validates clean at seed 0                      #
# ---------------------------------------------------------------------- #


#: Unescalated cross-check failures at seed 0: each is a ConstL1 size one
#: sweep step (6.25 %) off its reference, past the 5 % size tolerance;
#: escalation repairs every one.
RAW_FAILURES_AT_SEED_0 = {
    "A100": {("ConstL1", "size")},
    "TestGPU-NV": {("ConstL1", "size")},
    "TestGPU-NV-2SEG": {("ConstL1", "size")},
}


@pytest.mark.parametrize("preset", available_presets(include_testing=True))
def test_all_presets_validate_clean_at_seed_0(preset):
    device = SimulatedGPU.from_preset(preset, seed=0)
    tool = MT4G(device)
    report = tool.discover()
    raw = run_cross_checks(report, device.spec, device.cache_config)
    failed = {(c.element, c.attribute) for c in raw if not c.passed}
    assert failed == RAW_FAILURES_AT_SEED_0.get(preset, set())
    v = tool.validate(report)
    assert v is report.validation
    assert v is not None and v.passed, (
        f"{preset}: validation failed: {v.failures()}"
    )
    # the section serialises into the JSON report
    d = report.as_dict()
    assert d["validation"]["verdict"] == "pass"
    json.dumps(d, default=str)


def test_non_default_carveout_validates_clean():
    """The carveout config flows into the cross-check references."""
    device = SimulatedGPU.from_preset("A100", seed=0, cache_config="PreferShared")
    report = MT4G(device).discover(validate=True)
    assert report.validation.passed, report.validation.failures()
    assert report.attribute("L1", "size").value < 64 * 1024


def test_validated_reports_identical_across_engines():
    """The PR-1 invariant extends through validation and escalation."""
    reports = {}
    for engine in ("analytic", "exact"):
        device = SimulatedGPU.from_preset("TestGPU-NV", seed=0)
        tool = MT4G(device, config=PChaseConfig(engine=engine))
        reports[engine] = tool.discover(validate=True).as_dict()
    a = json.dumps(reports["analytic"], default=str, sort_keys=True)
    b = json.dumps(reports["exact"], default=str, sort_keys=True)
    assert a == b


def test_validation_is_opt_in():
    """Plain discover() must stay byte-identical to the seed behaviour."""
    report = MT4G(SimulatedGPU.from_preset("TestGPU-AMD", seed=3)).discover()
    assert report.validation is None
    assert "validation" not in report.as_dict()


def test_escalation_seeds_do_not_touch_primary_device():
    device = SimulatedGPU.from_preset("TestGPU-NV", seed=0)
    tool = MT4G(device)
    report = tool.discover()
    elapsed_before = device.elapsed_seconds()
    tool.validate(report)
    # escalation re-measures on *fresh* devices; the Section V-A run-time
    # accounting of the primary device must not change
    assert device.elapsed_seconds() == elapsed_before
