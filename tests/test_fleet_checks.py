"""Tests for the fleet-level cross-device judge (repro.validate.fleet_checks)."""

import json

import pytest

from repro.core.benchmarks.base import Source
from repro.core.report import (
    AttributeValue,
    ComputeReport,
    GeneralReport,
    MemoryElementReport,
    RuntimeReport,
    TopologyReport,
)
from repro.validate import discover_fleet, run_fleet_checks
from repro.validate.fleet import FleetEntry, FleetResult
from repro.validate.fleet_checks import (
    FLEET_TOLERANCES,
    FleetValidation,
    INVARIANT_ATTRIBUTES,
)

#: Both synthetic NVIDIA presets report microarchitecture "Hopper", so a
#: fleet of the two forms one judged group.
HOPPER_PAIR = ("TestGPU-NV", "TestGPU-NV-2SEG")


def make_entry(
    preset: str,
    memory: dict[str, dict[str, AttributeValue]],
    vendor: str = "NVIDIA",
    microarchitecture: str = "Test",
    warp_size: int = 32,
) -> FleetEntry:
    """A hand-built successful fleet entry for unit tests."""
    elements = {}
    for name, attrs in memory.items():
        el = MemoryElementReport(name)
        for attr, av in attrs.items():
            el.set(attr, av)
        elements[name] = el
    report = TopologyReport(
        general=GeneralReport(
            vendor=vendor,
            model=preset,
            microarchitecture=microarchitecture,
            compute_capability="0.0",
            clock_rate_hz=1e9,
            memory_clock_rate_hz=1e9,
            memory_bus_width_bits=256,
        ),
        compute=ComputeReport(
            num_sms=1,
            cores_per_sm=64,
            warp_size=warp_size,
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
    return FleetEntry(preset, 0, report, 0.0)


def make_fleet(entries: list[FleetEntry]) -> FleetResult:
    return FleetResult(entries=entries, jobs=1, total_wall_seconds=0.0, seed=0)


def _attr(value, unit="B", confidence=1.0, source=Source.BENCHMARK):
    return AttributeValue(value, unit, confidence, source)


# ---------------------------------------------------------------------- #
# real fleets                                                             #
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def hopper_fleet():
    return discover_fleet(HOPPER_PAIR, seed=0, jobs=1)


class TestJudgedFleet:
    def test_same_microarch_pair_judges_clean(self, hopper_fleet):
        v = hopper_fleet.validation
        assert isinstance(v, FleetValidation)
        assert v.verdict == "pass" and v.passed
        assert hopper_fleet.all_passed

    def test_grouping_by_vendor_and_microarchitecture(self, hopper_fleet):
        assert hopper_fleet.validation.groups == {
            "NVIDIA/Hopper": HOPPER_PAIR,
        }

    def test_invariant_consensus_without_dissent(self, hopper_fleet):
        consensus = hopper_fleet.validation.consensus
        assert consensus, "invariant attributes must be compared"
        assert {c.attribute for c in consensus} <= set(INVARIANT_ATTRIBUTES)
        for c in consensus:
            assert c.status == "pass"
            assert set(c.agreeing) == set(HOPPER_PAIR)
            assert c.dissenting == ()

    def test_warp_and_ordering_checks_pass(self, hopper_fleet):
        checks = {c.check: c for c in hopper_fleet.validation.checks}
        assert checks["warp_size:NVIDIA/Hopper"].status == "pass"
        assert checks["ordering.size:NVIDIA/Hopper"].status == "pass"
        assert checks["ordering.load_latency:NVIDIA/Hopper"].status == "pass"

    def test_rendered_and_serialised(self, hopper_fleet):
        md = hopper_fleet.to_markdown()
        assert "## Fleet Validation" in md
        assert "Verdict: **pass**" in md
        d = hopper_fleet.as_dict()
        assert d["fleet_validation"]["verdict"] == "pass"
        assert d["fleet_validation"]["summary"]["dissents"] == 0
        json.dumps(d, default=str)

    def test_singleton_groups_skip(self):
        result = discover_fleet(
            ("TestGPU-NV", "TestGPU-AMD"), seed=0, jobs=1
        )
        v = result.validation
        # different vendors: two singleton groups, nothing to compare
        assert set(v.groups) == {"NVIDIA/Hopper", "AMD/CDNA2"}
        assert all(c.status == "skip" for c in v.checks)
        assert v.consensus == []
        assert v.verdict == "pass"

    def test_same_microarch_amd_pair_judges_clean(self):
        # both synthetic AMD presets resolve to CDNA2 through the tool's
        # gfx lookup table, so they form one judged group
        result = discover_fleet(
            ("TestGPU-AMD", "TestGPU-AMD-L3"), seed=0, jobs=1
        )
        v = result.validation
        assert v.groups == {"AMD/CDNA2": ("TestGPU-AMD", "TestGPU-AMD-L3")}
        assert v.verdict == "pass"

    def test_unvalidated_fleet_has_no_judgement(self):
        result = discover_fleet(
            ("TestGPU-NV",), seed=0, validate=False, jobs=1
        )
        assert result.validation is None
        assert "fleet_validation" not in result.as_dict()


# ---------------------------------------------------------------------- #
# hand-built disagreements                                                #
# ---------------------------------------------------------------------- #


class TestDissent:
    def _pair(self, line_b="64", conf_b=0.8):
        a = make_entry(
            "gpu-a", {"L1": {"cache_line_size": _attr(64, confidence=1.0)}}
        )
        b = make_entry(
            "gpu-b",
            {"L1": {"cache_line_size": _attr(int(line_b), confidence=conf_b)}},
        )
        return a, b

    def test_dissent_fails_and_recalibrates(self):
        a, b = self._pair(line_b="128")
        result = make_fleet([a, b])
        v = run_fleet_checks(result)
        assert v.verdict == "fail"
        assert result.validation is v
        assert not result.all_passed
        (c,) = [c for c in v.consensus if c.attribute == "cache_line_size"]
        # confidence-weighted majority: 1.0 behind 64 beats 0.8 behind 128
        assert c.consensus == 64.0
        assert c.agreeing == ("gpu-a",) and c.dissenting == ("gpu-b",)
        assert "NVIDIA/Test:L1.cache_line_size" in v.failures()
        (r,) = v.recalibrations
        assert r.preset == "gpu-b" and r.before == 0.8 and r.after < 0.8
        # the recalibration lands on the dissenting report itself
        assert b.report.attribute("L1", "cache_line_size").confidence == r.after

    def test_rejudging_is_idempotent(self):
        # a second validate() must not compound the dissenter's demotion
        a, b = self._pair(line_b="128")
        result = make_fleet([a, b])
        v1 = run_fleet_checks(result)
        (r1,) = v1.recalibrations
        v2 = result.validate()
        (r2,) = v2.recalibrations
        assert (r2.before, r2.after) == (r1.before, r1.after)
        assert b.report.attribute("L1", "cache_line_size").confidence == r1.after
        assert v2.verdict == "fail"

    def test_agreement_passes(self):
        v = run_fleet_checks(make_fleet(list(self._pair())))
        assert v.verdict == "pass"
        (c,) = [c for c in v.consensus if c.attribute == "cache_line_size"]
        assert c.dissenting == () and c.weight == pytest.approx(1.8)

    def test_api_dissenter_is_never_recalibrated(self):
        a, _ = self._pair()
        b = make_entry(
            "gpu-b",
            {
                "L1": {
                    "cache_line_size": _attr(
                        128, confidence=1.0, source=Source.API
                    )
                }
            },
        )
        # equal weights 1.0 behind 64 and 128: tie goes to the smaller
        # value, so the API value dissents — but stays untouched.
        v = run_fleet_checks(make_fleet([a, b]))
        assert v.verdict == "fail"
        assert v.recalibrations == []
        assert b.report.attribute("L1", "cache_line_size").confidence == 1.0

    def test_warp_size_mismatch_fails(self):
        a = make_entry("gpu-a", {}, warp_size=32)
        b = make_entry("gpu-b", {}, warp_size=64)
        v = run_fleet_checks(make_fleet([a, b]))
        assert "warp_size:NVIDIA/Test" in v.failures()

    def test_warp_size_tolerance_override_is_honoured(self):
        a = make_entry("gpu-a", {}, warp_size=32)
        b = make_entry("gpu-b", {}, warp_size=64)
        v = run_fleet_checks(make_fleet([a, b]), tolerances={"warp_size": 1.0})
        assert v.verdict == "pass"

    def test_ordering_conflict_fails(self):
        # gpu-a: L1 clearly faster than L2; gpu-b: clearly slower
        a = make_entry(
            "gpu-a",
            {
                "L1": {"load_latency": _attr(30, "cycles")},
                "L2": {"load_latency": _attr(200, "cycles")},
            },
        )
        b = make_entry(
            "gpu-b",
            {
                "L1": {"load_latency": _attr(210, "cycles")},
                "L2": {"load_latency": _attr(100, "cycles")},
            },
        )
        v = run_fleet_checks(make_fleet([a, b]))
        failed = [c for c in v.checks if c.status == "fail"]
        assert any(
            c.check == "ordering.load_latency:NVIDIA/Test:L1-vs-L2" for c in failed
        )
        assert v.verdict == "fail"

    def test_near_tie_never_conflicts(self):
        # within the 15 % latency tolerance on one device: a tie is
        # compatible with either ordering on the other
        a = make_entry(
            "gpu-a",
            {
                "L1": {"load_latency": _attr(100, "cycles")},
                "L2": {"load_latency": _attr(110, "cycles")},
            },
        )
        b = make_entry(
            "gpu-b",
            {
                "L1": {"load_latency": _attr(110, "cycles")},
                "L2": {"load_latency": _attr(100, "cycles")},
            },
        )
        v = run_fleet_checks(make_fleet([a, b]))
        assert v.verdict == "pass"

    def test_inconclusive_values_cannot_vote(self):
        a, _ = self._pair()
        b = make_entry(
            "gpu-b", {"L1": {"cache_line_size": _attr(128, confidence=0.0)}}
        )
        v = run_fleet_checks(make_fleet([a, b]))
        # only one conclusive vote: no consensus entry, nothing to judge
        assert v.consensus == []
        assert v.verdict == "pass"

    def test_error_entries_do_not_participate(self):
        a, b = self._pair()
        broken = FleetEntry("gpu-c", 0, None, 0.0, error="boom")
        v = run_fleet_checks(make_fleet([a, b, broken]))
        assert v.verdict == "pass"
        assert all("gpu-c" not in c.presets for c in v.checks)

    def test_tolerance_override(self):
        # a 5 % size delta passes by default but a zero tolerance rejects it
        a = make_entry("gpu-a", {"L1": {"fetch_granularity": _attr(32)}})
        b = make_entry("gpu-b", {"L1": {"fetch_granularity": _attr(32)}})
        assert FLEET_TOLERANCES["fetch_granularity"] == 0.0
        v = run_fleet_checks(make_fleet([a, b]), tolerances={"fetch_granularity": 0.0})
        assert v.verdict == "pass"

    def test_failure_renders_in_markdown(self):
        a, b = self._pair(line_b="128")
        result = make_fleet([a, b])
        run_fleet_checks(result)
        md = result.to_markdown()
        assert "Verdict: **fail**" in md
        assert "Dissenting confidences recalibrated:" in md
        assert json.dumps(result.validation.as_dict())  # JSON-clean as-is
