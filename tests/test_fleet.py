"""Tests for the fleet runner (repro.validate.fleet)."""

import json

import pytest

from repro.errors import ReproError
from repro.validate import discover_fleet
from repro.validate.fleet import FleetEntry, _discover_one

PRESETS = ("TestGPU-AMD", "TestGPU-AMD-L3")


@pytest.fixture(scope="module")
def sequential():
    return discover_fleet(PRESETS, seed=0, jobs=1)


@pytest.fixture(scope="module")
def concurrent():
    return discover_fleet(PRESETS, seed=0, jobs=2)


class TestDiscoverFleet:
    def test_entries_in_input_order(self, concurrent):
        assert [e.preset for e in concurrent.entries] == list(PRESETS)
        assert concurrent.jobs == 2

    def test_all_verdicts_pass(self, concurrent):
        assert concurrent.verdicts() == {p: "pass" for p in PRESETS}
        assert concurrent.all_passed

    def test_parallel_matches_sequential_byte_for_byte(self, sequential, concurrent):
        a = json.dumps(sequential.as_dict()["reports"], default=str, sort_keys=True)
        b = json.dumps(concurrent.as_dict()["reports"], default=str, sort_keys=True)
        assert a == b

    def test_unknown_preset_fails_fast(self):
        with pytest.raises(ReproError):
            discover_fleet(["NoSuchGPU"], jobs=1)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ReproError):
            discover_fleet([])

    def test_duplicate_presets_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            discover_fleet(["TestGPU-AMD", "TestGPU-AMD"])

    def test_unvalidated_fleet(self):
        result = discover_fleet(["TestGPU-AMD"], seed=0, validate=False, jobs=1)
        assert result.verdicts() == {"TestGPU-AMD": "unvalidated"}
        assert not result.all_passed

    def test_worker_failure_becomes_error_entry(self, monkeypatch):
        import repro.validate.fleet as fleet_mod

        def boom(preset, seed, cache_config, validate, cache_dir=None,
                 retry=None):
            raise RuntimeError(f"{preset} exploded")

        monkeypatch.setattr(fleet_mod, "_discover_one", boom)
        result = discover_fleet(PRESETS, seed=0, jobs=1)
        assert all(e.verdict == "error" for e in result.entries)
        assert "exploded" in result.entry("TestGPU-AMD").error
        assert result.entry("TestGPU-AMD").error_kind == "infrastructure"

    def test_worker_function_is_self_contained(self):
        outcome = _discover_one("TestGPU-AMD", 0, "PreferL1", True)
        assert outcome.preset == "TestGPU-AMD"
        assert outcome.report.validation is not None
        assert outcome.wall_seconds > 0 and outcome.error == ""
        assert outcome.attempts == 1 and outcome.error_kind == ""

    def test_worker_returns_failure_as_data_with_real_wall(self):
        # unknown preset inside the worker: error carried as data, not an
        # exception, with the actual elapsed wall (same accounting as a
        # successful run, in both sequential and concurrent modes)
        outcome = _discover_one("NoSuchGPU", 0, "PreferL1", True)
        assert outcome.preset == "NoSuchGPU" and outcome.report is None
        assert outcome.wall_seconds > 0 and "NoSuchGPU" in outcome.error
        # an unknown preset cannot be retried into existence
        assert outcome.error_kind == "permanent" and outcome.attempts == 1


class TestFleetResult:
    def test_comparison_matrix_fields(self, concurrent):
        rows = concurrent.comparison_matrix()
        assert len(rows) == len(PRESETS)
        first = rows[0]
        assert first["preset"] == "TestGPU-AMD"
        assert first["vendor"] == "AMD"
        assert first["first_level_size"] == 4096
        assert first["verdict"] == "pass"
        assert first["benchmarks_executed"] > 0

    def test_markdown_matrix(self, concurrent):
        md = concurrent.to_markdown()
        assert "# MT4G Fleet Report" in md
        for preset in PRESETS:
            assert f"| {preset} |" in md
        assert "| pass |" in md

    def test_as_dict_serialisable(self, concurrent):
        d = concurrent.as_dict()
        assert d["schema"] == "mt4g-repro-fleet/1"
        assert set(d["reports"]) == set(PRESETS)
        json.dumps(d, default=str)

    def test_error_entry_rendering(self):
        result = discover_fleet(["TestGPU-AMD"], seed=0, validate=False, jobs=1)
        result.entries.append(
            FleetEntry("BrokenGPU", 0, None, 0.1, error="sim crashed")
        )
        row = result.comparison_matrix()[-1]
        assert row["error"] == "sim crashed"
        assert "error: sim crashed" in result.to_markdown()
        with pytest.raises(KeyError):
            result.entry("NeverRan")

    def test_empty_error_entry_still_renders_text(self):
        # an entry built with an empty error string (ok is False either
        # way) must not print a blank "error: " cell
        result = discover_fleet(["TestGPU-AMD"], seed=0, validate=False, jobs=1)
        result.entries.append(FleetEntry("BrokenGPU", 0, None, 0.1, error=""))
        assert "error: unknown error" in result.to_markdown()

    def test_zero_values_render_as_values_not_missing(self):
        # a legitimately-zero attribute is a value, not a missing cell
        result = discover_fleet(["TestGPU-AMD"], seed=0, validate=False, jobs=1)
        report = result.entry("TestGPU-AMD").report
        report.memory["vL1"].get("size").value = 0
        report.memory["DeviceMemory"].get("load_latency").value = 0.0
        report.memory["DeviceMemory"].get("read_bandwidth").value = 0.0
        row = result.comparison_matrix()[0]
        assert row["first_level_size"] == 0
        assert row["dram_latency_cycles"] == 0.0
        md_row = next(
            line for line in result.to_markdown().splitlines()
            if line.startswith("| TestGPU-AMD |")
        )
        assert "| 0 B |" in md_row
        assert "| 0 cyc |" in md_row
        assert "| 0 B/s |" in md_row
        assert "| — |" not in md_row

    def test_fleet_validation_attached_when_validating(self, concurrent):
        assert concurrent.validation is not None
        assert concurrent.validation.verdict == "pass"
        assert "fleet_validation" in concurrent.as_dict()
        assert "## Fleet Validation" in concurrent.to_markdown()


class TestErrorFallback:
    def test_worker_empty_exception_message_falls_back_to_type(self, monkeypatch):
        import repro.validate.fleet as fleet_mod

        class ExplodingGPU:
            def __init__(self, *a, **k):
                raise ValueError()  # deliberately message-less

        monkeypatch.setattr(fleet_mod, "SimulatedGPU", ExplodingGPU)
        outcome = _discover_one("TestGPU-AMD", 0, "PreferL1", False)
        assert outcome.report is None and outcome.error == "ValueError"

    def test_sequential_loop_empty_message_falls_back_to_type(self, monkeypatch):
        import repro.validate.fleet as fleet_mod

        def boom(preset, seed, cache_config, validate, cache_dir=None,
                 retry=None):
            raise RuntimeError()  # deliberately message-less

        monkeypatch.setattr(fleet_mod, "_discover_one", boom)
        result = discover_fleet(["TestGPU-AMD"], seed=0, jobs=1)
        assert result.entry("TestGPU-AMD").error == "RuntimeError"
        assert "error[infrastructure]: RuntimeError" in result.to_markdown()

    def test_handbuilt_error_entry_renders_without_kind(self):
        from repro.validate.fleet import FleetResult

        entry = FleetEntry("X", 0, None, 0.0, error="boom")
        result = FleetResult(entries=[entry], jobs=1,
                             total_wall_seconds=0.0, seed=0)
        assert "error: boom" in result.to_markdown()
