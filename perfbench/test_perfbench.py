"""Tests of the benchmark's own helpers: ledger arithmetic, tail rule, tally."""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import types
from pathlib import Path

import pytest

from layers import EXACT, LAYERS, TARGETS, per_layer_metrics, traced
from ledger import Ledger, Patcher, Tally, percentile, span, tail_percentile


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def at(clock: FakeClock, t: float) -> None:
    clock.now = t


def ledger_at(t0: float = 0.0) -> tuple[Ledger, FakeClock]:
    clock = FakeClock()
    ledger = Ledger(clock)
    at(clock, t0)
    ledger.start()
    return ledger, clock


def assert_partition(ledger: Ledger) -> None:
    assert ledger.attributed_s() + ledger.unattributed_s == pytest.approx(ledger.wall_s)


class TestSelfTime:
    def test_nested_spans_subtract_their_children(self):
        ledger, clock = ledger_at(-1.0)
        at(clock, 0.0)
        outer = ledger.enter("core.discover")
        at(clock, 2.0)
        inner = ledger.enter("kernel.pchase")
        at(clock, 5.0)
        ledger.exit(inner)
        at(clock, 6.0)
        inner = ledger.enter("stats.outliers")
        at(clock, 7.0)
        ledger.exit(inner)
        at(clock, 10.0)
        ledger.exit(outer)
        at(clock, 12.0)
        ledger.stop()
        assert ledger.self_s == {"core.discover": 6.0, "kernel.pchase": 3.0, "stats.outliers": 1.0}
        assert ledger.unattributed_s == 3.0
        assert ledger.wall_s == 13.0
        assert_partition(ledger)

    def test_reentrant_spans_through_escalation(self):
        # discover -> kernel; discover -> validate -> escalate -> kernel
        ledger, clock = ledger_at()
        discover = ledger.enter("core.discover")
        at(clock, 1.0)
        kernel = ledger.enter("kernel.pchase")
        at(clock, 2.0)
        ledger.exit(kernel)
        at(clock, 3.0)
        validate = ledger.enter("validate.report")
        at(clock, 4.0)
        escalate = ledger.enter("core.escalate")
        at(clock, 5.0)
        kernel = ledger.enter("kernel.pchase")
        at(clock, 6.0)
        ledger.exit(kernel)
        at(clock, 7.0)
        ledger.exit(escalate)
        at(clock, 8.0)
        ledger.exit(validate)
        at(clock, 10.0)
        ledger.exit(discover)
        ledger.stop()
        assert ledger.self_s == {
            "core.discover": 4.0,
            "kernel.pchase": 2.0,
            "validate.report": 2.0,
            "core.escalate": 2.0,
        }
        assert ledger.calls["kernel.pchase"] == 2
        assert ledger.unattributed_s == 0.0
        assert_partition(ledger)

    def test_same_layer_delegation_is_one_call(self):
        ledger, clock = ledger_at()
        outer = ledger.enter("store.put")
        at(clock, 1.0)
        inner = ledger.enter("store.put")
        at(clock, 3.0)
        ledger.exit(inner)
        ledger.exit(outer)
        ledger.stop()
        assert ledger.calls["store.put"] == 1
        assert ledger.self_s["store.put"] == 3.0

    def test_overlapping_spans_on_two_threads_still_partition_the_wall(self):
        ledger, clock = ledger_at()
        parent = ledger.enter("serve.handle")
        frames = {}

        def open_a() -> None:
            at(clock, 1.0)
            frames["a"] = ledger.enter("store.get")

        worker = threading.Thread(target=open_a)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        at(clock, 2.0)
        frames["b"] = ledger.enter("store.get")
        at(clock, 3.0)
        ledger.exit(frames["a"])  # closes before the later-opened b
        at(clock, 5.0)
        ledger.exit(frames["b"])
        at(clock, 6.0)
        ledger.exit(parent)
        ledger.stop()
        # Two reads on two threads are two calls, not a delegation.
        assert ledger.calls["store.get"] == 2
        assert ledger.self_s == {"serve.handle": 2.0, "store.get": 4.0}
        assert_partition(ledger)

    def test_inactive_ledger_records_nothing(self):
        ledger = Ledger(FakeClock())
        assert ledger.enter("kernel.probe") is None
        ledger.exit(None)
        ledger.count("kernel.pchase.loads", 5)
        assert not ledger.calls and not ledger.counts and not ledger.self_s


class TestWrappers:
    def test_sync_span_closes_on_exception_and_runs_hooks(self):
        ledger, clock = ledger_at()
        seen = []

        def work(x):
            at(clock, clock.now + 2.0)
            if x < 0:
                raise ValueError("negative")
            return x * 2

        wrapped = span(ledger, "stats.reduction", work, lambda lg, a, k, r: seen.append(r))
        assert wrapped(3) == 6
        with pytest.raises(ValueError):
            wrapped(-1)
        ledger.stop()
        assert seen == [6]
        assert ledger.calls["stats.reduction"] == 2
        assert ledger.self_s["stats.reduction"] == 4.0

    def test_async_span_covers_the_awaited_body(self):
        ledger, clock = ledger_at()

        async def wait():
            at(clock, 1.5)
            await asyncio.sleep(0)
            return "done"

        wrapped = span(ledger, "jobs.wait", wait)
        assert asyncio.run(wrapped()) == "done"
        ledger.stop()
        assert ledger.self_s["jobs.wait"] == 1.5

    def test_patcher_replaces_every_binding_and_restores(self):
        pkg = types.ModuleType("fakepkg")
        mod_a = types.ModuleType("fakepkg.a")
        mod_b = types.ModuleType("fakepkg.b")

        def f():
            return 1

        class Thing:
            def method(self):
                return 2

        mod_a.f, mod_a.Thing = f, Thing
        mod_b.f = f  # ``from fakepkg.a import f``
        modules = {"fakepkg": pkg, "fakepkg.a": mod_a, "fakepkg.b": mod_b}
        sys.modules.update(modules)
        try:
            ledger, _ = ledger_at()
            patcher = Patcher(ledger, "fakepkg")
            patcher.wrap("fakepkg.a", "f", "layer.f")
            patcher.wrap("fakepkg.a", "Thing.method", "layer.m")
            assert mod_a.f is not f and mod_b.f is mod_a.f
            assert mod_b.f() == 1 and Thing().method() == 2
            assert ledger.calls == {"layer.f": 1, "layer.m": 1}
            patcher.restore()
            assert mod_a.f is f and mod_b.f is f
            assert Thing.__dict__["method"].__name__ == "method"
            assert not hasattr(Thing.__dict__["method"], "__wrapped__")
        finally:
            for name in modules:
                sys.modules.pop(name, None)

    def test_every_layer_target_resolves_and_is_restored(self):
        import importlib

        originals = {}
        for module, target, _, _ in TARGETS:
            owner = importlib.import_module(module)
            for part in target.split(".")[:-1]:
                owner = getattr(owner, part)
            originals[(module, target)] = (owner, owner.__dict__[target.split(".")[-1]])
        ledger = Ledger()
        with traced(ledger):
            for (module, target), (owner, original) in originals.items():
                current = owner.__dict__[target.split(".")[-1]]
                assert current.__wrapped__ is original, f"{module}.{target} not wrapped"
        for (module, target), (owner, original) in originals.items():
            assert owner.__dict__[target.split(".")[-1]] is original

    def test_per_layer_metrics_name_every_layer_and_exact_count(self):
        metrics = per_layer_metrics(Ledger(), {})
        for layer in LAYERS:
            assert metrics[f"{layer}.self_s"] == 0.0
            assert metrics[f"{layer}.calls"] == 0
        assert set(EXACT) <= set(metrics)
        assert metrics["store.hit_ratio"] == 0.0  # no reads: no division by zero

    def test_benchmark_json_lists_exactly_the_per_layer_metrics(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        listed = [m["name"] for m in spec["per_layer"]]
        assert listed == list(per_layer_metrics(Ledger(), {}))


class TestHostSpeed:
    def test_factor_uses_the_calibrations_on_both_sides(self):
        from hostspeed import REFERENCE_S, HostSpeed

        readings = iter([REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S])
        speed = HostSpeed(lambda: next(readings))
        # The host ran at half speed on average across the first interval...
        assert speed.factor() == pytest.approx(0.5)
        # ...and the second interval starts where the first one ended.
        assert speed.factor() == pytest.approx(0.4)
        assert speed.median_s() == pytest.approx(2 * REFERENCE_S)

    def test_laps_exclude_the_calibrations(self, monkeypatch):
        import hostspeed

        clock = iter([0.0, 10.0, 12.0, 20.0, 21.0])
        monkeypatch.setattr(hostspeed, "perf_counter", lambda: next(clock))
        readings = iter([hostspeed.REFERENCE_S, hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S])
        speed = hostspeed.HostSpeed(lambda: next(readings))
        # 10 s at full speed; the calibration then runs from 10 s to 12 s...
        assert speed.lap() == pytest.approx(10.0)
        # ...and the next lap starts when it ended: 8 s at half speed.
        assert speed.lap() == pytest.approx(4.0)

    def test_fleet_devices_are_lapped_one_by_one(self, monkeypatch):
        from repro.validate import fleet
        from workloads import per_device_laps

        def body(name, *args):
            return name

        monkeypatch.setattr(fleet, "_discover_one", body)
        speed = types.SimpleNamespace(lap=iter([1.0, 2.0, 3.0, 4.0]).__next__)
        laps = []
        with per_device_laps(speed, laps):
            assert fleet._discover_one("A100", 7) == "A100"
            fleet._discover_one("MI210", 7)
        assert laps == [("", 1.0), ("A100", 2.0), ("", 3.0), ("MI210", 4.0)]
        assert fleet._discover_one is body


class TestTailRule:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (10_000, 99.9),
            (1_000, 99.0),
            (999, 95.0),
            (200, 95.0),
            (199, 90.0),
            (20, 50.0),
            (19, None),
            (0, None),
        ],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)


class TestFailureCounting:
    def test_non_200_and_byte_mismatch_fail(self):
        tally = Tally()
        assert tally.response(200, b"x", b"x", "report")
        assert tally.response(200, b"{}", None, "healthz")
        assert not tally.response(503, b"x", b"x", "report")
        assert not tally.response(200, b"y", b"x", "report")
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.error_rate == 0.5
        assert tally.reasons == ["report: HTTP 503", "report: bytes differ from the CLI"]

    def test_merge_keeps_totals_and_bounds_reasons(self):
        a, b = Tally(), Tally()
        for i in range(Tally.KEEP):
            a.fail(f"a{i}")
        b.ok()
        b.fail("b0")
        a.merge(b)
        assert (a.attempted, a.failed) == (Tally.KEEP + 2, Tally.KEEP + 1)
        assert len(a.reasons) == Tally.KEEP

    def test_fleet_entry_with_error_is_a_failed_op(self):
        from workloads import tally_fleet

        report = types.SimpleNamespace(validation=object())
        ok = types.SimpleNamespace(preset="A100", seed=1, error="", error_kind="", report=report)
        bad = types.SimpleNamespace(
            preset="MI210", seed=1, error="boom", error_kind="permanent", report=None
        )
        tally = Tally()
        tally_fleet(types.SimpleNamespace(entries=[ok, bad]), tally)
        assert (tally.attempted, tally.failed) == (2, 1)
        assert tally.reasons == ["MI210@1: permanent: boom"]

    def test_discovery_that_raises_is_a_failed_op(self):
        from workloads import _cli_discover

        tally = Tally()
        assert _cli_discover("NotAGPU", 1, "nvidia", tally) is None
        assert (tally.attempted, tally.failed) == (1, 1)
        assert tally.reasons[0].startswith("NotAGPU@1: UnknownGPUError")
