"""Chaos harness: discovery under injected faults (the resilience record).

Runs the paper-preset fleet against recorded, deterministic fault plans
(:mod:`repro.faults`) and records the recovery behaviour to
``BENCH_chaos.json`` at the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_chaos.py -q -s

Scenarios, each against the same fault-free baseline:

* ``crash_retry`` — every preset's first worker attempt crashes; the
  in-worker retry must recover;
* ``pool_break`` — one worker process hard-exits, breaking the whole
  pool; the in-process recovery pass must re-run the casualties;
* ``store_faults`` — first cache read raises I/O errors and the first
  cache write lands torn; the store must degrade to miss + re-measure.

Asserted invariants (the acceptance bar of the fault-tolerance work):

* every discovery that succeeds under faults is **byte-identical** to
  its fault-free report — faults cost retries and wall-clock, never
  correctness;
* recovery happens within the retry budget (attempts <= policy);
* every injected degradation is visible in a counter — nothing recovers
  silently.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest

from repro import faults
from repro.cache.store import DiscoveryCache
from repro.faults import FaultPlan, FaultSpec
from repro.faults.retry import DEFAULT_FLEET_RETRY
from repro.validate.fleet import discover_fleet

SEED = 42
PRESETS = ("A100", "H100-80", "MI210")
OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"


def _content(report) -> str:
    return json.dumps(report.content_dict(), default=str, sort_keys=True)


def _run_fleet(**kw):
    start = time.perf_counter()
    result = discover_fleet(PRESETS, seed=SEED, **kw)
    return result, time.perf_counter() - start


def _summarise(result, baseline, wall):
    return {
        "wall_seconds": round(wall, 3),
        "all_recovered": all(e.ok for e in result.entries),
        "byte_identical": all(
            e.ok and _content(e.report) == baseline[e.preset]
            for e in result.entries
        ),
        "attempts": {e.preset: e.attempts for e in result.entries},
        "retries_total": result.retries_total,
        "recovered_in_process": result.recovered_in_process,
        "error_kinds": result.error_kinds(),
        "within_retry_budget": all(
            e.attempts <= DEFAULT_FLEET_RETRY.attempts for e in result.entries
        ),
    }


@pytest.fixture(scope="module")
def results():
    faults.deactivate()  # never inherit a stray plan
    out: dict[str, dict] = {}

    baseline_result, baseline_wall = _run_fleet(jobs=1)
    assert all(e.ok for e in baseline_result.entries)
    baseline = {e.preset: _content(e.report) for e in baseline_result.entries}
    out["baseline"] = {
        "presets": list(PRESETS),
        "seed": SEED,
        "wall_seconds": round(baseline_wall, 3),
        "retry_policy": {
            "attempts": DEFAULT_FLEET_RETRY.attempts,
            "base_delay": DEFAULT_FLEET_RETRY.base_delay,
            "max_delay": DEFAULT_FLEET_RETRY.max_delay,
        },
    }

    # 1. every preset's first attempt crashes; in-worker retries recover
    crash_all_first = FaultPlan(
        [FaultSpec("fleet.worker", "crash", label="*@0", times=None)], seed=SEED
    )
    with faults.injected(crash_all_first):
        result, wall = _run_fleet(jobs=1)
        out["crash_retry"] = _summarise(result, baseline, wall)
        out["crash_retry"]["faults_fired"] = faults.injected_counts()

    # 2. one worker process hard-exits -> broken pool -> in-process recovery
    pool_break = FaultPlan(
        [FaultSpec("fleet.worker", "exit", label=f"{PRESETS[0]}@0")], seed=SEED
    )
    with faults.injected(pool_break):
        result, wall = _run_fleet(jobs=len(PRESETS))
        out["pool_break"] = _summarise(result, baseline, wall)

    # 3. flaky cache I/O: first read errors, first write lands torn
    store_faults = FaultPlan(
        [
            FaultSpec("store.get", "io_error", label="*", times=(0,)),
            FaultSpec("store.put", "corrupt", label="*", times=(0,)),
        ],
        seed=SEED,
    )
    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp) / "chaos-store"
        with faults.injected(store_faults) as active:
            result, wall = _run_fleet(jobs=1, cache_dir=store_root)
            summary = _summarise(result, baseline, wall)
            # the workers' own store instances took the degradation hits;
            # the plan's firing counters prove the faults actually landed
            summary["faults_fired"] = dict(active.fired)
        # a rerun against the damaged store must replay/heal, not break
        rerun, rerun_wall = _run_fleet(jobs=1, cache_dir=store_root)
        summary["rerun_byte_identical"] = all(
            e.ok and _content(e.report) == baseline[e.preset]
            for e in rerun.entries
        )
        summary["rerun_wall_seconds"] = round(rerun_wall, 3)
        out["store_faults"] = summary

    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")
    return out


def test_recovered_discoveries_are_byte_identical(results):
    for scenario in ("crash_retry", "pool_break", "store_faults"):
        r = results[scenario]
        assert r["all_recovered"], f"{scenario}: not all presets recovered"
        assert r["byte_identical"], f"{scenario}: recovery changed report bytes"
        assert r["error_kinds"] == {}, f"{scenario}: leftover error entries"


def test_recovery_stays_within_the_retry_budget(results):
    for scenario in ("crash_retry", "pool_break", "store_faults"):
        assert results[scenario]["within_retry_budget"], scenario


def test_crash_retry_accounting_is_visible(results):
    r = results["crash_retry"]
    # one crash per preset, each recovered on the second attempt
    assert r["retries_total"] == len(PRESETS)
    assert all(a == 2 for a in r["attempts"].values())
    assert r["faults_fired"].get("fleet.worker") == len(PRESETS)


def test_pool_break_recovered_in_process(results):
    assert results["pool_break"]["recovered_in_process"] >= 1


def test_store_faults_fired_and_rerun_heals(results):
    fired = results["store_faults"]["faults_fired"]
    assert fired.get("store.get", 0) >= 1  # the I/O faults really landed
    assert fired.get("store.put", 0) >= 1
    assert results["store_faults"]["rerun_byte_identical"]


def test_chaos_walls_are_bounded(results):
    print(f"\n=== discovery under injected faults (seed {SEED}) -> {OUT_PATH.name} ===")
    base = results["baseline"]["wall_seconds"]
    print(f"baseline: {base:6.2f}s ({', '.join(PRESETS)})")
    for scenario in ("crash_retry", "pool_break", "store_faults"):
        r = results[scenario]
        print(
            f"{scenario:>12}: {r['wall_seconds']:6.2f}s"
            f"  retries {r['retries_total']}"
            f"  recovered-in-process {r['recovered_in_process']}"
            f"  byte-identical {r['byte_identical']}"
        )
        # resilience must cost wall-clock, not multiples of it: a
        # generous 20x bound catches pathological retry storms only.
        assert r["wall_seconds"] < max(20.0 * base, 30.0), scenario
