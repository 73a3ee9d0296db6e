"""Fleet runner wall time: concurrent vs. sequential discovery.

Runs the same >= 4-preset fleet twice — once sequentially in-process,
once through the process pool — verifies the reports are byte-identical
(parallelism must never change results), and records the walls to
``BENCH_fleet.json`` at the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_fleet_parallel.py -q -s

Discovery is CPU-bound numpy work, so the achievable speedup is
``min(jobs, physical cores)``; the JSON records the host's CPU count
alongside the walls so the number is interpretable.  The speedup floor
is only asserted where parallelism is physically possible (>= 2 cores —
on a single-core host the pool can only add overhead, and the record
documents that honestly).

The record also carries a host stamp, as ``BENCH_discovery.json`` does:
the mean of ``perfbench/hostspeed.calibration_seconds()`` taken before,
between and after the two fleet runs.  Dividing the sequential wall by
it and multiplying by ``hostspeed.REFERENCE_S`` gives reference-host
seconds; the pool's wall keeps both cores busy and does not follow the
calibration that closely (see ``hostspeed``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from repro.validate.fleet import discover_fleet

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import calibration_seconds  # noqa: E402

SEED = 0
#: >= 4 presets, mixing both vendors and both report shapes.
PRESETS = ("TestGPU-NV", "TestGPU-NV-2SEG", "TestGPU-AMD", "TestGPU-AMD-L3")
OUT_PATH = ROOT / "BENCH_fleet.json"

#: With >= 2 cores the pool must recover at least this fraction of the
#: sequential wall (conservative: worker startup and pickling cost real
#: time on the small testing presets).
MIN_SPEEDUP_MULTICORE = 1.2


def _reports_digest(result) -> str:
    return json.dumps(result.as_dict()["reports"], default=str, sort_keys=True)


@pytest.fixture(scope="module")
def results():
    calibrations = [calibration_seconds()]
    t0 = time.perf_counter()
    sequential = discover_fleet(PRESETS, seed=SEED, validate=True, jobs=1)
    sequential_wall = time.perf_counter() - t0
    calibrations.append(calibration_seconds())

    t0 = time.perf_counter()
    concurrent = discover_fleet(PRESETS, seed=SEED, validate=True, jobs=len(PRESETS))
    concurrent_wall = time.perf_counter() - t0
    calibrations.append(calibration_seconds())

    out = {
        "seed": SEED,
        "presets": list(PRESETS),
        "jobs": concurrent.jobs,
        "cpu_count": os.cpu_count(),
        "sequential_wall_seconds": round(sequential_wall, 4),
        "concurrent_wall_seconds": round(concurrent_wall, 4),
        "speedup": round(sequential_wall / concurrent_wall, 2),
        "reports_identical": _reports_digest(sequential) == _reports_digest(concurrent),
        "verdicts": concurrent.verdicts(),
        "host_calibration_seconds": round(sum(calibrations) / len(calibrations), 5),
    }
    if (os.cpu_count() or 1) < 2:
        out["note"] = (
            "recorded on a single-core host: the speedup column measures "
            "process-pool overhead only, not the min(jobs, cores) scaling; "
            "re-record on a multi-core host for a meaningful figure"
        )
    OUT_PATH.write_text(json.dumps(out, indent=2) + "\n")
    return out


def test_parallelism_never_changes_results(results):
    assert results["reports_identical"], "concurrent fleet diverged from sequential"


def test_all_verdicts_clean(results):
    assert all(v == "pass" for v in results["verdicts"].values()), results["verdicts"]


def test_wall_clock_recorded_and_speedup_where_possible(results):
    print(
        f"\n=== fleet wall time ({len(PRESETS)} presets, "
        f"{results['jobs']} workers, {results['cpu_count']} cores) "
        f"-> {OUT_PATH.name} ==="
    )
    print(
        f"sequential {results['sequential_wall_seconds']:6.2f}s  "
        f"concurrent {results['concurrent_wall_seconds']:6.2f}s  "
        f"speedup {results['speedup']:5.2f}x"
    )
    assert results["sequential_wall_seconds"] > 0
    assert results["concurrent_wall_seconds"] > 0
    if (os.cpu_count() or 1) >= 2:
        assert results["speedup"] >= MIN_SPEEDUP_MULTICORE, (
            f"fleet pool only {results['speedup']}x faster on a "
            f"{os.cpu_count()}-core host (floor {MIN_SPEEDUP_MULTICORE}x)"
        )


def test_host_stamp_recorded(results):
    """The record carries the host calibration taken beside its walls."""
    assert results["host_calibration_seconds"] > 0
