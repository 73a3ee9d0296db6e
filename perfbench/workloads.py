"""The cli-cold and fleet-validate workloads, plus what every workload shares.

Each workload function takes a :class:`Context` and returns a
:class:`Result`.  With ``trace=False`` it measures for ``ctx.seconds``
and returns the end-to-end metrics: timings of single-process work in
reference-host seconds (``hostspeed.py``; raw wall medians go to the
summary); with ``trace=True`` it runs a fixed amount of work derived from the seed
twice, untraced then traced, and returns the per-layer metrics (fixed
work, so exact counts repeat).
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from hostspeed import HostSpeed
from layers import RunnerStats, per_layer_metrics, traced
from ledger import Ledger, Tally, median_or

#: One NVIDIA and one AMD reference device: the paper's A100 (p-chase
#: sweep bound) and MI210 (sL1d pair-protocol bound).
CLI_PRESETS = {"nvidia": "A100", "amd": "MI210"}
#: Discoveries of the traced cli-cold pass: each preset at this many seeds.
CLI_TRACE_SEEDS = 3

#: The fleet: four NVIDIA and two AMD paper machines.
FLEET_PRESETS = ["A100", "H100-80", "V100", "P6000", "MI210", "MI300X"]
FLEET_VENDOR = {p: "amd" if p.startswith("MI") else "nvidia" for p in FLEET_PRESETS}
#: Fleet runs (seeds) of the traced fleet-validate pass.
FLEET_TRACE_SEEDS = 2
#: The host has few cores; a pool never has more workers than this.
MAX_JOBS = 2
#: Workers of the timed fleet runs.  With one, ``discover_fleet`` runs its
#: per-device body in this process, so each device can be bracketed by
#: host-speed calibrations; a pool keeps both cores busy, which the
#: calibration does not follow.  The traced run drives the pool.
TIMED_FLEET_JOBS = 1


@dataclass
class Context:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool

    def rng(self, stream: str) -> random.Random:
        """A generator for one input stream, fixed by the workload seed."""
        return random.Random(f"{stream}:{self.seed}")

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["MT4G_CACHE_DIR"] = str(self.workdir / "cli-cache")
        return env


@dataclass
class Result:
    metrics: dict[str, float]
    tally: Tally
    notes: dict[str, Any] = field(default_factory=dict)


def device_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def jobs() -> int:
    return max(1, min(MAX_JOBS, os.cpu_count() or 1))


#: Scale of import times: one ``python -c "import numpy"`` counts as this
#: many seconds.  Imports of the program are timed against that baseline,
#: taken alternately with them, not against the CPU calibration loop: a
#: fresh interpreter spends much of its time starting a process and mapping
#: files, which the loop does not follow.  (Over eight batches of nine
#: imports of ``repro.core.cli``, the loop-normalised medians ranged
#: 0.20-0.27 s; their ratio to the numpy import, 2.31-2.46.)
IMPORT_BASELINE_S = 0.1


def import_seconds(ctx: Context, statement: str, reps: int = 9) -> float:
    """Time of a fresh interpreter importing the entry point: the median
    import wall over the median wall of the numpy-import baseline, times
    ``IMPORT_BASELINE_S``."""

    def wall(code: str) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ctx.root,
            env=ctx.env(),
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        return perf_counter() - start

    baseline, times = [], []
    for _ in range(reps):
        baseline.append(wall("import numpy"))
        times.append(wall(statement))
    return statistics.median(times) / statistics.median(baseline) * IMPORT_BASELINE_S


def raw_medians(**samples: list[float]) -> dict[str, float]:
    """Median raw wall time per sample list, for the summary line."""
    return {name: median_or(values, 0.0) for name, values in samples.items()}


def rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_ok(text: str, vendor: str) -> bool:
    """A rendered report parses and lists only (and some) vendor elements."""
    from repro.core.tool import AMD_ELEMENTS, NVIDIA_ELEMENTS

    try:
        memory = json.loads(text)["memory"]
    except (ValueError, KeyError, TypeError):
        return False
    allowed = NVIDIA_ELEMENTS if vendor == "nvidia" else AMD_ELEMENTS
    return "DeviceMemory" in memory and set(memory) <= set(allowed)


class CrossChecks:
    """Spec cross-checks passed and attempted over validated reports.

    Only the counts are kept, so memory does not grow with run length.
    """

    def __init__(self) -> None:
        self.passed = self.attempted = 0

    def add(self, report, device=None) -> None:
        """Count ``report``'s cross-checks, validating it first (without
        escalation) when ``device`` is given."""
        if device is not None:
            from repro.validate.validator import validate_report

            validate_report(
                report, spec=device.spec, cache_config=device.cache_config, escalate=None
            )
        checks = report.validation.cross_checks
        self.passed += sum(c.passed for c in checks)
        self.attempted += len(checks)

    @property
    def rate(self) -> float:
        return self.passed / self.attempted if self.attempted else 0.0

    def __str__(self) -> str:
        return f"{self.passed}/{self.attempted}"


def traced_pass(run) -> tuple[Ledger, dict[str, float]]:
    """Run ``run(ledger)`` once with every layer wrapped; returns the
    ledger and the runner totals gathered during the pass."""
    ledger = Ledger()
    with traced(ledger), RunnerStats() as runners:
        ledger.start()
        try:
            run(ledger)
        finally:
            ledger.stop()
    return ledger, runners.totals()


# ---------------------------------------------------------------------- #
# cli-cold                                                                #
# ---------------------------------------------------------------------- #


def _cli_discover(preset: str, seed: int, vendor: str, tally: Tally):
    """One ``mt4g --no-cache -j`` discovery; the report, or None on failure."""
    from repro import MT4G, SimulatedGPU
    from repro.core.output import json_out

    try:
        device = SimulatedGPU.from_preset(preset, seed=seed)
        report = MT4G(device).discover()
        text = json_out.to_json(report)
    except Exception as exc:  # a discovery that raises is a failed op
        tally.fail(f"{preset}@{seed}: {type(exc).__name__}: {exc}")
        return None
    tally.check(report_ok(text, vendor), f"{preset}@{seed}: malformed report")
    return device, report


def cli_cold(ctx: Context) -> Result:
    rng = ctx.rng("cli-cold")
    tally = Tally()
    if ctx.trace:
        return _cli_cold_traced(ctx, rng, tally)
    speed = HostSpeed()
    setup_s = import_seconds(ctx, "import repro.core.cli")

    # Per vendor: (raw wall, reference-host seconds) of each discovery.
    walls: dict[str, list[float]] = {v: [] for v in CLI_PRESETS}
    times: dict[str, list[float]] = {v: [] for v in CLI_PRESETS}
    rounds: list[float] = []
    checks = CrossChecks()
    deadline = perf_counter() + ctx.seconds
    while not rounds or perf_counter() < deadline:
        seed = device_seed(rng)
        round_time = 0.0
        for vendor, preset in CLI_PRESETS.items():
            start = perf_counter()
            got = _cli_discover(preset, seed, vendor, tally)
            wall = perf_counter() - start
            factor = speed.factor()
            round_time += wall * factor
            if got is None:
                continue
            walls[vendor].append(wall)
            times[vendor].append(wall * factor)
            # Outside the timed discovery: the spec cross-checks, without
            # escalation (the CLI's -j path does not validate).
            checks.add(got[1], got[0])
        rounds.append(round_time)
    metrics = {
        "setup_s": setup_s,
        "discover_s.nvidia": median_or(times["nvidia"], 0.0),
        "discover_s.amd": median_or(times["amd"], 0.0),
        "ops_per_s": len(rounds) / sum(rounds),
        "op_p50_ms": statistics.median(rounds) * 1e3,
        "crosscheck_pass_rate": checks.rate,
    }
    notes = {
        "samples": {"rounds": len(rounds), **{v: len(w) for v, w in walls.items()}},
        "devices_per_s": sum(len(t) for t in times.values()) / sum(rounds),
        "raw_wall_s": raw_medians(**walls),
        "calibration_s": speed.median_s(),
        "crosschecks": str(checks),
    }
    return Result(metrics, tally, notes)


def _cli_cold_traced(ctx: Context, rng: random.Random, tally: Tally) -> Result:
    seeds = [device_seed(rng) for _ in range(CLI_TRACE_SEEDS)]

    def run(ledger: Ledger | None = None) -> None:
        for seed in seeds:
            for vendor, preset in CLI_PRESETS.items():
                _cli_discover(preset, seed, vendor, tally)

    start = perf_counter()
    run()
    untraced = perf_counter() - start
    ledger, runners = traced_pass(run)
    extra = dict(runners, trace_overhead_ratio=ledger.wall_s / untraced)
    return Result(per_layer_metrics(ledger, extra), tally, {"seeds": seeds})


# ---------------------------------------------------------------------- #
# fleet-validate                                                          #
# ---------------------------------------------------------------------- #


def _fleet(ctx: Context, seed: int, tag: str, tally: Tally, workers: int):
    """One validated fleet run over a fresh store; (result, wall) or None.

    With one worker, ``discover_fleet`` runs every device in this process.
    """
    from repro.validate.fleet import discover_fleet

    cache_dir = ctx.workdir / f"fleet-{tag}"
    try:
        start = perf_counter()
        result = discover_fleet(
            FLEET_PRESETS,
            seed=seed,
            validate=True,
            jobs=workers,
            cache_dir=cache_dir,
        )
        wall = perf_counter() - start
    except Exception as exc:
        tally.fail(f"fleet@{seed}: {type(exc).__name__}: {exc}")
        return None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    tally_fleet(result, tally)
    return result, wall


def tally_fleet(result, tally: Tally) -> None:
    """One op per fleet entry; an entry with ``error`` set is a failure."""
    for entry in result.entries:
        if entry.error:
            tally.fail(f"{entry.preset}@{entry.seed}: {entry.error_kind}: {entry.error}")
        else:
            tally.check(
                entry.report is not None and entry.report.validation is not None,
                f"{entry.preset}@{entry.seed}: entry without a validated report",
            )


@contextmanager
def per_device_laps(speed: HostSpeed, laps: list[tuple[str, float]]):
    """Calibrate around every device of a one-worker fleet run.

    Wraps the per-device body ``repro.validate.fleet._discover_one`` from
    outside and appends ``(preset, reference-host seconds)`` per device
    and ``("", seconds)`` for the time between devices.  Without that
    body nothing is wrapped and the run is one lap, taken by the caller.
    """
    from repro.validate import fleet

    original = getattr(fleet, "_discover_one", None)
    if original is None:
        yield
        return

    def body(name, *args, **kwargs):
        laps.append(("", speed.lap()))
        try:
            return original(name, *args, **kwargs)
        finally:
            laps.append((name, speed.lap()))

    fleet._discover_one = body
    try:
        yield
    finally:
        fleet._discover_one = original


def timed_fleet_run(ctx: Context, seed: int, tag: str) -> dict[str, Any]:
    """One timed fleet run on one worker, in the calling process.

    Returns the run's time, per vendor the mean time of that vendor's
    devices (reference-host seconds), the raw wall, the tally, the
    cross-check counts, the median calibration and the peak RSS.
    """
    speed = HostSpeed()
    tally = Tally()
    laps: list[tuple[str, float]] = []
    speed.lap()  # start a fresh interval
    with per_device_laps(speed, laps):
        got = _fleet(ctx, seed, tag, tally, workers=TIMED_FLEET_JOBS)
    laps.append(("", speed.lap()))
    out: dict[str, Any] = {"tally": tally, "calibration_s": speed.median_s()}
    if got is not None:
        result, wall = got
        run = sum(t for _, t in laps)
        per_device = {name: t for name, t in laps if name}
        scale = run / wall  # only used when the body was not wrapped
        checks = CrossChecks()
        for entry in result.entries:
            if entry.ok:
                checks.add(entry.report)
        out.update(
            run=run,
            wall=wall,
            vendor={
                vendor: statistics.fmean(
                    per_device.get(e.preset, e.wall_seconds * scale)
                    for e in result.entries
                    if FLEET_VENDOR[e.preset] == vendor
                )
                for vendor in CLI_PRESETS
            },
            devices=sum(e.ok for e in result.entries),
            checks=(checks.passed, checks.attempted),
        )
    out["rss_mb"] = rss_mb()
    return out


def fleet_validate(ctx: Context) -> Result:
    rng = ctx.rng("fleet-validate")
    tally = Tally()
    if ctx.trace:
        return _fleet_traced(ctx, rng, tally)
    setup_s = import_seconds(ctx, "import repro.validate.fleet")

    # Each fleet run gets a fresh process forked from this one, as each
    # ``mt4g fleet`` invocation would: run after run in one process, the
    # peak RSS kept climbing by a seed-dependent amount (76-112 MiB after
    # five runs), which measured the heap's history, not the fleet.
    fork = multiprocessing.get_context("fork")
    runs: list[dict[str, Any]] = []
    checks = CrossChecks()
    deadline = perf_counter() + ctx.seconds
    for attempt in itertools.count():
        if attempt and perf_counter() >= deadline:
            break
        with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
            got = pool.submit(timed_fleet_run, ctx, device_seed(rng), str(attempt)).result()
        tally.merge(got["tally"])
        if "run" in got:
            runs.append(got)
            checks.passed += got["checks"][0]
            checks.attempted += got["checks"][1]
    if not runs:
        raise RuntimeError(f"no fleet run completed: {tally.reasons}")
    times = [r["run"] for r in runs]
    metrics = {
        "setup_s": setup_s,
        "rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "discover_s.nvidia": statistics.median(r["vendor"]["nvidia"] for r in runs),
        "discover_s.amd": statistics.median(r["vendor"]["amd"] for r in runs),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "crosscheck_pass_rate": checks.rate,
    }
    devices = sum(r["devices"] for r in runs)
    notes = {
        "samples": {"fleet_runs": len(runs), "devices": devices},
        "devices_per_s": devices / sum(times),
        "raw_wall_s": raw_medians(fleet_run=[r["wall"] for r in runs]),
        "calibration_s": statistics.median(r["calibration_s"] for r in runs),
        "crosschecks": str(checks),
        "jobs": TIMED_FLEET_JOBS,
    }
    return Result(metrics, tally, notes)


def _fleet_traced(ctx: Context, rng: random.Random, tally: Tally) -> Result:
    seeds = [device_seed(rng) for _ in range(FLEET_TRACE_SEEDS)]
    extra: dict[str, float] = {}

    # Pool accounting needs the real pool, which the wrappers cannot see
    # into: one untraced parallel run.
    got = _fleet(ctx, seeds[0], "pool", tally, workers=jobs())
    if got is not None:
        result, wall = got
        busy = sum(e.wall_seconds for e in result.entries)
        extra["fleet.worker_busy_s"] = busy
        extra["fleet.pool_idle_ratio"] = 1.0 - busy / (wall * result.jobs)

    results = []

    def run(ledger: Ledger | None = None) -> None:
        for i, seed in enumerate(seeds):
            got = _fleet(ctx, seed, f"seq-{i}", tally, workers=1)
            if got is not None:
                results.append(got[0])

    start = perf_counter()
    run()
    untraced = perf_counter() - start
    results.clear()
    ledger, runners = traced_pass(run)
    extra.update(runners)
    extra["trace_overhead_ratio"] = ledger.wall_s / untraced
    extra["validate.escalations"] = sum(
        len(e.report.validation.escalations) for r in results for e in r.entries if e.ok
    )
    return Result(per_layer_metrics(ledger, extra), tally, {"seeds": seeds})
