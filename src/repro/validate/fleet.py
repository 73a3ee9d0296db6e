"""Fleet discovery: many presets, one process pool, one comparison matrix.

The ROADMAP's scale goal applied to discovery itself: instead of
analysing one device per invocation, :func:`discover_fleet` runs the full
MT4G pipeline for many presets concurrently (one worker process per
device — discovery is CPU-bound numpy work, so processes give real
parallelism) and folds the results into a cross-device comparison matrix
with a per-preset validation verdict, the multi-machine view of the
paper's Table II/III.

Every worker builds its own simulated device from (preset, seed), so a
fleet run with ``jobs=1`` and a sequential loop produce byte-identical
reports — parallelism never changes results, only wall-clock time
(recorded per entry and for the whole fleet).

A validated fleet is also *judged*: after the entries are collected the
cross-device checks of :mod:`repro.validate.fleet_checks` group them by
(vendor, microarchitecture) and verify the invariants real silicon
obeys, attaching a :class:`FleetValidation` to the result.

Fault tolerance (the reliability layer under the reliability layer):
workers retry *transient* failures under a shared :class:`RetryPolicy`
(bounded attempts, exponential backoff, deterministic jitter, optional
per-preset deadline) and report a typed :class:`WorkerOutcome`; a broken
process pool degrades to typed per-entry error rows plus an in-process
recovery pass instead of sinking the fleet; and every path is
exercisable deterministically through the named ``fleet.worker``
injection point of :mod:`repro.faults`.  The invariant all of this
preserves: a discovery that succeeds — first try or last — is
byte-identical to the fault-free report.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro import faults
from repro.cache.costs import estimate_discovery_cost, schedule_order
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import build_worker_cache
from repro.core.report import TopologyReport
from repro.core.tool import MT4G
from repro.errors import ReproError
from repro.faults.retry import DEFAULT_FLEET_RETRY, RetryPolicy
from repro.gpusim.device import SimulatedGPU
from repro.gpuspec.presets import available_presets, get_preset
from repro.obs import trace as _trace
from repro.pchase.config import PChaseConfig
from repro.units import format_bandwidth, format_size
from repro.validate.fleet_checks import FleetValidation, run_fleet_checks

__all__ = [
    "FleetEntry",
    "FleetResult",
    "WorkerOutcome",
    "discover_fleet",
    "discover_one",
    "fleet_schedule",
]


@dataclass
class FleetEntry:
    """One preset's outcome inside a fleet run."""

    preset: str
    seed: int
    report: TopologyReport | None
    wall_seconds: float
    error: str = ""
    #: failure taxonomy: "" (no error) | "transient" (retry budget
    #: exhausted) | "permanent" (retrying cannot help) | "deadline"
    #: (per-preset deadline exceeded) | "infrastructure" (the pool, not
    #: the worker body, failed — e.g. a worker process died).
    error_kind: str = ""
    #: worker attempts consumed (1 = first try succeeded).
    attempts: int = 1
    #: True when an in-process recovery pass produced this entry after
    #: the worker pool broke underneath the original attempt.
    recovered: bool = False

    @property
    def ok(self) -> bool:
        return self.report is not None and not self.error

    @property
    def cache_status(self) -> str:
        """"hit" / "miss" when a store served this entry, else "off"."""
        if self.report is None:
            return "off"
        cache_meta = self.report.meta.get("cache")
        if isinstance(cache_meta, dict):
            return str(cache_meta.get("status", "off"))
        return "off"

    @property
    def verdict(self) -> str:
        if not self.ok:
            return "error"
        if self.report.validation is None:
            return "unvalidated"
        return self.report.validation.verdict


@dataclass
class FleetResult:
    """All fleet entries plus run-level accounting."""

    entries: list[FleetEntry]
    jobs: int
    total_wall_seconds: float
    seed: int
    #: Cross-device judgement (:func:`repro.validate.run_fleet_checks`);
    #: None until a fleet validation pass runs.
    validation: FleetValidation | None = None

    def entry(self, preset: str) -> FleetEntry:
        for e in self.entries:
            if e.preset == preset:
                return e
        raise KeyError(f"no fleet entry for preset {preset!r}")

    def verdicts(self) -> dict[str, str]:
        return {e.preset: e.verdict for e in self.entries}

    # ------------------------------------------------------------------ #
    # fault-tolerance accounting                                          #
    # ------------------------------------------------------------------ #

    @property
    def retries_total(self) -> int:
        """Worker attempts beyond the first, summed over the fleet."""
        return sum(max(0, e.attempts - 1) for e in self.entries)

    @property
    def recovered_in_process(self) -> int:
        return sum(1 for e in self.entries if e.recovered)

    @property
    def infrastructure_failed(self) -> bool:
        """True when any entry died of pool/worker infrastructure (as
        opposed to validation disagreement) — the ``mt4g fleet`` exit-3
        condition."""
        return any(e.error for e in self.entries)

    def error_kinds(self) -> dict[str, str]:
        """preset -> failure taxonomy, for failed entries only."""
        return {e.preset: e.error_kind or "unknown" for e in self.entries if e.error}

    @property
    def all_passed(self) -> bool:
        """Every per-preset verdict passed AND no cross-device disagreement."""
        if not all(e.verdict == "pass" for e in self.entries):
            return False
        return self.validation is None or self.validation.passed

    def validate(self) -> FleetValidation:
        """Run the cross-device judge over the collected entries."""
        return run_fleet_checks(self)

    # ------------------------------------------------------------------ #
    # comparison matrix                                                   #
    # ------------------------------------------------------------------ #

    def comparison_matrix(self) -> list[dict[str, Any]]:
        """One row per preset: the cross-device attribute summary."""
        rows: list[dict[str, Any]] = []
        for e in self.entries:
            row: dict[str, Any] = {
                "preset": e.preset,
                "verdict": e.verdict,
                "wall_seconds": round(e.wall_seconds, 3),
                "cache": e.cache_status,
            }
            if e.attempts > 1 or e.recovered:
                row["attempts"] = e.attempts
                row["recovered"] = e.recovered
            if not e.ok:
                row.update(
                    vendor="?",
                    first_level_size=None,
                    l2_size=None,
                    dram_latency_cycles=None,
                    dram_read_bandwidth=None,
                    error=e.error,
                    error_kind=e.error_kind,
                )
                rows.append(row)
                continue
            report = e.report
            vendor = report.general.vendor
            first = "L1" if vendor == "NVIDIA" else "vL1"

            def value(element: str, attribute: str) -> Any:
                if element not in report.memory:
                    return None
                return report.memory[element].get(attribute).value

            row.update(
                vendor=vendor,
                first_level_size=value(first, "size"),
                l2_size=value("L2", "size"),
                dram_latency_cycles=value("DeviceMemory", "load_latency"),
                dram_read_bandwidth=value("DeviceMemory", "read_bandwidth"),
                benchmarks_executed=report.runtime.benchmarks_executed,
            )
            rows.append(row)
        return rows

    def to_markdown(self) -> str:
        """The comparison matrix as a Markdown table (CLI output)."""
        lines = [
            f"# MT4G Fleet Report — {len(self.entries)} presets, "
            f"{self.jobs} workers, seed {self.seed}",
            "",
            f"Total wall time: {self.total_wall_seconds:.2f} s "
            f"(sum of per-preset walls: "
            f"{sum(e.wall_seconds for e in self.entries):.2f} s)",
            "",
            "| Preset | Vendor | L1/vL1 Size | L2 Size | DRAM Latency "
            "| DRAM Read BW | Verdict | Wall [s] |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for row in self.comparison_matrix():
            if "error" in row:
                # An exception with an empty message must still render a
                # readable cell (the worker falls back to the exception
                # type, but entries can also be built by hand).
                error = row["error"] or "unknown error"
                kind = row.get("error_kind") or ""
                cell = f"error[{kind}]: {error}" if kind else f"error: {error}"
                lines.append(
                    f"| {row['preset']} | ? | — | — | — | — "
                    f"| {cell} | {row['wall_seconds']:.2f} |"
                )
                continue
            first = row["first_level_size"]
            l2 = row["l2_size"]
            lat = row["dram_latency_cycles"]
            bw = row["dram_read_bandwidth"]
            # "is not None" — a legitimately-zero measurement is a value,
            # not a missing cell.
            lines.append(
                "| {preset} | {vendor} | {first} | {l2} | {lat} | {bw} "
                "| {verdict} | {wall:.2f} |".format(
                    preset=row["preset"],
                    vendor=row["vendor"],
                    first=format_size(first) if first is not None else "—",
                    l2=format_size(l2) if l2 is not None else "—",
                    lat=f"{float(lat):.0f} cyc" if lat is not None else "—",
                    bw=format_bandwidth(bw) if bw is not None else "—",
                    verdict=row["verdict"],
                    wall=row["wall_seconds"],
                )
            )
        lines.append("")
        if self.validation is not None:
            lines.extend(self.validation.to_markdown_lines())
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "schema": "mt4g-repro-fleet/1",
            "seed": self.seed,
            "jobs": self.jobs,
            "total_wall_seconds": round(self.total_wall_seconds, 3),
            "matrix": self.comparison_matrix(),
            "reports": {
                e.preset: e.report.as_dict() for e in self.entries if e.ok
            },
            "errors": {e.preset: e.error for e in self.entries if e.error},
            "fault_tolerance": {
                "retries_total": self.retries_total,
                "recovered_in_process": self.recovered_in_process,
                "error_kinds": self.error_kinds(),
            },
        }
        if self.validation is not None:
            out["fleet_validation"] = self.validation.as_dict()
        return out


# ---------------------------------------------------------------------- #
# workers                                                                 #
# ---------------------------------------------------------------------- #


@dataclass
class WorkerOutcome:
    """What one worker invocation reports back to its coordinator.

    Returned (never raised) for every in-body failure mode, so the
    parent can account for errors without caring whether the worker ran
    in a pool process or inline.  Only *infrastructure* failures — the
    pool dying underneath the worker — surface as exceptions on the
    future instead.
    """

    preset: str
    report: TopologyReport | None
    wall_seconds: float
    error: str = ""
    #: "" | "transient" (budget exhausted) | "permanent" | "deadline".
    error_kind: str = ""
    #: attempts consumed (1 = first try succeeded).
    attempts: int = 1
    #: completed trace spans recorded in-worker (discovery phases
    #: included), already plain dicts so they pickle across the pool
    #: boundary; ``None`` when the submitting side did not pass a
    #: traceparent.
    spans: Any = None

    @property
    def ok(self) -> bool:
        return self.report is not None and not self.error


def _discover_one(
    preset: str,
    seed: int,
    cache_config: str,
    validate: bool,
    cache_dir: str | None = None,
    retry: RetryPolicy | None = None,
    traceparent: str | None = None,
) -> WorkerOutcome:
    """Worker body: one full discovery (+ validation) for one preset.

    *Transient* failures (see :func:`repro.errors.is_transient`) are
    retried in-worker under ``retry`` — bounded attempts, exponential
    backoff, deterministic per-preset jitter, optional overall deadline;
    ``retry=None`` means a single attempt, the pre-fault-tolerance
    behaviour.  Permanent failures and exhausted budgets are returned as
    data (report ``None`` + error string + taxonomy kind) with the real
    elapsed wall, so sequential and concurrent runs account for a failed
    preset identically.  Because discovery is deterministic in
    (preset, seed), a retry that succeeds returns a report byte-identical
    to a first-try success — retries cost wall-clock, never correctness.

    ``cache_dir`` points every worker at one shared on-disk store — safe
    because entries are immutable and land via atomic rename, and two
    workers racing on the same key write byte-identical payloads.

    ``traceparent`` (default off) joins this worker to the submitting
    request's trace: spans recorded here — the discovery's phase spans
    among them — come back on ``WorkerOutcome.spans``; worker processes
    share no tracer ring with the service.
    """
    policy = retry if retry is not None else RetryPolicy(attempts=1)
    start = time.perf_counter()
    ctx = None  # set below, before any attempt runs

    def attempt(n: int) -> TopologyReport:
        attempt_start = time.perf_counter()
        # The chaos plane's hook: label = "<preset>@<attempt index>"
        # so a recorded plan can fail attempt 0 and spare attempt 1
        # regardless of which process runs the worker.
        faults.inject("fleet.worker", f"{preset}@{n - 1}")
        # The standard tier stack (memory LRU over the shared disk
        # store), rebuilt per attempt: a retry starts with empty memory
        # and reads the disk, and writes land through to disk where
        # every worker sees them.
        store = build_worker_cache(cache_dir)
        device = SimulatedGPU(get_preset(preset), seed=seed, cache_config=cache_config)
        tool = MT4G(device, config=PChaseConfig(), cache=store)
        report = tool.discover(validate=validate)
        if ctx is not None:
            _trace.record(ctx, "worker.attempt", attempt_start, attempt=n, outcome="ok")
        return report

    def attempt_span(n, started, exc, kind, backoff) -> None:
        if ctx is not None:
            _trace.record(
                ctx, "worker.attempt", started, attempt=n,
                outcome=kind, backoff_s=round(backoff, 6),
            )

    with _trace.worker_trace(traceparent) as ctx:
        run = policy.run(preset, attempt, on_failure=attempt_span)
        outcome = WorkerOutcome(
            preset,
            run.value,
            time.perf_counter() - start,
            # An exception with an empty message (``raise ValueError()``)
            # must not yield an error entry that renders as blank text.
            error="" if run.error is None else _describe(run.error),
            error_kind=run.kind,
            attempts=run.attempts,
        )
        if ctx is not None:
            _trace.complete(
                ctx,
                "worker.discover",
                start,
                preset=preset,
                ok=outcome.ok,
                attempts=outcome.attempts,
                error_kind=outcome.error_kind,
            )
            outcome.spans = ctx.tracer.drain()
    return outcome


#: Public name of the worker body: the serving subsystem's single-flight
#: discovery queue (:mod:`repro.serve.jobs`) submits exactly this
#: function to its pool, so a service-run discovery lands in the shared
#: store byte-identically to a fleet-run one.
discover_one = _discover_one


def _describe(exc: BaseException) -> str:
    """A never-empty error string: the message, or the exception type."""
    return str(exc) or type(exc).__name__


def fleet_schedule(
    names: Sequence[str], store: DiscoveryCache | None
) -> list[str]:
    """Submission order: longest job first (LPT), costs from the store.

    Recorded walls (the store's ``stats.json`` sidecar) rank presets the
    pool has seen before; unseen presets rank by a spec-derived estimate
    calibrated onto the recorded scale.  Pool makespan then approaches
    the LPT bound instead of depending on the caller's input order.
    """
    walls = store.recorded_walls() if store is not None else {}
    estimates = {n: estimate_discovery_cost(get_preset(n)) for n in names}
    return schedule_order(names, walls, estimates)


def discover_fleet(
    presets: Sequence[str] | None = None,
    seed: int = 0,
    jobs: int | None = None,
    validate: bool = True,
    cache_config: str = "PreferL1",
    cache_dir: str | Path | None = None,
    retry: RetryPolicy | None = None,
    deadline_seconds: float | None = None,
    recover_in_process: bool = True,
) -> FleetResult:
    """Discover many presets concurrently and compare the results.

    ``presets`` defaults to the ten paper machines; ``jobs`` defaults to
    one worker per preset, capped by the CPU count.  ``jobs=1`` runs the
    same pipeline sequentially in-process (the baseline the fleet
    benchmark measures against, and the fallback for environments
    without working multiprocessing).  A preset whose discovery raises is
    recorded as an error entry; it never sinks the rest of the fleet.

    ``cache_dir`` shares one on-disk :class:`~repro.cache.DiscoveryCache`
    across all workers: a re-run of the same fleet replays every report
    from the store (near-free re-validation), and the recorded per-preset
    walls drive the longest-first submission order.  Scheduling and
    caching never change results — entries keep the caller's input order
    and cached reports are byte-identical to cold ones.

    Fault tolerance: workers retry transient failures under ``retry``
    (default :data:`~repro.faults.retry.DEFAULT_FLEET_RETRY`).
    ``deadline_seconds`` bounds each preset end to end — inside the
    worker it caps the attempt/backoff loop, and in the parallel path the
    parent additionally stops waiting once the budget elapses, marking
    still-pending presets with a ``deadline`` error entry (the parent
    clock starts at submission, so the deadline *includes* pool queue
    wait — a saturated pool spends budget).  A broken pool (a worker
    process dying, not the worker body raising) degrades to typed
    ``infrastructure`` error rows, and ``recover_in_process=True`` then
    re-runs exactly those presets inline in the parent — results stay
    byte-identical because discovery is deterministic in (preset, seed).
    """
    names = list(presets) if presets is not None else list(available_presets())
    if not names:
        raise ReproError("discover_fleet needs at least one preset")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        # results are keyed by preset name; a duplicate would silently
        # pay for two discoveries and keep one
        raise ReproError(f"duplicate preset(s) in fleet: {duplicates}")
    for name in names:
        get_preset(name)  # fail fast on unknown presets, before forking
    if jobs is None:
        jobs = max(1, min(len(names), os.cpu_count() or 1))
    jobs = max(1, min(jobs, len(names)))

    store = DiscoveryCache(cache_dir) if cache_dir else None
    cache_dir_arg = str(Path(cache_dir)) if cache_dir else None
    submission_order = fleet_schedule(names, store)
    policy = (retry if retry is not None else DEFAULT_FLEET_RETRY).with_deadline(
        deadline_seconds
    )

    def entry_from(outcome: WorkerOutcome, recovered: bool = False) -> FleetEntry:
        return FleetEntry(
            outcome.preset,
            seed,
            outcome.report,
            outcome.wall_seconds,
            error=outcome.error,
            error_kind=outcome.error_kind,
            attempts=outcome.attempts,
            recovered=recovered,
        )

    start = time.perf_counter()
    by_name: dict[str, FleetEntry] = {}
    if jobs == 1:
        for name in submission_order:
            t0 = time.perf_counter()
            try:
                by_name[name] = entry_from(
                    _discover_one(
                        name, seed, cache_config, validate,
                        cache_dir_arg, policy,
                    )
                )
            except Exception as exc:  # the worker body itself failed
                by_name[name] = FleetEntry(
                    name,
                    seed,
                    None,
                    time.perf_counter() - t0,
                    error=_describe(exc),
                    error_kind="infrastructure",
                )
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(
                    _discover_one,
                    name,
                    seed,
                    cache_config,
                    validate,
                    cache_dir_arg,
                    policy,
                ): name
                for name in submission_order
            }
            submitted_at = time.perf_counter()
            pending = set(futures)
            while pending:
                timeout = None
                if policy.deadline_seconds is not None:
                    timeout = max(
                        0.0,
                        submitted_at + policy.deadline_seconds - time.perf_counter(),
                    )
                done, pending = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Budget elapsed with workers still out: mark every
                    # remaining preset instead of waiting on a hang.
                    # (Pool shutdown below still joins the processes, so
                    # a "hung" worker must eventually return — injected
                    # hangs are finite sleeps by construction.)
                    for fut in pending:
                        fut.cancel()
                        by_name[futures[fut]] = FleetEntry(
                            futures[fut],
                            seed,
                            None,
                            time.perf_counter() - submitted_at,
                            error=(
                                f"fleet deadline of "
                                f"{policy.deadline_seconds:.3g} s exceeded"
                            ),
                            error_kind="deadline",
                        )
                    pending = set()
                    continue
                for fut in done:
                    name = futures[fut]
                    if name in by_name:
                        continue  # a late result after its deadline entry
                    try:
                        by_name[name] = entry_from(fut.result())
                    except Exception as exc:  # pool infrastructure failure
                        by_name[name] = FleetEntry(
                            name,
                            seed,
                            None,
                            0.0,
                            error=_describe(exc),
                            error_kind="infrastructure",
                        )

        if recover_in_process:
            # The pool broke underneath these presets; their worker
            # bodies may never have run.  Re-run them inline — same
            # deterministic pipeline, same retry policy — so a dying
            # worker process costs wall-clock, not coverage.
            for name in submission_order:
                entry = by_name.get(name)
                if entry is None or entry.error_kind != "infrastructure":
                    continue
                outcome = _discover_one(
                    name, seed, cache_config, validate,
                    cache_dir_arg, policy,
                )
                if outcome.ok:
                    by_name[name] = entry_from(outcome, recovered=True)
                else:
                    by_name[name] = entry_from(outcome)

    if store is not None:
        # Only genuinely measured (non-hit) walls feed the scheduler: a
        # cache-hit wall is a hash lookup and would poison the LPT order.
        for entry in by_name.values():
            if entry.ok and entry.cache_status != "hit":
                store.record_wall(entry.preset, entry.wall_seconds)

    result = FleetResult(
        entries=[by_name[name] for name in names],  # stable input order
        jobs=jobs,
        total_wall_seconds=time.perf_counter() - start,
        seed=seed,
    )
    if validate:
        # The cross-device judge runs in the parent over the collected
        # entries, so it is deterministic and identical for sequential
        # and concurrent runs (parallelism never changes results).
        result.validate()
    return result
