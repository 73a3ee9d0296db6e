"""Single-flight discovery queue: N cold requests, one discovery.

The load-shedding primitive that makes serving heavy traffic honest.  A
cold request (no cache entry for its content-addressed report key) must
trigger a discovery — but when eight clients ask for the same uncached
(preset, config, seed) at once, running eight identical discoveries
would multiply the most expensive operation the system has by the
request rate.  The queue keys every in-flight job by the *report cache
key* (the same SHA-256 identity the store uses), so concurrent requests
for one identity coalesce onto one job: one worker measures, writes the
entry into the shared store, and every waiter then reads the identical
bytes back out.

Jobs run the fleet's worker body (:func:`repro.validate.fleet.discover_one`)
in an executor — a process pool by default, because discovery is
CPU-bound numpy work — and admission is LPT-aware like the fleet
schedule: when more jobs are pending than pool slots, the longest
estimated job starts first (recorded walls from the store's sidecar,
spec-derived estimates for unseen presets), so a burst's makespan
approaches the LPT bound instead of depending on arrival order.

Coalescing applies only to jobs still in flight (queued/running): a
finished job's result lives in the store, so a later request for the
same key is a plain cache hit and never reaches the queue; a failed
job is retried by the next request rather than pinning the failure.

Failure containment (the resilience half of the queue): jobs run under
the serve :class:`~repro.faults.retry.RetryPolicy` (in-worker retries of
transient failures) and an optional per-job deadline enforced on the
loop (``call_later`` — the pool slot is not freed early, the job is just
marked terminal and a late result ignored).  A key that keeps failing is
*memoised* for ``failure_ttl`` seconds — repeat cold requests fast-fail
with a ``retry_after`` hint instead of re-running a doomed discovery —
and after ``breaker_threshold`` consecutive failures the key's circuit
breaker opens for ``breaker_cooldown`` seconds.  One probe is admitted
once the window lapses (half-open); success heals the key entirely.

Cross-instance single-flight (the sharded-fleet extension): with a
consistent-hash ``ring`` attached, a cold key whose ring owner is
*another* instance is not discovered here — the job becomes a **proxy**
(:func:`fetch_report_for_job`): one bounded HTTP fetch against the
owner's ``GET /store/{key}?discover=1`` route, which rides the *owner's*
single-flight queue.  N cold requests across N instances therefore
coalesce twice — locally onto one proxy job per instance, and at the
owner onto exactly one discovery.  The fetched entry lands in the local
store (byte-identical, it is the owner's disk blob), so every local
waiter reads it back exactly like a locally-discovered one.  On a
*writable* instance a failed proxy falls back to one local discovery
(counted in ``peer_fallbacks``) — a dead owner degrades to extra work,
never to an outage; with ``proxy_only`` (read-only replicas) the proxy
result is final.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from repro import faults
from repro.cache.costs import estimate_discovery_cost
from repro.cache.lru import LRU
from repro.cache.ring import HashRing
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import (
    DEFAULT_PEER_RETRY,
    DEFAULT_PEER_TIMEOUT,
    build_worker_cache,
    peer_fetch,
)
from repro.core.tool import AMD_ELEMENTS, NVIDIA_ELEMENTS
from repro.errors import TransientError, is_transient
from repro.faults.retry import DEFAULT_SERVE_RETRY, RetryPolicy
from repro.obs import trace as _trace
from repro.gpusim.device import SimulatedGPU
from repro.gpuspec.presets import get_preset
from repro.gpuspec.spec import Vendor
from repro.pchase.config import PChaseConfig
from repro.validate.fleet import WorkerOutcome, discover_one

__all__ = ["POOL_MODE", "DiscoveryJob", "JobQueue", "fetch_report_for_job"]

#: Default worker-pool lifecycle: spawn and pre-warm at service start.
POOL_MODE = "warm"


def _warm_worker(cache_dir: str) -> int:
    """Worker-pool warmup body: pay the cold-start costs before traffic.

    Run once per pool slot at service start (``--pool warm``): executing
    this in a child forces the worker process to exist *now* and to have
    imported this module — numpy and the whole discovery stack — and
    :func:`build_worker_cache` exercises the tier-stack construction and
    the store's directory scaffolding that
    :func:`~repro.validate.fleet.discover_one` performs per job, so the
    first real discovery a worker runs pays none of the cold-start tax.
    Returns the worker PID purely as something observable for tests.
    """
    build_worker_cache(cache_dir)
    return os.getpid()


class _PeerAnswer(TransientError):
    """The owner answered, but not with a usable entry: worth a retry."""


def fetch_report_for_job(
    owner: str,
    key: str,
    preset: str,
    seed: int,
    cache_config: str,
    validate: bool,
    cache_dir: str,
    retry: RetryPolicy | None = None,
    timeout: float = DEFAULT_PEER_TIMEOUT,
    traceparent: str | None = None,
) -> WorkerOutcome:
    """Proxy worker body: pull (or trigger) the entry at the key's owner.

    ``traceparent`` (when tracing is on) parents this worker's spans to
    the submitting job span and rides the HTTP hop as a header, so the
    owner's handler continues the same trace; the recorded spans come
    back in ``WorkerOutcome.spans`` for the queue to ingest.

    The proxy counterpart of :func:`repro.validate.fleet.discover_one`,
    with the identical :class:`WorkerOutcome` contract so ``_finish``
    cannot tell the two apart.  ``GET {owner}/store/{key}?discover=1``
    asks the owner to serve its disk blob — producing it through its own
    single-flight queue first if the key is cold there — and the blob
    then lands in the *local* store via the validating
    ``put_blob`` path: byte-for-byte the owner's entry, so the waiters
    reading it back get bytes identical to a local discovery.

    Failure taxonomy mirrors the worker's: transport errors and 5xx are
    ``transient`` (the queue's writable-instance fallback then runs the
    discovery locally); a structured 404 from a *read-only* owner is
    ``permanent`` for the proxy path (that owner can never produce the
    entry), while a 404 without the marker stays ``transient``.
    """
    policy = retry if retry is not None else DEFAULT_PEER_RETRY
    start = time.perf_counter()
    ctx = None  # set below, before any attempt runs

    def failed(attempts: int, error: str, kind: str) -> WorkerOutcome:
        return WorkerOutcome(
            preset, None, time.perf_counter() - start, error, kind, attempts
        )

    def attempt(n: int) -> WorkerOutcome:
        attempt_start = time.perf_counter() if ctx is not None else 0.0
        # Chaos point shared with the read-path peer tier: one site
        # covers every HTTP hop toward a peer.
        faults.inject("tier.peer", owner)
        status, body = peer_fetch(
            owner,
            key,
            timeout=timeout,
            discover=True,
            preset=preset,
            seed=seed,
            validate=validate,
        )
        if ctx is not None:
            _trace.record(ctx, "proxy.attempt", attempt_start, attempt=n, status=status)
        if status == 200:
            store = build_worker_cache(cache_dir)
            if not store.put_blob(key, body):
                # Truncated in flight (or forged): treat like any other
                # flaky transfer and retry within budget.
                raise _PeerAnswer(f"peer blob from {owner} failed validation")
            payload = store.get(key, peer=False)
            report = payload.get("report") if isinstance(payload, dict) else None
            if report is None:
                return failed(n, f"peer entry from {owner} holds no report payload", "permanent")
            return WorkerOutcome(preset, report, time.perf_counter() - start, attempts=n)
        if status == 404:
            # A discover=1 404 is authoritative; retrying is noise.
            read_only = False
            try:
                detail = json.loads(body.decode("utf-8"))
                read_only = bool(detail.get("read_only"))
            except Exception:
                pass
            if read_only:
                return failed(
                    n, f"owner {owner} is read-only and has no entry for {preset}", "permanent"
                )
            return failed(n, f"owner {owner} has no entry for {preset}", "transient")
        raise _PeerAnswer(f"peer {owner} answered HTTP {status}")

    def transport_span(n, started, exc, kind, backoff) -> None:
        # An answered attempt already recorded its span with the status.
        if ctx is not None and not isinstance(exc, _PeerAnswer):
            _trace.record(
                ctx,
                "proxy.attempt",
                started,
                attempt=n,
                outcome="transport-error",
                backoff_s=round(backoff, 6),
            )

    with _trace.worker_trace(traceparent) as ctx:
        run = policy.run(key, attempt, on_failure=transport_span)
        if run.error is None:
            outcome = run.value
        elif isinstance(run.error, _PeerAnswer):
            outcome = failed(run.attempts, str(run.error), run.kind)
        else:
            reason = str(run.error) or type(run.error).__name__
            outcome = failed(
                run.attempts, f"peer fetch from {owner} failed: {reason}", run.kind
            )
        if ctx is not None:
            _trace.complete(
                ctx,
                "worker.proxy_fetch",
                start,
                preset=preset,
                owner=owner,
                attempts=outcome.attempts,
                ok=outcome.ok,
                error_kind=outcome.error_kind,
            )
            outcome.spans = ctx.tracer.drain()
        return outcome


@dataclass
class DiscoveryJob:
    """One coalesced discovery: many requests, one measurement."""

    id: str
    key: str
    preset: str
    seed: int
    validate: bool
    status: str = "queued"  # queued | running | done | error
    error: str = ""
    #: failure taxonomy, mirroring the fleet's: "" | "transient" |
    #: "permanent" | "deadline" | "infrastructure" | "unavailable"
    #: (fast-failed by the failure memo) | "breaker" (circuit open).
    error_kind: str = ""
    #: worker attempts consumed (1 = first try succeeded).
    attempts: int = 1
    #: seconds until a retry is worth sending (fast-failed jobs only) —
    #: surfaced to clients as a ``Retry-After`` header.
    retry_after: float | None = None
    #: how many requests this job serves (1 + coalesced arrivals).
    requests: int = 1
    #: LPT admission cost (recorded wall or calibrated estimate).
    cost: float = 0.0
    wall_seconds: float = 0.0
    #: True while this job is a peer fetch against the key's ring owner
    #: rather than a local discovery.
    proxied: bool = False
    #: set when a failed proxy was re-queued as a local discovery (the
    #: writable-instance fallback) — routing must not proxy it again.
    force_local: bool = False
    #: span context for the job's own span (tracing only): trace id,
    #: a pre-allocated span id workers parent to, and the submitting
    #: request's span id — None when tracing was off at submit.
    trace_ctx: Any = field(default=None, repr=False)
    #: monotonic stamp of submit(), for the admission-wait span attr.
    submitted_at: float = field(default_factory=time.perf_counter, repr=False)
    done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def as_dict(self) -> dict[str, Any]:
        out = {
            "id": self.id,
            "key": self.key,
            "preset": self.preset,
            "seed": self.seed,
            "validate": self.validate,
            "status": self.status,
            "error": self.error,
            "requests": self.requests,
            "wall_seconds": round(self.wall_seconds, 3),
        }
        if self.error_kind:
            out["error_kind"] = self.error_kind
        if self.attempts > 1:
            out["attempts"] = self.attempts
        if self.retry_after is not None:
            out["retry_after"] = round(self.retry_after, 3)
        if self.proxied or self.force_local:
            out["proxied"] = self.proxied
        return out


class JobQueue:
    """Single-flight background discoveries over one shared store.

    ``executor`` defaults to a lazily-created :class:`ProcessPoolExecutor`
    (real parallelism for CPU-bound discovery); tests inject a thread
    pool to keep everything in-process.  All public methods must run on
    the event-loop thread — the queue's bookkeeping is loop-confined and
    needs no locks.
    """

    #: Terminal (done/error) jobs retained for ``GET /jobs/{id}``; past
    #: this the oldest are evicted, so a long-lived service sweeping
    #: seeds cannot grow the job table without bound.
    MAX_TERMINAL_JOBS = 256

    def __init__(
        self,
        store: DiscoveryCache,
        cache_config: str = "PreferL1",
        max_workers: int | None = None,
        executor: Executor | None = None,
        retry: RetryPolicy | None = None,
        deadline_seconds: float | None = None,
        failure_ttl: float = 15.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 60.0,
        ring: HashRing | None = None,
        peer_retry: RetryPolicy | None = None,
        peer_timeout: float = DEFAULT_PEER_TIMEOUT,
        proxy_only: bool = False,
        prune_bytes: int | None = None,
        pool_mode: str = POOL_MODE,
        executor_factory=None,
        on_entry_landed=None,
    ) -> None:
        self.store = store
        self.cache_config = cache_config
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self._executor = executor
        self._owns_executor = executor is None
        #: "warm": the service calls :meth:`prewarm` at start (pool and
        #: worker imports paid before traffic) and a respawned pool is
        #: re-warmed; "lazy": the pre-PR-9 behaviour, pool created on
        #: first use.  Either way the pool persists across jobs.
        if pool_mode not in ("warm", "lazy"):
            raise ValueError(f"pool_mode must be 'warm' or 'lazy', not {pool_mode!r}")
        self.pool_mode = pool_mode
        #: how an owned executor is (re)built — injectable so tests can
        #: watch respawns without paying real process-pool spin-up.
        self._executor_factory = executor_factory
        #: called with the report key after a completed job lands its
        #: entry — the service hangs hot-cache/catalog invalidation here.
        self.on_entry_landed = on_entry_landed
        self._rewarm_pending = False
        #: (preset, seed, validate) -> content-addressed report key.
        #: Key derivation builds a SimulatedGPU and canonicalises the
        #: whole identity dict through SHA-256 — pure, but far too slow
        #: for a per-request hot path, hence this bounded memo.
        self._key_memo = LRU(max_entries=self.KEY_MEMO_MAX)
        self.retry = retry if retry is not None else DEFAULT_SERVE_RETRY
        #: key routing across instances; None = standalone (every job
        #: discovers locally, the pre-ring behaviour).
        self.ring = ring
        self.peer_retry = peer_retry if peer_retry is not None else DEFAULT_PEER_RETRY
        self.peer_timeout = peer_timeout
        #: read-only replicas: never discover locally — a failed proxy
        #: is final instead of falling back to a local discovery.
        self.proxy_only = proxy_only
        #: disk budget applied (off-loop) after each completed job; None
        #: leaves pruning to the CLI, the pre---cache-limit behaviour.
        self.prune_bytes = prune_bytes
        #: per-job wall budget, enforced on the loop (None = unbounded).
        self.deadline_seconds = deadline_seconds
        #: per-key failure memo + circuit breaker: a failed key fast-fails
        #: for ``failure_ttl`` seconds; ``breaker_threshold`` consecutive
        #: failures open its breaker for ``breaker_cooldown`` seconds.
        self.breaker = faults.Breaker(breaker_threshold, breaker_cooldown, failure_ttl)
        self._jobs: dict[str, DiscoveryJob] = {}
        self._by_key: dict[str, DiscoveryJob] = {}
        self._pending: list[DiscoveryJob] = []
        self._terminal: deque[str] = deque()
        self._running = 0
        self._ids = itertools.count(1)
        self._deadline_handles: dict[str, asyncio.TimerHandle] = {}
        #: single-flight accounting (the acceptance counters).
        self.discoveries_started = 0
        self.discoveries_completed = 0
        self.discoveries_failed = 0
        self.coalesced = 0
        #: fault-tolerance accounting (the resilience counters).
        self.retries_total = 0
        self.deadlines_expired = 0
        self.fast_failures = 0
        #: sharding accounting: jobs dispatched as peer fetches, and
        #: failed proxies re-run as local discoveries.
        self.peer_fetches = 0
        self.peer_fallbacks = 0
        #: latched when the owned/injected pool reports itself broken —
        #: cleared again when an owned pool is respawned.
        self.executor_broken = False
        #: owned pools discarded after breaking (and rebuilt on demand).
        self.pool_respawns = 0
        #: warmup bodies that completed in a pool worker.
        self.workers_warmed = 0
        #: the owning service's span ring (None = tracing off).  Jobs
        #: record admission/coalescing/deadline spans here and ingest
        #: the spans their workers bring back.
        self.tracer = None

    # ------------------------------------------------------------------ #
    # identity                                                            #
    # ------------------------------------------------------------------ #

    #: distinct (preset, seed, validate) identities memoised by
    #: :meth:`report_key`; far above any real preset x seed working set.
    KEY_MEMO_MAX = 4096

    def report_key(self, preset: str, seed: int, validate: bool) -> str:
        """The content-addressed key a discovery with these inputs lands
        under — computed exactly like the worker will: a pristine device,
        the service's carveout, the default p-chase config, all
        elements, no extensions.

        Memoised: the mapping is pure (the key is a function of nothing
        but these inputs and the queue's fixed config), and deriving it
        costs a SimulatedGPU construction plus a canonical-JSON SHA-256 —
        per-request overhead the keep-alive hot path cannot afford.
        Unknown presets raise *before* the memo is touched, so the memo
        never caches failures.
        """
        memo_key = (preset, int(seed), bool(validate))
        cached = self._key_memo.get(memo_key)
        if cached is not None:
            return cached
        spec = get_preset(preset)
        device = SimulatedGPU(spec, seed=seed, cache_config=self.cache_config)
        targets = NVIDIA_ELEMENTS if spec.vendor is Vendor.NVIDIA else AMD_ELEMENTS
        key = self.store.report_key(
            device,
            PChaseConfig(),
            set(targets),
            frozenset(),
            validate,
        )
        self._key_memo.put(memo_key, key)
        return key

    # ------------------------------------------------------------------ #
    # submission (single-flight) + LPT admission                          #
    # ------------------------------------------------------------------ #

    def submit(
        self,
        preset: str,
        seed: int = 0,
        validate: bool = False,
        force_local: bool = False,
    ) -> DiscoveryJob:
        """Enqueue a discovery, coalescing onto an in-flight twin.

        Raises :class:`repro.errors.UnknownGPUError` for unknown presets
        (before any key work).  The returned job may already be running —
        await :meth:`wait` for completion.

        ``force_local`` pins the job to a local discovery regardless of
        ring ownership — the ``/store/{key}?discover=1`` route uses it,
        which is what terminates proxy chains: the hop a peer sends us
        runs here or fails here, it never hops again.
        """
        key = self.report_key(preset, seed, validate)
        ctx = _trace.CURRENT.get()
        inflight = self._by_key.get(key)
        if inflight is not None and inflight.status in ("queued", "running"):
            inflight.requests += 1
            inflight.force_local = inflight.force_local or force_local
            self.coalesced += 1
            if ctx is not None:
                # The coalesced arrival's trace shows *that* it rode an
                # in-flight twin (and which one) — the discovery spans
                # themselves live in the first submitter's trace.
                _trace.record(
                    ctx,
                    "job.coalesced",
                    time.perf_counter(),
                    job_id=inflight.id,
                    key=key[:12],
                    requests=inflight.requests,
                )
            return inflight
        # A lapsed block admits this request as the half-open probe.
        blocked_for = self.breaker.blocked_for(key)
        if blocked_for is not None:
            if ctx is not None:
                _trace.record(
                    ctx,
                    "job.fast_fail",
                    time.perf_counter(),
                    key=key[:12],
                    retry_after=round(blocked_for, 3),
                )
            return self._fast_fail(preset, seed, validate, key, blocked_for)
        job = DiscoveryJob(
            id=f"job-{next(self._ids)}",
            key=key,
            preset=preset,
            seed=seed,
            validate=validate,
            cost=self._estimate_cost(preset),
            force_local=force_local,
        )
        if ctx is not None:
            # Pre-allocate the job span's id: workers parent to it via
            # the traceparent argument, and _finish records it.
            job.trace_ctx = _trace.SpanContext(
                ctx.tracer, ctx.trace_id, _trace.new_span_id(), ctx.span_id
            )
        self._jobs[job.id] = job
        self._by_key[key] = job
        self._pending.append(job)
        self._pump()
        return job

    # ------------------------------------------------------------------ #
    # failure memo + circuit breaker                                      #
    # ------------------------------------------------------------------ #

    def _fast_fail(
        self, preset: str, seed: int, validate: bool, key: str, retry_after: float
    ) -> DiscoveryJob:
        """A pre-failed terminal job: the memoised error plus a hint."""
        trip = self.breaker.trip(key)
        job = DiscoveryJob(
            id=f"job-{next(self._ids)}",
            key=key,
            preset=preset,
            seed=seed,
            validate=validate,
            status="error",
            error=trip.error,
            error_kind="breaker" if trip.open else "unavailable",
            retry_after=retry_after,
        )
        self.fast_failures += 1
        self._jobs[job.id] = job
        job.done.set()
        self._retire(job)
        return job

    @property
    def breaker_opens(self) -> int:
        return self.breaker.opens

    def open_breakers(self) -> dict[str, float]:
        """key -> seconds of cooldown left, for currently-open breakers."""
        return self.breaker.open_names()

    def _estimate_cost(self, preset: str) -> float:
        """Admission cost: the recorded wall, or a calibrated estimate."""
        walls = self.store.recorded_walls()
        if preset in walls:
            return walls[preset]
        estimate = estimate_discovery_cost(get_preset(preset))
        ratios = []
        for label, wall in walls.items():
            try:
                e = estimate_discovery_cost(get_preset(label))
            except Exception:
                continue  # sidecar label that is not a preset
            if e > 0:
                ratios.append(wall / e)
        return estimate * (median(ratios) if ratios else 1.0)

    def _pump(self) -> None:
        """Start pending jobs while pool slots are free, longest first."""
        while self._pending and self._running < self.max_workers:
            job = max(self._pending, key=lambda j: j.cost)  # ties: earliest
            self._pending.remove(job)
            self._start(job)

    def _proxy_target(self, job: DiscoveryJob) -> str | None:
        """Where this job's discovery should run, or None for "here".

        A remote ring owner is always the target (that is what makes the
        owner the fleet-wide single-flight anchor).  When *we* own the
        key, ``proxy_only`` instances (read-only replicas) still proxy —
        to the owner's first successor, the nearest instance that might
        be able to produce the entry — because they can never run the
        discovery themselves.
        """
        if self.ring is None or job.force_local:
            return None
        owner = self.ring.owner(job.key)
        if owner != self.ring.self_node:
            return owner
        if self.proxy_only:
            return self.ring.peer_target(job.key)
        return None

    def _start(self, job: DiscoveryJob) -> None:
        try:
            # "serve.job" chaos point: admission-time failures (the job
            # never reaches the pool), distinct from in-worker faults.
            faults.inject("serve.job", job.preset)
        except Exception as exc:
            job.status = "error"
            job.error = str(exc) or type(exc).__name__
            job.error_kind = "transient" if is_transient(exc) else "permanent"
            self.discoveries_failed += 1
            self.breaker.record_failure(job.key, job.error)
            job.done.set()
            self._retire(job)
            return
        target = self._proxy_target(job)
        job.proxied = target is not None
        job.status = "running"
        self._running += 1
        start = time.perf_counter()
        loop = asyncio.get_running_loop()
        # The worker pool is persistent and pre-warmed (PR 9), so trace
        # context rides as a *call argument* — mutating os.environ here
        # could never reach an already-spawned worker process.  A traced
        # worker's discovery phases come back as spans on the outcome.
        tp = job.trace_ctx.traceparent if job.trace_ctx is not None else None
        if job.proxied:
            # Not a discovery: ``discoveries_started`` stays untouched,
            # which is exactly what lets the acceptance check pin "one
            # discovery, on the owner" from each instance's /metrics.
            self.peer_fetches += 1
            call = [
                fetch_report_for_job,
                target,
                job.key,
                job.preset,
                job.seed,
                self.cache_config,
                job.validate,
                str(self.store.root),
                self.peer_retry,
                self.peer_timeout,
            ]
            # Appended only when traced so stand-in worker functions with
            # the historical arity (tests, custom executors) keep working.
            if tp is not None:
                call.append(tp)
            future = loop.run_in_executor(self._ensure_executor(), *call)
        else:
            self.discoveries_started += 1
            call = [
                discover_one,
                job.preset,
                job.seed,
                self.cache_config,
                job.validate,
                str(self.store.root),
                self.retry,
            ]
            if tp is not None:
                call.append(tp)
            future = loop.run_in_executor(self._ensure_executor(), *call)
        if self.deadline_seconds is not None:
            self._deadline_handles[job.id] = loop.call_later(
                self.deadline_seconds, self._expire, job
            )
        future.add_done_callback(lambda f: self._finish(job, f, start))

    def _expire(self, job: DiscoveryJob) -> None:
        """Deadline timer: fail the job now, ignore its late result.

        The executor keeps its slot (there is no portable way to abort a
        running pool task) — the deadline bounds *client-visible* latency,
        not worker CPU; ``_finish`` releases the slot when the worker
        eventually returns and finds the job already terminal.
        """
        self._deadline_handles.pop(job.id, None)
        if job.status != "running":
            return
        job.status = "error"
        job.error = f"job deadline of {self.deadline_seconds:.3g} s exceeded"
        job.error_kind = "deadline"
        job.wall_seconds = self.deadline_seconds
        self.deadlines_expired += 1
        self.discoveries_failed += 1
        self.breaker.record_failure(job.key, job.error)
        if job.trace_ctx is not None:
            _trace.complete(
                job.trace_ctx,
                "job.run",
                time.perf_counter() - self.deadline_seconds,
                preset=job.preset,
                key=job.key[:12],
                proxied=job.proxied,
                outcome="deadline",
                deadline_s=self.deadline_seconds,
            )
            job.trace_ctx = None  # the late _finish must not re-record
        job.done.set()
        self._retire(job)

    def _finish(self, job: DiscoveryJob, future, start: float) -> None:
        self._running -= 1
        handle = self._deadline_handles.pop(job.id, None)
        if handle is not None:
            handle.cancel()
        if job.done.is_set():
            # Already expired (or shut down): the result is late; the
            # only thing left to collect is the pool slot.
            try:
                future.exception()  # consume, keep the loop's logs quiet
            except BaseException:
                pass  # .exception() re-raises CancelledError
            self._pump()
            return
        try:
            outcome = future.result()
            report, wall, error = outcome.report, outcome.wall_seconds, outcome.error
            job.error_kind = outcome.error_kind
            job.attempts = outcome.attempts
            self.retries_total += max(0, outcome.attempts - 1)
        except BaseException as exc:
            # BaseException: a shutdown's cancel_futures raises
            # CancelledError here, and an escaped exception would leave
            # job.done unset with every waiter hung forever.
            outcome = None
            report, wall, error = None, time.perf_counter() - start, (
                str(exc) or type(exc).__name__
            )
            job.error_kind = "infrastructure"
            if isinstance(exc, BrokenExecutor):
                self._note_broken_pool()
        job.wall_seconds = wall
        if job.trace_ctx is not None and self.tracer is not None and outcome is not None:
            # Spans recorded inside the worker process (or the proxy
            # fetch thread) travel home on the outcome and join the
            # request's trace here.  Ingest happens even when the job is
            # about to be requeued locally: the failed peer attempt is
            # part of the story.
            spans = getattr(outcome, "spans", None)
            if spans:
                self.tracer.ingest(spans)
        if report is None or error:
            if job.proxied and not self.proxy_only:
                # Writable-instance fallback: the owner could not serve
                # this key, so run the discovery here — one local job,
                # same waiters, no failure recorded against the key (the
                # key did nothing wrong; a peer did).
                self.peer_fallbacks += 1
                job.proxied = False
                job.force_local = True
                job.status = "queued"
                self._pending.append(job)
                self._pump()
                return
            job.status = "error"
            job.error = error or "discovery produced no report"
            self.discoveries_failed += 1
            self.breaker.record_failure(job.key, job.error)
        else:
            job.status = "done"
            self.discoveries_completed += 1
            self.breaker.heal(job.key)
            # Feed the LPT scheduler exactly like the fleet parent does:
            # only genuinely measured walls, never hash-lookup hits —
            # and never peer-fetch walls, which measure the network, not
            # the discovery this preset would cost here.
            # Off the loop thread — record_wall takes a sidecar lock and
            # may briefly sleep-retry under writer contention.
            if not job.proxied and report.meta.get("cache", {}).get("status") != "hit":
                asyncio.get_running_loop().run_in_executor(
                    None, self.store.record_wall, job.preset, wall
                )
            if self.prune_bytes is not None:
                # Opportunistic budget enforcement after every landed
                # entry (the serve-side twin of the CLI's post-run prune).
                asyncio.get_running_loop().run_in_executor(
                    None, self.store.prune, self.prune_bytes
                )
        if job.trace_ctx is not None:
            attrs: dict = {
                "preset": job.preset,
                "key": job.key[:12],
                "proxied": job.proxied,
                "outcome": job.status,
                "attempts": job.attempts,
                "requests": job.requests,
                "queue_wait_ms": round(max(0.0, start - job.submitted_at) * 1e3, 3),
            }
            if job.error_kind:
                attrs["error_kind"] = job.error_kind
            _trace.complete(job.trace_ctx, "job.run", start, **attrs)
        job.done.set()
        self._retire(job)
        if job.status == "done" and self.on_entry_landed is not None:
            try:
                # The service invalidates its hot cache and catalog
                # snapshot here; a broken hook must not hang waiters.
                self.on_entry_landed(job.key)
            except Exception:
                pass
        self._pump()

    def _retire(self, job: DiscoveryJob) -> None:
        """Bound the job table: evict the oldest terminal jobs."""
        self._terminal.append(job.id)
        while len(self._terminal) > self.MAX_TERMINAL_JOBS:
            old = self._jobs.pop(self._terminal.popleft(), None)
            if old is not None and self._by_key.get(old.key) is old:
                del self._by_key[old.key]

    def _ensure_executor(self) -> Executor:
        if self._executor is None:
            if self._executor_factory is not None:
                self._executor = self._executor_factory()
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
            # A fresh pool is healthy by definition; the latch tracked
            # the pool we just replaced.
            self.executor_broken = False
            if self._rewarm_pending:
                self._rewarm_pending = False
                self._submit_warmups()
        return self._executor

    def _note_broken_pool(self) -> None:
        """Discard an owned pool that reported itself broken.

        A :class:`BrokenExecutor` poisons every future submitted to that
        pool, so several in-flight jobs may land here — the ``None``
        guard makes the discard (and the respawn counter) fire once per
        breakage, not once per victim.  The replacement is built lazily
        by :meth:`_ensure_executor` on the next job, matching the PR-6
        taxonomy: breakage is ``infrastructure``, the *next* request
        probes recovery.  Injected executors stay the injector's to
        manage — the latch is set, nothing is discarded.
        """
        self.executor_broken = True
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            self.pool_respawns += 1
            self._rewarm_pending = self.pool_mode == "warm"

    # ------------------------------------------------------------------ #
    # pre-warming (--pool warm)                                           #
    # ------------------------------------------------------------------ #

    def prewarm(self) -> None:
        """Create the pool now and pay worker cold-start before traffic.

        Called by the service at start under ``--pool warm``: the pool
        exists before the first request, and one warmup body per slot
        makes every worker import the discovery stack and build its tier
        scaffolding up front.  Best-effort — a warmup failure (e.g. a
        pool broken at boot) is recorded through the normal broken-pool
        path on first real use, never raised here.
        """
        try:
            self._ensure_executor()
        except Exception:
            return
        self._submit_warmups()

    def _submit_warmups(self) -> None:
        if self._executor is None:
            return
        for _ in range(self.max_workers):
            try:
                future = self._executor.submit(_warm_worker, str(self.store.root))
            except Exception:
                return  # pool rejected the submit; first real job reports
            future.add_done_callback(self._warmup_done)

    def _warmup_done(self, future) -> None:
        try:
            future.result()
        except BaseException:
            return  # warmup is advisory; real jobs surface pool health
        self.workers_warmed += 1

    # ------------------------------------------------------------------ #
    # queries / lifecycle                                                 #
    # ------------------------------------------------------------------ #

    def get(self, job_id: str) -> DiscoveryJob | None:
        return self._jobs.get(job_id)

    @property
    def inflight(self) -> int:
        """Jobs admitted but not yet finished (running + pending)."""
        return self._running + len(self._pending)

    def stats(self) -> dict[str, Any]:
        """The ``GET /metrics`` jobs section: single-flight, resilience,
        sharding and pool counters, then the saturation gauges (jobs
        holding a worker slot, and the slot count)."""
        return {
            "inflight": self.inflight,
            "started": self.discoveries_started,
            "completed": self.discoveries_completed,
            "failed": self.discoveries_failed,
            "coalesced": self.coalesced,
            "retries": self.retries_total,
            "deadlines_expired": self.deadlines_expired,
            "breaker_opens": self.breaker_opens,
            "fast_failures": self.fast_failures,
            "open_breakers": len(self.open_breakers()),
            "executor_broken": self.executor_broken,
            "peer_fetches": self.peer_fetches,
            "peer_fallbacks": self.peer_fallbacks,
            "pool_respawns": self.pool_respawns,
            "workers_warmed": self.workers_warmed,
            "running": self._running,
            "slots": self.max_workers,
        }

    async def wait(self, job: DiscoveryJob) -> DiscoveryJob:
        """Block until ``job`` reaches a terminal state."""
        await job.done.wait()
        return job

    def shutdown(self) -> None:
        """Fail still-queued jobs and release the owned executor.

        Queued jobs never reach ``_finish`` (they were never started),
        so their waiters must be released here; running jobs terminate
        through ``_finish`` — normally, or via the cancellation their
        executor future receives.  Injected executors are the
        injector's to manage.
        """
        pending, self._pending = self._pending, []
        for job in pending:
            job.status = "error"
            job.error = "service shut down before the job started"
            job.done.set()
            self._retire(job)
        for handle in self._deadline_handles.values():
            handle.cancel()
        self._deadline_handles.clear()
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
