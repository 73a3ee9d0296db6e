"""End-to-end chaos tests: injected faults never change results.

The contract under test, across all four fault-tolerance layers:

* a fleet discovery that *succeeds* under an injected fault plan — via
  in-worker retries or the in-process recovery pass — is byte-identical
  to its fault-free report (faults cost retries and wall-clock, never
  correctness);
* failures that cannot be recovered degrade to *typed* error entries
  (transient / permanent / deadline / infrastructure) instead of sinking
  the fleet;
* the serving queue contains repeated failures (failure memo, circuit
  breaker), answers broken keys with 503 + ``Retry-After``, falls back
  to marked-stale last-known-good reports, and reports ``degraded``
  health with reasons;
* ``mt4g fleet`` exits 3 for worker/infrastructure failure and 2 for
  validation disagreement.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.validate.fleet import discover_fleet

PRESETS = ("TestGPU-AMD", "TestGPU-AMD-L3")


def content(report) -> str:
    return json.dumps(report.content_dict(), default=str, sort_keys=True)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


@pytest.fixture(scope="module")
def baseline():
    """The fault-free fleet every chaos run must reproduce byte-for-byte."""
    result = discover_fleet(PRESETS, seed=0, jobs=1)
    assert all(e.ok for e in result.entries)
    return {e.preset: content(e.report) for e in result.entries}


def plan(*specs: FaultSpec, seed: int = 0) -> FaultPlan:
    return FaultPlan(specs, seed=seed)


# ---------------------------------------------------------------------- #
# fleet: retries recover, byte-identically                                #
# ---------------------------------------------------------------------- #


class TestFleetChaos:
    def test_crash_on_first_attempt_is_retried_byte_identically(self, baseline):
        # Attempt 0 of one preset crashes; the in-worker retry must
        # succeed and produce the exact fault-free bytes.
        with faults.injected(
            plan(FaultSpec("fleet.worker", "crash", label="TestGPU-AMD@0"))
        ):
            result = discover_fleet(PRESETS, seed=0, jobs=1)
        hit = result.entry("TestGPU-AMD")
        assert hit.ok and hit.attempts == 2
        assert result.entry("TestGPU-AMD-L3").attempts == 1
        assert result.retries_total == 1
        assert not result.infrastructure_failed
        for e in result.entries:
            assert content(e.report) == baseline[e.preset]

    def test_transient_io_fault_recovers_in_parallel_pool(self, baseline):
        with faults.injected(
            plan(FaultSpec("fleet.worker", "io_error", label="TestGPU-AMD@0"))
        ):
            result = discover_fleet(PRESETS, seed=0, jobs=2)
        assert all(e.ok for e in result.entries)
        assert result.entry("TestGPU-AMD").attempts == 2
        for e in result.entries:
            assert content(e.report) == baseline[e.preset]

    def test_permanent_fault_is_not_retried(self):
        with faults.injected(
            plan(FaultSpec("fleet.worker", "permanent", label="TestGPU-AMD@*",
                           times=None))
        ):
            result = discover_fleet(PRESETS, seed=0, jobs=1)
        failed = result.entry("TestGPU-AMD")
        assert not failed.ok and failed.error_kind == "permanent"
        assert failed.attempts == 1  # retrying cannot help, so we did not
        assert result.entry("TestGPU-AMD-L3").ok  # never sinks the fleet
        assert result.infrastructure_failed
        assert result.error_kinds() == {"TestGPU-AMD": "permanent"}

    def test_exhausted_retry_budget_is_typed_transient(self):
        with faults.injected(
            plan(FaultSpec("fleet.worker", "crash", label="TestGPU-AMD@*",
                           times=None))
        ):
            result = discover_fleet(
                PRESETS,
                seed=0,
                jobs=1,
                retry=RetryPolicy(attempts=2, base_delay=0.001, max_delay=0.01),
            )
        failed = result.entry("TestGPU-AMD")
        assert not failed.ok and failed.error_kind == "transient"
        assert failed.attempts == 2  # the whole budget was spent

    def test_dead_worker_process_degrades_and_recovers_in_process(self, baseline):
        # The hardest infrastructure failure: a pool worker hard-exits,
        # which breaks the whole ProcessPoolExecutor.  The fleet must
        # degrade to typed rows and then recover inline in the parent.
        with faults.injected(
            plan(FaultSpec("fleet.worker", "exit", label="TestGPU-AMD@0"))
        ):
            result = discover_fleet(PRESETS, seed=0, jobs=2)
        assert all(e.ok for e in result.entries)
        assert result.recovered_in_process >= 1
        assert not result.infrastructure_failed
        for e in result.entries:
            assert content(e.report) == baseline[e.preset]

    def test_dead_worker_without_recovery_is_typed_infrastructure(self):
        with faults.injected(
            plan(FaultSpec("fleet.worker", "exit", label="TestGPU-AMD@*",
                           times=None))
        ):
            result = discover_fleet(
                PRESETS, seed=0, jobs=2, recover_in_process=False
            )
        assert result.infrastructure_failed
        assert "infrastructure" in result.error_kinds().values()

    def test_worker_deadline_bounds_the_backoff_loop(self):
        # Every attempt crashes and the backoff would exceed the budget:
        # the worker must give up with a "deadline" kind, quickly.
        with faults.injected(
            plan(FaultSpec("fleet.worker", "crash", label="TestGPU-AMD@*",
                           times=None))
        ):
            result = discover_fleet(
                ["TestGPU-AMD"],
                seed=0,
                jobs=1,
                retry=RetryPolicy(attempts=50, base_delay=10.0, max_delay=10.0),
                deadline_seconds=0.2,
            )
        failed = result.entry("TestGPU-AMD")
        assert not failed.ok and failed.error_kind == "deadline"
        assert failed.wall_seconds < 5.0  # gave up, did not sleep 10 s

    def test_matrix_and_json_carry_fault_accounting(self):
        with faults.injected(
            plan(FaultSpec("fleet.worker", "crash", label="TestGPU-AMD@0"))
        ):
            result = discover_fleet(PRESETS, seed=0, jobs=1)
        row = next(
            r for r in result.comparison_matrix() if r["preset"] == "TestGPU-AMD"
        )
        assert row["attempts"] == 2 and row["recovered"] is False
        payload = result.as_dict()["fault_tolerance"]
        assert payload["retries_total"] == 1
        assert payload["error_kinds"] == {}

    def test_no_faults_means_no_fault_accounting_noise(self, baseline):
        # With the plane inactive the new machinery must be invisible:
        # single attempts, zero retries, byte-identical reports.
        result = discover_fleet(PRESETS, seed=0, jobs=1)
        assert all(e.attempts == 1 and not e.recovered for e in result.entries)
        assert result.retries_total == 0
        assert all("attempts" not in r for r in result.comparison_matrix())
        for e in result.entries:
            assert content(e.report) == baseline[e.preset]


# ---------------------------------------------------------------------- #
# serving: memo, breaker, 503/Retry-After, stale fallback, health         #
# ---------------------------------------------------------------------- #


PRESET = "TestGPU-AMD"


@pytest.fixture()
def executor():
    pool = ThreadPoolExecutor(max_workers=2)
    yield pool
    pool.shutdown(wait=True)


@pytest.fixture()
def store(tmp_path):
    from repro.cache.store import DiscoveryCache

    return DiscoveryCache(tmp_path / "cache")


def make_service(store, executor, **kw):
    from repro.serve.server import TopologyService

    return TopologyService(store, executor=executor, **kw)


async def get(service, path: str, query: dict | None = None):
    from repro.serve.handlers import HTTPRequest

    return await service.handle_request(
        HTTPRequest(method="GET", path=path, query=query or {})
    )


ALWAYS_CRASH = FaultSpec("fleet.worker", "crash", label=f"{PRESET}@*", times=None)


class TestServeChaos:
    def test_failed_key_fast_fails_within_ttl_and_opens_breaker(
        self, store, executor
    ):
        from repro.serve.jobs import JobQueue

        async def scenario():
            queue = JobQueue(
                store,
                executor=executor,
                retry=RetryPolicy(attempts=1),
                failure_ttl=30.0,
                breaker_threshold=2,
                breaker_cooldown=60.0,
            )
            now = [0.0]
            queue.breaker.clock = lambda: now[0]
            first = await queue.wait(queue.submit(PRESET))
            assert first.status == "error" and first.error_kind == "transient"
            # within the TTL: the memo answers, no second discovery runs
            second = queue.submit(PRESET)
            assert second.status == "error"
            assert second.error_kind == "unavailable"
            assert second.retry_after is not None and second.retry_after > 0
            assert queue.discoveries_started == 1
            assert queue.fast_failures == 1
            # a failure memo is not a breaker yet
            assert queue.open_breakers() == {}
            # force the memo window shut and fail once more: breaker opens
            now[0] += 31.0
            third = await queue.wait(queue.submit(PRESET))
            assert third.status == "error"
            assert queue.breaker_opens == 1
            assert len(queue.open_breakers()) == 1
            fourth = queue.submit(PRESET)
            assert fourth.error_kind == "breaker"

        with faults.injected(plan(ALWAYS_CRASH)):
            asyncio.run(scenario())

    def test_success_heals_the_failure_memo(self, store, executor):
        from repro.serve.jobs import JobQueue

        crash_once = FaultSpec("fleet.worker", "crash", label=f"{PRESET}@*")

        async def scenario():
            queue = JobQueue(
                store,
                executor=executor,
                retry=RetryPolicy(attempts=1),
                failure_ttl=30.0,
            )
            now = [0.0]
            queue.breaker.clock = lambda: now[0]
            failed = await queue.wait(queue.submit(PRESET))
            assert failed.status == "error"
            now[0] += 31.0  # lapse the TTL
            probe = await queue.wait(queue.submit(PRESET))  # half-open probe
            assert probe.status == "done"
            assert len(queue.breaker) == 0  # healed entirely
            assert queue.open_breakers() == {}

        with faults.injected(plan(crash_once)):
            asyncio.run(scenario())

    def test_admission_fault_fails_the_job_before_the_pool(self, store, executor):
        from repro.serve.jobs import JobQueue

        admission = FaultSpec("serve.job", "transient")

        async def scenario():
            queue = JobQueue(store, executor=executor, failure_ttl=30.0)
            job = await queue.wait(queue.submit(PRESET))
            assert job.status == "error" and job.error_kind == "transient"
            assert queue.discoveries_started == 0  # never reached the pool
            # admission faults feed the same failure memo as worker faults
            second = queue.submit(PRESET)
            assert second.error_kind == "unavailable"
            assert second.retry_after is not None

        with faults.injected(plan(admission)):
            asyncio.run(scenario())

    def test_job_deadline_expires_on_the_loop(self, store, executor):
        from repro.serve.jobs import JobQueue

        hang = FaultSpec(
            "fleet.worker", "hang", label=f"{PRESET}@*", times=None,
            delay_seconds=0.5,
        )

        async def scenario():
            queue = JobQueue(
                store,
                executor=executor,
                retry=RetryPolicy(attempts=1),
                deadline_seconds=0.05,
            )
            job = await queue.wait(queue.submit(PRESET))
            assert job.status == "error" and job.error_kind == "deadline"
            assert queue.deadlines_expired == 1
            # let the hung worker drain so the executor fixture can close
            await asyncio.sleep(0.6)

        with faults.injected(plan(hang)):
            asyncio.run(scenario())

    def test_cold_request_for_broken_key_is_503_with_retry_after(
        self, store, executor
    ):
        async def scenario():
            service = make_service(
                store, executor, retry=RetryPolicy(attempts=1), failure_ttl=15.0
            )
            response = await get(service, f"/devices/{PRESET}/report")
            assert response.status == 503
            assert "Retry-After" in response.headers
            assert int(response.headers["Retry-After"]) >= 1
            body = json.loads(response.body)
            assert "discovery failed" in body["error"]
            # the encoded head carries the header onto the wire
            head = response.encode().split(b"\r\n\r\n", 1)[0]
            assert b"Retry-After:" in head

        with faults.injected(plan(ALWAYS_CRASH)):
            asyncio.run(scenario())

    def test_stale_last_known_good_is_served_and_marked(self, store, executor):
        async def scenario():
            # Hot cache off: a pruned entry must miss all the way to the
            # failing discovery for the last-good fallback to engage.
            service = make_service(
                store, executor, retry=RetryPolicy(attempts=1), failure_ttl=15.0,
                hot_cache_bytes=0,
            )
            fresh = await get(service, f"/devices/{PRESET}/report")
            assert fresh.status == 200 and "X-MT4G-Stale" not in fresh.headers
            # the store loses the entry AND discovery starts failing
            store.prune(0)
            with faults.injected(plan(ALWAYS_CRASH)):
                stale = await get(service, f"/devices/{PRESET}/report")
            assert stale.status == 200
            assert stale.headers.get("X-MT4G-Stale") == "true"
            assert stale.body == fresh.body  # the last-good bytes, exactly
            assert service.metrics.stale_served == 1
            metrics = json.loads((await get(service, "/metrics")).body)
            assert metrics["resilience"]["stale_served"] == 1

        asyncio.run(scenario())

    def test_healthz_degrades_with_reasons_when_breaker_opens(
        self, store, executor
    ):
        async def scenario():
            service = make_service(
                store,
                executor,
                retry=RetryPolicy(attempts=1),
                breaker_threshold=1,
                breaker_cooldown=60.0,
            )
            healthy = json.loads((await get(service, "/healthz")).body)
            assert healthy["status"] == "ok"
            assert "degraded_reasons" not in healthy
            job = service.jobs.submit(PRESET)
            await service.jobs.wait(job)
            degraded = json.loads((await get(service, "/healthz")).body)
            assert degraded["status"] == "degraded"
            assert any("breaker" in r for r in degraded["degraded_reasons"])
            metrics = json.loads((await get(service, "/metrics")).body)
            assert metrics["jobs"]["breaker_opens"] == 1
            assert metrics["jobs"]["open_breakers"] == 1
            assert metrics["resilience"]["faults_injected"]["fleet.worker"] >= 1

        with faults.injected(plan(ALWAYS_CRASH)):
            asyncio.run(scenario())

    def test_served_report_after_retry_matches_fault_free_bytes(
        self, store, executor, baseline
    ):
        # One crash, then success: the served JSON must be byte-identical
        # to a fault-free service's answer for the same key.
        crash_first = FaultSpec("fleet.worker", "crash", label=f"{PRESET}@0")

        async def chaotic():
            service = make_service(store, executor)
            response = await get(service, f"/devices/{PRESET}/report")
            assert response.status == 200
            assert service.jobs.retries_total == 1
            return response.body

        with faults.injected(plan(crash_first)):
            chaotic_body = asyncio.run(chaotic())

        async def calm():
            from repro.cache.store import DiscoveryCache

            calm_store = DiscoveryCache(store.root.parent / "calm")
            service = make_service(calm_store, executor)
            response = await get(service, f"/devices/{PRESET}/report")
            assert response.status == 200
            return response.body

        assert asyncio.run(calm()) == chaotic_body


# ---------------------------------------------------------------------- #
# CLI exit codes                                                          #
# ---------------------------------------------------------------------- #


class TestFleetExitCodes:
    def test_recovered_fault_still_exits_zero(self, capsys):
        from repro.core.cli import fleet_main

        with faults.injected(
            plan(FaultSpec("fleet.worker", "crash", label=f"{PRESET}@0"))
        ):
            code = fleet_main(
                ["--gpu", PRESET, "--sequential", "--no-cache", "-q"]
            )
        capsys.readouterr()
        assert code == 0

    def test_infrastructure_failure_exits_three(self, capsys):
        from repro.core.cli import fleet_main

        with faults.injected(plan(ALWAYS_CRASH)):
            code = fleet_main(
                ["--gpu", PRESET, "--sequential", "--no-cache", "--retries", "2"]
            )
        out = capsys.readouterr()
        assert code == 3
        assert "infrastructure FAILURE" in out.err
        assert "transient" in out.err

    def test_help_documents_the_exit_codes(self, capsys):
        from repro.core.cli import build_fleet_parser

        build_fleet_parser().print_help()
        help_text = capsys.readouterr().out
        assert "exit codes" in help_text
        assert "3 worker/infrastructure failure" in help_text
