"""One table behind both ``/metrics`` formats.

A fixed service state — tiered store with a peer tier, hot cache,
tracer, one fired fault, a fake clock — renders to JSON and Prometheus
text that must equal the bytes the hand-listed exposition produced for
the same state, apart from the saturation gauges added since.  Every
numeric JSON leaf must surface as exactly one Prometheus sample, and
every family name must be greppable as one literal in the module.
"""

from __future__ import annotations

import asyncio
import copy
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import faults
from repro.cache.ring import HashRing
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import PeerTier, TieredCache
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.trace import Tracer
from repro.serve import metrics as metrics_module
from repro.serve.handlers import _off_loop, json_response
from repro.serve.hotcache import HotReportCache
from repro.serve.jobs import JobQueue
from repro.serve.metrics import ServiceMetrics, _exposition, to_prometheus

#: JSON keys and Prometheus families added after the golden capture.
ADDED_KEYS = (
    ("jobs", "running"),
    ("jobs", "slots"),
    ("store", "tiers", "peer", "inflight"),
    ("busy_threads",),
)
ADDED_FAMILIES = {
    "mt4g_jobs_running",
    "mt4g_jobs_slots",
    "mt4g_peer_fetches_inflight",
    "mt4g_hot_cache_max_bytes",
    "mt4g_store_reads_busy_threads",
    "mt4g_default_executor_busy_threads",
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def snapshot(tmp_path):
    """The golden state's ``/metrics`` snapshot (one fault fired)."""
    clock = FakeClock()
    metrics = ServiceMetrics(clock=clock)
    metrics.observe("GET /devices/{preset}/report", 200, 0.0004)
    metrics.observe("GET /devices/{preset}/report", 200, 0.003)
    metrics.observe("GET /devices/{preset}/report", 404, 0.75)
    metrics.observe("GET /metrics", 200, 12.0)
    for event in ("accepted", "accepted", "reused", "closed", "idle_reaped", "write_errors"):
        metrics.count("connections", event)
    metrics.count("bad_requests")
    metrics.count("stale_served")
    clock.now += 42.125

    store = TieredCache(DiscoveryCache(tmp_path), peers=PeerTier(None))
    hot = HotReportCache(max_bytes=4096)
    tracer = Tracer()
    plan = FaultPlan([FaultSpec(site="tier.memory", kind="corrupt")])
    with faults.injected(plan):
        store.put("a" * 64, {"x": 1})
        store.get("a" * 64)  # corrupt memory slot -> disk hit, promoted
        store.get("a" * 64)  # memory hit
        store.get("b" * 64)  # full miss
        store.put_blob("c" * 64, b"garbage")  # corrupt_entry

        jobs = JobQueue(store, max_workers=2)
        jobs._running = 1
        jobs.discoveries_started = 3
        jobs.discoveries_completed = 2
        jobs.discoveries_failed = 1
        jobs.coalesced = 5
        jobs.retries_total = 4
        jobs.deadlines_expired = 1
        jobs.fast_failures = 2
        jobs.peer_fetches = 6
        jobs.peer_fallbacks = 1
        jobs.pool_respawns = 1
        jobs.workers_warmed = 2
        for _ in range(3):
            jobs.breaker.record_failure("k")

        for name in ("r1", "r2", "r3"):
            hot.put(name, "json", b"x" * 1500, "application/json")
        hot.get("r3", "json")
        hot.get("r1", "json")
        hot.invalidate("r3")

        ctx = tracer.begin()
        tracer.record(ctx, "x", 0.0)

        return metrics.snapshot(store=store, jobs=jobs, hot_cache=hot, tracer=tracer)


def _family(line: str) -> str:
    if line.startswith("# TYPE "):
        return line.split()[2]
    name = line.split("{")[0].split()[0]
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] == "mt4g_http_request_duration_seconds":
            return name[: -len(suffix)]
    return name


def _numeric_leaves(node, at=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _numeric_leaves(child, at + (key,))
    elif isinstance(node, (int, float)):  # bool included: a 0/1 gauge
        yield at, node


class TestGoldenExposition:
    def test_json_body_is_the_parent_bytes_plus_the_added_keys(self, snapshot):
        assert snapshot["jobs"]["running"] == 1
        assert snapshot["jobs"]["slots"] == 2
        assert snapshot["store"]["tiers"]["peer"]["inflight"] == 0
        trimmed = copy.deepcopy(snapshot)
        for *parents, leaf in ADDED_KEYS:
            section = trimmed
            for key in parents:
                section = section[key]
            del section[leaf]
        assert json_response(trimmed).body == GOLDEN_JSON.encode("utf-8")

    def test_prometheus_text_is_the_parent_text_plus_the_added_families(
        self, snapshot
    ):
        lines = to_prometheus(snapshot).splitlines(keepends=True)
        added = [line for line in lines if _family(line) in ADDED_FAMILIES]
        assert {_family(line) for line in added} == ADDED_FAMILIES
        kept = "".join(line for line in lines if _family(line) not in ADDED_FAMILIES)
        assert kept == GOLDEN_PROMETHEUS
        assert "mt4g_hot_cache_max_bytes 4096\n" in added
        assert "mt4g_jobs_slots 2\n" in added
        assert "mt4g_store_reads_busy_threads 0\n" in added
        assert "mt4g_default_executor_busy_threads 0\n" in added

    def test_every_numeric_leaf_is_exactly_one_sample(self, snapshot):
        text = to_prometheus(snapshot)
        rendered = list(_exposition(snapshot))
        sources = Counter(at for at, _ in rendered if at is not None)
        lines = {at: line for at, line in rendered if at is not None}
        leaves = dict(_numeric_leaves(snapshot))
        for at, value in leaves.items():
            assert sources[at] == 1, f"{at} is in {sources[at]} samples"
            assert lines[at] + "\n" in text
            assert lines[at].rsplit(" ", 1)[1] == str(int(value) if isinstance(value, bool) else value)
        assert set(sources) == set(leaves)  # no sample without a JSON leaf

    def test_each_family_name_is_one_literal_in_the_module(self, snapshot):
        source = Path(metrics_module.__file__).read_text()
        names = [
            line.split()[2]
            for line in to_prometheus(snapshot).splitlines()
            if line.startswith("# TYPE ")
        ]
        assert len(names) == len(metrics_module.METRICS)
        for name in names:
            assert source.count(f'"{name}"') == 1, name


class TestPeerInflightGauge:
    def test_counts_fetches_in_flight_and_drops_back_after_errors(self):
        tier = PeerTier(HashRing("http://self:1", ["http://a:1", "http://b:1"]))
        seen = []

        def fetch_from(node, key):
            seen.append(tier.stats()["inflight"])
            raise OSError("peer vanished")

        tier._fetch_from = fetch_from
        with pytest.raises(OSError):
            tier.fetch("a" * 64)
        assert seen == [1]
        assert tier.stats()["inflight"] == 0

    def test_concurrent_fetches_each_hold_one_slot(self):
        tier = PeerTier(HashRing("http://self:1", ["http://a:1"]))
        inside = threading.Barrier(4)
        release = threading.Event()

        def fetch_from(node, key):
            inside.wait(timeout=5)
            release.wait(timeout=5)
            return None

        tier._fetch_from = fetch_from
        threads = [threading.Thread(target=tier.fetch, args=("a" * 64,)) for _ in range(3)]
        for t in threads:
            t.start()
        inside.wait(timeout=5)
        assert tier.stats()["inflight"] == 3
        release.set()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        assert tier.stats()["inflight"] == 0

    def test_no_lost_updates_under_thread_churn(self):
        tier = PeerTier(HashRing("http://self:1", ["http://a:1"]))
        tier._fetch_from = lambda node, key: None

        def hammer():
            for _ in range(2000):
                tier.fetch("a" * 64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert tier.stats()["inflight"] == 0


class TestBusyThreadGauges:
    """``_off_loop`` counts the threads running a call, per pool."""

    @staticmethod
    def service(workers: int = 2) -> SimpleNamespace:
        return SimpleNamespace(
            metrics=ServiceMetrics(), store_reads=ThreadPoolExecutor(workers)
        )

    def test_counts_the_running_call_and_drops_back_after_an_error(self):
        svc = self.service()
        seen = []

        def boom():
            seen.append(dict(svc.metrics.busy_threads))
            raise OSError("disk vanished")

        async def main():
            for pool in ("default", "store_reads"):
                with pytest.raises(OSError):
                    await _off_loop(svc, boom, pool=pool)

        try:
            asyncio.run(main())
        finally:
            svc.store_reads.shutdown()
        assert seen == [
            {"store_reads": 0, "default": 1},
            {"store_reads": 1, "default": 0},
        ]
        assert svc.metrics.busy_threads == {"store_reads": 0, "default": 0}
        assert svc.metrics.snapshot()["busy_threads"] == {"store_reads": 0, "default": 0}

    def test_returns_to_zero_after_concurrent_churn(self):
        svc = self.service(workers=2)
        peak = {"store_reads": 0, "default": 0}
        lock = threading.Lock()

        def work(i: int, pool: str) -> int:
            with lock:
                peak[pool] = max(peak[pool], svc.metrics.busy_threads[pool])
            if i % 7 == 0:
                raise ValueError(i)
            return i

        async def main():
            calls = [
                _off_loop(svc, work, i, pool, pool=pool)
                for i in range(200)
                for pool in ("default", "store_reads")
            ]
            return await asyncio.gather(*calls, return_exceptions=True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
            svc.store_reads.shutdown()
        assert sum(isinstance(r, ValueError) for r in results) == 2 * 29
        assert svc.metrics.busy_threads == {"store_reads": 0, "default": 0}
        assert 1 <= peak["store_reads"] <= 2  # never above the pool's threads
        assert peak["default"] >= 1


#: ``json_response(snapshot).body`` for the golden state, rendered by
#: the hand-listed exposition before the table replaced it.
GOLDEN_JSON = """\
{
  "schema": "mt4g-repro-metrics/1",
  "uptime_seconds": 42.125,
  "http": {
    "requests_total": 4,
    "bad_requests": 1,
    "connections": {
      "accepted": 2,
      "reused": 1,
      "closed": 1,
      "idle_reaped": 1,
      "write_errors": 1
    },
    "by_status": {
      "200": 3,
      "404": 1
    },
    "routes": {
      "GET /devices/{preset}/report": {
        "count": 3,
        "seconds_total": 0.7534,
        "seconds_max": 0.75,
        "histogram": {
          "0.001": 1,
          "0.0025": 1,
          "0.005": 2,
          "0.01": 2,
          "0.025": 2,
          "0.05": 2,
          "0.1": 2,
          "0.25": 2,
          "0.5": 2,
          "1": 3,
          "2.5": 3,
          "5": 3,
          "10": 3,
          "+Inf": 3
        }
      },
      "GET /metrics": {
        "count": 1,
        "seconds_total": 12.0,
        "seconds_max": 12.0,
        "histogram": {
          "0.001": 0,
          "0.0025": 0,
          "0.005": 0,
          "0.01": 0,
          "0.025": 0,
          "0.05": 0,
          "0.1": 0,
          "0.25": 0,
          "0.5": 0,
          "1": 0,
          "2.5": 0,
          "5": 0,
          "10": 0,
          "+Inf": 1
        }
      }
    }
  },
  "store": {
    "hits": 2,
    "misses": 1,
    "stores": 1,
    "degradations": {
      "read_error": 0,
      "corrupt_entry": 2,
      "write_error": 0,
      "lock_timeout": 0,
      "stats_corrupt": 0
    },
    "tiers": {
      "memory": {
        "hits": 1,
        "misses": 2,
        "stores": 2,
        "degradations": {
          "read_error": 0,
          "corrupt_entry": 1,
          "write_error": 0,
          "lock_timeout": 0,
          "stats_corrupt": 0
        }
      },
      "disk": {
        "hits": 1,
        "misses": 1,
        "stores": 1,
        "degradations": {
          "read_error": 0,
          "corrupt_entry": 1,
          "write_error": 0,
          "lock_timeout": 0,
          "stats_corrupt": 0
        }
      },
      "peer": {
        "hits": 0,
        "misses": 1,
        "stores": 0,
        "degradations": {
          "read_error": 0,
          "corrupt_entry": 0,
          "write_error": 0,
          "lock_timeout": 0,
          "stats_corrupt": 0
        }
      }
    }
  },
  "jobs": {
    "inflight": 1,
    "started": 3,
    "completed": 2,
    "failed": 1,
    "coalesced": 5,
    "retries": 4,
    "deadlines_expired": 1,
    "breaker_opens": 1,
    "fast_failures": 2,
    "open_breakers": 1,
    "executor_broken": false,
    "peer_fetches": 6,
    "peer_fallbacks": 1,
    "pool_respawns": 1,
    "workers_warmed": 2
  },
  "hot_cache": {
    "max_bytes": 4096,
    "bytes": 1500,
    "entries": 1,
    "hits": 1,
    "misses": 1,
    "stores": 3,
    "evictions": 1,
    "invalidations": 1
  },
  "trace": {
    "traces_held": 1,
    "spans_recorded": 1,
    "spans_dropped": 0,
    "traces_evicted": 0,
    "slow_traces": 0
  },
  "resilience": {
    "stale_served": 1,
    "faults_injected": {
      "tier.memory": 1
    }
  }
}
"""

#: ``to_prometheus(snapshot)`` for the golden state, same provenance.
GOLDEN_PROMETHEUS = """\
# TYPE mt4g_uptime_seconds gauge
mt4g_uptime_seconds 42.125
# TYPE mt4g_http_requests_total counter
mt4g_http_requests_total 4
# TYPE mt4g_http_bad_requests_total counter
mt4g_http_bad_requests_total 1
# TYPE mt4g_http_connections_total counter
mt4g_http_connections_total{event="accepted"} 2
mt4g_http_connections_total{event="reused"} 1
mt4g_http_connections_total{event="closed"} 1
mt4g_http_connections_total{event="idle_reaped"} 1
# TYPE mt4g_http_connection_write_errors_total counter
mt4g_http_connection_write_errors_total 1
# TYPE mt4g_http_responses_total counter
mt4g_http_responses_total{status="200"} 3
mt4g_http_responses_total{status="404"} 1
# TYPE mt4g_http_route_requests_total counter
mt4g_http_route_requests_total{route="GET /devices/{preset}/report"} 3
mt4g_http_route_requests_total{route="GET /metrics"} 1
# TYPE mt4g_http_route_seconds_total counter
mt4g_http_route_seconds_total{route="GET /devices/{preset}/report"} 0.7534
mt4g_http_route_seconds_total{route="GET /metrics"} 12.0
# TYPE mt4g_http_route_seconds_max gauge
mt4g_http_route_seconds_max{route="GET /devices/{preset}/report"} 0.75
mt4g_http_route_seconds_max{route="GET /metrics"} 12.0
# TYPE mt4g_http_request_duration_seconds histogram
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.001"} 1
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.0025"} 1
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.005"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.01"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.025"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.05"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.1"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.25"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="0.5"} 2
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="1"} 3
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="2.5"} 3
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="5"} 3
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="10"} 3
mt4g_http_request_duration_seconds_bucket{route="GET /devices/{preset}/report",le="+Inf"} 3
mt4g_http_request_duration_seconds_sum{route="GET /devices/{preset}/report"} 0.7534
mt4g_http_request_duration_seconds_count{route="GET /devices/{preset}/report"} 3
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.001"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.0025"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.005"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.01"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.025"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.05"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.1"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.25"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="0.5"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="1"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="2.5"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="5"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="10"} 0
mt4g_http_request_duration_seconds_bucket{route="GET /metrics",le="+Inf"} 1
mt4g_http_request_duration_seconds_sum{route="GET /metrics"} 12.0
mt4g_http_request_duration_seconds_count{route="GET /metrics"} 1
# TYPE mt4g_store_hits_total counter
mt4g_store_hits_total 2
# TYPE mt4g_store_misses_total counter
mt4g_store_misses_total 1
# TYPE mt4g_store_stores_total counter
mt4g_store_stores_total 1
# TYPE mt4g_store_degradations_total counter
mt4g_store_degradations_total{kind="read_error"} 0
mt4g_store_degradations_total{kind="corrupt_entry"} 2
mt4g_store_degradations_total{kind="write_error"} 0
mt4g_store_degradations_total{kind="lock_timeout"} 0
mt4g_store_degradations_total{kind="stats_corrupt"} 0
# TYPE mt4g_store_tier_hits_total counter
mt4g_store_tier_hits_total{tier="memory"} 1
mt4g_store_tier_hits_total{tier="disk"} 1
mt4g_store_tier_hits_total{tier="peer"} 0
# TYPE mt4g_store_tier_misses_total counter
mt4g_store_tier_misses_total{tier="memory"} 2
mt4g_store_tier_misses_total{tier="disk"} 1
mt4g_store_tier_misses_total{tier="peer"} 1
# TYPE mt4g_store_tier_stores_total counter
mt4g_store_tier_stores_total{tier="memory"} 2
mt4g_store_tier_stores_total{tier="disk"} 1
mt4g_store_tier_stores_total{tier="peer"} 0
# TYPE mt4g_store_tier_degradations_total counter
mt4g_store_tier_degradations_total{tier="memory",kind="read_error"} 0
mt4g_store_tier_degradations_total{tier="memory",kind="corrupt_entry"} 1
mt4g_store_tier_degradations_total{tier="memory",kind="write_error"} 0
mt4g_store_tier_degradations_total{tier="memory",kind="lock_timeout"} 0
mt4g_store_tier_degradations_total{tier="memory",kind="stats_corrupt"} 0
mt4g_store_tier_degradations_total{tier="disk",kind="read_error"} 0
mt4g_store_tier_degradations_total{tier="disk",kind="corrupt_entry"} 1
mt4g_store_tier_degradations_total{tier="disk",kind="write_error"} 0
mt4g_store_tier_degradations_total{tier="disk",kind="lock_timeout"} 0
mt4g_store_tier_degradations_total{tier="disk",kind="stats_corrupt"} 0
mt4g_store_tier_degradations_total{tier="peer",kind="read_error"} 0
mt4g_store_tier_degradations_total{tier="peer",kind="corrupt_entry"} 0
mt4g_store_tier_degradations_total{tier="peer",kind="write_error"} 0
mt4g_store_tier_degradations_total{tier="peer",kind="lock_timeout"} 0
mt4g_store_tier_degradations_total{tier="peer",kind="stats_corrupt"} 0
# TYPE mt4g_jobs_inflight gauge
mt4g_jobs_inflight 1
# TYPE mt4g_jobs_open_breakers gauge
mt4g_jobs_open_breakers 1
# TYPE mt4g_jobs_executor_broken gauge
mt4g_jobs_executor_broken 0
# TYPE mt4g_jobs_started_total counter
mt4g_jobs_started_total 3
# TYPE mt4g_jobs_completed_total counter
mt4g_jobs_completed_total 2
# TYPE mt4g_jobs_failed_total counter
mt4g_jobs_failed_total 1
# TYPE mt4g_jobs_coalesced_total counter
mt4g_jobs_coalesced_total 5
# TYPE mt4g_jobs_retries_total counter
mt4g_jobs_retries_total 4
# TYPE mt4g_jobs_deadlines_expired_total counter
mt4g_jobs_deadlines_expired_total 1
# TYPE mt4g_jobs_breaker_opens_total counter
mt4g_jobs_breaker_opens_total 1
# TYPE mt4g_jobs_fast_failures_total counter
mt4g_jobs_fast_failures_total 2
# TYPE mt4g_jobs_peer_fetches_total counter
mt4g_jobs_peer_fetches_total 6
# TYPE mt4g_jobs_peer_fallbacks_total counter
mt4g_jobs_peer_fallbacks_total 1
# TYPE mt4g_jobs_pool_respawns_total counter
mt4g_jobs_pool_respawns_total 1
# TYPE mt4g_jobs_workers_warmed_total counter
mt4g_jobs_workers_warmed_total 2
# TYPE mt4g_hot_cache_bytes gauge
mt4g_hot_cache_bytes 1500
# TYPE mt4g_hot_cache_entries gauge
mt4g_hot_cache_entries 1
# TYPE mt4g_hot_cache_hits_total counter
mt4g_hot_cache_hits_total 1
# TYPE mt4g_hot_cache_misses_total counter
mt4g_hot_cache_misses_total 1
# TYPE mt4g_hot_cache_stores_total counter
mt4g_hot_cache_stores_total 3
# TYPE mt4g_hot_cache_evictions_total counter
mt4g_hot_cache_evictions_total 1
# TYPE mt4g_hot_cache_invalidations_total counter
mt4g_hot_cache_invalidations_total 1
# TYPE mt4g_traces_held gauge
mt4g_traces_held 1
# TYPE mt4g_trace_spans_recorded_total counter
mt4g_trace_spans_recorded_total 1
# TYPE mt4g_trace_spans_dropped_total counter
mt4g_trace_spans_dropped_total 0
# TYPE mt4g_trace_traces_evicted_total counter
mt4g_trace_traces_evicted_total 0
# TYPE mt4g_trace_slow_traces_total counter
mt4g_trace_slow_traces_total 0
# TYPE mt4g_stale_served_total counter
mt4g_stale_served_total 1
# TYPE mt4g_faults_injected_total counter
mt4g_faults_injected_total{site="tier.memory"} 1
"""
