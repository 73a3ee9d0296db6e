"""Service observability counters (``GET /metrics``).

A long-lived query service needs to answer "is the cache carrying the
traffic?" and "where does the time go?" without a profiler attached.
:class:`ServiceMetrics` keeps the in-process counters the endpoint
reports: per-route request/latency accounting and status histogram.
Every other section is its owner's own ``stats()`` (store, job queue,
hot cache, tracer), assembled at snapshot time — the metrics module
never owns a second copy that could drift.  Both exposition formats
come from that one snapshot: the JSON body directly, Prometheus text
through the :data:`METRICS` table, which declares each family once.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any

from repro import faults

__all__ = ["DURATION_BUCKETS", "METRICS", "ServiceMetrics", "to_prometheus"]

#: Histogram bucket upper bounds (seconds) for per-route request
#: latency.  Spans dict-lookup hot-cache hits (~sub-ms) through cold
#: discoveries (seconds); "+Inf" is implicit as the final bucket.
DURATION_BUCKETS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class ServiceMetrics:
    """In-process request counters; cheap enough to touch per request.

    All mutation is guarded by one lock: counters are bumped from the
    event loop *and* from executor threads (``run_in_executor`` store
    paths, the bench drivers), and ``+=`` on ints/dicts is not atomic
    across the interpreter's eval boundaries — unlocked, concurrent
    bumps can undercount.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.started_at = clock()
        self.requests_total = 0
        #: HTTP status -> count.
        self.by_status: dict[int, int] = {}
        #: route template -> {count, seconds_total, seconds_max}.
        self.routes: dict[str, dict[str, float]] = {}
        #: requests that never reached a handler (unparseable HTTP).
        self.bad_requests = 0
        #: reports served from the last-known-good fallback (marked
        #: ``X-MT4G-Stale``) because their discovery was failing.
        self.stale_served = 0
        #: connection lifecycle counters (keep-alive transport):
        #: ``accepted`` TCP connections, ``reused`` = requests after the
        #: first on one connection, ``closed``, ``idle_reaped`` =
        #: keep-alive sockets reaped by the idle timeout, and
        #: ``write_errors`` = responses lost to a client that vanished
        #: mid-write (previously swallowed silently).
        self.connections = {
            "accepted": 0,
            "reused": 0,
            "closed": 0,
            "idle_reaped": 0,
            "write_errors": 0,
        }
        #: executor threads running an off-loop call right now, per pool:
        #: the service's ``store_reads`` pool and the loop's default one.
        self.busy_threads = {"store_reads": 0, "default": 0}

    def observe(self, route: str, status: int, seconds: float) -> None:
        """Record one handled request against its route template."""
        seconds = float(seconds)
        slot = bisect_left(DURATION_BUCKETS, seconds)
        with self._lock:
            self.requests_total += 1
            self.by_status[status] = self.by_status.get(status, 0) + 1
            bucket = self.routes.get(route)
            if bucket is None:
                bucket = self.routes[route] = {
                    "count": 0,
                    "seconds_total": 0.0,
                    "seconds_max": 0.0,
                    "buckets": [0] * (len(DURATION_BUCKETS) + 1),
                }
            bucket["count"] += 1
            bucket["seconds_total"] += seconds
            bucket["seconds_max"] = max(bucket["seconds_max"], seconds)
            bucket["buckets"][slot] += 1

    def count(self, name: str, label: str | None = None, delta: int = 1) -> None:
        """One locked bump: ``count("bad_requests")`` bumps a scalar,
        ``count("connections", "reused")`` one key of a labelled dict;
        a gauge bumps by ``delta`` -1 on the way down."""
        with self._lock:
            if label is None:
                setattr(self, name, getattr(self, name) + delta)
            else:
                counts = getattr(self, name)
                counts[label] = counts.get(label, 0) + delta

    def snapshot(
        self, store=None, jobs=None, hot_cache=None, tracer=None
    ) -> dict[str, Any]:
        """The ``GET /metrics`` payload (JSON-ready).

        Each section beyond ``http`` is its owner's own ``stats()``;
        absent owners leave their section (and its families) out.
        """
        with self._lock:
            routes = {
                route: {
                    "count": int(b["count"]),
                    "seconds_total": round(b["seconds_total"], 6),
                    "seconds_max": round(b["seconds_max"], 6),
                    "histogram": _cumulative(b["buckets"]),
                }
                for route, b in sorted(self.routes.items())
            }
            out: dict[str, Any] = {
                "schema": "mt4g-repro-metrics/1",
                "uptime_seconds": round(self._clock() - self.started_at, 3),
                "http": {
                    "requests_total": self.requests_total,
                    "bad_requests": self.bad_requests,
                    "connections": dict(self.connections),
                    "by_status": {
                        str(k): v for k, v in sorted(self.by_status.items())
                    },
                    "routes": routes,
                },
                "busy_threads": dict(self.busy_threads),
            }
        sections = (
            ("store", store),
            ("jobs", jobs),
            ("hot_cache", hot_cache),
            ("trace", tracer),
        )
        for section, owner in sections:
            if owner is not None:
                out[section] = owner.stats()
        out["resilience"] = {
            "stale_served": self.stale_served,
            #: faults the active plan fired in *this* process — {} in
            #: production, where no plan is ever active.
            "faults_injected": faults.injected_counts(),
        }
        return out


def _bucket_label(bound: float) -> str:
    """Prometheus ``le`` label text for a bucket bound (ints bare)."""
    return str(int(bound)) if bound == int(bound) else str(bound)


def _cumulative(buckets: list[int]) -> dict[str, int]:
    """Non-cumulative internal counts -> ``{le: cumulative}`` mapping."""
    out: dict[str, int] = {}
    running = 0
    for bound, count in zip(DURATION_BUCKETS, buckets):
        running += count
        out[_bucket_label(bound)] = running
    out["+Inf"] = running + buckets[-1]
    return out


# ---------------------------------------------------------------------- #
# Prometheus text exposition (0.0.4)                                       #
# ---------------------------------------------------------------------- #


#: Every exported family, declared once: ``(json_path, name, kind,
#: labels)``.  ``json_path`` walks the snapshot; each ``"*"`` expands one
#: dict level and binds its key to the next name in ``labels``.  A leaf
#: that a literal row names is left out of any wildcard row that would
#: also reach it (``write_errors`` is its own family, not an ``event``).
#: Gauges are point-in-time values; everything else is a counter.  The
#: one ``histogram`` row points at a route's dict and renders its
#: ``_bucket``/``_sum``/``_count`` samples.
METRICS: tuple[tuple[tuple[str, ...], str, str, tuple[str, ...]], ...] = (
    (("uptime_seconds",), "mt4g_uptime_seconds", "gauge", ()),
    (("http", "requests_total"), "mt4g_http_requests_total", "counter", ()),
    (("http", "bad_requests"), "mt4g_http_bad_requests_total", "counter", ()),
    (("http", "connections", "*"), "mt4g_http_connections_total", "counter", ("event",)),
    (("http", "connections", "write_errors"), "mt4g_http_connection_write_errors_total", "counter", ()),
    (("http", "by_status", "*"), "mt4g_http_responses_total", "counter", ("status",)),
    (("http", "routes", "*", "count"), "mt4g_http_route_requests_total", "counter", ("route",)),
    (("http", "routes", "*", "seconds_total"), "mt4g_http_route_seconds_total", "counter", ("route",)),
    (("http", "routes", "*", "seconds_max"), "mt4g_http_route_seconds_max", "gauge", ("route",)),
    (("http", "routes", "*"), "mt4g_http_request_duration_seconds", "histogram", ("route",)),
    (("store", "hits"), "mt4g_store_hits_total", "counter", ()),
    (("store", "misses"), "mt4g_store_misses_total", "counter", ()),
    (("store", "stores"), "mt4g_store_stores_total", "counter", ()),
    (("store", "degradations", "*"), "mt4g_store_degradations_total", "counter", ("kind",)),
    (("store", "tiers", "*", "hits"), "mt4g_store_tier_hits_total", "counter", ("tier",)),
    (("store", "tiers", "*", "misses"), "mt4g_store_tier_misses_total", "counter", ("tier",)),
    (("store", "tiers", "*", "stores"), "mt4g_store_tier_stores_total", "counter", ("tier",)),
    (("store", "tiers", "*", "degradations", "*"), "mt4g_store_tier_degradations_total", "counter", ("tier", "kind")),
    (("store", "tiers", "peer", "inflight"), "mt4g_peer_fetches_inflight", "gauge", ()),
    (("busy_threads", "store_reads"), "mt4g_store_reads_busy_threads", "gauge", ()),
    (("busy_threads", "default"), "mt4g_default_executor_busy_threads", "gauge", ()),
    (("jobs", "inflight"), "mt4g_jobs_inflight", "gauge", ()),
    (("jobs", "running"), "mt4g_jobs_running", "gauge", ()),
    (("jobs", "slots"), "mt4g_jobs_slots", "gauge", ()),
    (("jobs", "open_breakers"), "mt4g_jobs_open_breakers", "gauge", ()),
    (("jobs", "executor_broken"), "mt4g_jobs_executor_broken", "gauge", ()),
    (("jobs", "started"), "mt4g_jobs_started_total", "counter", ()),
    (("jobs", "completed"), "mt4g_jobs_completed_total", "counter", ()),
    (("jobs", "failed"), "mt4g_jobs_failed_total", "counter", ()),
    (("jobs", "coalesced"), "mt4g_jobs_coalesced_total", "counter", ()),
    (("jobs", "retries"), "mt4g_jobs_retries_total", "counter", ()),
    (("jobs", "deadlines_expired"), "mt4g_jobs_deadlines_expired_total", "counter", ()),
    (("jobs", "breaker_opens"), "mt4g_jobs_breaker_opens_total", "counter", ()),
    (("jobs", "fast_failures"), "mt4g_jobs_fast_failures_total", "counter", ()),
    (("jobs", "peer_fetches"), "mt4g_jobs_peer_fetches_total", "counter", ()),
    (("jobs", "peer_fallbacks"), "mt4g_jobs_peer_fallbacks_total", "counter", ()),
    (("jobs", "pool_respawns"), "mt4g_jobs_pool_respawns_total", "counter", ()),
    (("jobs", "workers_warmed"), "mt4g_jobs_workers_warmed_total", "counter", ()),
    (("hot_cache", "max_bytes"), "mt4g_hot_cache_max_bytes", "gauge", ()),
    (("hot_cache", "bytes"), "mt4g_hot_cache_bytes", "gauge", ()),
    (("hot_cache", "entries"), "mt4g_hot_cache_entries", "gauge", ()),
    (("hot_cache", "hits"), "mt4g_hot_cache_hits_total", "counter", ()),
    (("hot_cache", "misses"), "mt4g_hot_cache_misses_total", "counter", ()),
    (("hot_cache", "stores"), "mt4g_hot_cache_stores_total", "counter", ()),
    (("hot_cache", "evictions"), "mt4g_hot_cache_evictions_total", "counter", ()),
    (("hot_cache", "invalidations"), "mt4g_hot_cache_invalidations_total", "counter", ()),
    (("trace", "traces_held"), "mt4g_traces_held", "gauge", ()),
    (("trace", "spans_recorded"), "mt4g_trace_spans_recorded_total", "counter", ()),
    (("trace", "spans_dropped"), "mt4g_trace_spans_dropped_total", "counter", ()),
    (("trace", "traces_evicted"), "mt4g_trace_traces_evicted_total", "counter", ()),
    (("trace", "slow_traces"), "mt4g_trace_slow_traces_total", "counter", ()),
    (("resilience", "stale_served"), "mt4g_stale_served_total", "counter", ()),
    (("resilience", "faults_injected", "*"), "mt4g_faults_injected_total", "counter", ("site",)),
)

_LITERAL_PATHS = {path for path, *_ in METRICS if "*" not in path}


def _leaves(node: Any, path: tuple[str, ...], at: tuple = ()):
    """Yield ``(concrete_path, value)`` for every node ``path`` reaches."""
    if not path:
        yield at, node
        return
    if not isinstance(node, dict):
        return
    step, rest = path[0], path[1:]
    if step == "*":
        for key, child in node.items():
            yield from _leaves(child, rest, at + (key,))
    elif step in node:
        yield from _leaves(node[step], rest, at + (step,))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(names: tuple[str, ...], values: tuple, **extra: str) -> str:
    pairs = list(zip(names, values)) + list(extra.items())
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return f"{{{inner}}}"


def _exposition(snapshot: dict[str, Any]):
    """Yield ``(json_path, line)`` for every exposition line, in order.

    ``json_path`` is the snapshot leaf the sample renders, ``None`` for
    ``# TYPE`` lines and the histogram's derived ``_sum``/``_count``.
    """
    for path, name, kind, label_names in METRICS:
        found = [
            (at, value)
            for at, value in _leaves(snapshot, path)
            if "*" not in path or at not in _LITERAL_PATHS
        ]
        if not found:
            continue
        yield None, f"# TYPE {name} {kind}"
        for at, value in found:
            bound = tuple(key for key, step in zip(at, path) if step == "*")
            if kind == "histogram":
                for le, count in value["histogram"].items():
                    labels = _labels(label_names, bound, le=le)
                    yield at + ("histogram", le), f"{name}_bucket{labels} {count}"
                labels = _labels(label_names, bound)
                yield None, f"{name}_sum{labels} {value['seconds_total']}"
                yield None, f"{name}_count{labels} {value['count']}"
            else:
                if isinstance(value, bool):
                    value = int(value)
                yield at, f"{name}{_labels(label_names, bound)} {value}"


def to_prometheus(snapshot: dict[str, Any]) -> str:
    """Render a :meth:`ServiceMetrics.snapshot` dict as Prometheus text.

    A pure function of the JSON snapshot, driven by :data:`METRICS`:
    ``mt4g_``-prefixed names, one ``# TYPE`` line per family, families
    whose section is absent left out.
    """
    return "\n".join(line for _, line in _exposition(snapshot)) + "\n"
