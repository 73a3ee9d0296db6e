"""Tests for the observability plane (PR 10).

The contracts that make telemetry trustworthy:

* W3C ``traceparent`` is accepted and emitted; malformed headers start a
  fresh trace instead of failing the request;
* the span ring is bounded (traces evicted oldest-first, spans per trace
  dropped and counted) and safe under concurrent recording;
* a cold request is one trace end-to-end: handler root, job span, worker
  spans (via ``WorkerOutcome.spans``), store tier reads — across *two
  instances* when the discovery is proxied over the ring;
* with tracing off the hot path allocates nothing in ``repro.obs``;
* the metrics counters are exact under thread contention, the latency
  histograms render in both JSON and Prometheus exposition, and label
  escaping round-trips arbitrary text;
* discovery phases are spans whose folded self times sum to the wall
  time, and profiles and traces never alter stored or served bytes.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MT4G, SimulatedGPU
from repro.cache.ring import HashRing
from repro.cache.tiers import build_worker_cache
from repro.core.output.json_out import to_json
from repro.obs.accesslog import AccessLog
from repro.obs.profile import fold
from repro.obs.trace import (
    CURRENT,
    SpanContext,
    Tracer,
    complete,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    worker_trace,
)
from repro.serve import HTTPRequest, TopologyService
from repro.serve.metrics import ServiceMetrics, _escape_label, to_prometheus

PRESET = "TestGPU-NV"

TRACE_ID = "ab" * 16
PARENT_ID = "cd" * 8
TRACEPARENT = f"00-{TRACE_ID}-{PARENT_ID}-01"


@pytest.fixture
def executor():
    ex = ThreadPoolExecutor(max_workers=4)
    yield ex
    ex.shutdown(wait=True)


def get(service, path, query=None, headers=None):
    return service.handle_request(
        HTTPRequest("GET", path, query=query or {}, headers=headers or {})
    )


def cli_bytes(preset=PRESET, seed=0) -> bytes:
    report = MT4G(SimulatedGPU.from_preset(preset, seed=seed)).discover()
    return (to_json(report) + "\n").encode()


# ---------------------------------------------------------------------- #
# traceparent                                                             #
# ---------------------------------------------------------------------- #


class TestTraceparent:
    def test_roundtrip(self):
        trace_id, span_id = new_trace_id(), new_span_id()
        assert parse_traceparent(format_traceparent(trace_id, span_id)) == (
            trace_id,
            span_id,
        )

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-zz" + "0" * 30 + "-" + "1" * 16 + "-01",
            f"00-{'0' * 32}-{PARENT_ID}-01",  # all-zero trace id
            f"00-{TRACE_ID}-{'0' * 16}-01",  # all-zero span id
            f"00-{TRACE_ID}-{PARENT_ID}",  # missing flags
        ],
    )
    def test_malformed_is_absent(self, header):
        assert parse_traceparent(header) is None

    def test_case_and_whitespace_tolerated(self):
        assert parse_traceparent(f"  00-{TRACE_ID.upper()}-{PARENT_ID}-01 ") == (
            TRACE_ID,
            PARENT_ID,
        )


# ---------------------------------------------------------------------- #
# the tracer ring                                                         #
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_begin_continues_or_starts(self):
        tracer = Tracer()
        cont = tracer.begin(TRACEPARENT)
        assert cont.trace_id == TRACE_ID
        assert cont.parent_id == PARENT_ID
        fresh = tracer.begin("not a traceparent")
        assert fresh.parent_id is None
        assert fresh.trace_id != TRACE_ID

    def test_trace_ring_evicts_oldest(self):
        tracer = Tracer(max_traces=3)
        for i in range(5):
            ctx = tracer.begin()
            tracer.record(ctx, f"span-{i}", 0.0)
        stats = tracer.stats()
        assert stats["traces_held"] == 3
        assert stats["traces_evicted"] == 2

    def test_spans_per_trace_bounded(self):
        tracer = Tracer(max_spans_per_trace=4)
        ctx = tracer.begin()
        for _ in range(10):
            tracer.record(ctx, "leaf", 0.0)
        assert len(tracer.spans(ctx.trace_id)) == 4
        assert tracer.stats()["spans_dropped"] == 6

    def test_ingest_adopts_worker_spans(self):
        tracer = Tracer()
        foreign = [
            {"trace_id": TRACE_ID, "span_id": "aa" * 8, "name": "w", "start_ms": 0,
             "duration_ms": 1.0, "parent_id": None},
            {"not-a-span": True},
            "garbage",
        ]
        tracer.ingest(foreign)
        assert len(tracer.spans(TRACE_ID)) == 1

    def test_concurrent_recording_is_exact(self):
        tracer = Tracer(max_traces=64, max_spans_per_trace=10_000)
        ctx = tracer.begin(TRACEPARENT)

        def hammer():
            for _ in range(500):
                tracer.record(ctx, "leaf", 0.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.stats()["spans_recorded"] == 4000
        assert len(tracer.spans(TRACE_ID)) == 4000

    def test_slow_trace_logged_as_structured_json(self):
        stream = io.StringIO()
        tracer = Tracer(slow_ms=0.0, log_stream=stream)
        ctx = tracer.begin(TRACEPARENT)
        tracer.record(ctx, "hotcache.lookup", 0.0)
        tracer.finish_request(ctx, "GET /devices/{preset}/report", 0.0, 200)
        line = stream.getvalue().strip()
        payload = json.loads(line)  # exactly one JSON object per line
        assert payload["event"] == "slow_trace"
        assert payload["trace_id"] == TRACE_ID
        assert payload["route"] == "GET /devices/{preset}/report"
        assert payload["status"] == 200
        assert {s["name"] for s in payload["spans"]} >= {"hotcache.lookup"}
        assert tracer.stats()["slow_traces"] == 1

    def test_fast_trace_not_logged(self):
        stream = io.StringIO()
        tracer = Tracer(slow_ms=10_000.0, log_stream=stream)
        ctx = tracer.begin()
        from time import perf_counter

        tracer.finish_request(ctx, "GET /healthz", perf_counter(), 200)
        assert stream.getvalue() == ""
        assert tracer.stats()["slow_traces"] == 0

    def test_worker_trace_parents_to_job_span(self):
        with worker_trace(TRACEPARENT) as ctx:
            assert CURRENT.get() is ctx
            assert ctx.trace_id == TRACE_ID
            assert ctx.parent_id == PARENT_ID
            import os

            from repro.obs.trace import ENV_VAR

            assert os.environ[ENV_VAR] == TRACEPARENT
            ctx.tracer.record(ctx, "worker.attempt", 0.0)
            spans = ctx.tracer.drain()
        assert CURRENT.get() is None
        assert spans[0]["parent_id"] == ctx.span_id
        with worker_trace(None) as none_ctx:
            assert none_ctx is None


# ---------------------------------------------------------------------- #
# access log                                                              #
# ---------------------------------------------------------------------- #


class TestAccessLog:
    def test_json_request_line(self):
        stream = io.StringIO()
        log = AccessLog("json", stream=stream, clock=lambda: 1754600000.5)
        log.request(
            method="GET",
            path="/devices/TestGPU-NV/report",
            route="GET /devices/{preset}/report",
            status=200,
            duration_ms=1.2345,
            trace_id=TRACE_ID,
            reused=True,
        )
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "request"
        assert payload["method"] == "GET"
        assert payload["route"] == "GET /devices/{preset}/report"
        assert payload["status"] == 200
        assert payload["duration_ms"] == 1.234
        assert payload["trace_id"] == TRACE_ID
        assert payload["reused"] is True
        assert payload["ts"].endswith("Z")

    def test_text_format(self):
        stream = io.StringIO()
        log = AccessLog("text", stream=stream)
        log.request(
            method="GET", path="/healthz", route="GET /healthz",
            status=200, duration_ms=0.5,
        )
        line = stream.getvalue()
        assert "GET /healthz 200" in line
        assert "\n" == line[-1]

    def test_event_lines(self):
        stream = io.StringIO()
        log = AccessLog("json", stream=stream)
        log.event("bad_request", "malformed HTTP request", status=400)
        log.event("write_error", "Broken pipe", status=200)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert lines[0]["event"] == "bad_request"
        assert lines[0]["reason"] == "malformed HTTP request"
        assert lines[1]["event"] == "write_error"
        assert lines[1]["status"] == 200

    def test_emission_never_raises(self):
        stream = io.StringIO()
        stream.close()
        log = AccessLog("json", stream=stream)
        log.request(
            method="GET", path="/", route="GET /", status=200, duration_ms=0.1
        )  # closed stream: swallowed

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            AccessLog("xml")


# ---------------------------------------------------------------------- #
# metrics: locking, histograms, exposition                                #
# ---------------------------------------------------------------------- #


class TestMetrics:
    def test_concurrent_observe_is_exact(self):
        metrics = ServiceMetrics()

        def hammer():
            for _ in range(1000):
                metrics.observe("GET /x", 200, 0.003)
                metrics.count("connections", "reused")
                metrics.count("bad_requests")
                metrics.count("stale_served")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = metrics.snapshot()
        assert snap["http"]["requests_total"] == 8000
        assert snap["http"]["routes"]["GET /x"]["count"] == 8000
        assert snap["http"]["connections"]["reused"] == 8000
        assert snap["http"]["bad_requests"] == 8000
        assert snap["resilience"]["stale_served"] == 8000

    def test_histogram_buckets_are_cumulative(self):
        metrics = ServiceMetrics()
        metrics.observe("GET /x", 200, 0.0005)  # le 0.001
        metrics.observe("GET /x", 200, 0.004)  # le 0.005
        metrics.observe("GET /x", 200, 0.004)
        metrics.observe("GET /x", 200, 99.0)  # +Inf only
        hist = metrics.snapshot()["http"]["routes"]["GET /x"]["histogram"]
        assert hist["0.001"] == 1
        assert hist["0.0025"] == 1
        assert hist["0.005"] == 3
        assert hist["10"] == 3
        assert hist["+Inf"] == 4
        # cumulative: monotonically non-decreasing
        values = list(hist.values())
        assert values == sorted(values)

    def test_boundary_value_lands_in_its_le_bucket(self):
        # Prometheus `le` is inclusive: exactly 0.001s belongs in the
        # 0.001 bucket, not the next one up.
        metrics = ServiceMetrics()
        metrics.observe("GET /x", 200, 0.001)
        hist = metrics.snapshot()["http"]["routes"]["GET /x"]["histogram"]
        assert hist["0.001"] == 1

    def test_prometheus_histogram_exposition(self):
        metrics = ServiceMetrics()
        metrics.observe("GET /x", 200, 0.004)
        text = to_prometheus(metrics.snapshot())
        assert "# TYPE mt4g_http_request_duration_seconds histogram" in text
        assert (
            'mt4g_http_request_duration_seconds_bucket{route="GET /x",le="0.005"} 1'
            in text
        )
        assert (
            'mt4g_http_request_duration_seconds_bucket{route="GET /x",le="+Inf"} 1'
            in text
        )
        assert 'mt4g_http_request_duration_seconds_count{route="GET /x"} 1' in text
        assert re.search(
            r'mt4g_http_request_duration_seconds_sum\{route="GET /x"\} 0\.004', text
        )

    def test_trace_stats_rendered_when_present(self):
        metrics = ServiceMetrics()
        tracer = Tracer()
        ctx = tracer.begin()
        tracer.record(ctx, "x", 0.0)
        snap = metrics.snapshot(tracer=tracer)
        assert snap["trace"]["spans_recorded"] == 1
        text = to_prometheus(snap)
        assert "mt4g_traces_held 1" in text
        assert "mt4g_trace_spans_recorded_total 1" in text
        # absent tracer: no trace families at all
        assert "mt4g_traces_held" not in to_prometheus(metrics.snapshot())


def _unescape_label(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


class TestPrometheusLabelEscaping:
    @given(st.text())
    @settings(max_examples=300, deadline=None)
    def test_escape_round_trips(self, value):
        escaped = _escape_label(value)
        assert "\n" not in escaped  # a raw newline would break exposition
        assert _unescape_label(escaped) == value

    @given(st.text(alphabet='ab"\\\n', max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_hostile_route_labels_survive_exposition(self, route):
        metrics = ServiceMetrics()
        metrics.observe(route, 200, 0.002)
        text = to_prometheus(metrics.snapshot())
        lines = [
            l for l in text.splitlines()
            if l.startswith("mt4g_http_route_requests_total{")
        ]
        assert len(lines) == 1  # no label ever injects an extra line
        match = re.fullmatch(
            r'mt4g_http_route_requests_total\{route="(.*)"\} 1', lines[0]
        )
        assert match is not None
        assert _unescape_label(match.group(1)) == route


# ---------------------------------------------------------------------- #
# the discovery profiler                                                  #
# ---------------------------------------------------------------------- #


def _span(span_id, parent_id, duration_ms, name="discover.phase", **attrs):
    span = {
        "trace_id": TRACE_ID,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_ms": 0.0,
        "duration_ms": duration_ms,
    }
    if attrs:
        span["attrs"] = attrs
    return span


def _traced_discovery(tool, validate=False):
    """Run ``tool.discover`` under a local tracer; (report, spans)."""
    root = format_traceparent(new_trace_id(), new_span_id())
    with worker_trace(root) as ctx:
        start = time.perf_counter()
        report = tool.discover(validate=validate)
        complete(ctx, "root", start)
    return report, ctx.tracer.drain()


class TestProfiler:
    def test_nested_phases_attribute_to_innermost(self):
        spans = [
            _span("r" * 16, PARENT_ID, 100.0, name="root"),
            _span("a" * 16, "r" * 16, 60.0, element="L1", phase="measure",
                  runs=5, seconds=0.02),
            _span("b" * 16, "a" * 16, 40.0, element="L1", phase="size_sweep",
                  runs=5, seconds=0.02),
            # a non-phase leaf (store read) stays inside its phase's row
            _span("c" * 16, "b" * 16, 5.0, name="store.read", bytes=10),
            _span("d" * 16, "r" * 16, 30.0, element="L2", phase="measure",
                  runs=2, seconds=0.01),
        ]
        table = fold(spans)
        assert table["root"] == "root"
        assert table["wall_s"] == pytest.approx(0.1)
        rows = {(r["element"], r["phase"]): r for r in table["rows"]}
        assert set(rows) == {
            ("root", "(self)"), ("L1", "measure"), ("L1", "size_sweep"),
            ("L2", "measure"),
        }
        inner, outer = rows[("L1", "size_sweep")], rows[("L1", "measure")]
        # runs and kernel seconds land on the innermost phase...
        assert inner["runs"] == 5 and inner["seconds"] == pytest.approx(0.02)
        assert outer["runs"] == 0 and outer["seconds"] == pytest.approx(0.0)
        # ...and parent rows exclude their children's time
        assert inner["wall_s"] == pytest.approx(0.040)
        assert outer["wall_s"] == pytest.approx(0.020)
        assert rows[("root", "(self)")]["wall_s"] == pytest.approx(0.010)
        assert "runs" not in rows[("root", "(self)")]
        assert sum(r["wall_s"] for r in table["rows"]) == pytest.approx(0.1)
        assert sum(r.get("runs", 0) for r in table["rows"]) == 7
        # largest self time first
        assert table["rows"][0]["element"] == "L1"
        with pytest.raises(ValueError):
            fold(spans[1:])  # the root span is missing

    def test_discover_under_profile_counts_phases_and_runs(self):
        for preset in (PRESET, "TestGPU-AMD"):
            tool = MT4G(SimulatedGPU.from_preset(preset, seed=0))
            report, spans = _traced_discovery(tool, validate=True)
            table = fold(spans)
            rows = table["rows"]
            assert {r["phase"] for r in rows} >= {
                "size_sweep", "line_size", "latency", "fetch_granularity",
            }
            assert sum(r["wall_s"] for r in rows) == pytest.approx(
                table["wall_s"], rel=0.02
            )
            assert all(r["wall_s"] >= 0 and r.get("runs", 0) >= 0 for r in rows)
            # every p-chase run of every runner (the pipeline's and the
            # escalation contexts') lands in exactly one row
            runs = sum(r.get("runs", 0) for r in rows)
            assert runs > 0
            assert runs == sum(stats["runs"] for stats in tool._runner_stats)
            # phases never touch the noise stream: same bytes as untraced
            bare = MT4G(SimulatedGPU.from_preset(preset, seed=0)).discover(
                validate=True
            )
            assert to_json(report) == to_json(bare)

    def test_profile_never_lands_in_stored_entry(self, tmp_path):
        from repro.cache.store import DiscoveryCache

        plain_store = DiscoveryCache(tmp_path / "plain")
        MT4G(SimulatedGPU.from_preset(PRESET, seed=0), cache=plain_store).discover()
        store = DiscoveryCache(tmp_path / "traced")
        report, _ = _traced_discovery(
            MT4G(SimulatedGPU.from_preset(PRESET, seed=0), cache=store)
        )
        key = report.meta["cache"]["key"]
        assert store.get_blob(key) == plain_store.get_blob(key)
        # a traced cache hit is one restore phase, and reads without
        # touching the stored bytes
        hit, spans = _traced_discovery(
            MT4G(SimulatedGPU.from_preset(PRESET, seed=0), cache=store)
        )
        assert hit.meta["cache"]["status"] == "hit"
        rows = fold(spans)["rows"]
        assert ("cache", "restore") in {(r["element"], r["phase"]) for r in rows}
        assert sum(r.get("runs", 0) for r in rows) == 0
        assert store.get_blob(key) == plain_store.get_blob(key)

    def test_render_is_a_table(self, capsys, tmp_path, monkeypatch):
        from repro.core.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["--gpu", PRESET, "--no-cache", "-q", "--profile"]) == 0
        lines = capsys.readouterr().err.splitlines()
        head = next(i for i, l in enumerate(lines) if l.startswith("discovery profile:"))
        wall = float(re.search(r"([\d.]+)s wall", lines[head]).group(1))
        header = lines[head + 1].split()
        assert header[:3] == ["element", "phase", "self_s"]
        rows = [dict(zip(header, line.split())) for line in lines[head + 2 :]]
        assert {("L1", "size_sweep"), ("mt4g.discover", "(self)")} <= {
            (r["element"], r["phase"]) for r in rows
        }
        assert sum(float(r["self_s"]) for r in rows) == pytest.approx(wall, rel=0.02)

    def test_cli_profile_flag_keeps_stdout_identical(self, capsys, tmp_path, monkeypatch):
        from repro.core.cli import main

        monkeypatch.chdir(tmp_path)  # bare -j also writes <GPU>.json here
        assert main(["--gpu", PRESET, "--no-cache", "-j"]) == 0
        plain = capsys.readouterr()
        assert main(["--gpu", PRESET, "--no-cache", "-j", "--profile"]) == 0
        profiled_run = capsys.readouterr()
        assert profiled_run.out == plain.out  # report bytes unchanged
        assert "discovery profile:" in profiled_run.err


# ---------------------------------------------------------------------- #
# service-level tracing                                                   #
# ---------------------------------------------------------------------- #


def make_service(store, executor, **kw):
    kw.setdefault("max_workers", 2)
    return TopologyService(store, executor=executor, **kw)


class TestServiceTracing:
    def test_request_id_and_traceparent_on_every_response(
        self, tmp_path, executor
    ):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor, trace=True)
        response = asyncio.run(
            get(service, "/healthz", headers={"traceparent": TRACEPARENT})
        )
        assert response.headers["X-MT4G-Request-Id"] == TRACE_ID
        emitted = parse_traceparent(response.headers["traceparent"])
        assert emitted is not None and emitted[0] == TRACE_ID
        # no incoming header: a fresh trace id is minted per request
        fresh = asyncio.run(get(service, "/healthz"))
        assert re.fullmatch(r"[0-9a-f]{32}", fresh.headers["X-MT4G-Request-Id"])
        assert fresh.headers["X-MT4G-Request-Id"] != TRACE_ID

    def test_tracing_disabled_means_no_headers_and_404(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor)  # trace off (default)
        response = asyncio.run(
            get(service, "/healthz", headers={"traceparent": TRACEPARENT})
        )
        assert "X-MT4G-Request-Id" not in response.headers
        assert "traceparent" not in response.headers
        listing = asyncio.run(get(service, "/traces"))
        assert listing.status == 404
        single = asyncio.run(get(service, f"/traces/{TRACE_ID}"))
        assert single.status == 404

    def test_cold_discovery_is_one_trace_with_job_and_worker_spans(
        self, tmp_path, executor
    ):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor, trace=True)

        async def scenario():
            first = await get(
                service,
                f"/devices/{PRESET}/report",
                {"seed": "0"},
                {"traceparent": TRACEPARENT},
            )
            detail = await get(service, f"/traces/{TRACE_ID}")
            return first, detail

        first, detail = asyncio.run(scenario())
        assert first.status == 200
        assert first.body == cli_bytes()
        payload = json.loads(detail.body)
        names = {s["name"] for s in payload["spans"]}
        assert {"GET /devices/{preset}/report", "job.run",
                "worker.discover", "worker.attempt", "tier.read"} <= names
        by_name = {s["name"]: s for s in payload["spans"]}
        # parentage: request root <- job.run <- worker.discover
        root = by_name["GET /devices/{preset}/report"]
        job = by_name["job.run"]
        worker = by_name["worker.discover"]
        assert root["parent_id"] == PARENT_ID
        assert job["parent_id"] == root["span_id"]
        assert worker["parent_id"] == job["span_id"]
        assert by_name["worker.attempt"]["parent_id"] == worker["span_id"]
        assert job["attrs"]["outcome"] == "done"
        # the worker's discovery phases are spans of the same trace,
        # hanging from worker.discover, and fold into its self-time table
        phases = [s for s in payload["spans"] if s["name"] == "discover.phase"]
        assert phases
        top = [s for s in phases if s["parent_id"] == worker["span_id"]]
        assert {("L1", "measure"), ("general", "api_query")} <= {
            (s["attrs"]["element"], s["attrs"]["phase"]) for s in top
        }
        worker_spans = [
            s for s in payload["spans"]
            if s["name"] in ("discover.phase", "worker.discover")
        ]
        table = fold(worker_spans)
        assert table["root"] == "worker.discover"
        assert sum(r.get("runs", 0) for r in table["rows"]) > 0
        assert "profile" not in job["attrs"]

    def test_coalesced_requests_record_their_own_span(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor, trace=True)

        async def scenario():
            return await asyncio.gather(
                *(
                    get(service, f"/devices/{PRESET}/report", {"seed": "0"},
                        {"traceparent": TRACEPARENT})
                    for _ in range(4)
                )
            )

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [200] * 4
        assert service.jobs.coalesced == 3
        spans = service.tracer.spans(TRACE_ID)
        assert sum(1 for s in spans if s["name"] == "job.coalesced") == 3

    def test_traces_listing(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor, trace=True)

        async def scenario():
            await get(service, "/healthz", headers={"traceparent": TRACEPARENT})
            return await get(service, "/traces")

        listing = asyncio.run(scenario())
        payload = json.loads(listing.body)
        assert payload["schema"] == "mt4g-repro-traces/1"
        assert payload["count"] >= 1
        assert payload["traces"][0]["trace_id"]
        assert payload["stats"]["spans_recorded"] >= 1

    def test_bad_trace_id_is_400(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor, trace=True)
        response = asyncio.run(get(service, "/traces/nope"))
        assert response.status == 400

    def test_unknown_trace_id_is_404(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor, trace=True)
        response = asyncio.run(get(service, f"/traces/{'9' * 32}"))
        assert response.status == 404

    def test_served_bytes_identical_with_all_obs_enabled(
        self, tmp_path, executor
    ):
        stream = io.StringIO()
        store = build_worker_cache(tmp_path / "a")
        service = make_service(
            store,
            executor,
            trace=True,
            trace_slow_ms=0.0,  # log every trace as slow
            log_format="json",
            log_stream=stream,
            hot_cache_bytes=1 << 20,
        )

        async def scenario():
            first = await get(
                service, f"/devices/{PRESET}/report", {"seed": "0"},
                {"traceparent": TRACEPARENT},
            )
            warm = await get(service, f"/devices/{PRESET}/report", {"seed": "0"})
            return first, warm

        first, warm = asyncio.run(scenario())
        assert first.body == warm.body == cli_bytes()

    def test_hot_cache_lookup_span(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(
            store, executor, trace=True, hot_cache_bytes=1 << 20
        )

        async def scenario():
            await get(service, f"/devices/{PRESET}/report", {"seed": "0"},
                      {"traceparent": TRACEPARENT})
            await get(service, f"/devices/{PRESET}/report", {"seed": "0"},
                      {"traceparent": TRACEPARENT})

        asyncio.run(scenario())
        spans = [
            s for s in service.tracer.spans(TRACE_ID)
            if s["name"] == "hotcache.lookup"
        ]
        outcomes = [s["attrs"]["outcome"] for s in spans]
        assert "miss" in outcomes and "hit" in outcomes


# ---------------------------------------------------------------------- #
# zero cost when off                                                      #
# ---------------------------------------------------------------------- #


class TestDisabledPathAllocations:
    def _obs_allocations(self, op) -> list:
        tracemalloc.start()
        try:
            op()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        return snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/*")]
        ).statistics("filename")

    def test_hot_cache_get_allocates_nothing_in_obs(self):
        from repro.serve.hotcache import HotReportCache

        cache = HotReportCache(max_bytes=1 << 20)
        cache.put("k" * 64, "report:json", b"{}", "application/json")
        assert CURRENT.get() is None  # tracing off

        def op():
            for _ in range(200):
                cache.get("k" * 64, "report:json")
                cache.get("m" * 64, "report:json")

        assert self._obs_allocations(op) == []

    def test_store_read_allocates_nothing_in_obs(self, tmp_path):
        from repro.cache.store import DiscoveryCache

        store = DiscoveryCache(tmp_path / "cache")
        MT4G(SimulatedGPU.from_preset(PRESET, seed=0), cache=store).discover()
        keys = [key for key, _payload in store.entries()]

        def op():
            for _ in range(20):
                store.get(keys[0])

        assert self._obs_allocations(op) == []

    def test_untraced_submit_allocates_nothing_in_obs(self, tmp_path, executor):
        store = build_worker_cache(tmp_path / "a")
        service = make_service(store, executor)  # trace off

        async def scenario():
            await get(service, f"/devices/{PRESET}/report", {"seed": "0"})
            tracemalloc.start()
            try:
                await get(service, f"/devices/{PRESET}/report", {"seed": "0"})
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            return snapshot

        snapshot = asyncio.run(scenario())
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/repro/obs/*")]
        ).statistics("filename")
        assert stats == []


# ---------------------------------------------------------------------- #
# cross-instance trace propagation                                        #
# ---------------------------------------------------------------------- #


class TestCrossInstanceTracing:
    def test_proxied_cold_discovery_is_one_trace_across_the_ring(
        self, tmp_path, executor
    ):
        # The acceptance criterion: a cold request on a non-owner
        # instance proxies the discovery to the ring owner, and the
        # *entry* instance's GET /traces/{id} shows one trace id
        # spanning both instances — the replica's request and proxy
        # spans plus the owner's /store/{key}?discover=1 handler span.
        store_a = build_worker_cache(tmp_path / "a")
        store_b = build_worker_cache(tmp_path / "b")

        async def scenario():
            a = TopologyService(store_a, executor=executor, max_workers=2, trace=True)
            b = TopologyService(store_b, executor=executor, max_workers=2, trace=True)
            host_a, port_a = await a.start(port=0)
            host_b, port_b = await b.start(port=0)
            url_a, url_b = f"http://{host_a}:{port_a}", f"http://{host_b}:{port_b}"
            ring_a = HashRing(url_a, [url_b])
            a.attach_ring(ring_a, peer_timeout=30.0)
            b.attach_ring(HashRing(url_b, [url_a]), peer_timeout=30.0)
            # a seed whose key instance A owns, requested via instance B
            from tests.test_replication import seed_owned_by

            seed = seed_owned_by(ring_a, a, url_a)
            try:
                response = await get(
                    b,
                    f"/devices/{PRESET}/report",
                    {"seed": str(seed)},
                    {"traceparent": TRACEPARENT},
                )
                merged = await get(b, f"/traces/{TRACE_ID}")
                local_only = await get(b, f"/traces/{TRACE_ID}", {"local": "1"})
            finally:
                await a.stop()
                await b.stop()
            return a, b, seed, response, merged, local_only

        a, b, seed, response, merged, local_only = asyncio.run(scenario())
        assert response.status == 200
        assert b.jobs.peer_fetches == 1
        assert a.jobs.discoveries_started == 1

        payload = json.loads(merged.body)
        assert payload["trace_id"] == TRACE_ID
        names = {s["name"] for s in payload["spans"]}
        # the replica's side of the trace...
        assert {"GET /devices/{preset}/report", "job.run",
                "worker.proxy_fetch", "proxy.attempt"} <= names
        # ...and the owner's side, continued through the HTTP hop: its
        # /store/{key}?discover=1 handler root plus its own discovery.
        assert "GET /store/{key}" in names
        assert "worker.discover" in names
        # every span shares the one trace id
        assert {s["trace_id"] for s in payload["spans"]} == {TRACE_ID}
        # the owner recorded its spans in its *own* ring under the same id
        assert any(
            s["name"] == "GET /store/{key}" for s in a.tracer.spans(TRACE_ID)
        )
        # ?local=1 suppresses the peer merge: strictly fewer spans
        local_payload = json.loads(local_only.body)
        assert local_payload["span_count"] < payload["span_count"]
        assert "GET /store/{key}" not in {
            s["name"] for s in local_payload["spans"]
        }
