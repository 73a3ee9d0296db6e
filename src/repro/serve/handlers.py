"""HTTP route handlers of the topology query service.

The endpoint surface (responses are keep-alive-framed — bounded
``Content-Length`` bodies, ``Connection`` negotiated by the transport):

* ``GET /healthz`` — liveness + store shape;
* ``GET /metrics`` — hit/miss/inflight/latency counters, per tier when
  the store is tiered; JSON by default, Prometheus text format via
  ``?format=prometheus`` or ``Accept: text/plain``;
* ``GET /store/{key}`` — the raw wrapped entry blob under a
  content-addressed key, **local tiers only** (a peer asking us must
  never trigger our own peer fetch — that is what keeps the replication
  graph loop-free); ``?discover=1&preset=…`` additionally asks this
  instance to produce a cold entry through its single-flight queue (the
  cross-instance stampede-protection hop, pinned local so proxy chains
  terminate after one hop);
* ``GET /devices`` — the catalog, filterable
  (``?vendor=NVIDIA&verdict=pass`` …);
* ``GET /devices/{preset}/report`` — one cached report, with format
  negotiation over the three existing writers (``?format=json|markdown|
  csv`` or an ``Accept`` header); JSON is byte-identical to the CLI's
  ``mt4g --no-cache -j`` output for the same (preset, config, seed),
  because the store archives reports *before* per-run cache provenance
  is attached — served bytes are content, not run history.  A warm
  request is served from the :class:`~repro.serve.hotcache.
  HotReportCache` — the pre-rendered response bytes per (report key,
  format), no unpickle and no re-render — when the service enables it;
  byte-identity holds either way because keys are content-addressed;
* ``GET /compare?presets=a,b,…`` — the fleet comparison matrix plus the
  fleet judge's cross-device verdict over cached reports;
* ``GET /diff/{a}/{b}`` — the structural drift diff of two reports;
  ``?view=graph`` re-keys the same per-attribute tolerance
  classification onto canonical graph node ids;
* ``GET /graph/{preset}`` — the canonical topology graph of one cached
  report (``?format=json|dot`` or ``Accept: text/vnd.graphviz``); the
  JSON bytes equal ``mt4g graph`` for the same (preset, seed), because
  the graph is a pure function of report content;
* ``GET /graph?group=vendor|microarchitecture`` — the whole catalog as
  one fleet graph, devices under grouping nodes;
* ``POST /discover`` — enqueue a discovery (single-flight), 202 + job;
* ``GET /jobs/{id}`` — job status.

Cold keys behave uniformly: with discovery enabled the request rides the
single-flight queue (N concurrent cold requests → one measurement) and
responds when the entry lands; in read-only mode (``--no-discover``)
a cold key is served from the ring peers when a ring is attached (the
store's peer tier pulls it, the job queue proxies the discovery), and
only a replica with nowhere to go answers 404 — a *structured* 404
(``{"error", "status", "key", "read_only"}``) so the peer tier on the
other side can tell "cold" from "will never have it".
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.output import csv_out, json_out, markdown
from repro.core.report import TopologyReport
from repro.errors import ReproError
from repro.gpuspec.presets import get_preset
from repro.graph import FLEET_GROUPINGS, build_fleet_graph, build_graph, to_dot, to_graph_json
from repro.obs.trace import CURRENT
from repro.serve.diff import diff_reports
from repro.validate.fleet import FleetEntry, FleetResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.server import TopologyService

__all__ = [
    "HTTPError",
    "HTTPRequest",
    "HTTPResponse",
    "dispatch",
    "error_response",
    "json_response",
    "route_label",
]

#: format name -> (renderer, content type); the three writers the CLI
#: already ships, reused verbatim so a served report and a written file
#: never drift apart.
_REPORT_FORMATS = {
    "json": (lambda r: json_out.to_json(r) + "\n", json_out.CONTENT_TYPE),
    "markdown": (markdown.to_markdown, markdown.CONTENT_TYPE),
    "csv": (csv_out.to_csv, csv_out.CONTENT_TYPE),
}
_FORMAT_ALIASES = {"md": "markdown", "prom": "prometheus", "graphviz": "dot"}
_ACCEPT_TO_FORMAT = {
    json_out.CONTENT_TYPE: "json",
    markdown.CONTENT_TYPE: "markdown",
    csv_out.CONTENT_TYPE: "csv",
    # what Prometheus scrapers send; only /metrics lists this format as
    # supported, so other endpoints still 406 on a text/plain Accept.
    "text/plain": "prometheus",
    # Graphviz renderers; only the /graph endpoints support it.
    "text/vnd.graphviz": "dot",
    "*/*": "json",
}

#: Prometheus exposition content type (text format 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Graphviz DOT content type (the IANA-registered vnd tree name).
DOT_CONTENT_TYPE = "text/vnd.graphviz; charset=utf-8"

_STORE_KEY = re.compile(r"^[0-9a-f]{64}$")


class HTTPError(Exception):
    """A handler-level failure with an HTTP status.

    ``retry_after`` (seconds) marks a *temporary* condition — it becomes
    a ``Retry-After`` header so well-behaved clients back off instead of
    hammering a key whose circuit breaker is open.

    ``extra`` keys are folded into the JSON error body — how a 404 tells
    a fetching peer *which* key is missing and whether this instance is
    read-only (i.e. will never produce it on its own).
    """

    def __init__(
        self,
        status: int,
        detail: str,
        retry_after: float | None = None,
        extra: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.retry_after = retry_after
        self.extra = extra


@dataclass
class HTTPRequest:
    """One parsed request (transport-independent: tests build these)."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: protocol version off the request line — keep-alive defaults
    #: differ between HTTP/1.1 (persist) and HTTP/1.0 (close).
    version: str = "HTTP/1.1"

    @property
    def parts(self) -> list[str]:
        return [p for p in self.path.split("/") if p]


@dataclass
class HTTPResponse:
    """One response; the server layer wires it onto the socket."""

    status: int = 200
    body: bytes = b""
    content_type: str = json_out.CONTENT_TYPE
    #: extra response headers (``Retry-After``, ``X-MT4G-Stale`` …).
    headers: dict[str, str] = field(default_factory=dict)

    _REASONS = {
        200: "OK",
        202: "Accepted",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        406: "Not Acceptable",
        413: "Payload Too Large",
        500: "Internal Server Error",
        502: "Bad Gateway",
        503: "Service Unavailable",
    }

    @property
    def reason(self) -> str:
        return self._REASONS.get(self.status, "Unknown")

    def encode(self, close: bool = True) -> bytes:
        """The response's wire bytes; ``close`` picks the Connection
        header (the transport decides — per-connection state lives
        there, not on the response)."""
        extra = "".join(f"{k}: {v}\r\n" for k, v in self.headers.items())
        head = (
            f"HTTP/1.1 {self.status} {self.reason}\r\n"
            f"Content-Type: {self.content_type}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            f"{extra}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        )
        return head.encode("ascii") + self.body


def json_response(payload: Any, status: int = 200) -> HTTPResponse:
    body = json.dumps(json_out.to_jsonable(payload), indent=2) + "\n"
    return HTTPResponse(status=status, body=body.encode("utf-8"))


def error_response(
    status: int,
    detail: str,
    retry_after: float | None = None,
    extra: dict[str, Any] | None = None,
) -> HTTPResponse:
    body: dict[str, Any] = {"error": detail, "status": status}
    if extra:
        body.update(extra)
    response = json_response(body, status=status)
    if retry_after is not None:
        # ceil — "retry after 0 seconds" would invite an immediate
        # re-request into a still-open breaker window.
        response.headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
    return response


def route_label(request: HTTPRequest) -> str:
    """The metrics bucket for a request: its route *template*.

    Raw paths would explode the metrics cardinality (every preset its
    own bucket) — requests aggregate under the endpoint shape instead.
    """
    parts = request.parts
    if len(parts) == 3 and parts[0] == "devices" and parts[2] == "report":
        return f"{request.method} /devices/{{preset}}/report"
    if len(parts) == 3 and parts[0] == "diff":
        return f"{request.method} /diff/{{a}}/{{b}}"
    if len(parts) == 2 and parts[0] == "graph":
        return f"{request.method} /graph/{{preset}}"
    if len(parts) == 2 and parts[0] == "jobs":
        return f"{request.method} /jobs/{{id}}"
    if len(parts) == 2 and parts[0] == "store":
        return f"{request.method} /store/{{key}}"
    if len(parts) == 2 and parts[0] == "traces":
        return f"{request.method} /traces/{{id}}"
    if len(parts) == 1:
        return f"{request.method} /{parts[0]}"
    return f"{request.method} <unmatched>"


# ---------------------------------------------------------------------- #
# shared helpers                                                          #
# ---------------------------------------------------------------------- #


def _seed_param(request: HTTPRequest, name: str, default: int = 0) -> int:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        seed = int(raw)
    except ValueError:
        raise HTTPError(400, f"query parameter {name!r} must be an integer") from None
    return _checked_seed(seed, name)


def _checked_seed(seed: int, name: str = "seed") -> int:
    # Range-checked here so a client typo is a 400, not a numpy
    # ValueError escaping as a 500 (the alerting bucket in /metrics).
    if seed < 0:
        raise HTTPError(400, f"{name!r} must be a non-negative integer")
    return seed


def _bool_param(request: HTTPRequest, name: str, default: bool = False) -> bool:
    raw = request.query.get(name)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise HTTPError(400, f"query parameter {name!r} must be a boolean")


def negotiate_format(request: HTTPRequest, supported=("json", "markdown", "csv")) -> str:
    """Response format from ``?format=`` (wins) or the Accept header."""
    raw = request.query.get("format")
    if raw is not None:
        fmt = _FORMAT_ALIASES.get(raw.lower(), raw.lower())
        if fmt not in supported:
            raise HTTPError(
                406, f"unsupported format {raw!r}; supported: {', '.join(supported)}"
            )
        return fmt
    accept = request.headers.get("accept", "")
    for clause in accept.split(","):
        mime = clause.partition(";")[0].strip().lower()
        fmt = _ACCEPT_TO_FORMAT.get(mime)
        if fmt in supported:
            return fmt
    if accept.strip():
        # an explicit Accept that matches none of our types is a 406;
        # an absent header defaults to JSON.
        raise HTTPError(406, f"no supported media type in Accept: {accept!r}")
    return supported[0]


def _known_preset(name: str) -> str:
    try:
        get_preset(name)
    except ReproError as exc:
        raise HTTPError(404, str(exc)) from None
    return name


def _report_key(
    service: "TopologyService", preset: str, seed: int, validate: bool
) -> str:
    """The content-addressed key these request parameters resolve to.

    An unknown preset surfaces as the same 404 :func:`_known_preset`
    raises — key derivation validates the preset as a side effect, so
    hot-cache lookups need no separate existence check.
    """
    try:
        return service.jobs.report_key(preset, seed, validate)
    except ReproError as exc:
        raise HTTPError(404, str(exc)) from None


def _off_loop(service: "TopologyService", fn, *args, pool: str = "default"):
    """``run_in_executor`` that counts busy threads and carries the span
    context along.

    Every off-loop call a handler makes goes through here, on the loop's
    default pool or (``pool="store_reads"``) the service's own
    ``store_reads`` pool.  While ``fn`` runs, the pool's
    ``busy_threads`` gauge counts it, so a pool whose every thread is
    blocked shows in ``/metrics`` instead of stalling silently.  (The
    job queue's fire-and-forget sidecar writes also use the default
    pool and are not counted.)

    ``loop.run_in_executor`` does not copy contextvars into the worker
    thread, so without the hand-over the store/tier spans recorded
    under an off-loop read would silently detach from their request
    trace.
    """
    executor = service.store_reads if pool == "store_reads" else None
    metrics = service.metrics
    ctx = CURRENT.get()

    def call():
        metrics.count("busy_threads", pool)
        token = None if ctx is None else CURRENT.set(ctx)
        try:
            return fn(*args)
        finally:
            if token is not None:
                CURRENT.reset(token)
            metrics.count("busy_threads", pool, -1)

    return asyncio.get_running_loop().run_in_executor(executor, call)


async def _load_report(
    service: "TopologyService",
    preset: str,
    seed: int,
    validate: bool,
    allow_stale: bool = False,
    key: str | None = None,
) -> tuple[TopologyReport, bool]:
    """The cached report for (preset, config, seed) — discovering on a
    miss through the single-flight queue unless the service is read-only.
    Returns ``(report, stale)``; ``stale`` is True only when
    ``allow_stale`` let a failed discovery fall back to the last
    known-good report for the same key (marked ``X-MT4G-Stale`` upstream).

    A discovery that fails with no fallback is a 503 with a
    ``Retry-After`` hint (the key's breaker/memo window) — temporary by
    taxonomy, unlike the 500s below, which are store corruption.

    Every call unpickles a fresh report object, so handlers may mutate
    (the fleet judge recalibrates confidences in place) without
    poisoning later requests.
    """
    if key is None:
        _known_preset(preset)
        key = service.jobs.report_key(preset, seed, validate)
    # store.get unpickles a whole report from disk (and, on a tiered
    # store, may fall through memory → disk → peer fetch) — off the loop
    # thread so a slow disk or peer never stalls every other connection.
    payload = await _off_loop(service, service.store.get, key)
    if payload is None:
        if service.read_only and not service.can_proxy(key):
            # A replica with no peer to lean on: the structured 404 the
            # peer tier parses — key + read_only tell the fetching side
            # this instance will never produce the entry by itself.
            raise HTTPError(
                404,
                f"no cached report for {preset} (seed {seed}, "
                f"validate={validate}) and discovery is disabled "
                "(read-only mode)",
                extra={"key": key, "read_only": True, "preset": preset},
            )
        job = service.jobs.submit(preset, seed=seed, validate=validate)
        await service.jobs.wait(job)
        if job.status == "error":
            if allow_stale:
                stale = service.last_good(key)
                if stale is not None:
                    service.metrics.count("stale_served")
                    return stale, True
            raise HTTPError(
                503,
                f"discovery failed for {preset}: {job.error}",
                retry_after=job.retry_after or service.jobs.breaker.failure_ttl,
            )
        payload = await _off_loop(service, service.store.get, key)
        if payload is None:
            raise HTTPError(
                500,
                f"discovery for {preset} completed but the store entry is "
                "missing (pruned or unwritable store?)",
            )
    report = payload.get("report") if isinstance(payload, dict) else None
    if not isinstance(report, TopologyReport):
        raise HTTPError(500, f"cache entry for {preset} holds no report payload")
    if allow_stale:
        # Only routes that may serve a stale report pay for keeping one.
        service.remember_good(key, report)
    return report, False


# ---------------------------------------------------------------------- #
# endpoints                                                               #
# ---------------------------------------------------------------------- #


async def handle_healthz(service: "TopologyService") -> HTTPResponse:
    # entry_count globs the whole entries/ tree — off the loop thread,
    # because liveness probes are the highest-frequency caller; the
    # catalog's short-TTL snapshot means repeated polls don't re-walk
    # the cache directory at all.
    entries = await _off_loop(service, service.catalog.entry_count)
    # "degraded" is still a 200 — the service is alive and serving what
    # it can; the reasons tell an operator (or orchestrator) why some
    # keys are currently failing fast.
    reasons = []
    open_breakers = service.jobs.open_breakers()
    if open_breakers:
        reasons.append(f"{len(open_breakers)} discovery circuit breaker(s) open")
    if service.jobs.executor_broken:
        reasons.append("discovery executor broken (worker process died)")
    payload: dict[str, Any] = {
        "status": "degraded" if reasons else "ok",
        "read_only": service.read_only,
        "store": str(service.store.root),
        "entries": entries,
        "inflight": service.jobs.inflight,
    }
    if reasons:
        payload["degraded_reasons"] = reasons
    return json_response(payload)


def handle_metrics(service: "TopologyService", request: HTTPRequest) -> HTTPResponse:
    fmt = negotiate_format(request, supported=("json", "prometheus"))
    snapshot = service.metrics.snapshot(
        store=service.store,
        jobs=service.jobs,
        hot_cache=service.hot_cache,
        tracer=service.tracer,
    )
    if fmt == "prometheus":
        from repro.serve.metrics import to_prometheus

        return HTTPResponse(
            body=to_prometheus(snapshot).encode("utf-8"),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )
    return json_response(snapshot)


_TRACE_ID = re.compile(r"^[0-9a-f]{32}$")


def _require_tracer(service: "TopologyService"):
    if service.tracer is None:
        raise HTTPError(
            404, "tracing is disabled (start the service with --trace)"
        )
    return service.tracer


def handle_traces(service: "TopologyService", request: HTTPRequest) -> HTTPResponse:
    tracer = _require_tracer(service)
    negotiate_format(request, supported=("json",))
    summaries = tracer.summaries()
    return json_response(
        {
            "schema": "mt4g-repro-traces/1",
            "count": len(summaries),
            "stats": tracer.stats(),
            "traces": summaries,
        }
    )


def _peer_trace_spans(node: str, trace_id: str) -> list[dict]:
    """Best-effort fetch of one peer's spans for a trace (blocking)."""
    import urllib.error
    import urllib.request

    url = f"{node}/traces/{trace_id}?local=1"
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, headers={"Accept": "application/json"}),
            timeout=2.0,
        ) as resp:
            payload = json.loads(resp.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return []
    spans = payload.get("spans")
    return spans if isinstance(spans, list) else []


async def handle_trace(
    service: "TopologyService", request: HTTPRequest, trace_id: str
) -> HTTPResponse:
    """One trace's spans — fleet-assembled unless ``?local=1``.

    A proxied cold request leaves spans on every instance it crossed;
    the entry instance answers for the whole trace by merging its ring
    peers' ``?local=1`` views (best-effort: a dead peer just contributes
    nothing), deduplicated by span id.
    """
    tracer = _require_tracer(service)
    negotiate_format(request, supported=("json",))
    trace_id = trace_id.lower()
    if not _TRACE_ID.match(trace_id):
        raise HTTPError(400, f"not a trace id: {trace_id!r}")
    spans = tracer.spans(trace_id)
    local_only = _bool_param(request, "local")
    if not local_only and service.ring is not None:
        peers = [n for n in service.ring.nodes if n != service.ring.self_node]
        fetched = await asyncio.gather(
            *(_off_loop(service, _peer_trace_spans, node, trace_id) for node in peers)
        )
        seen = {span.get("span_id") for span in spans}
        for extra in fetched:
            for span in extra:
                if span.get("span_id") not in seen:
                    seen.add(span.get("span_id"))
                    spans.append(span)
    if not spans:
        raise HTTPError(404, f"no trace {trace_id} in the ring buffer")
    spans.sort(key=lambda s: s.get("start_ms", 0))
    return json_response(
        {
            "schema": "mt4g-repro-traces/1",
            "trace_id": trace_id,
            "span_count": len(spans),
            "spans": spans,
        }
    )


async def handle_store(
    service: "TopologyService", request: HTTPRequest, key: str
) -> HTTPResponse:
    """Serve the raw wrapped entry blob under ``key`` (peer replication).

    Lookup is pinned to **local tiers** (``peer=False``): if this
    instance does not hold the entry, the answer is a structured 404 —
    never a fetch from a third instance, so replication requests cannot
    chain A → B → C (or loop back to A).

    ``?discover=1&preset=…&seed=…&validate=…`` is the proxy hop: a
    non-owner asks us (the ring owner) to *produce* a cold entry.  The
    job is submitted ``force_local`` and rides this instance's
    single-flight queue, so N proxy hops + M direct requests for one key
    still coalesce into exactly one discovery here.  The preset triple
    must re-derive the requested key — a mismatch is the client's bug
    and a 400, not a discovery of something else.

    Local reads run on the service's own ``store_reads`` pool: the
    default pool's threads may all be blocked in peer fetches that are
    waiting for exactly this answer.
    """
    if not _STORE_KEY.match(key):
        raise HTTPError(400, f"not a content-addressed store key: {key!r}")
    read_local = service.store.get_blob
    blob = await _off_loop(service, read_local, key, False, pool="store_reads")
    if blob is None and _bool_param(request, "discover"):
        if service.read_only:
            raise HTTPError(
                404,
                f"no store entry {key[:12]}… and discovery is disabled "
                "(read-only mode)",
                extra={"key": key, "read_only": True},
            )
        preset = request.query.get("preset")
        if not preset:
            raise HTTPError(400, "store discovery needs ?preset=…")
        _known_preset(preset)
        seed = _seed_param(request, "seed")
        validate = _bool_param(request, "validate")
        expected = service.jobs.report_key(preset, seed, validate)
        if expected != key:
            raise HTTPError(
                400,
                f"key {key[:12]}… does not match preset={preset} "
                f"seed={seed} validate={validate}",
            )
        job = service.jobs.submit(preset, seed=seed, validate=validate, force_local=True)
        await service.jobs.wait(job)
        if job.status == "error":
            raise HTTPError(
                503,
                f"discovery failed for {preset}: {job.error}",
                retry_after=job.retry_after or service.jobs.breaker.failure_ttl,
            )
        blob = await _off_loop(service, read_local, key, False, pool="store_reads")
    if blob is None:
        raise HTTPError(
            404,
            f"no store entry {key[:12]}…",
            extra={"key": key, "read_only": service.read_only},
        )
    return HTTPResponse(body=blob, content_type="application/octet-stream")


async def handle_devices(
    service: "TopologyService", request: HTTPRequest
) -> HTTPResponse:
    # The catalog renders JSON only, but ?format= must still negotiate
    # (406 on csv/markdown) instead of silently returning the wrong type.
    negotiate_format(request, supported=("json",))
    filters = {k: v for k, v in request.query.items() if k != "format"}
    try:
        # Catalog enumeration unpickles every store entry (O(store)
        # disk work) — run it off the event loop.
        entries = await _off_loop(service, lambda: service.catalog.entries(**filters))
    except ValueError as exc:
        raise HTTPError(400, str(exc)) from None
    return json_response(
        {
            "schema": "mt4g-repro-catalog/1",
            "count": len(entries),
            "devices": [e.as_dict() for e in entries],
        }
    )


async def handle_report(
    service: "TopologyService", request: HTTPRequest, preset: str
) -> HTTPResponse:
    fmt = negotiate_format(request)
    seed = _seed_param(request, "seed")
    validate = _bool_param(request, "validate")
    hot = service.hot_cache
    key = _report_key(service, preset, seed, validate) if hot is not None else None
    if hot is not None:
        cached = hot.get(key, f"report:{fmt}")
        if cached is not None:
            # The warm path: pre-rendered bytes, no store read, no
            # renderer — byte-identical by content-addressing.
            body, content_type = cached
            return HTTPResponse(body=body, content_type=content_type)
    report, stale = await _load_report(
        service, preset, seed, validate, allow_stale=True, key=key
    )
    render, content_type = _REPORT_FORMATS[fmt]
    body = render(report).encode("utf-8")
    if hot is not None and not stale:
        # Stale fallbacks are never cached: staleness must be
        # re-evaluated (and re-marked) on every request.
        hot.put(key, f"report:{fmt}", body, content_type)
    response = HTTPResponse(body=body, content_type=content_type)
    if stale:
        # The bytes are a previously-served known-good report, not the
        # (currently failing) discovery — staleness is never silent.
        response.headers["X-MT4G-Stale"] = "true"
    return response


async def handle_compare(
    service: "TopologyService", request: HTTPRequest
) -> HTTPResponse:
    fmt = negotiate_format(request, supported=("json", "markdown"))
    raw = request.query.get("presets", "")
    presets = [p for p in (s.strip() for s in raw.split(",")) if p]
    if len(presets) < 2:
        raise HTTPError(400, "compare needs ?presets=a,b[,c…] (two or more)")
    if len(set(presets)) != len(presets):
        raise HTTPError(400, f"duplicate preset(s) in compare: {sorted(presets)}")
    seed = _seed_param(request, "seed")
    validate = _bool_param(request, "validate")
    start = time.perf_counter()
    # No stale fallback here: a comparison mixing one stale and one fresh
    # report would silently judge an inconsistent fleet.
    loaded = await asyncio.gather(
        *(_load_report(service, p, seed, validate) for p in presets)
    )
    reports = [report for report, _ in loaded]

    def build_and_judge() -> FleetResult:
        # Sidecar read + the CPU-bound fleet judge, off the loop thread.
        walls = service.store.recorded_walls()
        result = FleetResult(
            entries=[
                FleetEntry(
                    preset=p, seed=seed, report=r, wall_seconds=walls.get(p, 0.0)
                )
                for p, r in zip(presets, reports)
            ],
            jobs=0,  # served from the store, not a worker pool
            total_wall_seconds=time.perf_counter() - start,
            seed=seed,
        )
        result.validate()  # the PR-3 cross-device judge
        return result

    result = await _off_loop(service, build_and_judge)
    if fmt == "markdown":
        return HTTPResponse(
            body=result.to_markdown().encode("utf-8"),
            content_type=markdown.CONTENT_TYPE,
        )
    return json_response(
        {
            "schema": "mt4g-repro-compare/1",
            "seed": seed,
            "presets": presets,
            "matrix": result.comparison_matrix(),
            "fleet_validation": result.validation.as_dict(),
        }
    )


async def handle_diff(
    service: "TopologyService", request: HTTPRequest, a: str, b: str
) -> HTTPResponse:
    view = request.query.get("view", "flat")
    if view not in ("flat", "graph"):
        raise HTTPError(400, f"unknown diff view {view!r}; supported: flat, graph")
    # The graph view is a JSON-only re-keying of the classification —
    # negotiating markdown against it would silently drop the node ids.
    supported = ("json",) if view == "graph" else ("json", "markdown")
    fmt = negotiate_format(request, supported=supported)
    seed = _seed_param(request, "seed")
    seed_a = _seed_param(request, "seed_a", seed)
    seed_b = _seed_param(request, "seed_b", seed)
    validate = _bool_param(request, "validate")
    (report_a, _), (report_b, _) = await asyncio.gather(
        _load_report(service, a, seed_a, validate),
        _load_report(service, b, seed_b, validate),
    )
    diff = diff_reports(
        report_a,
        report_b,
        a_label=f"{a}@seed{seed_a}",
        b_label=f"{b}@seed{seed_b}",
    )
    if view == "graph":
        return json_response(diff.to_graph_view())
    if fmt == "markdown":
        return HTTPResponse(
            body=diff.to_markdown().encode("utf-8"),
            content_type=markdown.CONTENT_TYPE,
        )
    return json_response(diff.as_dict())


def _graph_response(graph, fmt: str) -> HTTPResponse:
    """Render one graph; JSON bytes match the CLI's ``mt4g graph`` output
    (canonical rendering + one trailing newline) so CI can ``cmp`` them."""
    if fmt == "dot":
        return HTTPResponse(
            body=(to_dot(graph) + "\n").encode("utf-8"),
            content_type=DOT_CONTENT_TYPE,
        )
    return HTTPResponse(
        body=(to_graph_json(graph) + "\n").encode("utf-8"),
        content_type=json_out.CONTENT_TYPE,
    )


async def handle_graph(
    service: "TopologyService", request: HTTPRequest, preset: str
) -> HTTPResponse:
    """The canonical topology graph of one cached report.

    No stale fallback: the contract is byte-identity with the CLI for
    the same (preset, seed), and silently rendering yesterday's report
    as today's graph would break exactly that.
    """
    fmt = negotiate_format(request, supported=("json", "dot"))
    seed = _seed_param(request, "seed")
    validate = _bool_param(request, "validate")
    hot = service.hot_cache
    key = _report_key(service, preset, seed, validate) if hot is not None else None
    if hot is not None:
        cached = hot.get(key, f"graph:{fmt}")
        if cached is not None:
            body, content_type = cached
            return HTTPResponse(body=body, content_type=content_type)
    report, _ = await _load_report(service, preset, seed, validate, key=key)
    response = _graph_response(build_graph(report), fmt)
    if hot is not None:
        hot.put(key, f"graph:{fmt}", response.body, response.content_type)
    return response


async def handle_fleet_graph(
    service: "TopologyService", request: HTTPRequest
) -> HTTPResponse:
    """The whole catalog as one fleet graph (``?group=…`` picks the axis)."""
    fmt = negotiate_format(request, supported=("json", "dot"))
    group = request.query.get("group", "vendor")
    if group not in FLEET_GROUPINGS:
        raise HTTPError(
            400,
            f"unknown grouping {group!r}; supported: {', '.join(FLEET_GROUPINGS)}",
        )
    # Catalog enumeration unpickles every store entry — off the loop.
    entries = await _off_loop(service, service.catalog.entries)
    return _graph_response(build_fleet_graph(entries, group=group), fmt)


def handle_discover(service: "TopologyService", request: HTTPRequest) -> HTTPResponse:
    if service.read_only:
        raise HTTPError(405, "discovery is disabled (read-only mode)")
    try:
        payload = json.loads(request.body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HTTPError(400, f"request body is not JSON: {exc}") from None
    if not isinstance(payload, dict) or "preset" not in payload:
        raise HTTPError(400, 'discover body must be {"preset": …[, "seed", "validate"]}')
    preset = _known_preset(str(payload["preset"]))
    seed = payload.get("seed", 0)
    validate = payload.get("validate", False)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise HTTPError(400, '"seed" must be an integer')
    _checked_seed(seed)
    if not isinstance(validate, bool):
        raise HTTPError(400, '"validate" must be a boolean')
    job = service.jobs.submit(preset, seed=seed, validate=validate)
    return json_response(job.as_dict(), status=202)


def handle_job(service: "TopologyService", job_id: str) -> HTTPResponse:
    job = service.jobs.get(job_id)
    if job is None:
        raise HTTPError(404, f"no job {job_id!r}")
    return json_response(job.as_dict())


async def dispatch(service: "TopologyService", request: HTTPRequest) -> HTTPResponse:
    """Route one request; raises :class:`HTTPError` for client errors."""
    parts = request.parts
    if request.method == "GET":
        if parts == ["healthz"]:
            return await handle_healthz(service)
        if parts == ["metrics"]:
            return handle_metrics(service, request)
        if parts == ["traces"]:
            return handle_traces(service, request)
        if len(parts) == 2 and parts[0] == "traces":
            return await handle_trace(service, request, parts[1])
        if parts == ["devices"]:
            return await handle_devices(service, request)
        if len(parts) == 3 and parts[0] == "devices" and parts[2] == "report":
            return await handle_report(service, request, parts[1])
        if parts == ["compare"]:
            return await handle_compare(service, request)
        if len(parts) == 3 and parts[0] == "diff":
            return await handle_diff(service, request, parts[1], parts[2])
        if parts == ["graph"]:
            return await handle_fleet_graph(service, request)
        if len(parts) == 2 and parts[0] == "graph":
            return await handle_graph(service, request, parts[1])
        if len(parts) == 2 and parts[0] == "jobs":
            return handle_job(service, parts[1])
        if len(parts) == 2 and parts[0] == "store":
            return await handle_store(service, request, parts[1])
    elif request.method == "POST":
        if parts == ["discover"]:
            return handle_discover(service, request)
    elif request.method in ("HEAD", "PUT", "DELETE", "PATCH"):
        raise HTTPError(405, f"method {request.method} not supported")
    raise HTTPError(404, f"no route for {request.method} {request.path}")
