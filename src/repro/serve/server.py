"""The asyncio topology query service (stdlib only, no new deps).

:class:`TopologyService` ties the serving pieces together — the shared
:class:`~repro.cache.DiscoveryCache`, the :class:`DeviceCatalog`, the
single-flight :class:`JobQueue`, the :class:`HotReportCache` and the
:class:`ServiceMetrics` — behind a deliberately small HTTP/1.1
implementation on asyncio streams.

The transport speaks **persistent HTTP/1.1**: one connection serves many
requests (``Connection: keep-alive``), which is what makes the warm path
as fast as the hardware allows — a hot request costs one buffered read,
a dict lookup in the render cache, and one write, with no TCP handshake
amortised across it.  Framing is kept safe by construction:

* bodies are ``Content-Length``-bounded (no chunked uploads) and capped
  at :data:`MAX_BODY_BYTES` — an oversized declaration is a ``413`` and
  the connection closes, because the body was never drained;
* pipelined requests arriving in one TCP segment are simply buffered in
  the :class:`~asyncio.StreamReader` — the read loop consumes them one
  request at a time, responses in request order;
* an idle keep-alive connection is reaped after ``keep_alive_timeout``
  seconds (counted, never erred — idleness is normal client behaviour);
* at most ``max_requests_per_connection`` requests are served per
  connection, then the response carries ``Connection: close`` — a bound
  on how long one socket can pin a connection task;
* a client ``Connection: close`` (or an HTTP/1.0 request without
  ``keep-alive``) is honored: the response says ``close`` and means it;
* malformed requests (bad request line, header floods, truncated or
  oversized bodies) are answered with ``Connection: close`` and the
  socket drops — after a framing error the byte stream is unparseable
  by definition, so reuse would serve garbage.

Setting ``keep_alive_timeout=0`` restores the PR-5 one-request-per-
connection behaviour (the measured baseline in ``BENCH_serve.json``).

The transport and the routing are separable on purpose:
:meth:`TopologyService.handle_request` takes an
:class:`~repro.serve.handlers.HTTPRequest` and returns the response
without any socket involved, which is how most tests (and embedders)
drive the service.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import urllib.parse
from concurrent.futures import Executor, ThreadPoolExecutor
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.cache import codec
from repro.cache.keys import SCHEMA_VERSION
from repro.cache.lru import LRU
from repro.cache.ring import HashRing
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import (
    DEFAULT_PEER_RETRY,
    DEFAULT_PEER_TIMEOUT,
    PeerTier,
    build_worker_cache,
)
from repro.core.report import TopologyReport
from repro.faults.retry import RetryPolicy
from repro.obs.accesslog import AccessLog
from repro.obs.trace import CURRENT, Tracer, format_traceparent
from repro.serve.catalog import DeviceCatalog
from repro.serve.handlers import (
    HTTPError,
    HTTPRequest,
    HTTPResponse,
    dispatch,
    error_response,
    route_label,
)
from repro.serve.hotcache import DEFAULT_HOT_CACHE_BYTES, HotReportCache
from repro.serve.jobs import POOL_MODE, JobQueue
from repro.serve.metrics import ServiceMetrics

__all__ = ["TopologyService", "run_service"]

#: Bound on request bodies (POST /discover payloads are tiny).
MAX_BODY_BYTES = 1 << 20
#: Bound on header lines: a client streaming endless headers (each
#: arriving inside the per-read timeout) must not pin a connection.
MAX_HEADER_LINES = 100
#: Per-read timeout: a stalled client must not pin a connection task.
READ_TIMEOUT_SECONDS = 30.0
#: How long an idle keep-alive connection is held open for its next
#: request before being reaped.  0 disables keep-alive entirely.
KEEP_ALIVE_TIMEOUT_SECONDS = 60.0
#: Requests served per connection before the server closes it — bounds
#: how long one socket can monopolise a connection task.
MAX_REQUESTS_PER_CONNECTION = 1000
#: Seconds the ``/devices`` and ``/healthz`` catalog snapshot is reused
#: before the store is re-walked (a landed discovery invalidates it).
CATALOG_TTL_SECONDS = 2.0
#: Threads serving ``GET /store/{key}`` local reads.  They are the
#: service's own, so a peer's read never queues behind threads of the
#: default pool that sit blocked in outbound peer fetches.
STORE_READ_THREADS = 2


class _PayloadTooLarge(ValueError):
    """A Content-Length beyond :data:`MAX_BODY_BYTES` (→ HTTP 413)."""


class TopologyService:
    """The long-lived topology query service over one discovery store."""

    #: last-known-good reports retained for stale fallback (per report
    #: key, LRU-evicted) — a safety net, not a second cache.
    LAST_GOOD_MAX = 32

    def __init__(
        self,
        store: DiscoveryCache,
        read_only: bool = False,
        cache_config: str = "PreferL1",
        max_workers: int | None = None,
        executor: Executor | None = None,
        retry: RetryPolicy | None = None,
        deadline_seconds: float | None = None,
        failure_ttl: float = 15.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 60.0,
        prune_bytes: int | None = None,
        keep_alive_timeout: float = KEEP_ALIVE_TIMEOUT_SECONDS,
        max_requests_per_connection: int = MAX_REQUESTS_PER_CONNECTION,
        hot_cache_bytes: int = DEFAULT_HOT_CACHE_BYTES,
        catalog_ttl: float = CATALOG_TTL_SECONDS,
        pool_mode: str = POOL_MODE,
        trace: bool = False,
        trace_slow_ms: float | None = None,
        log_format: str | None = None,
        log_stream=None,
    ) -> None:
        self.store = store
        self.read_only = read_only
        #: 0 disables keep-alive (the PR-5 Connection: close behaviour).
        self.keep_alive_timeout = float(keep_alive_timeout)
        self.max_requests_per_connection = max(1, int(max_requests_per_connection))
        self.catalog = DeviceCatalog(store, ttl=catalog_ttl)
        self.jobs = JobQueue(
            store,
            cache_config=cache_config,
            max_workers=max_workers,
            executor=executor,
            retry=retry,
            deadline_seconds=deadline_seconds,
            failure_ttl=failure_ttl,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            proxy_only=read_only,
            prune_bytes=prune_bytes,
            pool_mode=pool_mode,
            on_entry_landed=self._entry_landed,
        )
        self.metrics = ServiceMetrics()
        #: per-service span ring (None = tracing off, the default; the
        #: request path then pays a single attribute check).  Per-service
        #: rather than module-global: replicated tests run two instances
        #: in one process, each with its own ring.
        self.tracer: Tracer | None = (
            Tracer(slow_ms=trace_slow_ms, log_stream=log_stream)
            if trace
            else None
        )
        self.jobs.tracer = self.tracer
        #: structured per-request access log (None = off, the default).
        self.access_log: AccessLog | None = (
            AccessLog(log_format, stream=log_stream) if log_format else None
        )
        #: pre-rendered response bytes per (report key, format) — the
        #: warm read path (a budget of 0 refuses every render).
        self.hot_cache = HotReportCache(hot_cache_bytes)
        #: consistent-hash membership; None until attach_ring() (post-
        #: bind, because the advertise URL may need the ephemeral port).
        self.ring: HashRing | None = None
        #: report key -> encoded last-good report (encoded so every
        #: fallback read decodes a fresh object, exactly like a store
        #: hit — handlers may mutate what they are given).
        self._last_good = LRU(max_entries=self.LAST_GOOD_MAX)
        #: the pool ``GET /store/{key}`` reads local tiers on.
        self.store_reads = ThreadPoolExecutor(
            STORE_READ_THREADS, thread_name_prefix="mt4g-store-read"
        )
        self._server: asyncio.AbstractServer | None = None
        #: (host, port) actually bound; port 0 resolves on start().
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------ #
    # store-write invalidation                                            #
    # ------------------------------------------------------------------ #

    def _entry_landed(self, key: str) -> None:
        """A discovery (or proxied fetch) landed ``key`` in the store.

        Keys are content-addressed, so rendered bytes for a key can
        never silently change — the invalidation is healing hygiene
        (a re-landed entry after store corruption repairs, not refreshes,
        the render) plus the catalog's cue that the device list grew.
        """
        self.hot_cache.invalidate(key)
        self.catalog.invalidate()

    # ------------------------------------------------------------------ #
    # last-known-good fallback                                            #
    # ------------------------------------------------------------------ #

    def remember_good(self, key: str, report: TopologyReport) -> None:
        self._last_good.put(key, codec.encode(key, report, SCHEMA_VERSION))

    def last_good(self, key: str) -> TopologyReport | None:
        blob = self._last_good.get(key)
        return None if blob is None else codec.decode(key, blob, SCHEMA_VERSION)

    # ------------------------------------------------------------------ #
    # ring membership (sharding + replication)                            #
    # ------------------------------------------------------------------ #

    def attach_ring(
        self,
        ring: HashRing,
        peer_retry: RetryPolicy | None = None,
        peer_timeout: float = DEFAULT_PEER_TIMEOUT,
    ) -> None:
        """Join a consistent-hash ring: route jobs, fetch misses.

        Wires the ring into both halves of the serving stack — the job
        queue (cold keys owned elsewhere become proxy jobs) and, when
        the store is tiered, a :class:`PeerTier` attached below disk (a
        local read miss falls through to the key's peers).  Called after
        :meth:`start` so a port-0 bind can advertise its real port.
        """
        self.ring = ring
        self.jobs.ring = ring
        self.jobs.peer_retry = peer_retry if peer_retry is not None else DEFAULT_PEER_RETRY
        self.jobs.peer_timeout = peer_timeout
        attach_peers = getattr(self.store, "attach_peers", None)
        if attach_peers is not None:
            attach_peers(
                PeerTier(
                    ring,
                    retry=self.jobs.peer_retry,
                    timeout=peer_timeout,
                    version=self.store.version,
                )
            )

    def can_proxy(self, key: str) -> bool:
        """True when a cold ``key`` has a peer that might produce it."""
        return self.ring is not None and self.ring.peer_target(key) is not None

    # ------------------------------------------------------------------ #
    # request handling (transport-independent)                            #
    # ------------------------------------------------------------------ #

    async def handle_request(self, request: HTTPRequest) -> HTTPResponse:
        """Dispatch one request; never raises — errors become responses.

        With tracing on, the whole dispatch runs under a root span
        context (continued from an incoming ``traceparent`` when one is
        sent) and every response carries ``X-MT4G-Request-Id`` and the
        outbound ``traceparent``.
        """
        start = perf_counter()
        tracer = self.tracer
        token = None
        if tracer is not None:
            ctx = tracer.begin(request.headers.get("traceparent"))
            token = CURRENT.set(ctx)
        try:
            response = await dispatch(self, request)
        except HTTPError as exc:
            response = error_response(exc.status, exc.detail, exc.retry_after, exc.extra)
        except Exception as exc:  # a handler bug must not kill the server
            response = error_response(500, str(exc) or type(exc).__name__)
        finally:
            if token is not None:
                CURRENT.reset(token)
        route = route_label(request)
        elapsed = perf_counter() - start
        self.metrics.observe(route, response.status, elapsed)
        if tracer is not None:
            tracer.finish_request(ctx, route, start, response.status, elapsed)
            response.headers["X-MT4G-Request-Id"] = ctx.trace_id
            response.headers["traceparent"] = format_traceparent(
                ctx.trace_id, ctx.span_id
            )
        return response

    # ------------------------------------------------------------------ #
    # transport                                                           #
    # ------------------------------------------------------------------ #

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start accepting connections; returns (host, port).

        With ``pool_mode="warm"`` on a writable instance the discovery
        pool is created and pre-warmed here — workers pay their import
        and tier-stack cost before the first cold request, not during it.
        """
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.jobs.pool_mode == "warm" and not self.read_only:
            # Read-only replicas only ever run cheap proxy fetches — a
            # pre-spawned process pool would be idle weight there.
            self.jobs.prewarm()
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.jobs.shutdown()
        self.store_reads.shutdown(wait=False)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection's request loop: read, dispatch, write, repeat.

        The loop ends when the client closes, asks to close, idles past
        the keep-alive window, exceeds the per-connection request cap,
        or sends something unparseable (framing errors always close —
        the stream position is unknowable afterwards).
        """
        metrics = self.metrics
        log = self.access_log
        metrics.count("connections", "accepted")
        served = 0
        try:
            while True:
                # The *first* request gets the ordinary read timeout; a
                # *reused* connection waits out the keep-alive window.
                first_read = (
                    READ_TIMEOUT_SECONDS
                    if served == 0
                    else max(self.keep_alive_timeout, 0.001)
                )
                try:
                    request = await _read_request(reader, first_read)
                except _PayloadTooLarge as exc:
                    # The body was never drained: the connection cannot
                    # be reused, and the client is told so explicitly.
                    metrics.count("bad_requests")
                    if log is not None:
                        log.event("bad_request", str(exc), status=413)
                    await self._write(writer, error_response(413, str(exc)), close=True)
                    return
                except TimeoutError:
                    if served:
                        # An idle keep-alive socket timing out is the
                        # normal end of a connection's life, not an error.
                        metrics.count("connections", "idle_reaped")
                        return
                    metrics.count("bad_requests")
                    if log is not None:
                        log.event("bad_request", "read timed out", status=400)
                    await self._write(
                        writer, error_response(400, "malformed HTTP request"), close=True
                    )
                    return
                except Exception as exc:
                    # Unparseable request line / headers / truncated
                    # body: one 400 with Connection: close — after a
                    # framing error the stream is garbage by definition.
                    metrics.count("bad_requests")
                    if log is not None:
                        log.event(
                            "bad_request",
                            str(exc) or type(exc).__name__,
                            status=400,
                        )
                    await self._write(
                        writer, error_response(400, "malformed HTTP request"), close=True
                    )
                    return
                if request is None:  # clean EOF between requests
                    return
                if served:
                    metrics.count("connections", "reused")
                served += 1
                request_start = perf_counter()
                response = await self.handle_request(request)
                if log is not None:
                    log.request(
                        method=request.method,
                        path=request.path,
                        route=route_label(request),
                        status=response.status,
                        duration_ms=(perf_counter() - request_start) * 1e3,
                        trace_id=response.headers.get("X-MT4G-Request-Id", ""),
                        reused=served > 1,
                    )
                close = (
                    self.keep_alive_timeout <= 0
                    or served >= self.max_requests_per_connection
                    or response.status >= 500
                    or _wants_close(request)
                )
                if not await self._write(writer, response, close=close) or close:
                    return
        finally:
            metrics.count("connections", "closed")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(
        self, writer: asyncio.StreamWriter, response: HTTPResponse, close: bool
    ) -> bool:
        """Write one response; False when the client went away mid-write.

        Write failures are *counted* (``connections.write_errors``) —
        a client hanging up mid-response is survivable, but a rate of
        them is a signal an operator needs to see in ``/metrics`` —
        and, when the access log is on, logged with their reason.
        """
        try:
            writer.write(response.encode(close=close))
            await writer.drain()
            return True
        except (ConnectionError, OSError) as exc:
            self.metrics.count("connections", "write_errors")
            if self.access_log is not None:
                self.access_log.event(
                    "write_error",
                    str(exc) or type(exc).__name__,
                    status=response.status,
                )
            return False


def _wants_close(request: HTTPRequest) -> bool:
    """Did the client ask for this to be the connection's last response?

    HTTP/1.1 defaults to keep-alive unless ``Connection: close``;
    HTTP/1.0 defaults to close unless ``Connection: keep-alive``.
    """
    tokens = {
        token.strip().lower()
        for token in request.headers.get("connection", "").split(",")
    }
    if request.version == "HTTP/1.0":
        return "keep-alive" not in tokens
    return "close" in tokens


async def _read_request(
    reader: asyncio.StreamReader,
    first_read_timeout: float = READ_TIMEOUT_SECONDS,
) -> HTTPRequest | None:
    """Parse one HTTP/1.1 request off the stream (or None on EOF).

    ``first_read_timeout`` bounds the wait for the *request line* — the
    keep-alive idle window on a reused connection; once a request has
    started arriving, the ordinary per-read timeout applies to headers
    and body so a trickling client cannot pin the connection task.
    """
    line = await asyncio.wait_for(reader.readline(), first_read_timeout)
    if not line.strip():
        return None
    method, target, version = line.decode("ascii").split()
    headers: dict[str, str] = {}
    header_lines = 0
    while True:
        raw = await asyncio.wait_for(reader.readline(), READ_TIMEOUT_SECONDS)
        if raw in (b"\r\n", b"\n", b""):
            break
        header_lines += 1
        if header_lines > MAX_HEADER_LINES:
            raise ValueError("too many header lines")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", "0") or "0")
    if length < 0:
        raise ValueError(f"unacceptable Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise _PayloadTooLarge(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )
    if length:
        body = await asyncio.wait_for(reader.readexactly(length), READ_TIMEOUT_SECONDS)
    path, _, query_string = target.partition("?")
    query = {
        # last value wins for repeated parameters — the API has no
        # list-valued parameters (compare takes a comma list).
        name: values[-1]
        for name, values in urllib.parse.parse_qs(
            query_string, keep_blank_values=True
        ).items()
    }
    return HTTPRequest(
        method=method.upper(),
        path=urllib.parse.unquote(path),
        query=query,
        headers=headers,
        body=body,
        version=version.upper(),
    )


async def run_service(
    cache_dir: str | Path,
    host: str = "127.0.0.1",
    port: int = 8734,
    quiet: bool = False,
    peers: "list[str] | None" = None,
    advertise: str | None = None,
    cache_limit: int | None = None,
    **service_kw: Any,
) -> None:
    """Run the service until cancelled (the ``mt4g serve`` entry point).

    The store is the standard tier stack: a memory LRU over disk.
    ``peers`` joins a consistent-hash ring with those instances and
    attaches them below disk — each must be started
    with the member list naming everyone else, and ``advertise`` is the
    URL *they* reach this instance under (default: the bound
    host:port).  ``cache_limit`` prunes the disk tier to that many
    bytes after every completed discovery.  ``service_kw`` goes to
    :class:`TopologyService` unchanged; its defaults are the production
    hot path (keep-alive, hot-report cache, catalog TTL, pre-warmed
    pool).
    """
    store = build_worker_cache(Path(cache_dir).expanduser())
    service = TopologyService(store, prune_bytes=cache_limit, **service_kw)
    bound_host, bound_port = await service.start(host, port)
    if peers:
        # After bind, so a port-0 instance advertises its real port.
        ring = HashRing(advertise or f"http://{bound_host}:{bound_port}", peers)
        service.attach_ring(ring)
    if not quiet:
        ring_note = (
            f", ring of {len(service.ring.nodes)}" if service.ring is not None else ""
        )
        keep_note = (
            f"keep-alive {service.keep_alive_timeout:g}s"
            if service.keep_alive_timeout > 0
            else "keep-alive off"
        )
        trace_note = ", tracing on" if service.tracer is not None else ""
        print(
            f"# mt4g serve listening on http://{bound_host}:{bound_port} "
            f"(store {service.store.root}"
            f"{', read-only' if service.read_only else ''}{ring_note}, {keep_note}"
            f"{trace_note})",
            file=sys.stderr,
            flush=True,
        )
    # SIGTERM ends the service the way Ctrl-C does: stop() shuts the
    # discovery pool down, so no worker outlives the server still holding
    # the listening socket it inherited.
    serving = asyncio.ensure_future(service.serve_forever())
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, serving.cancel)
    try:
        await serving
    except asyncio.CancelledError:
        if asyncio.current_task().cancelling():  # Ctrl-C: cancelled from above
            raise
    finally:
        await service.stop()
