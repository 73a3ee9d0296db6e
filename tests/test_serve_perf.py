"""Tests for the PR-9 serve hot path: keep-alive framing, the
hot-report render cache, the catalog TTL snapshot, and the persistent
pre-warmed worker pool.

The framing contracts that make connection reuse safe:

* pipelined requests arriving in one TCP segment are answered one by
  one, responses in request order;
* a request line or body split across reads is reassembled;
* an oversized Content-Length is a 413 with ``Connection: close`` (the
  body was never drained, so the stream cannot be reused);
* an idle keep-alive socket is reaped after the timeout — counted, not
  erred;
* a malformed second request on a reused connection gets a 400 and the
  connection closes.

And the optimisation contracts: hot-cache hits serve byte-identical
pre-rendered responses, store writes invalidate, the catalog snapshot
respects its TTL, and a broken warm pool respawns (and re-warms) once.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import BrokenExecutor, Future, ThreadPoolExecutor

import pytest

from repro import MT4G, DiscoveryCache, SimulatedGPU
from repro.core.output.json_out import to_json
from repro.serve import DeviceCatalog, HotReportCache, JobQueue, TopologyService
from repro.serve.jobs import _warm_worker

PRESET = "TestGPU-NV"


@pytest.fixture
def store(tmp_path) -> DiscoveryCache:
    return DiscoveryCache(tmp_path / "store")


@pytest.fixture
def executor():
    ex = ThreadPoolExecutor(max_workers=2)
    yield ex
    ex.shutdown(wait=True)


def warm(store, preset=PRESET, seed=0, validate=False):
    device = SimulatedGPU.from_preset(preset, seed=seed)
    return MT4G(device, cache=store).discover(validate=validate)


def make_service(store, executor, **kw) -> TopologyService:
    kw.setdefault("max_workers", 2)
    return TopologyService(store, executor=executor, **kw)


async def read_response(reader: asyncio.StreamReader) -> tuple[bytes, bytes]:
    """One framed (head, body) off a possibly-reused connection."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5.0)
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    body = await asyncio.wait_for(reader.readexactly(length), 5.0)
    return head, body


def request_bytes(path: str, close: bool = False, body: bytes = b"") -> bytes:
    head = f"GET {path} HTTP/1.1\r\nHost: x\r\n"
    if close:
        head += "Connection: close\r\n"
    if body:
        head = head.replace("GET", "POST", 1) + f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


# ---------------------------------------------------------------------- #
# keep-alive framing                                                      #
# ---------------------------------------------------------------------- #


class TestKeepAliveFraming:
    def run_connected(self, service, scenario):
        """Start the service, run ``scenario(reader, writer)``, stop."""

        async def runner():
            host, port = await service.start(port=0)
            reader, writer = await asyncio.open_connection(host, port)
            try:
                return await scenario(reader, writer)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await service.stop()

        return asyncio.run(runner())

    def test_connection_reuse_serves_many_requests(self, store, executor):
        warm(store)
        service = make_service(store, executor, read_only=True)

        async def scenario(reader, writer):
            bodies = []
            for _ in range(3):
                writer.write(request_bytes("/healthz"))
                await writer.drain()
                head, body = await read_response(reader)
                assert b"Connection: keep-alive" in head
                bodies.append(body)
            return bodies

        bodies = self.run_connected(service, scenario)
        assert all(json.loads(b)["status"] == "ok" for b in bodies)
        assert service.metrics.connections["accepted"] == 1
        assert service.metrics.connections["reused"] == 2

    def test_pipelined_requests_in_one_segment(self, store, executor):
        warm(store)
        service = make_service(store, executor, read_only=True)

        async def scenario(reader, writer):
            # Two complete requests in a single write: the reader
            # buffers the second while the first is handled.
            writer.write(
                request_bytes("/healthz")
                + request_bytes(f"/devices/{PRESET}/report?seed=0", close=True)
            )
            await writer.drain()
            first = await read_response(reader)
            second = await read_response(reader)
            return first, second

        (h1, b1), (h2, b2) = self.run_connected(service, scenario)
        assert h1.startswith(b"HTTP/1.1 200") and json.loads(b1)["status"] == "ok"
        assert h2.startswith(b"HTTP/1.1 200")
        cli = MT4G(SimulatedGPU.from_preset(PRESET, seed=0)).discover()
        assert b2 == (to_json(cli) + "\n").encode()
        assert b"Connection: close" in h2  # the client's close was honored
        assert service.metrics.connections["reused"] == 1

    def test_request_line_split_across_reads(self, store, executor):
        warm(store)
        service = make_service(store, executor, read_only=True)

        async def scenario(reader, writer):
            raw = request_bytes("/healthz", close=True)
            writer.write(raw[:7])  # mid-request-line
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(raw[7:])
            await writer.drain()
            return await read_response(reader)

        head, body = self.run_connected(service, scenario)
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body)["status"] == "ok"

    def test_body_split_across_reads(self, store, executor):
        service = make_service(store, executor)

        async def scenario(reader, writer):
            payload = json.dumps({"preset": PRESET, "seed": 0}).encode()
            raw = request_bytes("/discover", close=True, body=payload)
            split = len(raw) - 6  # mid-body
            writer.write(raw[:split])
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(raw[split:])
            await writer.drain()
            return await read_response(reader)

        head, body = self.run_connected(service, scenario)
        assert head.startswith(b"HTTP/1.1 202")
        assert json.loads(body)["preset"] == PRESET

    def test_oversized_body_is_413_and_closes(self, store, executor):
        from repro.serve import server as server_mod

        service = make_service(store, executor)

        async def scenario(reader, writer):
            writer.write(
                b"POST /discover HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {server_mod.MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            await writer.drain()
            head, body = await read_response(reader)
            eof = await asyncio.wait_for(reader.read(), 5.0)
            return head, body, eof

        head, body, eof = self.run_connected(service, scenario)
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        assert eof == b""  # the server really closed
        assert service.metrics.bad_requests == 1

    def test_idle_keep_alive_socket_is_reaped(self, store, executor):
        warm(store)
        service = make_service(
            store, executor, read_only=True, keep_alive_timeout=0.2
        )

        async def scenario(reader, writer):
            writer.write(request_bytes("/healthz"))
            await writer.drain()
            head, _ = await read_response(reader)
            assert b"Connection: keep-alive" in head
            # ...then go idle past the window: the server closes.
            eof = await asyncio.wait_for(reader.read(), 5.0)
            return eof

        eof = self.run_connected(service, scenario)
        assert eof == b""
        assert service.metrics.connections["idle_reaped"] == 1
        assert service.metrics.bad_requests == 0  # idleness is not an error

    def test_malformed_second_request_closes_with_400(self, store, executor):
        warm(store)
        service = make_service(store, executor, read_only=True)

        async def scenario(reader, writer):
            writer.write(request_bytes("/healthz"))
            await writer.drain()
            first, _ = await read_response(reader)
            writer.write(b"?????\r\n\r\n")
            await writer.drain()
            second, _ = await read_response(reader)
            eof = await asyncio.wait_for(reader.read(), 5.0)
            return first, second, eof

        first, second, eof = self.run_connected(service, scenario)
        assert first.startswith(b"HTTP/1.1 200")
        assert second.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in second
        assert eof == b""
        assert service.metrics.bad_requests == 1

    def test_request_cap_closes_the_connection(self, store, executor):
        warm(store)
        service = make_service(
            store, executor, read_only=True, max_requests_per_connection=2
        )

        async def scenario(reader, writer):
            writer.write(request_bytes("/healthz") + request_bytes("/healthz"))
            await writer.drain()
            h1, _ = await read_response(reader)
            h2, _ = await read_response(reader)
            eof = await asyncio.wait_for(reader.read(), 5.0)
            return h1, h2, eof

        h1, h2, eof = self.run_connected(service, scenario)
        assert b"Connection: keep-alive" in h1
        assert b"Connection: close" in h2  # the cap, announced honestly
        assert eof == b""

    def test_keep_alive_timeout_zero_restores_close_per_request(
        self, store, executor
    ):
        warm(store)
        service = make_service(
            store, executor, read_only=True, keep_alive_timeout=0
        )

        async def scenario(reader, writer):
            writer.write(request_bytes("/healthz"))
            await writer.drain()
            head, _ = await read_response(reader)
            eof = await asyncio.wait_for(reader.read(), 5.0)
            return head, eof

        head, eof = self.run_connected(service, scenario)
        assert b"Connection: close" in head
        assert eof == b""
        assert service.metrics.connections["reused"] == 0

    def test_http10_defaults_to_close(self, store, executor):
        warm(store)
        service = make_service(store, executor, read_only=True)

        async def scenario(reader, writer):
            writer.write(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            await writer.drain()
            head, _ = await read_response(reader)
            eof = await asyncio.wait_for(reader.read(), 5.0)
            return head, eof

        head, eof = self.run_connected(service, scenario)
        assert b"Connection: close" in head
        assert eof == b""

    def test_write_error_is_counted(self, store, executor):
        from repro.serve.handlers import HTTPResponse

        service = make_service(store, executor)

        class VanishedClient:
            def write(self, data):
                raise ConnectionResetError("client went away")

            async def drain(self):  # pragma: no cover - write raises first
                pass

        async def scenario():
            ok = await service._write(
                VanishedClient(), HTTPResponse(body=b"x"), close=True
            )
            return ok

        assert asyncio.run(scenario()) is False
        assert service.metrics.connections["write_errors"] == 1


# ---------------------------------------------------------------------- #
# hot-report render cache                                                 #
# ---------------------------------------------------------------------- #


class TestHotReportCache:
    def test_byte_budget_evicts_lru(self):
        cache = HotReportCache(max_bytes=100)
        cache.put("k1", "report:json", b"a" * 60, "application/json")
        cache.put("k2", "report:json", b"b" * 30, "application/json")
        cache.get("k1", "report:json")  # k1 is now most recent
        cache.put("k3", "report:json", b"c" * 30, "application/json")
        assert cache.get("k2", "report:json") is None  # LRU victim
        assert cache.get("k1", "report:json") is not None
        assert cache.evictions == 1

    def test_oversized_body_is_refused(self):
        cache = HotReportCache(max_bytes=10)
        assert cache.put("k", "report:json", b"x" * 11, "t") is False
        assert len(cache) == 0

    def test_invalidate_drops_every_format_of_a_key(self):
        cache = HotReportCache(max_bytes=1 << 20)
        cache.put("k", "report:json", b"{}", "application/json")
        cache.put("k", "report:markdown", b"# x", "text/markdown")
        cache.put("other", "report:json", b"{}", "application/json")
        assert cache.invalidate("k") == 2
        assert cache.get("k", "report:json") is None
        assert cache.get("other", "report:json") is not None

    def test_warm_report_is_served_from_the_hot_cache(self, store, executor):
        warm(store)
        service = make_service(
            store, executor, read_only=True, hot_cache_bytes=1 << 20
        )

        async def scenario():
            from repro.serve.handlers import HTTPRequest

            first = await service.handle_request(
                HTTPRequest("GET", f"/devices/{PRESET}/report")
            )
            second = await service.handle_request(
                HTTPRequest("GET", f"/devices/{PRESET}/report")
            )
            return first, second

        first, second = asyncio.run(scenario())
        assert first.status == second.status == 200
        assert first.body == second.body
        cli = MT4G(SimulatedGPU.from_preset(PRESET, seed=0)).discover()
        assert second.body == (to_json(cli) + "\n").encode()
        assert service.hot_cache.hits == 1
        assert service.hot_cache.stores >= 1
        # the hit skipped the store entirely: exactly one store read
        assert store.hits == 1

    def test_formats_are_cached_independently(self, store, executor):
        warm(store)
        service = make_service(
            store, executor, read_only=True, hot_cache_bytes=1 << 20
        )

        async def scenario():
            from repro.serve.handlers import HTTPRequest

            js = await service.handle_request(
                HTTPRequest("GET", f"/devices/{PRESET}/report")
            )
            md = await service.handle_request(
                HTTPRequest(
                    "GET", f"/devices/{PRESET}/report", query={"format": "markdown"}
                )
            )
            graph = await service.handle_request(
                HTTPRequest("GET", f"/graph/{PRESET}")
            )
            return js, md, graph

        js, md, graph = asyncio.run(scenario())
        assert js.content_type == "application/json"
        assert md.content_type == "text/markdown"
        assert graph.status == 200
        assert len(service.hot_cache) == 3

    def test_landed_entry_invalidates(self, store, executor):
        service = make_service(store, executor, hot_cache_bytes=1 << 20)
        key = service.jobs.report_key(PRESET, 0, False)
        # A stray render for this key (a different format, so the cold
        # request below cannot short-circuit on it): when the discovery
        # lands its entry, _entry_landed must sweep every format.
        service.hot_cache.put(key, "report:markdown", b"# stray", "text/markdown")

        async def scenario():
            from repro.serve.handlers import HTTPRequest

            return await service.handle_request(
                HTTPRequest("GET", f"/devices/{PRESET}/report")
            )

        cold = asyncio.run(scenario())
        assert cold.status == 200
        assert service.hot_cache.invalidations == 1  # the stray, swept
        assert service.hot_cache.get(key, "report:markdown") is None
        # the fresh render was cached *after* the invalidation
        assert service.hot_cache.get(key, "report:json") == (
            cold.body,
            "application/json",
        )


# ---------------------------------------------------------------------- #
# catalog TTL snapshot                                                    #
# ---------------------------------------------------------------------- #


class TestCatalogSnapshot:
    def test_ttl_zero_walks_every_call(self, store):
        warm(store)
        catalog = DeviceCatalog(store, ttl=0.0)
        assert len(catalog.entries()) == 1
        warm(store, "TestGPU-AMD")
        assert len(catalog.entries()) == 2  # no caching at all

    def test_snapshot_is_reused_within_the_ttl(self, store):
        clock = [0.0]
        warm(store)
        catalog = DeviceCatalog(store, ttl=5.0, clock=lambda: clock[0])
        assert len(catalog.entries()) == 1
        warm(store, "TestGPU-AMD")  # lands outside the catalog's view
        assert len(catalog.entries()) == 1  # still the snapshot
        clock[0] = 6.0  # TTL lapsed
        assert len(catalog.entries()) == 2

    def test_invalidate_drops_the_snapshot_immediately(self, store):
        warm(store)
        catalog = DeviceCatalog(store, ttl=60.0)
        assert len(catalog.entries()) == 1
        warm(store, "TestGPU-AMD")
        catalog.invalidate()  # what _entry_landed calls
        assert len(catalog.entries()) == 2

    def test_filters_apply_to_the_snapshot_afresh(self, store):
        warm(store, "TestGPU-NV")
        warm(store, "TestGPU-AMD")
        catalog = DeviceCatalog(store, ttl=60.0)
        assert len(catalog.entries()) == 2
        assert len(catalog.entries(vendor="NVIDIA")) == 1
        assert len(catalog.entries(vendor="AMD")) == 1

    def test_entry_count_is_cached_and_invalidated(self, store):
        clock = [0.0]
        warm(store)
        catalog = DeviceCatalog(store, ttl=5.0, clock=lambda: clock[0])
        assert catalog.entry_count() == 1
        warm(store, "TestGPU-AMD")
        assert catalog.entry_count() == 1  # cached
        catalog.invalidate()
        assert catalog.entry_count() == 2


# ---------------------------------------------------------------------- #
# persistent pre-warmed pool                                              #
# ---------------------------------------------------------------------- #


class _BrokenPool:
    """An executor whose every future fails like a dead process pool."""

    def __init__(self):
        self.submissions = 0

    def submit(self, fn, *args, **kwargs):
        self.submissions += 1
        future: Future = Future()
        future.set_exception(BrokenExecutor("pool died"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestWarmPool:
    def test_pool_mode_is_validated(self, store):
        with pytest.raises(ValueError, match="pool_mode"):
            JobQueue(store, pool_mode="tepid")

    def test_prewarm_runs_one_warmup_per_slot(self, store):
        queue = JobQueue(
            store,
            max_workers=2,
            pool_mode="warm",
            executor_factory=lambda: ThreadPoolExecutor(max_workers=2),
        )
        try:
            queue.prewarm()
            deadline = 50
            while queue.workers_warmed < 2 and deadline:
                import time

                time.sleep(0.02)
                deadline -= 1
            assert queue.workers_warmed == 2
        finally:
            queue.shutdown()

    def test_warm_worker_builds_the_tier_stack(self, store):
        import os

        assert _warm_worker(str(store.root)) == os.getpid()

    def test_broken_pool_respawns_once_and_rewarms(self, store, monkeypatch):
        pools = []

        def factory():
            pool = _BrokenPool() if not pools else ThreadPoolExecutor(max_workers=1)
            pools.append(pool)
            return pool

        async def scenario():
            # failure_ttl=0: the infrastructure failure must not gate
            # the retry behind the failure memo — this test is about the
            # pool respawning, not the memo window.
            queue = JobQueue(
                store,
                max_workers=1,
                pool_mode="warm",
                executor_factory=factory,
                failure_ttl=0.0,
            )
            broken = queue.submit(PRESET, seed=0)
            await asyncio.wait_for(queue.wait(broken), 5.0)
            assert broken.status == "error"
            assert broken.error_kind == "infrastructure"
            assert queue.executor_broken is True
            assert queue.pool_respawns == 1
            # next job builds the replacement pool, re-warms it, and runs
            retried = queue.submit(PRESET, seed=0)
            await asyncio.wait_for(queue.wait(retried), 30.0)
            assert retried.status == "done"
            assert queue.executor_broken is False
            assert queue.pool_respawns == 1  # one breakage, one respawn
            for _ in range(50):
                if queue.workers_warmed:
                    break
                await asyncio.sleep(0.02)
            assert queue.workers_warmed >= 1
            queue.shutdown()

        asyncio.run(scenario())
        assert len(pools) == 2
        for pool in pools[1:]:
            pool.shutdown(wait=True)

    def test_injected_executor_is_never_respawned(self, store, executor):
        queue = JobQueue(store, executor=executor, pool_mode="warm")
        queue._note_broken_pool()
        assert queue.executor_broken is True
        assert queue.pool_respawns == 0  # not ours to discard
        assert queue._executor is executor


# ---------------------------------------------------------------------- #
# report-key memo                                                         #
# ---------------------------------------------------------------------- #


class TestReportKeyMemo:
    def test_repeat_lookups_hit_the_memo(self, store, executor, monkeypatch):
        queue = JobQueue(store, executor=executor)
        derivations = []
        real = DiscoveryCache.report_key

        def counting(self, *args, **kwargs):
            derivations.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(DiscoveryCache, "report_key", counting)
        first = queue.report_key(PRESET, 0, False)
        again = queue.report_key(PRESET, 0, False)
        other = queue.report_key(PRESET, 1, False)
        assert first == again and first != other
        assert len(derivations) == 2  # one per distinct identity

    def test_unknown_preset_is_never_memoised(self, store, executor):
        from repro.errors import UnknownGPUError

        queue = JobQueue(store, executor=executor)
        for _ in range(2):
            with pytest.raises(UnknownGPUError):
                queue.report_key("NoSuchGPU", 0, False)
        assert len(queue._key_memo) == 0

    def test_memo_is_bounded(self, store, executor):
        queue = JobQueue(store, executor=executor)
        queue._key_memo.max_entries = 3
        for seed in range(6):
            queue.report_key(PRESET, seed, False)
        assert len(queue._key_memo) == 3


# ---------------------------------------------------------------------- #
# metrics exposure                                                        #
# ---------------------------------------------------------------------- #


class TestMetricsExposure:
    def test_snapshot_and_prometheus_carry_the_new_counters(
        self, store, executor
    ):
        from repro.serve.metrics import to_prometheus

        warm(store)
        service = make_service(
            store, executor, read_only=True, hot_cache_bytes=1 << 20
        )
        service.metrics.connections["accepted"] = 3
        service.metrics.connections["reused"] = 7
        service.metrics.connections["write_errors"] = 1

        async def scenario():
            from repro.serve.handlers import HTTPRequest

            await service.handle_request(
                HTTPRequest("GET", f"/devices/{PRESET}/report")
            )
            await service.handle_request(
                HTTPRequest("GET", f"/devices/{PRESET}/report")
            )
            return await service.handle_request(HTTPRequest("GET", "/metrics"))

        metrics = asyncio.run(scenario())
        payload = json.loads(metrics.body)
        connections = payload["http"]["connections"]
        assert connections["accepted"] == 3
        assert connections["reused"] == 7
        assert connections["write_errors"] == 1
        assert payload["hot_cache"]["hits"] == 1
        assert payload["jobs"]["pool_respawns"] == 0
        assert payload["jobs"]["workers_warmed"] == 0
        text = to_prometheus(payload)
        assert 'mt4g_http_connections_total{event="reused"} 7' in text
        assert "mt4g_http_connection_write_errors_total 1" in text
        assert "mt4g_hot_cache_hits_total 1" in text
        assert "mt4g_jobs_pool_respawns_total 0" in text
