"""Tests for cross-instance replication (ring + peer tier + proxy jobs).

The contracts that make a serving *fleet* honest:

* a report pulled from a peer is byte-identical to the CLI's uncached
  output — replication moves wrapped blobs, never re-encodes;
* N concurrent cold requests across two instances coalesce into exactly
  one discovery, on the key's ring owner;
* a cold read on a replica with no peer to lean on is a *structured*
  404 (key + read_only) the fetching side can parse;
* a dead owner degrades to a local discovery (counted in
  ``peer_fallbacks``), never to an error response;
* ``GET /metrics`` negotiates Prometheus text exposition.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import MT4G, SimulatedGPU
from repro.cache.ring import HashRing
from repro.cache.tiers import build_worker_cache
from repro.core.output.json_out import to_json
from repro.faults.retry import RetryPolicy
from repro.serve import HTTPRequest, TopologyService

PRESET = "TestGPU-NV"

#: One fast attempt per peer: these tests point at dead ports on
#: purpose and must not sit out backoff sleeps.
FAST_RETRY = RetryPolicy(attempts=1, base_delay=0.001, max_delay=0.01)


@pytest.fixture
def executor():
    ex = ThreadPoolExecutor(max_workers=4)
    yield ex
    ex.shutdown(wait=True)


def tiered(tmp_path, name):
    return build_worker_cache(tmp_path / name)


def warm(store, preset=PRESET, seed=0):
    device = SimulatedGPU.from_preset(preset, seed=seed)
    return MT4G(device, cache=store).discover()


def cli_bytes(preset=PRESET, seed=0) -> bytes:
    report = MT4G(SimulatedGPU.from_preset(preset, seed=seed)).discover()
    return (to_json(report) + "\n").encode()


def get(service, path, query=None, headers=None):
    return service.handle_request(
        HTTPRequest("GET", path, query=query or {}, headers=headers or {})
    )


def seed_owned_by(ring: HashRing, service, node: str, preset=PRESET) -> int:
    """A seed whose report key the given ring member owns."""
    for seed in range(64):
        if ring.owner(service.jobs.report_key(preset, seed, False)) == node:
            return seed
    raise AssertionError(f"no seed in range owned by {node}")


# ---------------------------------------------------------------------- #
# two live instances                                                      #
# ---------------------------------------------------------------------- #


class TestTwoInstances:
    def test_replica_pulls_miss_from_peer_byte_identically(self, tmp_path, executor):
        store_a = tiered(tmp_path, "a")
        store_b = tiered(tmp_path, "b")

        async def scenario():
            a = TopologyService(store_a, executor=executor, max_workers=2)
            # Hot cache off: the second read must reach the tier stack.
            b = TopologyService(
                store_b, read_only=True, executor=executor, max_workers=2,
                hot_cache_bytes=0,
            )
            host_a, port_a = await a.start(port=0)
            host_b, port_b = await b.start(port=0)
            url_a, url_b = f"http://{host_a}:{port_a}", f"http://{host_b}:{port_b}"
            a.attach_ring(HashRing(url_a, [url_b]))
            b.attach_ring(HashRing(url_b, [url_a]))
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, warm, store_a)
            try:
                first = await get(b, f"/devices/{PRESET}/report", {"seed": "0"})
                second = await get(b, f"/devices/{PRESET}/report", {"seed": "0"})
            finally:
                await a.stop()
                await b.stop()
            return b, first, second

        b, first, second = asyncio.run(scenario())
        assert first.status == second.status == 200
        # The replication invariant: bytes served through memory, disk
        # and the peer hop are the CLI's uncached bytes.
        assert first.body == second.body == cli_bytes()
        # No discovery happened anywhere near the replica...
        assert b.jobs.discoveries_started == 0
        assert b.jobs.peer_fetches == 0  # a tier fetch, not a proxy job
        # ...the peer tier pulled it, and promotion landed it locally.
        tiers = store_b.stats()["tiers"]
        assert tiers["peer"]["hits"] == 1
        assert store_b.store.entry_count() == 1
        # The second read never left the instance (memory tier hit).
        assert tiers["memory"]["hits"] == 1
        assert tiers["peer"]["misses"] == 0

    def test_concurrent_cold_requests_coalesce_on_the_ring_owner(
        self, tmp_path, executor
    ):
        # The acceptance criterion: cold requests landing on *both*
        # instances produce exactly one discovery, on the key's owner.
        store_a = tiered(tmp_path, "a")
        store_b = tiered(tmp_path, "b")

        async def scenario():
            a = TopologyService(store_a, executor=executor, max_workers=2)
            b = TopologyService(store_b, executor=executor, max_workers=2)
            host_a, port_a = await a.start(port=0)
            host_b, port_b = await b.start(port=0)
            url_a, url_b = f"http://{host_a}:{port_a}", f"http://{host_b}:{port_b}"
            ring_a = HashRing(url_a, [url_b])
            a.attach_ring(ring_a, peer_timeout=30.0)
            b.attach_ring(HashRing(url_b, [url_a]), peer_timeout=30.0)
            seed = seed_owned_by(ring_a, a, url_a)
            query = {"seed": str(seed)}
            try:
                responses = await asyncio.gather(
                    *(
                        get(svc, f"/devices/{PRESET}/report", query)
                        for svc in (a, b, a, b, a, b)
                    )
                )
            finally:
                await a.stop()
                await b.stop()
            return a, b, seed, responses

        started = time.perf_counter()
        a, b, seed, responses = asyncio.run(scenario())
        # Healthy peers answer in milliseconds: a burst that waits out the
        # 30 s peer timeout means the /store reads starved.
        assert time.perf_counter() - started < 10.0
        assert [r.status for r in responses] == [200] * 6
        assert len({r.body for r in responses}) == 1
        assert responses[0].body == cli_bytes(seed=seed)
        # Exactly one discovery fleet-wide, on the owner.
        assert a.jobs.discoveries_started == 1
        assert b.jobs.discoveries_started == 0
        # The non-owner proxied (one coalesced job covering its three
        # requests) instead of discovering.
        assert b.jobs.peer_fetches == 1
        assert b.jobs.coalesced == 2
        assert b.jobs.peer_fallbacks == 0
        # Both stores hold the entry now (the proxy landed its fetch).
        assert store_a.store.entry_count() == 1
        assert store_b.store.entry_count() == 1


# ---------------------------------------------------------------------- #
# degraded fleets                                                         #
# ---------------------------------------------------------------------- #


class TestDegradedFleet:
    def test_dead_owner_falls_back_to_local_discovery(self, tmp_path, executor):
        # The ring says a dead instance owns the key; a writable
        # instance must degrade to discovering locally, not to a 503.
        store = tiered(tmp_path, "a")
        service = TopologyService(store, executor=executor, max_workers=2)
        ring = HashRing("http://127.0.0.1:9", ["http://127.0.0.1:1"])
        service.attach_ring(ring, peer_retry=FAST_RETRY, peer_timeout=0.3)
        seed = seed_owned_by(ring, service, "http://127.0.0.1:1")

        response = asyncio.run(
            get(service, f"/devices/{PRESET}/report", {"seed": str(seed)})
        )
        assert response.status == 200
        assert response.body == cli_bytes(seed=seed)
        assert service.jobs.peer_fetches == 1  # the proxy was attempted
        assert service.jobs.peer_fallbacks == 1  # ...and fell back
        assert service.jobs.discoveries_started == 1
        assert service.jobs.discoveries_failed == 0  # degradation, not failure

    def test_read_only_cold_miss_is_a_structured_404(self, tmp_path, executor):
        # No ring: a lone replica cannot proxy, so the 404 must carry
        # the machine-readable fields the peer tier parses.
        store = tiered(tmp_path, "a")
        service = TopologyService(
            store, read_only=True, executor=executor, max_workers=2
        )
        response = asyncio.run(get(service, f"/devices/{PRESET}/report"))
        assert response.status == 404
        body = json.loads(response.body)
        assert body["read_only"] is True
        assert body["preset"] == PRESET
        assert body["key"] == service.jobs.report_key(PRESET, 0, False)
        assert body["status"] == 404


# ---------------------------------------------------------------------- #
# the /store/{key} route                                                  #
# ---------------------------------------------------------------------- #


class TestStoreRoute:
    def test_serves_the_raw_wrapped_blob(self, tmp_path, executor):
        store = tiered(tmp_path, "a")
        warm(store)
        service = TopologyService(store, executor=executor, max_workers=2)
        key = service.jobs.report_key(PRESET, 0, False)

        response = asyncio.run(get(service, f"/store/{key}"))
        assert response.status == 200
        assert response.content_type == "application/octet-stream"
        assert response.body == store.get_blob(key)

    def test_malformed_and_absent_keys(self, tmp_path, executor):
        store = tiered(tmp_path, "a")
        service = TopologyService(store, executor=executor, max_workers=2)
        absent = "ab" * 32

        async def scenario():
            bad = await get(service, "/store/zz")
            missing = await get(service, f"/store/{absent}")
            return bad, missing

        bad, missing = asyncio.run(scenario())
        assert bad.status == 400
        assert missing.status == 404
        body = json.loads(missing.body)
        assert body["key"] == absent and body["read_only"] is False

    def test_discover_param_produces_the_entry_single_flight(
        self, tmp_path, executor
    ):
        store = tiered(tmp_path, "a")
        service = TopologyService(store, executor=executor, max_workers=2)
        key = service.jobs.report_key(PRESET, 3, False)

        async def scenario():
            mismatch = await get(
                service, f"/store/{key}", {"discover": "1", "preset": PRESET}
            )  # seed defaults to 0: wrong key for seed 3
            produced = await get(
                service,
                f"/store/{key}",
                {"discover": "1", "preset": PRESET, "seed": "3"},
            )
            return mismatch, produced

        mismatch, produced = asyncio.run(scenario())
        assert mismatch.status == 400
        assert produced.status == 200
        assert service.jobs.discoveries_started == 1
        assert store.get_blob(key) == produced.body

    def test_discover_rejected_read_only(self, tmp_path, executor):
        store = tiered(tmp_path, "a")
        service = TopologyService(
            store, read_only=True, executor=executor, max_workers=2
        )
        key = service.jobs.report_key(PRESET, 0, False)
        response = asyncio.run(
            get(service, f"/store/{key}", {"discover": "1", "preset": PRESET})
        )
        assert response.status == 404
        body = json.loads(response.body)
        assert body["key"] == key and body["read_only"] is True

    def test_lookup_is_local_only_never_a_peer_chain(self, tmp_path, executor):
        # /store is what peers call — it must answer from local tiers
        # only, or A -> B -> C fetch chains (and loops) become possible.
        store = tiered(tmp_path, "a")
        service = TopologyService(store, executor=executor, max_workers=2)
        service.attach_ring(
            HashRing("http://127.0.0.1:9", ["http://127.0.0.1:1"]),
            peer_retry=FAST_RETRY,
            peer_timeout=0.3,
        )
        response = asyncio.run(get(service, f"/store/{'ab' * 32}"))
        assert response.status == 404
        assert store.stats()["tiers"]["peer"]["misses"] == 0  # never consulted


# ---------------------------------------------------------------------- #
# Prometheus exposition                                                   #
# ---------------------------------------------------------------------- #


class TestPrometheusMetrics:
    def _warmed_service(self, tmp_path, executor):
        store = tiered(tmp_path, "a")
        warm(store)
        return TopologyService(store, read_only=True, executor=executor)

    def test_format_param_renders_text_exposition(self, tmp_path, executor):
        service = self._warmed_service(tmp_path, executor)

        async def scenario():
            await get(service, f"/devices/{PRESET}/report")
            return await get(service, "/metrics", {"format": "prometheus"})

        response = asyncio.run(scenario())
        assert response.status == 200
        assert response.content_type.startswith("text/plain; version=0.0.4")
        text = response.body.decode()
        assert "# TYPE mt4g_http_requests_total counter" in text
        assert "# TYPE mt4g_uptime_seconds gauge" in text
        assert 'mt4g_http_route_requests_total{route="GET /devices/{preset}/report"} 1' in text
        # Per-tier counters from the tiered store are labelled families
        # (warm() landed the entry in memory too, so the read hit there).
        assert 'mt4g_store_tier_hits_total{tier="memory"} 1' in text
        assert 'mt4g_store_tier_stores_total{tier="disk"} 1' in text
        assert "mt4g_jobs_peer_fetches_total 0" in text
        # Every sample line its TYPE line promised parses as name{...} value.
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                assert name and float(value) >= 0

    def test_accept_header_negotiates_and_json_is_default(
        self, tmp_path, executor
    ):
        service = self._warmed_service(tmp_path, executor)

        async def scenario():
            via_accept = await get(
                service, "/metrics", headers={"accept": "text/plain"}
            )
            default = await get(service, "/metrics")
            return via_accept, default

        via_accept, default = asyncio.run(scenario())
        assert via_accept.content_type.startswith("text/plain")
        assert b"mt4g_uptime_seconds" in via_accept.body
        snapshot = json.loads(default.body)
        assert snapshot["schema"] == "mt4g-repro-metrics/1"
        assert "tiers" in snapshot["store"]
        assert snapshot["jobs"]["peer_fetches"] == 0
