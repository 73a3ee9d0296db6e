"""Tests for the topology serving subsystem (repro.serve).

The contracts that make serving honest:

* a served JSON report is byte-identical to the CLI's uncached output
  for the same (preset, config, seed) — serving changes *how* a report
  is obtained, never *what* it says;
* N concurrent cold requests for one identity coalesce into exactly one
  discovery (single-flight), and every response carries identical bytes;
* the catalog enumerates exactly the store's report entries and
  tolerates a concurrent prune;
* read-only mode serves only what the store holds — cold keys are 404s,
  discovery posts are rejected.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import MT4G, DiscoveryCache, SimulatedGPU
from repro.core.output.json_out import to_json
from repro.errors import UnknownGPUError
from repro.serve import (
    DeviceCatalog,
    HTTPRequest,
    JobQueue,
    TopologyService,
)

PRESET = "TestGPU-NV"


@pytest.fixture
def store(tmp_path) -> DiscoveryCache:
    return DiscoveryCache(tmp_path / "store")


@pytest.fixture
def executor():
    # Threads instead of processes: everything stays in-process so the
    # tests can count discoveries and monkeypatch the worker body.
    ex = ThreadPoolExecutor(max_workers=2)
    yield ex
    ex.shutdown(wait=True)


def warm(store, preset=PRESET, seed=0, validate=False):
    """Land one discovery in the store (what a worker would do)."""
    device = SimulatedGPU.from_preset(preset, seed=seed)
    return MT4G(device, cache=store).discover(validate=validate)


def make_service(store, executor, **kw) -> TopologyService:
    kw.setdefault("max_workers", 2)
    return TopologyService(store, executor=executor, **kw)


# ---------------------------------------------------------------------- #
# catalog                                                                 #
# ---------------------------------------------------------------------- #


class TestCatalog:
    def test_empty_store(self, store):
        assert DeviceCatalog(store).entries() == []

    def test_lists_cached_discoveries_with_metadata(self, store):
        warm(store, "TestGPU-NV", seed=0)
        warm(store, "TestGPU-AMD", seed=3, validate=True)
        store.record_wall("TestGPU-NV", 2.5)
        entries = DeviceCatalog(store).entries()
        assert [(e.preset, e.seed) for e in entries] == [
            ("TestGPU-AMD", 3),
            ("TestGPU-NV", 0),
        ]
        amd, nv = entries
        assert nv.vendor == "NVIDIA" and nv.microarchitecture == "Hopper"
        assert nv.verdict == "unvalidated"
        assert nv.wall_seconds == pytest.approx(2.5)
        assert nv.model == "NVIDIA TestGPU-NV"
        assert "L1" in nv.elements and nv.benchmarks_executed > 0
        assert amd.vendor == "AMD" and amd.verdict == "pass"
        assert amd.wall_seconds is None  # no cold wall recorded
        assert amd.schema_version == store.version

    def test_filters(self, store):
        warm(store, "TestGPU-NV", seed=0)
        warm(store, "TestGPU-NV", seed=7)
        warm(store, "TestGPU-AMD", seed=0)
        catalog = DeviceCatalog(store)
        assert len(catalog.entries()) == 3
        assert len(catalog.entries(vendor="NVIDIA")) == 2
        assert len(catalog.entries(vendor="NVIDIA", seed="7")) == 1
        assert catalog.entries(preset="TestGPU-AMD")[0].seed == 0
        assert catalog.entries(verdict="pass") == []

    def test_unknown_filter_raises(self, store):
        with pytest.raises(ValueError, match="unknown catalog filter"):
            DeviceCatalog(store).entries(colour="blue")

    def test_non_report_entries_are_not_devices(self, store):
        warm(store)
        store.put("aa" * 32, {"not": "a report"})
        store.put("bb" * 32, "not a report either")
        entries = DeviceCatalog(store).entries()
        assert len(entries) == 1 and entries[0].preset == PRESET

    def test_enumeration_racing_prune(self, store):
        # One real report duplicated under many synthetic keys, pruned
        # from under the walking catalog: every walk must return a clean
        # subset, never raise.
        warm(store)
        payload = next(iter(store.entries()))[1]
        for i in range(24):
            store.put(f"{i:02x}" * 32, payload)
        catalog = DeviceCatalog(store)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                store.prune(0)
                for i in range(24):
                    store.put(f"{i:02x}" * 32, payload)

        t = threading.Thread(target=churn)
        t.start()
        try:
            for _ in range(10):
                for entry in catalog.entries():
                    assert entry.preset == PRESET
        finally:
            stop.set()
            t.join()


# ---------------------------------------------------------------------- #
# single-flight job queue                                                 #
# ---------------------------------------------------------------------- #


class TestJobQueue:
    def test_unknown_preset_fails_before_any_work(self, store, executor):
        queue = JobQueue(store, executor=executor)
        with pytest.raises(UnknownGPUError):
            queue.submit("NoSuchGPU")

    def test_inflight_submissions_coalesce(self, store, executor):
        async def scenario():
            queue = JobQueue(store, executor=executor, max_workers=1)
            a = queue.submit(PRESET, seed=0)
            b = queue.submit(PRESET, seed=0)
            c = queue.submit(PRESET, seed=1)  # different identity
            assert a is b and a is not c
            assert a.requests == 2 and queue.coalesced == 1
            await asyncio.gather(queue.wait(a), queue.wait(c))
            assert a.status == "done" and c.status == "done"
            assert queue.discoveries_started == 2

        asyncio.run(scenario())

    def test_finished_jobs_are_not_coalesced_onto(self, store, executor):
        async def scenario():
            queue = JobQueue(store, executor=executor)
            first = queue.submit(PRESET)
            await queue.wait(first)
            second = queue.submit(PRESET)
            assert second is not first  # the store, not the queue, dedups now
            await queue.wait(second)
            # the rerun was a cache hit, so no wall poisoning occurred
            assert second.status == "done"

        asyncio.run(scenario())

    def test_failed_job_is_retried_not_pinned(self, store, executor, monkeypatch):
        calls = []

        def flaky(preset, seed, cache_config, validate, cache_dir,
                  retry=None):
            calls.append(preset)
            if len(calls) == 1:
                from repro.validate.fleet import WorkerOutcome

                return WorkerOutcome(preset, None, 0.01, error="injected failure")
            import repro.validate.fleet as fleet_mod

            return fleet_mod.discover_one(
                preset, seed, cache_config, validate, cache_dir
            )

        monkeypatch.setattr("repro.serve.jobs.discover_one", flaky)

        async def scenario():
            # failure_ttl=0: this test is about the *queue* not pinning a
            # failure; the failure memo's fast-fail window is its own test
            queue = JobQueue(store, executor=executor, failure_ttl=0.0)
            failed = queue.submit(PRESET)
            await queue.wait(failed)
            assert failed.status == "error" and "injected" in failed.error
            retried = queue.submit(PRESET)
            assert retried is not failed
            await queue.wait(retried)
            assert retried.status == "done"
            assert queue.discoveries_failed == 1

        asyncio.run(scenario())

    def test_shutdown_releases_queued_waiters(self, store, monkeypatch):
        # A job still queued at shutdown never reaches _finish; its
        # waiters must be released with an error, not hung forever.
        def slow_worker(preset, seed, cache_config, validate, cache_dir,
                        retry=None):
            import time as _time

            from repro.validate.fleet import WorkerOutcome

            _time.sleep(0.1)
            return WorkerOutcome(preset, None, 0.1, error="fake")

        monkeypatch.setattr("repro.serve.jobs.discover_one", slow_worker)
        one_slot = ThreadPoolExecutor(max_workers=1)
        try:

            async def scenario():
                queue = JobQueue(store, executor=one_slot, max_workers=1)
                running = queue.submit("TestGPU-NV")
                queued = queue.submit("TestGPU-AMD")
                queue.shutdown()
                await asyncio.wait_for(queue.wait(queued), timeout=2.0)
                assert queued.status == "error"
                assert "shut down" in queued.error
                await asyncio.wait_for(queue.wait(running), timeout=2.0)
                assert running.status == "error"  # the fake reports an error

            asyncio.run(scenario())
        finally:
            one_slot.shutdown(wait=True)

    def test_terminal_jobs_are_evicted_bounded(self, store, executor, monkeypatch):
        from repro.validate.fleet import WorkerOutcome

        monkeypatch.setattr(
            "repro.serve.jobs.discover_one",
            lambda preset, seed, cache_config, validate, cache_dir,
            retry=None: WorkerOutcome(preset, None, 0.01, error="fake"),
        )

        async def scenario():
            queue = JobQueue(store, executor=executor)
            queue.MAX_TERMINAL_JOBS = 4
            first = queue.submit(PRESET, seed=0)
            for seed in range(8):
                await queue.wait(queue.submit(PRESET, seed=seed))
            assert len(queue._jobs) == 4
            assert queue.get(first.id) is None  # oldest evicted

        asyncio.run(scenario())

    def test_admission_is_longest_first(self, store, executor, monkeypatch):
        # One pool slot, three jobs: the first submission starts at
        # once; of the two left pending, the longer recorded wall must
        # be admitted first, regardless of submission order.
        store.record_wall("TestGPU-AMD", 1.0)
        store.record_wall("TestGPU-AMD-L3", 50.0)
        order = []

        def fake_worker(preset, seed, cache_config, validate, cache_dir,
                        retry=None):
            from repro.validate.fleet import WorkerOutcome

            order.append(preset)
            return WorkerOutcome(preset, None, 0.01, error="fake (admission test)")

        monkeypatch.setattr("repro.serve.jobs.discover_one", fake_worker)

        async def scenario():
            queue = JobQueue(store, executor=executor, max_workers=1)
            jobs = [
                queue.submit("TestGPU-NV"),
                queue.submit("TestGPU-AMD"),  # short, submitted first...
                queue.submit("TestGPU-AMD-L3"),  # ...but this one is longer
            ]
            for job in jobs:
                await queue.wait(job)

        asyncio.run(scenario())
        assert order == ["TestGPU-NV", "TestGPU-AMD-L3", "TestGPU-AMD"]


# ---------------------------------------------------------------------- #
# HTTP endpoints (transport-independent)                                  #
# ---------------------------------------------------------------------- #


def get(service, path, query=None, headers=None):
    return service.handle_request(
        HTTPRequest("GET", path, query=query or {}, headers=headers or {})
    )


class TestServiceEndpoints:
    def test_eight_concurrent_cold_requests_one_discovery(self, store, executor):
        # The acceptance criterion: 8 concurrent cold requests for one
        # uncached preset trigger exactly one discovery, and every
        # response is byte-identical — to each other AND to the CLI's
        # uncached `mt4g -j` bytes for the same (preset, config, seed).
        service = make_service(store, executor)

        async def scenario():
            return await asyncio.gather(
                *(
                    get(service, f"/devices/{PRESET}/report", {"seed": "0"})
                    for _ in range(8)
                )
            )

        responses = asyncio.run(scenario())
        assert [r.status for r in responses] == [200] * 8
        assert len({r.body for r in responses}) == 1
        assert service.jobs.discoveries_started == 1
        assert service.jobs.coalesced == 7
        # the one discovery landed its entry (the worker counts its own
        # `stores`; the parent observes the shared on-disk state)
        assert store.entry_count() == 1
        cli_equivalent = MT4G(SimulatedGPU.from_preset(PRESET, seed=0)).discover()
        assert responses[0].body == (to_json(cli_equivalent) + "\n").encode()

    def test_warm_requests_are_store_hits(self, store, executor):
        warm(store)
        service = make_service(store, executor)
        response = asyncio.run(get(service, f"/devices/{PRESET}/report"))
        assert response.status == 200
        assert service.jobs.discoveries_started == 0
        assert store.hits == 1

    def test_format_negotiation(self, store, executor):
        warm(store)
        service = make_service(store, executor)

        async def scenario():
            md = await get(
                service, f"/devices/{PRESET}/report", {"format": "markdown"}
            )
            csv_resp = await get(
                service, f"/devices/{PRESET}/report", headers={"accept": "text/csv"}
            )
            bad = await get(service, f"/devices/{PRESET}/report", {"format": "xml"})
            unacceptable = await get(
                service,
                f"/devices/{PRESET}/report",
                headers={"accept": "application/xml"},
            )
            return md, csv_resp, bad, unacceptable

        md, csv_resp, bad, unacceptable = asyncio.run(scenario())
        assert md.status == 200 and md.content_type == "text/markdown"
        assert md.body.decode().startswith("# MT4G Topology Report")
        assert csv_resp.status == 200 and csv_resp.content_type == "text/csv"
        assert csv_resp.body.decode().splitlines()[0].startswith("element,attribute")
        assert bad.status == 406
        assert unacceptable.status == 406

    def test_devices_endpoint_filters(self, store, executor):
        warm(store, "TestGPU-NV")
        warm(store, "TestGPU-AMD")
        service = make_service(store, executor)

        async def scenario():
            all_devices = await get(service, "/devices")
            nvidia = await get(service, "/devices", {"vendor": "NVIDIA"})
            bad = await get(service, "/devices", {"nope": "x"})
            return all_devices, nvidia, bad

        all_devices, nvidia, bad = asyncio.run(scenario())
        assert json.loads(all_devices.body)["count"] == 2
        payload = json.loads(nvidia.body)
        assert payload["count"] == 1
        assert payload["devices"][0]["preset"] == "TestGPU-NV"
        assert bad.status == 400

    def test_read_only_mode(self, store, executor):
        warm(store)  # one warm preset to prove serving still works
        service = make_service(store, executor, read_only=True)

        async def scenario():
            served = await get(service, f"/devices/{PRESET}/report")
            cold = await get(service, "/devices/TestGPU-AMD/report")
            post = await service.handle_request(
                HTTPRequest("POST", "/discover", body=b'{"preset": "TestGPU-AMD"}')
            )
            return served, cold, post

        served, cold, post = asyncio.run(scenario())
        assert served.status == 200
        assert cold.status == 404
        assert "read-only" in json.loads(cold.body)["error"]
        assert post.status == 405
        assert service.jobs.discoveries_started == 0

    def test_compare_runs_matrix_and_fleet_judge(self, store, executor):
        warm(store, "TestGPU-NV")
        warm(store, "TestGPU-NV-2SEG")
        service = make_service(store, executor, read_only=True)

        async def scenario():
            resp = await get(
                service, "/compare", {"presets": "TestGPU-NV,TestGPU-NV-2SEG"}
            )
            md = await get(
                service,
                "/compare",
                {"presets": "TestGPU-NV,TestGPU-NV-2SEG", "format": "markdown"},
            )
            one = await get(service, "/compare", {"presets": "TestGPU-NV"})
            dup = await get(
                service, "/compare", {"presets": "TestGPU-NV,TestGPU-NV"}
            )
            return resp, md, one, dup

        resp, md, one, dup = asyncio.run(scenario())
        assert resp.status == 200
        payload = json.loads(resp.body)
        assert payload["schema"] == "mt4g-repro-compare/1"
        assert [row["preset"] for row in payload["matrix"]] == [
            "TestGPU-NV",
            "TestGPU-NV-2SEG",
        ]
        assert payload["fleet_validation"]["verdict"] == "pass"
        assert payload["fleet_validation"]["groups"] == {
            "NVIDIA/Hopper": ["TestGPU-NV", "TestGPU-NV-2SEG"]
        }
        assert md.status == 200 and b"# MT4G Fleet Report" in md.body
        assert one.status == 400 and dup.status == 400

    def test_diff_endpoint_classifies_drift(self, store, executor):
        warm(store, "TestGPU-NV")
        warm(store, "TestGPU-NV-2SEG")
        service = make_service(store, executor, read_only=True)

        async def scenario():
            differing = await get(service, "/diff/TestGPU-NV/TestGPU-NV-2SEG")
            same = await get(service, "/diff/TestGPU-NV/TestGPU-NV")
            md = await get(
                service,
                "/diff/TestGPU-NV/TestGPU-NV-2SEG",
                {"format": "markdown"},
            )
            return differing, same, md

        differing, same, md = asyncio.run(scenario())
        payload = json.loads(differing.body)
        assert payload["verdict"] == "drift"
        assert any(
            d["element"] == "L2" and d["attribute"] == "amount"
            and d["status"] in ("drift", "changed")
            for d in payload["deltas"]
        )
        assert json.loads(same.body)["verdict"] == "identical"
        assert md.body.decode().startswith("# MT4G Report Diff")

    def test_discover_and_job_endpoints(self, store, executor):
        service = make_service(store, executor)

        async def scenario():
            accepted = await service.handle_request(
                HTTPRequest(
                    "POST",
                    "/discover",
                    body=b'{"preset": "TestGPU-AMD", "seed": 2}',
                )
            )
            job_id = json.loads(accepted.body)["id"]
            await service.jobs.wait(service.jobs.get(job_id))
            done = await get(service, f"/jobs/{job_id}")
            missing = await get(service, "/jobs/job-999")
            bad_body = await service.handle_request(
                HTTPRequest("POST", "/discover", body=b"{not json")
            )
            bad_preset = await service.handle_request(
                HTTPRequest("POST", "/discover", body=b'{"preset": "Nope"}')
            )
            return accepted, done, missing, bad_body, bad_preset

        accepted, done, missing, bad_body, bad_preset = asyncio.run(scenario())
        assert accepted.status == 202
        payload = json.loads(done.body)
        assert payload["status"] == "done" and payload["seed"] == 2
        assert missing.status == 404
        assert bad_body.status == 400
        assert bad_preset.status == 404
        # the finished discovery is now catalogued
        entries = service.catalog.entries(preset="TestGPU-AMD")
        assert [e.seed for e in entries] == [2]

    def test_healthz_and_metrics(self, store, executor):
        warm(store)
        service = make_service(store, executor)

        async def scenario():
            health = await get(service, "/healthz")
            await get(service, f"/devices/{PRESET}/report")
            await get(service, "/devices")
            metrics = await get(service, "/metrics")
            return health, metrics

        health, metrics = asyncio.run(scenario())
        payload = json.loads(health.body)
        assert payload["status"] == "ok"
        assert payload["entries"] == 1 and payload["inflight"] == 0
        m = json.loads(metrics.body)
        assert m["schema"] == "mt4g-repro-metrics/1"
        # one hit from the served report; the single miss is warm()'s
        # own cold lookup before it landed the entry
        assert m["store"]["hits"] == 1 and m["store"]["misses"] == 1
        assert m["jobs"]["started"] == 0 and m["jobs"]["coalesced"] == 0
        route = m["http"]["routes"]["GET /devices/{preset}/report"]
        assert route["count"] == 1 and route["seconds_total"] > 0
        assert m["http"]["by_status"]["200"] >= 3

    def test_bad_seed_is_a_client_error_not_a_500(self, store, executor):
        service = make_service(store, executor, read_only=True)

        async def scenario():
            query_seed = await get(
                service, f"/devices/{PRESET}/report", {"seed": "-1"}
            )
            body_seed = await service.handle_request(
                HTTPRequest(
                    "POST", "/discover", body=b'{"preset": "TestGPU-NV", "seed": -1}'
                )
            )
            return query_seed, body_seed

        service.read_only = False  # so POST reaches the seed validation
        query_seed, body_seed = asyncio.run(scenario())
        assert query_seed.status == 400
        assert "non-negative" in json.loads(query_seed.body)["error"]
        assert body_seed.status == 400
        assert service.jobs.discoveries_started == 0

    def test_devices_format_param_negotiates(self, store, executor):
        # /devices renders JSON only; an explicit ?format=csv must 406,
        # not silently return the wrong media type.
        service = make_service(store, executor, read_only=True)

        async def scenario():
            ok = await get(service, "/devices", {"format": "json"})
            wrong = await get(service, "/devices", {"format": "csv"})
            return ok, wrong

        ok, wrong = asyncio.run(scenario())
        assert ok.status == 200 and wrong.status == 406

    def test_unknown_routes_and_methods(self, store, executor):
        service = make_service(store, executor)

        async def scenario():
            nowhere = await get(service, "/nowhere")
            put = await service.handle_request(HTTPRequest("PUT", "/devices"))
            unknown_preset = await get(service, "/devices/NoSuchGPU/report")
            return nowhere, put, unknown_preset

        nowhere, put, unknown_preset = asyncio.run(scenario())
        assert nowhere.status == 404
        assert put.status == 405
        assert unknown_preset.status == 404

    def test_handler_bug_becomes_500_not_a_crash(self, store, executor, monkeypatch):
        service = make_service(store, executor)
        monkeypatch.setattr(
            service.catalog,
            "entries",
            lambda **kw: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        response = asyncio.run(get(service, "/devices"))
        assert response.status == 500
        assert "boom" in json.loads(response.body)["error"]


class TestGraphEndpoints:
    def test_served_graph_matches_offline_bytes(self, store, executor):
        """GET /graph/{preset} == `mt4g graph` for the same identity —
        the byte-identity contract extended from reports to graphs."""
        from repro.graph import build_graph, to_graph_json

        report = warm(store)
        service = make_service(store, executor)
        response = asyncio.run(get(service, f"/graph/{PRESET}"))
        assert response.status == 200
        assert response.content_type == "application/json"
        assert response.body == (to_graph_json(build_graph(report)) + "\n").encode()
        assert service.jobs.discoveries_started == 0

    def test_cold_graph_request_discovers_and_matches_warm(self, store, executor):
        service = make_service(store, executor)
        cold = asyncio.run(get(service, f"/graph/{PRESET}"))
        assert cold.status == 200 and service.jobs.discoveries_started == 1
        hot = asyncio.run(get(service, f"/graph/{PRESET}"))
        assert hot.body == cold.body

    def test_dot_negotiation(self, store, executor):
        warm(store)
        service = make_service(store, executor)

        async def scenario():
            by_query = await get(service, f"/graph/{PRESET}", {"format": "dot"})
            by_accept = await get(
                service, f"/graph/{PRESET}", headers={"accept": "text/vnd.graphviz"}
            )
            bad = await get(service, f"/graph/{PRESET}", {"format": "csv"})
            return by_query, by_accept, bad

        by_query, by_accept, bad = asyncio.run(scenario())
        assert by_query.status == 200
        assert by_query.content_type.startswith("text/vnd.graphviz")
        assert by_query.body.startswith(b"digraph mt4g {")
        assert by_accept.body == by_query.body
        assert bad.status == 406

    def test_fleet_graph_groups_the_catalog(self, store, executor):
        warm(store)
        warm(store, preset="TestGPU-AMD")
        service = make_service(store, executor)

        async def scenario():
            default = await get(service, "/graph")
            by_arch = await get(service, "/graph", {"group": "microarchitecture"})
            bad = await get(service, "/graph", {"group": "bogus"})
            return default, by_arch, bad

        default, by_arch, bad = asyncio.run(scenario())
        payload = json.loads(default.body)
        assert payload["meta"]["group_by"] == "vendor"
        groups = {
            n["name"]: n["attrs"]["devices"]
            for n in payload["nodes"]
            if n["kind"] == "group"
        }
        assert groups == {"NVIDIA": 1, "AMD": 1}
        assert json.loads(by_arch.body)["meta"]["group_by"] == "microarchitecture"
        assert bad.status == 400

    def test_diff_graph_view(self, store, executor):
        warm(store)
        warm(store, preset="TestGPU-NV-2SEG")
        service = make_service(store, executor)

        async def scenario():
            view = await get(
                service, f"/diff/{PRESET}/TestGPU-NV-2SEG", {"view": "graph"}
            )
            md = await get(
                service,
                f"/diff/{PRESET}/TestGPU-NV-2SEG",
                {"view": "graph", "format": "markdown"},
            )
            bad = await get(
                service, f"/diff/{PRESET}/TestGPU-NV-2SEG", {"view": "sideways"}
            )
            return view, md, bad

        view, md, bad = asyncio.run(scenario())
        payload = json.loads(view.body)
        assert payload["schema"] == "mt4g-repro-graph-diff/1"
        assert payload["verdict"] == "drift"
        statuses = {n["id"]: n["status"] for n in payload["nodes"]}
        assert statuses["cache:L2"] == "drift"  # segmentation differs
        # the graph view is JSON-only; markdown against it is a 406
        assert md.status == 406
        assert bad.status == 400

    def test_graph_routes_have_metric_labels(self, store, executor):
        from repro.serve.handlers import route_label

        assert (
            route_label(HTTPRequest("GET", "/graph/TestGPU-NV"))
            == "GET /graph/{preset}"
        )
        assert route_label(HTTPRequest("GET", "/graph")) == "GET /graph"


# ---------------------------------------------------------------------- #
# socket transport                                                        #
# ---------------------------------------------------------------------- #


class TestHTTPTransport:
    async def _roundtrip(self, host, port, raw: bytes) -> bytes:
        # Each roundtrip sends Connection: close (reading to EOF under
        # the keep-alive default would wait out the idle window) — the
        # honor-the-client's-close path, exercised on every call.
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        data = await reader.read()
        writer.close()
        await writer.wait_closed()
        return data

    def test_end_to_end_over_a_real_socket(self, store, executor):
        warm(store)

        async def scenario():
            service = make_service(store, executor, read_only=True)
            host, port = await service.start(port=0)
            try:
                health = await self._roundtrip(
                    host,
                    port,
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
                )
                report = await self._roundtrip(
                    host,
                    port,
                    f"GET /devices/{PRESET}/report?seed=0 HTTP/1.1\r\n"
                    "Host: x\r\nConnection: close\r\n\r\n".encode(),
                )
                malformed = await self._roundtrip(host, port, b"???\r\n\r\n")
            finally:
                await service.stop()
            return service, health, report, malformed

        service, health, report, malformed = asyncio.run(scenario())
        head, _, body = health.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Type: application/json" in head
        assert json.loads(body)["status"] == "ok"
        # Content-Length is honest (clients read exactly the body)
        length = int(
            [l for l in head.split(b"\r\n") if l.lower().startswith(b"content-length")][
                0
            ].split(b":")[1]
        )
        assert length == len(body)
        report_body = report.partition(b"\r\n\r\n")[2]
        cli_equivalent = MT4G(SimulatedGPU.from_preset(PRESET, seed=0)).discover()
        assert report_body == (to_json(cli_equivalent) + "\n").encode()
        assert malformed.startswith(b"HTTP/1.1 400")
        assert service.metrics.bad_requests == 1

    def test_header_flood_is_rejected(self, store, executor):
        # A client streaming endless header lines must get a 400, not
        # pin the connection task and grow memory without bound.
        async def scenario():
            service = make_service(store, executor, read_only=True)
            host, port = await service.start(port=0)
            try:
                flood = (
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"".join(b"X-%d: y\r\n" % i for i in range(200))
                    + b"\r\n"
                )
                return await self._roundtrip(host, port, flood)
            finally:
                await service.stop()

        response = asyncio.run(scenario())
        assert response.startswith(b"HTTP/1.1 400")
