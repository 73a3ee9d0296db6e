"""The serve-ring workload: two services in one hash ring, closed-loop clients.

Two in-process :class:`TopologyService` instances share one background
event loop and one :class:`HashRing`, with the ``mt4g serve`` defaults
(keep-alive, hot report cache, catalog TTL, pre-warmed pool; one pool
worker each, so the ring has as many workers as the host has cores).
Their disk stores are pre-warmed with TestGPU-NV and TestGPU-AMD at two
seeds.  One closed-loop client (a scheduler querying topology) waits for
each reply before its next request, alternating between two keep-alive
connections, one per instance.

* Warm phase: a seeded mix of report json/markdown/csv, ``/graph``,
  ``/devices``, ``/healthz`` and a minority of ``/compare`` and ``/diff``
  (which read and unpickle store entries on every call).  No kernel code.
* Cold phase: fresh seeds, alternating TestGPU-NV and TestGPU-AMD.  Each
  key is requested from its ring owner (a local discovery in the owner's
  pool) and then from the other member (a read through its peer tier).

Every served report is compared byte for byte with the uncached CLI
rendering of the same (preset, seed), computed outside the timed phases.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import shutil
import statistics
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter, sleep

from hostspeed import REFERENCE_S, HostSpeed
from ledger import Tally, median_or, percentile, span, tail_percentile
from layers import TRANSPORT, per_layer_metrics
from workloads import (
    Context,
    CrossChecks,
    Result,
    device_seed,
    import_seconds,
    raw_medians,
    traced_pass,
)

PRESETS = {"nvidia": "TestGPU-NV", "amd": "TestGPU-AMD"}
WARM_SEEDS = 2
#: Warm request mix, each kind equally likely: the six routes of the
#: serve load harness's "mixed" blend (``benchmarks/bench_serve.py``),
#: plus /compare and /diff, which thereby make up a quarter of requests.
MIX = (
    "report:json",
    "report:markdown",
    "report:csv",
    "graph",
    "devices",
    "healthz",
    "compare",
    "diff",
)
#: Share of the run spent in the warm phase; the rest is the cold phase.
WARM_SHARE = 0.5
#: The warm phase runs in slices of this length, with a host-speed
#: calibration between slices.
SLICE_S = 0.25
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 3
#: Fixed work of each traced pass.
TRACE_WARM_REQUESTS = 2000
TRACE_COLD_KEYS = 4
#: Bound on every client wait: a healthy request never comes close.
CLIENT_TIMEOUT_S = 60.0


def fetch(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    """One GET on a keep-alive connection: (status, body)."""
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def _report_path(preset: str, seed: int, fmt: str = "json") -> str:
    return f"/devices/{preset}/report?seed={seed}&format={fmt}"


class References:
    """Uncached CLI renderings per (preset, seed), computed on demand."""

    def __init__(self) -> None:
        self._refs: dict[tuple[str, int], dict[str, bytes]] = {}
        self.checks = CrossChecks()

    def get(self, preset: str, seed: int) -> dict[str, bytes]:
        if (preset, seed) not in self._refs:
            from repro import MT4G, SimulatedGPU
            from repro.core.output import csv_out, json_out, markdown
            from repro.graph import build_graph, to_graph_json

            device = SimulatedGPU.from_preset(preset, seed=seed)
            report = MT4G(device).discover()
            self._refs[(preset, seed)] = {
                "report:json": (json_out.to_json(report) + "\n").encode(),
                "report:markdown": markdown.to_markdown(report).encode(),
                "report:csv": csv_out.to_csv(report).encode(),
                "graph": (to_graph_json(build_graph(report)) + "\n").encode(),
            }
            self.checks.add(report, device)
        return self._refs[(preset, seed)]


def warm_entries(workdir: Path, keys: list[tuple[str, int]]) -> dict[str, bytes]:
    """Store entries for the warm keys, written by a cached discovery."""
    from repro import MT4G, SimulatedGPU
    from repro.cache.store import DiscoveryCache

    store = DiscoveryCache(workdir / "warm-inputs")
    blobs = {}
    for preset, seed in keys:
        MT4G(SimulatedGPU.from_preset(preset, seed=seed), cache=store).discover()
    for key, _ in store.entries():
        blobs[key] = store.get_blob(key)
    return blobs


class Ring:
    """Two services joined in one hash ring on one background loop."""

    def __init__(self, workdir: Path, blobs: dict[str, bytes]) -> None:
        from repro.cache.ring import HashRing
        from repro.cache.tiers import build_worker_cache
        from repro.serve import TopologyService
        from repro.serve.hotcache import DEFAULT_HOT_CACHE_BYTES

        self.workdir = workdir
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="serve-ring", daemon=True
        )
        self.thread.start()
        self.pools: list[ProcessPoolExecutor] = []
        self.services = []
        self.conns: list[http.client.HTTPConnection] = []
        try:
            for i in range(2):
                store = build_worker_cache(workdir / f"store-{i}")
                for key, blob in blobs.items():
                    store.store.put_blob(key, blob)  # the disk tier, as after a restart
                self.pools.append(ProcessPoolExecutor(max_workers=1))
                self.services.append(
                    TopologyService(
                        store,
                        max_workers=1,
                        executor=self.pools[-1],
                        hot_cache_bytes=DEFAULT_HOT_CACHE_BYTES,
                        catalog_ttl=2.0,
                        pool_mode="warm",
                    )
                )
            addresses = [self._call(s.start(port=0)) for s in self.services]
            self.urls = [f"http://{host}:{port}" for host, port in addresses]
            for i, service in enumerate(self.services):
                self._call(self._attach(service, HashRing(self.urls[i], [self.urls[1 - i]])))
            deadline = perf_counter() + CLIENT_TIMEOUT_S
            while sum(s.jobs.workers_warmed for s in self.services) < 2:
                if perf_counter() > deadline:
                    raise RuntimeError("discovery pools did not warm up")
                sleep(0.005)
            self.conns = [
                http.client.HTTPConnection(host, port, timeout=CLIENT_TIMEOUT_S)
                for host, port in addresses
            ]
        except BaseException:
            self.close()
            raise

    @staticmethod
    async def _attach(service, ring) -> None:
        service.attach_ring(ring)

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(CLIENT_TIMEOUT_S)

    def owner(self, key: str) -> int:
        return self.urls.index(self.services[0].ring.owner(key))

    def counters(self) -> dict[str, int]:
        jobs = [s.jobs for s in self.services]
        return {
            "jobs.discoveries": sum(j.discoveries_started for j in jobs),
            "jobs.coalesced": sum(j.coalesced for j in jobs),
            "peer.fallbacks": sum(j.peer_fallbacks for j in jobs),
        }

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        try:
            for service in self.services:
                self._call(service.stop())
            self._call(self.loop.shutdown_default_executor())
        finally:
            for pool in self.pools:
                pool.shutdown(wait=True)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(CLIENT_TIMEOUT_S)
            self.loop.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


class Inputs:
    """Everything the workload derives from its seed."""

    def __init__(self, ctx: Context) -> None:
        rng = ctx.rng("serve-ring")
        self.warm_seeds = [device_seed(rng) for _ in range(WARM_SEEDS)]
        self.warm_keys = [(p, s) for s in self.warm_seeds for p in PRESETS.values()]
        self._cold_rng = ctx.rng("serve-ring:cold")
        self.refs = References()
        for preset, seed in self.warm_keys:
            self.refs.get(preset, seed)
        self.blobs = warm_entries(ctx.workdir, self.warm_keys)
        from repro.cache.store import DiscoveryCache
        from repro.serve.jobs import JobQueue

        # Report keys computed like the services do, without touching them.
        self.keyer = JobQueue(DiscoveryCache(ctx.workdir / "keys"))

    def cold_keys(self):
        """Fresh (preset, seed) keys, alternating vendors."""
        while True:
            seed = device_seed(self._cold_rng)
            if seed in self.warm_seeds:
                continue
            for preset in PRESETS.values():
                yield preset, seed

    def warm_request(self, rng) -> tuple[str, str, bytes | None]:
        """(kind, path, expected bytes or None) of one warm request."""
        kind = rng.choice(MIX)
        preset, seed = rng.choice(self.warm_keys)
        if kind.startswith("report:"):
            fmt = kind.split(":")[1]
            return kind, _report_path(preset, seed, fmt), self.refs.get(preset, seed)[kind]
        if kind == "graph":
            return kind, f"/graph/{preset}?seed={seed}", self.refs.get(preset, seed)[kind]
        nv, amd = PRESETS["nvidia"], PRESETS["amd"]
        if kind == "compare":
            return kind, f"/compare?presets={nv},{amd}&seed={seed}", None
        if kind == "diff":
            return kind, f"/diff/{nv}/{amd}?seed={seed}", None
        return kind, f"/{kind}", None


def _check_warm(
    tally: Tally, kind: str, status: int, body: bytes, expected, n_entries: int
) -> None:
    if kind == "devices" and status == 200:
        tally.check(json.loads(body)["count"] == n_entries, "catalog lists the wrong entry count")
    elif kind == "healthz" and status == 200:
        tally.check(json.loads(body)["status"] == "ok", "service reports degraded health")
    else:
        tally.response(status, body, expected, kind)


def _warm(ring: Ring, inputs: Inputs, ctx: Context, speed: HostSpeed, tally: Tally):
    """The warm phase: (latencies, raw latencies, phase time).

    One closed-loop client alternates between the two keep-alive
    connections; every ``SLICE_S`` it pauses for a host-speed calibration.
    Latencies and phase time are in reference-host seconds.
    """
    rng = random.Random(f"serve-ring:warm:{ctx.seed}")
    latencies: list[float] = []
    raw: list[float] = []
    phase = 0.0
    for _ in range(max(1, round(ctx.seconds * WARM_SHARE / SLICE_S))):
        start = perf_counter()
        end = start + SLICE_S
        first = len(raw)
        while perf_counter() < end:
            kind, path, expected = inputs.warm_request(rng)
            t = perf_counter()
            try:
                status, body = fetch(ring.conns[len(raw) % 2], path)
            except (OSError, http.client.HTTPException) as exc:
                tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            raw.append(perf_counter() - t)
            _check_warm(tally, kind, status, body, expected, len(inputs.warm_keys))
        wall = perf_counter() - start
        factor = speed.factor()
        phase += wall * factor
        latencies.extend(x * factor for x in raw[first:])
    return latencies, raw, phase


def _cold(ring: Ring, inputs: Inputs, key_source, get, stop, speed=None) -> list[dict]:
    """Request cold keys at the owner, then through the other member.

    With ``speed``, each key's host-speed factor is stored as ``factor``.
    """
    samples = []
    for preset, seed in key_source:
        if stop(len(samples)):
            break
        owner = ring.owner(inputs.keyer.report_key(preset, seed, False))
        path = _report_path(preset, seed)
        vendor = next(v for v, p in PRESETS.items() if p == preset)
        sample = {"preset": preset, "seed": seed, "vendor": vendor}
        for leg, index in (("local", owner), ("proxied", 1 - owner)):
            start = perf_counter()
            sample[leg] = get(ring.conns[index], path)
            sample[f"{leg}_s"] = perf_counter() - start
        if speed is not None:
            sample["factor"] = speed.factor()
        samples.append(sample)
    return samples


def _verify_cold(samples: list[dict], inputs: Inputs, tally: Tally) -> None:
    for s in samples:
        expected = inputs.refs.get(s["preset"], s["seed"])["report:json"]
        for leg in ("local", "proxied"):
            status, body = s[leg]
            tally.response(status, body, expected, f"cold-{leg} {s['preset']}@{s['seed']}")


def serve_ring(ctx: Context) -> Result:
    if ctx.trace:
        return _serve_ring_traced(ctx)
    speed = HostSpeed()
    setup_import = import_seconds(ctx, "import repro.serve")
    inputs = Inputs(ctx)
    # A ring set-up (which starts the pools) is timed against the median
    # calibration taken between set-ups.
    first = len(speed.samples)
    setups = []
    ring = None
    for rep in range(SETUP_REPS):
        if ring is not None:
            ring.close()
        speed.factor()
        start = perf_counter()
        ring = Ring(ctx.workdir / f"ring-{rep}", inputs.blobs)
        setups.append(perf_counter() - start)
    speed.factor()
    ring_setup = statistics.median(setups) * REFERENCE_S / statistics.median(speed.samples[first:])
    tally = Tally()
    try:
        start = perf_counter()
        latencies, raw_warm, warm_time = _warm(ring, inputs, ctx, speed, tally)
        deadline = start + ctx.seconds
        samples = _cold(
            ring, inputs, inputs.cold_keys(), fetch,
            lambda n: n >= 2 and perf_counter() >= deadline, speed,
        )
    finally:
        ring.close()
    if not latencies or not samples:
        raise RuntimeError(f"serve-ring measured nothing: {tally.reasons}")
    _verify_cold(samples, inputs, tally)
    checks = inputs.refs.checks

    def legs(vendor: str, leg: str, scaled: bool = True) -> list[float]:
        """Cold latencies of one leg, for one vendor or "any"."""
        return [
            x[f"{leg}_s"] * (x["factor"] if scaled else 1.0)
            for x in samples
            if vendor in ("any", x["vendor"])
        ]

    tail = tail_percentile(len(latencies))
    metrics = {
        "setup_s": setup_import + ring_setup,
        "discover_s.nvidia": median_or(legs("nvidia", "local"), 0.0),
        "discover_s.amd": median_or(legs("amd", "local"), 0.0),
        "ops_per_s": len(latencies) / warm_time,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "crosscheck_pass_rate": checks.rate,
    }
    notes = {
        "warm_requests": len(latencies),
        "warm_tail": {
            "percentile": tail,
            "ms": percentile(latencies, tail) * 1e3 if tail else None,
        },
        "cold_keys": len(samples),
        "devices_per_s": len(samples) / sum(legs("any", "local") + legs("any", "proxied")),
        "cold_local_s": median_or(legs("any", "local"), 0.0),
        "cold_proxied_s": median_or(legs("any", "proxied"), 0.0),
        "cold_proxied_s.by_vendor": {v: median_or(legs(v, "proxied"), 0.0) for v in PRESETS},
        "raw_wall_s": raw_medians(
            warm_request=raw_warm,
            **{f"cold_{leg}": legs("any", leg, scaled=False) for leg in ("local", "proxied")},
        ),
        "calibration_s": speed.median_s(),
        "crosschecks": str(checks),
    }
    return Result(metrics, tally, notes)


def _serve_ring_traced(ctx: Context) -> Result:
    """Fixed work, one request in flight at a time, on a fresh ring per pass.

    Sequential, so that spans on the client, loop and executor threads
    nest in time; a fresh ring per pass, so the untraced and traced
    passes see identical cache states and the same cold keys.
    """
    inputs = Inputs(ctx)
    keys = inputs.cold_keys()
    cold_keys = [next(keys) for _ in range(TRACE_COLD_KEYS)]
    tally = Tally()
    cold = []

    def one_pass(ring: Ring, get) -> None:
        rng = random.Random(f"serve-ring:trace:{ctx.seed}")
        for i in range(TRACE_WARM_REQUESTS):
            kind, path, expected = inputs.warm_request(rng)
            status, body = get(ring.conns[i % 2], path)
            _check_warm(tally, kind, status, body, expected, len(inputs.warm_keys))
        cold.extend(_cold(ring, inputs, cold_keys, get, lambda n: False))

    ring = Ring(ctx.workdir / "ring-untraced", inputs.blobs)
    try:
        start = perf_counter()
        one_pass(ring, fetch)
        untraced = perf_counter() - start
    finally:
        ring.close()
    ring = Ring(ctx.workdir / "ring-traced", inputs.blobs)
    try:
        ledger, runners = traced_pass(
            lambda ledger: one_pass(ring, span(ledger, TRANSPORT, fetch))
        )
        counters = ring.counters()
    finally:
        ring.close()
    _verify_cold(cold, inputs, tally)
    extra = dict(runners, **counters, trace_overhead_ratio=ledger.wall_s / untraced)
    return Result(per_layer_metrics(ledger, extra), tally, {"cold_keys": cold_keys})
