"""The layer map: which public entry points of ``repro`` open which span.

Layers are named after the repository's modules.  Every layer reports
``<layer>.self_s`` and ``<layer>.calls``; the derived counters below
add work counts and useful-outcome ratios where a layer has them.
"""

from __future__ import annotations

from contextlib import contextmanager

from ledger import Ledger, Patcher

PACKAGE = "repro"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _pchase_loads(ledger, args, kwargs, result) -> None:
    # run_pchase_ex(device, kind, base, nbytes, stride, ...): one ring pass
    # touches nbytes // stride elements.
    loads = _arg(args, kwargs, 3, "nbytes") // _arg(args, kwargs, 4, "stride")
    ledger.count("kernel.pchase.loads", loads)


def _render_bytes(ledger, args, kwargs, result) -> None:
    ledger.count("output.render.bytes", len(result))


def _store_hit(ledger, args, kwargs, result) -> None:
    ledger.count("store.get.hits", result is not None)


def _store_put_bytes(ledger, args, kwargs, result) -> None:
    ledger.count("store.put.bytes", len(_arg(args, kwargs, 2, "blob")))


def _hotcache_hit(ledger, args, kwargs, result) -> None:
    ledger.count("hotcache.hits", result is not None)


#: Route buckets of ``serve.requests.<route>`` (first path segment, with
#: ``/devices/{preset}/report`` split from the ``/devices`` catalog).
ROUTES = ("report", "graph", "devices", "healthz", "compare", "diff", "store")


def _route(ledger, args, kwargs, result) -> None:
    parts = _arg(args, kwargs, 1, "request").parts
    route = "report" if len(parts) == 3 and parts[0] == "devices" else (parts[0] if parts else "")
    ledger.count(f"serve.requests.{route if route in ROUTES else 'other'}")


#: (module, entry point, layer, counter hook)
TARGETS = [
    ("repro.gpusim.kernel", "run_pchase_ex", "kernel.pchase", _pchase_loads),
    ("repro.gpusim.kernel", "probe_hits", "kernel.probe", None),
    ("repro.gpusim.kernel", "warm", "kernel.warm", None),
    ("repro.gpusim.kernel", "run_stream_kernel", "kernel.stream", None),
    ("repro.pchase.runner", "PChaseRunner.latencies", "runner", None),
    ("repro.pchase.runner", "PChaseRunner.sweep", "runner", None),
    ("repro.pchase.runner", "PChaseRunner.warm", "runner", None),
    ("repro.pchase.runner", "PChaseRunner.probe", "runner", None),
    ("repro.stats.outliers", "find_outliers", "stats.outliers", None),
    ("repro.stats.outliers", "scrub_outliers", "stats.outliers", None),
    ("repro.stats.outliers", "scrub_outliers_matrix", "stats.outliers", None),
    ("repro.stats.reduction", "geometric_reduction", "stats.reduction", None),
    ("repro.stats.reduction", "reduce_matrix_rows", "stats.reduction", None),
    ("repro.stats.changepoint", "detect_change_point", "stats.changepoint", None),
    ("repro.stats.heuristics", "estimate_cache_line_size", "stats.heuristics", None),
    ("repro.stats.heuristics", "similarity_scores", "stats.heuristics", None),
    ("repro.stats.heuristics", "amplify_scores", "stats.heuristics", None),
    ("repro.core.benchmarks.sharing", "measure_sharing_nvidia", "core.sharing", None),
    ("repro.core.benchmarks.sharing", "measure_sl1d_sharing", "core.sharing", None),
    ("repro.core.tool", "MT4G.discover", "core.discover", None),
    ("repro.core.tool", "MT4G._escalate_measurement", "core.escalate", None),
    ("repro.core.output.json_out", "to_json", "output.render", _render_bytes),
    ("repro.core.output.markdown", "to_markdown", "output.render", _render_bytes),
    ("repro.core.output.csv_out", "to_csv", "output.render", _render_bytes),
    ("repro.graph.build", "build_graph", "graph.build", None),
    ("repro.graph.build", "build_fleet_graph", "graph.build", None),
    ("repro.validate.validator", "validate_report", "validate.report", None),
    ("repro.validate.fleet_checks", "run_fleet_checks", "validate.fleet_checks", None),
    ("repro.validate.fleet", "discover_fleet", "validate.fleet", None),
    ("repro.cache.store", "DiscoveryCache.get", "store.get", _store_hit),
    ("repro.cache.store", "DiscoveryCache.get_blob", "store.get", _store_hit),
    ("repro.cache.tiers", "TieredCache.get", "store.get", _store_hit),
    ("repro.cache.tiers", "TieredCache.get_blob", "store.get", _store_hit),
    ("repro.cache.store", "DiscoveryCache.put", "store.put", None),
    ("repro.cache.store", "DiscoveryCache.put_blob", "store.put", _store_put_bytes),
    ("repro.cache.tiers", "TieredCache.put", "store.put", None),
    ("repro.cache.tiers", "TieredCache.put_blob", "store.put", None),
    ("repro.serve.server", "TopologyService.handle_request", "serve.handle", _route),
    ("repro.serve.hotcache", "HotReportCache.get", "hotcache", _hotcache_hit),
    ("repro.serve.jobs", "JobQueue.wait", "jobs.wait", None),
    ("repro.cache.tiers", "peer_fetch", "peer.fetch", None),
]

#: The benchmark's own HTTP client call (client-observed latency minus
#: the server's ``handle_request`` is the transport's self time).
TRANSPORT = "serve.transport"

LAYERS = tuple(dict.fromkeys([t[2] for t in TARGETS] + [TRANSPORT]))


@contextmanager
def traced(ledger: Ledger):
    """Wrap every target for the duration of the block, then unwrap."""
    for module, _, _, _ in TARGETS:
        __import__(module)
    patcher = Patcher(ledger, PACKAGE)
    try:
        for module, target, layer, hook in TARGETS:
            patcher.wrap(module, target, layer, hook)
        yield
    finally:
        patcher.restore()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Per-layer metrics that are exact counts: two traced runs at the same
#: seed must reproduce them exactly (``check_exact.py`` verifies it).
EXACT = tuple(f"{layer}.calls" for layer in LAYERS) + (
    "kernel.pchase.loads",
    "runner.fresh_runs",
    "validate.escalations",
    "jobs.discoveries",
)


def per_layer_metrics(ledger: Ledger, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric by name (zeros where a layer did no work).

    ``extra`` carries what only the workload can observe: runner stats,
    escalations, job-queue counters, fleet pool accounting, overhead.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ledger.self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = ledger.calls.get(layer, 0)
    c = ledger.counts
    out["kernel.pchase.loads"] = c["kernel.pchase.loads"]
    out["output.render.bytes"] = c["output.render.bytes"]
    out["store.put.bytes"] = c["store.put.bytes"]
    out["store.hit_ratio"] = _ratio(c["store.get.hits"], ledger.calls.get("store.get", 0))
    out["hotcache.hit_ratio"] = _ratio(c["hotcache.hits"], ledger.calls.get("hotcache", 0))
    for route in ROUTES + ("other",):
        out[f"serve.requests.{route}"] = c[f"serve.requests.{route}"]
    fresh = extra.get("runner.fresh_runs", 0)
    out["runner.fresh_runs"] = fresh
    out["runner.full_warm_ratio"] = _ratio(extra.get("runner.full_warms", 0), fresh)
    for name in (
        "validate.escalations",
        "jobs.discoveries",
        "jobs.coalesced",
        "peer.fallbacks",
        "fleet.worker_busy_s",
        "fleet.pool_idle_ratio",
        "trace_overhead_ratio",
    ):
        out[name] = extra.get(name, 0)
    out["unattributed_s"] = ledger.unattributed_s
    out["ledger.wall_s"] = ledger.wall_s
    return out


class RunnerStats:
    """Sums ``PChaseRunner.stats`` over every runner built during a pass.

    Only the stats dicts are kept, never the runners (which hold devices).
    """

    def __init__(self) -> None:
        self._stats: list[dict] = []
        self._undo = None

    def __enter__(self) -> "RunnerStats":
        from repro.pchase.runner import PChaseRunner

        original = PChaseRunner.__init__
        collected = self._stats

        def init(runner, *args, **kwargs):
            original(runner, *args, **kwargs)
            collected.append(runner.stats)

        PChaseRunner.__init__ = init
        self._undo = (PChaseRunner, original)
        return self

    def __exit__(self, *exc) -> None:
        cls, original = self._undo
        cls.__init__ = original

    def totals(self) -> dict[str, int]:
        return {
            "runner.fresh_runs": sum(s["fresh_runs"] for s in self._stats),
            "runner.full_warms": sum(s["full_warms"] for s in self._stats),
        }
