"""Command-line interface mirroring the real ``mt4g`` binary.

Artifact appendix flags reproduced: ``-j`` (JSON file), ``-p`` (Markdown
report), ``-o`` (store raw sweep data: the per-benchmark size grids,
reduced latency vectors and per-run statistics), ``-q`` (quiet: JSON to
stdout only, the mode the paper used for its timing runs), ``--mem``
(restrict to one memory element, footnote 18), plus the cache-carveout
option of footnote 17.  The simulator-specific additions are ``--gpu``
(which preset to analyse — the stand-in for "which machine am I running
on"), ``--seed``, ``--validate`` (the post-hoc validation pass), the
``mt4g fleet`` subcommand that discovers many presets concurrently and
prints a cross-device comparison matrix, the ``mt4g serve`` subcommand
that runs the long-lived topology query service (catalog + reports +
compare/diff over the discovery cache, with single-flight cold-request
coalescing), the ``mt4g graph`` subcommand that renders the canonical
topology graph (JSON or Graphviz DOT, byte-identical to what
``GET /graph/{preset}`` serves, with opt-in ``--host`` context), and
the discovery cache flags ``--cache-dir`` (default ``~/.cache/mt4g``) /
``--no-cache`` — repeat runs with identical inputs are served from the
content-addressed store byte-identically instead of re-measured.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro.cache.store import DEFAULT_PRUNE_BYTES, DiscoveryCache
from repro.core.output.csv_out import write_csv
from repro.core.output.json_out import (
    to_fleet_json,
    to_json,
    write_fleet_json,
    write_json,
    write_raw_json,
)
from repro.core.output.markdown import write_markdown
from repro.core.tool import AMD_ELEMENTS, MT4G, NVIDIA_ELEMENTS
from repro.errors import ReproError
from repro.gpusim.device import SimulatedGPU
from repro.gpuspec.presets import available_presets, get_preset
from repro.gpuspec.spec import Vendor

__all__ = [
    "main",
    "build_parser",
    "build_fleet_parser",
    "fleet_main",
    "build_graph_parser",
    "graph_main",
    "build_serve_parser",
    "serve_main",
    "resolve_cache_limit",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mt4g",
        description="Auto-discover GPU compute and memory topologies (simulated).",
    )
    parser.add_argument(
        "--gpu",
        default="H100-80",
        help="GPU preset to analyse (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available GPU presets and exit"
    )
    parser.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    parser.add_argument(
        "--cache-config",
        default="PreferL1",
        choices=("PreferL1", "PreferShared", "PreferEqual"),
        help="NVIDIA L1/shared carveout (cudaDeviceSetCacheConfig)",
    )
    parser.add_argument(
        "--mem",
        action="append",
        metavar="ELEMENT",
        help="restrict discovery to one or more memory elements (repeatable)",
    )
    parser.add_argument(
        "-j",
        "--json",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="write the JSON report to FILE (default <GPU>.json)",
    )
    parser.add_argument(
        "-p",
        "--markdown",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="write a Markdown report to FILE (default <GPU>.md)",
    )
    parser.add_argument(
        "--csv",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="write the legacy CSV report to FILE (default <GPU>.csv)",
    )
    parser.add_argument(
        "-o",
        "--raw",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="store raw sweep data (sizes/reductions) to FILE (default <GPU>_raw.json)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only the JSON report"
    )
    _add_cache_args(parser)
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the post-hoc validation pass (plausibility checks, "
        "cross-checks, confidence recalibration, escalation); "
        "exits 2 on a failed verdict",
    )
    parser.add_argument(
        "--flops",
        action="store_true",
        help="extension: benchmark FLOPS per datatype incl. tensor engines",
    )
    parser.add_argument(
        "--lowlevel-bandwidth",
        action="store_true",
        help="extension: benchmark first-level cache bandwidth",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the discovery: per-element per-phase self time and "
        "p-chase run counts, printed to stderr after the run (rows sum "
        "to the wall time; report bytes on stdout are unchanged)",
    )
    return parser


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("MT4G_CACHE_DIR", "~/.cache/mt4g"),
        metavar="DIR",
        help="content-addressed discovery cache directory; re-runs with "
        "identical inputs are served from here byte-identically "
        "($MT4G_CACHE_DIR overrides; default: ~/.cache/mt4g)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the discovery cache (always measure)",
    )
    parser.add_argument(
        "--cache-limit",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU-prune the on-disk cache to this many bytes after a run "
        "(precedence: this flag, then $MT4G_CACHE_LIMIT_BYTES, then the "
        "2 GiB default)",
    )


def resolve_cache_limit(args: argparse.Namespace) -> int:
    """Disk-cache byte budget: ``--cache-limit`` > env > 2 GiB default."""
    limit = getattr(args, "cache_limit", None)
    if limit is not None:
        return limit
    try:
        return int(os.environ.get("MT4G_CACHE_LIMIT_BYTES", DEFAULT_PRUNE_BYTES))
    except ValueError:
        return DEFAULT_PRUNE_BYTES


def _cache_from_args(args: argparse.Namespace) -> DiscoveryCache | None:
    if args.no_cache:
        return None
    return DiscoveryCache(Path(args.cache_dir).expanduser())


def _prune_cache(store: DiscoveryCache | None, args: argparse.Namespace) -> None:
    """Opportunistic LRU prune after a run: the default-on cache must
    not grow without bound under seed/config sweeps."""
    if store is None:
        return
    store.prune(resolve_cache_limit(args))


def _default_path(arg: str | None, gpu: str, suffix: str) -> Path | None:
    if arg is None:
        return None
    return Path(arg) if arg else Path(f"{gpu}{suffix}")


def _profiled_discover(tool: MT4G, validate: bool):
    """Discover under a throwaway trace context, then print the folded
    phase table to stderr (stdout stays reserved for report bytes)."""
    from time import perf_counter

    from repro.obs import trace
    from repro.obs.profile import fold

    root = trace.format_traceparent(trace.new_trace_id(), trace.new_span_id())
    with trace.worker_trace(root) as ctx:
        start = perf_counter()
        report = tool.discover(validate=validate)
        trace.complete(ctx, "mt4g.discover", start)
    table = fold(ctx.tracer.drain())
    rows = table["rows"]
    lines = [
        f"discovery profile: {table['wall_s']:.3f}s wall, "
        f"{sum(r.get('runs', 0) for r in rows)} p-chase runs "
        f"({sum(r.get('seconds', 0.0) for r in rows):.3f}s); self time per phase",
        f"{'element':<18} {'phase':<24} {'self_s':>8} {'calls':>5} {'runs':>5} "
        f"{'pchase_s':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['element']:<18} {r['phase']:<24} {r['wall_s']:>8.4f} "
            f"{r['calls']:>5} {r.get('runs', 0):>5} {r.get('seconds', 0.0):>8.4f}"
        )
    print("\n".join(lines), file=sys.stderr)
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "fleet":
        return fleet_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "graph":
        return graph_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in available_presets(include_testing=True):
            print(name)
        return 0

    try:
        spec = get_preset(args.gpu)
        device = SimulatedGPU(spec, seed=args.seed, cache_config=args.cache_config)
        valid = NVIDIA_ELEMENTS if spec.vendor is Vendor.NVIDIA else AMD_ELEMENTS
        targets = None
        if args.mem:
            targets = set(args.mem)
            unknown = targets - set(valid)
            if unknown:
                parser.error(
                    f"unknown --mem element(s) {sorted(unknown)}; "
                    f"valid: {', '.join(valid)}"
                )
        extensions = set()
        if args.flops:
            extensions.add("flops")
        if args.lowlevel_bandwidth:
            extensions.add("lowlevel_bandwidth")
        cache = _cache_from_args(args)
        tool = MT4G(device, targets=targets, extensions=extensions, cache=cache)
        if not args.quiet:
            print(f"# analysing {spec.name} ({spec.vendor.value}), seed {args.seed}", file=sys.stderr)
        if args.profile:
            report = _profiled_discover(tool, args.validate)
        else:
            report = tool.discover(validate=args.validate)
        cache_meta = report.meta.get("cache")
        if cache_meta and not args.quiet:
            print(
                f"# cache {cache_meta['status']} "
                f"(key {cache_meta['key'][:12]}…, store {cache_meta['store']})",
                file=sys.stderr,
            )
    except ReproError as exc:
        print(f"mt4g: error: {exc}", file=sys.stderr)
        return 1
    _prune_cache(cache, args)

    print(to_json(report))

    json_path = _default_path(args.json, spec.name, ".json")
    if json_path:
        write_json(report, json_path)
        if not args.quiet:
            print(f"# JSON report -> {json_path}", file=sys.stderr)
    md_path = _default_path(args.markdown, spec.name, ".md")
    if md_path:
        write_markdown(report, md_path)
        if not args.quiet:
            print(f"# Markdown report -> {md_path}", file=sys.stderr)
    csv_path = _default_path(args.csv, spec.name, ".csv")
    if csv_path:
        write_csv(report, csv_path)
        if not args.quiet:
            print(f"# CSV report -> {csv_path}", file=sys.stderr)
    raw_path = _default_path(args.raw, spec.name, "_raw.json")
    if raw_path:
        raw = {
            "schema": "mt4g-repro-raw/1",
            "gpu": spec.name,
            "seed": args.seed,
            "benchmarks_executed": report.runtime.benchmarks_executed,
            "per_benchmark_seconds": report.runtime.per_benchmark_seconds,
            # The actual sweep artefacts the help text promises: per-
            # benchmark size grids, reduced latency vectors, raw per-size
            # min/mean/max and per-run statistics, keyed element.attribute.
            "sweeps": tool.raw_data,
        }
        write_raw_json(raw, raw_path)
        if not args.quiet:
            print(f"# raw data -> {raw_path}", file=sys.stderr)
    # Mirror the fleet subcommand: a failed validation verdict is a
    # non-zero exit so CI pipelines need not parse the JSON.
    if args.validate and not report.validation.passed:
        if not args.quiet:
            print(
                f"# validation FAILED: {', '.join(report.validation.failures())}",
                file=sys.stderr,
            )
        return 2
    return 0


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mt4g fleet",
        description=(
            "Discover many GPU presets concurrently and print a "
            "cross-device comparison matrix with validation verdicts."
        ),
        epilog=(
            "exit codes: 0 all presets discovered and validated; "
            "1 usage/configuration error; "
            "2 validation disagreement (a preset's verdict failed or the "
            "cross-device judge found an inconsistency); "
            "3 worker/infrastructure failure (a discovery errored, timed "
            "out, or its worker process died — takes precedence over 2)"
        ),
    )
    parser.add_argument(
        "--gpu",
        action="append",
        metavar="PRESET",
        help="preset to include (repeatable; default: the ten paper GPUs)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="include the synthetic testing presets as well",
    )
    parser.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: one per preset, capped by CPUs)",
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="run in-process, one preset after another (the baseline)",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the per-preset validation pass",
    )
    parser.add_argument(
        "-j",
        "--json",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="write the fleet JSON (matrix + all reports) to FILE "
        "(default fleet.json)",
    )
    parser.add_argument(
        "-p",
        "--markdown",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="write the comparison matrix to FILE (default fleet.md)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="print only the fleet JSON",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="worker attempts per preset for transient failures "
        "(default: 3; 1 disables retrying)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-preset wall budget, queue wait included "
        "(default: unbounded)",
    )
    _add_cache_args(parser)
    return parser


def fleet_main(argv: list[str] | None = None) -> int:
    """``mt4g fleet``: concurrent multi-preset discovery + comparison."""
    # Imported here so plain single-device runs never pay for the
    # process-pool machinery.
    from repro.validate.fleet import discover_fleet

    parser = build_fleet_parser()
    args = parser.parse_args(argv)
    presets = args.gpu or list(available_presets(include_testing=args.all))
    if args.retries is not None and args.retries < 1:
        print("mt4g fleet: error: --retries must be >= 1", file=sys.stderr)
        return 1
    retry = None
    if args.retries is not None:
        from repro.faults.retry import DEFAULT_FLEET_RETRY

        retry = replace(DEFAULT_FLEET_RETRY, attempts=args.retries)
    try:
        result = discover_fleet(
            presets,
            seed=args.seed,
            jobs=1 if args.sequential else args.jobs,
            validate=not args.no_validate,
            cache_dir=None
            if args.no_cache
            else Path(args.cache_dir).expanduser(),
            retry=retry,
            deadline_seconds=args.deadline,
        )
    except ReproError as exc:
        print(f"mt4g fleet: error: {exc}", file=sys.stderr)
        return 1
    if not args.no_cache:
        _prune_cache(DiscoveryCache(Path(args.cache_dir).expanduser()), args)
    if args.quiet:
        print(to_fleet_json(result))
    else:
        print(result.to_markdown())
    json_path = _default_path(args.json, "fleet", ".json")
    if json_path:
        write_fleet_json(result, json_path)
        if not args.quiet:
            print(f"# fleet JSON -> {json_path}", file=sys.stderr)
    md_path = _default_path(args.markdown, "fleet", ".md")
    if md_path:
        md_path.parent.mkdir(parents=True, exist_ok=True)
        md_path.write_text(result.to_markdown(), encoding="utf-8")
        if not args.quiet:
            print(f"# fleet matrix -> {md_path}", file=sys.stderr)
    # Two distinct non-zero exits so CI can tell "the measurements
    # disagree" (2) from "the machinery broke" (3) without parsing JSON;
    # infrastructure takes precedence — a half-run fleet's verdicts are
    # not evidence either way.
    entries_ok = all(e.verdict in ("pass", "unvalidated") for e in result.entries)
    fleet_ok = result.validation is None or result.validation.passed
    if not fleet_ok and not args.quiet:
        print(
            "# fleet validation FAILED: "
            + ", ".join(result.validation.failures()),
            file=sys.stderr,
        )
    if result.infrastructure_failed:
        if not args.quiet:
            kinds = ", ".join(
                f"{preset}: {kind}"
                for preset, kind in sorted(result.error_kinds().items())
            )
            print(f"# fleet worker/infrastructure FAILURE: {kinds}", file=sys.stderr)
        return 3
    return 0 if entries_ok and fleet_ok else 2


def build_graph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mt4g graph",
        description=(
            "Render the canonical topology graph of one preset (typed "
            "nodes/edges, canonical ordering).  The JSON bytes equal "
            "GET /graph/{preset} on a service warmed from the same "
            "cache — the graph is a pure function of report content."
        ),
    )
    parser.add_argument(
        "--gpu",
        default="H100-80",
        help="GPU preset to render (see mt4g --list)",
    )
    parser.add_argument("--seed", type=int, default=0, help="measurement noise seed")
    parser.add_argument(
        "--cache-config",
        default="PreferL1",
        choices=("PreferL1", "PreferShared", "PreferEqual"),
        help="NVIDIA L1/shared carveout (cudaDeviceSetCacheConfig)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="discover with the post-hoc validation pass (changes the "
        "cache key, so it must match how a peer service was warmed)",
    )
    parser.add_argument(
        "--format",
        default="json",
        choices=("json", "dot"),
        help="rendering: canonical JSON (default) or Graphviz DOT",
    )
    parser.add_argument(
        "--host",
        action="store_true",
        help="attach best-effort host context (CPU/NUMA/PCIe from /proc "
        "and /sys); collectors that cannot read degrade silently and "
        "the graph records why under meta.host_degraded — host facts "
        "are per-machine, so this breaks byte-identity with a served "
        "graph by design",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="write the rendering to FILE instead of stdout",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress progress messages"
    )
    _add_cache_args(parser)
    return parser


def graph_main(argv: list[str] | None = None) -> int:
    """``mt4g graph``: the canonical topology graph, offline."""
    # Imported here so plain discovery runs never pay for the graph
    # machinery (mirrors the fleet/serve subcommands' lazy imports).
    from repro.graph import build_graph, collect_host, to_dot, to_graph_json

    parser = build_graph_parser()
    args = parser.parse_args(argv)
    try:
        spec = get_preset(args.gpu)
        device = SimulatedGPU(spec, seed=args.seed, cache_config=args.cache_config)
        cache = _cache_from_args(args)
        tool = MT4G(device, cache=cache)
        if not args.quiet:
            print(
                f"# graphing {spec.name} ({spec.vendor.value}), seed {args.seed}",
                file=sys.stderr,
            )
        report = tool.discover(validate=args.validate)
    except ReproError as exc:
        print(f"mt4g graph: error: {exc}", file=sys.stderr)
        return 1
    _prune_cache(cache, args)
    host = None
    if args.host:
        host = collect_host()
        if host.degraded and not args.quiet:
            print(
                "# host collectors degraded: "
                + ", ".join(sorted(host.degraded)),
                file=sys.stderr,
            )
    graph = build_graph(report, host=host)
    rendered = to_graph_json(graph) if args.format == "json" else to_dot(graph)
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"# graph -> {path}", file=sys.stderr)
    else:
        print(rendered)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    # The service's own defaults, so flags and embedders never disagree.
    from repro.serve.hotcache import DEFAULT_HOT_CACHE_BYTES
    from repro.serve.jobs import POOL_MODE
    from repro.serve.server import CATALOG_TTL_SECONDS, KEEP_ALIVE_TIMEOUT_SECONDS

    parser = argparse.ArgumentParser(
        prog="mt4g serve",
        description=(
            "Run the long-lived topology query service over the discovery "
            "cache: device catalog, report serving with format "
            "negotiation, cross-device compare, structural diff, and "
            "single-flight background discovery."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8734,
        help="TCP port to bind; 0 picks an ephemeral port (default: 8734)",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("MT4G_CACHE_DIR", "~/.cache/mt4g"),
        metavar="DIR",
        help="discovery cache directory the service serves from "
        "($MT4G_CACHE_DIR overrides; default: ~/.cache/mt4g)",
    )
    parser.add_argument(
        "--no-discover",
        action="store_true",
        help="read-only mode: serve only what the cache already holds; "
        "cold requests are 404s and POST /discover is rejected",
    )
    parser.add_argument(
        "--cache-config",
        default="PreferL1",
        choices=("PreferL1", "PreferShared", "PreferEqual"),
        help="NVIDIA L1/shared carveout the served report keys assume — "
        "must match how the store was warmed (default: PreferL1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="discovery worker processes (default: CPU count)",
    )
    parser.add_argument(
        "--peers",
        action="append",
        default=None,
        metavar="URL[,URL...]",
        help="peer instance base URLs forming a consistent-hash ring "
        "(repeatable or comma-separated); report keys are sharded "
        "across the ring, local misses pull from the owning peer, and "
        "cold discoveries route to the key's owner",
    )
    parser.add_argument(
        "--advertise",
        default=None,
        metavar="URL",
        help="base URL peers reach this instance under on the ring "
        "(default: http://<bound host>:<bound port>)",
    )
    parser.add_argument(
        "--cache-limit",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU-prune the disk tier to this many bytes after each "
        "completed discovery (precedence: this flag, then "
        "$MT4G_CACHE_LIMIT_BYTES, then the 2 GiB default)",
    )
    parser.add_argument(
        "--keep-alive-timeout",
        type=float,
        default=KEEP_ALIVE_TIMEOUT_SECONDS,
        metavar="SECONDS",
        help="idle seconds a keep-alive connection is held open for its "
        "next request; 0 disables keep-alive entirely, closing after "
        "every response (default: %(default)g)",
    )
    parser.add_argument(
        "--hot-cache-bytes",
        type=int,
        default=DEFAULT_HOT_CACHE_BYTES,
        metavar="BYTES",
        help="byte budget for the hot-report render cache of "
        "pre-rendered response bodies; 0 disables it "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--pool",
        default=POOL_MODE,
        choices=("warm", "lazy"),
        help="discovery worker-pool lifecycle: 'warm' spawns and "
        "pre-warms the persistent pool at service start, 'lazy' "
        "creates it on the first cold request (default: %(default)s)",
    )
    parser.add_argument(
        "--catalog-ttl",
        type=float,
        default=CATALOG_TTL_SECONDS,
        metavar="SECONDS",
        help="seconds the /devices and /healthz catalog snapshot stays "
        "valid before the store is re-walked; 0 re-walks per request "
        "(default: %(default)g)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable request tracing: accept/emit W3C traceparent, record "
        "spans across handler, store tiers, job queue, pool workers and "
        "peer fetches into an in-memory ring served at GET /traces and "
        "GET /traces/{id}",
    )
    parser.add_argument(
        "--trace-slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="with --trace: emit any completed trace slower than MS as a "
        "structured JSON log line (default: off)",
    )
    parser.add_argument(
        "--log-format",
        choices=("json", "text"),
        default=None,
        help="structured access log: one line per request (method, route, "
        "status, duration, trace id, connection reuse) plus write/framing "
        "error events (default: no access log)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the startup banner",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """``mt4g serve``: the asyncio topology query service."""
    # Imported here so plain discovery runs never pay for the serving
    # machinery (mirrors the fleet subcommand's lazy import).
    import asyncio

    from repro.cache.ring import normalize_node
    from repro.serve.server import run_service

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    peers: list[str] = []
    for chunk in args.peers or ():
        peers.extend(p.strip() for p in chunk.split(",") if p.strip())
    try:
        peers = [normalize_node(p) for p in peers]
    except ValueError as exc:
        print(f"mt4g serve: error: --peers: {exc}", file=sys.stderr)
        return 1
    try:
        asyncio.run(
            run_service(
                Path(args.cache_dir).expanduser(),
                host=args.host,
                port=args.port,
                read_only=args.no_discover,
                cache_config=args.cache_config,
                max_workers=args.jobs,
                quiet=args.quiet,
                peers=peers or None,
                advertise=args.advertise,
                cache_limit=resolve_cache_limit(args),
                keep_alive_timeout=args.keep_alive_timeout,
                hot_cache_bytes=args.hot_cache_bytes,
                catalog_ttl=args.catalog_ttl,
                pool_mode=args.pool,
                trace=args.trace,
                trace_slow_ms=args.trace_slow_ms,
                log_format=args.log_format,
            )
        )
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # bind failure: port in use, bad interface
        print(f"mt4g serve: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
