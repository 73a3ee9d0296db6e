"""Topology serving subsystem: catalog + async HTTP query service.

The paper's Section VI consumers (performance models, GPUscout,
sys-sage) need *programmatic, repeated* access to topology reports — and
the ROADMAP's north star asks for a system that serves heavy traffic.
This package turns the content-addressed :class:`~repro.cache.
DiscoveryCache` plus the fleet machinery into that long-lived service:

* :mod:`repro.serve.catalog` — the device registry over the store
  (enumerate cached discoveries with metadata, filter by attribute);
* :mod:`repro.serve.server` / :mod:`repro.serve.handlers` — the
  stdlib-asyncio HTTP API (``/devices``, report format negotiation,
  ``/compare`` with the fleet judge, ``/diff`` drift detection with a
  graph-keyed ``?view=graph``, ``/graph`` canonical topology graphs,
  ``/discover`` + ``/jobs``, ``/healthz``, ``/metrics``);
* :mod:`repro.serve.jobs` — the single-flight discovery queue: N
  concurrent cold requests for one (preset, config, seed) cost exactly
  one discovery, admitted longest-first into the worker pool; with a
  consistent-hash ring attached, keys owned by another instance proxy
  there (``fetch_report_for_job``) so the stampede protection holds
  across the whole serving fleet;
* :mod:`repro.serve.diff` — structural report-diff with tolerance
  classification (jitter vs drift);
* :mod:`repro.serve.hotcache` — the hot-report render cache: a
  byte-bounded LRU of *pre-rendered response bytes* keyed
  ``(report_key, format)``, safe by content-addressing, making a warm
  keep-alive report read a dict lookup plus a socket write;
* :mod:`repro.serve.metrics` — hit/miss/inflight/latency counters, per
  tier on a tiered store, plus connection-lifecycle and hot-cache
  counters; JSON and Prometheus text exposition.

Instances serve through one :class:`~repro.cache.tiers.TieredCache`
(memory LRU → disk → ring peers, the peers attached once the instance
joins a ring): ``mt4g serve --peers`` shards the keyspace, and
read-only ``--no-discover`` replicas pull misses from the owning
writable peer over ``GET /store/{key}`` instead of 404ing.

Entry point: ``mt4g serve`` (see :mod:`repro.core.cli`).
"""

from repro.serve.catalog import CatalogEntry, DeviceCatalog
from repro.serve.diff import AttributeDelta, ReportDiff, diff_reports
from repro.serve.handlers import HTTPError, HTTPRequest, HTTPResponse
from repro.serve.hotcache import HotReportCache
from repro.serve.jobs import DiscoveryJob, JobQueue, fetch_report_for_job
from repro.serve.metrics import ServiceMetrics, to_prometheus
from repro.serve.server import TopologyService, run_service

__all__ = [
    "AttributeDelta",
    "CatalogEntry",
    "DeviceCatalog",
    "DiscoveryJob",
    "HTTPError",
    "HTTPRequest",
    "HTTPResponse",
    "HotReportCache",
    "JobQueue",
    "ReportDiff",
    "ServiceMetrics",
    "TopologyService",
    "diff_reports",
    "fetch_report_for_job",
    "run_service",
    "to_prometheus",
]
