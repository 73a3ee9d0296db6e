"""Content-addressed persistent caching of discovery results.

The paper positions MT4G as a tool that runs *repeatedly* — per device,
per driver update, per fleet — yet each run re-measures from scratch.
This package amortises that repetition the way microbenchmark-dissection
and auto-tuning practice do: results are memoised on disk under a
content-addressed key (SHA-256 over the canonical serialisation of
everything that determines the result — device spec, p-chase
configuration, seed, carveout configuration, targets, a schema-version
salt), so a re-run with identical inputs is a hash lookup instead of a
measurement campaign, and *any* change to an input silently produces a
fresh key (no invalidation protocol to get wrong).

Two entry granularities are cached:

* whole :class:`~repro.core.report.TopologyReport` discoveries
  (``MT4G.discover``), including the raw sweep artefacts and the
  measured-size state the validation escalation path depends on;
* individual escalation re-measurements (one per ``seed + offset``
  per attribute), so re-validating a fleet is near-free even when the
  whole-report entry misses.

The store (:class:`~repro.cache.store.DiscoveryCache`) is safe for
concurrent fleet workers: entries are immutable once written and land
via atomic rename, a corrupted or truncated entry degrades to a silent
miss + re-measure, and a cache failure of any kind never sinks a run.
A ``stats.json`` sidecar records per-preset discovery walls, which
:func:`repro.validate.fleet.discover_fleet` feeds into its cost-aware
(longest-processing-time-first) scheduling.

Long-lived readers (``mt4g serve``, fleet and proxy workers) read
through :class:`~repro.cache.tiers.TieredCache`: a byte-bounded memory
LRU of entry blobs over the disk store, with the ring's peers below
disk once an instance joins a ring.
"""

from repro.cache.costs import estimate_discovery_cost, schedule_order
from repro.cache.keys import (
    SCHEMA_VERSION,
    canonical_json,
    device_fingerprint,
    digest,
    measurement_key,
    report_key,
    spec_fingerprint,
)
from repro.cache.ring import HashRing, normalize_node
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import PeerTier, TieredCache, build_worker_cache

__all__ = [
    "DiscoveryCache",
    "HashRing",
    "PeerTier",
    "SCHEMA_VERSION",
    "TieredCache",
    "build_worker_cache",
    "normalize_node",
    "canonical_json",
    "device_fingerprint",
    "digest",
    "estimate_discovery_cost",
    "measurement_key",
    "report_key",
    "schedule_order",
    "spec_fingerprint",
]
