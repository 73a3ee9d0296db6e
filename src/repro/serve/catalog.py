"""Device catalog: the registry view over a :class:`DiscoveryCache`.

The store is content-addressed — keys are opaque SHA-256 digests — so
"what devices do we have reports for?" needs an enumeration that opens
the payloads and reads the identity back *out* of them.  The catalog
does exactly that: every whole-report entry becomes a
:class:`CatalogEntry` carrying the metadata a consumer filters by
(preset, vendor, microarchitecture, seed, schema version, recorded wall,
validation verdict), built on the store's ``entries()`` walk, which
skips corrupted or concurrently-pruned files silently.

Enumeration unpickles every entry, so a catalog listing is O(store).
Recomputing it per request kept ``GET /devices`` honest but made the
registry view (and ``/healthz``'s entry count) re-walk the cache
directory for every poll — with keep-alive connections (PR 9) a single
client can poll hundreds of times a second.  The catalog therefore
keeps a **short-TTL snapshot** (``ttl`` seconds; 0 restores the
recompute-always behaviour): within the window every request filters
the same walked list, and the service *invalidates* the snapshot the
moment a discovery lands a new entry
(:meth:`~repro.serve.server.TopologyService._entry_landed`), so the
only staleness a client can observe is a concurrent writer outside
this process — bounded by the TTL.

Snapshot state is guarded by a lock because handlers call
:meth:`DeviceCatalog.entries` from executor threads, not the loop.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from repro.cache.store import DiscoveryCache
from repro.core.report import TopologyReport

__all__ = ["CatalogEntry", "DeviceCatalog"]


@dataclass(frozen=True)
class CatalogEntry:
    """One cached whole-report discovery, described by its metadata."""

    key: str
    preset: str
    vendor: str
    microarchitecture: str
    model: str
    seed: int
    schema_version: int
    #: per-preset validation verdict ("pass"/"fail"), or "unvalidated"
    #: when the cached discovery ran without the validation pass.
    verdict: str
    #: smoothed measured discovery wall from the store's sidecar, or
    #: None when no cold run recorded one for this preset yet.
    wall_seconds: float | None
    benchmarks_executed: int
    elements: tuple[str, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "preset": self.preset,
            "vendor": self.vendor,
            "microarchitecture": self.microarchitecture,
            "model": self.model,
            "seed": self.seed,
            "schema_version": self.schema_version,
            "verdict": self.verdict,
            "wall_seconds": self.wall_seconds,
            "benchmarks_executed": self.benchmarks_executed,
            "elements": list(self.elements),
        }


class DeviceCatalog:
    """Filterable enumeration of a store's cached discoveries."""

    #: attributes a ``GET /devices`` query may filter on; values are
    #: compared as strings so ``seed=7`` and ``vendor=AMD`` read alike.
    FILTERS = ("preset", "vendor", "microarchitecture", "verdict", "seed")

    def __init__(
        self, store: DiscoveryCache, ttl: float = 0.0, clock=time.monotonic
    ) -> None:
        self.store = store
        #: seconds a walked snapshot stays valid; 0 disables caching.
        self.ttl = float(ttl)
        self._clock = clock
        self._lock = threading.Lock()
        self._snapshot: list[CatalogEntry] | None = None
        self._snapshot_at = 0.0
        self._count: int | None = None
        self._count_at = 0.0

    def invalidate(self) -> None:
        """Drop the snapshot (a discovery just landed an entry)."""
        with self._lock:
            self._snapshot = None
            self._count = None

    def entries(self, **filters: str) -> list[CatalogEntry]:
        """All cached discoveries matching ``filters``, deterministically
        ordered by (preset, seed, key).

        Unknown filter names raise ``ValueError`` (the HTTP layer turns
        that into a 400 — a typoed filter silently matching everything
        would be a lie, not a listing).
        """
        unknown = set(filters) - set(self.FILTERS)
        if unknown:
            raise ValueError(
                f"unknown catalog filter(s) {sorted(unknown)}; "
                f"supported: {', '.join(self.FILTERS)}"
            )
        entries = self._all_entries()
        # Filters always apply to the snapshot afresh — only the O(store)
        # walk is cached, never any one query's view of it.
        out = [
            entry
            for entry in entries
            if all(
                str(getattr(entry, name)) == str(wanted)
                for name, wanted in filters.items()
            )
        ]
        return out

    def entry_count(self) -> int:
        """The store's entry count, behind the same TTL as the listing.

        Counted directly on the store (not ``len(entries())``): the raw
        count includes files that do not decode as reports, such as
        entries from an older build, matching what ``/healthz`` reported
        before the snapshot existed.
        """
        if self.ttl <= 0:
            return self.store.entry_count()
        with self._lock:
            if self._count is not None and self._clock() - self._count_at < self.ttl:
                return self._count
        count = self.store.entry_count()
        with self._lock:
            self._count = count
            self._count_at = self._clock()
        return count

    def _all_entries(self) -> list[CatalogEntry]:
        """The walked (unfiltered, sorted) listing, TTL-cached."""
        if self.ttl > 0:
            with self._lock:
                if (
                    self._snapshot is not None
                    and self._clock() - self._snapshot_at < self.ttl
                ):
                    return self._snapshot
        walls = self.store.recorded_walls()
        out: list[CatalogEntry] = []
        for key, payload in self.store.entries():
            entry = self._entry_from_payload(key, payload, walls)
            if entry is None:  # not a report, so not a device
                continue
            out.append(entry)
        out.sort(key=lambda e: (e.preset, e.seed, e.key))
        if self.ttl > 0:
            with self._lock:
                self._snapshot = out
                self._snapshot_at = self._clock()
        return out

    def _entry_from_payload(
        self, key: str, payload: Any, walls: dict[str, float]
    ) -> CatalogEntry | None:
        """A catalog entry, or None when the payload is not a report."""
        if not isinstance(payload, dict):
            return None
        report = payload.get("report")
        if not isinstance(report, TopologyReport):
            return None
        vendor = report.general.vendor
        model = report.general.model
        # The simulated runtime names devices "<VENDOR> <spec name>" and
        # spec names equal preset names — strip the vendor prefix to
        # recover the preset key the CLI and the fleet schedule use.
        preset = model[len(vendor) + 1 :] if model.startswith(f"{vendor} ") else model
        verdict = (
            "unvalidated" if report.validation is None else report.validation.verdict
        )
        return CatalogEntry(
            key=key,
            preset=preset,
            vendor=vendor,
            microarchitecture=report.general.microarchitecture,
            model=model,
            seed=int(report.seed),
            schema_version=self.store.version,
            verdict=verdict,
            wall_seconds=walls.get(preset),
            benchmarks_executed=int(report.runtime.benchmarks_executed),
            elements=tuple(report.memory),
        )
