"""Hot-report render cache: pre-rendered response bytes above the store.

The tiered store (PR 7) already makes a warm report read cheap — a
memory-tier hit instead of disk I/O — but every ``GET
/devices/{preset}/report`` still *unpickled* a full
:class:`~repro.core.report.TopologyReport` and re-ran a writer
(json/markdown/csv) over it, and every ``GET /graph/{preset}`` rebuilt
and re-serialised the canonical graph.  For a service sitting on a hot
path, that is the whole request cost.

:class:`HotReportCache` removes it: a byte-bounded LRU keyed
``(report_key, kind)`` holding the *final response bytes* (plus their
content type) per rendered format.  A warm request becomes a dict
lookup and a socket write — no unpickle, no renderer.

Why this is safe: report keys are **content-addressed** (the SHA-256 of
everything result-determining, PR 4), so the bytes rendered for a key
can never legitimately change — a hit is never stale by construction,
which is also why served bytes stay byte-identical to
``mt4g --no-cache -j`` (CI-pinned).  The cache is still invalidated
whenever a discovery lands an entry for its key
(:meth:`~repro.serve.server.TopologyService._entry_landed`): not to
refresh content, but as healing hygiene — a re-landed entry after
store-corruption self-repair drops any render made from the damaged
read path.

Stale fallback responses (``X-MT4G-Stale``) are never cached: staleness
must be re-evaluated — and re-marked — on every request.

The cache is event-loop-confined (handlers touch it on the loop
thread); counters feed ``GET /metrics``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.cache.lru import LRU
from repro.obs import trace as _trace

__all__ = ["DEFAULT_HOT_CACHE_BYTES", "HotReportCache"]

#: Default byte budget for pre-rendered responses (``mt4g serve
#: --hot-cache-bytes`` overrides; 0 disables).  Reports render to tens
#: of KiB, so the default holds on the order of a thousand renders.
DEFAULT_HOT_CACHE_BYTES = 64 << 20


class HotReportCache:
    """Byte-bounded LRU of pre-rendered response bodies.

    >>> cache = HotReportCache(max_bytes=1 << 20)
    >>> cache.put("a" * 64, "report:json", b'{"x": 1}\\n', "application/json")
    True
    >>> cache.get("a" * 64, "report:json")
    (b'{"x": 1}\\n', 'application/json')
    >>> cache.get("a" * 64, "report:csv") is None
    True
    """

    def __init__(self, max_bytes: int = DEFAULT_HOT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        #: (report key, render kind) -> (body bytes, content type).
        self._renders = LRU(max_bytes=self.max_bytes, weigh=lambda render: len(render[0]))
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._renders)

    @property
    def bytes_used(self) -> int:
        return self._renders.bytes

    @property
    def evictions(self) -> int:
        return self._renders.evictions

    def get(self, key: str, kind: str) -> "tuple[bytes, str] | None":
        """The rendered ``(body, content_type)`` for ``(key, kind)``."""
        ctx = _trace.CURRENT.get()  # None = tracing off: no other cost
        start = perf_counter() if ctx is not None else 0.0
        entry = self._renders.get((key, kind))
        if entry is None:
            self.misses += 1
            if ctx is not None:
                _trace.record(
                    ctx, "hotcache.lookup", start, outcome="miss", kind=kind
                )
            return None
        self.hits += 1
        if ctx is not None:
            _trace.record(ctx, "hotcache.lookup", start, outcome="hit", kind=kind)
        return entry

    def put(self, key: str, kind: str, body: bytes, content_type: str) -> bool:
        """Cache one rendered response; evict LRU renders past the budget.

        A body larger than the whole budget is refused (it would evict
        everything for one entry that itself cannot stay).
        """
        if not self._renders.put((key, kind), (body, content_type)):
            return False
        self.stores += 1
        return True

    def invalidate(self, key: str) -> int:
        """Drop every rendered format of ``key``; returns renders dropped."""
        doomed = [entry for entry in self._renders.keys() if entry[0] == key]
        for entry in doomed:
            self._renders.pop(entry)
        self.invalidations += len(doomed)
        return len(doomed)

    def stats(self) -> dict[str, Any]:
        """The ``GET /metrics`` payload fragment for this cache."""
        return {
            "max_bytes": self.max_bytes,
            "bytes": self._renders.bytes,
            "entries": len(self._renders),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self._renders.evictions,
            "invalidations": self.invalidations,
        }
