"""The tier stack: per-process memory → local disk → remote peers.

One :class:`~repro.cache.store.DiscoveryCache` directory is both the
store and the scale ceiling; this module turns it into one tier of a
stack.  Reads fall through the tiers in order and **promote** on the way
back (a disk hit lands in memory, a peer hit lands in memory *and*
disk), so every tier self-heals from the tiers below it; writes land in
every tier at once (the peer tier refuses them: peers pull).

What moves between tiers is the store's *wrapped entry blob* — the exact
bytes :mod:`repro.cache.codec` encodes and the disk tier writes,
embedding the key and schema salt — never a re-serialisation.  That is
what keeps the standing invariant cheap to maintain: a report served
out of memory, off disk, or fetched
from a peer is byte-identical to a fresh ``mt4g --no-cache -j``, because
at no point does any tier re-encode the payload.

The tiers:

* :class:`MemoryTier` — bounded-bytes in-process LRU over pre-pickled
  blobs.  Unpickles per get (callers can mutate their copy freely) and
  validates the embedded address, so a corrupted slot degrades to a miss
  exactly like a corrupted file does;
* :class:`DiskTier` — the existing :class:`DiscoveryCache`, unchanged:
  atomic-rename writes, corruption-degrades-to-miss, ``store.*`` fault
  sites, the stats sidecar;
* :class:`PeerTier` — an HTTP client over other instances'
  ``GET /store/{key}`` route, routed by the consistent-hash ring
  (:mod:`repro.cache.ring`), with a bounded
  :class:`~repro.faults.retry.RetryPolicy`, a fetch timeout, and a
  per-peer :class:`~repro.faults.Breaker` so one dead replica cannot
  stall every read.

Every tier keeps the same counter quartet the bare store does (hits /
misses / stores / degradations), and the composed
:class:`TieredCache` exposes both the aggregate view (drop-in for code
that reads ``store.hits``) and the per-tier breakdown (the ``tiers``
key of :meth:`TieredCache.stats`, the ``GET /metrics`` store section).

New chaos surface: ``tier.memory`` (labelled by key) and ``tier.peer``
(labelled by peer URL) join the ``store.*`` injection sites, with the
passive ``corrupt`` kind corrupting the blob in flight so the
degradation paths above are deterministically exercisable.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Iterator
from urllib import error as _urlerror
from urllib import request as _urlrequest
from urllib.parse import quote

from repro import faults
from repro.cache import codec
from repro.cache import keys as _keys
from repro.cache.lru import LRU
from repro.cache.ring import HashRing
from repro.cache.store import (
    DEGRADATION_KINDS,
    DEFAULT_PRUNE_BYTES,
    DiscoveryCache,
    counter_stats,
)
from repro.errors import TransientError
from repro.faults.retry import RetryPolicy
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_PEER_RETRY",
    "DEFAULT_PEER_TIMEOUT",
    "CacheTier",
    "DiskTier",
    "MemoryTier",
    "PeerTier",
    "TieredCache",
    "build_worker_cache",
    "peer_fetch",
]

#: Default memory-tier budget.  Reports pickle to ~100-200 KiB, so this
#: holds on the order of a thousand hot reports — plenty for 14 presets
#: times a realistic seed spread — without mattering next to the model
#: weights of anything else on the host.
DEFAULT_MEMORY_BYTES = 256 << 20  # 256 MiB

#: Per-request timeout for a peer fetch.  A peer serving from its own
#: memory or disk answers in milliseconds; anything slower is a peer in
#: trouble, and the local fallback (or next candidate) is the better use
#: of the caller's time.
DEFAULT_PEER_TIMEOUT = 5.0

#: Retry policy for one peer candidate.  Deliberately tighter than the
#: serve-side discovery retry: a fetch is cheap to re-route, so fail
#: over to the next candidate (or to a local discovery) quickly.
DEFAULT_PEER_RETRY = RetryPolicy(attempts=2, base_delay=0.05, max_delay=0.25)


def peer_fetch(
    node: str,
    key: str,
    *,
    timeout: float = DEFAULT_PEER_TIMEOUT,
    discover: bool = False,
    preset: str | None = None,
    seed: int | None = None,
    validate: bool | None = None,
    headers: "dict[str, str] | None" = None,
) -> tuple[int, bytes]:
    """One ``GET {node}/store/{key}`` — ``(status, body)``.

    With ``discover=True`` the owner is asked to *produce* the entry if
    it is cold (the cross-instance single-flight proxy path); the query
    carries everything the owner needs to run the discovery itself.

    Transport-level failures (refused, reset, timeout) raise ``OSError``
    — which :func:`repro.errors.is_transient` classifies as retryable —
    while HTTP error statuses return normally as ``(status, body)`` so
    the caller can distinguish an authoritative 404 from a sick peer.
    """
    url = f"{node}/store/{key}"
    params: list[str] = []
    if discover:
        params.append("discover=1")
        if preset is not None:
            params.append(f"preset={quote(preset, safe='')}")
        if seed is not None:
            params.append(f"seed={int(seed)}")
        if validate is not None:
            params.append(f"validate={'1' if validate else '0'}")
    if params:
        url = f"{url}?{'&'.join(params)}"
    request_headers = {"Accept": "application/octet-stream"}
    if headers:
        request_headers.update(headers)
    traceparent = _trace.outbound_traceparent()
    if traceparent is not None and "traceparent" not in request_headers:
        # Cross-instance trace continuity: the peer's handler joins the
        # same trace id (it keeps its spans in its own ring; the entry
        # instance's /traces/{id} merges them back).
        request_headers["traceparent"] = traceparent
    request = _urlrequest.Request(url, headers=request_headers)
    try:
        with _urlrequest.urlopen(request, timeout=timeout) as response:
            return int(response.status), response.read()
    except _urlerror.HTTPError as exc:
        try:
            body = exc.read()
        except Exception:
            body = b""
        return int(exc.code), body


class CacheTier:
    """One level of the stack: named, counted, blob-in/blob-out.

    The internal contract is deliberately narrow — :meth:`fetch` returns
    the validated ``(blob, payload)`` pair or ``None``, :meth:`put_blob`
    lands pre-wrapped bytes — because the blob is the unit of promotion
    and replication; only :class:`TieredCache` deals in payloads.
    """

    name = "tier"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.degradations: dict[str, int] = {k: 0 for k in DEGRADATION_KINDS}

    def fetch(self, key: str) -> tuple[bytes, Any] | None:
        raise NotImplementedError

    def put_blob(self, key: str, blob: bytes) -> bool:
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        return counter_stats(self)


class MemoryTier(CacheTier):
    """Byte-bounded in-process LRU over pre-pickled entry blobs.

    >>> tier = MemoryTier(max_bytes=1 << 20)
    >>> blob = codec.encode("a" * 64, {"x": 1}, _keys.SCHEMA_VERSION)
    >>> tier.put_blob("a" * 64, blob)
    True
    >>> tier.fetch("a" * 64)[1]
    {'x': 1}
    """

    name = "memory"

    def __init__(
        self,
        max_bytes: int = DEFAULT_MEMORY_BYTES,
        version: int = _keys.SCHEMA_VERSION,
    ) -> None:
        super().__init__()
        self.max_bytes = int(max_bytes)
        self.version = int(version)
        self._blobs = LRU(max_bytes=self.max_bytes)

    def __len__(self) -> int:
        return len(self._blobs)

    @property
    def current_bytes(self) -> int:
        return self._blobs.bytes

    def fetch(self, key: str) -> tuple[bytes, Any] | None:
        blob = self._blobs.get(key)
        if blob is None:
            self.misses += 1
            return None
        try:
            fired = faults.inject("tier.memory", key)
        except (OSError, TypeError):
            self.misses += 1
            self.degradations["read_error"] += 1
            return None
        if fired is not None and fired.kind == "corrupt":
            # Bit-rot in the resident blob: truncate what validation
            # sees, so the slot degrades to a miss and gets evicted.
            blob = blob[: len(blob) // 2]
        try:
            payload = codec.decode(key, blob, self.version)
        except Exception:
            self._blobs.pop(key)  # self-heal: the next get falls through
            self.misses += 1
            self.degradations["corrupt_entry"] += 1
            return None
        self.hits += 1
        return blob, payload

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Land ``blob``; evict LRU entries until the budget holds.

        Blobs are trusted here (they come from our own :meth:`put`
        pickling or from an already-validated lower-tier fetch); the
        validation cost is paid on the read path, where corruption must
        degrade anyway.
        """
        if not self._blobs.put(key, blob):
            return False
        self.stores += 1
        return True


class DiskTier(CacheTier):
    """The existing on-disk store, wearing the tier interface.

    Counters are *views onto the store's own* — code that reads
    ``store.hits`` on the inner :class:`DiscoveryCache` and code that
    reads this tier's stats see the same numbers.
    """

    name = "disk"

    def __init__(self, store: DiscoveryCache) -> None:
        self.store = store

    # The store already counts; expose its counters instead of shadowing.
    @property
    def hits(self) -> int:  # type: ignore[override]
        return self.store.hits

    @property
    def misses(self) -> int:  # type: ignore[override]
        return self.store.misses

    @property
    def stores(self) -> int:  # type: ignore[override]
        return self.store.stores

    @property
    def degradations(self) -> dict[str, int]:  # type: ignore[override]
        return self.store.degradations

    def fetch(self, key: str) -> tuple[bytes, Any] | None:
        return self.store._read_validated(key)

    def put_blob(self, key: str, blob: bytes) -> bool:
        return self.store.put_blob(key, blob)


class PeerTier(CacheTier):
    """Remote tier: fetch a miss from the instances that should have it.

    Candidates come from the ring in the key's preference order with
    self filtered out — so the owner is asked first, and a read-only
    replica that happens to *be* the ring owner still has a peer to
    ask.  Each candidate gets a :class:`RetryPolicy`-bounded number of
    attempts under a timeout; transport failures open a per-peer
    :class:`~repro.faults.Breaker` (the one the job queue keys by
    report) so a dead peer costs one timeout per cooldown, not one per
    read.  An HTTP 404 is an authoritative miss from that candidate —
    no breaker penalty — and the next candidate is tried.
    """

    name = "peer"

    def __init__(
        self,
        ring: HashRing | None,
        retry: RetryPolicy = DEFAULT_PEER_RETRY,
        timeout: float = DEFAULT_PEER_TIMEOUT,
        version: int = _keys.SCHEMA_VERSION,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ) -> None:
        super().__init__()
        self.ring = ring
        self.retry = retry
        self.timeout = float(timeout)
        self.version = int(version)
        self.breaker = faults.Breaker(breaker_threshold, breaker_cooldown)
        #: saturation gauge: peer fetches in flight right now (reads run
        #: on executor threads, so the count is locked).
        self.inflight = 0
        self._inflight_lock = threading.Lock()

    def stats(self) -> dict[str, Any]:
        return {**counter_stats(self), "inflight": self.inflight}

    def open_peers(self) -> list[str]:
        """Peers currently blocked by their breaker (for /metrics)."""
        return sorted(self.breaker.open_names())

    def candidates(self, key: str) -> list[str]:
        if self.ring is None:
            return []
        return [n for n in self.ring.preference(key) if n != self.ring.self_node]

    def _fetch_from(self, node: str, key: str) -> tuple[bytes, Any] | None:
        """Try one candidate, with bounded retries on transport failure.

        Returns the validated pair, ``None`` for "this peer does not
        have it / is sick" (the caller moves on to the next candidate).
        """
        ctx = _trace.CURRENT.get()

        def attempt(n: int) -> tuple[int, bytes]:
            span_start = time.perf_counter() if ctx is not None else 0.0
            status = None
            try:
                fired = faults.inject("tier.peer", node)
                status, body = peer_fetch(node, key, timeout=self.timeout)
            finally:
                if ctx is not None:
                    _trace.record(
                        ctx,
                        "peer.fetch",
                        span_start,
                        node=node,
                        attempt=n,
                        status=status if status is not None else "transport-error",
                    )
            if status not in (200, 404):
                raise TransientError(f"peer {node} answered HTTP {status}")
            if fired is not None and fired.kind == "corrupt":
                body = body[: len(body) // 2]
            return status, body

        outcome = self.retry.run(key, attempt)
        if outcome.error is not None:
            self.degradations["read_error"] += 1
            self.breaker.record_failure(node)
            return None
        status, body = outcome.value
        if status == 404:
            # Authoritative miss: the peer is healthy, just cold.
            self.breaker.heal(node)
            return None
        try:
            payload = codec.decode(key, body, self.version)
        except Exception:
            # A peer that serves garbage is indistinguishable from a
            # sick peer for routing purposes.
            self.degradations["corrupt_entry"] += 1
            self.breaker.record_failure(node)
            return None
        self.breaker.heal(node)
        return body, payload

    def fetch(self, key: str) -> tuple[bytes, Any] | None:
        for node in self.candidates(key):
            if self.breaker.blocked_for(node) is None:
                with self._inflight_lock:
                    self.inflight += 1
                try:
                    hit = self._fetch_from(node, key)
                finally:
                    with self._inflight_lock:
                        self.inflight -= 1
                if hit is not None:
                    self.hits += 1
                    return hit
        self.misses += 1
        return None

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Peers pull; this instance never pushes.  Always a no-op.

        Replication is read-driven by design: the fetching side lands
        what it fetched (promotion), so the write path needs no remote
        I/O, no push-side retries, and no remote failure mode.
        """
        return False


class TieredCache:
    """The composed stack — a drop-in for :class:`DiscoveryCache`.

    Reads (:meth:`get` / :meth:`get_blob`) consult tiers in order and
    promote the winning blob into every tier *above* the hit, so the
    expensive tiers self-heal the cheap ones; ``peer=False`` restricts
    the read to local tiers (what the ``/store/{key}`` route uses to
    stay loop-free).  Writes land in every tier that takes them.

    Everything else a :class:`DiscoveryCache` owner relies on — key
    derivation, catalog enumeration, pruning, the wall-time sidecar,
    ``root`` / ``version`` — delegates to the disk tier, which is
    therefore mandatory.
    """

    def __init__(self, tiers: "list[CacheTier] | tuple[CacheTier, ...]") -> None:
        self.tiers: list[CacheTier] = list(tiers)
        disks = [t for t in self.tiers if isinstance(t, DiskTier)]
        if not disks:
            raise ValueError("a TieredCache needs a DiskTier (the durable anchor)")
        self._disk = disks[0]
        self._full_misses = 0

    # ------------------------------------------------------------------ #
    # composition                                                         #
    # ------------------------------------------------------------------ #

    def add_tier(self, tier: CacheTier) -> None:
        """Append a tier (used to attach the peer tier after the server
        binds, when the instance finally knows its own advertise URL)."""
        self.tiers.append(tier)

    @property
    def store(self) -> DiscoveryCache:
        """The durable disk store (also handy for tests)."""
        return self._disk.store

    @property
    def root(self) -> Path:
        return self._disk.store.root

    @property
    def version(self) -> int:
        return self._disk.store.version

    # ------------------------------------------------------------------ #
    # key derivation (delegated: keys must not depend on tiering)         #
    # ------------------------------------------------------------------ #

    def report_key(self, device, config, targets, extensions, validate) -> str:
        return self._disk.store.report_key(device, config, targets, extensions, validate)

    def measurement_key(
        self, device, config, element, attribute, seed_offset, context=None
    ) -> str:
        return self._disk.store.measurement_key(
            device, config, element, attribute, seed_offset, context
        )

    # ------------------------------------------------------------------ #
    # reads: fall through, promote on the way back                        #
    # ------------------------------------------------------------------ #

    def _fetch(self, key: str, peer: bool) -> tuple[bytes, Any] | None:
        ctx = _trace.CURRENT.get()  # None = tracing off (the usual case)
        consulted: list[CacheTier] = []
        for tier in self.tiers:
            if not peer and tier.name == "peer":
                continue
            start = time.perf_counter() if ctx is not None else 0.0
            got = tier.fetch(key)
            if ctx is not None:
                _trace.record(
                    ctx,
                    "tier.read",
                    start,
                    tier=tier.name,
                    outcome="hit" if got is not None else "miss",
                    key=key[:12],
                )
            if got is not None:
                blob = got[0]
                for upper in consulted:
                    promote_start = time.perf_counter() if ctx is not None else 0.0
                    upper.put_blob(key, blob)
                    if ctx is not None:
                        _trace.record(
                            ctx,
                            "tier.promote",
                            promote_start,
                            tier=upper.name,
                            key=key[:12],
                        )
                return got
            consulted.append(tier)
        self._full_misses += 1
        return None

    def get(self, key: str, peer: bool = True) -> Any | None:
        got = self._fetch(key, peer)
        return None if got is None else got[1]

    def get_blob(self, key: str, peer: bool = True) -> bytes | None:
        got = self._fetch(key, peer)
        return None if got is None else got[0]

    # ------------------------------------------------------------------ #
    # writes: every tier                                                  #
    # ------------------------------------------------------------------ #

    def put(self, key: str, payload: Any) -> bool:
        try:
            blob = codec.encode(key, payload, self.version)
        except Exception:
            self._disk.store.degradations["write_error"] += 1
            return False
        return self._land(key, blob)

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Land a blob fetched from a peer, checked once before any tier
        sees it: a forged or truncated blob counts as a corrupt entry."""
        try:
            codec.decode(key, blob, self.version)
        except Exception:
            self._disk.store.degradations["corrupt_entry"] += 1
            return False
        return self._land(key, blob)

    def _land(self, key: str, blob: bytes) -> bool:
        landed = False
        for tier in self.tiers:
            landed = tier.put_blob(key, blob) or landed
        return landed

    # ------------------------------------------------------------------ #
    # aggregate accounting (drop-in for DiscoveryCache counters)          #
    # ------------------------------------------------------------------ #

    @property
    def hits(self) -> int:
        return sum(t.hits for t in self.tiers)

    @property
    def misses(self) -> int:
        """Full misses: every consulted tier came up empty.

        Per-tier miss counts (a memory miss that the disk then served)
        live in :meth:`stats`' ``tiers``; this aggregate keeps the operator
        meaning the bare store had — "the stack could not answer".
        """
        return self._full_misses

    @property
    def stores(self) -> int:
        """Durable stores: entries landed on disk (memory is ephemeral)."""
        return self._disk.stores

    @property
    def degradations(self) -> dict[str, int]:
        merged = {k: 0 for k in DEGRADATION_KINDS}
        for tier in self.tiers:
            for kind, count in tier.degradations.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def stats(self) -> dict[str, Any]:
        """The aggregate quartet answers "did the stack carry the
        traffic", ``tiers`` (in consultation order) "which tier did"."""
        return {
            **counter_stats(self),
            "tiers": {tier.name: tier.stats() for tier in self.tiers},
        }

    # ------------------------------------------------------------------ #
    # durable-store plumbing (catalog, pruning, scheduling sidecar)       #
    # ------------------------------------------------------------------ #

    def entries(self) -> Iterator[tuple[str, Any]]:
        return self._disk.store.entries()

    def entry_count(self) -> int:
        return self._disk.store.entry_count()

    def prune(self, max_bytes: int = DEFAULT_PRUNE_BYTES) -> int:
        return self._disk.store.prune(max_bytes)

    def record_wall(self, label: str, seconds: float) -> None:
        self._disk.store.record_wall(label, seconds)

    def recorded_walls(self) -> dict[str, float]:
        return self._disk.store.recorded_walls()


def build_worker_cache(
    cache_dir: str | Path | None,
    memory_bytes: int = DEFAULT_MEMORY_BYTES,
) -> TieredCache | None:
    """The standard local stack: memory LRU over the disk store.

    What fleet workers and the serving layer use when handed a cache
    directory; ``None`` in means ``None`` out (caching disabled).  The
    peer tier is attached separately by the server once it knows its
    ring (:meth:`TieredCache.add_tier`) — worker processes never talk
    to peers directly.
    """
    if cache_dir is None:
        return None
    tiers: list[CacheTier] = []
    if memory_bytes > 0:
        tiers.append(MemoryTier(max_bytes=memory_bytes))
    tiers.append(DiskTier(DiscoveryCache(cache_dir)))
    return TieredCache(tiers)
