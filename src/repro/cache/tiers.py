"""The tier stack: per-process memory → local disk → remote peers.

:class:`TieredCache` puts a byte-bounded in-process LRU of entry blobs
(:data:`MEMORY_TIER_BYTES`) in front of one
:class:`~repro.cache.store.DiscoveryCache` and, once the instance joins
a ring, a :class:`PeerTier` behind it: an HTTP client over the other
instances' ``GET /store/{key}`` route, routed by the consistent-hash
ring (:mod:`repro.cache.ring`).  Reads fall through in that order and
**promote** on the way back (a disk hit lands in memory, a peer hit
lands in memory *and* disk), so every tier self-heals from the tiers
below it; writes land in memory and on disk (peers pull, nothing is
pushed).

What moves between tiers is the store's *wrapped entry blob* — the exact
bytes :mod:`repro.cache.codec` encodes and the disk store writes,
embedding the key and schema salt — never a re-serialisation.  That is
what keeps the standing invariant cheap to maintain: a report served
out of memory, off disk, or fetched from a peer is byte-identical to a
fresh ``mt4g --no-cache -j``, because no tier re-encodes the payload.

Every tier keeps the counter quartet the bare store does (hits / misses
/ stores / degradations); :meth:`TieredCache.stats` reports the
aggregate (drop-in for code that reads ``store.hits``) plus the per-tier
breakdown under ``tiers`` (the ``GET /metrics`` store section).

Chaos surface: ``tier.memory`` (labelled by key) and ``tier.peer``
(labelled by peer URL) join the ``store.*`` injection sites, with the
passive ``corrupt`` kind corrupting the blob in flight so the
degradation paths are deterministically exercisable.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any
from urllib import error as _urlerror
from urllib import request as _urlrequest
from urllib.parse import quote

from repro import faults
from repro.cache import codec
from repro.cache import keys as _keys
from repro.cache.lru import LRU
from repro.cache.ring import HashRing
from repro.cache.store import DEGRADATION_KINDS, DiscoveryCache, counter_stats
from repro.errors import TransientError
from repro.faults.retry import RetryPolicy
from repro.obs import trace as _trace

__all__ = [
    "DEFAULT_PEER_RETRY",
    "DEFAULT_PEER_TIMEOUT",
    "MEMORY_TIER_BYTES",
    "PeerTier",
    "TieredCache",
    "build_worker_cache",
    "peer_fetch",
]

#: Memory-tier budget.  Report entries pickle to 14-41 KiB (unvalidated
#: at seed 0: TestGPU-AMD 14 KiB, MI210 17 KiB, A100 29 KiB, TestGPU-NV
#: 33 KiB; validated TestGPU-NV at seed 3: 41 KiB), so this holds
#: several thousand hot reports — plenty for 14 presets times a
#: realistic seed spread — without mattering next to anything else on
#: the host.
MEMORY_TIER_BYTES = 256 << 20  # 256 MiB

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


class PeerTier:
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

    Replication is read-driven by design: the fetching side lands what
    it fetched (promotion), so the write path needs no remote I/O, no
    push-side retries, and no remote failure mode.
    """

    def __init__(
        self,
        ring: HashRing | None,
        retry: RetryPolicy = DEFAULT_PEER_RETRY,
        timeout: float = DEFAULT_PEER_TIMEOUT,
        version: int = _keys.SCHEMA_VERSION,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ) -> None:
        self.hits = 0
        self.misses = 0
        #: always 0: peers pull, this instance never pushes.
        self.stores = 0
        self.degradations: dict[str, int] = {k: 0 for k in DEGRADATION_KINDS}
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


class TieredCache:
    """Memory over disk over ring peers — a drop-in for :class:`DiscoveryCache`.

    Reads (:meth:`get` / :meth:`get_blob`) try memory, then disk, then
    the peers, and promote the winning blob into every tier *above* the
    hit, so the expensive tiers self-heal the cheap ones; ``peer=False``
    restricts the read to the local tiers (what the ``/store/{key}``
    route uses to stay loop-free).  Writes land in memory and on disk.

    Everything else a :class:`DiscoveryCache` owner relies on — key
    derivation, catalog enumeration, pruning, the wall-time sidecar,
    ``root`` / ``version`` — is the disk store's own.

    >>> cache = TieredCache(DiscoveryCache("/tmp/mt4g-cache-doctest"))
    >>> cache.put("a" * 64, {"x": 1})
    True
    >>> cache.get("a" * 64)
    {'x': 1}
    >>> cache.stats()["tiers"]["memory"]["hits"]
    1
    """

    def __init__(self, store: DiscoveryCache, peers: PeerTier | None = None) -> None:
        self.store = store
        self.peers = peers
        self._blobs = LRU(max_bytes=MEMORY_TIER_BYTES)
        #: the memory tier's counter quartet (``stats()["tiers"]["memory"]``).
        self.memory = SimpleNamespace(
            hits=0, misses=0, stores=0, degradations={k: 0 for k in DEGRADATION_KINDS}
        )
        self._full_misses = 0

    def attach_peers(self, peers: PeerTier) -> None:
        """Put ``peers`` below disk (the server does this once it binds
        and finally knows its own advertise URL)."""
        self.peers = peers

    def __getattr__(self, name: str) -> Any:
        # Only reached for names this class does not define: the disk
        # store's key derivation, catalog enumeration, pruning, wall-time
        # sidecar and root/version (keys must not depend on tiering).
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.store, name)

    # ------------------------------------------------------------------ #
    # reads: memory → disk → peers, promote on the way back               #
    # ------------------------------------------------------------------ #

    def _memory_fetch(self, key: str) -> tuple[bytes, Any] | None:
        """Decode the resident blob afresh on every get, so callers can
        mutate their copy; a slot that fails its address check degrades
        to a miss and is evicted, exactly like a corrupted file."""
        memory = self.memory
        blob = self._blobs.get(key)
        if blob is None:
            memory.misses += 1
            return None
        try:
            fired = faults.inject("tier.memory", key)
        except (OSError, TypeError):
            memory.misses += 1
            memory.degradations["read_error"] += 1
            return None
        if fired is not None and fired.kind == "corrupt":
            # Bit-rot in the resident blob: truncate what validation
            # sees, so the slot degrades to a miss and gets evicted.
            blob = blob[: len(blob) // 2]
        try:
            payload = codec.decode(key, blob, self.store.version)
        except Exception:
            self._blobs.pop(key)  # self-heal: the next get falls through
            memory.misses += 1
            memory.degradations["corrupt_entry"] += 1
            return None
        memory.hits += 1
        return blob, payload

    def _memory_land(self, key: str, blob: bytes) -> bool:
        """Land a trusted blob (our own encoding or an already-validated
        fetch); the LRU evicts past the budget and refuses oversize."""
        if not self._blobs.put(key, blob):
            return False
        self.memory.stores += 1
        return True

    def _disk_land(self, key: str, blob: bytes) -> bool:
        return self.store.put_blob(key, blob, checked=True)

    @staticmethod
    def _read(ctx, tier: str, fetch, key: str) -> tuple[bytes, Any] | None:
        start = time.perf_counter() if ctx is not None else 0.0
        got = fetch(key)
        if ctx is not None:
            _trace.record(
                ctx,
                "tier.read",
                start,
                tier=tier,
                outcome="hit" if got is not None else "miss",
                key=key[:12],
            )
        return got

    @staticmethod
    def _promote(ctx, tier: str, land, key: str, blob: bytes) -> None:
        start = time.perf_counter() if ctx is not None else 0.0
        land(key, blob)
        if ctx is not None:
            _trace.record(ctx, "tier.promote", start, tier=tier, key=key[:12])

    def _fetch(self, key: str, peer: bool) -> tuple[bytes, Any] | None:
        ctx = _trace.CURRENT.get()  # None = tracing off (the usual case)
        got = self._read(ctx, "memory", self._memory_fetch, key)
        if got is not None:
            return got
        # _read_validated, not store.get: store.get is a public read of
        # its own, and a profiler wrapping both (perfbench's store.get
        # layer) would count this one read twice.
        got = self._read(ctx, "disk", self.store._read_validated, key)
        if got is not None:
            self._promote(ctx, "memory", self._memory_land, key, got[0])
            return got
        if peer and self.peers is not None:
            got = self._read(ctx, "peer", self.peers.fetch, key)
            if got is not None:
                self._promote(ctx, "memory", self._memory_land, key, got[0])
                self._promote(ctx, "disk", self._disk_land, key, got[0])
                return got
        self._full_misses += 1
        return None

    def get(self, key: str, peer: bool = True) -> Any | None:
        got = self._fetch(key, peer)
        return None if got is None else got[1]

    def get_blob(self, key: str, peer: bool = True) -> bytes | None:
        got = self._fetch(key, peer)
        return None if got is None else got[0]

    # ------------------------------------------------------------------ #
    # writes: memory and disk                                             #
    # ------------------------------------------------------------------ #

    def put(self, key: str, payload: Any) -> bool:
        try:
            blob = codec.encode(key, payload, self.store.version)
        except Exception:
            self.store.degradations["write_error"] += 1
            return False
        return self._land(key, blob)

    def put_blob(self, key: str, blob: bytes) -> bool:
        """Land a blob fetched from a peer, checked once before any tier
        sees it: a forged or truncated blob counts as a corrupt entry."""
        try:
            codec.decode(key, blob, self.store.version)
        except Exception:
            self.store.degradations["corrupt_entry"] += 1
            return False
        return self._land(key, blob)

    def _land(self, key: str, blob: bytes) -> bool:
        """True when the blob landed in either local tier."""
        in_memory = self._memory_land(key, blob)
        return self._disk_land(key, blob) or in_memory

    # ------------------------------------------------------------------ #
    # aggregate accounting (drop-in for DiscoveryCache counters)          #
    # ------------------------------------------------------------------ #

    def _counted(self) -> list[Any]:
        """Each tier's counters, in consultation order."""
        tiers = [self.memory, self.store]
        if self.peers is not None:
            tiers.append(self.peers)
        return tiers

    @property
    def hits(self) -> int:
        return sum(t.hits for t in self._counted())

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
        return self.store.stores

    @property
    def degradations(self) -> dict[str, int]:
        merged = {k: 0 for k in DEGRADATION_KINDS}
        for tier in self._counted():
            for kind, count in tier.degradations.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def stats(self) -> dict[str, Any]:
        """The aggregate quartet answers "did the stack carry the
        traffic", ``tiers`` (in consultation order) "which tier did"."""
        tiers = {"memory": counter_stats(self.memory), "disk": self.store.stats()}
        if self.peers is not None:
            tiers["peer"] = self.peers.stats()
        return {**counter_stats(self), "tiers": tiers}


def build_worker_cache(cache_dir: str | Path | None) -> TieredCache | None:
    """The standard local stack: memory LRU over the disk store.

    What fleet workers and the serving layer use when handed a cache
    directory; ``None`` in means ``None`` out (caching disabled).  The
    server attaches the peers once it knows its ring
    (:meth:`TieredCache.attach_peers`) — worker processes never talk to
    peers directly.
    """
    if cache_dir is None:
        return None
    return TieredCache(DiscoveryCache(cache_dir))
