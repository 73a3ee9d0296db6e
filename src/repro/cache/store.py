"""The on-disk content-addressed store.

Layout under the cache root (default ``~/.cache/mt4g``)::

    <root>/entries/<key[:2]>/<key>.pkl   # immutable pickled payloads
    <root>/stats.json                    # per-preset wall-time sidecar

Design constraints, in order:

* **a cache must never sink a run** — every filesystem or
  deserialisation failure degrades to a miss (reads) or a no-op
  (writes); the tool then simply measures;
* **concurrent fleet workers share one store** — entries land via
  write-to-temp + atomic ``os.replace``; two workers computing the same
  key write byte-identical payloads, so last-rename-wins is correct, and
  readers never observe a partially-written entry;
* **corruption is a miss, not an error** — a truncated or garbage entry
  fails to unpickle (or fails the embedded key/schema check) and is
  best-effort deleted so the next run re-measures and heals it;
* **degradation is silent to the run but never to the operator** —
  every swallowed failure increments a named counter in
  :attr:`DiscoveryCache.degradations` (read errors, corrupted entries,
  write failures, sidecar lock timeouts, sidecar corruption), which the
  serving layer folds into ``GET /metrics``.

The store is also a first-class chaos surface: named injection points
(``store.get``, ``store.put``, ``store.stats`` — see
:mod:`repro.faults`) let a recorded fault plan exercise exactly these
degradation paths deterministically.

Each entry holds one whole discovery: ``{"report", "raw_data",
"measured_sizes", "measured_fg"}`` (see ``MT4G.discover``).  Payloads
are pickled through :mod:`repro.cache.codec`: the report dataclasses
round-trip exactly (types included), which is what makes a cache-hit
report byte-identical to the cold one, and decoding admits only the
report model's classes.  Cross-version safety comes from the schema
salt in the key plus the embedded schema check, not from trusting old
pickles.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator

from repro import faults
from repro.cache import codec
from repro.cache import keys as _keys
from repro.obs import trace as _trace

__all__ = ["DiscoveryCache", "DEFAULT_PRUNE_BYTES", "DEGRADATION_KINDS"]

#: The degradation counters every store instance keeps (fixed keys so
#: the ``/metrics`` payload shape is stable even at zero).
DEGRADATION_KINDS = (
    "read_error",       # unreadable entry file (I/O trouble, not a plain miss)
    "corrupt_entry",    # entry present but failed unpickle/key/schema check
    "write_error",      # put() could not land its atomic rename
    "lock_timeout",     # stats sidecar lock not acquired; wrote lock-free
    "stats_corrupt",    # stats.json unreadable; degraded to empty walls
)

#: Store budget the CLI applies opportunistically after each run
#: (override with ``$MT4G_CACHE_LIMIT_BYTES``).  Without a bound a
#: default-on cache sweeping seeds or configs would grow forever.
DEFAULT_PRUNE_BYTES = 2 << 30  # 2 GiB


def counter_stats(counted: Any) -> dict[str, Any]:
    """The counter quartet every store and tier keeps, as ``/metrics``
    reports it (hits / misses / stores / per-kind degradations)."""
    return {
        "hits": counted.hits,
        "misses": counted.misses,
        "stores": counted.stores,
        "degradations": dict(counted.degradations),
    }


class DiscoveryCache:
    """Content-addressed persistent cache of discovery results.

    >>> store = DiscoveryCache("/tmp/mt4g-cache-doctest")
    >>> store.put("a" * 64, {"x": 1})
    True
    >>> store.get("a" * 64)
    {'x': 1}
    >>> store.get("b" * 64) is None
    True
    """

    def __init__(self, root: str | Path, version: int = _keys.SCHEMA_VERSION) -> None:
        self.root = Path(root).expanduser()
        self.version = int(version)
        #: in-process accounting (benchmarks and tests read these).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: silent-degradation accounting, keyed by DEGRADATION_KINDS —
        #: the run never sees these failures, the operator always does.
        self.degradations: dict[str, int] = {k: 0 for k in DEGRADATION_KINDS}

    def stats(self) -> dict[str, Any]:
        """The ``GET /metrics`` store section."""
        return counter_stats(self)

    # ------------------------------------------------------------------ #
    # key derivation (schema salt applied)                                #
    # ------------------------------------------------------------------ #

    def report_key(
        self,
        device: Any,
        config: Any,
        targets,
        extensions,
        validate: bool,
    ) -> str:
        return _keys.report_key(
            device, config, targets, extensions, validate, version=self.version
        )

    # ------------------------------------------------------------------ #
    # entries                                                             #
    # ------------------------------------------------------------------ #

    def _entry_path(self, key: str) -> Path:
        return self.root / "entries" / key[:2] / f"{key}.pkl"

    def _read_validated(self, key: str) -> tuple[bytes, Any] | None:
        """Read + validate ``key``'s entry: ``(raw blob, payload)`` or miss.

        Any failure — missing file, truncation, garbage bytes, a payload
        whose embedded key or schema does not match — is a silent miss;
        unreadable entries are best-effort deleted so they heal.
        """
        ctx = _trace.CURRENT.get()  # None = tracing off: no other cost
        if ctx is None:
            return self._read_validated_inner(key)
        start = time.perf_counter()
        got = self._read_validated_inner(key)
        _trace.record(
            ctx,
            "store.read",
            start,
            key=key[:12],
            outcome="hit" if got is not None else "miss",
        )
        return got

    def _read_validated_inner(self, key: str) -> tuple[bytes, Any] | None:
        try:
            path = self._entry_path(key)
            faults.inject("store.get", key)
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1  # a plain miss, not a degradation
            return None
        except (OSError, TypeError):
            self.misses += 1
            self.degradations["read_error"] += 1
            return None
        try:
            payload = codec.decode(key, blob, self.version)
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            self.degradations["corrupt_entry"] += 1
            return None
        try:
            # Refresh the entry's mtime so pruning approximates LRU
            # (least-recently-*used*, not least-recently-written).
            os.utime(path)
        except OSError:
            pass
        self.hits += 1
        return blob, payload

    def get(self, key: str) -> Any | None:
        """The payload stored under ``key``, or None (miss)."""
        got = self._read_validated(key)
        return None if got is None else got[1]

    def get_blob(self, key: str, peer: bool = True) -> bytes | None:
        """The raw wrapped entry bytes under ``key``, or None (miss).

        ``peer`` is accepted (and ignored) for interface parity with
        :class:`repro.cache.tiers.TieredCache`, where ``peer=False``
        restricts the lookup to local tiers — a bare disk store *is*
        local, so the flag is moot here.

        The wire format of peer replication (``GET /store/{key}``): the
        blob already embeds the key and schema salt, so the fetching
        side re-validates it against the same address before landing it
        — and because it is the byte-for-byte disk entry, a replica's
        copy is identical to the owner's.
        """
        got = self._read_validated(key)
        return None if got is None else got[0]

    def put(self, key: str, payload: Any) -> bool:
        """Store ``payload`` under ``key`` (atomic; failures are no-ops).

        The payload is serialised eagerly, so later mutation of the
        in-memory object never leaks into the store.
        """
        try:
            blob = codec.encode(key, payload, self.version)
        except Exception:
            self.degradations["write_error"] += 1
            return False
        return self._write_blob(key, blob)

    def put_blob(self, key: str, blob: bytes, checked: bool = False) -> bool:
        """Land a wrapped entry blob fetched from a peer (atomic).

        Unlike :meth:`put` the bytes came over a network, so they are
        validated against the address *before* landing: a truncated or
        forged blob counts as a corrupt entry and never reaches disk.
        ``checked=True`` skips that decode for bytes the caller encoded
        itself or has already decoded (the tier stack's writes and
        promotions).
        """
        if not checked:
            try:
                codec.decode(key, blob, self.version)
            except Exception:
                self.degradations["corrupt_entry"] += 1
                return False
        return self._write_blob(key, blob)

    def _write_blob(self, key: str, blob: bytes) -> bool:
        """Atomic write-to-temp + rename shared by put/put_blob."""
        ctx = _trace.CURRENT.get()
        if ctx is None:
            return self._write_blob_inner(key, blob)
        start = time.perf_counter()
        ok = self._write_blob_inner(key, blob)
        _trace.record(
            ctx, "store.write", start, key=key[:12], outcome="ok" if ok else "error"
        )
        return ok

    def _write_blob_inner(self, key: str, blob: bytes) -> bool:
        tmp = None
        try:
            path = self._entry_path(key)
            fired = faults.inject("store.put", key)
            if fired is not None and fired.kind == "corrupt":
                # A torn write: the entry lands but holds half a pickle.
                # get() must degrade it to a miss and self-heal.
                blob = blob[: len(blob) // 2]
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{key}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except Exception:
            if tmp is not None:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            self.degradations["write_error"] += 1
            return False
        self.stores += 1
        return True

    def entries(self) -> Iterator[tuple[str, Any]]:
        """Yield ``(key, payload)`` for every readable entry, sorted by key.

        The serving catalog's enumeration API.  Unlike :meth:`get`, this
        walk counts toward neither hits nor misses and does not refresh
        mtimes — browsing the store must not distort the LRU order or the
        hit-rate metrics.  Every per-entry failure is skipped silently:
        an entry unlinked mid-walk by a concurrent :meth:`prune` (or a
        corrupted blob) is simply not part of the enumeration, exactly
        like a racing reader of :meth:`get` would observe a miss.
        """
        root = self.root / "entries"
        try:
            paths = sorted(root.glob("*/*.pkl"))
        except OSError:
            return
        for path in paths:
            key = path.stem
            try:
                payload = codec.decode(key, path.read_bytes(), self.version)
            except Exception:
                continue
            yield key, payload

    def entry_count(self) -> int:
        """Number of entry files on disk (cheap: no unpickling)."""
        try:
            return sum(1 for _ in (self.root / "entries").glob("*/*.pkl"))
        except OSError:
            return 0

    def prune(self, max_bytes: int = DEFAULT_PRUNE_BYTES) -> int:
        """Delete least-recently-used entries until the store fits.

        Entries are ranked by mtime (refreshed on every hit, so this is
        LRU, not FIFO); oldest go first until the total entry size drops
        to ``max_bytes``.  Version-salt bumps leave orphaned files with
        unreachable keys — pruning is what eventually reclaims them.
        Returns the number of entries removed; failures are no-ops.
        """
        removed = 0
        try:
            # Crash-orphaned temp files first: a kill between write and
            # rename leaves a full-size .tmp no key can ever reach.  The
            # age floor keeps a concurrent writer's in-flight temp safe.
            now = time.time()
            for tmp in (self.root / "entries").glob("*/.*.tmp"):
                try:
                    if now - tmp.stat().st_mtime > 3600.0:
                        tmp.unlink()
                except OSError:
                    continue
            entries: list[tuple[float, int, Path]] = []
            total = 0
            for path in (self.root / "entries").glob("*/*.pkl"):
                try:
                    st = path.stat()
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))
                total += st.st_size
            if total <= max_bytes:
                return 0
            entries.sort()
            for _, size, path in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
        except Exception:
            pass
        return removed

    # ------------------------------------------------------------------ #
    # wall-time sidecar (cost-aware fleet scheduling)                     #
    # ------------------------------------------------------------------ #

    @property
    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    def _read_stats(self) -> dict[str, Any]:
        """The sidecar dict; a corrupted sidecar degrades to ``{}``.

        A truncated or non-JSON ``stats.json`` loses only scheduling
        hints, never results — but the degradation is counted, and the
        next :meth:`record_wall` rewrites a valid sidecar (self-heal).
        """
        try:
            data = json.loads(self._stats_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {}  # no sidecar yet: normal first-run state
        except Exception:
            self.degradations["stats_corrupt"] += 1
            return {}
        if not isinstance(data, dict):
            self.degradations["stats_corrupt"] += 1
            return {}
        return data

    def record_wall(self, label: str, seconds: float) -> None:
        """Record one measured discovery wall for ``label`` (a preset).

        Kept as an exponentially-smoothed value so a one-off slow run
        (cold page cache, noisy host) does not dominate the schedule.

        Merge-on-write: concurrent fleet parents and service workers all
        record walls into the same sidecar, so the sidecar is re-read
        *inside* the replace window — under a best-effort ``O_EXCL``
        lock that serialises the read-modify-write — and our label's
        entry is merged into whatever the other writers landed in the
        meantime.  Only a same-label race stays last-writer-wins (the
        two smoothed values are equally valid).  If the lock cannot be
        acquired (a crashed holder is reclaimed past an age floor) the
        write proceeds lock-free: a cache must never sink a run, and the
        fresh re-read still bounds the lost-update window to the few
        microseconds between read and rename.
        """
        if seconds <= 0:
            return
        try:
            faults.inject("store.stats", label)
            self.root.mkdir(parents=True, exist_ok=True)
            lock = self._acquire_stats_lock()
            if lock is None:
                # Proceeding unlocked is the right call for the run —
                # but a silent one was unobservable (the satellite fix):
                # the operator now sees lock contention in /metrics.
                self.degradations["lock_timeout"] += 1
            try:
                stats = self._read_stats()
                walls = stats.setdefault("walls", {})
                prev = walls.get(label)
                if isinstance(prev, dict) and isinstance(
                    prev.get("seconds"), (int, float)
                ):
                    seconds = 0.5 * float(prev["seconds"]) + 0.5 * float(seconds)
                    runs = int(prev.get("runs", 0)) + 1
                else:
                    runs = 1
                walls[label] = {"seconds": round(float(seconds), 6), "runs": runs}
                tmp = self._stats_path.with_name(
                    f".stats.{os.getpid()}.{os.urandom(4).hex()}.tmp"
                )
                tmp.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
                os.replace(tmp, self._stats_path)
            finally:
                if lock is not None:
                    try:
                        lock.unlink()
                    except OSError:
                        pass
        except Exception:
            pass

    #: A crashed writer's lock file is reclaimed after this many seconds;
    #: a healthy record_wall holds the lock for well under a millisecond.
    _STATS_LOCK_STALE_SECONDS = 10.0

    def _acquire_stats_lock(self, timeout: float = 1.0) -> Path | None:
        """Exclusive sidecar lock via ``O_CREAT | O_EXCL``, or None.

        Returns the lock path to unlink on release.  None means the lock
        could not be acquired within ``timeout`` — the caller proceeds
        unlocked rather than dropping the wall (best-effort semantics).
        """
        lock_path = self.root / ".stats.lock"
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return lock_path
            except FileExistsError:
                try:
                    age = time.time() - lock_path.stat().st_mtime
                    if age > self._STATS_LOCK_STALE_SECONDS:
                        lock_path.unlink()
                        continue
                except OSError:
                    continue  # holder released between open and stat
                if time.monotonic() >= deadline:
                    return None
                time.sleep(0.002)
            except OSError:
                return None

    def recorded_walls(self) -> dict[str, float]:
        """label -> smoothed wall seconds, from the sidecar (may be {})."""
        out: dict[str, float] = {}
        for label, entry in self._read_stats().get("walls", {}).items():
            if isinstance(entry, dict) and isinstance(
                entry.get("seconds"), (int, float)
            ):
                out[str(label)] = float(entry["seconds"])
        return out
