"""The one bounded LRU behind every in-process cache."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

__all__ = ["LRU"]


class LRU:
    """Least-recently-used map bounded by entry count *or* total bytes.

    ``weigh`` sizes a value under a byte bound; a value heavier than the
    whole bound is refused.  Values must not be None (a miss).  One lock
    guards every operation: the memory tier is read from many threads.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        weigh: Callable[[Any], int] = len,
    ) -> None:
        if (max_entries is None) == (max_bytes is None):
            raise ValueError("bound an LRU by max_entries or by max_bytes, not both")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._weigh = weigh if max_bytes is not None else (lambda value: 0)
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = 0
        #: entries dropped to make room (not replacements or pops).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[Hashable]:
        with self._lock:
            return list(self._entries)

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> bool:
        size = self._weigh(value)
        if self.max_bytes is not None and (self.max_bytes <= 0 or size > self.max_bytes):
            return False
        with self._lock:
            self._pop(key)
            self._entries[key] = value
            self.bytes += size
            while self._entries and (
                self.bytes > self.max_bytes
                if self.max_bytes is not None
                else len(self._entries) > self.max_entries
            ):
                self._pop(next(iter(self._entries)))
                self.evictions += 1
        return True

    def pop(self, key: Hashable) -> Any | None:
        with self._lock:
            return self._pop(key)

    def _pop(self, key: Hashable) -> Any | None:
        value = self._entries.pop(key, None)
        if value is not None:
            self.bytes -= self._weigh(value)
        return value
