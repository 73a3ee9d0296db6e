"""Per-name circuit breakers: one shape for discovery keys and peers.

``threshold`` consecutive failures open a name's breaker for
``cooldown`` seconds; below it, a positive ``failure_ttl`` blocks the
name that long after each failure (a memo, not an open breaker).  Once
a block lapses the next call is the half-open probe: failure re-blocks
at once, :meth:`Breaker.heal` forgets the name.  ``clock`` is
injectable so tests can lapse a window without sleeping.  The peer
tier's breaker is updated from several reader threads, hence the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["Breaker", "Trip"]


@dataclass
class Trip:
    failures: int = 0
    blocked_until: float = 0.0
    open: bool = False
    error: str = ""


class Breaker:
    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 60.0,
        failure_ttl: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = max(1, int(threshold))
        self.cooldown = float(cooldown)
        self.failure_ttl = float(failure_ttl)
        self.clock = clock
        #: closed -> open transitions (a half-open re-block is not one).
        self.opens = 0
        self._trips: dict[str, Trip] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._trips)

    def trip(self, name: str) -> Trip | None:
        return self._trips.get(name)

    def blocked_for(self, name: str) -> float | None:
        """Seconds ``name`` stays blocked, or None to let a call through."""
        trip = self._trips.get(name)
        remaining = 0.0 if trip is None else trip.blocked_until - self.clock()
        return remaining if remaining > 0 else None

    def record_failure(self, name: str, error: str = "") -> None:
        with self._lock:
            trip = self._trips.setdefault(name, Trip())
            trip.failures += 1
            trip.error = error
            if trip.failures >= self.threshold:
                if not trip.open:
                    trip.open = True
                    self.opens += 1
                trip.blocked_until = self.clock() + self.cooldown
            elif self.failure_ttl > 0:
                trip.blocked_until = self.clock() + self.failure_ttl

    def heal(self, name: str) -> None:
        with self._lock:
            self._trips.pop(name, None)

    def open_names(self) -> dict[str, float]:
        """name -> seconds of cooldown left, for currently open breakers."""
        now = self.clock()
        with self._lock:
            return {
                name: round(trip.blocked_until - now, 3)
                for name, trip in self._trips.items()
                if trip.open and trip.blocked_until > now
            }
