"""Retry budgets with exponential backoff and deterministic jitter.

One :class:`RetryPolicy` shape and one loop, :meth:`RetryPolicy.run`,
serve every retry layer — the fleet worker, the serving queue's proxy
fetch and the peer tier — so "how many attempts, how long between them,
how long overall" is configured once and means the same thing everywhere.

Jitter is deterministic: the delay for attempt *n* of operation *key* is
the exponential base delay scaled by a factor in ``[0.5, 1.0)`` drawn
from ``sha256(seed | key | n)``.  Determinism matters twice over — the chaos
harness replays recovery schedules exactly, and a fleet of workers
retrying the same failure still decorrelates (each key hashes its own
schedule) without sharing any RNG state.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.errors import is_transient

__all__ = ["RetryOutcome", "RetryPolicy", "DEFAULT_FLEET_RETRY", "DEFAULT_SERVE_RETRY"]

#: The backoff sleep, module-level so tests can retry without waiting.
_sleep = time.sleep


@dataclass
class RetryOutcome:
    value: Any = None
    error: BaseException | None = None
    #: "" | "transient" (budget spent) | "permanent" | "deadline".
    kind: str = ""
    attempts: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """How often to try, how long to wait, and when to stop entirely."""

    #: total attempts (1 = no retry).  Only *transient* failures are
    #: retried — :func:`repro.errors.is_transient` is the classifier.
    attempts: int = 3
    #: backoff base: delay before retry n is ``base_delay * 2**n``…
    base_delay: float = 0.05
    #: …capped here.
    max_delay: float = 2.0
    #: overall per-operation deadline (attempts + backoff sleeps must fit
    #: inside it); None = unbounded.
    deadline_seconds: float | None = None
    #: jitter seed (folded into the per-key hash, not global RNG).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based) of operation ``key``.

        >>> policy = RetryPolicy(base_delay=0.1, max_delay=10.0)
        >>> policy.delay("A100", 0) == policy.delay("A100", 0)  # replayable
        True
        >>> 0.1 <= policy.delay("A100", 2) / policy.delay("A100", 0) <= 8.0
        True
        """
        raw = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        material = f"{self.seed}|{key}|{attempt}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return raw * (0.5 + 0.5 * fraction)

    def with_deadline(self, deadline_seconds: float | None) -> "RetryPolicy":
        if deadline_seconds is None:
            return self
        return replace(self, deadline_seconds=deadline_seconds)

    def run(
        self,
        key: str,
        attempt: Callable[[int], Any],
        on_failure: "Callable[[int, float, BaseException, str, float], None] | None" = None,
    ) -> RetryOutcome:
        """Call ``attempt(n)`` for n = 1, 2, … until one ends the operation.

        A return ends it.  A raise classified transient by
        :func:`~repro.errors.is_transient` sleeps ``delay(key, n - 1)`` —
        0-based: the first retry waits ``delay(key, 0)`` — and tries
        again while attempts remain and the sleep ends inside the
        deadline; anything else ends it.  ``on_failure(n, started, exc,
        kind, backoff)`` sees each failed attempt (callers record their
        attempt spans there).
        """
        start = time.perf_counter()
        deadline = None if self.deadline_seconds is None else start + self.deadline_seconds
        n = 0
        while True:
            n += 1
            started = time.perf_counter()
            try:
                return RetryOutcome(value=attempt(n), attempts=n)
            except Exception as exc:
                kind = "transient" if is_transient(exc) else "permanent"
                retrying = kind == "transient" and n < self.attempts
                backoff = self.delay(key, n - 1) if retrying else 0.0
                if retrying and deadline is not None and (
                    time.perf_counter() + backoff >= deadline
                ):
                    kind, retrying, backoff = "deadline", False, 0.0
                if on_failure is not None:
                    on_failure(n, started, exc, kind, backoff)
                if not retrying:
                    return RetryOutcome(error=exc, kind=kind, attempts=n)
                _sleep(backoff)


#: Fleet workers: a couple of quick retries, never minutes of backoff —
#: a preset that fails three times deserves its error row.
DEFAULT_FLEET_RETRY = RetryPolicy(attempts=3, base_delay=0.05, max_delay=1.0)

#: Serving: one retry inside the job (cold requests are latency-bound);
#: persistent failure is the failure-TTL memo and breaker's business.
DEFAULT_SERVE_RETRY = RetryPolicy(attempts=2, base_delay=0.05, max_delay=0.5)
