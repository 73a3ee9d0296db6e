"""Benchmark-side helpers: the layer ledger, span wrappers, tail rule, tally.

Nothing here imports the program under test.  The ledger records spans
that the benchmark's own wrappers open around calls into the program
(see ``layers.py``); the program itself records nothing.

Self-time rule: at every instant the elapsed wall time belongs to the
innermost open span, i.e. the most recently opened span that has not
closed yet, and to ``unattributed`` when no span is open.  For properly
nested spans this is the usual "span minus the part its children cover";
re-entrant spans (escalation re-enters the kernel from inside validation)
need no special case; and spans that overlap across threads (two store
reads gathered onto executor threads) still partition the wall, so the
layer self-times plus ``unattributed_s`` always sum to the traced wall.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

__all__ = [
    "Ledger",
    "Patcher",
    "Tally",
    "tail_percentile",
    "percentile",
    "median_or",
]


class _Frame:
    __slots__ = ("layer", "thread")

    def __init__(self, layer: str, thread: int) -> None:
        self.layer = layer
        self.thread = thread


class Ledger:
    """Per-layer self time, call counts and named counters for one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._open: list[_Frame] = []
        self._mark = 0.0
        self._t0 = 0.0
        self.active = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.unattributed_s = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        with self._lock:
            self._t0 = self._mark = self._clock()
            self.active = True

    def stop(self) -> None:
        with self._lock:
            now = self._clock()
            self._advance(now)
            self.active = False
            self.wall_s = now - self._t0
            self._open.clear()

    def _advance(self, now: float) -> None:
        elapsed = now - self._mark
        if self._open:
            self.self_s[self._open[-1].layer] += elapsed
        else:
            self.unattributed_s += elapsed
        self._mark = now

    def enter(self, layer: str) -> _Frame | None:
        """Open a span; None while the ledger is inactive.

        A span counts as a call of its layer unless the innermost open
        span of the same thread is already that layer (a public entry
        point delegating to a sibling entry point is one call).
        """
        thread = threading.get_ident()
        with self._lock:
            if not self.active:
                return None
            self._advance(self._clock())
            same_thread = [f for f in self._open if f.thread == thread]
            if not same_thread or same_thread[-1].layer != layer:
                self.calls[layer] += 1
            frame = _Frame(layer, thread)
            self._open.append(frame)
            return frame

    def exit(self, frame: _Frame | None) -> None:
        if frame is None:
            return
        with self._lock:
            if not self.active:
                return
            self._advance(self._clock())
            for i in range(len(self._open) - 1, -1, -1):
                if self._open[i] is frame:
                    del self._open[i]
                    break

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            if self.active:
                self.counts[name] += amount

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


def span(ledger: Ledger, layer: str, fn: Callable, hook: Callable | None = None) -> Callable:
    """``fn`` wrapped in a ledger span; ``hook(ledger, args, kwargs, result)``
    runs after a traced call returns (for computed counters)."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapped_async(*args, **kwargs):
            frame = ledger.enter(layer)
            try:
                result = await fn(*args, **kwargs)
            finally:
                ledger.exit(frame)
            if hook is not None and frame is not None:
                hook(ledger, args, kwargs, result)
            return result

        return wrapped_async

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        frame = ledger.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            ledger.exit(frame)
        if hook is not None and frame is not None:
            hook(ledger, args, kwargs, result)
        return result

    return wrapped


class Patcher:
    """Installs span wrappers from outside and restores the originals.

    A module-level function is replaced in its defining module *and* in
    every already-imported module of ``package`` that bound it by name
    (``from x import f``), so callers see the wrapper whichever binding
    they use.  ``Class.method`` targets are replaced on the class.
    """

    def __init__(self, ledger: Ledger, package: str) -> None:
        self.ledger = ledger
        self.package = package
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self, module_name: str, target: str, layer: str, hook: Callable | None = None
    ) -> None:
        module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        if "." in target:
            cls_name, attr = target.split(".", 1)
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, span(self.ledger, layer, original, hook))
            return
        original = getattr(module, target)
        wrapper = span(self.ledger, layer, original, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == self.package or name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 50.0)) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it.

    ``n * (1 - p/100)`` samples lie above the p-th percentile; None when
    even the median has fewer than ten samples beyond it.
    """
    for p in candidates:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (the sample at rank ceil(p/100 * n))."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_or(values: list[float], default: float) -> float:
    return statistics.median(values) if values else default


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    KEEP = 10

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self.KEEP:
            self.reasons.append(reason)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: self.KEEP - len(self.reasons)])

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    def response(self, status: int, body: bytes, expected: bytes | None, what: str) -> bool:
        """One served response: a non-200 or a byte mismatch is a failure."""
        if status != 200:
            self.fail(f"{what}: HTTP {status}")
            return False
        same = expected is None or body == expected
        return self.check(same, f"{what}: bytes differ from the CLI")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
