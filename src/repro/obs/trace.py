"""End-to-end request tracing (W3C ``traceparent``, bounded span ring).

The model is deliberately small: a :class:`SpanContext` names *where we
are* in a trace — ``(tracer, trace_id, span_id, parent_id)`` — and lives
in the :data:`CURRENT` context variable.  Instrumented code does::

    ctx = CURRENT.get()
    if ctx is None:          # tracing off: the whole cost of the plane
        ...                  # (one C-level contextvar read, no allocs)

and, when a context is active, records completed spans into the owning
:class:`Tracer`'s lock-guarded bounded ring.  Spans are recorded *at
completion* (there is no mutable in-flight span object), which keeps
recording a single append.

Hot-path spans are stored as flat tuples — ``(trace_id, span_id,
parent_id, name, start_ms, duration_ms, attrs)`` — not dicts: a tuple
of scalars is cheaper to build, and CPython's GC untracks it, so a full
ring adds nothing to collection sweeps.  Tuples become the public JSON
dict shape lazily, at query time (:func:`_finalize_bucket`), the same
deferral as leaf span ids.  Ingested spans (pool workers, peers) arrive
as dicts and are stored as-is; buckets may hold a mix.

Why the tracer rides in the context instead of a module global: tests
and replication run two :class:`~repro.serve.server.TopologyService`
instances in one process, and each must keep its own ring.

Propagation follows the ``$MT4G_FAULT_PLAN`` pattern: the context
crosses process boundaries as a ``traceparent`` string — handed to pool
workers as an argument (persistent pre-warmed pools outlive any env
snapshot) and mirrored into :data:`ENV_VAR` for the job's duration, and
attached as an HTTP header on peer-proxy calls — so a cold request
proxied across the ring is one trace id fleet-wide.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import islice
from typing import Any, Iterable, Iterator, NamedTuple

__all__ = [
    "CURRENT",
    "ENV_VAR",
    "SpanContext",
    "Tracer",
    "child",
    "complete",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "outbound_traceparent",
    "parse_traceparent",
    "record",
    "worker_trace",
]

#: Environment mirror of the active trace context — the cross-process
#: channel, exactly like ``MT4G_FAULT_PLAN`` for fault plans.
ENV_VAR = "MT4G_TRACEPARENT"

_TRACEPARENT = re.compile(r"^[0-9a-f]{2}-([0-9a-f]{32})-([0-9a-f]{16})-[0-9a-f]{2}$")


#: Ids need uniqueness, not unpredictability — and they are minted on
#: the warm serve path, so ``os.urandom``'s per-call syscall is real
#: money.  One urandom seed, then Mersenne draws; ``getrandbits`` is a
#: single C call, atomic under the GIL, so no lock is needed.
_rand = random.Random(os.urandom(16))


def new_trace_id() -> str:
    return f"{_rand.getrandbits(128):032x}"


def new_span_id() -> str:
    return f"{_rand.getrandbits(64):016x}"


#: Pool of pre-minted 48-hex-char id blocks (32 trace + 16 span): one
#: bulk draw plus one C-level hex conversion amortized over the batch
#: beats a per-request draw-and-format.  ``list.pop``/``append`` are
#: GIL-atomic; a racing double-refill just pools extra ids.
_ID_BATCH = 64
_id_pool: list[str] = []


def _new_id_block() -> str:
    if not _id_pool:
        hexed = _rand.getrandbits(_ID_BATCH * 192).to_bytes(
            _ID_BATCH * 24, "big"
        ).hex()
        _id_pool.extend(
            hexed[i : i + 48] for i in range(0, _ID_BATCH * 48, 48)
        )
    return _id_pool.pop()


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a W3C traceparent, or None.

    Malformed headers are treated as absent (a fresh trace starts)
    rather than rejected — tracing must never fail a request.
    """
    if not header:
        return None
    match = _TRACEPARENT.match(header.strip().lower())
    if match is None:
        return None
    trace_id, span_id = match.group(1), match.group(2)
    if trace_id == "0" * 32 or span_id == "0" * 16:  # forbidden by the spec
        return None
    return trace_id, span_id


def format_traceparent(trace_id: str, span_id: str) -> str:
    return f"00-{trace_id}-{span_id}-01"


class SpanContext(NamedTuple):
    """A position in a trace: children parent to ``span_id``."""

    tracer: "Tracer"
    trace_id: str
    span_id: str
    #: Parent of the span ``span_id`` itself (remote parent for a
    #: request root continued from an incoming traceparent).
    parent_id: str | None
    #: Request-local span buffer.  When present, leaf spans recorded
    #: under this context go here — one GIL-atomic list append, no
    #: lock, no ring bookkeeping — and reach the ring in a single
    #: locked flush when the request finishes.  ``None`` (worker and
    #: job contexts) means record straight into the ring.
    buf: "list | None" = None

    @property
    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.span_id)


#: The active span context.  ``None`` means tracing is off — the single
#: check every instrumented hot path performs.  Context-local, so two
#: services in one process (or one loop) never cross-record.
CURRENT: ContextVar[SpanContext | None] = ContextVar("mt4g_trace", default=None)


class Tracer:
    """Lock-guarded bounded ring of completed traces.

    Spans arrive from the event loop, executor threads and (ingested)
    pool workers; everything mutating is under one lock.  The ring
    bounds both the number of retained traces and spans per trace, so
    a scraping-free deployment cannot grow without limit — the same
    posture as ``MAX_TERMINAL_JOBS``.
    """

    def __init__(
        self,
        max_traces: int = 512,
        max_spans_per_trace: int = 256,
        slow_ms: float | None = None,
        log_stream: Any = None,
        clock=time.time,
    ) -> None:
        self.max_traces = max(1, int(max_traces))
        self.max_spans_per_trace = max(1, int(max_spans_per_trace))
        self.slow_ms = slow_ms
        self._log_stream = log_stream
        self._clock = clock
        # Wall-clock epoch for perf_counter stamps, fixed at creation:
        # start_ms becomes one multiply-add per span instead of a
        # clock() call — this runs on the warm serve path.
        self._epoch_ms = clock() * 1e3 - time.perf_counter() * 1e3
        self._lock = threading.Lock()
        # Insertion-ordered (plain dicts are, since 3.7): eviction is
        # "delete from the front".  Evicting in small batches amortizes
        # the bookkeeping — at steady state every new trace would
        # otherwise pay one eviction on the serve hot path.
        self._evict_batch = max(1, min(32, self.max_traces // 8))
        self._traces: dict[str, list] = {}
        # Finished request buffers wait here (one GIL-atomic append,
        # no lock) until a batch boundary or any query inserts them
        # into the ring.  Queries flush first, so reads stay
        # read-your-writes; the ring lags by at most one batch.
        self._staged: list[list] = []
        self._stage_batch = 64
        self.spans_recorded = 0
        self.spans_dropped = 0
        self.traces_evicted = 0
        self.slow_traces = 0

    # -- context construction ------------------------------------------ #

    def begin(self, traceparent: str | None = None) -> SpanContext:
        """Root context for one request: continue or start a trace.

        The context carries a request-local span buffer: everything
        recorded under it stays off the ring until
        :meth:`finish_request` flushes the whole request in one locked
        pass.
        """
        parsed = parse_traceparent(traceparent) if traceparent else None
        if parsed is None:
            # Both ids from one pooled block; ``tuple.__new__`` skips
            # the generated namedtuple ctor frame.
            ids = _new_id_block()
            return tuple.__new__(
                SpanContext, (self, ids[:32], ids[32:], None, [])
            )
        trace_id, parent_id = parsed
        return tuple.__new__(
            SpanContext, (self, trace_id, new_span_id(), parent_id, [])
        )

    # -- recording ----------------------------------------------------- #

    def record(
        self,
        ctx: SpanContext,
        name: str,
        start: float,
        attrs: dict | None = None,
        *,
        span_id: str | None = None,
        parent_id: str | None = None,
    ) -> None:
        """Record a completed span; ``start`` is a ``perf_counter`` stamp.

        Without ``span_id`` a fresh **leaf** span is created under
        ``ctx.span_id`` — its own id is left unassigned until queried
        (see :func:`_finalize`); with it, the span *is* ``ctx`` (its
        parent the remote/submitting span) — used for request roots and
        job spans whose ids children and workers have already parented
        to.
        """
        duration_ms = (time.perf_counter() - start) * 1e3
        span = {
            "trace_id": ctx.trace_id,
            "span_id": span_id,
            "parent_id": parent_id if span_id is not None else ctx.span_id,
            "name": name,
            "start_ms": self._epoch_ms + start * 1e3,
            "duration_ms": duration_ms,
        }
        if attrs:
            span["attrs"] = attrs
        self._append(span)

    def ingest(self, spans: Iterable[dict]) -> None:
        """Adopt spans recorded elsewhere (pool worker, peer instance)."""
        for span in spans:
            if isinstance(span, dict) and "trace_id" in span:
                self._append(dict(span))

    def drain(self) -> list[dict]:
        """All spans, flat, clearing the ring (worker-side harvest)."""
        with self._lock:
            self._flush_staged()
            spans = []
            for bucket in self._traces.values():
                spans.extend(_finalize_bucket(bucket))
            self._traces.clear()
        return spans

    def _append(self, span: "dict | tuple") -> None:
        key = span[0] if type(span) is tuple else span["trace_id"]
        with self._lock:
            traces = self._traces
            bucket = traces.get(key)
            if bucket is None:
                if len(traces) >= self.max_traces:
                    for trace_id in list(islice(iter(traces), self._evict_batch)):
                        del traces[trace_id]
                        self.traces_evicted += 1
                bucket = traces[key] = []
            if len(bucket) >= self.max_spans_per_trace:
                self.spans_dropped += 1
                return
            bucket.append(span)
            self.spans_recorded += 1

    # -- request completion (root span + slow-trace log) --------------- #

    def finish_request(
        self,
        ctx: SpanContext,
        name: str,
        start: float,
        status: int,
        elapsed: float | None = None,
    ) -> None:
        """Record the request root and flush the request's span buffer.

        One lock acquisition and one bucket lookup for the entire
        request, however many spans it buffered — the buffer list
        itself becomes the ring bucket, no copy.  ``elapsed`` (seconds)
        lets a caller that already took the end stamp share it.
        """
        elapsed_ms = (
            (time.perf_counter() - start) if elapsed is None else elapsed
        ) * 1e3
        spans = ctx.buf if ctx.buf is not None else []
        # A bare int in the attrs slot means {"status": int} — the one
        # attr every root span carries, folded flat to skip a dict.
        spans.append(
            (
                ctx.trace_id,
                ctx.span_id,
                ctx.parent_id,
                name,
                self._epoch_ms + start * 1e3,
                elapsed_ms,
                status,
            )
        )
        staged = self._staged
        staged.append(spans)
        if len(staged) >= self._stage_batch:
            with self._lock:
                self._flush_staged()
        if self.slow_ms is not None and elapsed_ms >= self.slow_ms:
            self._log_slow(ctx.trace_id, name, status, elapsed_ms)

    def _flush_staged(self) -> None:
        """Insert staged request buffers into the ring (lock held).

        Drain-prefix: concurrent ``finish_request`` appends land past
        the snapshot length and survive the trailing ``del``.  A buffer
        list *becomes* its ring bucket (no copy); ``adopted`` tracks
        lists adopted within this pass so a context finished twice
        between flushes is not double-counted.
        """
        staged = self._staged
        n = len(staged)
        if not n:
            return
        traces = self._traces
        adopted: set[int] | None = None
        for spans in staged[:n]:
            tail = spans[-1]
            key = tail[0] if type(tail) is tuple else tail["trace_id"]
            bucket = traces.get(key)
            if bucket is spans:
                if adopted is None or id(spans) not in adopted:
                    # Adopted by an earlier flush; only the root newly
                    # appended by this finish is unaccounted.
                    self.spans_recorded += 1
                continue
            if bucket is None:
                if len(traces) >= self.max_traces:
                    for trace_id in list(islice(iter(traces), self._evict_batch)):
                        del traces[trace_id]
                        self.traces_evicted += 1
                over = len(spans) - self.max_spans_per_trace
                if over > 0:
                    del spans[self.max_spans_per_trace :]
                    self.spans_dropped += over
                traces[key] = spans
                self.spans_recorded += len(spans)
                if adopted is None:
                    adopted = set()
                adopted.add(id(spans))
            else:
                room = self.max_spans_per_trace - len(bucket)
                take = max(0, min(room, len(spans)))
                bucket.extend(spans[:take])
                self.spans_recorded += take
                self.spans_dropped += len(spans) - take
        del staged[:n]

    def _log_slow(
        self, trace_id: str, name: str, status: int, elapsed_ms: float
    ) -> None:
        with self._lock:
            self._flush_staged()
            self.slow_traces += 1
            bucket = self._traces.get(trace_id)
            spans = _finalize_bucket(bucket) if bucket is not None else []
        line = json.dumps(
            {
                "event": "slow_trace",
                "trace_id": trace_id,
                "route": name,
                "status": status,
                "duration_ms": round(elapsed_ms, 3),
                "threshold_ms": self.slow_ms,
                "spans": spans,
            },
            separators=(",", ":"),
        )
        stream = self._log_stream if self._log_stream is not None else sys.stderr
        try:
            print(line, file=stream, flush=True)
        except (OSError, ValueError):  # closed stream: logging never raises
            pass

    # -- queries ------------------------------------------------------- #

    def spans(self, trace_id: str) -> list[dict]:
        with self._lock:
            self._flush_staged()
            bucket = self._traces.get(trace_id)
            return _finalize_bucket(bucket) if bucket is not None else []

    def summaries(self) -> list[dict]:
        """Newest-first per-trace digests for ``GET /traces``."""
        with self._lock:
            self._flush_staged()
            items = [
                (tid, _finalize_bucket(bucket))
                for tid, bucket in self._traces.items()
            ]
        out = []
        for trace_id, spans in reversed(items):
            roots = [s for s in spans if s.get("parent_id") is None]
            head = roots[0] if roots else spans[0]
            out.append(
                {
                    "trace_id": trace_id,
                    "name": head["name"],
                    "duration_ms": max(s["duration_ms"] for s in spans),
                    "spans": len(spans),
                }
            )
        return out

    def stats(self) -> dict:
        with self._lock:
            self._flush_staged()
            return {
                "traces_held": len(self._traces),
                "spans_recorded": self.spans_recorded,
                "spans_dropped": self.spans_dropped,
                "traces_evicted": self.traces_evicted,
                "slow_traces": self.slow_traces,
            }


# -------------------------------------------------------------------- #
# module-level helpers used by instrumented code                        #
# -------------------------------------------------------------------- #


def _finalize_bucket(bucket: list) -> list[dict]:
    """Make a trace bucket presentable, at query time, in place.

    Hot-path spans sit in the bucket as flat tuples; here each becomes
    the public JSON dict, leaf spans get their ids (they are parents to
    nothing, so the id is pure output — minting it on the serve hot
    path would be paying for the query in the request), and timestamps
    get rounded.  Finalized spans are *written back*, so ids are stable
    across repeated queries (callers hold the tracer lock).
    """
    for i, span in enumerate(bucket):
        if type(span) is tuple:
            trace_id, span_id, parent_id, name, start_ms, duration_ms, attrs = span
            span = {
                "trace_id": trace_id,
                "span_id": span_id if span_id is not None else new_span_id(),
                "parent_id": parent_id,
                "name": name,
                "start_ms": round(start_ms, 3),
                "duration_ms": round(duration_ms, 3),
            }
            if attrs is not None:
                # a bare int is the folded root-span status (see
                # finish_request)
                span["attrs"] = {"status": attrs} if type(attrs) is int else attrs
            bucket[i] = span
        else:
            if span["span_id"] is None:
                span["span_id"] = new_span_id()
            span["start_ms"] = round(span["start_ms"], 3)
            span["duration_ms"] = round(span["duration_ms"], 3)
    return list(bucket)


def record(ctx: SpanContext, name: str, start: float, **attrs: Any) -> None:
    """Record a leaf span under ``ctx`` (hot-path form: caller already
    holds the context and its ``perf_counter`` start)."""
    span = (
        ctx.trace_id,
        None,  # leaf: id filled at query time
        ctx.span_id,
        name,
        ctx.tracer._epoch_ms + start * 1e3,
        (time.perf_counter() - start) * 1e3,
        attrs or None,
    )
    if ctx.buf is not None:
        ctx.buf.append(span)  # flushed by finish_request
    else:
        ctx.tracer._append(span)


def complete(ctx: SpanContext, name: str, start: float, **attrs: Any) -> None:
    """Record the span ``ctx`` itself identifies (children/workers have
    already parented to ``ctx.span_id``)."""
    span = (
        ctx.trace_id,
        ctx.span_id,
        ctx.parent_id,
        name,
        ctx.tracer._epoch_ms + start * 1e3,
        (time.perf_counter() - start) * 1e3,
        attrs or None,
    )
    if ctx.buf is not None:
        ctx.buf.append(span)  # flushed by finish_request
    else:
        ctx.tracer._append(span)


@contextmanager
def child(name: str, attrs: dict | None = None) -> Iterator[SpanContext | None]:
    """Run a block as a child span (no-op yielding None when off).

    ``attrs`` is read when the block exits, so the block may still add
    closing values (counter deltas, outcomes) to it.
    """
    ctx = CURRENT.get()
    if ctx is None:
        yield None
        return
    sub = SpanContext(ctx.tracer, ctx.trace_id, new_span_id(), ctx.span_id, ctx.buf)
    token = CURRENT.set(sub)
    start = time.perf_counter()
    try:
        yield sub
    finally:
        CURRENT.reset(token)
        complete(sub, name, start, **(attrs or {}))


def outbound_traceparent() -> str | None:
    """Header value for outbound peer calls: the active context, else
    the environment mirror (set around pool-worker jobs)."""
    ctx = CURRENT.get()
    if ctx is not None:
        return ctx.traceparent
    return os.environ.get(ENV_VAR) or None


@contextmanager
def worker_trace(traceparent: str | None) -> Iterator[SpanContext | None]:
    """Activate tracing inside a pool worker for one job.

    Builds a throwaway :class:`Tracer` (the worker has no ring of its
    own — spans travel back in the ``WorkerOutcome``), parents to the
    job span named by ``traceparent``, and mirrors the context into
    :data:`ENV_VAR` for the job's duration so nested subprocess or
    peer-fetch paths inherit it the way fault plans do.
    """
    parsed = parse_traceparent(traceparent)
    if parsed is None:
        yield None
        return
    trace_id, parent_id = parsed
    ctx = SpanContext(Tracer(max_traces=8), trace_id, new_span_id(), parent_id)
    token = CURRENT.set(ctx)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = traceparent  # the MT4G_FAULT_PLAN idiom
    try:
        yield ctx
    finally:
        CURRENT.reset(token)
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
