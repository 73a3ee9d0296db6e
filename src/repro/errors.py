"""Exception hierarchy for the MT4G reproduction.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.

The distinction between :class:`BenchmarkInconclusiveError` and
:class:`BenchmarkUnsupportedError` mirrors the paper's error-honesty policy
(Section V): a benchmark that cannot produce a trustworthy answer reports
*no result* (or zero confidence), never a fabricated one.

A second axis classifies failures as **transient** (worth retrying: a
crashed worker, a stalled filesystem, an injected chaos fault) versus
**permanent** (retrying cannot help: an unknown preset, an inconsistent
spec).  :func:`is_transient` is the single classification point the
fleet's retry loop and the serving queue's circuit breaker consult, so
the two layers can never disagree about what deserves another attempt.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class TransientError(ReproError):
    """A failure that a bounded retry has a real chance of clearing.

    Raise (or subclass) this for infrastructure-flavoured trouble —
    crashed workers, timeouts, racing filesystems — never for input
    errors, which retrying would only repeat.
    """


class WorkerCrashError(TransientError):
    """A discovery worker died (or was made to die) mid-measurement."""


class InjectedFaultError(ReproError):
    """Base class for faults raised by the deterministic fault-injection
    plane (:mod:`repro.faults`) — never raised in production runs."""


class InjectedTransientError(InjectedFaultError, TransientError):
    """An injected fault that retry logic is expected to absorb."""


class InjectedPermanentError(InjectedFaultError):
    """An injected fault that retry logic is expected to give up on."""


#: Exception types outside our hierarchy that still signal retryable,
#: infrastructure-flavoured trouble (a worker process vanishing, a
#: filesystem stall, a dropped pipe to a pool worker).
_TRANSIENT_FOREIGN = (
    BrokenExecutor,
    ConnectionError,
    EOFError,
    InterruptedError,
    OSError,
    TimeoutError,
)


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` is worth retrying (see module docstring).

    :class:`ReproError` subclasses are transient only when they opt in
    via :class:`TransientError` — a library error like an unknown preset
    is a caller mistake, not weather.  Foreign exceptions are transient
    only for the infrastructure shapes in ``_TRANSIENT_FOREIGN``.
    """
    if isinstance(exc, TransientError):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(exc, _TRANSIENT_FOREIGN)


class SpecError(ReproError):
    """A hardware specification is inconsistent or incomplete."""


class UnknownGPUError(SpecError, KeyError):
    """Requested GPU preset does not exist in the registry."""

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        msg = f"unknown GPU preset {name!r}"
        if available:
            msg += f"; available: {', '.join(available)}"
        super().__init__(msg)


class SimulationError(ReproError):
    """The GPU simulator was driven into an invalid state."""


class SchedulingError(SimulationError):
    """A kernel/thread could not be scheduled on the requested resource.

    Raised e.g. by the P6000 warp-scheduling quirk (paper Section V, item 2)
    and by attempts to pin thread blocks to CU ids on virtualized devices
    (MI300X, Section V item 1).
    """


class AllocationError(SimulationError):
    """A device-memory allocation exceeded the available capacity."""


class APIUnavailableError(ReproError):
    """The emulated vendor API does not expose the requested attribute.

    This reproduces the coverage gaps of the real vendor interfaces
    (paper Table I): callers are expected to fall back to microbenchmarks.
    """


class BenchmarkError(ReproError):
    """Base class for benchmark-level failures."""


class BenchmarkInconclusiveError(BenchmarkError):
    """The measurement completed but no statistically sound answer exists.

    The orchestrator converts this into a result with ``confidence == 0.0``
    (e.g. the Constant L1.5 size capped by the 64 KiB constant-array limit).
    """


class BenchmarkUnsupportedError(BenchmarkError):
    """The benchmark cannot run at all on this device configuration.

    The orchestrator converts this into a *no result* entry (e.g. AMD L3
    load latency on CDNA3, or the MI300X CU-id sharing benchmark under
    virtualization).
    """


class OutputError(ReproError):
    """A report writer failed to serialize results."""
