"""Deterministic fault injection + retry/backoff policies (the chaos plane).

MT4G's headline claim is *reliable* auto-discovery; this package is how
the reproduction proves the reliability machinery itself.  It has two
halves:

* :mod:`repro.faults.plan` — a seedable, recorded :class:`FaultPlan`
  that injects worker crashes, hangs, slow or failing cache I/O,
  corrupted-on-write store entries and transient measurement exceptions
  at named injection points in the fleet runner, the discovery store and
  the serving queue.  Off by default with nothing but a ``None`` check
  on the hot path; activated explicitly or via ``$MT4G_FAULT_PLAN`` (so
  worker processes inherit the plan);
* :mod:`repro.faults.retry` — the :class:`RetryPolicy` every retry loop
  runs: bounded attempts, exponential backoff, deterministic per-key
  jitter, optional overall deadline; :class:`Breaker` guards keys and peers.

The contract the chaos harness (``benchmarks/bench_chaos.py``) enforces:
any discovery that *succeeds* under an injected fault plan is
byte-identical to its fault-free report — faults may cost retries and
wall-clock, never correctness.
"""

from repro.faults.breaker import Breaker
from repro.faults.plan import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    activate,
    active_plan,
    deactivate,
    inject,
    injected,
    injected_counts,
    injected_total,
)
from repro.faults.retry import (
    DEFAULT_FLEET_RETRY,
    DEFAULT_SERVE_RETRY,
    RetryPolicy,
)

__all__ = [
    "Breaker",
    "DEFAULT_FLEET_RETRY",
    "DEFAULT_SERVE_RETRY",
    "ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "activate",
    "active_plan",
    "deactivate",
    "inject",
    "injected",
    "injected_counts",
    "injected_total",
]
