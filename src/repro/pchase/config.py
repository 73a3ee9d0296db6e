"""Benchmark configuration: the two tunables a caller sets.

``n_samples`` is the first-N capture of every timed pass (Section IV-A)
and ``engine`` picks the measurement engine.  Every other measurement
default — the size benchmark's sweep budget and widening schedule, the
latency benchmark's array length — is a constant of the benchmark that
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PChaseConfig"]


@dataclass(frozen=True)
class PChaseConfig:
    """Tunables of the measurement pipeline."""

    #: first-N latencies stored per timed pass (paper Section IV-A).
    n_samples: int = 384
    #: measurement engine: "analytic" batches warm/timed/probe passes
    #: through the vectorised cache primitives; "exact" walks every load
    #: through the per-access simulator.  Both produce identical
    #: measurements — the analytic engine exists purely for speed (see
    #: benchmarks/bench_discovery_speed.py).
    engine: str = "analytic"

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.engine not in ("analytic", "exact"):
            raise ValueError(
                f"engine must be 'analytic' or 'exact', got {self.engine!r}"
            )
