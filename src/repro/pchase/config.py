"""Benchmark configuration knobs.

Mirrors the real tool's CLI tuning surface: the paper notes users "can
configure the measurements more coarsely and thus significantly reduce
the run time" (Section V-A).  ``max_sweep_points`` is that coarseness
control — the step of a size sweep is never finer than the fetch
granularity and never produces more than this many p-chase runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PChaseConfig"]


@dataclass(frozen=True)
class PChaseConfig:
    """Tunables of the measurement pipeline."""

    #: first-N latencies stored per timed pass (paper Section IV-A).
    n_samples: int = 384
    #: untimed passes before the timed pass.
    warmup_passes: int = 1
    #: upper bound on the number of sizes per sweep (coarseness control).
    max_sweep_points: int = 192
    #: significance level of the K-S change-point test.
    ks_alpha: float = 0.01
    #: widen-interval factor per outlier round (Section IV-B step 3).
    widen_factor: float = 0.5
    #: maximum widening rounds before declaring the result inconclusive.
    max_widen_rounds: int = 4
    #: search-space bounds of the size benchmark (Section IV-B: 1 KiB..1 MiB
    #: for SM-level caches; GPU-level caches derive their own bounds).
    search_lo: int = 1024
    search_hi: int = 1024 * 1024
    #: latency-benchmark array size in fetch-granularity units (IV-C:
    #: "MT4G uses size of 256 * Fetch Granularity").
    latency_array_elems: int = 256
    #: measurement engine: "analytic" batches warm/timed/probe passes
    #: through the vectorised cache primitives; "exact" walks every load
    #: through the per-access simulator.  Both produce identical
    #: measurements — the analytic engine exists purely for speed (see
    #: benchmarks/bench_discovery_speed.py).
    engine: str = "analytic"

    def __post_init__(self) -> None:
        if self.n_samples <= 0 or self.warmup_passes < 0:
            raise ValueError("n_samples must be positive, warmup_passes >= 0")
        if self.engine not in ("analytic", "exact"):
            raise ValueError(
                f"engine must be 'analytic' or 'exact', got {self.engine!r}"
            )
        if self.max_sweep_points < 8:
            raise ValueError("max_sweep_points must be at least 8")
        if not 0.0 < self.ks_alpha < 1.0:
            raise ValueError("ks_alpha must be in (0, 1)")
        if self.widen_factor <= 0 or self.max_widen_rounds < 0:
            raise ValueError("widening parameters must be positive")
        if not 0 < self.search_lo < self.search_hi:
            raise ValueError("search interval must satisfy 0 < lo < hi")
        if self.latency_array_elems <= 0:
            raise ValueError("latency_array_elems must be positive")
