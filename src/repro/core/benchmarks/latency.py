"""Load-latency benchmarks (paper Section IV-C).

A p-chase with one fixed array size (256 x fetch granularity) targeting a
single memory element; the per-load timings *are* the measurement, the
mean is the headline number and p50/p95/std accompany it.

Targeting rules reproduced from the paper:

* lower-level caches are isolated by instruction kind (``.ca`` vs ``.cg``
  on NVIDIA; the GLC/sc0 bit on AMD);
* the Constant L1.5 is reached with an array larger than the Constant L1
  so the warm-up evicts CL1 and every timed load hits CL1.5;
* device memory is probed cold (no warm-up, caches flushed) so every
  load misses the whole hierarchy;
* scratchpads (Shared Memory / LDS) have no cache dynamics — any array
  size works.
"""

from __future__ import annotations

from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.gpusim.isa import LoadKind

__all__ = ["measure_load_latency"]

#: Array length in fetch-granularity units (IV-C: "MT4G uses size of
#: 256 * Fetch Granularity").
LATENCY_ARRAY_ELEMS = 256


def measure_load_latency(
    ctx: BenchmarkContext,
    kind: LoadKind,
    target: str,
    fetch_granularity: int,
    array_bytes: int | None = None,
    cold: bool = False,
) -> MeasurementResult:
    """Measure the load latency of one memory element, in clock cycles.

    ``cold=True`` skips the warm-up (device-memory probing); otherwise the
    element is populated first, as Section IV-A prescribes.
    """
    from repro.stats.descriptive import summarize

    stride = int(fetch_granularity)
    if array_bytes is not None:
        nbytes = int(array_bytes)
    elif cold:
        # A cold probe must never wrap the ring: a revisited sector would
        # hit the caches filled by the probe itself.
        nbytes = ctx.config.n_samples * stride
    else:
        nbytes = LATENCY_ARRAY_ELEMS * stride
    latencies = ctx.runner.latencies(kind, nbytes, stride, warmup=not cold)
    stats = summarize(latencies)
    ctx.count("load_latency", target)
    # Tight samples => trustworthy average; wide spread lowers confidence.
    spread = stats.std / max(stats.mean, 1e-9)
    confidence = float(max(0.0, min(1.0, 1.0 - spread)))
    return MeasurementResult(
        benchmark="load_latency",
        target=target,
        value=stats.mean,
        unit="cycles",
        confidence=confidence,
        detail={"stats": stats.as_dict(), "array_bytes": nbytes, "cold": cold},
    )
