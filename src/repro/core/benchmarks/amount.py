"""Amount benchmarks (paper Section IV-F) and the L2 segment special case.

**Per-SM amount** — two synchronized cores inside one SM:

1. core A (index 0) warms the cache with array A,
2. core B (index doubling 1, 2, 4, ... up to the core count) warms with
   array B of the same size,
3. core A probes array A and observes hits or misses.

If both cores sit behind the same cache segment, B's warm-up evicted A's
data (arrays are cache-sized) and step 3 misses; the first B index whose
probe *hits* reveals an isolated segment, and the amount is
``num_cores_per_SM / coreB_index``.  The L1 variant requires pinning
observer threads across *all* warps of the SM — which is exactly what the
P6000's scheduler refuses for warp 3 (paper Section V item 2), turning
that benchmark into an honest no-result.

**L2 segments** (Section IV-F.1) — the API reports the total L2 size
while one SM reaches only one segment, so the question flips: the size
benchmark's segment measurement is aligned to the nearest integer
fraction of the API size, and the distance to that fraction becomes the
confidence.
"""

from __future__ import annotations

from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.errors import SchedulingError
from repro.gpusim.isa import LoadKind
from repro.units import nearest_integer_fraction

__all__ = ["measure_amount", "resolve_l2_segments"]

_HIT_FRACTION = 0.5


def _preflight_all_warps(ctx: BenchmarkContext) -> None:
    """The L1 protocol pins one observer thread per warp; verify we can."""
    core = ctx.device.sm(0)
    for warp in range(core.warps):
        if not core.check_warp_schedulable(warp):
            raise SchedulingError(
                f"unable to schedule a thread on warp {warp} (of {core.warps})"
            )


def measure_amount(
    ctx: BenchmarkContext,
    kind: LoadKind,
    target: str,
    cache_size: int,
    fetch_granularity: int,
    spans_all_warps: bool = False,
) -> MeasurementResult:
    """Count independent cache segments per SM for one memory element.

    ``spans_all_warps`` marks protocols that must co-schedule observer
    threads on every warp (the L1 variant); others keep their helper
    threads in the low warps and are immune to the P6000 quirk.
    """
    stride = int(fetch_granularity)
    # "Close to the cache size to ensure potential cache evictions"
    # (Section IV-F) — but safely inside it, so a small size-benchmark
    # overestimate cannot make core A's probe thrash its own array.
    nbytes = max(stride, int(cache_size * 0.85) // stride * stride)
    cores = ctx.device.sm(0).cores
    try:
        if spans_all_warps:
            _preflight_all_warps(ctx)
        core_b = 1
        segments = 1
        while core_b < cores:
            ctx.device.flush_caches()
            ctx.runner.warm(kind, nbytes, stride, core=0, slot=0)
            ctx.runner.warm(kind, nbytes, stride, core=core_b, slot=1)
            hits, _ = ctx.runner.probe(kind, nbytes, stride, slot=0)
            if hits.mean() > _HIT_FRACTION:
                segments = cores // core_b
                break
            core_b *= 2
    except SchedulingError as exc:
        ctx.count("amount", target)
        return MeasurementResult.no_result("amount", target, "count", str(exc))
    ctx.count("amount", target)
    return MeasurementResult(
        benchmark="amount",
        target=target,
        value=int(segments),
        unit="count",
        confidence=1.0,
        detail={"first_isolated_core": core_b if segments > 1 else None},
    )


def resolve_l2_segments(
    ctx: BenchmarkContext,
    measured_segment_size: int,
    api_total_size: int,
) -> MeasurementResult:
    """Align a measured L2 segment size to an integer fraction of the API size."""
    if measured_segment_size <= 0 or api_total_size <= 0:
        raise ValueError("sizes must be positive")
    segments, confidence = nearest_integer_fraction(
        api_total_size, measured_segment_size
    )
    return MeasurementResult(
        benchmark="amount",
        target="L2",
        value=segments,
        unit="count",
        confidence=confidence,
        detail={
            "measured_segment_size": measured_segment_size,
            "api_total_size": api_total_size,
            "aligned_segment_size": api_total_size // segments,
        },
    )
