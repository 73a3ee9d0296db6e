"""Cache-size benchmarks (paper Section IV-B).

Implements the four-step workflow:

1. **bound finding** — start from a wide search space and exponentially
   double the p-chase array until the reduced latency signature jumps
   (the array no longer fits), then binary-search the interval down so
   the final sweep stays fine-grained;
2. **sweep** — fresh p-chase runs for every size in the interval, step =
   fetch granularity (coarsened only if the interval would exceed the
   ``_MAX_SWEEP_POINTS`` budget);
3. **outlier handling** — isolated spikes are scrubbed; a change point
   detected at the sweep edge or an insignificant test widens the
   interval and repeats (up to ``_MAX_WIDEN_ROUNDS``);
4. **K-S change-point detection** — the geometric reduction (Eq. 2) of
   the latency matrix is scanned for its strongest distribution split;
   the boundary is the last size on the low side, and the test's
   significance is reported as the confidence metric.

The Constant L1.5 path demonstrates the honesty policy: probing beyond
the 64 KiB constant bank is impossible, so when no change point exists
below the cap the benchmark reports a *lower bound* with confidence 0
(paper Table III: ">64KiB").
"""

from __future__ import annotations

import numpy as np

from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.pchase.arrays import linear_sizes
from repro.stats.changepoint import detect_change_point
from repro.stats.outliers import near_interval_edge, scrub_outliers, scrub_outliers_matrix
from repro.stats.reduction import geometric_reduction
from repro.gpusim.isa import LoadKind

__all__ = ["measure_cache_size", "find_capacity_bounds", "SizeSweepData"]

#: Upper bound on the sizes of one sweep: the step is never finer than
#: the fetch granularity and never yields more p-chase runs than this.
_MAX_SWEEP_POINTS = 192
#: Interval growth per widening round (Section IV-B step 3), as a share
#: of its width, and the rounds tried before the result is inconclusive.
_WIDEN_FACTOR = 0.5
_MAX_WIDEN_ROUNDS = 4


class SizeSweepData(dict):
    """Raw sweep artefacts kept for plots (Fig. 2) and debugging."""


def _reduced_values(matrix: np.ndarray, floor: float) -> np.ndarray:
    """Per-run reduction of a whole latency matrix — one batched call.

    ``floor`` is the hit-level latency floor of the baseline run — the
    paper's Eq. 2 anchors the reduction at the *global* minimum, so a
    fully-thrashed run (internally uniform, but far above the floor)
    still reduces to a large value.  Isolated noise spikes are scrubbed
    first so a single disturbed load cannot fake a capacity jump; genuine
    misses are immune to the scrub because a thrashed cache line produces
    a *contiguous* group of slow loads (one per sector), which the
    isolation test preserves.  Scrub and reduction both operate on the
    full matrix at once (:func:`scrub_outliers_matrix` +
    :func:`geometric_reduction`); the sweep computes its per-run
    ``reduced_per_run`` artefact in one such call.  The bound search
    calls it once per p-chase on a single row, and each step depends on
    the last, so those calls cannot be batched: the scrub's cost per call
    (two row partitions, then a few Python floats per spike) is what an
    A100 discovery's ~600 calls pay.
    """
    cleaned = scrub_outliers_matrix(matrix, z_threshold=8.0)
    return geometric_reduction(cleaned, global_min=floor)


def _reduced_value(latencies: np.ndarray, floor: float) -> float:
    """Single-run reduction used by the bound-finding predicate."""
    return float(_reduced_values(latencies[np.newaxis, :], floor)[0])


def _exceeds(
    ctx: BenchmarkContext,
    kind: LoadKind,
    size: int,
    stride: int,
    baseline: float,
    floor: float,
) -> bool:
    """Does an array of ``size`` bytes overflow the target element?

    The reduction of an in-cache run is pure noise energy; a single
    thrashing set already multiplies it (Section IV-B's "latency rises
    significantly"), so a 3x-baseline threshold is conservative.
    """
    lat = ctx.runner.latencies(kind, size, stride)
    return _reduced_value(lat, floor) > 3.0 * baseline + 1e-9


def find_capacity_bounds(
    ctx: BenchmarkContext,
    kind: LoadKind,
    stride: int,
    lo: int,
    hi_cap: int,
    budget: int | None = None,
) -> tuple[int, int] | None:
    """Workflow step 1: doubling ascent, then binary-search descent.

    Returns the (fits, overflows) interval, or ``None`` when the element
    never overflows below ``hi_cap`` (the CL1.5 situation).  ``budget``
    bounds the final interval width (defaults to the sweep budget); the
    cache-line benchmark reuses this routine to localise *apparent*
    capacities under line-skipping strides (Section IV-E).
    """
    baseline_lat = ctx.runner.latencies(kind, lo, stride)
    floor = float(np.min(baseline_lat))
    baseline = max(_reduced_value(baseline_lat, floor), 1e-9)
    size = lo
    prev = lo
    while not _exceeds(ctx, kind, size, stride, baseline, floor):
        prev = size
        if size >= hi_cap:
            return None
        size = min(size * 2, hi_cap)
        if size == prev:
            return None
    a, b = prev, size
    # Binary descent until the interval fits the sweep budget at natural
    # stride resolution; keep a margin so the boundary stays inside.
    if budget is None:
        budget = _MAX_SWEEP_POINTS * stride
    while (b - a) > budget and (b - a) > 4 * stride:
        mid = (a + b) // 2
        mid -= mid % stride
        if mid <= a or mid >= b:
            break
        if _exceeds(ctx, kind, mid, stride, baseline, floor):
            b = mid
        else:
            a = mid
    return a, b


def _refine_onset(reduced: np.ndarray, cp_index: int) -> int:
    """Walk the change point back to the first elevated index.

    The K-S split may land a step or two inside the miss ramp (the margin
    tie-break prefers wide separations); the true boundary is the first
    index whose reduction clearly exceeds the noise level of the left
    segment.
    """
    left = reduced[:cp_index]
    noise_med = float(np.median(left))
    noise_mad = float(np.median(np.abs(left - noise_med)))
    spread = float(reduced.max() - noise_med)
    threshold = noise_med + max(6.0 * 1.4826 * noise_mad, 0.05 * spread)
    onset = cp_index
    while onset - 1 > 0 and reduced[onset - 1] > threshold:
        onset -= 1
    return onset


def measure_cache_size(
    ctx: BenchmarkContext,
    kind: LoadKind,
    target: str,
    fetch_granularity: int,
    *,
    lo: int,
    hi_cap: int,
) -> MeasurementResult:
    """Measure the capacity of the memory element behind ``kind``.

    ``fetch_granularity`` (from the Section IV-D benchmark or an API) is
    both the access stride and the natural sweep step.  The search starts
    at ``lo`` and ``hi_cap`` caps the probe size (constant bank limit,
    device-memory budget).
    """
    stride = int(fetch_granularity)
    lo, hi_cap = int(lo), int(hi_cap)

    bounds = find_capacity_bounds(ctx, kind, stride, lo, hi_cap)
    ctx.count("size", target)
    if bounds is None:
        return MeasurementResult(
            benchmark="size",
            target=target,
            value=hi_cap,
            unit="B",
            confidence=0.0,
            note=(
                f"no capacity boundary below the {hi_cap} B probe limit; "
                "value is a lower bound"
            ),
            detail={"lower_bound": True, "probe_limit": hi_cap},
        )

    a, b = bounds
    width = b - a
    for round_idx in range(_MAX_WIDEN_ROUNDS + 1):
        sweep_lo = max(stride, a - max(width // 2, 2 * stride))
        sweep_hi = min(hi_cap, b + max(width // 4, 2 * stride))
        sizes = linear_sizes(sweep_lo, sweep_hi, stride, _MAX_SWEEP_POINTS)
        matrix = ctx.runner.sweep(kind, sizes, stride)
        reduced = geometric_reduction(matrix)
        scrubbed = scrub_outliers(reduced)
        cp = detect_change_point(scrubbed)
        if (
            cp is not None
            and cp.significant
            and not near_interval_edge(cp.index, sizes.size)
        ):
            onset = _refine_onset(scrubbed, cp.index)
            boundary = int(sizes[onset - 1])
            data = SizeSweepData(
                sizes=sizes.tolist(),
                reduced=reduced.tolist(),
                # The bound-finding predicate's signal, computed for the
                # whole sweep in one batched call (row-scrub + Eq. 2):
                # lets the raw artefact explain a bound-vs-sweep
                # disagreement.  Diagnostic only — the change point above
                # is detected on the unscrubbed-row reduction.
                reduced_per_run=_reduced_values(
                    matrix, float(matrix.min())
                ).tolist(),
                raw_min=matrix.min(axis=1).tolist(),
                raw_mean=matrix.mean(axis=1).tolist(),
                raw_max=matrix.max(axis=1).tolist(),
                change_point_index=cp.index,
                widen_rounds=round_idx,
                ks_statistic=cp.statistic,
                ks_critical=cp.critical_value,
            )
            return MeasurementResult(
                benchmark="size",
                target=target,
                value=boundary,
                unit="B",
                confidence=cp.confidence,
                detail=data,
            )
        # Workflow step 3: widen and repeat.
        grow = max(int(width * _WIDEN_FACTOR), 4 * stride)
        a = max(stride, a - grow)
        b = min(hi_cap, b + grow)
        width = b - a

    return MeasurementResult.no_result(
        "size",
        target,
        "B",
        f"no significant change point after {_MAX_WIDEN_ROUNDS} widening rounds",
    )
