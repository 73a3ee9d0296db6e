"""Cache-line-size benchmarks (paper Section IV-E).

Premise: the size benchmark evicts lines because its stride is below the
line size.  Raising the stride above the line size skips whole lines, so
the capacity boundary *shifts* — the cache appears larger by the factor
``stride / line_size``.  Strides at even multiples of the line size alias
back onto a subset of the (power-of-two many) sets and fake an unshifted
boundary; the evaluation heuristics reject them automatically because
their apparent-capacity ratio stays at 1 (see
:mod:`repro.stats.heuristics` for the full derivation).

The benchmark therefore localises the apparent capacity for each stride
in the grid (reusing the size benchmark's bound-finding machinery with a
tight budget), feeds the (stride, apparent capacity) pairs into
:func:`~repro.stats.heuristics.estimate_cache_line_size`, and reports the
power-of-two-snapped median vote with its agreement confidence.

This is the discovery pipeline's heaviest consumer of huge p-chase
arrays (probes up to 8x the cache size per stride).  The analytic
engine (:mod:`repro.gpusim.cache`) never builds them: each warm is a
deferred descriptor, the per-set line counts of a line-skipping ring
are closed form, and the levels below the probed cache are answered
from their descriptors while every load reaching them hits, so a probe
costs O(samples) instead of O(array).
"""

from __future__ import annotations

import numpy as np

from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.core.benchmarks.size import find_capacity_bounds
from repro.gpusim.isa import LoadKind
from repro.stats.heuristics import estimate_cache_line_size

__all__ = ["measure_cache_line_size"]

#: Largest line size the stride grid is built to detect.
_MAX_LINE = 1024


def measure_cache_line_size(
    ctx: BenchmarkContext,
    kind: LoadKind,
    target: str,
    cache_size: int,
    fetch_granularity: int,
    max_size_cap: int | None = None,
) -> MeasurementResult:
    """Estimate the line size of a cache of known capacity.

    ``cache_size`` comes from the size benchmark (or an API); the stride
    grid is multiples of the fetch granularity up to a small multiple of
    :data:`_MAX_LINE` (a line holds at least one sector, so the
    granularity is the natural pivot).  ``max_size_cap`` bounds probe
    arrays (the 64 KiB constant bank).
    """
    fg = int(fetch_granularity)
    cache_size = int(cache_size)
    top = min(3 * _MAX_LINE, max(cache_size // 4, 2 * fg))

    strides: list[int] = []
    apparent: list[float] = []
    shift_votes = 0
    first_shift: int | None = None
    stride = fg
    while stride <= top:
        lo = max(stride * 4, cache_size // 2)
        hi = cache_size * 8
        if max_size_cap is not None:
            hi = min(hi, int(max_size_cap))
        if lo * 2 > hi:
            break  # cannot probe beyond this stride under the array cap
        bounds = find_capacity_bounds(
            ctx,
            kind,
            stride,
            lo=lo,
            hi_cap=hi,
            budget=max(stride * 2, cache_size // 32),
        )
        if bounds is not None:
            measured = (bounds[0] + bounds[1]) / 2.0
            if measured < 0.95 * hi:  # saturated probes give no clean vote
                strides.append(stride)
                apparent.append(measured)
                if measured > 1.3 * apparent[0]:
                    shift_votes += 1
                    if first_shift is None:
                        first_shift = stride
        # Stop once enough shift evidence exists: the line size cannot
        # exceed the first shifted stride, so far longer strides only
        # repeat the vote (and cost large probe arrays).
        if first_shift is not None and (
            shift_votes >= 6 or stride >= 4 * first_shift
        ):
            break
        stride += fg

    ctx.count("cache_line_size", target)
    strides = np.asarray(strides, dtype=np.int64)
    apparent = np.asarray(apparent, dtype=np.float64)
    if strides.size < 2:
        return MeasurementResult.no_result(
            "cache_line_size",
            target,
            "B",
            "not enough unsaturated probes for a line-size estimate",
        )
    line, confidence = estimate_cache_line_size(strides, apparent, fg)
    if line is None:
        # No stride shifted the boundary: the line is at least as large as
        # the largest tested stride — report the bound honestly.
        return MeasurementResult(
            benchmark="cache_line_size",
            target=target,
            value=int(strides[-1]),
            unit="B",
            confidence=0.0,
            note="no boundary shift observed; value is a lower bound",
            detail={
                "strides": strides.tolist(),
                "apparent_capacities": apparent.tolist(),
                "lower_bound": True,
            },
        )
    return MeasurementResult(
        benchmark="cache_line_size",
        target=target,
        value=int(line),
        unit="B",
        confidence=confidence,
        detail={
            "strides": strides.tolist(),
            "apparent_capacities": apparent.tolist(),
        },
    )
