"""Fetch-granularity benchmarks (paper Section IV-D).

A cache line consists of one or more *sectors*; a miss fetches only the
accessed sector.  The benchmark runs cold p-chase instances with strides
growing from 4 B in 4 B steps (the paper assumes the granularity is a
multiple of four): while the stride is below the sector size, some loads
land in already-fetched sectors and hit; once the stride reaches the
sector size every load opens a new sector and only misses remain —
that first all-miss stride *is* the fetch granularity.

Classification is latency-based, as on real hardware: a load counts as a
hit when its observed latency is below the midpoint between the target
level's and the next level's hit latency (estimated robustly from the
run itself, not from ground truth).
"""

from __future__ import annotations

import numpy as np

from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.gpusim.isa import LoadKind

__all__ = ["measure_fetch_granularity"]

_PROBE_LOADS = 96

#: Largest stride tried; hits that persist up to it give no result.
_MAX_STRIDE = 512


def _anchor_threshold(ctx: BenchmarkContext, kind: LoadKind) -> float:
    """Hit-band anchor from a minimal-stride cold probe.

    A 4 B stride is below any plausible sector size (the paper assumes
    granularities are multiples of four), so its probe always contains
    *target-level* hits; the fastest observed latency anchors the hit
    band.  Larger strides are then classified against this absolute
    threshold, so sector hits in a deeper cache — possible whenever the
    levels' granularities differ, e.g. after reconfiguring the L2
    transaction size — never masquerade as target-level hits.
    """
    ctx.device.flush_caches()
    _, latencies = ctx.runner.probe(kind, 4 * _PROBE_LOADS, 4, n_samples=_PROBE_LOADS)
    anchor = float(np.min(latencies))
    return anchor + max(10.0, 0.3 * anchor)


def measure_fetch_granularity(
    ctx: BenchmarkContext,
    kind: LoadKind,
    target: str,
    hit_threshold: float | None = None,
) -> MeasurementResult:
    """Find the sector size of the element behind ``kind``.

    ``hit_threshold`` (cycles) overrides the bimodal auto-split; the
    constant hierarchy needs it because the constant path stacks two
    cache levels — a "hit" for the Constant L1.5 granularity means any
    latency below the CL1.5/DRAM midpoint, while the CL1 granularity only
    counts loads below the CL1/CL1.5 midpoint (paper Table III reports
    both: 64 B and 256 B on the H100).
    """
    if hit_threshold is None:
        hit_threshold = _anchor_threshold(ctx, kind)
    first_all_miss: int | None = None
    observed: dict[int, int] = {}
    for stride in range(4, _MAX_STRIDE + 1, 4):
        ctx.device.flush_caches()
        nbytes = stride * _PROBE_LOADS
        _, latencies = ctx.runner.probe(kind, nbytes, stride, n_samples=_PROBE_LOADS)
        hits = np.asarray(latencies) < hit_threshold
        observed[stride] = int(hits.sum())
        if not hits.any():
            first_all_miss = stride
            break
    ctx.count("fetch_granularity", target)
    if first_all_miss is None:
        return MeasurementResult.no_result(
            "fetch_granularity",
            target,
            "B",
            f"hits persisted up to the {_MAX_STRIDE} B stride cap",
        )
    return MeasurementResult(
        benchmark="fetch_granularity",
        target=target,
        value=first_all_miss,
        unit="B",
        confidence=1.0,
        detail={"hits_per_stride": observed},
    )
