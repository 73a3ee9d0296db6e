"""Physical-sharing benchmarks (paper Sections IV-G and IV-H).

**NVIDIA** — logical memory spaces (global, texture, readonly, constant)
may be backed by one physical cache or by separate silicon.  The
benchmark is the Amount protocol squeezed onto a single core: warm cache
A through space A, warm cache B through space B, re-probe A.  Misses mean
B's array displaced A's — same physical cache.  On Pascal the constant
path sometimes pollutes the L1 silicon, which is why the paper reports
the L1<->Constant-L1 result as flaky on the P6000 (Section V item 3); the
benchmark votes over several repetitions and reports reduced confidence
when the repetitions disagree.

**AMD** — only scalar and vector L1 caches exist, so the question becomes
*which CUs share one sL1d*.  Two thread blocks are pinned onto two CU
ids, each warms the scalar path, one probes; eviction means the pair
shares.  All CU pairs are tested ("MT4G makes no assumptions about the CU
hardware layout"), and the result names, per CU, the partner CUs — which
also exposes CUs whose partners are fused off and who therefore own the
whole sL1d (the optimization opportunity of Section IV-H).  Under
virtualization (MI300X VF) blocks cannot be pinned and the benchmark
returns an honest no-result.

Every round starts with a device flush, the two rings sit at fixed
addresses, and the probe reads only CU a's load path.  So what a round
observes depends only on which of a's caches are also on b's path (same
sL1d group or not; the L2 is always shared), and rounds of one such class
are equivalent: :meth:`PChaseRunner.pair_rounds` simulates one round per
class and replays the rest.  The replayed rounds still charge their
simulated time and take their probe's noise draws, because those advance
the device clock and generator that every later measurement reads; the
report and the device state come out as if every round had run.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.benchmarks.base import BenchmarkContext, MeasurementResult
from repro.errors import SchedulingError
from repro.gpusim.isa import LoadKind

__all__ = ["measure_sharing_nvidia", "measure_sl1d_sharing"]

_MISS_FRACTION = 0.25
_VOTES = 3
#: Working sets stay slightly below the measured capacity so a small
#: size-benchmark overestimate cannot make the probe thrash itself.
_FILL_FRACTION = 0.85


def _working_set(size: int, stride: int) -> int:
    return max(stride, int(size * _FILL_FRACTION) // stride * stride)


def _evicts(
    ctx: BenchmarkContext,
    kind_a: LoadKind,
    size_a: int,
    stride_a: int,
    kind_b: LoadKind,
    size_b: int,
    stride_b: int,
    sm: int,
) -> bool:
    """One round of warm-A, warm-B, probe-A; True when B displaced A."""
    ws_a = _working_set(size_a, stride_a)
    ws_b = _working_set(size_b, stride_b)
    ctx.device.flush_caches()
    ctx.runner.warm(kind_a, ws_a, stride_a, sm=sm, slot=0)
    ctx.runner.warm(kind_b, ws_b, stride_b, sm=sm, slot=0)
    hits, _ = ctx.runner.probe(kind_a, ws_a, stride_a, sm=sm, slot=0)
    return float(np.mean(~hits)) > _MISS_FRACTION


def measure_sharing_nvidia(
    ctx: BenchmarkContext,
    targets: dict[str, tuple[LoadKind, int, int]],
    sm: int = 0,
) -> dict[str, MeasurementResult]:
    """Pairwise physical-sharing matrix for NVIDIA logical spaces.

    ``targets`` maps element name -> (load kind, working-set bytes,
    stride); working sets are the measured cache sizes so a shared cache
    is fully displaced.  Returns one result per element listing its
    partners; disagreeing repetition votes lower the confidence — the
    Pascal flakiness surfaces here rather than being silently averaged
    away.
    """
    names = list(targets)
    votes: dict[tuple[str, str], int] = {}
    for a, b in itertools.permutations(names, 2):
        kind_a, size_a, stride_a = targets[a]
        kind_b, size_b, stride_b = targets[b]
        votes[(a, b)] = sum(
            _evicts(ctx, kind_a, size_a, stride_a, kind_b, size_b, stride_b, sm)
            for _ in range(_VOTES)
        )

    results: dict[str, MeasurementResult] = {}
    for a in names:
        partners: list[str] = []
        min_agreement = 1.0
        for b in names:
            if a == b:
                continue
            # Sharing is physical, hence symmetric: pool both directions.
            total = votes[(a, b)] + votes[(b, a)]
            shared = total > _VOTES  # majority of 2*_VOTES rounds
            agreement = abs(total - _VOTES) / _VOTES  # 0 = split vote
            min_agreement = min(min_agreement, agreement)
            if shared:
                partners.append(b)
        ctx.count("physical_sharing", a)
        note = "" if min_agreement > 0.5 else "repetition votes disagree (flaky)"
        results[a] = MeasurementResult(
            benchmark="physical_sharing",
            target=a,
            value=tuple(sorted(partners)),
            unit="elements",
            confidence=min_agreement,
            note=note,
            detail={"votes": {f"{x}->{y}": v for (x, y), v in votes.items() if x == a}},
        )
    return results


def measure_sl1d_sharing(
    ctx: BenchmarkContext,
    cache_size: int,
    fetch_granularity: int,
    max_cus: int | None = None,
) -> MeasurementResult:
    """Discover which CU ids share one sL1d cache (all-pairs protocol)."""
    device = ctx.device
    num_cus = device.spec.compute.num_sms if max_cus is None else min(
        max_cus, device.spec.compute.num_sms
    )
    stride = int(fetch_granularity)
    nbytes = _working_set(int(cache_size), stride)
    try:
        # Pre-flight: CU pinning must work at all (virtualization check).
        device.pin_block_to_cu(0)
    except SchedulingError as exc:
        ctx.count("physical_sharing", "sL1d")
        return MeasurementResult.no_result("physical_sharing", "sL1d", "cu-map", str(exc))

    pairs = list(itertools.combinations(range(num_cus), 2))
    misses = ctx.runner.pair_rounds(LoadKind.S_LOAD, nbytes, stride, pairs)
    partners: dict[int, list[int]] = {cu: [] for cu in range(num_cus)}
    for (cu_a, cu_b), miss in zip(pairs, misses):
        if miss > _MISS_FRACTION:
            partners[cu_a].append(cu_b)
            partners[cu_b].append(cu_a)

    exclusive = tuple(cu for cu, p in partners.items() if not p)
    ctx.count("physical_sharing", "sL1d")
    return MeasurementResult(
        benchmark="physical_sharing",
        target="sL1d",
        value={cu: tuple(p) for cu, p in partners.items()},
        unit="cu-map",
        confidence=1.0,
        detail={
            "exclusive_cus": exclusive,
            "physical_ids": tuple(device.spec.compute.physical_cu_ids),
        },
        note=(
            f"{len(exclusive)} CUs own an exclusive sL1d"
            if exclusive
            else "all CUs share their sL1d with at least one partner"
        ),
    )
