"""Paper Fig. 3 — the Amount benchmark's cooperative-eviction protocol.

The figure shows the two scenarios: on a single-segment cache, core B's
warm-up always evicts core A's content (step 3 misses, bottom panels); on
a two-segment cache, a core B behind the other segment leaves core A's
data alone (step 3 hits, top-right panel), revealing the second segment.

This bench replays the protocol step by step on the one- and two-segment
synthetic devices, prints the scenario matrix, and asserts the derived
amounts — including the ``cores / coreB_index`` formula of Section IV-F.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.benchmarks.amount import measure_amount
from repro.core.benchmarks.base import BenchmarkContext
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.isa import LoadKind
from repro.pchase.runner import PChaseRunner

CACHE_SIZE = 4096
STRIDE = 32


def protocol_trace(preset: str) -> list[tuple[int, float]]:
    """(core B index, step-3 hit fraction) for every doubling of B."""
    device = SimulatedGPU.from_preset(preset, seed=42)
    runner = PChaseRunner(device)
    nbytes = int(CACHE_SIZE * 0.85) // STRIDE * STRIDE
    trace = []
    core_b = 1
    while core_b < device.sm(0).cores:
        device.flush_caches()
        runner.warm(LoadKind.LD_GLOBAL_CA, nbytes, STRIDE, core=0, slot=0)
        runner.warm(LoadKind.LD_GLOBAL_CA, nbytes, STRIDE, core=core_b, slot=1)
        hits, _ = runner.probe(LoadKind.LD_GLOBAL_CA, nbytes, STRIDE, slot=0)
        trace.append((core_b, float(np.mean(hits))))
        core_b *= 2
    return trace


@pytest.mark.parametrize(
    "preset,expected_amount",
    [("TestGPU-NV", 1), ("TestGPU-NV-2SEG", 2)],
)
def test_fig3_protocol(benchmark, preset, expected_amount):
    trace = benchmark.pedantic(protocol_trace, args=(preset,), rounds=1, iterations=1)

    print(f"\n=== Fig. 3 — Amount protocol on {preset} ===")
    for core_b, hit_rate in trace:
        verdict = "HIT (isolated segment!)" if hit_rate > 0.5 else "miss (same segment)"
        print(f"core A=0, core B={core_b:3d}: step-3 {verdict} ({hit_rate:.0%})")

    cores = 64
    isolated = [b for b, rate in trace if rate > 0.5]
    if expected_amount == 1:
        assert not isolated  # bottom panel: B always evicts A
    else:
        first = min(isolated)
        # Section IV-F: amount = NumCoresPerSM / CoreBIndex.
        assert cores // first == expected_amount
        assert first == 32  # cores 0..31 -> segment 0, 32..63 -> segment 1


@pytest.mark.parametrize(
    "preset,expected",
    [("TestGPU-NV", 1), ("TestGPU-NV-2SEG", 2)],
)
def test_fig3_full_benchmark_agrees(preset, expected):
    ctx = BenchmarkContext(SimulatedGPU.from_preset(preset, seed=42))
    m = measure_amount(ctx, LoadKind.LD_GLOBAL_CA, "L1", CACHE_SIZE, STRIDE)
    assert m.value == expected
