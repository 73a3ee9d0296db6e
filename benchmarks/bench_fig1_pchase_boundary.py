"""Paper Fig. 1 — pointer-chase hits/misses around the capacity boundary.

The figure walks a simplified 2-way cache with p-chase arrays of 8, 9 and
10 lines: an array that fits produces only hits after warm-up, an array
past the boundary produces a hit/miss mixture, and a clearly larger array
misses everywhere.  This bench reproduces the experiment on an explicit
2-way SimCache and prints the per-step traces like the figure's panels.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpusim.cache import SimCache

LINE = 64
WAYS = 2
SETS = 4  # capacity: 8 lines, like the figure's toy cache


def run_boundary_experiment() -> dict[int, np.ndarray]:
    """warm + timed pass per array size (in lines); returns hit vectors."""
    traces: dict[int, np.ndarray] = {}
    for n_lines in (8, 9, 10):
        cache = SimCache(
            size=SETS * LINE * WAYS,
            line_size=LINE,
            fetch_granularity=LINE,
            ways=WAYS,
        )
        addrs = np.arange(n_lines, dtype=np.int64) * LINE
        cache.warm_cyclic(addrs, stride=LINE)  # the figure's warm-up rows
        traces[n_lines] = cache.access_many(addrs)  # the timed p-chase row
    return traces


def test_fig1_boundary_traces(benchmark):
    traces = benchmark(run_boundary_experiment)

    print("\n=== Fig. 1 — p-chase across the capacity boundary (8-line cache) ===")
    for n_lines, hits in traces.items():
        row = " ".join("H" if h else "M" for h in hits)
        print(f"array = {n_lines:2d} lines: {row}")

    # array size == capacity: all hits after the warm-up.
    assert traces[8].all()
    # one line past capacity: hits AND misses (the figure's middle panel):
    # only the overfull set thrashes.
    assert traces[9].any() and not traces[9].all()
    # further past capacity: more misses than at the boundary.
    assert (~traces[10]).sum() > (~traces[9]).sum()


def test_fig1_miss_localisation():
    """The misses of the 9-line case hit exactly the oversubscribed set."""
    cache = SimCache(SETS * LINE * WAYS, LINE, LINE, WAYS)
    addrs = np.arange(9, dtype=np.int64) * LINE
    cache.warm_cyclic(addrs, stride=LINE)
    hits = cache.access_many(addrs)
    missed_sets = {int(a // LINE % SETS) for a in addrs[~hits]}
    assert missed_sets == {0}  # lines 0, 4, 8 collide in set 0


def test_fig1_warmup_necessity():
    """Without the warm-up pass even a fitting array measures misses —
    the reason Section IV-A mandates the untimed first pass."""
    cache = SimCache(SETS * LINE * WAYS, LINE, LINE, WAYS)
    addrs = np.arange(8, dtype=np.int64) * LINE
    cold_hits = cache.access_many(addrs)
    assert not cold_hits.any()
