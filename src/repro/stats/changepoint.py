"""Offline single-change-point detection on reduced series.

Implements the paper's Section IV-B step (4): every index of the reduced
series S is considered a potential change point; the two-sample K-S test
compares the distribution left of the split against the distribution
right of it.  The accepted change point is the split with the largest
*normalised* K-S statistic (so unequal segment sizes are comparable), and
the test's significance doubles as the confidence metric the tool
reports.

The paper notes (Section IV-B.1) that shortlisting candidate indices — as
Truong et al. do — is unnecessary at this data size; we likewise scan all
indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.stats.kstest import ks_critical_value, ks_pvalue

__all__ = ["ChangePoint", "detect_change_point"]

#: Fewest points either side of a split may hold.
_MIN_SEGMENT = 3


@dataclass(frozen=True)
class ChangePoint:
    """A detected distribution change at ``series[index]``.

    ``index`` is the first element belonging to the *new* distribution
    (the right segment).  ``confidence`` is ``1 - p`` of the K-S test at
    the split.
    """

    index: int
    statistic: float  # Kolmogorov distance D at the split
    critical_value: float  # d_alpha for the split's segment sizes
    p_value: float
    confidence: float
    significant: bool

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        flag = "significant" if self.significant else "not significant"
        return (
            f"change point @ {self.index} (D={self.statistic:.3f}, "
            f"d_alpha={self.critical_value:.3f}, conf={self.confidence:.3f}, {flag})"
        )


def detect_change_point(
    series: np.ndarray,
    alpha: float = 0.01,
) -> ChangePoint | None:
    """Scan all splits of ``series`` for the strongest distribution change.

    Returns ``None`` when the series is too short to split.  The returned
    change point may be non-``significant`` — callers decide whether to
    treat that as "no boundary found" (e.g. the Constant L1.5 size
    benchmark reports a lower bound with confidence 0).
    """
    s = np.asarray(series, dtype=np.float64)
    n = s.size
    if n < 2 * _MIN_SEGMENT:
        return None

    order = np.argsort(s, kind="stable")
    ranks_sorted_values = s[order]

    # Capacity cliffs produce a *ramp*, not a step: past the boundary the
    # reduction grows as more sets thrash, and every split inside a
    # monotone ramp separates perfectly (D == 1).  The K-S statistic alone
    # therefore cannot localise the boundary; among maximal-D splits we
    # pick the one with the largest separation margin
    # ``min(right) - max(left)``.  The reduction ramp is concave (energy
    # grows with the square root of the miss count), so the largest
    # margin sits at the ramp onset — the paper's "the K-S test denies
    # the null hypothesis when reaching the index of the actual change
    # point".
    best_index = -1
    best_d = 0.0
    best_margin = -math.inf
    for t in range(_MIN_SEGMENT, n - _MIN_SEGMENT + 1):
        left = s[:t]
        right = s[t:]
        # Kolmogorov distance via the pooled sorted values: for each pooled
        # value v, |F_left(v) - F_right(v)|.
        cdf_left = np.searchsorted(np.sort(left), ranks_sorted_values, side="right") / t
        cdf_right = (
            np.searchsorted(np.sort(right), ranks_sorted_values, side="right") / (n - t)
        )
        d = float(np.abs(cdf_left - cdf_right).max())
        margin = float(right.min() - left.max())
        if d > best_d + 1e-12 or (d > best_d - 1e-12 and margin > best_margin):
            best_d = max(best_d, d)
            best_margin = margin
            best_index = t

    if best_index < 0:
        return None
    n_left = best_index
    n_right = n - best_index
    crit = ks_critical_value(n_left, n_right, alpha)
    p = ks_pvalue(best_d, n_left, n_right)
    return ChangePoint(
        index=best_index,
        statistic=best_d,
        critical_value=crit,
        p_value=p,
        confidence=float(min(1.0, max(0.0, 1.0 - p))),
        significant=best_d > crit,
    )
