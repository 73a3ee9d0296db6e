"""Outlier detection for the interval-widening loop.

Workflow step (3) of paper Section IV-B: after a size sweep, "the results
are checked for outliers, especially ones caused by cache sizes close to
one of the boundaries or unexpected disturbances.  If outliers are found,
the search interval is widened" and the sweep repeats.

Two failure modes are distinguished:

* **spikes** — isolated values far from their neighbourhood (measurement
  disturbances); detected with a robust median/MAD z-score and *scrubbed*
  (replaced by the local median) before change-point detection, so a
  single TLB hiccup cannot masquerade as a cache boundary;
* **edge change points** — a detected boundary in the first/last few
  indices of the sweep means the true boundary may sit outside the
  interval; the benchmark widens and retries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "find_outliers",
    "scrub_outliers",
    "scrub_outliers_matrix",
    "near_interval_edge",
]


def _mad(values: np.ndarray) -> float:
    med = np.median(values)
    return float(np.median(np.abs(values - med)))


def find_outliers(series: np.ndarray, z_threshold: float = 6.0) -> np.ndarray:
    """Boolean mask of isolated spikes via robust (median/MAD) z-scores.

    A point is a spike only if *it* exceeds the threshold while its
    immediate neighbours do not — a genuine level shift (a cache cliff)
    raises a contiguous run of points and is therefore not flagged.
    """
    s = np.asarray(series, dtype=np.float64)
    if s.size < 5:
        return np.zeros(s.size, dtype=bool)
    mad = _mad(s)
    if mad == 0.0:
        # More than half the points sit exactly on the median (quantized
        # data): treat any point deviating by more than a per-mille of the
        # median as a spike.  A std-based fallback would be inflated by
        # the very spikes we are hunting.
        mad = max(abs(float(np.median(s))) * 1e-3, 1e-12)
    z = np.abs(s - np.median(s)) / (1.4826 * mad)
    hot = z > z_threshold
    if not hot.any():
        return hot
    # Keep only isolated spikes: both neighbours must be cool.
    left = np.roll(hot, 1)
    right = np.roll(hot, -1)
    left[0] = False
    right[-1] = False
    isolated = hot & ~left & ~right
    return isolated


def scrub_outliers(series: np.ndarray, z_threshold: float = 6.0, window: int = 3) -> np.ndarray:
    """Replace isolated spikes by their local median; returns a copy."""
    s = np.asarray(series, dtype=np.float64).copy()
    mask = find_outliers(s, z_threshold)
    for idx in np.flatnonzero(mask):
        lo = max(0, idx - window)
        hi = min(s.size, idx + window + 1)
        neighbourhood = np.delete(s[lo:hi], idx - lo)
        if neighbourhood.size:
            s[idx] = float(np.median(neighbourhood))
    return s


def scrub_outliers_matrix(
    matrix: np.ndarray, z_threshold: float = 6.0, window: int = 3
) -> np.ndarray:
    """Row-wise :func:`scrub_outliers` over a whole latency matrix — batched.

    Exactly equivalent to ``np.stack([scrub_outliers(row) for row in
    matrix])`` (property-tested), but the spike *detection* — the hot
    path: per-row median/MAD z-scores over every sample of every run —
    is a handful of whole-matrix reductions instead of ~6 scalar
    ``np.median`` calls per row.  Replacement stays per-spike, in row
    order: spikes are rare by construction (z > threshold on robust
    scores) and a spike's local median may legitimately include an
    earlier spike's replacement value.
    """
    m = np.asarray(matrix, dtype=np.float64).copy()
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D latency matrix, got ndim={m.ndim}")
    n_rows, n = m.shape
    if n_rows == 0 or n < 5:
        return m
    med = np.median(m, axis=1, keepdims=True)
    mad = np.median(np.abs(m - med), axis=1, keepdims=True)
    fallback = np.maximum(np.abs(med) * 1e-3, 1e-12)
    mad = np.where(mad == 0.0, fallback, mad)
    hot = np.abs(m - med) / (1.4826 * mad) > z_threshold
    if not hot.any():
        return m
    # Keep only isolated spikes: both neighbours must be cool.
    left = np.zeros_like(hot)
    left[:, 1:] = hot[:, :-1]
    right = np.zeros_like(hot)
    right[:, :-1] = hot[:, 1:]
    isolated = hot & ~left & ~right
    for r, idx in zip(*np.nonzero(isolated)):
        lo = max(0, idx - window)
        hi = min(n, idx + window + 1)
        neighbourhood = np.delete(m[r, lo:hi], idx - lo)
        if neighbourhood.size:
            m[r, idx] = float(np.median(neighbourhood))
    return m


#: Share of a sweep's length at either end that counts as its edge.
_EDGE_MARGIN_FRACTION = 0.05


def near_interval_edge(index: int, length: int) -> bool:
    """True when a change point sits suspiciously close to the sweep edge.

    The margin is at least two indices; benchmarks treat an edge hit as
    "the real boundary may lie outside the interval" and widen.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if not 0 <= index < length:
        raise ValueError(f"index {index} outside series of length {length}")
    margin = max(2, int(round(length * _EDGE_MARGIN_FRACTION)))
    return index < margin or index >= length - margin
