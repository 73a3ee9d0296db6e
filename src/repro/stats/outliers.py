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
    matrix])`` (property-tested), bit for bit.  Detection takes each row's
    median and MAD with one ``np.partition`` apiece — the middle element,
    or the mean of the middle two, exactly as ``np.median`` computes them
    — and a row holding a NaN has a NaN median, so it is never flagged.
    Replacement walks the spikes in row order, because a spike's local
    median may include an earlier spike's replacement value; each takes
    the median of its at most ``2 * window`` neighbours sorted as Python
    floats, which gives the same bits as ``np.median`` at a fraction of
    its call cost.  Spikes are rare by construction (z > threshold on
    robust scores), so the loop is short.
    """
    m = np.asarray(matrix, dtype=np.float64).copy()
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D latency matrix, got ndim={m.ndim}")
    n_rows, n = m.shape
    if n_rows == 0 or n < 5:
        return m
    h = n // 2
    middle = (h - 1, h) if n % 2 == 0 else (h,)
    part = np.partition(m, middle + (n - 1,), axis=1)
    med = _middle(part, h, n)
    med[np.isnan(part[:, -1])] = np.nan  # np.median's NaN rule
    dev = np.abs(m - med)
    mad = _middle(np.partition(dev, middle, axis=1), h, n)
    zero = mad == 0.0
    if zero.any():  # see find_outliers
        mad[zero] = np.maximum(np.abs(med[zero]) * 1e-3, 1e-12)
    hot = dev / (1.4826 * mad) > z_threshold
    if not hot.any():
        return m
    # Keep only isolated spikes: both neighbours must be cool.
    cool = ~hot
    hot[:, 1:] &= cool[:, :-1]
    hot[:, :-1] &= cool[:, 1:]
    rows, cols = np.nonzero(hot)
    for r, idx in zip(rows.tolist(), cols.tolist()):
        row = m[r]
        lo = max(0, idx - window)
        hi = min(n, idx + window + 1)
        nb = sorted(row[lo:idx].tolist() + row[idx + 1 : hi].tolist())
        k = len(nb) // 2
        if len(nb) % 2:
            row[idx] = nb[k]
        elif nb:
            row[idx] = (nb[k - 1] + nb[k]) / 2
    return m


def _middle(part: np.ndarray, h: int, n: int) -> np.ndarray:
    """Row medians, as a column, of a matrix partitioned at its middle."""
    if n % 2:
        return part[:, h : h + 1]
    return (part[:, h - 1 : h] + part[:, h : h + 1]) / 2


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
