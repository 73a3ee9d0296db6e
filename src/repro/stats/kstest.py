"""Two-sample Kolmogorov-Smirnov test (paper Section II-C.1).

Implements the exact machinery the paper describes: the test statistic is
the Kolmogorov distance ``D = max_x |F(x) - G(x)|`` between the empirical
CDFs of the two samples, compared against the critical value of paper
Eq. (1):

    d_alpha = sqrt( -1/2 * (n+m)/(n*m) * ln(alpha/2) )

(the paper's rendering omits the sign under the radical; ``ln(alpha/2)``
is negative for any usable alpha, so the negation is required for a real
root — this matches Wilcox's formulation the paper cites).

A scipy cross-check test validates :func:`ks_distance` against
``scipy.stats.ks_2samp``, but the implementation here is self-contained
because the *paper's* critical-value approximation, not scipy's exact
p-value, drives the tool's decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KSResult", "ks_distance", "ks_critical_value", "ks_2sample", "ks_pvalue"]


@dataclass(frozen=True)
class KSResult:
    """Outcome of a two-sample K-S test."""

    distance: float  # D = max |F - G|
    critical_value: float  # d_alpha of paper Eq. (1)
    alpha: float
    p_value: float  # asymptotic two-sided p
    n: int
    m: int

    @property
    def confidence(self) -> float:
        """1 - p, clipped to [0, 1]: the paper's reported quality metric."""
        return float(min(1.0, max(0.0, 1.0 - self.p_value)))


def ks_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Kolmogorov distance between the empirical CDFs of ``x`` and ``y``."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise ValueError("K-S test requires non-empty samples")
    grid = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, grid, side="right") / x.size
    cdf_y = np.searchsorted(y, grid, side="right") / y.size
    return float(np.abs(cdf_x - cdf_y).max())


def ks_critical_value(n: int, m: int, alpha: float = 0.05) -> float:
    """Critical value d_alpha of paper Eq. (1)."""
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return math.sqrt(-0.5 * (n + m) / (n * m) * math.log(alpha / 2.0))


def ks_pvalue(distance: float, n: int, m: int) -> float:
    """Asymptotic two-sided p-value (Smirnov approximation).

    Inverse of Eq. (1): the alpha at which ``d_alpha == distance``.
    """
    if n <= 0 or m <= 0:
        raise ValueError("sample sizes must be positive")
    en = n * m / (n + m)
    return float(min(1.0, max(0.0, 2.0 * math.exp(-2.0 * distance * distance * en))))


def ks_2sample(x: np.ndarray, y: np.ndarray, alpha: float = 0.05) -> KSResult:
    """Full two-sample K-S test with the paper's critical value."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = ks_distance(x, y)
    return KSResult(
        distance=d,
        critical_value=ks_critical_value(x.size, y.size, alpha),
        alpha=alpha,
        p_value=ks_pvalue(d, x.size, y.size),
        n=int(x.size),
        m=int(y.size),
    )
