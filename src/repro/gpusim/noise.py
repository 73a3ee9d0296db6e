"""Measurement-noise injection.

The paper's statistical machinery exists because raw GPU timing is noisy:
a constant clock-read overhead rides on every sample (Section IV-A,
footnote 7), thermal/scheduling jitter spreads the distribution, and rare
spikes (TLB walks, ECC scrubs, unrelated traffic) create outliers that a
naive max/mean evaluation would mistake for change points (Fig. 2 caption:
"maximum is prone to outliers").

:class:`NoiseModel` reproduces those three effects so the K-S test, the
geometric reduction and the outlier-widening loop are exercised against
the disturbances they were designed for.  An optional *contention* mode
models a non-exclusive GPU (violating the paper's exclusivity assumption)
for failure-injection tests.
"""

from __future__ import annotations

import numpy as np

from repro.gpuspec.spec import NoiseSpec

__all__ = ["NoiseModel"]


class NoiseModel:
    """Vectorised latency-noise generator.

    Parameters
    ----------
    spec:
        Noise parameters (overhead, jitter, outlier rate/magnitude).
    rng:
        NumPy random generator; callers seed it for reproducibility.
    contention_factor:
        0.0 = exclusive GPU (the paper's assumption).  Positive values add
        bursty co-tenant interference: within bursts, latencies inflate by
        ``1 + contention_factor`` on average.
    """

    def __init__(
        self,
        spec: NoiseSpec,
        rng: np.random.Generator,
        contention_factor: float = 0.0,
    ) -> None:
        if contention_factor < 0:
            raise ValueError("contention_factor must be >= 0")
        self.spec = spec
        self.rng = rng
        self.contention_factor = contention_factor

    def perturb(self, base_latencies: np.ndarray) -> np.ndarray:
        """Return noisy observed latencies for a vector of true latencies.

        Every sample receives the constant measurement overhead plus
        Gaussian jitter; a small Bernoulli fraction receives an outlier
        spike.  Latencies never drop below 1 cycle.
        """
        lat = np.asarray(base_latencies, dtype=np.float64)
        n = lat.size
        out = lat + self.spec.measurement_overhead
        if self.spec.jitter_sigma > 0:
            out = out + self.rng.normal(0.0, self.spec.jitter_sigma, size=n)
        if self.spec.outlier_probability > 0:
            spikes = self.rng.random(n) < self.spec.outlier_probability
            if spikes.any():
                # Heavy-tailed spike heights: half to 1.5x the magnitude.
                heights = self.spec.outlier_magnitude * (
                    0.5 + self.rng.random(int(spikes.sum()))
                )
                out[spikes] += heights
        if self.contention_factor > 0:
            out = self._apply_contention(out)
        return np.maximum(out, 1.0)

    def _apply_contention(self, latencies: np.ndarray) -> np.ndarray:
        """Bursty co-tenant interference: geometric burst lengths."""
        n = latencies.size
        out = latencies.copy()
        i = 0
        burst_start_p = 0.02
        while i < n:
            if self.rng.random() < burst_start_p:
                length = 1 + int(self.rng.geometric(0.2))
                end = min(n, i + length)
                scale = 1.0 + self.contention_factor * (0.5 + self.rng.random())
                out[i:end] *= scale
                i = end
            else:
                i += 1
        return out
