"""Byte-size and frequency unit helpers.

The paper mixes binary units (KiB, MiB) with vendor marketing units
(KB == KiB in whitepapers, TB/s for bandwidth).  This module centralises
parsing and formatting so every benchmark and report speaks one language:

* sizes are plain ``int`` bytes internally,
* bandwidths are ``float`` bytes/second internally,
* frequencies are ``float`` Hz internally.
"""

from __future__ import annotations

import re

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "KB",
    "MB",
    "GB",
    "parse_size",
    "format_size",
    "format_bandwidth",
    "format_latency_cycles",
    "is_power_of_two",
    "round_to_power_of_two",
    "nearest_integer_fraction",
]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

_SIZE_RE = re.compile(
    r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(b|kib|mib|gib|kb|mb|gb|k|m|g)?\s*$",
    re.IGNORECASE,
)

_UNIT_FACTORS = {
    None: 1,
    "b": 1,
    "kib": KiB,
    "mib": MiB,
    "gib": GiB,
    # The vendor whitepapers the paper validates against use KB to mean KiB
    # for cache sizes; we follow the same convention when parsing.
    "kb": KiB,
    "mb": MiB,
    "gb": GiB,
    "k": KiB,
    "m": MiB,
    "g": GiB,
}


def parse_size(text: str | int | float) -> int:
    """Parse a human size string (``"228 KiB"``, ``"50MB"``) into bytes.

    Integers/floats pass through (interpreted as bytes).  Raises
    ``ValueError`` on unparseable input or negative sizes.
    """
    if isinstance(text, (int, float)):
        if text < 0:
            raise ValueError(f"size must be non-negative, got {text}")
        return int(text)
    m = _SIZE_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse size {text!r}")
    value = float(m.group(1))
    unit = m.group(2).lower() if m.group(2) else None
    return int(round(value * _UNIT_FACTORS[unit]))


def format_size(num_bytes: int | float) -> str:
    """Render bytes with a binary suffix, trimming trailing zeros.

    Fractional byte counts (averages, confidence-weighted consensus
    values) keep their decimals instead of being silently truncated.

    >>> format_size(243712)
    '238 KiB'
    >>> format_size(512.5)
    '512.50 B'
    >>> format_size(0)
    '0 B'
    """
    num_bytes = float(num_bytes)
    for factor, suffix in ((GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if abs(num_bytes) >= factor:
            value = num_bytes / factor
            if abs(value - round(value)) < 1e-9:
                return f"{int(round(value))} {suffix}"
            return f"{value:.2f} {suffix}"
    if abs(num_bytes - round(num_bytes)) < 1e-9:
        return f"{int(round(num_bytes))} B"
    return f"{num_bytes:.2f} B"


def format_bandwidth(bytes_per_second: float) -> str:
    """Render a bandwidth in binary units, TiB/s down to B/s.

    The paper's Table III uses TiB/s and GiB/s; sub-GiB/s rates (small
    synthetic devices, throttled links) fall through to MiB/s and KiB/s
    instead of rendering as a misleading ``"0.0 GiB/s"``.

    >>> format_bandwidth(2.5 * 1024.0**4)
    '2.50 TiB/s'
    >>> format_bandwidth(100 * 1024.0**3)
    '100.0 GiB/s'
    >>> format_bandwidth(512 * 1024.0**2)
    '512.0 MiB/s'
    >>> format_bandwidth(8 * 1024.0)
    '8.0 KiB/s'
    >>> format_bandwidth(42.0)
    '42 B/s'
    """
    tib = 1024.0**4
    gib = 1024.0**3
    mib = 1024.0**2
    kib = 1024.0
    if bytes_per_second >= tib:
        return f"{bytes_per_second / tib:.2f} TiB/s"
    if bytes_per_second >= gib:
        return f"{bytes_per_second / gib:.1f} GiB/s"
    if bytes_per_second >= mib:
        return f"{bytes_per_second / mib:.1f} MiB/s"
    if bytes_per_second >= kib:
        return f"{bytes_per_second / kib:.1f} KiB/s"
    return f"{bytes_per_second:.0f} B/s"


def format_latency_cycles(cycles: float) -> str:
    """Render a latency measured in clock cycles."""
    return f"{cycles:.0f} cyc"


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ...; False for 0, negatives and non-powers."""
    return n > 0 and (n & (n - 1)) == 0


def round_to_power_of_two(n: float) -> int:
    """Snap a positive value to the nearest power of two (ties round up).

    Used by the cache-line-size heuristics (paper Section IV-E assumes the
    line size is a power of two).
    """
    if n <= 0:
        raise ValueError(f"expected positive value, got {n}")
    lower = 1 << max(0, int(n).bit_length() - 1)
    while lower * 2 <= n:
        lower *= 2
    upper = lower * 2
    return lower if (n - lower) < (upper - n) else upper


#: Largest integer fraction :func:`nearest_integer_fraction` considers.
_MAX_DENOMINATOR = 16


def nearest_integer_fraction(total: int, measured: float) -> tuple[int, float]:
    """Find ``k`` so that ``total / k`` is closest to ``measured``.

    Used by the L2 segment-size benchmark (paper Section IV-F.1): the API
    reports the total L2 size while the benchmark observes one segment; the
    number of segments must be an integer.  Returns ``(k, confidence)`` where
    confidence in [0, 1] decreases with the relative distance between the
    measured size and the chosen fraction.
    """
    if total <= 0 or measured <= 0:
        raise ValueError("total and measured must be positive")
    best_k, best_err = 1, float("inf")
    for k in range(1, _MAX_DENOMINATOR + 1):
        err = abs(total / k - measured)
        if err < best_err:
            best_k, best_err = k, err
    rel_err = best_err / (total / best_k)
    confidence = max(0.0, 1.0 - 2.0 * rel_err)
    return best_k, confidence
