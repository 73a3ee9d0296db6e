"""Shared benchmark infrastructure: context and result model.

Every benchmark returns a :class:`MeasurementResult`.  The result encodes
the paper's three-way honesty distinction (Section V):

* a confident value (``value`` set, ``confidence`` near 1);
* an inconclusive value (``value`` may be a bound, ``confidence == 0`` —
  e.g. the Constant L1.5 size capped by the 64 KiB constant bank);
* no result (``value is None`` with an explanatory ``note`` — e.g. the
  P6000 L1 Amount benchmark that cannot schedule warp 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.gpusim.device import SimulatedGPU
from repro.pchase.config import PChaseConfig
from repro.pchase.runner import PChaseRunner

__all__ = ["Source", "MeasurementResult", "BenchmarkContext"]


class Source(enum.Enum):
    """Where an attribute's value came from (paper Table I legend)."""

    BENCHMARK = "benchmark"  # "!" — microbenchmarked
    API = "api"  # "!(API)" — read from a vendor interface
    LOOKUP = "lookup"  # microarchitecture lookup table (cores/SM)
    UNAVAILABLE = "unavailable"  # "#" — cannot be obtained on this device
    NOT_APPLICABLE = "n/a"  # the attribute has no meaning here


@dataclass
class MeasurementResult:
    """One measured (or refused) attribute of one memory element."""

    benchmark: str  # e.g. "size", "load_latency"
    target: str  # memory element name, e.g. "L1"
    value: Any  # main result; None == no result
    unit: str  # "B", "cycles", "B/s", "count", ...
    confidence: float  # [0, 1]; 0 == inconclusive
    source: Source = Source.BENCHMARK
    note: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    @property
    def conclusive(self) -> bool:
        return self.value is not None and self.confidence > 0.0

    @classmethod
    def no_result(cls, benchmark: str, target: str, unit: str, note: str) -> "MeasurementResult":
        """A benchmark that could not run / decide — never a wrong value."""
        return cls(
            benchmark=benchmark,
            target=target,
            value=None,
            unit=unit,
            confidence=0.0,
            note=note,
        )


class BenchmarkContext:
    """Everything a benchmark needs: device, runner, config.

    Also counts benchmark invocations for the Section V-A run-time
    report (the paper cites ~35 benchmarks on NVIDIA vs ~15 on AMD).
    """

    def __init__(self, device: SimulatedGPU, config: PChaseConfig | None = None) -> None:
        self.device = device
        self.config = config or PChaseConfig()
        self.runner = PChaseRunner(device, self.config)
        self.benchmarks_run = 0
        self._timeline: list[tuple[str, float]] = []

    def count(self, benchmark: str, target: str) -> None:
        """Record one benchmark execution (for run-time accounting)."""
        self.benchmarks_run += 1
        self._timeline.append((f"{benchmark}:{target}", self.device.elapsed_seconds()))

    def seconds_per_benchmark(self) -> dict[str, float]:
        """Simulated GPU seconds attributed to each benchmark execution."""
        out: dict[str, float] = {}
        prev = 0.0
        for name, cumulative in self._timeline:
            out[name] = out.get(name, 0.0) + (cumulative - prev)
            prev = cumulative
        return out
