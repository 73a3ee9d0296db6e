"""Multi-Instance GPU (MIG) partitioning.

NVIDIA MIG slices a GPU into isolated GPU Instances (GIs), each with a
fraction of the SMs, the L2 slices, the DRAM capacity and the DRAM
bandwidth (paper Section VI-C).  A profile like ``4g.20gb`` on the A100
grants 4 of 7 compute slices and 4 of 8 memory slices — i.e. 20 GB DRAM
and 20 MB of L2.

The key topological subtlety the paper's Fig. 5 demonstrates: a *single
SM* can only ever reach **one** L2 segment, so the L2 capacity visible to
one SM is ``min(segment_size, mig_fraction * total_l2)`` — which is why
the full A100 and its ``4g.20gb`` instance behave identically for a
one-SM streaming kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SpecError
from repro.gpuspec.spec import GPUSpec

__all__ = ["MIGState", "resolve_mig"]

#: Denominators of the slice fractions on MIG-capable parts.
_COMPUTE_SLICES = 7
_MEMORY_SLICES = 8


@dataclass(frozen=True)
class MIGState:
    """Resolved partition: what one GPU instance of the profile sees."""

    profile: str  # "full" when MIG is disabled
    compute_slices: int
    memory_slices: int

    @property
    def compute_fraction(self) -> float:
        return self.compute_slices / _COMPUTE_SLICES

    @property
    def memory_fraction(self) -> float:
        return self.memory_slices / _MEMORY_SLICES

    def visible_sms(self, spec: GPUSpec) -> int:
        return max(1, (spec.compute.num_sms * self.compute_slices) // _COMPUTE_SLICES)

    def visible_dram_bytes(self, spec: GPUSpec) -> int:
        return int(spec.memory.size * self.memory_fraction)

    def visible_dram_read_bandwidth(self, spec: GPUSpec) -> float:
        return spec.memory.read_bandwidth * self.memory_fraction

    def visible_l2_total(self, spec: GPUSpec) -> int:
        """L2 capacity assigned to the instance (all its slices)."""
        l2 = spec.cache("L2")
        return int(l2.size * l2.segments * self.memory_fraction)

    def visible_l2_per_sm(self, spec: GPUSpec) -> int:
        """L2 capacity one SM can actually reach (Fig. 5's insight).

        Never more than one hardware segment, never more than the
        instance's total allocation.
        """
        l2 = spec.cache("L2")
        return min(l2.size, self.visible_l2_total(spec))


def resolve_mig(spec: GPUSpec, profile: str | None) -> MIGState:
    """Resolve a MIG profile name against a device spec.

    ``None`` or ``"full"`` disables MIG (whole-GPU view).  Raises
    :class:`SpecError` for devices without MIG support or unknown profiles.
    """
    if profile is None or profile == "full":
        return MIGState("full", _COMPUTE_SLICES, _MEMORY_SLICES)
    if not spec.mig_profiles:
        raise SpecError(f"{spec.name} does not support MIG")
    try:
        compute_slices, memory_slices = spec.mig_profiles[profile]
    except KeyError:
        raise SpecError(
            f"{spec.name}: unknown MIG profile {profile!r}; "
            f"available: {sorted(spec.mig_profiles)}"
        ) from None
    return MIGState(profile, compute_slices, memory_slices)
