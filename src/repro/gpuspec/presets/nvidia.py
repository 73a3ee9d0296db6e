"""NVIDIA GPU presets for the seven validation machines of paper Table II.

Attribute values come, in the paper's order of preference, from: the
paper's own Table III (H100-80), official whitepapers, the Jia et al. and
Luo et al. microbenchmarking studies the paper cites for validation, and
chipsandcheese measurements.  Where a number is genuinely unpublished we
pick a plausible value and note it — the reproduction target is the
behavioural *shape* (cliffs, sharing, segmentation), not the digits.

Conventions (see :mod:`repro.gpuspec.spec`):

* ``L1``/``Texture``/``Readonly`` share physical id ``"l1tex"`` on every
  microarchitecture from Pascal onward (paper Table III footnote 1).
* ``size`` of the L1 family is the *effective* L1 capacity under the
  default ``PreferL1`` carveout (paper footnote 17); other carveouts are in
  ``l1_carveout``.
* L2 ``size`` is per *segment*; the vendor API reports
  ``segments * size`` (paper footnote 13: A100's 40 MB is 2 x 20 MB).
* Constant L1.5 ``size`` is the true hardware size; MT4G can only probe up
  to the 64 KiB constant-array limit (paper Section III-C).
"""

from __future__ import annotations

from repro.gpuspec.spec import (
    CacheScope,
    CacheSpec,
    ComputeSpec,
    GPUSpec,
    MemorySpec,
    NoiseSpec,
    Quirk,
    ScratchpadSpec,
    Vendor,
)
from repro.units import GiB, KiB, MiB

TiBps = 1024.0**4  # bytes/second per TiB/s
GiBps = 1024.0**3

#: Microarchitecture-specific CUDA cores per SM (the paper's Section III-B
#: "internal lookup table"); consumed by the tool, not by the simulator.
CORES_PER_SM = {
    "Pascal": 128,
    "Volta": 64,
    "Turing": 64,
    "Ampere": 64,
    "Hopper": 128,
}


def _nv_l1_family(
    size: int,
    line: int,
    fg: int,
    lat_l1: float,
    lat_tex: float,
    lat_ro: float,
    segments: int = 1,
    l1_read_bw: float = 0.0,
    l1_write_bw: float = 0.0,
) -> tuple[CacheSpec, CacheSpec, CacheSpec]:
    """L1/Texture/Readonly triple sharing the unified ``l1tex`` silicon.

    ``l1_read_bw``/``l1_write_bw`` are optional aggregate figures for the
    Section VII low-level-bandwidth extension; ``bandwidth_measured``
    stays False so the default pipeline keeps Table I's dagger semantics.
    """
    common = dict(
        size=size,
        line_size=line,
        fetch_granularity=fg,
        ways=4,
        scope=CacheScope.SM,
        segments=segments,
        physical_id="l1tex",
    )
    return (
        CacheSpec(
            name="L1",
            load_latency=lat_l1,
            read_bandwidth=l1_read_bw,
            write_bandwidth=l1_write_bw,
            **common,
        ),
        CacheSpec(name="Texture", load_latency=lat_tex, **common),
        CacheSpec(name="Readonly", load_latency=lat_ro, **common),
    )


def _nv_constant_pair(
    cl1_size: int,
    cl1_lat: float,
    cl15_size: int,
    cl15_lat: float,
) -> tuple[CacheSpec, CacheSpec]:
    return (
        CacheSpec(
            name="ConstL1",
            size=cl1_size,
            line_size=64,
            fetch_granularity=64,
            ways=4,
            load_latency=cl1_lat,
            scope=CacheScope.SM,
        ),
        CacheSpec(
            name="ConstL1.5",
            size=cl15_size,
            line_size=256,
            fetch_granularity=256,
            ways=8,
            load_latency=cl15_lat,
            scope=CacheScope.SM,
        ),
    )


def _nv_l2(
    segment_size: int,
    segments: int,
    line: int,
    fg: int,
    lat: float,
    read_bw: float,
    write_bw: float,
) -> CacheSpec:
    return CacheSpec(
        name="L2",
        size=segment_size,
        line_size=line,
        fetch_granularity=fg,
        ways=16,
        load_latency=lat,
        scope=CacheScope.GPU,
        segments=segments,
        size_via_api=True,
        bandwidth_measured=True,
        read_bandwidth=read_bw,
        write_bandwidth=write_bw,
    )


P6000 = GPUSpec(
    name="P6000",
    vendor=Vendor.NVIDIA,
    microarchitecture="Pascal",
    chip="GP102",
    compute_capability="6.1",
    core_clock_hz=1.645e9,
    compute=ComputeSpec(
        num_sms=30,
        cores_per_sm=128,
        warp_size=32,
        max_blocks_per_sm=32,
        max_threads_per_block=1024,
        max_threads_per_sm=2048,
        registers_per_block=65536,
        registers_per_sm=65536,
        num_clusters=6,
    ),
    caches=(
        # Pascal: fixed 24 KiB unified L1/texture per SM, no carveout.
        *_nv_l1_family(24 * KiB, 128, 32, lat_l1=82.0, lat_tex=86.0, lat_ro=84.0),
        *_nv_constant_pair(2 * KiB, 26.0, 64 * KiB, 96.0),
        _nv_l2(3 * MiB, 1, 128, 32, 216.0, 1.05 * TiBps, 0.95 * TiBps),
    ),
    scratchpad=ScratchpadSpec(name="SharedMem", size=96 * KiB, load_latency=24.0),
    memory=MemorySpec(
        size=24 * GiB,
        load_latency=485.0,
        read_bandwidth=0.30 * TiBps,
        write_bandwidth=0.28 * TiBps,
        memory_clock_hz=1.251e9,
        bus_width_bits=384,
    ),
    quirks=frozenset({Quirk.WARP_SCHEDULING_BUG, Quirk.FLAKY_L1_CONST_SHARING}),
)


V100 = GPUSpec(
    name="V100",
    vendor=Vendor.NVIDIA,
    microarchitecture="Volta",
    chip="GV100",
    compute_capability="7.0",
    core_clock_hz=1.53e9,
    compute=ComputeSpec(
        num_sms=80,
        cores_per_sm=64,
        warp_size=32,
        max_blocks_per_sm=32,
        max_threads_per_block=1024,
        max_threads_per_sm=2048,
        registers_per_block=65536,
        registers_per_sm=65536,
        num_clusters=6,
    ),
    caches=(
        # Paper Section IV-D: the V100's default transaction is two sectors
        # = 64 B, hence the 64 B fetch granularity on the L1 family.
        *_nv_l1_family(120 * KiB, 128, 64, lat_l1=28.0, lat_tex=32.0, lat_ro=30.0),
        *_nv_constant_pair(2 * KiB, 27.0, 64 * KiB, 89.0),
        _nv_l2(6 * MiB, 1, 64, 32, 193.0, 1.90 * TiBps, 1.40 * TiBps),
    ),
    scratchpad=ScratchpadSpec(name="SharedMem", size=96 * KiB, load_latency=19.0),
    memory=MemorySpec(
        size=16 * GiB,
        load_latency=437.0,
        read_bandwidth=0.72 * TiBps,
        write_bandwidth=0.68 * TiBps,
        memory_clock_hz=0.877e9,
        bus_width_bits=4096,
    ),
    l1_carveout={
        "PreferL1": 120 * KiB,
        "PreferShared": 32 * KiB,
        "PreferEqual": 64 * KiB,
    },
    compute_throughput={
        "fp64": 7.8e12,
        "fp32": 15.7e12,
        "fp16": 31.3e12,
        "tensor_fp16": 125e12,
    },
)


T1000 = GPUSpec(
    name="T1000",
    vendor=Vendor.NVIDIA,
    microarchitecture="Turing",
    chip="TU117",
    compute_capability="7.5",
    core_clock_hz=1.395e9,
    compute=ComputeSpec(
        num_sms=14,
        cores_per_sm=64,
        warp_size=32,
        max_blocks_per_sm=16,
        max_threads_per_block=1024,
        max_threads_per_sm=1024,
        registers_per_block=65536,
        registers_per_sm=65536,
        num_clusters=2,
    ),
    caches=(
        *_nv_l1_family(48 * KiB, 128, 32, lat_l1=32.0, lat_tex=35.0, lat_ro=33.0),
        *_nv_constant_pair(2 * KiB, 25.0, 64 * KiB, 92.0),
        _nv_l2(1 * MiB, 1, 64, 32, 188.0, 0.40 * TiBps, 0.34 * TiBps),
    ),
    scratchpad=ScratchpadSpec(name="SharedMem", size=64 * KiB, load_latency=22.0),
    memory=MemorySpec(
        size=8 * GiB,
        load_latency=420.0,
        read_bandwidth=0.115 * TiBps,
        write_bandwidth=0.105 * TiBps,
        memory_clock_hz=1.25e9,
        bus_width_bits=128,
    ),
    l1_carveout={
        "PreferL1": 48 * KiB,
        "PreferShared": 16 * KiB,
        "PreferEqual": 32 * KiB,
    },
)


RTX2080 = GPUSpec(
    name="RTX2080",
    vendor=Vendor.NVIDIA,
    microarchitecture="Turing",
    chip="TU102",
    compute_capability="7.5",
    core_clock_hz=1.545e9,
    compute=ComputeSpec(
        num_sms=68,
        cores_per_sm=64,
        warp_size=32,
        max_blocks_per_sm=16,
        max_threads_per_block=1024,
        max_threads_per_sm=1024,
        registers_per_block=65536,
        registers_per_sm=65536,
        num_clusters=6,
    ),
    caches=(
        *_nv_l1_family(64 * KiB, 128, 32, lat_l1=32.0, lat_tex=35.0, lat_ro=33.0),
        *_nv_constant_pair(2 * KiB, 25.0, 64 * KiB, 90.0),
        _nv_l2(5632 * KiB, 1, 64, 32, 194.0, 1.75 * TiBps, 1.30 * TiBps),
    ),
    scratchpad=ScratchpadSpec(name="SharedMem", size=64 * KiB, load_latency=19.0),
    memory=MemorySpec(
        size=11 * GiB,
        load_latency=430.0,
        read_bandwidth=0.45 * TiBps,
        write_bandwidth=0.42 * TiBps,
        memory_clock_hz=1.75e9,
        bus_width_bits=352,
    ),
    l1_carveout={
        "PreferL1": 64 * KiB,
        "PreferShared": 32 * KiB,
        "PreferEqual": 48 * KiB,
    },
)


A100 = GPUSpec(
    name="A100",
    vendor=Vendor.NVIDIA,
    microarchitecture="Ampere",
    chip="GA100",
    compute_capability="8.0",
    core_clock_hz=1.41e9,
    compute=ComputeSpec(
        num_sms=108,
        cores_per_sm=64,
        warp_size=32,
        max_blocks_per_sm=32,
        max_threads_per_block=1024,
        max_threads_per_sm=2048,
        registers_per_block=65536,
        registers_per_sm=65536,
        num_clusters=7,
    ),
    caches=(
        *_nv_l1_family(184 * KiB, 128, 32, lat_l1=33.0, lat_tex=36.0, lat_ro=34.0),
        *_nv_constant_pair(2 * KiB, 24.0, 64 * KiB, 100.0),
        # Paper footnote 13: the API-reported 40 MB is two 20 MB segments.
        _nv_l2(20 * MiB, 2, 128, 32, 200.0, 2.90 * TiBps, 2.20 * TiBps),
    ),
    scratchpad=ScratchpadSpec(name="SharedMem", size=164 * KiB, load_latency=29.0),
    memory=MemorySpec(
        size=40 * GiB,
        load_latency=610.0,
        read_bandwidth=1.25 * TiBps,
        write_bandwidth=1.15 * TiBps,
        memory_clock_hz=1.215e9,
        bus_width_bits=5120,
    ),
    l1_carveout={
        "PreferL1": 184 * KiB,
        "PreferShared": 28 * KiB,
        "PreferEqual": 96 * KiB,
    },
    # MIG profile -> (compute slices of 7, memory slices of 8); Fig. 5 uses
    # 4g.20gb, whose 4/8 memory slices see the same 20 MB as one full-GPU
    # L2 segment.
    mig_profiles={
        "1g.5gb": (1, 1),
        "2g.10gb": (2, 2),
        "3g.20gb": (3, 4),
        "4g.20gb": (4, 4),
        "7g.40gb": (7, 8),
    },
    compute_throughput={
        "fp64": 9.7e12,
        "fp32": 19.5e12,
        "fp16": 78e12,
        "int32": 19.5e12,
        "tensor_tf32": 156e12,
        "tensor_fp16": 312e12,
    },
)


def _h100(name: str, mem_gib: int, mem_lat: float, read_bw: float, write_bw: float) -> GPUSpec:
    return GPUSpec(
        name=name,
        vendor=Vendor.NVIDIA,
        microarchitecture="Hopper",
        chip="GH100",
        compute_capability="9.0",
        core_clock_hz=1.98e9,
        compute=ComputeSpec(
            num_sms=132,
            cores_per_sm=128,
            warp_size=32,
            max_blocks_per_sm=32,
            max_threads_per_block=1024,
            max_threads_per_sm=2048,
            registers_per_block=65536,
            registers_per_sm=65536,
            num_clusters=8,
        ),
        caches=(
            # Paper Table III: MT4G measures the true PreferL1 capacity of
            # 238 KiB out of the 256 KB combined L1+shared block.
            *_nv_l1_family(
                238 * KiB, 128, 32, lat_l1=38.0, lat_tex=39.0, lat_ro=35.0,
                l1_read_bw=26.0 * TiBps, l1_write_bw=20.0 * TiBps,
            ),
            *_nv_constant_pair(2 * KiB, 21.0, 128 * KiB, 105.0),
            _nv_l2(25 * MiB, 2, 128, 32, 220.0, 4.40 * TiBps, 3.40 * TiBps),
        ),
        scratchpad=ScratchpadSpec(name="SharedMem", size=228 * KiB, load_latency=30.0),
        memory=MemorySpec(
            size=mem_gib * GiB,
            load_latency=mem_lat,
            read_bandwidth=read_bw,
            write_bandwidth=write_bw,
            memory_clock_hz=2.619e9,
            bus_width_bits=5120,
        ),
        l1_carveout={
            "PreferL1": 238 * KiB,
            "PreferShared": 28 * KiB,
            "PreferEqual": 128 * KiB,
        },
        mig_profiles={
            "1g.10gb": (1, 1),
            "2g.20gb": (2, 2),
            "3g.40gb": (3, 4),
            "4g.40gb": (4, 4),
            "7g.80gb": (7, 8),
        },
        # Section VII extension data (H100 SXM5 datasheet peaks).
        compute_throughput={
            "fp64": 34e12,
            "fp32": 67e12,
            "fp16": 134e12,
            "int32": 33e12,
            "tensor_tf32": 495e12,
            "tensor_fp16": 990e12,
        },
    )


H100_80 = _h100("H100-80", 80, 843.0, 2.50 * TiBps, 2.70 * TiBps)
H100_96 = _h100("H100-96", 96, 850.0, 2.60 * TiBps, 2.80 * TiBps)

NVIDIA_PRESETS = {
    spec.name: spec
    for spec in (P6000, V100, T1000, RTX2080, A100, H100_80, H100_96)
}
