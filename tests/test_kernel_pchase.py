"""Tests for the kernel engine and the host-side p-chase runner."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core.benchmarks.base import BenchmarkContext
from repro.core.benchmarks.cacheline import measure_cache_line_size
from repro.core.benchmarks.size import measure_cache_size
from repro.errors import SimulationError
from repro import MT4G
from repro.gpusim import kernel
from repro.gpusim.cache import SimCache
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.isa import LoadKind, MemorySpace, space_for_kind
from repro.gpusim.kernel import (
    KernelLaunch,
    pchase_addresses,
    probe_hits,
    run_pchase_ex,
    run_stream_kernel,
    warm,
)
from repro.pchase import PChaseConfig, PChaseRunner, exponential_sizes, linear_sizes

#: The first-N capture every caller passes (PChaseConfig's default).
N = PChaseConfig().n_samples


@pytest.fixture
def nv() -> SimulatedGPU:
    return SimulatedGPU.from_preset("TestGPU-NV", seed=2)


class TestAddressGeneration:
    def test_strided(self):
        addrs = pchase_addresses(1000, 256, 64)
        assert addrs.tolist() == [1000, 1064, 1128, 1192]

    def test_too_small(self):
        with pytest.raises(SimulationError):
            pchase_addresses(0, 32, 64)

    def test_bad_stride(self):
        with pytest.raises(SimulationError):
            pchase_addresses(0, 256, 0)

    def test_limit_keeps_the_sampled_prefix(self):
        assert pchase_addresses(1000, 256, 64, limit=2).tolist() == [1000, 1064]
        assert pchase_addresses(1000, 256, 64, limit=9).tolist() == [
            1000, 1064, 1128, 1192,
        ]

    def test_fresh_runs_build_only_sampled_addresses(self):
        """A fresh analytic p-chase allocates O(n_samples), not O(ring).

        Four A100 L2 rings of 32-44 MiB at stride 32 are 1-1.4 M loads
        each; a whole-ring address array would be 8-11.5 MB.  Each run
        flushes, records its warm as a deferred descriptor and answers
        the timed pass from it.
        """
        dev = SimulatedGPU.from_preset("A100", seed=0)
        kind = LoadKind.LD_GLOBAL_CG
        base = dev.alloc(kind, 44 << 20)
        dev.resolve_path(kind)  # instantiates the L2 model (5 MB of rows)
        tracemalloc.start()
        try:
            lats = [
                run_pchase_ex(dev, kind, base, mib << 20, 32, N)
                for mib in (32, 36, 40, 44)
            ]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert [lat.shape for lat in lats] == [(N,)] * 4

    def test_fresh_l1_runs_leave_l2_deferred(self, monkeypatch):
        """A100 L1 size and line-size runs never install L2 rows.

        The L1 rings (up to 8x its 184 KiB) fit the 40 MiB L2 segment, so
        every load that misses L1 hits the L2's warm fixed point: the L2
        answers from its deferred descriptor, still holds the last run's
        ring and has no materialised set.
        """
        materialised = []
        original = SimCache._materialize

        def spy(self):
            if self._virtual is not None:
                materialised.append(self.name)
            return original(self)

        monkeypatch.setattr(SimCache, "_materialize", spy)
        dev = SimulatedGPU.from_preset("A100", seed=0)
        kind = LoadKind.LD_GLOBAL_CA
        (l1, _), (l2, _) = dev.resolve_path(kind).levels
        assert l2.name == "L2.0"
        ctx = BenchmarkContext(dev)
        size = measure_cache_size(ctx, kind, "L1", 32, lo=1 << 10, hi_cap=1 << 20)
        line = measure_cache_line_size(ctx, kind, "L1", int(size.value), 32)
        assert (size.value, line.value) == (188352, 128)
        assert materialised == []
        flushed, rings = l2._virtual
        assert flushed and len(rings) == 1 and rings == l1._virtual[1]
        assert l2._valid_sets == 0


    def test_a100_probes_walk_no_load_and_install_no_row(self, monkeypatch):
        """Every protocol probe of an A100 discovery — amount, sharing and
        the cold fetch-granularity probes — is answered in closed form.

        Each probe starts from a flushed cache or from the warms its
        protocol deferred after the flush, so no level walks its loads
        one by one and none installs rows (the L2.0 included).
        """
        walks, installed, kinds = [], [], set()
        probing = [False]
        pass_filtered = kernel._pass_filtered
        probe_walk = kernel._probe_walk
        materialize = SimCache._materialize

        def walk_spy(cache, *args):
            walks.append(cache.name)
            return pass_filtered(cache, *args)

        def probe_spy(path, *args):
            kinds.add(path.kind)
            probing[0] = True
            try:
                return probe_walk(path, *args)
            finally:
                probing[0] = False

        def materialize_spy(self):
            if probing[0] and self._virtual is not None:
                installed.append(self.name)
            return materialize(self)

        monkeypatch.setattr(kernel, "_pass_filtered", walk_spy)
        monkeypatch.setattr(kernel, "_probe_walk", probe_spy)
        monkeypatch.setattr(SimCache, "_materialize", materialize_spy)
        MT4G(SimulatedGPU.from_preset("A100", seed=0)).discover()
        assert {
            LoadKind.LD_GLOBAL_CA,
            LoadKind.LD_GLOBAL_CG,
            LoadKind.TEX1DFETCH,
            LoadKind.LD_CONST,
        } <= kinds
        assert walks == []
        assert installed == []


class TestRunPchase:
    def test_in_cache_latencies_near_l1(self, nv):
        base = nv.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
        lat = run_pchase_ex(nv, LoadKind.LD_GLOBAL_CA, base, 2048, 32, N)
        expected = nv.spec.cache("L1").load_latency + nv.spec.noise.measurement_overhead
        assert abs(lat.mean() - expected) < 4

    def test_over_capacity_latencies_near_l2(self, nv):
        base = nv.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
        lat = run_pchase_ex(nv, LoadKind.LD_GLOBAL_CA, base, 16384, 32, N)
        expected = nv.spec.cache("L2").load_latency + nv.spec.noise.measurement_overhead
        assert abs(lat.mean() - expected) < 6

    def test_no_warmup_cold_misses(self, nv):
        base = nv.alloc(LoadKind.LD_GLOBAL_CG, 1 << 20)
        lat = run_pchase_ex(nv, LoadKind.LD_GLOBAL_CG, base, 384 * 64, 64, N, warmup=False)
        expected = nv.spec.memory.load_latency + nv.spec.noise.measurement_overhead
        assert abs(lat.mean() - expected) < 8

    def test_scratchpad_constant_latency(self, nv):
        lat = run_pchase_ex(nv, LoadKind.LD_SHARED, 1 << 28, 2048, 32, N)
        expected = nv.spec.scratchpad.load_latency + nv.spec.noise.measurement_overhead
        assert abs(lat.mean() - expected) < 3

    def test_sample_count(self, nv):
        base = nv.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
        lat = run_pchase_ex(nv, LoadKind.LD_GLOBAL_CA, base, 2048, 32, n_samples=100)
        assert lat.shape == (100,)

    def test_accounts_time(self, nv):
        before = nv.elapsed_seconds()
        base = nv.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
        run_pchase_ex(nv, LoadKind.LD_GLOBAL_CA, base, 2048, 32, N)
        assert nv.elapsed_seconds() > before

    def test_warm_and_probe(self, nv):
        base = nv.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
        addrs = pchase_addresses(base, 2048, 32)
        nv.flush_caches()
        warm(nv, LoadKind.LD_GLOBAL_CA, addrs, stride=32)
        hits, lat = probe_hits(nv, LoadKind.LD_GLOBAL_CA, addrs, stride=32)
        assert hits.all()
        assert lat.shape == addrs.shape


class TestStreamKernel:
    def test_l2_read_near_spec(self, nv):
        bw = run_stream_kernel(nv, "L2", "read")
        assert bw == pytest.approx(nv.spec.cache("L2").read_bandwidth, rel=0.1)

    def test_write_slower_than_read(self, nv):
        read = run_stream_kernel(nv, "L2", "read")
        write = run_stream_kernel(nv, "L2", "write")
        assert write < read

    def test_small_launch_underperforms(self, nv):
        tiny = run_stream_kernel(
            nv, "DeviceMemory", "read", launch=KernelLaunch(blocks=1, threads_per_block=32)
        )
        full = run_stream_kernel(nv, "DeviceMemory", "read")
        assert tiny < full * 0.5

    def test_launch_validation(self):
        with pytest.raises(SimulationError):
            KernelLaunch(blocks=0, threads_per_block=1)


class TestSizeGrids:
    def test_exponential(self):
        sizes = exponential_sizes(1024, 5000)
        assert sizes.tolist() == [1024, 2048, 4096, 8192]

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            exponential_sizes(0, 100)

    def test_linear_natural_step(self):
        sizes = linear_sizes(100, 200, 25, 100)
        assert sizes.tolist() == [100, 125, 150, 175, 200]

    def test_linear_coarsens_to_budget(self):
        sizes = linear_sizes(0x1000, 0x9000, 32, 9)
        assert sizes.size <= 10
        assert sizes[0] == 0x1000 and sizes[-1] == 0x9000

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            linear_sizes(100, 100, 10, 10)
        with pytest.raises(ValueError):
            linear_sizes(100, 200, 0, 10)


class TestRunnerBuffers:
    def test_slots_are_disjoint(self, nv):
        runner = PChaseRunner(nv)
        a = runner.buffer(LoadKind.LD_GLOBAL_CA, 4096, slot=0)
        b = runner.buffer(LoadKind.LD_GLOBAL_CA, 4096, slot=1)
        assert abs(a - b) >= 4096

    def test_buffer_reused_until_growth(self, nv):
        runner = PChaseRunner(nv)
        a = runner.buffer(LoadKind.LD_GLOBAL_CA, 4096)
        assert runner.buffer(LoadKind.LD_GLOBAL_CA, 2048) == a
        big = runner.buffer(LoadKind.LD_GLOBAL_CA, 1 << 20)
        assert big != a

    def test_constant_two_slots_within_bank(self, nv):
        runner = PChaseRunner(nv)
        a = runner.buffer(LoadKind.LD_CONST, 1024, slot=0)
        b = runner.buffer(LoadKind.LD_CONST, 1024, slot=1)
        assert b == a + 32 * 1024
        with pytest.raises(SimulationError):
            runner.buffer(LoadKind.LD_CONST, 40 * 1024, slot=1)

    def test_shared_validated(self, nv):
        runner = PChaseRunner(nv)
        with pytest.raises(SimulationError):
            runner.buffer(LoadKind.LD_SHARED, 1 << 20)

    def test_kind_space_mapping(self):
        assert space_for_kind(LoadKind.LD_CONST) is MemorySpace.CONSTANT
        assert space_for_kind(LoadKind.TEX1DFETCH) is MemorySpace.TEXTURE
        assert space_for_kind(LoadKind.S_LOAD) is MemorySpace.GLOBAL
        assert space_for_kind(LoadKind.DS_READ) is MemorySpace.SHARED


class TestRunnerMeasurements:
    def test_sweep_shape(self, nv):
        runner = PChaseRunner(nv, PChaseConfig(n_samples=64))
        sizes = np.array([1024, 2048, 4096])
        matrix = runner.sweep(LoadKind.LD_GLOBAL_CA, sizes, 32)
        assert matrix.shape == (3, 64)

    def test_sweep_shows_cliff(self, nv):
        runner = PChaseRunner(nv, PChaseConfig(n_samples=128))
        matrix = runner.sweep(
            LoadKind.LD_GLOBAL_CA, np.array([2048, 16384]), 32
        )
        assert matrix[1].mean() > matrix[0].mean() + 30

    def test_empty_sweep_rejected(self, nv):
        runner = PChaseRunner(nv)
        with pytest.raises(SimulationError):
            runner.sweep(LoadKind.LD_GLOBAL_CA, np.array([]), 32)

    def test_probe_without_warm_misses(self, nv):
        runner = PChaseRunner(nv)
        nv.flush_caches()
        hits, _ = runner.probe(LoadKind.LD_GLOBAL_CA, 4096, 64)
        assert not hits.any()

    @pytest.mark.parametrize("engine", ["analytic", "exact"])
    def test_ring_smaller_than_one_stride_rejected(self, nv, engine):
        runner = PChaseRunner(nv, PChaseConfig(engine=engine))
        with pytest.raises(SimulationError, match="smaller than one stride"):
            runner.warm(LoadKind.LD_GLOBAL_CA, 32, 64)
        with pytest.raises(SimulationError, match="smaller than one stride"):
            runner.probe(LoadKind.LD_GLOBAL_CA, 32, 64)
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(SimulationError, match="warm ring is empty"):
            warm(nv, LoadKind.LD_GLOBAL_CA, empty, stride=64, engine=engine)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PChaseConfig(n_samples=0)
        with pytest.raises(ValueError):
            PChaseConfig(engine="fast")
        assert [f.name for f in dataclasses.fields(PChaseConfig)] == [
            "n_samples",
            "engine",
        ]


class TestDescentWarmReuse:
    """A grow/shrink chain of fresh probes, as the size benchmark's
    doubling ascent and binary descent issue them.

    Every fresh run flushes, warms and times its own ring, so the
    analytic engine must return the exact engine's latencies run by run.
    """

    SIZES = [2048, 4096, 8192, 6144, 3072, 16384, 5120]

    def _run(self, engine: str) -> tuple[list, dict]:
        device = SimulatedGPU.from_preset("TestGPU-NV", seed=5)
        runner = PChaseRunner(device, PChaseConfig(engine=engine))
        lats = [
            runner.latencies(LoadKind.LD_GLOBAL_CA, s, 32) for s in self.SIZES
        ]
        return lats, dict(runner.stats)

    def test_latencies_identical_across_engines(self):
        analytic, _ = self._run("analytic")
        exact, _ = self._run("exact")
        for a, b in zip(analytic, exact):
            assert np.array_equal(a, b)

    def test_op_serial_still_guards_interleaved_operations(self):
        # The discovery cache key fingerprints op_serial: every flush and
        # every accounted kernel operation between two runs must move it.
        device = SimulatedGPU.from_preset("TestGPU-NV", seed=5)
        runner = PChaseRunner(device, PChaseConfig())
        serials = [device.op_serial]
        runner.latencies(LoadKind.LD_GLOBAL_CA, 8192, 32)  # flush + run
        serials.append(device.op_serial)
        runner.warm(LoadKind.LD_GLOBAL_CA, 4096, 32, slot=1)
        serials.append(device.op_serial)
        runner.latencies(LoadKind.LD_GLOBAL_CA, 4096, 32)
        serials.append(device.op_serial)
        assert [b - a for a, b in zip(serials, serials[1:])] == [2, 1, 2]

    def test_every_fresh_run_is_a_full_warm(self):
        # perfbench's layer ledger reads both keys.
        _, stats = self._run("analytic")
        assert stats["fresh_runs"] == len(self.SIZES)
        assert stats["full_warms"] == stats["fresh_runs"]
