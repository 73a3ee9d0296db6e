"""Tests for the simulated device: path resolution, segments, pinning."""

import pytest

from repro.errors import AllocationError, SchedulingError, SimulationError, SpecError
from repro.gpusim.device import SimulatedGPU
from repro.gpusim.isa import LoadKind, MemorySpace
from repro.gpuspec.spec import Quirk
from tests.conftest import make_quirked_amd, make_quirked_nv


@pytest.fixture
def nv() -> SimulatedGPU:
    return SimulatedGPU.from_preset("TestGPU-NV", seed=1)


@pytest.fixture
def nv2seg() -> SimulatedGPU:
    return SimulatedGPU.from_preset("TestGPU-NV-2SEG", seed=1)


@pytest.fixture
def amd() -> SimulatedGPU:
    return SimulatedGPU.from_preset("TestGPU-AMD", seed=1)


class TestPathResolutionNVIDIA:
    def test_global_ca_goes_l1_l2(self, nv):
        path = nv.resolve_path(LoadKind.LD_GLOBAL_CA)
        names = [c.name for c, _ in path.levels]
        assert "l1tex" in names[0] and "L2" in names[1]
        assert path.terminal_latency == nv.spec.memory.load_latency

    def test_global_cg_bypasses_l1(self, nv):
        path = nv.resolve_path(LoadKind.LD_GLOBAL_CG)
        assert len(path.levels) == 1
        assert "L2" in path.levels[0][0].name

    def test_texture_and_readonly_share_l1_silicon(self, nv):
        tex = nv.resolve_path(LoadKind.TEX1DFETCH)
        ro = nv.resolve_path(LoadKind.LDG)
        ca = nv.resolve_path(LoadKind.LD_GLOBAL_CA)
        assert tex.levels[0][0] is ro.levels[0][0] is ca.levels[0][0]
        # ... but with path-specific latencies (paper Table III).
        assert tex.levels[0][1] != ca.levels[0][1]

    def test_constant_path_stacks_cl1_cl15(self, nv):
        path = nv.resolve_path(LoadKind.LD_CONST)
        names = [c.name for c, _ in path.levels]
        assert any("ConstL1." in n or "ConstL1" in n for n in names[:1])
        assert len(path.levels) == 3  # CL1 -> CL1.5 -> L2

    def test_shared_memory_has_no_cache(self, nv):
        path = nv.resolve_path(LoadKind.LD_SHARED)
        assert path.levels == []
        assert path.terminal_latency == nv.spec.scratchpad.load_latency

    def test_amd_kind_rejected(self, nv):
        with pytest.raises(SimulationError):
            nv.resolve_path(LoadKind.FLAT_LOAD)


class TestPathResolutionAMD:
    def test_flat_load_goes_vl1_l2(self, amd):
        path = amd.resolve_path(LoadKind.FLAT_LOAD)
        assert len(path.levels) == 2

    def test_glc_bypasses_vl1(self, amd):
        path = amd.resolve_path(LoadKind.FLAT_LOAD_GLC)
        assert len(path.levels) == 1

    def test_scalar_path_uses_sl1d(self, amd):
        path = amd.resolve_path(LoadKind.S_LOAD)
        assert "sL1d" in path.levels[0][0].name

    def test_l3_in_path_when_present(self):
        dev = SimulatedGPU.from_preset("TestGPU-AMD-L3", seed=0)
        path = dev.resolve_path(LoadKind.FLAT_LOAD)
        assert len(path.levels) == 3  # vL1 -> L2 -> L3

    def test_nv_kind_rejected(self, amd):
        with pytest.raises(SimulationError):
            amd.resolve_path(LoadKind.LD_GLOBAL_CA)


class TestPathMemo:
    """``resolve_path`` builds each (kind, sm, core) path once."""

    def test_repeat_resolve_returns_the_same_path(self, nv, amd):
        assert nv.resolve_path(LoadKind.LD_GLOBAL_CA) is nv.resolve_path(LoadKind.LD_GLOBAL_CA)
        assert amd.resolve_path(LoadKind.S_LOAD, 3) is amd.resolve_path(LoadKind.S_LOAD, 3)
        assert amd.resolve_path(LoadKind.S_LOAD, 3) is not amd.resolve_path(LoadKind.S_LOAD, 2)

    def test_fetch_granularity_limit_rebuilds_the_l2_in_the_path(self, nv):
        before = nv.resolve_path(LoadKind.LD_GLOBAL_CG)
        old_l2 = before.levels[0][0]
        nv.set_limit("l2_fetch_granularity", 64)
        after = nv.resolve_path(LoadKind.LD_GLOBAL_CG)
        assert after.levels[0][0] is nv.l2_cache_for_sm(0)
        assert after.levels[0][0] is not old_l2
        assert after.levels[0][0].fetch_granularity == 64
        assert nv.resolve_path(LoadKind.LD_GLOBAL_CA).levels[1][0] is nv.l2_cache_for_sm(0)

    def test_p6000_constant_path_draws_its_coin_on_every_resolve(self):
        dev = SimulatedGPU.from_preset("P6000", seed=5)
        twin = SimulatedGPU.from_preset("P6000", seed=5)
        n = 25
        sides = [bool(dev.resolve_path(LoadKind.LD_CONST).side_effects) for _ in range(n)]
        draws = [twin._quirk_rng.random() for _ in range(n)]
        assert sides == [d < 0.5 for d in draws]
        assert True in sides and False in sides
        # Exactly n draws: the next one is the twin's (n + 1)-th.
        assert dev._quirk_rng.random() == twin._quirk_rng.random()

    def test_out_of_range_sm_raises_and_is_not_stored(self, nv, amd):
        for dev, kind in ((nv, LoadKind.LD_GLOBAL_CA), (amd, LoadKind.FLAT_LOAD)):
            for _ in range(2):
                with pytest.raises(SimulationError):
                    dev.resolve_path(kind, sm=99)
            assert (kind, 99, 0) not in dev._paths


class TestSegmentsAndGroups:
    def test_l2_segment_mapping(self, nv2seg):
        segs = {nv2seg.l2_segment_of_sm(sm) for sm in range(2)}
        assert segs == {0, 1}
        assert nv2seg.l2_cache_for_sm(0) is not nv2seg.l2_cache_for_sm(1)

    def test_l2_single_segment_shared(self, nv):
        assert nv.l2_cache_for_sm(0) is nv.l2_cache_for_sm(1)

    def test_l1_segments_by_core(self, nv2seg):
        sm = nv2seg.sm(0)
        spec = nv2seg.spec.cache("L1")
        low = sm.cache_for(spec, core=0)
        high = sm.cache_for(spec, core=spec.segments and sm.cores - 1)
        assert low is not high

    def test_sl1d_groups_follow_physical_ids(self, amd):
        # TestGPU-AMD physical ids: (0,1,2,4,5,6,8,9); pairs share //2.
        assert amd.sl1d_cache_for_cu(0) is amd.sl1d_cache_for_cu(1)  # phys 0,1
        assert amd.sl1d_cache_for_cu(2) is not amd.sl1d_cache_for_cu(3)  # 2 vs 4
        assert amd.sl1d_cache_for_cu(6) is not amd.sl1d_cache_for_cu(5)

    def test_exclusive_sl1d_for_fused_partner(self, amd):
        # Physical CU 2's partner (3) is fused off: group 1 has one member.
        group = amd.sl1d_group_of_cu(2)
        others = [cu for cu in range(8) if cu != 2 and amd.sl1d_group_of_cu(cu) == group]
        assert others == []


class TestPinningAndQuirks:
    def test_cu_pinning_returns_physical_id(self, amd):
        assert amd.pin_block_to_cu(3) == 4  # logical 3 -> physical 4

    def test_cu_pinning_nvidia_rejected(self, nv):
        with pytest.raises(SchedulingError):
            nv.pin_block_to_cu(0)

    def test_virtualized_pinning_refused(self):
        spec = make_quirked_amd(frozenset({Quirk.VIRTUALIZED}))
        dev = SimulatedGPU(spec, seed=0)
        with pytest.raises(SchedulingError):
            dev.pin_block_to_cu(0)

    def test_warp_bug_blocks_warp3(self):
        spec = make_quirked_nv(frozenset({Quirk.WARP_SCHEDULING_BUG}))
        dev = SimulatedGPU(spec, seed=0)
        sm = dev.sm(0)
        assert sm.check_warp_schedulable(0)
        assert sm.check_warp_schedulable(2)
        assert not sm.check_warp_schedulable(3)
        with pytest.raises(SchedulingError):
            sm.pin_core(3 * 32)

    def test_no_bug_all_warps_fine(self):
        spec = make_quirked_nv(frozenset())
        dev = SimulatedGPU(spec, seed=0)
        assert all(dev.sm(0).check_warp_schedulable(w) for w in range(4))

    def test_flaky_const_side_effect_sometimes(self):
        spec = make_quirked_nv(frozenset({Quirk.FLAKY_L1_CONST_SHARING}))
        dev = SimulatedGPU(spec, seed=3)
        outcomes = {bool(dev.resolve_path(LoadKind.LD_CONST).side_effects) for _ in range(40)}
        assert outcomes == {True, False}  # the coin flips both ways

    def test_clean_const_no_side_effect(self, nv):
        for _ in range(20):
            assert nv.resolve_path(LoadKind.LD_CONST).side_effects == []


class TestAllocationAndReset:
    def test_global_alloc_distinct(self, nv):
        a = nv.alloc(MemorySpace.GLOBAL, 4096)
        b = nv.alloc(MemorySpace.GLOBAL, 4096)
        assert b >= a + 4096

    def test_constant_limit(self, nv):
        with pytest.raises(AllocationError):
            nv.alloc(MemorySpace.CONSTANT, 128 * 1024)

    def test_shared_capacity_enforced(self, nv):
        with pytest.raises(AllocationError):
            nv.alloc(MemorySpace.SHARED, nv.spec.scratchpad.size + 1)

    def test_alloc_by_kind(self, nv):
        assert nv.alloc(LoadKind.LD_CONST, 1024) > 0

    def test_reset_releases_everything(self, nv):
        nv.alloc(MemorySpace.SHARED, nv.spec.scratchpad.size)
        nv.reset()
        nv.alloc(MemorySpace.SHARED, nv.spec.scratchpad.size)  # would raise if leaked

    def test_sm_out_of_range(self, nv):
        with pytest.raises(SimulationError):
            nv.sm(99)

    def test_accounting(self, nv):
        nv.account_loads(10, 500.0)
        assert nv.total_loads == 10
        assert nv.elapsed_seconds() == pytest.approx(500.0 / nv.spec.core_clock_hz)
        with pytest.raises(SimulationError):
            nv.account_loads(-1, 0.0)


class TestMIGOnDevice:
    def test_profile_restricts_sms(self):
        dev = SimulatedGPU.from_preset("TestGPU-NV", seed=0, mig_profile="1g")
        assert dev.visible_sms < dev.spec.compute.num_sms
        with pytest.raises(SimulationError):
            dev.sm(dev.visible_sms)

    def test_unknown_profile_rejected(self):
        with pytest.raises(SpecError):
            SimulatedGPU.from_preset("TestGPU-NV", seed=0, mig_profile="weird")

    def test_mig_on_amd_rejected(self):
        with pytest.raises(SpecError):
            SimulatedGPU.from_preset("TestGPU-AMD", seed=0, mig_profile="1g")
