"""Analytic vs. exact engine equivalence at the kernel and tool layers.

The analytic engine (deferred warms, analytic timed passes) must be measurement-for-measurement indistinguishable from the
exact per-load simulator: identical latency vectors, identical hit
vectors, identical simulated-time accounting and — end to end —
byte-identical :class:`TopologyReport` dictionaries at a fixed seed.
"""

import itertools
import json
import sys

import numpy as np
import pytest

from repro import MT4G, SimulatedGPU
from repro.core.benchmarks.base import BenchmarkContext
from repro.core.output.json_out import to_json
from repro.core.benchmarks.sharing import (
    _MISS_FRACTION,
    _working_set,
    measure_sl1d_sharing,
)
from repro.gpusim import kernel
from repro.gpusim.device import LoadPath
from repro.gpusim.isa import LoadKind
from repro.gpusim.kernel import pchase_addresses, probe_hits, run_pchase_ex, warm
from repro.pchase import PChaseConfig, PChaseRunner


def fresh(seed: int = 7) -> SimulatedGPU:
    return SimulatedGPU.from_preset("TestGPU-NV", seed=seed)


PCHASE_CASES = [
    # (kind, alloc, nbytes, stride, warmup_passes)
    (LoadKind.LD_GLOBAL_CA, 1 << 20, 2048, 32, 1),  # in-cache
    (LoadKind.LD_GLOBAL_CA, 1 << 20, 300_000, 32, 1),  # L1 thrash
    (LoadKind.LD_GLOBAL_CA, 1 << 20, 8 * 1024, 32, 1),  # boundary mix
    (LoadKind.LD_GLOBAL_CG, 1 << 20, 64 * 1024, 256, 0),  # cold DRAM
    (LoadKind.LD_CONST, 32 * 1024, 8 * 1024, 64, 2),  # 3-level path
    (LoadKind.TEX1DFETCH, 1 << 20, 4096, 16, 1),  # sub-sector stride
    (LoadKind.LD_GLOBAL_CA, 1 << 20, 1024, 32, 1),  # n_samples > ring
]


class TestRunPchaseEquivalence:
    @pytest.mark.parametrize("case", PCHASE_CASES)
    def test_latencies_and_accounting_identical(self, case):
        kind, alloc, nbytes, stride, warmup = case
        results = {}
        for engine in ("analytic", "exact"):
            device = fresh()
            base = device.alloc(kind, alloc)
            lat = run_pchase_ex(
                device,
                kind,
                base,
                nbytes,
                stride,
                warmup_passes=warmup,
                engine=engine,
            )
            results[engine] = (lat, device.elapsed_seconds(), device.total_loads)
        assert np.array_equal(results["analytic"][0], results["exact"][0])
        assert results["analytic"][1] == results["exact"][1]
        assert results["analytic"][2] == results["exact"][2]

    def test_single_warm_pass_is_fixed_point(self):
        """Satellite: one executed warm pass == many, time charged for all."""
        lat1 = lat3 = None
        t1 = t3 = None
        for passes in (1, 3):
            device = fresh()
            base = device.alloc(LoadKind.LD_GLOBAL_CA, 1 << 20)
            lat = run_pchase_ex(
                device, LoadKind.LD_GLOBAL_CA, base, 4096, 32,
                warmup_passes=passes,
            )
            if passes == 1:
                lat1, t1 = lat, device.elapsed_seconds()
            else:
                lat3, t3 = lat, device.elapsed_seconds()
        assert np.array_equal(lat1, lat3)  # measurements identical
        assert t3 > t1  # ...but every requested pass is charged

    def test_cold_warm_pass_charged_at_miss_latency(self):
        """Satellite: the first warm pass after a flush costs a miss, not a hit."""
        device = fresh()
        base = device.alloc(LoadKind.LD_GLOBAL_CA, 1 << 20)
        n_ring = 4096 // 32
        before = device.clock.cycles
        run_pchase_ex(device, LoadKind.LD_GLOBAL_CA, base, 4096, 32)
        spent = device.clock.cycles - before
        path = device.resolve_path(LoadKind.LD_GLOBAL_CA)
        hit_only_warm = n_ring * path.levels[0][1]
        # The warm portion alone must exceed a hit-latency-only estimate.
        assert spent > hit_only_warm + n_ring * (
            path.terminal_latency - path.levels[0][1]
        ) * 0.99


# (B as large as A, SM that warms B, probe may use A's warm descriptor);
# ids read e.g. "True-sm1-stride32" and omit the SM-0 and replay defaults:
# "stride32" marks a probe of A's 32 B ring that the descriptor may
# answer, and without it A's rows are installed before the probe, which
# then walks unknown state.
PROBE_CASES = [
    pytest.param(
        shared,
        b_sm,
        descriptor,
        id="-".join(
            [str(shared)] + [f"sm{b_sm}"] * bool(b_sm) + ["stride32"] * descriptor
        ),
    )
    for shared in (True, False)
    for b_sm in (0, 1)
    for descriptor in (False, True)
]


class TestProbeEquivalence:
    @pytest.mark.parametrize("shared,b_sm,descriptor", PROBE_CASES)
    def test_probe_hits_identical(self, shared, b_sm, descriptor):
        """Warm-A / warm-B / probe-A protocol rounds match per engine.

        With B warmed from another SM, A's L1 still holds A's deferred
        fixed point, so the probe is answered from it unless the rows
        were installed first.
        """
        results = {}
        for engine in ("analytic", "exact"):
            device = fresh()
            a = device.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
            b = device.alloc(LoadKind.LD_GLOBAL_CA, 1 << 16)
            addrs_a = pchase_addresses(a, 6 * 1024, 32)
            addrs_b = pchase_addresses(b, 6 * 1024 if shared else 512, 32)
            device.flush_caches()
            warm(device, LoadKind.LD_GLOBAL_CA, addrs_a, stride=32, engine=engine)
            warm(
                device,
                LoadKind.LD_GLOBAL_CA,
                addrs_b,
                sm=b_sm,
                stride=32,
                engine=engine,
            )
            if not descriptor:
                for cache, _ in device.resolve_path(LoadKind.LD_GLOBAL_CA).levels:
                    cache.resident_lines()  # installs the deferred rows
            hits, lat = probe_hits(
                device, LoadKind.LD_GLOBAL_CA, addrs_a, stride=32, engine=engine
            )
            results[engine] = (
                hits,
                lat,
                device.elapsed_seconds(),
                device.total_loads,
                device.noise.rng.random(),
            )
        assert np.array_equal(results["analytic"][0], results["exact"][0])
        assert np.array_equal(results["analytic"][1], results["exact"][1])
        assert results["analytic"][2:] == results["exact"][2:]

    @pytest.mark.parametrize(
        "preset,max_cus", [("TestGPU-AMD", None), ("MI210", 12), ("MI100", 12)]
    )
    def test_sl1d_sharing_identical(self, preset, max_cus):
        """The all-pairs sL1d protocol: same partners, time, loads and RNG."""
        results = {}
        for engine in ("analytic", "exact"):
            device = SimulatedGPU.from_preset(preset, seed=5)
            ctx = BenchmarkContext(device, PChaseConfig(engine=engine))
            sl1d = device.spec.cache("sL1d")
            m = measure_sl1d_sharing(
                ctx, sl1d.size, sl1d.fetch_granularity, max_cus=max_cus
            )
            results[engine] = (
                m.value,
                m.detail,
                device.elapsed_seconds(),
                device.total_loads,
                device.noise.rng.random(),
            )
        assert results["analytic"] == results["exact"]
        assert any(results["analytic"][0].values())  # some CUs do share


def literal_sl1d_partners(ctx, cache_size, fetch_granularity, max_cus=None):
    """The all-pairs sL1d protocol with every round run in full.

    One flush, warm of CU a, warm of CU b and probe of CU a per pair, as
    the paper states the protocol; the oracle for the per-class replay.
    """
    device = ctx.device
    num_cus = min(max_cus or device.spec.compute.num_sms, device.spec.compute.num_sms)
    stride = int(fetch_granularity)
    nbytes = _working_set(int(cache_size), stride)
    partners = {cu: [] for cu in range(num_cus)}
    for cu_a, cu_b in itertools.combinations(range(num_cus), 2):
        device.flush_caches()
        ctx.runner.warm(LoadKind.S_LOAD, nbytes, stride, sm=cu_a, slot=0)
        ctx.runner.warm(LoadKind.S_LOAD, nbytes, stride, sm=cu_b, slot=1)
        hits, _ = ctx.runner.probe(LoadKind.S_LOAD, nbytes, stride, sm=cu_a, slot=0)
        if float(np.mean(~hits)) > _MISS_FRACTION:
            partners[cu_a].append(cu_b)
            partners[cu_b].append(cu_a)
    return {cu: tuple(p) for cu, p in partners.items()}


def device_state(device):
    """Everything a later measurement or a cache key can observe.

    The caches are not compared: after a probe their state is
    unspecified until the next flush.
    """
    return (
        device.elapsed_seconds(),
        device.total_loads,
        device.op_serial,
        device.rng.random(),
    )


class TestPairRoundsOracle:
    """Per-class replay of the sL1d pair rounds against the literal loop."""

    @pytest.mark.parametrize("engine", ["analytic", "exact"])
    @pytest.mark.parametrize("contention", [0.0, 2.0])
    @pytest.mark.parametrize(
        "preset,max_cus",
        [("TestGPU-AMD", None), ("TestGPU-AMD-L3", None), ("MI210", 12), ("MI100", 12)],
    )
    def test_replay_matches_literal_rounds(self, preset, max_cus, contention, engine):
        results = []
        for replay in (True, False):
            device = SimulatedGPU.from_preset(preset, seed=11, contention=contention)
            ctx = BenchmarkContext(device, PChaseConfig(engine=engine))
            sl1d = device.spec.cache("sL1d")
            if replay:
                m = measure_sl1d_sharing(
                    ctx, sl1d.size, sl1d.fetch_granularity, max_cus=max_cus
                )
                partners = m.value
            else:
                partners = literal_sl1d_partners(
                    ctx, sl1d.size, sl1d.fetch_granularity, max_cus=max_cus
                )
            results.append((partners, *device_state(device)))
        assert results[0] == results[1]
        assert any(results[0][0].values())  # some CUs do share

    @pytest.mark.parametrize("preset", ["MI210", "MI100"])
    def test_one_full_round_per_class(self, preset):
        device = SimulatedGPU.from_preset(preset, seed=0)
        ctx = BenchmarkContext(device)
        names = [n for n in ("sL1d", "L2", "L3") if device.spec.has_cache(n)]
        cus = range(device.spec.compute.num_sms)
        classes = {
            tuple(
                device.cache_instance(n, a) is device.cache_instance(n, b)
                for n in names
            )
            for a, b in itertools.combinations(cus, 2)
        }
        flushes = 0
        flush = device.flush_caches

        def counting_flush():
            nonlocal flushes
            flushes += 1
            flush()

        device.flush_caches = counting_flush
        sl1d = device.spec.cache("sL1d")
        measure_sl1d_sharing(ctx, sl1d.size, sl1d.fetch_granularity)
        assert flushes <= len(classes)


class TestRunnerEquivalence:
    def test_fresh_sweep_identical(self):
        """A sweep of fresh runs returns the same matrix and run time on
        both engines.

        The P6000 constant path re-rolls its L1 side effect on every run
        (FLAKY_L1_CONST_SHARING), so the set of warmed caches changes from
        size to size.
        """
        cases = [
            ("TestGPU-NV", LoadKind.LD_GLOBAL_CA, [2048, 4096, 6144, 8192, 12288, 16384], 32),
            ("P6000", LoadKind.LD_CONST, [1024, 2048, 3072, 4096, 8192, 2048], 64),
        ]
        for preset, kind, sizes, stride in cases:
            matrices = {}
            for engine in ("analytic", "exact"):
                device = SimulatedGPU.from_preset(preset, seed=3)
                runner = PChaseRunner(device, PChaseConfig(n_samples=96, engine=engine))
                matrices[engine] = (
                    runner.sweep(kind, np.array(sizes), stride),
                    device.elapsed_seconds(),
                )
            assert np.array_equal(matrices["analytic"][0], matrices["exact"][0]), preset
            assert matrices["analytic"][1] == matrices["exact"][1], preset

    def test_descending_and_interleaved_sizes_identical(self):
        """Shrinking and repeated sizes: every run starts from a flush."""
        for sizes in ([16384, 4096, 8192, 2048], [4096, 4096, 2048, 16384]):
            results = {}
            for engine in ("analytic", "exact"):
                device = fresh(seed=9)
                runner = PChaseRunner(device, PChaseConfig(n_samples=64, engine=engine))
                results[engine] = np.vstack(
                    [runner.latencies(LoadKind.LD_GLOBAL_CA, s, 32) for s in sizes]
                )
            assert np.array_equal(results["analytic"], results["exact"])

    def test_foreign_op_invalidates_warm_reuse(self):
        """A protocol op between sweep runs must not corrupt measurements."""
        results = {}
        for engine in ("analytic", "exact"):
            device = fresh(seed=13)
            runner = PChaseRunner(device, PChaseConfig(n_samples=64, engine=engine))
            out = [runner.latencies(LoadKind.LD_GLOBAL_CA, 4096, 32)]
            runner.warm(LoadKind.LD_GLOBAL_CG, 2048, 64)  # foreign mutation
            out.append(runner.latencies(LoadKind.LD_GLOBAL_CA, 8192, 32))
            results[engine] = np.vstack(out)
        assert np.array_equal(results["analytic"], results["exact"])


class TestDiscoveryEquivalence:
    @pytest.mark.parametrize("preset", ["TestGPU-NV", "TestGPU-AMD"])
    def test_reports_byte_identical(self, preset):
        reports = {}
        for engine in ("analytic", "exact"):
            device = SimulatedGPU.from_preset(preset, seed=42)
            report = MT4G(device, config=PChaseConfig(engine=engine)).discover()
            reports[engine] = json.dumps(
                report.as_dict(), default=str, sort_keys=True
            )
        assert reports["analytic"] == reports["exact"]


#: The kernel entry points after which the cache state is unspecified.
TIMED = ("run_pchase_ex", "probe_hits", "_probe_walk")


def scramble(path: LoadPath) -> None:
    """Replace every cache on ``path`` by garbage: a foreign warm ring."""
    for cache in [c for c, _ in path.levels] + list(path.side_effects):
        cache.flush()
        cache.warm_cyclic_lazy(1 << 40, 4 * cache.size, cache.line_size)


def report_json(preset: str, seed: int, scramble_after: tuple[str, ...] = ()) -> str:
    """``to_json`` of a validated discovery that scrambles each path's
    caches after every call of the kernel functions in ``scramble_after``.

    A function handed a path scrambles that path; the others scramble
    the path they resolved last.  The path is recorded rather than
    resolved again, because resolving the P6000 constant path draws a
    random number.
    """
    with pytest.MonkeyPatch.context() as mp:
        last: list[LoadPath] = []
        resolve = SimulatedGPU.resolve_path

        def recording_resolve(self, kind, sm=0, core=0):
            last[:] = [resolve(self, kind, sm, core)]
            return last[0]

        mp.setattr(SimulatedGPU, "resolve_path", recording_resolve)
        for name in scramble_after:
            original = getattr(kernel, name)

            def scrambling(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                scramble(args[0] if isinstance(args[0], LoadPath) else last[0])
                return out

            # Every module that imported the function by name calls it
            # through its own binding.
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original
                ):
                    mp.setattr(module, name, scrambling)
        report = MT4G(SimulatedGPU.from_preset(preset, seed=seed)).discover(validate=True)
        return to_json(report)


class TestPassStateContract:
    """After a timed pass or a probe the cache state is unspecified until
    the next flush: every measurement flushes before it warms again, so
    replacing every cache on the path by garbage after each pass or
    probe must not move a single byte of the report."""

    @pytest.mark.parametrize("preset", ["TestGPU-NV", "TestGPU-AMD", "P6000"])
    def test_scrambling_after_every_pass_and_probe_keeps_the_report(self, preset):
        assert report_json(preset, 0, TIMED) == report_json(preset, 0)

    def test_scrambling_after_a_warm_moves_the_report(self):
        """Negative control: a probe reads the state its warms leave."""
        assert report_json("TestGPU-NV", 0, ("warm",)) != report_json("TestGPU-NV", 0)
