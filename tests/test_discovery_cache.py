"""Tests for the content-addressed discovery cache (repro.cache).

Correctness contract, in order of importance:

* a cache hit is *byte-identical* to the cold run it replaces (report
  content, raw sweep artefacts, restored tool state);
* any input change — spec mutation, config change, seed, carveout,
  targets, validate flag, schema-salt bump — produces a different key
  (invalidation by construction);
* a corrupted or truncated entry degrades to a silent miss + re-measure
  and heals itself;
* concurrent fleet workers sharing one store produce byte-identical
  reports, and re-running a fleet replays it near-free;
* the cost-aware scheduler orders longest-first from recorded walls and
  never changes results or entry order.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import MT4G, DiscoveryCache, SimulatedGPU
from repro.cache import keys as cache_keys
from repro.cache.costs import estimate_discovery_cost, schedule_order
from repro.gpuspec.presets import get_preset
from repro.pchase.config import PChaseConfig
from repro.validate.fleet import discover_fleet, fleet_schedule

PRESET = "TestGPU-NV"


def content(report) -> str:
    return json.dumps(report.content_dict(), default=str, sort_keys=True)


def device(seed: int = 0, **kw) -> SimulatedGPU:
    return SimulatedGPU.from_preset(PRESET, seed=seed, **kw)


@pytest.fixture
def store(tmp_path) -> DiscoveryCache:
    return DiscoveryCache(tmp_path / "cache")


# ---------------------------------------------------------------------- #
# key derivation                                                          #
# ---------------------------------------------------------------------- #


class TestKeys:
    def test_deterministic(self):
        a = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        b = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        assert a == b and len(a) == 64

    def test_target_order_is_canonical(self):
        a = cache_keys.report_key(
            device(), PChaseConfig(), ["L1", "L2"], [], False
        )
        b = cache_keys.report_key(
            device(), PChaseConfig(), ["L2", "L1"], [], False
        )
        assert a == b

    @pytest.mark.parametrize(
        "mutant",
        [
            lambda d, c: (device(seed=1), c, False),
            lambda d, c: (device(cache_config="PreferShared"), c, False),
            lambda d, c: (d, dataclasses.replace(c, n_samples=c.n_samples * 2), False),
            lambda d, c: (d, dataclasses.replace(c, engine="exact"), False),
            lambda d, c: (d, c, True),  # validate flag
        ],
    )
    def test_input_changes_change_the_key(self, mutant):
        dev, cfg = device(), PChaseConfig()
        base = cache_keys.report_key(dev, cfg, ["L1"], [], False)
        mdev, mcfg, mval = mutant(dev, cfg)
        assert cache_keys.report_key(mdev, mcfg, ["L1"], [], mval) != base

    def test_spec_mutation_changes_the_key(self):
        base_spec = get_preset(PRESET)
        caches = tuple(
            dataclasses.replace(c, size=c.size * 2, physical_id=c.effective_physical_id)
            if c.name == "L2"
            else c
            for c in base_spec.caches
        )
        mutated = dataclasses.replace(base_spec, caches=caches)
        a = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        b = cache_keys.report_key(
            SimulatedGPU(mutated, seed=0), PChaseConfig(), ["L1"], [], False
        )
        assert a != b

    def test_version_salt_changes_the_key(self):
        a = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        b = cache_keys.report_key(
            device(), PChaseConfig(), ["L1"], [], False, version=999
        )
        assert a != b

    def test_used_device_keys_differently_from_fresh(self):
        # A device that already executed work has advanced its noise
        # stream: measuring on it again gives different results than a
        # fresh same-seed device, so it must not share the pristine key.
        fresh_key = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        used = device()
        MT4G(used, targets=["L1"]).discover()
        used_key = cache_keys.report_key(used, PChaseConfig(), ["L1"], [], False)
        assert used_key != fresh_key

    def test_tool_version_changes_the_key(self, monkeypatch):
        # A release that changes measurement behaviour must orphan old
        # entries even when the payload schema (and so the salt) is
        # unchanged.
        import repro

        a = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        b = cache_keys.report_key(device(), PChaseConfig(), ["L1"], [], False)
        assert a != b

    def test_numpy_values_canonicalise(self):
        import numpy as np

        assert cache_keys.canonicalize(np.int64(7)) == 7
        assert cache_keys.canonicalize(np.array([1, 2, 3])) == [1, 2, 3]
        assert cache_keys.canonicalize({"a": np.float64(1.5)}) == {"a": 1.5}

    def test_unkeyable_object_raises_instead_of_repr_keying(self):
        # A generic repr embeds a memory address: hashing it would key
        # per-process and miss forever.  Refusing loudly lets the tool
        # degrade to uncached measurement instead.
        class Opaque:
            pass

        with pytest.raises(TypeError):
            cache_keys.canonicalize(Opaque())

    def test_failing_key_derivation_degrades_to_uncached(self, store, monkeypatch):
        # "A cache must never sink a run": an unkeyable input refuses
        # loudly at the canonicaliser, and the tool responds by simply
        # measuring uncached.
        def boom(*args, **kwargs):
            raise TypeError("unkeyable input")

        monkeypatch.setattr(store, "report_key", boom)
        tool = MT4G(device(), cache=store, targets=["L1"])
        report = tool.discover()  # must not raise
        assert "cache" not in report.meta
        assert store.stores == 0


# ---------------------------------------------------------------------- #
# the store                                                               #
# ---------------------------------------------------------------------- #


class TestStore:
    KEY = "ab" * 32

    def test_round_trip(self, store):
        assert store.get(self.KEY) is None
        assert store.put(self.KEY, {"v": [1, 2, 3]})
        assert store.get(self.KEY) == {"v": [1, 2, 3]}
        assert (store.hits, store.misses, store.stores) == (1, 1, 1)

    def test_garbage_entry_is_a_silent_miss_and_heals(self, store):
        store.put(self.KEY, "payload")
        path = store._entry_path(self.KEY)
        path.write_bytes(b"\x00garbage, not a pickle")
        assert store.get(self.KEY) is None
        assert not path.exists()  # unreadable entry deleted
        assert store.put(self.KEY, "payload")  # re-measure + re-store heals
        assert store.get(self.KEY) == "payload"

    def test_truncated_entry_is_a_silent_miss(self, store):
        store.put(self.KEY, {"big": list(range(1000))})
        path = store._entry_path(self.KEY)
        path.write_bytes(path.read_bytes()[: 40])
        assert store.get(self.KEY) is None

    def test_entry_under_wrong_address_is_a_miss(self, store):
        other = "cd" * 32
        store.put(self.KEY, "payload")
        target = store._entry_path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(store._entry_path(self.KEY).read_bytes())
        assert store.get(other) is None  # embedded key check

    def test_version_bump_orphans_entries(self, tmp_path):
        v1 = DiscoveryCache(tmp_path, version=1)
        v2 = DiscoveryCache(tmp_path, version=2)
        dev, cfg = device(), PChaseConfig()
        key1 = v1.report_key(dev, cfg, ["L1"], [], False)
        key2 = v2.report_key(dev, cfg, ["L1"], [], False)
        assert key1 != key2
        v1.put(key1, "old")
        assert v2.get(key2) is None
        # even a forged same-key read fails the embedded schema check
        assert v2.get(key1) is None

    def test_unwritable_root_never_raises(self):
        store = DiscoveryCache("/proc/definitely/not/writable")
        assert not store.put(self.KEY, "x")
        assert store.get(self.KEY) is None
        store.record_wall("p", 1.0)
        assert store.recorded_walls() == {}
        assert store.prune() == 0

    def test_prune_removes_least_recently_used_first(self, store):
        import os
        import time

        keys = [f"{i:02d}" * 32 for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, "x" * 1000)
            past = time.time() - 1000 + i
            os.utime(store._entry_path(key), (past, past))
        # Touch the oldest entry via a hit: it becomes most recent.
        assert store.get(keys[0]) == "x" * 1000
        total = sum(
            p.stat().st_size for p in (store.root / "entries").glob("*/*.pkl")
        )
        per_entry = total // 4
        removed = store.prune(max_bytes=2 * per_entry)
        assert removed == 2
        assert store.get(keys[0]) is not None  # recently used: kept
        assert store.get(keys[3]) is not None  # newest: kept
        assert store.get(keys[1]) is None
        assert store.get(keys[2]) is None

    def test_prune_noop_under_budget(self, store):
        store.put(self.KEY, "payload")
        assert store.prune() == 0
        assert store.get(self.KEY) == "payload"

    def test_prune_reclaims_crash_orphaned_temp_files(self, store):
        import os
        import time

        store.put(self.KEY, "payload")
        shard = store._entry_path(self.KEY).parent
        stale = shard / f".{self.KEY}.999.dead.tmp"
        stale.write_bytes(b"orphaned by a crash mid-write")
        past = time.time() - 7200
        os.utime(stale, (past, past))
        live = shard / f".{self.KEY}.998.live.tmp"
        live.write_bytes(b"a concurrent writer's in-flight temp")
        store.prune()
        assert not stale.exists()  # old orphan reclaimed even under budget
        assert live.exists()  # fresh temp (possible in-flight write) kept
        assert store.get(self.KEY) == "payload"


# ---------------------------------------------------------------------- #
# discovery through the cache                                             #
# ---------------------------------------------------------------------- #


class TestCachedDiscovery:
    def test_hit_is_byte_identical_and_restores_state(self, store):
        cold_tool = MT4G(device(), cache=store)
        cold = cold_tool.discover()
        warm_tool = MT4G(device(), cache=store)
        warm = warm_tool.discover()
        plain = MT4G(device()).discover()
        assert content(cold) == content(warm) == content(plain)
        assert cold.meta["cache"]["status"] == "miss"
        assert warm.meta["cache"]["status"] == "hit"
        assert plain.meta == {}
        # the raw sweep artefacts and measured sizes come back too
        assert json.dumps(warm_tool.raw_data, default=str) == json.dumps(
            cold_tool.raw_data, default=str
        )
        assert warm_tool._measured_sizes == cold_tool._measured_sizes
        assert warm_tool._measured_fg == cold_tool._measured_fg
        # the hit executed zero benchmarks
        assert warm_tool.ctx.benchmarks_run == 0
        assert warm_tool.device.elapsed_seconds() == 0.0

    def test_validated_hit_is_byte_identical(self, store):
        cold = MT4G(device(), cache=store).discover(validate=True)
        warm = MT4G(device(), cache=store).discover(validate=True)
        plain = MT4G(device()).discover(validate=True)
        assert content(cold) == content(warm) == content(plain)
        assert warm.meta["cache"]["status"] == "hit"

    def test_validate_flag_has_its_own_entry(self, store):
        MT4G(device(), cache=store).discover(validate=False)
        report = MT4G(device(), cache=store).discover(validate=True)
        assert report.meta["cache"]["status"] == "miss"
        assert report.validation is not None

    def test_corrupted_report_entry_remeasures(self, store):
        tool = MT4G(device(), cache=store)
        cold = tool.discover()
        key = cold.meta["cache"]["key"]
        store._entry_path(key).write_bytes(b"truncated")
        again = MT4G(device(), cache=store).discover()
        assert again.meta["cache"]["status"] == "miss"
        assert content(again) == content(cold)
        # ...and the entry healed: next run hits
        assert MT4G(device(), cache=store).discover().meta["cache"]["status"] == "hit"

    def test_rejected_payload_leaks_no_stale_state(self, store):
        # A payload that passes the store's key/schema check but lacks a
        # field (a build that changed the payload dict without bumping
        # the salt) must be rejected *atomically*: the fresh measurement
        # that follows must not merge with the rejected run's artefacts.
        tool = MT4G(device(), cache=store)
        cold = tool.discover()
        key = cold.meta["cache"]["key"]
        store.put(key, {"report": cold, "raw_data": {"SENTINEL": {}}})
        tool2 = MT4G(device(), cache=store)
        again = tool2.discover()
        assert again.meta["cache"]["status"] == "miss"
        assert "SENTINEL" not in tool2.raw_data
        assert content(again) == content(cold)

    def test_escalating_validation_stores_one_entry(self, store):
        # Escalation re-measurements are not cached on their own: a
        # validated discovery that escalates leaves exactly its report
        # entry, and a re-run replays the whole validated report.
        cold = MT4G(device(), cache=store).discover(validate=True)
        assert cold.validation.escalations, "fixture must escalate"
        assert store.entry_count() == 1 and store.stores == 1
        warm = MT4G(device(), cache=store).discover(validate=True)
        assert warm.meta["cache"]["status"] == "hit"
        assert store.stores == 1
        assert content(warm) == content(cold)


# ---------------------------------------------------------------------- #
# fleet: shared store + cost-aware scheduling                             #
# ---------------------------------------------------------------------- #


FLEET_PRESETS = ["TestGPU-NV", "TestGPU-AMD"]


def fleet_content(result) -> str:
    payload = result.as_dict()["reports"]
    for report in payload.values():
        report.pop("meta", None)
    return json.dumps(payload, default=str, sort_keys=True)


class TestFleetCache:
    def test_concurrent_workers_share_store_byte_identically(self, tmp_path):
        cache_dir = tmp_path / "fleet-cache"
        concurrent = discover_fleet(
            FLEET_PRESETS, seed=0, jobs=2, validate=True, cache_dir=cache_dir
        )
        uncached = discover_fleet(FLEET_PRESETS, seed=0, validate=True, jobs=1)
        assert fleet_content(concurrent) == fleet_content(uncached)
        assert all(e.cache_status == "miss" for e in concurrent.entries)

        warm = discover_fleet(
            FLEET_PRESETS, seed=0, jobs=2, validate=True, cache_dir=cache_dir
        )
        assert fleet_content(warm) == fleet_content(uncached)
        assert all(e.cache_status == "hit" for e in warm.entries)
        # entries keep the caller's input order regardless of scheduling
        assert [e.preset for e in warm.entries] == FLEET_PRESETS

    def test_cold_walls_recorded_hit_walls_not(self, tmp_path):
        cache_dir = tmp_path / "fleet-cache"
        store = DiscoveryCache(cache_dir)
        discover_fleet(FLEET_PRESETS, seed=0, jobs=1, cache_dir=cache_dir)
        walls = store.recorded_walls()
        assert set(walls) == set(FLEET_PRESETS)
        assert all(w > 0 for w in walls.values())
        discover_fleet(FLEET_PRESETS, seed=0, jobs=1, cache_dir=cache_dir)
        assert store.recorded_walls() == walls  # hits don't poison the LPT data


class TestScheduling:
    def test_recorded_walls_order_longest_first(self):
        names = ["a", "b", "c"]
        order = schedule_order(
            names, {"a": 1.0, "b": 9.0, "c": 3.0}, {n: 1.0 for n in names}
        )
        assert order == ["b", "c", "a"]

    def test_estimates_fill_gaps_on_recorded_scale(self):
        # "b" was never run; its estimate (scaled onto the recorded
        # wall/estimate ratio of 2x) ranks it between a and c.
        order = schedule_order(
            ["a", "b", "c"],
            {"a": 8.0, "c": 2.0},
            {"a": 4.0, "b": 3.0, "c": 1.0},
        )
        assert order == ["a", "b", "c"]

    def test_ties_keep_input_order(self):
        order = schedule_order(["x", "y"], {}, {"x": 1.0, "y": 1.0})
        assert order == ["x", "y"]

    def test_estimate_scales_with_topology(self):
        big = estimate_discovery_cost(get_preset("H100-80"))
        small = estimate_discovery_cost(get_preset("TestGPU-NV"))
        assert big > small > 0

    def test_fleet_schedule_without_store_uses_estimates(self):
        order = fleet_schedule(["TestGPU-NV", "H100-80"], None)
        assert order == ["H100-80", "TestGPU-NV"]

    def test_fleet_schedule_prefers_recorded_walls(self, tmp_path):
        store = DiscoveryCache(tmp_path)
        store.record_wall("TestGPU-NV", 50.0)
        store.record_wall("H100-80", 1.0)
        order = fleet_schedule(["H100-80", "TestGPU-NV"], store)
        assert order == ["TestGPU-NV", "H100-80"]

    def test_record_wall_smooths(self, tmp_path):
        store = DiscoveryCache(tmp_path)
        store.record_wall("p", 10.0)
        store.record_wall("p", 20.0)
        assert store.recorded_walls()["p"] == pytest.approx(15.0)


# ---------------------------------------------------------------------- #
# enumeration (the serving catalog's store API)                           #
# ---------------------------------------------------------------------- #


class TestEnumeration:
    def test_entries_yields_all_readable_payloads(self, store):
        keys = {f"{i:02d}" * 32: {"n": i} for i in range(4)}
        for key, payload in keys.items():
            store.put(key, payload)
        assert dict(store.entries()) == keys
        assert store.entry_count() == 4

    def test_entries_sorted_by_key(self, store):
        for key in ("ff" * 32, "00" * 32, "7a" * 32):
            store.put(key, key[:2])
        assert [k for k, _ in store.entries()] == sorted(
            ("ff" * 32, "00" * 32, "7a" * 32)
        )

    def test_entries_skips_corruption_and_wrong_schema(self, store, tmp_path):
        good, bad = "aa" * 32, "bb" * 32
        store.put(good, "ok")
        store.put(bad, "garbage-to-be")
        store._entry_path(bad).write_bytes(b"\x00not a pickle")
        DiscoveryCache(tmp_path / "cache", version=99).put("cc" * 32, "other-schema")
        assert dict(store.entries()) == {good: "ok"}

    def test_entries_does_not_touch_hit_miss_counters(self, store):
        store.put("aa" * 32, "x")
        list(store.entries())
        store.entry_count()
        assert (store.hits, store.misses) == (0, 0)

    def test_entries_on_missing_root(self, tmp_path):
        assert list(DiscoveryCache(tmp_path / "nope").entries()) == []
        assert DiscoveryCache(tmp_path / "nope").entry_count() == 0

    def test_enumeration_racing_prune_skips_unlinked_entries(self, store):
        # A concurrent prune() unlinking files mid-walk must behave like
        # a miss for the walker, never like an error.
        import threading

        for i in range(64):
            store.put(f"{i:02x}" * 32, "x" * 256)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                store.prune(0)  # delete everything, repeatedly
                for i in range(64):
                    store.put(f"{i:02x}" * 32, "x" * 256)

        t = threading.Thread(target=churn)
        t.start()
        try:
            for _ in range(20):
                seen = list(store.entries())
                assert all(payload == "x" * 256 for _, payload in seen)
        finally:
            stop.set()
            t.join()


# ---------------------------------------------------------------------- #
# wall sidecar: merge-on-write                                            #
# ---------------------------------------------------------------------- #


class TestRecordWallMerge:
    def test_concurrent_label_landed_mid_window_is_kept(self, store, monkeypatch):
        # Simulate the fleet-parents race: another writer lands label
        # "other" between this writer's entry into record_wall and its
        # atomic replace.  The merge-on-write re-read must pick it up
        # instead of silently reverting the sidecar.
        other_writer = DiscoveryCache(store.root)
        # This writer holds the lock while the other one writes: the other
        # waits out its (shrunk) timeout and writes lock-free.
        other_writer._STATS_LOCK_TIMEOUT_SECONDS = 0.01
        real_read = DiscoveryCache._read_stats
        injected = {"done": False}

        def read_with_interleaved_writer(self):
            if not injected["done"]:
                injected["done"] = True
                real_read_self = real_read  # the un-patched read
                monkeypatch.setattr(DiscoveryCache, "_read_stats", real_read_self)
                other_writer.record_wall("other", 7.0)
                monkeypatch.setattr(
                    DiscoveryCache, "_read_stats", read_with_interleaved_writer
                )
            return real_read(self)

        monkeypatch.setattr(
            DiscoveryCache, "_read_stats", read_with_interleaved_writer
        )
        store.record_wall("mine", 3.0)
        walls = store.recorded_walls()
        assert walls == {"mine": pytest.approx(3.0), "other": pytest.approx(7.0)}
        assert other_writer.degradations["lock_timeout"] == 1

    def test_threaded_writers_lose_no_labels(self, store):
        import threading

        labels = [f"preset-{i}" for i in range(8)]

        def hammer(label):
            for _ in range(5):
                store.record_wall(label, 2.0)

        threads = [threading.Thread(target=hammer, args=(l,)) for l in labels]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        walls = store.recorded_walls()
        assert sorted(walls) == sorted(labels)
        # every write was merged, so every label saw all 5 smoothed runs
        stats = json.loads((store.root / "stats.json").read_text())
        assert all(stats["walls"][l]["runs"] == 5 for l in labels)

    # Same-label races stay last-writer-wins (both smoothed values are
    # valid); sequential smoothing is already pinned by
    # TestScheduling.test_record_wall_smooths above.

    def test_stale_lock_is_reclaimed(self, store):
        import os
        import time

        store.root.mkdir(parents=True, exist_ok=True)
        lock = store.root / ".stats.lock"
        lock.write_text("12345")
        old = time.time() - 60.0
        os.utime(lock, (old, old))
        store.record_wall("p", 1.0)  # must not hang or drop the wall
        assert store.recorded_walls() == {"p": pytest.approx(1.0)}
        assert not lock.exists()

    def test_held_lock_times_out_and_degrades_to_lock_free_write(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        (store.root / ".stats.lock").write_text("1")
        store._STATS_LOCK_STALE_SECONDS = 3600.0  # never reclaim
        store._STATS_LOCK_TIMEOUT_SECONDS = 0.05
        assert store._acquire_stats_lock() is None
        store.record_wall("p", 1.0)  # proceeds unlocked (best-effort)
        assert store.recorded_walls() == {"p": pytest.approx(1.0)}

    def test_lock_timeout_degradation_is_counted(self, store, monkeypatch):
        # The lock-free fallback used to be invisible to operators; it
        # must now show up as a named degradation (folded into /metrics).
        monkeypatch.setattr(
            DiscoveryCache, "_acquire_stats_lock", lambda self: None
        )
        assert store.degradations["lock_timeout"] == 0
        store.record_wall("p", 1.0)
        assert store.degradations["lock_timeout"] == 1
        assert store.recorded_walls() == {"p": pytest.approx(1.0)}


# ---------------------------------------------------------------------- #
# wall sidecar: corruption degrades, then self-heals                      #
# ---------------------------------------------------------------------- #


class TestStatsSidecarCorruption:
    @pytest.mark.parametrize(
        "garbage",
        [
            b"not json at all {{{",
            b'{"walls": {"p": {"seconds": 1.0',  # truncated mid-object
            b'["a", "list", "not", "a", "dict"]',
            b"",
        ],
        ids=["non-json", "truncated", "wrong-shape", "empty"],
    )
    def test_corrupted_sidecar_degrades_to_empty_walls(self, store, garbage):
        store.root.mkdir(parents=True, exist_ok=True)
        (store.root / "stats.json").write_bytes(garbage)
        assert store.recorded_walls() == {}
        assert store.degradations["stats_corrupt"] == 1

    def test_record_wall_heals_a_corrupted_sidecar(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        (store.root / "stats.json").write_bytes(b"not json at all {{{")
        store.record_wall("p", 2.0)  # re-reads (degrades), rewrites valid
        assert store.degradations["stats_corrupt"] == 1
        # healed: the sidecar is valid JSON again and the wall landed
        stats = json.loads((store.root / "stats.json").read_text())
        assert stats["walls"]["p"]["seconds"] == pytest.approx(2.0)
        assert store.recorded_walls() == {"p": pytest.approx(2.0)}
        assert store.degradations["stats_corrupt"] == 1  # no new hits

    def test_missing_sidecar_is_not_a_degradation(self, store):
        assert store.recorded_walls() == {}
        assert store.degradations["stats_corrupt"] == 0
