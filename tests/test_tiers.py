"""Tests for the tier stack (repro.cache.tiers) and ring (repro.cache.ring).

The contracts that make tiering safe:

* what moves between tiers is the wrapped entry blob — promotion and
  replication never re-serialise, so a payload read out of any tier is
  identical to what the disk tier would have returned;
* a corrupted entry in any tier degrades to a miss on that tier (counted
  in its degradations), falls through to the tier below, and the
  promotion on the way back self-heals the corrupted slot;
* every instance of the ring computes the same owner for the same key,
  and membership changes remap only a minority of the keyspace.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro import faults
from repro.cache import codec
from repro.cache import keys as cache_keys
from repro.cache.ring import DEFAULT_REPLICAS, HashRing, normalize_node
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import PeerTier, TieredCache, build_worker_cache
from repro.faults import FaultPlan, FaultSpec
from repro.faults.retry import RetryPolicy

KEY = "ab" * 32
OTHER = "cd" * 32


def wrap(key: str, payload, version: int = cache_keys.SCHEMA_VERSION) -> bytes:
    """A wrapped entry blob exactly as the disk store writes it."""
    return pickle.dumps(
        {"schema": version, "key": key, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def plan(*specs: FaultSpec, seed: int = 0) -> FaultPlan:
    return FaultPlan(list(specs), seed=seed)


def synthetic_keys(n: int) -> list[str]:
    return [hashlib.sha256(f"key-{i}".encode()).hexdigest() for i in range(n)]


# ---------------------------------------------------------------------- #
# ring                                                                    #
# ---------------------------------------------------------------------- #


class TestNormalizeNode:
    def test_canonical_form(self):
        assert normalize_node("HTTP://Host:8734/") == "http://host:8734"
        assert normalize_node("host:8734") == "http://host:8734"
        assert normalize_node("  http://a:1  ") == "http://a:1"
        # path survives (minus the trailing slash), query/fragment do not
        assert normalize_node("http://a:1/base/") == "http://a:1/base"

    def test_unusable_urls_raise(self):
        with pytest.raises(ValueError):
            normalize_node("")
        with pytest.raises(ValueError):
            normalize_node("http://")


class TestHashRing:
    def test_every_instance_routes_identically(self):
        urls = ["http://a:1", "http://b:2", "http://c:3"]
        rings = [HashRing(me, [u for u in urls if u != me]) for me in urls]
        for key in synthetic_keys(50):
            owners = {ring.owner(key) for ring in rings}
            assert len(owners) == 1

    def test_cosmetic_url_differences_do_not_split_the_ring(self):
        a = HashRing("http://a:1", ["HTTP://B:2/"])
        b = HashRing("b:2", ["http://a:1"])
        for key in synthetic_keys(20):
            assert a.owner(key) == b.owner(key)

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing("http://a:1", ["http://b:2", "http://c:3"])
        counts = {node: 0 for node in ring.nodes}
        n = 1500
        for key in synthetic_keys(n):
            counts[ring.owner(key)] += 1
        # 64 vnodes per member: no member should be starved or dominant.
        for node, count in counts.items():
            assert count / n > 0.15, (node, counts)

    def test_preference_is_distinct_and_owner_first(self):
        ring = HashRing("http://a:1", ["http://b:2", "http://c:3"])
        pref = ring.preference(KEY)
        assert len(pref) == len(set(pref)) == 3
        assert pref[0] == ring.owner(KEY)
        assert ring.preference(KEY, count=2) == pref[:2]

    def test_peer_target_excludes_self(self):
        urls = ["http://a:1", "http://b:2"]
        for me in urls:
            ring = HashRing(me, [u for u in urls if u != me])
            for key in synthetic_keys(20):
                target = ring.peer_target(key)
                assert target is not None and target != ring.self_node

    def test_single_member_ring_has_no_peer_target(self):
        ring = HashRing("http://only:1")
        assert ring.owner(KEY) == "http://only:1"
        assert ring.peer_target(KEY) is None

    def test_membership_change_remaps_a_minority(self):
        before = HashRing("http://a:1", ["http://b:2"])
        after = HashRing("http://a:1", ["http://b:2", "http://c:3"])
        keys = synthetic_keys(600)
        moved = sum(1 for k in keys if before.owner(k) != after.owner(k))
        # Growing 2 -> 3 members should move ~1/3 of the keyspace, and
        # every moved key must land on the new member.
        assert 0 < moved < len(keys) * 0.55
        for k in keys:
            if before.owner(k) != after.owner(k):
                assert after.owner(k) == "http://c:3"

    def test_bad_replicas_raise(self):
        with pytest.raises(ValueError):
            HashRing("http://a:1", replicas=0)
        assert DEFAULT_REPLICAS >= 16  # enough vnodes to balance a pair


# ---------------------------------------------------------------------- #
# memory tier                                                             #
# ---------------------------------------------------------------------- #


def stack(tmp_path, **kw) -> TieredCache:
    return TieredCache(DiscoveryCache(tmp_path / "store"), **kw)


def memory_stats(cache: TieredCache) -> dict:
    return cache.stats()["tiers"]["memory"]


class TestMemoryTier:
    def test_wrong_address_degrades_to_miss_and_evicts(self, tmp_path):
        cache = stack(tmp_path)
        cache._blobs.put(KEY, wrap(OTHER, {"x": 1}))  # blob addressed elsewhere
        assert cache.get(KEY) is None
        assert memory_stats(cache)["degradations"]["corrupt_entry"] == 1
        assert len(cache._blobs) == 0  # self-healed: the slot is gone

    def test_injected_corruption_degrades_and_heals(self, tmp_path):
        cache = stack(tmp_path)
        cache.put_blob(KEY, wrap(KEY, {"x": 1}))
        with faults.injected(plan(FaultSpec("tier.memory", "corrupt", label=KEY))):
            assert cache.get(KEY, peer=False) == {"x": 1}  # disk carried it
            assert memory_stats(cache)["degradations"]["corrupt_entry"] == 1
            # Promotion re-landed the slot; the spec fired on occurrence
            # 0 only, so memory serves again.
            assert cache.get(KEY) == {"x": 1}
            assert memory_stats(cache)["hits"] == 1

    def test_injected_io_error_is_a_read_error(self, tmp_path):
        cache = stack(tmp_path)
        cache.put_blob(KEY, wrap(KEY, {"x": 1}))
        with faults.injected(plan(FaultSpec("tier.memory", "io_error", label=KEY))):
            assert cache.get(KEY) == {"x": 1}  # disk carried it
        stats = memory_stats(cache)
        assert stats["degradations"]["read_error"] == 1 and stats["misses"] == 1
        assert len(cache._blobs) == 1  # the entry itself is intact
        assert cache.get(KEY) == {"x": 1}
        assert memory_stats(cache)["hits"] == 1


# ---------------------------------------------------------------------- #
# the composed stack                                                      #
# ---------------------------------------------------------------------- #


class TestTieredCache:
    def test_write_through_lands_everywhere_and_memory_serves(self, tmp_path):
        cache = stack(tmp_path)
        assert cache.put(KEY, {"x": 1})
        stats = cache.stats()["tiers"]
        assert stats["memory"]["stores"] == 1 and stats["disk"]["stores"] == 1
        assert cache.get(KEY) == {"x": 1}
        stats = cache.stats()["tiers"]
        assert stats["memory"]["hits"] == 1 and stats["disk"]["hits"] == 0

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        stack(tmp_path).put(KEY, {"x": 1})
        fresh = stack(tmp_path)  # new process: cold memory, warm disk
        assert fresh.get(KEY) == {"x": 1}
        stats = fresh.stats()["tiers"]
        assert stats["memory"]["misses"] == 1 and stats["disk"]["hits"] == 1
        assert fresh.get(KEY) == {"x": 1}
        assert fresh.stats()["tiers"]["memory"]["hits"] == 1  # promoted

    def test_promoted_blob_is_the_disk_blob_byte_for_byte(self, tmp_path):
        cache = stack(tmp_path)
        cache.put(KEY, {"x": 1})
        disk_blob = cache.store._read_validated(KEY)[0]
        fresh = stack(tmp_path)
        assert fresh.get_blob(KEY) == disk_blob  # served off disk
        assert fresh.get_blob(KEY) == disk_blob  # served from memory

    def test_corrupt_memory_falls_through_to_disk_and_self_heals(self, tmp_path):
        cache = stack(tmp_path)
        cache.put(KEY, {"x": 1})
        with faults.injected(plan(FaultSpec("tier.memory", "corrupt", label=KEY))):
            assert cache.get(KEY) == {"x": 1}  # disk carried the read
            stats = cache.stats()["tiers"]
            assert stats["memory"]["degradations"]["corrupt_entry"] == 1
            assert stats["disk"]["hits"] == 1
            assert cache.degradations["corrupt_entry"] == 1  # aggregate view
            # promotion re-landed the blob: memory serves again
            assert cache.get(KEY) == {"x": 1}
            assert cache.stats()["tiers"]["memory"]["hits"] == 1
        assert cache.misses == 0  # never a full miss

    def test_corrupt_disk_entry_is_a_counted_full_miss(self, tmp_path):
        cache = stack(tmp_path)
        cache.put(KEY, {"x": 1})
        blob_path = next(p for p in cache.root.rglob("*") if p.is_file())
        blob_path.write_bytes(b"rotted")
        fresh = stack(tmp_path)  # cold memory, rotted disk, no peers
        assert fresh.get(KEY) is None
        assert fresh.stats()["tiers"]["disk"]["degradations"]["corrupt_entry"] == 1
        assert fresh.misses == 1

    def test_peer_false_skips_the_peer_tier(self, tmp_path):
        cache = stack(tmp_path)
        ring = HashRing("http://self:1", ["http://127.0.0.1:1"])
        peer = PeerTier(ring, retry=RetryPolicy(attempts=1, base_delay=0.001,
                                                max_delay=0.01), timeout=0.2)
        cache.attach_peers(peer)
        assert list(cache.stats()["tiers"]) == ["memory", "disk", "peer"]
        assert cache.get(KEY, peer=False) is None
        assert peer.misses == 0  # never consulted
        assert cache.get_blob(KEY, peer=False) is None
        assert peer.misses == 0
        assert cache.get(KEY) is None  # peer=True does ask
        assert peer.misses == 1

    def test_garbage_blob_never_lands_on_disk(self, tmp_path):
        cache = stack(tmp_path)
        assert not cache.store.put_blob(KEY, b"not a wrapped entry")
        assert cache.store.degradations["corrupt_entry"] == 1
        assert cache.store.entry_count() == 0

    def test_put_blob_refuses_a_forged_blob_before_any_tier(self, tmp_path):
        cache = stack(tmp_path)
        assert not cache.put_blob(KEY, wrap(OTHER, {"x": 1}))  # misaddressed
        stats = cache.stats()["tiers"]
        assert stats["memory"]["stores"] == 0 and stats["disk"]["stores"] == 0
        assert cache.degradations["corrupt_entry"] == 1
        assert cache.put_blob(KEY, wrap(KEY, {"x": 1}))
        assert cache.stats()["tiers"]["memory"]["stores"] == 1

    def test_counters_are_a_drop_in_for_the_bare_store(self, tmp_path):
        cache = stack(tmp_path)
        cache.put(KEY, {"x": 1})
        cache.get(KEY)
        cache.get(OTHER)
        assert cache.hits == 1
        assert cache.misses == 1  # OTHER missed everywhere; the memory
        assert cache.stores == 1  # miss on KEY's read is not aggregate
        assert set(cache.degradations) >= {"read_error", "corrupt_entry"}

    def test_failed_disk_write_still_lands_in_memory(self, tmp_path):
        cache = stack(tmp_path)
        with faults.injected(plan(FaultSpec("store.put", "io_error", label=KEY))):
            assert cache.put(KEY, {"x": 1})  # landed in one local tier
        assert cache.store.degradations["write_error"] == 1
        assert cache.store.entry_count() == 0
        assert cache.get(KEY) == {"x": 1}
        assert memory_stats(cache)["hits"] == 1

    def test_each_write_and_hit_decodes_at_most_once(self, tmp_path, monkeypatch):
        decodes = []
        real_decode = codec.decode

        def counting_decode(key, blob, version):
            decodes.append(key)
            return real_decode(key, blob, version)

        monkeypatch.setattr(codec, "decode", counting_decode)
        cache = stack(tmp_path)
        assert cache.put(KEY, {"x": 1})
        assert decodes == []  # our own encoding is trusted
        assert cache.put_blob(OTHER, wrap(OTHER, {"x": 2}))
        assert decodes == [OTHER]  # a foreign blob is checked once
        decodes.clear()
        assert cache.get(KEY) == {"x": 1}
        assert decodes == [KEY]  # a memory hit decodes a fresh copy


# ---------------------------------------------------------------------- #
# peer tier (no live peer: transport failures and the breaker)            #
# ---------------------------------------------------------------------- #


class TestPeerTier:
    def _tier(self, threshold=2) -> PeerTier:
        # 127.0.0.1:1 refuses connections immediately — a dead peer
        # without needing a socket fixture.
        ring = HashRing("http://self:1", ["http://127.0.0.1:1"])
        return PeerTier(
            ring,
            retry=RetryPolicy(attempts=1, base_delay=0.001, max_delay=0.01),
            timeout=0.2,
            breaker_threshold=threshold,
            breaker_cooldown=60.0,
        )

    def test_candidates_exclude_self(self):
        tier = self._tier()
        assert tier.candidates(KEY) == ["http://127.0.0.1:1"]

    def test_dead_peer_opens_the_breaker(self):
        tier = self._tier(threshold=2)
        assert tier.fetch(KEY) is None
        assert tier.fetch(KEY) is None
        assert tier.degradations["read_error"] == 2
        assert list(tier.breaker.open_names()) == ["http://127.0.0.1:1"]
        # Blocked: the next fetch is a miss without another attempt.
        assert tier.fetch(KEY) is None
        assert tier.degradations["read_error"] == 2
        assert tier.misses == 3

    def test_ringless_tier_always_misses(self):
        tier = PeerTier(None)
        assert tier.candidates(KEY) == []
        assert tier.fetch(KEY) is None and tier.misses == 1

    def test_put_blob_is_a_no_op(self, tmp_path):
        # Peers pull: writes land locally and never contact a peer.
        tier = self._tier()
        cache = stack(tmp_path, peers=tier)
        assert cache.put_blob(KEY, wrap(KEY, {"x": 1}))
        assert cache.put(OTHER, {"x": 2})
        assert tier.stores == 0 and tier.misses == 0
        assert tier.degradations["read_error"] == 0


# ---------------------------------------------------------------------- #
# the standard worker stack                                               #
# ---------------------------------------------------------------------- #


class TestBuildWorkerCache:
    def test_none_in_none_out(self):
        assert build_worker_cache(None) is None

    def test_default_stack_is_memory_over_disk(self, tmp_path):
        cache = build_worker_cache(tmp_path / "store")
        assert list(cache.stats()["tiers"]) == ["memory", "disk"]
        assert cache.root == tmp_path / "store"
