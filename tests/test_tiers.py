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
from repro.cache import keys as cache_keys
from repro.cache.ring import DEFAULT_REPLICAS, HashRing, normalize_node
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import (
    DiskTier,
    MemoryTier,
    PeerTier,
    TieredCache,
    build_worker_cache,
)
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
        assert ring.is_owner(KEY)
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


class TestMemoryTier:
    def test_roundtrip_and_lru_eviction(self):
        blob = wrap(KEY, {"x": 1})
        tier = MemoryTier(max_bytes=len(blob) * 2 + 1)
        assert tier.put_blob(KEY, blob)
        got = tier.fetch(KEY)
        assert got is not None and got[0] == blob and got[1] == {"x": 1}
        assert tier.hits == 1 and tier.current_bytes == len(blob)
        # Two more entries of the same size: the budget holds two, so
        # the least recently used entry goes.
        tier.put_blob(OTHER, wrap(OTHER, {"x": 2}))
        tier.fetch(KEY)  # refresh KEY's recency: OTHER is now the LRU
        third = "ef" * 32
        tier.put_blob(third, wrap(third, {"x": 3}))
        assert len(tier) == 2
        assert tier.fetch(OTHER) is None  # the LRU victim
        assert tier.fetch(KEY) is not None and tier.fetch(third) is not None

    def test_oversize_blob_is_rejected(self):
        tier = MemoryTier(max_bytes=8)
        assert not tier.put_blob(KEY, wrap(KEY, list(range(100))))
        assert len(tier) == 0 and tier.stores == 0

    def test_wrong_address_degrades_to_miss_and_evicts(self):
        tier = MemoryTier()
        tier.put_blob(KEY, wrap(OTHER, {"x": 1}))  # blob addressed elsewhere
        assert tier.fetch(KEY) is None
        assert tier.degradations["corrupt_entry"] == 1
        assert len(tier) == 0  # self-healed: the slot is gone

    def test_injected_corruption_degrades_and_heals(self):
        tier = MemoryTier()
        tier.put_blob(KEY, wrap(KEY, {"x": 1}))
        with faults.injected(plan(FaultSpec("tier.memory", "corrupt", label=KEY))):
            assert tier.fetch(KEY) is None
            assert tier.degradations["corrupt_entry"] == 1
            assert len(tier) == 0
            # Re-landed (as promotion would) the entry serves again: the
            # spec fired on occurrence 0 only.
            tier.put_blob(KEY, wrap(KEY, {"x": 1}))
            assert tier.fetch(KEY) is not None

    def test_injected_io_error_is_a_read_error(self):
        tier = MemoryTier()
        tier.put_blob(KEY, wrap(KEY, {"x": 1}))
        with faults.injected(plan(FaultSpec("tier.memory", "io_error", label=KEY))):
            assert tier.fetch(KEY) is None
        assert tier.degradations["read_error"] == 1
        assert tier.fetch(KEY) is not None  # the entry itself is intact


# ---------------------------------------------------------------------- #
# the composed stack                                                      #
# ---------------------------------------------------------------------- #


def stack(tmp_path, **kw) -> TieredCache:
    return TieredCache(
        [MemoryTier(), DiskTier(DiscoveryCache(tmp_path / "store"))], **kw
    )


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
        cache.add_tier(peer)
        assert cache.get(KEY, peer=False) is None
        assert peer.misses == 0  # never consulted
        assert cache.get_blob(KEY, peer=False) is None
        assert peer.misses == 0

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

    def test_disk_tier_is_mandatory(self):
        with pytest.raises(ValueError, match="DiskTier"):
            TieredCache([MemoryTier()])

    def test_counters_are_a_drop_in_for_the_bare_store(self, tmp_path):
        cache = stack(tmp_path)
        cache.put(KEY, {"x": 1})
        cache.get(KEY)
        cache.get(OTHER)
        assert cache.hits == 1
        assert cache.misses == 1  # OTHER missed everywhere; the memory
        assert cache.stores == 1  # miss on KEY's read is not aggregate
        assert set(cache.degradations) >= {"read_error", "corrupt_entry"}


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
        assert tier.open_peers() == ["http://127.0.0.1:1"]
        # Blocked: the next fetch is a miss without another attempt.
        assert tier.fetch(KEY) is None
        assert tier.degradations["read_error"] == 2
        assert tier.misses == 3

    def test_ringless_tier_always_misses(self):
        tier = PeerTier(None)
        assert tier.candidates(KEY) == []
        assert tier.fetch(KEY) is None and tier.misses == 1

    def test_put_blob_is_a_no_op(self):
        tier = self._tier()
        assert not tier.put_blob(KEY, wrap(KEY, {"x": 1}))
        assert tier.stores == 0


# ---------------------------------------------------------------------- #
# the standard worker stack                                               #
# ---------------------------------------------------------------------- #


class TestBuildWorkerCache:
    def test_none_in_none_out(self):
        assert build_worker_cache(None) is None

    def test_default_stack_is_memory_over_disk(self, tmp_path):
        cache = build_worker_cache(tmp_path / "store")
        assert [t.name for t in cache.tiers] == ["memory", "disk"]
        assert cache.root == tmp_path / "store"

    def test_zero_memory_budget_disables_the_memory_tier(self, tmp_path):
        cache = build_worker_cache(tmp_path / "store", memory_bytes=0)
        assert [t.name for t in cache.tiers] == ["disk"]
        cache.put(KEY, {"x": 1})
        assert cache.get(KEY) == {"x": 1}
