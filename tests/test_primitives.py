"""Tests for the shared cache and resilience primitives.

* one entry codec (``repro.cache.codec``): today's bytes, and no code
  execution from bytes a peer sends — through the peer tier, the
  store's ``put_blob`` and the proxy path;
* one bounded LRU (``repro.cache.lru``) behind every in-process cache;
* one circuit breaker (``repro.faults.Breaker``) for keys and peers;
* one retry loop (``RetryPolicy.run``): 0-based backoff for all three
  callers — the fleet worker, the proxy fetch and the peer tier.
"""

from __future__ import annotations

import io
import pickle
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import MT4G, SimulatedGPU, faults
from repro.cache import codec
from repro.cache.keys import SCHEMA_VERSION
from repro.cache.lru import LRU
from repro.cache.ring import HashRing
from repro.cache.store import DiscoveryCache
from repro.cache.tiers import PeerTier, build_worker_cache, peer_fetch
from repro.core import report
from repro.core.benchmarks.base import Source
from repro.faults import Breaker, FaultPlan, FaultSpec, RetryPolicy
from repro.faults import retry as retry_module
from repro.serve import jobs as jobs_module
from repro.validate import validator
from repro.validate.checks import CheckResult
from repro.validate.fleet import discover_one

KEY = "ab" * 32
PRESET = "TestGPU-NV"
#: 127.0.0.1:1 refuses connections at once: a dead peer, no fixture.
DEAD_PEER = "http://127.0.0.1:1"

#: Appended to by the exploit payload below if it ever runs.
RAN: list[str] = []


def _payload_ran() -> None:
    RAN.append("ran")


class _Exploit:
    def __reduce__(self):
        return (_payload_ran, ())


class _BuildsStore:
    """Pickles as a call of the ``DiscoveryCache`` constructor."""

    def __init__(self, root: str) -> None:
        self.root = root

    def __reduce__(self):
        return (DiscoveryCache, (self.root,))


def entry_blob(key: str, payload) -> bytes:
    """A correctly addressed entry around ``payload``."""
    return pickle.dumps(
        {"schema": SCHEMA_VERSION, "key": key, "payload": payload},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def exploit_blob(key: str) -> bytes:
    """A correctly addressed entry whose payload runs code on unpickling."""
    return entry_blob(key, _Exploit())


@pytest.fixture(autouse=True)
def _clean():
    faults.deactivate()
    RAN.clear()
    yield
    faults.deactivate()


@pytest.fixture
def exploit_peer():
    """A peer answering every ``/store/{key}`` with an exploit blob."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            body = exploit_blob(self.path.split("?")[0].rsplit("/", 1)[-1])
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)


# ---------------------------------------------------------------------- #
# codec                                                                   #
# ---------------------------------------------------------------------- #


class TestCodec:
    def test_encode_is_the_wrapped_pickle_byte_for_byte(self):
        payload = {"x": [1, 2.5], "y": ("a", None)}
        assert codec.encode(KEY, payload, 7) == pickle.dumps(
            {"schema": 7, "key": KEY, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def test_misaddressed_or_stale_blob_raises(self):
        blob = codec.encode(KEY, {"x": 1}, SCHEMA_VERSION)
        with pytest.raises(ValueError):
            codec.decode("cd" * 32, blob, SCHEMA_VERSION)
        with pytest.raises(ValueError):
            codec.decode(KEY, blob, SCHEMA_VERSION + 1)

    @pytest.mark.parametrize("preset", ["TestGPU-NV", "TestGPU-AMD", "A100", "MI210"])
    def test_every_real_entry_decodes(self, tmp_path, preset):
        store = DiscoveryCache(tmp_path / "store")
        MT4G(SimulatedGPU.from_preset(preset, seed=0), cache=store).discover(
            validate=True
        )
        assert store.entry_count() == 1
        assert len(list(store.entries())) == store.entry_count()

    def test_exploit_payload_is_refused_and_never_runs(self):
        blob = exploit_blob(KEY)
        pickle.loads(blob)  # the blob is live: a plain unpickler runs it
        assert RAN == ["ran"]
        RAN.clear()
        with pytest.raises(pickle.UnpicklingError):
            codec.decode(KEY, blob, SCHEMA_VERSION)
        assert RAN == []

    def test_store_payload_is_refused_before_its_constructor_runs(
        self, tmp_path, monkeypatch
    ):
        built = []
        original = DiscoveryCache.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DiscoveryCache, "__init__", spy)
        blob = entry_blob(KEY, _BuildsStore(str(tmp_path / "planted")))
        assert isinstance(pickle.loads(blob)["payload"], DiscoveryCache)
        assert len(built) == 1  # the blob is live: a plain unpickler builds it
        built.clear()
        with pytest.raises(pickle.UnpicklingError):
            codec.decode(KEY, blob, SCHEMA_VERSION)
        assert built == []

    @pytest.mark.parametrize(
        "module, name",
        [
            ("builtins", "eval"),
            ("os", "system"),
            ("repro.cache.store", "os.system"),  # dotted lookup
            ("repro.cache.store", "Path"),  # foreign class re-exported
            ("repro.cache.codec", "decode"),  # a repro function
        ],
    )
    def test_find_class_refuses(self, module, name):
        unpickler = codec._EntryUnpickler(io.BytesIO(b""))
        with pytest.raises(pickle.UnpicklingError):
            unpickler.find_class(module, name)

    def test_find_class_admits_only_the_report_model(self):
        unpickler = codec._EntryUnpickler(io.BytesIO(b""))
        admitted = {
            report.TopologyReport, report.GeneralReport, report.ComputeReport,
            report.MemoryElementReport, report.AttributeValue, report.RuntimeReport,
            Source, validator.ValidationReport, validator.CrossCheck,
            validator.EscalationRecord, validator.Recalibration, CheckResult,
        }
        assert len(admitted) == 12
        for cls in admitted:
            assert unpickler.find_class(cls.__module__, cls.__name__) is cls
        for module, name in [
            ("repro.cache.store", "DiscoveryCache"),
            ("builtins", "frozenset"),
            ("numpy", "ndarray"),
        ]:
            with pytest.raises(pickle.UnpicklingError):
                unpickler.find_class(module, name)


class TestExploitFromPeers:
    """A peer's bytes never run code here, on any path that takes them."""

    def test_peer_tier(self, exploit_peer):
        tier = PeerTier(
            HashRing("http://self:1", [exploit_peer]),
            retry=RetryPolicy(attempts=1),
            timeout=5.0,
        )
        assert tier.fetch(KEY) is None
        assert tier.degradations["corrupt_entry"] == 1
        assert RAN == []

    def test_store_put_blob(self, tmp_path, exploit_peer):
        status, body = peer_fetch(exploit_peer, KEY, timeout=5.0)
        assert status == 200
        store = DiscoveryCache(tmp_path / "store")
        assert not store.put_blob(KEY, body)
        assert store.degradations["corrupt_entry"] == 1
        assert store.entry_count() == 0
        assert RAN == []

    def test_proxy_path(self, tmp_path, exploit_peer, monkeypatch):
        built = []

        def capturing(cache_dir, *args, **kwargs):
            cache = build_worker_cache(cache_dir, *args, **kwargs)
            built.append(cache)
            return cache

        monkeypatch.setattr(jobs_module, "build_worker_cache", capturing)
        outcome = jobs_module.fetch_report_for_job(
            exploit_peer, KEY, PRESET, 0, "PreferL1", False,
            str(tmp_path / "store"), retry=RetryPolicy(attempts=1), timeout=5.0,
        )
        assert not outcome.ok and outcome.error_kind == "transient"
        assert "failed validation" in outcome.error
        assert sum(c.degradations["corrupt_entry"] for c in built) >= 1
        assert all(c.store.entry_count() == 0 for c in built)
        assert RAN == []


# ---------------------------------------------------------------------- #
# LRU                                                                     #
# ---------------------------------------------------------------------- #


class TestLRU:
    def test_exactly_one_bound(self):
        with pytest.raises(ValueError):
            LRU()
        with pytest.raises(ValueError):
            LRU(max_entries=1, max_bytes=1)

    def test_count_bound_evicts_least_recently_used(self):
        lru = LRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "b" is now the LRU entry
        lru.put("c", 3)
        assert lru.get("b") is None
        assert sorted(lru.keys()) == ["a", "c"] and lru.evictions == 1

    def test_byte_bound_refuses_oversize_and_tracks_bytes(self):
        lru = LRU(max_bytes=10)
        assert not lru.put("big", b"x" * 11)
        assert lru.put("a", b"x" * 6) and lru.put("b", b"y" * 4)
        assert lru.bytes == 10
        lru.put("a", b"z" * 2)  # replacement re-weighs, evicts nothing
        assert lru.bytes == 6 and lru.evictions == 0
        lru.put("c", b"w" * 8)
        assert lru.bytes <= 10 and lru.evictions >= 1
        assert lru.pop("c") == b"w" * 8 and lru.bytes == sum(
            len(lru.get(k)) for k in lru.keys()
        )

    def test_concurrent_use_keeps_the_byte_account(self):
        lru = LRU(max_bytes=64)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def churn(worker: int) -> None:
                for i in range(2000):
                    key = (worker * 7 + i) % 23
                    lru.put(key, b"x" * (1 + key % 9))
                    lru.get((key + 5) % 23)
                    if i % 11 == 0:
                        lru.pop((key + 3) % 23)

            threads = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert lru.bytes == sum(len(lru.get(k)) for k in lru.keys())
        assert lru.bytes <= 64


# ---------------------------------------------------------------------- #
# breaker                                                                 #
# ---------------------------------------------------------------------- #


class TestBreaker:
    def _breaker(self, **kw):
        now = [100.0]
        return Breaker(clock=lambda: now[0], **kw), now

    def test_threshold_opens_once_and_cooldown_lapses_to_half_open(self):
        breaker, now = self._breaker(threshold=2, cooldown=60.0)
        breaker.record_failure("k", "boom")
        assert breaker.blocked_for("k") is None and breaker.open_names() == {}
        breaker.record_failure("k", "boom")
        assert breaker.open_names() == {"k": 60.0} and breaker.opens == 1
        now[0] += 61.0
        assert breaker.blocked_for("k") is None  # the half-open probe
        breaker.record_failure("k", "again")  # probe failed: re-blocked
        assert breaker.blocked_for("k") == 60.0
        assert breaker.opens == 1  # a re-block is not a new opening
        assert breaker.trip("k").error == "again"

    def test_failure_ttl_is_a_memo_not_an_open_breaker(self):
        breaker, now = self._breaker(threshold=3, cooldown=60.0, failure_ttl=15.0)
        breaker.record_failure("k")
        assert breaker.blocked_for("k") == 15.0
        assert not breaker.trip("k").open and breaker.open_names() == {}
        now[0] += 16.0
        assert breaker.blocked_for("k") is None

    def test_heal_forgets(self):
        breaker, _ = self._breaker(threshold=1, cooldown=60.0)
        breaker.record_failure("k")
        breaker.heal("k")
        assert len(breaker) == 0 and breaker.blocked_for("k") is None

    def test_concurrent_failures_are_all_counted(self):
        breaker, _ = self._breaker(threshold=1000, cooldown=60.0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def fail(_: int) -> None:
                for _ in range(500):
                    breaker.record_failure("peer")
                    breaker.open_names()

            threads = [threading.Thread(target=fail, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert breaker.trip("peer").failures == 3000
        assert breaker.opens == 1


# ---------------------------------------------------------------------- #
# retry loop                                                              #
# ---------------------------------------------------------------------- #


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff sleeps, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr(retry_module, "_sleep", recorded.append)
    return recorded


POLICY = RetryPolicy(attempts=2, base_delay=0.5, max_delay=1.0)


class TestRetryRun:
    def test_transient_failure_is_retried_after_delay_zero(self, sleeps):
        def flaky(n):
            if n == 1:
                raise TimeoutError("slow disk")
            return "ok"

        outcome = POLICY.run("k", flaky)
        assert (outcome.value, outcome.kind, outcome.attempts) == ("ok", "", 2)
        assert sleeps == [POLICY.delay("k", 0)]

    def test_permanent_failure_stops_at_once(self, sleeps):
        seen = []

        def broken(n):
            raise ValueError("a bug")

        outcome = POLICY.run("k", broken, on_failure=lambda *a: seen.append(a[3:]))
        assert outcome.kind == "permanent" and outcome.attempts == 1
        assert sleeps == [] and seen == [("permanent", 0.0)]

    def test_backoff_past_the_deadline_stops_as_deadline(self, sleeps):
        policy = RetryPolicy(attempts=5, base_delay=10.0, max_delay=10.0,
                             deadline_seconds=0.5)
        outcome = policy.run("k", lambda n: (_ for _ in ()).throw(TimeoutError()))
        assert outcome.kind == "deadline" and outcome.attempts == 1
        assert sleeps == []


class TestFirstBackoffIsDelayZero:
    """Each retry user waits ``policy.delay(key, 0)`` before its first retry."""

    def test_fleet_worker(self, sleeps):
        crash = FaultSpec("fleet.worker", "crash", label=f"{PRESET}@*", times=None)
        with faults.injected(FaultPlan([crash])):
            outcome = discover_one(PRESET, 0, "PreferL1", False, None, POLICY)
        assert outcome.attempts == 2 and outcome.error_kind == "transient"
        assert sleeps == [POLICY.delay(PRESET, 0)]

    def test_proxy_fetch(self, tmp_path, sleeps):
        outcome = jobs_module.fetch_report_for_job(
            DEAD_PEER, KEY, PRESET, 0, "PreferL1", False,
            str(tmp_path / "store"), retry=POLICY, timeout=0.5,
        )
        assert outcome.attempts == 2 and outcome.error_kind == "transient"
        assert sleeps == [POLICY.delay(KEY, 0)]

    def test_peer_tier(self, sleeps):
        tier = PeerTier(HashRing("http://self:1", [DEAD_PEER]), retry=POLICY, timeout=0.5)
        assert tier.fetch(KEY) is None
        assert tier.degradations["read_error"] == 1
        assert sleeps == [POLICY.delay(KEY, 0)]
