"""Fault injection, circuit breaking, retries, journals, crash recovery.

Unit tests drive the resilience primitives with fake clocks; the
end-to-end tests arm failpoints on a live daemon and assert it answers
every request either correctly (possibly ``degraded``) or with a typed
error -- never by dying or hanging.
"""

from __future__ import annotations

import asyncio
import os
import socket
import sqlite3
import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import inline_cycle_payloads, run_load
from repro.service.resilience import (
    FAILPOINTS,
    CircuitBreaker,
    FaultInjector,
    FaultingStore,
    InjectedFault,
    RetryPolicy,
    parse_fault_spec,
)
from repro.service.protocol import MAX_DELTAS
from repro.service.resolver import MAX_INLINE_NODES
from repro.service.server import ServerThread, ServiceConfig, VerdictService, _DynamicSession
from repro.sweep.store import SQLiteVerdictStore, WouldBlock, open_store

SPEC = {"arbiter": "2-colorable", "family": "cycle", "n": 6, "scheme": "sequential"}


def _query(client, n=6, **kwargs):
    return client.query_spec(
        check=False, arbiter="3-colorable", family="cycle", n=n, scheme="sequential"
    )


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Fault spec parsing + injector
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_entries(self):
        parsed = parse_fault_spec(
            "store-get-error, store-put-error=0.5:times=3,"
            "slow-response=1.0:latency=0.2:for=5, conn-drop=off"
        )
        assert parsed["store-get-error"] == {}
        assert parsed["store-put-error"] == {"rate": 0.5, "times": 3}
        assert parsed["slow-response"] == {"rate": 1.0, "latency": 0.2, "for_seconds": 5.0}
        assert parsed["conn-drop"] == {"off": True}

    @pytest.mark.parametrize(
        "bad",
        [
            "no-such-failpoint",
            "store-get-error=abc",
            "store-get-error:latency",
            "store-get-error:budget=3",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestFaultInjector:
    def test_unarmed_is_quiet(self):
        faults = FaultInjector()
        for name in FAILPOINTS:
            assert not faults.should_fire(name)
            assert faults.delay(name) == 0.0
            faults.check(name)  # must not raise

    def test_check_raises_injected_fault(self):
        faults = FaultInjector()
        faults.configure("store-get-error")
        with pytest.raises(InjectedFault) as excinfo:
            faults.check("store-get-error")
        assert excinfo.value.failpoint == "store-get-error"
        assert isinstance(excinfo.value, OSError)  # real-error handling applies

    def test_times_budget(self):
        faults = FaultInjector()
        faults.configure("conn-drop", times=2)
        assert faults.should_fire("conn-drop")
        assert faults.should_fire("conn-drop")
        assert not faults.should_fire("conn-drop")
        assert faults.fired["conn-drop"] == 2
        assert "conn-drop" not in faults.active()

    def test_for_window_with_fake_clock(self):
        clock = FakeClock()
        faults = FaultInjector(clock=clock)
        faults.configure("store-get-error", for_seconds=5.0)
        assert faults.should_fire("store-get-error")
        clock.advance(5.1)
        assert not faults.should_fire("store-get-error")
        assert "store-get-error" not in faults.active()

    def test_rate_is_deterministic_under_seed(self):
        def fires(seed):
            faults = FaultInjector(seed=seed)
            faults.configure("store-get-error", rate=0.5)
            return [faults.should_fire("store-get-error") for _ in range(40)]

        pattern = fires(7)
        assert pattern == fires(7)  # same seed, same chaos
        assert any(pattern) and not all(pattern)  # rate actually bites

    def test_armed_only_looks(self):
        clock = FakeClock()
        faults = FaultInjector(clock=clock)
        assert not faults.armed("store-get-latency")
        faults.configure("store-get-latency", rate=0.5, latency=0.2, times=1, for_seconds=5.0)
        assert all(faults.armed("store-get-latency") for _ in range(5))  # whatever the rate
        assert faults.fired == {}
        assert faults.active()["store-get-latency"]["times_left"] == 1  # budget unspent
        clock.advance(5.1)
        assert not faults.armed("store-get-latency")

    def test_off_and_clear(self):
        faults = FaultInjector()
        faults.configure_spec("store-get-error,slow-response:latency=0.1")
        faults.configure_spec("store-get-error=off")
        assert sorted(faults.active()) == ["slow-response"]
        faults.clear()
        assert faults.active() == {}


class TestFaultingStore:
    def test_faults_bite_and_passthrough(self):
        inner = SQLiteVerdictStore(":memory:")
        inner.put("k", True, name="x")
        faults = FaultInjector()
        store = FaultingStore(inner, faults, CircuitBreaker())
        assert store.get("k") is True
        faults.configure("store-get-error", times=1)
        with pytest.raises(InjectedFault):
            store.get("k")
        assert store.get("k") is True  # budget spent
        faults.configure("store-put-error", times=1)
        with pytest.raises(InjectedFault):
            store.put("k2", False)
        store.put("k2", False)
        assert len(store) == 2

    def test_journal_reads_are_never_faulted(self):
        """Recovery must read what a healthy daemon journaled earlier."""
        inner = SQLiteVerdictStore(":memory:")
        inner.journal_append("s", 0, {"kind": "open", "address": {}})
        faults = FaultInjector()
        faults.configure("store-get-error")  # armed, but reads pass
        store = FaultingStore(inner, faults, CircuitBreaker())
        assert store.journal_sessions() == ["s"]
        assert store.journal_entries("s")[0][0] == 0
        faults.configure("store-put-error")
        with pytest.raises(InjectedFault):
            store.journal_append("s", 1, {"kind": "deltas", "deltas": []})

    def test_latency_failpoint_sleeps(self):
        store = FaultingStore(
            SQLiteVerdictStore(":memory:"), FaultInjector(), CircuitBreaker()
        )
        store.faults.configure("store-get-latency", latency=0.05, times=1)
        started = time.perf_counter()
        store.get("missing")
        assert time.perf_counter() - started >= 0.04

    def test_nowait_calls_hop_on_armed_latency_and_count_by_path(self):
        inner = SQLiteVerdictStore(":memory:")
        inner.put("k", True)
        store = FaultingStore(inner, FaultInjector(), CircuitBreaker())
        assert store.get_nowait("k") is True
        assert store.journal_append_nowait("s", 0, {"kind": "open", "address": {}}) is False
        store.faults.configure("store-get-latency", latency=0.01, times=1)
        with pytest.raises(WouldBlock):
            store.get_nowait("k")  # it would sleep: the caller hops instead
        assert "store-get-latency" in store.faults.active()  # not spent by the look
        assert store.get("k") is True  # the blocking call sleeps and spends it
        assert store.faults.active() == {}
        assert store.calls() == {
            "get": {"loop": 1, "worker": 1},
            "journal_append": {"loop": 1, "worker": 0},
        }
        assert (
            'repro_store_calls_total{op="get",path="loop"} 1'
            in store.registry.render_prometheus()
        )

    def test_probe_that_would_block_is_handed_back(self):
        inner = SQLiteVerdictStore(":memory:")
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=1.0, clock=clock)
        store = FaultingStore(inner, FaultInjector(), breaker)
        breaker.record_failure()
        clock.advance(1.1)
        taken, done = threading.Event(), threading.Event()

        def hold():  # another thread owns the in-memory store's connection
            with inner._lock:
                taken.set()
                done.wait(5)

        holder = threading.Thread(target=hold)
        holder.start()
        taken.wait(5)
        try:
            with pytest.raises(WouldBlock):
                store.get_nowait("k")  # took the half-open probe, then would wait
        finally:
            done.set()
            holder.join()
        assert breaker.snapshot()["probes"] == 0  # handed back, not leaked
        assert store.get("k") is None  # the next caller probes...
        assert breaker.state == "closed"  # ...and re-closes the breaker


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()  # streak broken
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.admit() is None

    def test_half_open_single_probe_recloses(self):
        clock = FakeClock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_seconds=5.0,
            clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        breaker.record_failure()
        assert breaker.state == "open" and breaker.admit() is None
        clock.advance(5.1)
        assert breaker.admit() is True  # the probe
        assert breaker.state == "half-open"
        assert breaker.admit() is None  # second caller is NOT admitted
        breaker.record_success()
        assert breaker.state == "closed" and breaker.admit() is False  # no probe
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_released_probe_goes_to_the_next_caller(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=1.0, clock=clock)
        assert breaker.admit() is False  # closed: admitted, no probe
        breaker.record_failure()
        assert breaker.admit() is None  # open: shed
        clock.advance(1.1)
        assert breaker.admit() is True  # the half-open probe
        assert breaker.admit() is None
        breaker.release()
        assert breaker.snapshot()["probes"] == 0
        assert breaker.admit() is True  # the next caller probes instead
        breaker.record_success()
        assert breaker.state == "closed" and breaker.snapshot()["probes"] == 1

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.admit() is True  # the probe
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.admit() is None  # timer restarted
        assert breaker.opened == 2
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open" and snapshot["probes"] == 1


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def _policy(self, **kwargs):
        clock = FakeClock()
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            clock.advance(seconds)

        policy = RetryPolicy(clock=clock, sleep=sleep, jitter=0.0, **kwargs)
        return policy, clock, slept

    def test_backoff_schedule(self):
        policy, _, _ = self._policy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert [policy.backoff(a) for a in range(4)] == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_stretches_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        for _ in range(50):
            assert 1.0 <= policy.backoff(0) <= 1.5

    def test_attempt_budget(self):
        policy, clock, _ = self._policy(max_attempts=3)
        started = clock()
        assert policy.may_retry(0, started)
        assert policy.may_retry(1, started)
        assert not policy.may_retry(2, started)  # attempts exhausted

    def test_overall_deadline(self):
        policy, clock, slept = self._policy(
            max_attempts=100, base_delay=1.0, multiplier=1.0, deadline=2.5
        )
        started = clock()
        attempts = 0
        while policy.may_retry(attempts, started):
            policy.sleep_for(attempts, started)
            attempts += 1
        assert attempts == 3  # 1.0 + 1.0 + clamped 0.5, then out of budget
        assert sum(slept) == pytest.approx(2.5)

    def test_retryable_codes(self):
        policy, _, _ = self._policy()
        assert policy.retryable("overloaded")
        assert policy.retryable("transport")
        assert policy.retryable("timeout")
        assert not policy.retryable("bad-request")
        assert not policy.retryable("draining")


# ----------------------------------------------------------------------
# Session journal, in memory and on disk
# ----------------------------------------------------------------------
class TestJournalBackends:
    def _roundtrip(self, store):
        entries = [
            (0, {"kind": "open", "address": {"spec": dict(SPEC)}}),
            (1, {"kind": "deltas", "deltas": [{"kind": "edge-insert", "u": 0, "v": 2}],
                 "applied": 1, "dirty": 3, "token": "t1"}),
        ]
        for seq, entry in entries:
            store.journal_append("wb", seq, entry)
        store.journal_append("other", 0, {"kind": "open", "address": {}})
        assert store.journal_sessions() == ["other", "wb"]
        assert store.journal_entries("wb") == entries
        store.journal_clear("wb")
        assert store.journal_sessions() == ["other"]
        assert store.journal_entries("wb") == []

    def test_memory(self):
        self._roundtrip(SQLiteVerdictStore(":memory:"))

    def test_sqlite(self, tmp_path):
        store = SQLiteVerdictStore(str(tmp_path / "v.sqlite"))
        try:
            self._roundtrip(store)
        finally:
            store.close()

    def test_sqlite_journal_survives_reopen(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        store = SQLiteVerdictStore(path)
        store.journal_append("wb", 0, {"kind": "open", "address": {}})
        store.close()
        reopened = SQLiteVerdictStore(path)
        try:
            assert reopened.journal_sessions() == ["wb"]
        finally:
            reopened.close()

    def test_jsonl(self, tmp_path):
        # A bare path with the JSON-lines suffix opens SQLite too.
        with open_store(str(tmp_path / "v.jsonl")) as store:
            self._roundtrip(store)

    def test_jsonl_journal_and_tombstone_survive_reopen(self, tmp_path):
        path = str(tmp_path / "v.jsonl")
        with open_store(path) as store:
            store.journal_append("wb", 0, {"kind": "open", "address": {}})
            store.journal_append("gone", 0, {"kind": "open", "address": {}})
            store.journal_clear("gone")
        with open_store(path) as reopened:
            assert reopened.journal_sessions() == ["wb"]


# ----------------------------------------------------------------------
# Failpoints end to end (live daemon)
# ----------------------------------------------------------------------
class TestFailpointsEndToEnd:
    def test_store_error_degrades_instead_of_failing(self):
        store = SQLiteVerdictStore(":memory:")
        with ServerThread(store=store) as server:
            with ServiceClient(server.address) as client:
                healthy = _query(client, n=5)
                assert healthy["ok"] and healthy["degraded"] is False
                client.set_faults("store-get-error,store-put-error")
                faulted = _query(client, n=6)
                # Still a correct verdict -- just without the store tier.
                assert faulted["ok"] is True
                assert faulted["degraded"] is True
                assert faulted["source"] in ("compute", "coalesced")
                client.clear_faults()
                stats = client.stats()
                assert stats["tiers"]["store"]["errors"] >= 1
                assert stats["resilience"]["degraded"] >= 1
                fired = stats["resilience"]["faults"]["fired"]
                assert fired.get("store-get-error", 0) >= 1

    def test_compute_error_is_typed_internal_not_a_dead_daemon(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("compute-error=1.0:times=1")
                response = _query(client, n=7)
                assert response["ok"] is False
                assert response["error"]["code"] == "internal"
                assert client.ping()  # the daemon survived
                again = _query(client, n=7)
                assert again["ok"] is True

    def test_conn_drop_mid_request_keeps_daemon_serving(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("conn-drop=1.0:times=1")
                with pytest.raises(ServiceError) as excinfo:
                    client.query_spec(**SPEC)
                assert excinfo.value.code == "transport"
                # The same client transparently reconnects...
                assert client.ping()
            # ...and a brand-new connection works too.
            with ServiceClient(server.address) as fresh:
                assert fresh.ping()
                assert _query(fresh, n=8)["ok"]

    def test_slow_response_hits_request_deadline(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("slow-response=1.0:latency=0.5")
                response = client.request(
                    {"v": 1, "op": "query", "spec": dict(SPEC), "deadline_ms": 50}
                )
                assert response["ok"] is False
                assert response["error"]["code"] == "deadline-exceeded"
                client.clear_faults()
                stats = client.stats()
                assert stats["resilience"]["deadline_exceeded"] >= 1
                assert _query(client)["ok"]  # still serving

    def test_default_deadline_from_config(self):
        config = ServiceConfig(default_deadline_seconds=0.05)
        with ServerThread(store=None, config=config) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("slow-response=1.0:latency=0.5:times=1")
                response = _query(client)
                assert response["error"]["code"] == "deadline-exceeded"

    def test_admin_op_rejects_bad_specs(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.set_faults("no-such-failpoint")
                assert excinfo.value.code == "bad-request"
                with pytest.raises(ServiceError) as excinfo:
                    client.admin("reboot")
                assert excinfo.value.code == "bad-request"
                assert client.faults()["active"] == {}


# ----------------------------------------------------------------------
# Breaker end to end
# ----------------------------------------------------------------------
class TestBreakerEndToEnd:
    def test_breaker_opens_sheds_and_recloses(self):
        config = ServiceConfig(breaker_threshold=2, breaker_reset_seconds=0.2)
        with ServerThread(store=SQLiteVerdictStore(":memory:"), config=config) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("store-get-error,store-put-error")
                for n in (4, 5, 6, 7):
                    response = _query(client, n=n)
                    assert response["ok"] is True, response
                    assert response["degraded"] is True
                stats = client.stats()
                breaker = stats["resilience"]["breaker"]
                assert breaker["state"] == "open"
                assert breaker["opened"] >= 1
                assert stats["tiers"]["store"]["put_failures_by_error"].get(
                    "InjectedFault", 0
                ) >= 1
                # Heal the store and wait out the reset window: the next
                # query is the half-open probe and re-closes the breaker.
                client.clear_faults()
                time.sleep(0.3)
                probe = _query(client, n=8)
                assert probe["ok"] is True and probe["degraded"] is False
                assert client.stats()["resilience"]["breaker"]["state"] == "closed"

    def test_open_breaker_skips_store_reads(self):
        config = ServiceConfig(breaker_threshold=1, breaker_reset_seconds=60.0)
        with ServerThread(store=SQLiteVerdictStore(":memory:"), config=config) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("store-get-error=1.0:times=1,store-put-error")
                _query(client, n=4)  # trips the breaker
                client.clear_faults()
                before = client.stats()["tiers"]["store"]
                response = _query(client, n=5)
                assert response["ok"] and response["degraded"] is True
                after = client.stats()["tiers"]["store"]
                # The read was skipped, not attempted-and-failed.
                assert after["skipped"] > before["skipped"]
                assert after["errors"] == before["errors"]

    def test_cancelled_probe_does_not_wedge_the_breaker(self):
        """A half-open probe whose query hits its deadline still reports."""
        config = ServiceConfig(breaker_threshold=1, breaker_reset_seconds=0.2)
        with ServerThread(store=SQLiteVerdictStore(":memory:"), config=config) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("store-get-error=1.0:times=1")
                _query(client, n=4)  # trips the breaker
                time.sleep(0.3)  # past the reset: the next store read probes
                client.set_faults("store-get-latency=1.0:latency=0.5:times=1")
                spec = {"arbiter": "3-colorable", "family": "cycle", "n": 5,
                        "scheme": "sequential"}
                response = client.request(
                    {"v": 1, "op": "query", "spec": spec, "deadline_ms": 50}
                )
                assert response["error"]["code"] == "deadline-exceeded"
                client.clear_faults()
                time.sleep(1.0)  # the abandoned probe's read finishes
                after = _query(client, n=6)
                assert after["ok"] is True and after["degraded"] is False
                assert client.stats()["resilience"]["breaker"]["state"] == "closed"


# ----------------------------------------------------------------------
# The event loop never waits on the store
# ----------------------------------------------------------------------
CHORD = {"kind": "edge-insert", "u": 0, "v": 2}


def _store_with_spec(tmp_path):
    """A store file that already holds SPEC's verdict: its path and answer."""
    path = str(tmp_path / "v.sqlite")
    with ServerThread(store="sqlite://" + path) as server:
        with ServiceClient(server.address) as client:
            answer = client.query_spec(**SPEC)
    return path, answer


def _calls(client, op):
    calls = client.stats()["tiers"]["store"]["calls"]
    return calls.get(op, {"loop": 0, "worker": 0})


def _write_lock(path):
    """Another connection holding the file's write lock (released by
    ``execute("COMMIT")``, from any thread)."""
    holder = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    holder.execute("BEGIN IMMEDIATE")
    return holder


def _recording_apply(monkeypatch, gate=None):
    """The threads every session apply runs on (each waits for *gate*)."""
    threads = []
    apply = _DynamicSession.apply

    def recording(self, deltas, token):
        threads.append(threading.current_thread().name)
        if gate is not None:
            gate.wait(10)
        return apply(self, deltas, token)

    monkeypatch.setattr(_DynamicSession, "apply", recording)
    return threads


class TestLoopNeverWaits:
    def test_idle_daemon_reads_and_journals_on_the_loop(self, tmp_path):
        path, answer = _store_with_spec(tmp_path)
        with ServerThread(store="sqlite://" + path) as server:
            with ServiceClient(server.address) as client:
                hit = client.query_spec(**SPEC)
                assert (hit["source"], hit["verdict"]) == ("store", answer["verdict"])
                client.mutate("wb", spec=SPEC)
                assert client.mutate("wb", deltas=[CHORD])["journaled"] is True
                assert _calls(client, "get") == {"loop": 1, "worker": 0}
                # The open, its empty batch, the chord.
                assert _calls(client, "journal_append") == {"loop": 3, "worker": 0}

    @pytest.mark.parametrize(
        "n, size, on_loop",
        [(32, 1, True), (33, 1, False), (6, 2, False)],
        ids=["one-delta-32-cycle", "one-delta-33-cycle", "two-deltas-6-cycle"],
    )
    def test_only_a_small_mutate_applies_on_the_loop(
        self, tmp_path, monkeypatch, n, size, on_loop
    ):
        # A 32-cycle has 64 nodes plus edges, a 33-cycle 66.
        assert VerdictService.LOOP_MUTATE_SIZE == 64
        threads = _recording_apply(monkeypatch)
        labels = [{"kind": "set-label", "node": i, "label": "1"} for i in range(size)]
        with ServerThread(store="sqlite://" + str(tmp_path / "v.sqlite")) as server:
            with ServiceClient(server.address) as client:
                client.mutate("s", spec=dict(SPEC, n=n))
                before = _calls(client, "journal_append")
                assert client.mutate("s", deltas=labels)["journaled"] is True
                after = _calls(client, "journal_append")
        assert (threads[-1] == "verdict-server") is on_loop
        path, other = ("loop", "worker") if on_loop else ("worker", "loop")
        assert (after[path] - before[path], after[other] - before[other]) == (1, 0)

    def test_the_largest_mutate_applies_off_the_loop(self, tmp_path, monkeypatch):
        gate = threading.Event()
        threads = _recording_apply(monkeypatch, gate)
        spec = dict(SPEC, n=MAX_INLINE_NODES)
        chords = [
            {"kind": kind, "u": u, "v": u + 2}
            for u in range(0, MAX_INLINE_NODES - 2, 2)
            for kind in ("edge-insert", "edge-delete")
        ]
        deltas = (chords * MAX_DELTAS)[:MAX_DELTAS]
        result = {}
        with ServerThread(store="sqlite://" + str(tmp_path / "v.sqlite")) as server:
            with ServiceClient(server.address) as client:
                gate.set()
                client.mutate("big", spec=spec)
                gate.clear()

                def mutate():
                    with ServiceClient(server.address) as other:
                        result["answer"] = other.mutate("big", deltas=deltas)

                waiting = threading.Thread(target=mutate)
                try:
                    waiting.start()
                    time.sleep(0.3)
                    started = time.perf_counter()
                    assert client.ping()
                    assert time.perf_counter() - started < 0.1
                    assert "answer" not in result  # applying, off the loop
                finally:
                    gate.set()
                    waiting.join(timeout=30)
                assert result["answer"]["applied"] == MAX_DELTAS
                assert result["answer"]["journaled"] is True
        assert "verdict-server" not in threads

    def test_a_read_behind_busy_connections_hops_and_the_loop_keeps_serving(
        self, tmp_path
    ):
        path, answer = _store_with_spec(tmp_path)
        store = SQLiteVerdictStore(path)
        # Another thread holds both read connections, as a checkpoint holds
        # the loop's and a long bulk read the workers'.  A WAL reader is
        # never locked out by SQLite itself once it has read: only a
        # connection that takes the file exclusively before then can.
        taken, release = threading.Event(), threading.Event()

        def hold():
            with store._nowait_lock, store._read_lock:
                taken.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        result = {}

        def query():
            with ServiceClient(server.address) as client:
                result["answer"] = client.query_spec(**SPEC)

        waiting = threading.Thread(target=query)
        try:
            with ServerThread(store=store) as server:
                holder.start()
                taken.wait(5)
                waiting.start()
                time.sleep(0.3)
                with ServiceClient(server.address) as client:
                    started = time.perf_counter()
                    assert client.ping()
                    assert time.perf_counter() - started < 0.1
                    assert "answer" not in result  # still waiting, off the loop
                    release.set()
                    waiting.join(timeout=10)
                    hit = result["answer"]
                    assert (hit["source"], hit["verdict"]) == ("store", answer["verdict"])
                    assert _calls(client, "get") == {"loop": 0, "worker": 1}
        finally:
            release.set()
            holder.join(timeout=10)
            waiting.join(timeout=10)
            store.close()

    @pytest.mark.parametrize(
        "locks", [("_lock",), ("_lock", "_nowait_lock")], ids=["writer", "checkpoint"]
    )
    def test_stats_never_waits_for_the_writer(self, tmp_path, locks):
        path, _ = _store_with_spec(tmp_path)
        store = SQLiteVerdictStore(path)
        taken = threading.Event()

        def hold():
            # A writer busy for 1 s (a checkpoint also holds the loop's
            # connection), which then commits a second verdict.
            held = [getattr(store, name) for name in locks]
            for lock in held:
                lock.acquire()
            try:
                taken.set()
                time.sleep(1.0)
                store.put("another-key", True)
            finally:
                for lock in reversed(held):
                    lock.release()

        holder = threading.Thread(target=hold)
        result = {}

        def stats():
            with ServiceClient(server.address) as other:
                started = time.perf_counter()
                result["size"] = other.stats()["tiers"]["store"]["size"]
                result["seconds"] = time.perf_counter() - started

        asking = threading.Thread(target=stats)
        try:
            with ServerThread(store=store) as server:
                with ServiceClient(server.address) as client:
                    assert client.stats()["tiers"]["store"]["size"] == 1
                    holder.start()
                    assert taken.wait(5)
                    asking.start()
                    time.sleep(0.05)
                    started = time.perf_counter()
                    assert client.ping()
                    assert time.perf_counter() - started < 0.1
                    asking.join(timeout=10)
                    assert result["seconds"] < 0.1
                    assert result["size"] == 1  # exact, or the last count read
                    holder.join(timeout=10)
                    assert not holder.is_alive()
                    assert client.stats()["tiers"]["store"]["size"] == 2
        finally:
            holder.join(timeout=10)
            asking.join(timeout=10)
            store.close()

    def test_a_mutate_behind_a_write_lock_journals_after_it(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        with ServerThread(store="sqlite://" + path) as server:
            with ServiceClient(server.address) as client:
                client.mutate("wb", spec=SPEC)
                holder = _write_lock(path)
                result = {}

                def mutate():
                    with ServiceClient(server.address) as other:
                        result["answer"] = other.mutate("wb", deltas=[CHORD])

                waiting = threading.Thread(target=mutate)
                try:
                    waiting.start()
                    time.sleep(0.3)
                    started = time.perf_counter()
                    assert client.ping()
                    assert time.perf_counter() - started < 0.1
                    assert "answer" not in result  # its append waits off the loop
                finally:
                    holder.execute("COMMIT")
                    holder.close()
                    waiting.join(timeout=10)
                assert result["answer"]["journaled"] is True
                assert _calls(client, "journal_append") == {"loop": 2, "worker": 1}

    def test_a_deadline_does_not_unlock_a_session_mid_append(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        with ServerThread(store="sqlite://" + path) as server:
            with ServiceClient(server.address) as client:
                client.mutate("wb", spec=SPEC)
                holder = _write_lock(path)
                threading.Timer(0.2, holder.execute, args=("COMMIT",)).start()
                late = client.mutate(
                    "wb", deltas=[CHORD], token="t-1", deadline_ms=20, check=False
                )
                assert late["error"]["code"] == "deadline-exceeded"
                # The abandoned append still holds the session: this batch
                # applies and journals after it, never beside it.
                label = {"kind": "set-label", "node": 1, "label": "1"}
                after = client.mutate("wb", deltas=[label], token="t-2")
                assert after["journaled"] is True
                assert client.mutate("wb", deltas=[CHORD], token="t-1")["deduped"] is True
                entries = server.service.store.journal_entries("wb")
                assert [seq for seq, _ in entries] == [0, 1, 2, 3]
                assert [entry.get("token") for _, entry in entries[2:]] == ["t-1", "t-2"]
                before = client.query_session("wb")
                assert before["verdict"] is False  # the chord made a triangle
        holder.close()
        with ServerThread(store="sqlite://" + path) as fresh:
            assert fresh.service.sessions_recovered == 1
            with ServiceClient(fresh.address) as client:
                recovered = client.query_session("wb")
                assert (recovered["verdict"], recovered["key"]) == (
                    before["verdict"], before["key"],
                )

    def test_a_half_open_probe_that_would_block_recloses_on_a_worker(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        config = ServiceConfig(breaker_threshold=1, breaker_reset_seconds=0.2)
        with ServerThread(store="sqlite://" + path, config=config) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("store-put-error=1.0:times=1")
                tripped = client.mutate("tripped", spec=SPEC)
                assert tripped["journaled"] is False
                assert client.stats()["resilience"]["breaker"]["state"] == "open"
                time.sleep(0.3)  # past the reset: the next store call probes
                holder = _write_lock(path)
                threading.Timer(0.2, holder.execute, args=("COMMIT",)).start()
                # The loop takes the probe, would wait for the write lock,
                # hands the probe back and hops; the worker probes again.
                probed = client.mutate("probe", spec=SPEC)
                holder.close()
                assert probed["journaled"] is True
                breaker = client.stats()["resilience"]["breaker"]
                assert breaker["state"] == "closed" and breaker["probes"] == 1
                assert _calls(client, "journal_append")["worker"] >= 1

    def test_loop_journal_commits_checkpoint_the_wal_off_the_loop(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "v.sqlite")
        store = SQLiteVerdictStore(path)
        store.CHECKPOINT_EVERY = 10
        threads = []
        checkpoint = SQLiteVerdictStore.checkpoint

        def recording(self):
            threads.append(threading.current_thread().name)
            checkpoint(self)

        monkeypatch.setattr(SQLiteVerdictStore, "checkpoint", recording)
        mutates = 300
        try:
            with ServerThread(store=store) as server:
                with ServiceClient(server.address) as client:
                    client.mutate("wb", spec=SPEC)
                    for step in range(mutates):
                        kind = "edge-insert" if step % 2 == 0 else "edge-delete"
                        delta = {"kind": kind, "u": 0, "v": 2}
                        assert client.mutate("wb", deltas=[delta])["journaled"] is True
                    appends = _calls(client, "journal_append")
            wal_bytes = os.path.getsize(path + "-wal")
        finally:
            store.close()
        # A loop commit that meets a running checkpoint hops instead.
        assert appends["loop"] + appends["worker"] == mutates + 2
        assert appends["loop"] > appends["worker"]
        assert len(threads) == appends["loop"] // 10
        assert "verdict-server" not in threads  # never on the loop's thread
        # Each commit adds at least one 4 KiB page to the log; checkpoints
        # let it restart instead of growing with every commit.
        assert wal_bytes < mutates * 4096 / 2, wal_bytes


# ----------------------------------------------------------------------
# Client-side: timeout typing, idempotent close, retries
# ----------------------------------------------------------------------
class _SilentServer:
    """Accepts connections and never replies (for timeout tests)."""

    def __init__(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(4)
        self.port = self._sock.getsockname()[1]
        self._accepted = []
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self):
        try:
            while True:
                conn, _ = self._sock.accept()
                self._accepted.append(conn)  # hold it open, never answer
        except OSError:
            pass

    def close(self):
        # Closing alone does not wake a thread blocked in accept() on
        # Linux; shutting the socket down does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(timeout=5)
        for conn in self._accepted:
            try:
                conn.close()
            except OSError:
                pass
        assert not self._thread.is_alive()


class TestClientResilience:
    def test_socket_timeout_maps_to_typed_timeout(self):
        silent = _SilentServer()
        try:
            client = ServiceClient(("tcp", "127.0.0.1", silent.port), timeout=0.1)
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
            assert excinfo.value.code == "timeout"
            client.close()
        finally:
            silent.close()

    def test_close_is_idempotent_after_broken_connection(self):
        silent = _SilentServer()
        try:
            client = ServiceClient(("tcp", "127.0.0.1", silent.port), timeout=0.1)
            with pytest.raises(ServiceError):
                client.ping()
            client.close()
            client.close()  # second close after teardown must not raise
            with pytest.raises(ServiceError) as excinfo:
                client.ping()  # using a closed client is a typed error
            assert excinfo.value.code == "transport"
        finally:
            silent.close()

    def test_retry_policy_rides_out_conn_drops(self):
        with ServerThread(store=None) as server:
            policy = RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0)
            with ServiceClient(server.address, retry=policy) as client:
                client.set_faults("conn-drop=1.0:times=2")
                response = _query(client, n=9)
                assert response["ok"] is True
                assert client.retries >= 1

    def test_mutate_retry_needs_token_and_dedupes(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                client.mutate("wb", spec=SPEC)
                first = client.mutate(
                    "wb",
                    deltas=[{"kind": "edge-insert", "u": 0, "v": 2}],
                    token="tok-1",
                )
                assert first["applied"] == 1 and first["deduped"] is False
                key_after = client.query_session("wb")["key"]
                # The "lost reply" retry: same token, applied exactly once.
                retry = client.mutate(
                    "wb",
                    deltas=[{"kind": "edge-insert", "u": 0, "v": 2}],
                    token="tok-1",
                )
                assert retry["deduped"] is True
                assert retry["applied"] == first["applied"]
                assert client.query_session("wb")["key"] == key_after

    def test_retrying_client_autogenerates_mutate_tokens(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
            with ServiceClient(server.address, retry=policy) as client:
                client.mutate("wb", spec=SPEC)
                client.set_faults("conn-drop=1.0:times=1")
                response = client.mutate(
                    "wb", deltas=[{"kind": "edge-insert", "u": 0, "v": 2}]
                )
                # The drop ate the first reply; the retry carried the same
                # auto-token, so the batch applied exactly once.
                assert response["deduped"] is True
                assert client.retries >= 1
                info = client.stats()["dynamic"]["by_session"]["wb"]
                assert info["mutate_batches"] == 2  # open + one batch


# ----------------------------------------------------------------------
# Crash recovery: the journal replays to identical verdicts
# ----------------------------------------------------------------------
class TestSessionRecovery:
    def _mutate_and_snapshot(self, server):
        with ServiceClient(server.address) as client:
            client.mutate("wb", spec=SPEC)
            client.mutate(
                "wb",
                deltas=[{"kind": "edge-insert", "u": 0, "v": 2}],
                token="tok-1",
            )
            client.mutate("wb", deltas=[{"kind": "set-label", "node": 1, "label": "1"}])
            response = client.query_session("wb")
            return response["verdict"], response["key"]

    def test_kill_and_restart_replays_to_identical_verdicts(self, tmp_path):
        """The acceptance test: journaled sessions survive a daemon death.

        The first daemon is never closed cleanly -- journal writes happen
        synchronously at mutate time, so an abandoned service models a
        ``kill -9`` exactly (nothing is flushed on the way down).
        """
        store_url = "sqlite://" + str(tmp_path / "v.sqlite")
        first = ServerThread(store=store_url)
        first.start()
        try:
            verdict, key = self._mutate_and_snapshot(first)
        finally:
            # Stop the listener thread but never service.close(): the
            # store sees exactly what a crashed daemon left behind.
            first.service._closed = True  # suppress the clean-close flush
            first.stop()
        with ServerThread(store=store_url) as second:
            assert second.service.sessions_recovered == 1
            with ServiceClient(second.address) as client:
                recovered = client.query_session("wb")
                assert recovered["verdict"] == verdict
                assert recovered["key"] == key
                info = client.stats()["dynamic"]["by_session"]["wb"]
                assert info["recovered"] is True
                # Token memory was rebuilt from the journal: the pre-crash
                # batch does not re-apply.
                retry = client.mutate(
                    "wb",
                    deltas=[{"kind": "edge-insert", "u": 0, "v": 2}],
                    token="tok-1",
                )
                assert retry["deduped"] is True
                assert client.query_session("wb")["key"] == key

    def test_recovery_with_shared_memory_store(self):
        """Same story without touching disk: two services, one store."""
        store = SQLiteVerdictStore(":memory:")
        first = ServerThread(store=store)
        first.start()
        try:
            verdict, key = self._mutate_and_snapshot(first)
        finally:
            first.service._closed = True
            first.stop()
        with ServerThread(store=store) as second:
            with ServiceClient(second.address) as client:
                recovered = client.query_session("wb")
                assert (recovered["verdict"], recovered["key"]) == (verdict, key)

    def test_unjournaled_sessions_do_not_resurrect(self):
        """A store with no journal recovers nothing (and does not crash)."""
        service = VerdictService(store=SQLiteVerdictStore(":memory:"))
        try:
            assert service.recover_sessions() == 0
        finally:
            asyncio.run(service.close())


# ----------------------------------------------------------------------
# Drain + chaos load
# ----------------------------------------------------------------------
class TestDrainAndChaos:
    def test_draining_daemon_rejects_new_work_typed(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                assert _query(client)["ok"]
                server.service.begin_drain()
                refused = _query(client)
                assert refused["error"]["code"] == "draining"
                mutate = client.mutate("wb", spec=SPEC, check=False)
                assert mutate["error"]["code"] == "draining"
                # The control plane still answers while draining.
                assert client.ping()
                assert client.stats()["resilience"]["draining"] is True

    def test_chaos_load_no_crashes_all_requests_answered(self):
        """ISSUE acceptance: 100% store faults under load -- every request
        is answered (degraded or typed), the daemon never dies, and the
        breaker opens and re-closes."""
        config = ServiceConfig(breaker_threshold=3, breaker_reset_seconds=0.2)
        with ServerThread(store=SQLiteVerdictStore(":memory:"), config=config) as server:
            report = run_load(
                server.address,
                inline_cycle_payloads(sizes=(4, 5, 6, 7)),
                clients=4,
                total=60,
                label="chaos",
                retries=2,
                chaos="store-get-error,store-put-error",
            )
            # Every request answered: no transport losses, no hangs.
            assert report.errors == 0, report.as_dict()
            assert report.requests == 60
            assert report.degraded > 0
            assert report.chaos and report.chaos["fired"]
            stats = server.service.stats()
            assert stats["resilience"]["breaker"]["opened"] >= 1
            # Faults were cleared by the run; after the reset window the
            # breaker probe re-closes the store tier.
            time.sleep(0.3)
            with ServiceClient(server.address) as client:
                probe = _query(client, n=11)
                assert probe["ok"] and probe["degraded"] is False
                assert client.stats()["resilience"]["breaker"]["state"] == "closed"
