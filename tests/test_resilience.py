"""Fault injection, circuit breaking, retries, journals, crash recovery.

Unit tests drive the resilience primitives with fake clocks; the
end-to-end tests arm failpoints on a live daemon and assert it answers
every request either correctly (possibly ``degraded``) or with a typed
error -- never by dying or hanging.
"""

from __future__ import annotations

import asyncio
import socket
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
from repro.service.server import ServerThread, ServiceConfig, VerdictService
from repro.sweep.store import SQLiteVerdictStore, open_store

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
        assert not breaker.allow()

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
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # the probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # second caller is NOT admitted
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # timer restarted
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
        with ServerThread(store=store, config=ServiceConfig(window_seconds=0.0)) as server:
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
        config = ServiceConfig(
            window_seconds=0.0, breaker_threshold=2, breaker_reset_seconds=0.2
        )
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
        config = ServiceConfig(
            window_seconds=0.0, breaker_threshold=1, breaker_reset_seconds=60.0
        )
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
        config = ServiceConfig(
            window_seconds=0.0, breaker_threshold=1, breaker_reset_seconds=0.2
        )
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
        self._sock.close()
        for conn in self._accepted:
            try:
                conn.close()
            except OSError:
                pass


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
        config = ServiceConfig(
            window_seconds=0.0, breaker_threshold=3, breaker_reset_seconds=0.2
        )
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
