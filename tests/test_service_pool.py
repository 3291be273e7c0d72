"""The supervised worker pool: shared store, routing, chaos.

Three layers of coverage, cheapest first:

* the shared store under cross-process SQLite contention -- every verdict
  and journal entry one worker writes is there for its siblings to read --
  and the supervisor's refusal of an in-memory store no two workers could
  share;
* unit tests of the router's key extraction and the supervisor's
  stats-merging helpers (pure functions);
* one end-to-end chaos test: a real ``repro serve --workers 2`` pool,
  ``kill -9`` of a worker under a retrying client, zero visible errors,
  and a restarted worker that answers what its sibling computed during
  the outage from the shared store.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.loadgen import LoadReport
from repro.service.pool import (
    WorkerPool,
    _merge_latency,
    _merge_values,
    _slot,
    routing_key,
)
from repro.sweep.store import SQLiteVerdictStore


# ----------------------------------------------------------------------
# Two writer processes, one SQLite file (satellite: contention)
# ----------------------------------------------------------------------
_WRITER_SNIPPET = """
import sys
from repro.sweep.store import SQLiteVerdictStore

path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with SQLiteVerdictStore(path) as store:
    for index in range(count):
        store.put(f"{tag}-{index}", index % 2 == 0, name=tag, seconds=0.0)
        store.journal_append(f"sess-{tag}", index, {"op": "delta", "i": index})
"""


class TestMultiProcessContention:
    def test_two_processes_share_the_log_without_losing_appends(self, tmp_path):
        """Two writers hammer one WAL store: every verdict and every journal
        entry lands -- the invariant pool workers depend on, since each
        reads what its siblings persisted (SQLite's busy timeout absorbs
        the lock contention).
        """
        path = str(tmp_path / "shared.sqlite")
        count = 60
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SNIPPET, path, tag, str(count)],
                env=env,
            )
            for tag in ("alpha", "beta")
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        with SQLiteVerdictStore(path) as store:
            assert dict(store.items()) == {
                f"{tag}-{i}": (i % 2 == 0, tag, 0.0)
                for tag in ("alpha", "beta")
                for i in range(count)
            }
            for tag in ("alpha", "beta"):
                assert store.journal_entries(f"sess-{tag}") == [
                    (i, {"op": "delta", "i": i}) for i in range(count)
                ]


# ----------------------------------------------------------------------
# The supervisor refuses a store its workers cannot share
# ----------------------------------------------------------------------
class TestPoolStore:
    @pytest.mark.parametrize("store", ["memory://", "sqlite://:memory:", ":memory:"])
    def test_an_in_memory_store_is_refused_before_any_worker_spawns(self, store):
        # Each worker would open its own private database: a session's
        # journal would die with its worker.
        pool = WorkerPool(store=store)
        try:
            with pytest.raises(ValueError, match="private in-memory database"):
                asyncio.run(pool.start())
            assert all(worker.process is None for worker in pool.workers)
        finally:
            asyncio.run(pool.stop())
        assert not os.path.exists(pool.state_dir)

    def test_serve_exits_2_on_an_in_memory_pool_store(self, tmp_path, capsys):
        from repro.sweep.cli import main

        sock = tmp_path / "pool.sock"
        argv = ["serve", "--workers", "2", "--store", "memory://", "--socket", str(sock)]
        assert main(argv) == 2
        assert "private in-memory database" in capsys.readouterr().err
        assert not sock.exists()


# ----------------------------------------------------------------------
# Router key extraction + supervisor stat merging (pure helpers)
# ----------------------------------------------------------------------
class TestRoutingKey:
    def test_session_addressing_wins(self):
        body = {"op": "mutate", "session": "s1", "scenario": "smoke"}
        assert routing_key(body) == "session:s1"

    def test_spec_is_canonical_json(self):
        a = routing_key({"op": "query", "spec": {"n": 4, "arbiter": "x"}})
        b = routing_key({"op": "query", "spec": {"arbiter": "x", "n": 4}})
        assert a == b and a.startswith("spec:")

    def test_scenario_addressing_includes_instance_and_index(self):
        by_index = routing_key({"op": "query", "scenario": "smoke", "index": 3})
        other = routing_key({"op": "query", "scenario": "smoke", "index": 4})
        assert by_index != other

    def test_slot_is_stable_and_in_range(self):
        key = "spec:whatever"
        assert _slot(key, 4) == _slot(key, 4)
        assert all(0 <= _slot(f"k{i}", 3) < 3 for i in range(64))

    def test_slot_spreads_keys(self):
        slots = {_slot(f"key-{i}", 4) for i in range(128)}
        assert slots == {0, 1, 2, 3}


class TestStatsMerging:
    def test_merge_values_adds_numbers_and_recurses(self):
        a = {"errors": 1, "tiers": {"lru": {"hits": 2}}, "draining": False}
        b = {"errors": 2, "tiers": {"lru": {"hits": 3}}, "draining": True}
        merged = _merge_values(_merge_values({}, a), b)
        assert merged["errors"] == 3
        assert merged["tiers"]["lru"]["hits"] == 5
        assert merged["draining"] is True

    def test_merge_values_takes_the_max_of_settings_and_high_water_marks(self):
        body = {
            "resilience": {
                "breaker": {"failure_threshold": 5, "reset_seconds": 5.0, "opened": 1}
            },
            "coalescer": {"largest_batch": 2, "batches": 4},
        }
        merged = {}
        for _ in range(3):
            merged = _merge_values(merged, body)
        breaker = merged["resilience"]["breaker"]
        assert breaker["failure_threshold"] == 5
        assert breaker["reset_seconds"] == 5.0
        assert merged["coalescer"]["largest_batch"] == 2
        # Counters beside them still add.
        assert breaker["opened"] == 3
        assert merged["coalescer"]["batches"] == 12

    def test_merge_latency_adds_counts_and_takes_worst_percentile(self):
        snap = lambda p99, count: {  # noqa: E731 -- local table builder
            "query": {
                "count": count,
                "sum": 1.0,
                "min": 0.001,
                "max": p99,
                "p50": 0.002,
                "p95": 0.003,
                "p99": p99,
                "buckets": [["0.005", count], ["+Inf", count]],
            }
        }
        merged = _merge_latency([snap(0.004, 10), snap(0.009, 5)])
        assert merged["query"]["count"] == 15
        assert merged["query"]["p99"] == 0.009
        assert merged["query"]["buckets"][0] == ["0.005", 15]


# ----------------------------------------------------------------------
# Loadgen separates transport recovery from service latency
# ----------------------------------------------------------------------
class TestLoadReportReconnects:
    def test_reconnects_field_reaches_the_report_dict(self):
        report = LoadReport(
            label="x",
            clients=1,
            requests=10,
            errors=0,
            overloaded=0,
            seconds=1.0,
            reconnects=3,
        )
        assert report.as_dict()["reconnects"] == 3


# ----------------------------------------------------------------------
# End to end: kill -9 under load, zero visible errors, store read-through
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestPoolChaos:
    def _start_pool(self, tmp_path):
        """The pool's process, its socket, and its stderr log (a file the
        caller closes: a pipe nobody drains could fill and block it)."""
        sock = str(tmp_path / "pool.sock")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log_path = tmp_path / "pool.stderr"
        log = open(log_path, "wb")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--workers",
                "2",
                "--socket",
                sock,
                "--store",
                "sqlite://" + str(tmp_path / "pool.sqlite"),
                "--probe-interval",
                "0.15",
                "--restart-backoff",
                "0.1",
                "--log-level",
                "warning",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        deadline = time.time() + 60
        while time.time() < deadline:
            if proc.poll() is not None:
                log.close()
                raise AssertionError("pool exited early: " + log_path.read_text())
            if os.path.exists(sock):
                try:
                    from repro.service.client import ServiceClient

                    with ServiceClient("unix:" + sock, timeout=5.0) as client:
                        if client.ping():
                            return proc, sock, log
                except Exception:  # noqa: BLE001 -- not listening yet
                    pass
            time.sleep(0.1)
        proc.kill()
        proc.wait()
        log.close()
        raise AssertionError("pool never became ready")

    def test_kill_dash_nine_is_invisible_to_a_retrying_client(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.resilience import RetryPolicy

        proc, sock, log = self._start_pool(tmp_path)
        try:
            policy = RetryPolicy(max_attempts=12, base_delay=0.05, max_delay=0.5)
            with ServiceClient("unix:" + sock, timeout=10.0, retry=policy) as client:
                # Warm traffic before the kill.
                for n in (4, 5, 6):
                    response = client.query_spec(
                        arbiter="3-colorable", family="cycle", n=n
                    )
                    assert response["ok"], response
                stats = client.stats()
                pool = stats["pool"]
                assert pool["size"] == 2 and pool["live"] == 2
                victim = pool["workers"][0]
                assert victim["pid"]
                os.kill(victim["pid"], signal.SIGKILL)

                # Traffic straight through the outage: new specs compute on
                # the live sibling and land in the shared store; the
                # retrying client must see zero errors.
                outage = {}
                for n in range(7, 19):
                    response = client.query_spec(
                        arbiter="3-colorable", family="cycle", n=n
                    )
                    assert response["ok"], response
                    outage[n] = response["verdict"]

                # The supervisor notices and restarts the victim.
                deadline = time.time() + 60
                revived = None
                while time.time() < deadline:
                    pool = client.stats()["pool"]
                    workers = {w["id"]: w for w in pool["workers"]}
                    candidate = workers[victim["id"]]
                    if (
                        candidate["state"] == "serving"
                        and candidate["restarts"] >= 1
                        and candidate["pid"] != victim["pid"]
                    ):
                        revived = candidate
                        break
                    time.sleep(0.2)
                assert revived is not None, f"worker never rejoined: {pool}"
                assert pool["restarts"] >= 1

                # The revived worker starts with a cold LRU: it answers the
                # outage specs it owns by reading the shared store, and no
                # outage spec is computed again.
                owned = 0
                for n, verdict in outage.items():
                    spec = {"arbiter": "3-colorable", "family": "cycle", "n": n}
                    response = client.query_spec(**spec)
                    assert response["ok"], response
                    assert response["verdict"] == verdict, (n, response)
                    assert response["source"] in ("lru", "store"), (n, response)
                    if _slot(routing_key({"spec": spec}), 2) == victim["id"]:
                        owned += 1
                        assert response["source"] == "store", (n, response)
                assert owned == 5  # of the 12 outage specs
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                assert proc.wait(timeout=30) == 0
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
            finally:
                log.close()

    def test_sigterm_drains_the_pool_cleanly(self, tmp_path):
        proc, sock, log = self._start_pool(tmp_path)
        try:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            log.close()
        assert not os.path.exists(sock)
