"""The supervised worker pool: store append log, routing, catch-up, chaos.

Three layers of coverage, cheapest first:

* unit tests of the store append log (``last_seq`` / ``entries_since``)
  in memory and on disk, including cross-process SQLite contention -- the
  replication substrate the pool's catch-up rides on;
* unit tests of the router's key extraction and the supervisor's
  stats-merging helpers (pure functions);
* one end-to-end chaos test: a real ``repro serve --workers 2`` pool,
  ``kill -9`` of a worker under a retrying client, zero visible errors,
  and a restarted worker whose stats report a non-empty log replay.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.loadgen import LoadReport
from repro.service.pool import _merge_latency, _merge_values, _slot, routing_key
from repro.sweep.store import SQLiteVerdictStore, open_store


@pytest.fixture(params=["memory", "sqlite", "jsonl"])
def store(request, tmp_path):
    # "jsonl": a bare path with the JSON-lines suffix names a SQLite
    # database like any other path.
    path = {
        "memory": "memory://",
        "sqlite": str(tmp_path / "verdicts.sqlite"),
        "jsonl": str(tmp_path / "verdicts.jsonl"),
    }[request.param]
    with open_store(path) as opened:
        yield opened


# ----------------------------------------------------------------------
# The replicated append log
# ----------------------------------------------------------------------
class TestStoreAppendLog:
    def test_empty_store_is_seq_zero(self, store):
        assert store.last_seq() == 0
        assert list(store.entries_since(0)) == []

    def test_every_append_advances_the_seq(self, store):
        store.put("a", True, name="x", seconds=0.1)
        assert store.last_seq() == 1
        store.put("b", False)
        store.journal_append("sess", 1, {"op": "open"})
        assert store.last_seq() == 3

    def test_entries_since_streams_in_order_with_kinds(self, store):
        store.put("a", True, name="x", seconds=0.25)
        store.journal_append("sess", 1, {"op": "open"})
        store.put("b", False)
        entries = list(store.entries_since(0))
        assert [seq for seq, _, _ in entries] == [1, 2, 3]
        assert [kind for _, kind, _ in entries] == ["verdict", "journal", "verdict"]
        first = entries[0][2]
        assert first["key"] == "a" and first["verdict"] is True
        assert first["name"] == "x" and first["seconds"] == 0.25
        journal = entries[1][2]
        assert journal["session"] == "sess" and journal["seq"] == 1
        assert journal["entry"] == {"op": "open"}

    def test_entries_since_resumes_mid_log(self, store):
        for index in range(5):
            store.put(f"k{index}", True)
        tail = list(store.entries_since(3))
        assert [seq for seq, _, _ in tail] == [4, 5]
        assert [record["key"] for _, _, record in tail] == ["k3", "k4"]

    def test_entries_since_honours_the_limit(self, store):
        for index in range(6):
            store.put(f"k{index}", bool(index % 2))
        window = list(store.entries_since(0, limit=4))
        assert [seq for seq, _, _ in window] == [1, 2, 3, 4]

    def test_put_many_logs_each_record(self, store):
        store.put_many([("a", True, "x", 0.1), ("b", False, "y", 0.2)])
        entries = list(store.entries_since(0))
        assert store.last_seq() == 2
        assert {record["key"] for _, _, record in entries} == {"a", "b"}

    def test_sqlite_entries_since_spans_chunks(self, tmp_path):
        with SQLiteVerdictStore(str(tmp_path / "v.sqlite")) as opened:
            count = opened.GET_MANY_CHUNK * 2 + 7
            opened.put_many((f"k{i}", True, "", 0.0) for i in range(count))
            seqs = [seq for seq, _, _ in opened.entries_since(0)]
            assert seqs == list(range(1, count + 1))

    def test_sqlite_log_survives_reopen_and_keeps_counting(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        with SQLiteVerdictStore(path) as first:
            first.put("a", True)
            first.put("b", False)
        with SQLiteVerdictStore(path) as second:
            assert second.last_seq() == 2
            second.put("c", True)
            assert second.last_seq() == 3
            assert [r["key"] for _, _, r in second.entries_since(2)] == ["c"]

    def test_jsonl_reload_rebuilds_the_log(self, tmp_path):
        path = str(tmp_path / "v.jsonl")
        with open_store(path) as first:
            first.put("a", True)
            first.journal_append("sess", 1, {"op": "open"})
        with open_store(path) as second:
            assert second.last_seq() == 2
            kinds = [kind for _, kind, _ in second.entries_since(0)]
            assert kinds == ["verdict", "journal"]


# ----------------------------------------------------------------------
# Two writer processes, one SQLite file (satellite: contention)
# ----------------------------------------------------------------------
_WRITER_SNIPPET = """
import sys
from repro.sweep.store import SQLiteVerdictStore, open_store

path, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
with SQLiteVerdictStore(path) as store:
    for index in range(count):
        store.put(f"{tag}-{index}", index % 2 == 0, name=tag, seconds=0.0)
        store.journal_append(f"sess-{tag}", index, {"op": "delta", "i": index})
"""


class TestMultiProcessContention:
    def test_two_processes_share_the_log_without_losing_appends(self, tmp_path):
        """Two writers hammer one WAL store: every append lands, exactly
        once, and the log sequence is strictly monotonic with no reuse --
        the invariant catch-up depends on (SQLite's busy timeout absorbs
        the lock contention; a lost or duplicated seq would replay wrong).
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
            entries = list(store.entries_since(0))
            seqs = [seq for seq, _, _ in entries]
            # Strictly monotonic, no duplicates, nothing lost.
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs) == 4 * count
            assert store.last_seq() == seqs[-1]
            verdict_keys = [
                record["key"] for _, kind, record in entries if kind == "verdict"
            ]
            expected = {f"{tag}-{i}" for tag in ("alpha", "beta") for i in range(count)}
            assert set(verdict_keys) == expected
            journal_seqs = sorted(
                (record["session"], record["seq"])
                for _, kind, record in entries
                if kind == "journal"
            )
            assert len(journal_seqs) == 2 * count
            assert store.journal_entries("sess-alpha")[-1][1]["i"] == count - 1


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
# A (re)started worker replays the log before serving
# ----------------------------------------------------------------------
class TestWorkerCatchUp:
    def test_restarted_server_replays_the_log_before_serving(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread, ServiceConfig

        path = str(tmp_path / "v.sqlite")
        with SQLiteVerdictStore(path) as seed:
            seed.put("k-a", True, name="a", seconds=0.1)
            seed.put("k-b", False, name="b", seconds=0.2)
        config = ServiceConfig(worker_id=7, catch_up_from=0)
        with ServerThread(store="sqlite://" + path, config=config) as server:
            with ServiceClient(server.address) as client:
                stats = client.stats()
        worker = stats["worker"]
        assert worker["id"] == 7
        assert worker["log_seq"] == 2
        catch_up = worker["catch_up"]
        assert catch_up["replayed"] == 2
        assert catch_up["verdicts"] == 2 and catch_up["journal"] == 0
        assert catch_up["from_seq"] == 0 and catch_up["to_seq"] == 2
        # The replay warmed the LRU: both verdicts are already resident.
        assert stats["tiers"]["lru"]["size"] == 2

    def test_catch_up_from_the_tail_replays_nothing(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread, ServiceConfig

        path = str(tmp_path / "v.sqlite")
        with SQLiteVerdictStore(path) as seed:
            seed.put("k-a", True)
        config = ServiceConfig(catch_up_from=1)
        with ServerThread(store="sqlite://" + path, config=config) as server:
            with ServiceClient(server.address) as client:
                stats = client.stats()
        assert stats["worker"]["catch_up"]["replayed"] == 0


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
# End to end: kill -9 under load, zero visible errors, log catch-up
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestPoolChaos:
    def _start_pool(self, tmp_path):
        sock = str(tmp_path / "pool.sock")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
            stderr=subprocess.PIPE,
        )
        deadline = time.time() + 60
        while time.time() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    "pool exited early: " + proc.stderr.read().decode()
                )
            if os.path.exists(sock):
                try:
                    from repro.service.client import ServiceClient

                    with ServiceClient("unix:" + sock, timeout=5.0) as client:
                        if client.ping():
                            return proc, sock
                except Exception:  # noqa: BLE001 -- not listening yet
                    pass
            time.sleep(0.1)
        proc.kill()
        raise AssertionError("pool never became ready")

    def test_kill_dash_nine_is_invisible_to_a_retrying_client(self, tmp_path):
        from repro.service.client import ServiceClient
        from repro.service.resilience import RetryPolicy

        proc, sock = self._start_pool(tmp_path)
        try:
            policy = RetryPolicy(max_attempts=12, base_delay=0.05, max_delay=0.5)
            with ServiceClient("unix:" + sock, timeout=10.0, retry=policy) as client:
                # Warm traffic: appends raise the log past zero.
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

                # Traffic straight through the outage: new specs force
                # fresh appends, so the restarted worker has log entries
                # to replay; the retrying client must see zero errors.
                for n in range(7, 19):
                    response = client.query_spec(
                        arbiter="3-colorable", family="cycle", n=n
                    )
                    assert response["ok"], response

                # The supervisor notices, restarts, and the newcomer
                # reports a non-empty catch-up before rejoining.
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
                catch_up = revived["catch_up"]
                assert catch_up is not None
                assert catch_up["replayed"] > 0
                assert catch_up["to_seq"] > catch_up["from_seq"]
                assert pool["restarts"] >= 1

                # And the revived worker answers again.
                response = client.query_spec(
                    arbiter="3-colorable", family="cycle", n=5
                )
                assert response["ok"], response
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                assert proc.wait(timeout=30) == 0
            except subprocess.TimeoutExpired:
                proc.kill()
                raise

    def test_sigterm_drains_the_pool_cleanly(self, tmp_path):
        proc, sock = self._start_pool(tmp_path)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert not os.path.exists(sock)
