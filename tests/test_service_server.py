"""End-to-end daemon tests: concurrency, correctness, backpressure, speedup."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.graphs import generators
from repro.hierarchy.game import eve_wins
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.service.client import ServiceClient, ServiceError, format_address, parse_address
from repro.service.loadgen import run_load, scenario_payloads
from repro.service.server import ServerThread, ServiceConfig
from repro.sweep.executor import evaluate_timed
from repro.sweep.scenarios import build_instances, instances_for_spec, register_scenario
from repro.sweep.store import SQLiteVerdictStore

#: The Figure-2 workload the acceptance criteria are phrased over.
FIG2_SCENARIO = "separations"


@pytest.fixture(scope="module")
def fig2_server():
    """One daemon over a shared in-memory store, used by the module's tests."""
    with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
        yield server


class TestAddresses:
    def test_parse_and_format(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("10.0.0.1:81") == ("tcp", "10.0.0.1", 81)
        assert parse_address(":81") == ("tcp", "127.0.0.1", 81)
        assert format_address(("unix", "/a")) == "unix:/a"
        assert format_address(("tcp", "h", 9)) == "h:9"
        with pytest.raises(ValueError):
            parse_address("unix:")
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestEndToEnd:
    def test_concurrent_clients_match_oracle(self, fig2_server):
        """>= 8 concurrent clients; every answer identical and engine-correct."""
        instances = build_instances(FIG2_SCENARIO)
        expected, _ = evaluate_timed(instances)
        client_count = 8
        answers = [None] * client_count
        errors = []

        def worker(slot: int) -> None:
            try:
                with ServiceClient(fig2_server.address) as client:
                    rows = []
                    for index in range(len(instances)):
                        response = client.query_scenario(FIG2_SCENARIO, index=index)
                        rows.append(
                            (response["verdict"], response["winner"], response["key"],
                             response["name"])
                        )
                    answers[slot] = rows
            except Exception as error:  # noqa: BLE001 -- surfaced by the assert
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(client_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert all(rows is not None for rows in answers)
        # Byte-identical across clients: every client saw the same rows.
        reference = answers[0]
        assert all(rows == reference for rows in answers[1:])
        # And the rows carry the engine's verdicts.
        assert [row[0] for row in reference] == expected

    def test_small_instances_match_exhaustive_oracle(self, fig2_server):
        """Cross-check the daemon against the reference solver where affordable."""
        instances = build_instances(FIG2_SCENARIO)
        checked = 0
        with ServiceClient(fig2_server.address) as client:
            for index, instance in enumerate(instances):
                if len(instance.graph.nodes) > 6:
                    continue
                response = client.query_scenario(FIG2_SCENARIO, index=index)
                oracle = eve_wins(
                    instance.machine,
                    instance.graph,
                    instance.ids,
                    list(instance.spaces),
                    list(instance.prefix),
                )
                assert response["verdict"] == oracle, instance.name
                checked += 1
        assert checked >= 3

    def test_warm_queries_hit_the_lru(self, fig2_server):
        with ServiceClient(fig2_server.address) as client:
            first = client.query_scenario(FIG2_SCENARIO, index=0)
            second = client.query_scenario(FIG2_SCENARIO, index=0)
        assert second["source"] == "lru"
        assert second["verdict"] == first["verdict"]

    def test_store_tier_survives_lru_restart(self):
        store = SQLiteVerdictStore(":memory:")
        with ServerThread(store=store) as first:
            with ServiceClient(first.address) as client:
                cold = client.query_scenario("smoke", index=0)
        assert cold["source"] in ("compute", "coalesced")
        assert len(store) >= 1
        # A fresh daemon (empty LRU) over the same store answers from tier 2.
        with ServerThread(store=store) as second:
            with ServiceClient(second.address) as client:
                warm = client.query_scenario("smoke", index=0)
        assert warm["source"] == "store"
        assert warm["verdict"] == cold["verdict"]

    def test_first_scenario_store_miss_promotes_all_siblings(self):
        """A scenario's first store lookup bulk-promotes every sibling key.

        The daemon routes the multi-key read through the store's
        ``get_many``: after one store-sourced answer, the scenario's other
        stored verdicts are already tier-1 hits, without ever having been
        queried individually.
        """
        store = SQLiteVerdictStore(":memory:")
        from repro.sweep.executor import run_instances

        run_instances(build_instances("smoke"), store=store, scenario="smoke")
        with ServerThread(store=store) as server:
            with ServiceClient(server.address) as client:
                first = client.query_scenario("smoke", index=0)
                siblings = [
                    client.query_scenario("smoke", index=i) for i in range(1, 4)
                ]
        assert first["source"] == "store"
        assert all(sibling["source"] == "lru" for sibling in siblings)

    def test_failed_scenario_promotion_is_retried(self):
        """A bulk read that failed promotes nothing, so the scenario's next
        store lookup tries the bulk read again."""
        store = SQLiteVerdictStore(":memory:")
        from repro.sweep.executor import run_instances

        run_instances(build_instances("smoke"), store=store, scenario="smoke")
        with ServerThread(store=store) as server:
            with ServiceClient(server.address) as client:
                client.set_faults("store-get-error=1.0:times=1")
                first = client.query_scenario("smoke", index=0)
                # Index 1 is index 0's game under another name: skip to 2.
                second = client.query_scenario("smoke", index=2)
                siblings = [
                    client.query_scenario("smoke", index=i) for i in range(4, 7)
                ]
                promotions = client.stats()["tiers"]["store"]["promotions"]
        assert first["degraded"] is True  # the failed bulk read
        assert second["source"] == "store"  # the retried bulk read
        assert all(sibling["source"] == "lru" for sibling in siblings)
        assert promotions > 0

    def test_queries_during_a_promotion_read_one_key_each(self):
        """Only a scenario's first query bulk-reads it: queries arriving
        while that read is in flight take the single-key read."""
        store = SQLiteVerdictStore(":memory:")
        from repro.sweep.executor import run_instances

        run_instances(build_instances("smoke"), store=store, scenario="smoke")
        with ServerThread(store=store) as server:
            with ServiceClient(server.address) as client:
                # Spent by the bulk read: it sleeps, the later reads do not.
                client.set_faults("store-get-latency=1.0:latency=1.0:times=1")
                answers = {}

                def query(index):
                    with ServiceClient(server.address) as other:
                        answers[index] = other.query_scenario("smoke", index=index)

                first = threading.Thread(target=query, args=(0,))
                first.start()
                time.sleep(0.2)
                during = [threading.Thread(target=query, args=(i,)) for i in (2, 4, 5)]
                for thread in during:
                    thread.start()
                for thread in (first, *during):
                    thread.join(timeout=10)
                calls = client.stats()["tiers"]["store"]["calls"]
        assert all(answers[i]["source"] == "store" for i in (0, 2, 4, 5)), answers
        assert calls["get_many"] == {"loop": 0, "worker": 1}
        assert calls["get"] == {"loop": 3, "worker": 0}

    def test_inline_spec_and_scenario_key_agree(self, fig2_server):
        """The same game addressed both ways maps to one store key."""
        with ServiceClient(fig2_server.address) as client:
            inline = client.query_spec(
                arbiter="3-colorable", family="cycle", n=4, scheme="small"
            )
            named = client.query_scenario("smoke", instance="3-colorable|cycle4|small")
        assert inline["key"] == named["key"]
        assert inline["verdict"] == named["verdict"]

    def test_malformed_line_keeps_connection_alive(self, fig2_server):
        with ServiceClient(fig2_server.address) as client:
            client._sock.sendall(b"this is not json\n")
            answer = json.loads(client._reader.readline())
            assert answer["ok"] is False
            assert answer["error"]["code"] == "bad-json"
            # The connection survives and still answers real queries.
            assert client.ping()

    def test_oversized_inline_spec_is_rejected_before_building(self, fig2_server):
        # complete(200000) would materialize ~2e10 edges; the size bound
        # must fire on the raw parameters, so this answers instantly.
        started = time.perf_counter()
        with ServiceClient(fig2_server.address) as client:
            response = client.query_spec(
                check=False, arbiter="3-colorable", family="complete", n=200_000
            )
            grid = client.query_spec(
                check=False, arbiter="eulerian", family="grid", rows=10_000, cols=10_000
            )
        assert time.perf_counter() - started < 5.0
        assert response["error"]["code"] == "bad-spec"
        assert grid["error"]["code"] == "bad-spec"

    def test_failing_store_does_not_hang_queries(self):
        class BrokenPutStore(SQLiteVerdictStore):
            def put_many(self, records):
                raise OSError("disk full")

        with ServerThread(store=BrokenPutStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                first = client.query_scenario("smoke", index=0)
                second = client.query_scenario("smoke", index=0)
                # The failure is counted by the persist done-callback, which
                # may run after a stats reply has gone out: poll for it.
                deadline = time.monotonic() + 5.0
                while True:
                    failures = client.stats()["tiers"]["store"]["async_put_failures"]
                    if failures >= 1 or time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
        assert first["ok"] and second["ok"]
        assert second["source"] == "lru"  # tier 1 still works
        assert failures >= 1

    def test_unknown_scenario_and_instance_errors(self, fig2_server):
        with ServiceClient(fig2_server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query_scenario("no-such-scenario", index=0)
            assert excinfo.value.code == "unknown-scenario"
            response = client.query_scenario(FIG2_SCENARIO, index=10_000, check=False)
            assert response["error"]["code"] == "unknown-instance"

    def test_stats_expose_engine_telemetry(self, fig2_server):
        with ServiceClient(fig2_server.address) as client:
            client.query_scenario(FIG2_SCENARIO, index=1)
            stats = client.stats()
        tiers = stats["tiers"]
        assert tiers["lru"]["maxsize"] == 4096
        compute = tiers["compute"]
        assert compute["computed"] >= 1
        # Each computed verdict is counted once, under the engine path that
        # filled its memo misses (the operator-facing telemetry).
        assert set(compute["paths"]) == {"kernel", "direct", "fixpoint", "simulate"}
        assert sum(compute["paths"].values()) == compute["computed"]
        assert isinstance(compute["simulator_runs"], int)
        metrics = fig2_server.service.registry.render_prometheus()
        assert 'repro_compute_verdicts_total{path="kernel"}' in metrics
        assert stats["requests"]["query"] >= 1


def _register_slow_scenario(name: str, count: int, delay: float) -> None:
    """A scenario of *count* independent slow instances (distinct graphs)."""

    def build():
        from repro.hierarchy.arbiters import lp_decider_spec

        def sleepy(view):
            time.sleep(delay)
            return "1"

        spec = lp_decider_spec("sleepy", NeighborhoodGatherAlgorithm(1, sleepy))
        graphs = [(f"path{n}", generators.path_graph(n)) for n in range(3, 3 + count)]
        return instances_for_spec(spec, graphs)

    register_scenario(name, "slow instances for backpressure tests", tags=("test",))(build)


class TestCoalescingOverSockets:
    def test_concurrent_same_query_computes_once(self):
        _register_slow_scenario("service-test-dedup", 1, delay=0.05)
        with ServerThread(store=None) as server:
            sources = []
            lock = threading.Lock()

            def worker():
                with ServiceClient(server.address) as client:
                    response = client.query_scenario("service-test-dedup", index=0)
                    with lock:
                        sources.append(response["source"])

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(sources) == 6
            service = server.service
            # One compute; everyone else coalesced onto it (or read the LRU
            # if they arrived after it finished).
            assert service.compute.computed == 1
            assert sources.count("compute") == 1
            assert all(source in ("compute", "coalesced", "lru") for source in sources)

    def test_queries_queued_behind_a_batch_share_the_next(self):
        # Sigma and Pi games on ONE (machine, graph, ids) instance that
        # arrive while a slow scenario query computes queue behind it and
        # leave together as the next batch.
        _register_slow_scenario("service-test-busy", 1, delay=0.2)
        with ServerThread(store=None) as server:
            service = server.service
            results = {}

            def worker(label):
                with ServiceClient(server.address) as client:
                    if label == "slow":
                        results[label] = client.query_scenario("service-test-busy", index=0)
                    else:
                        results[label] = client.query_spec(
                            arbiter="2-colorable",
                            family="cycle",
                            n=6,
                            scheme="sequential",
                            prefix=label,
                        )

            slow = threading.Thread(target=worker, args=("slow",))
            slow.start()
            deadline = time.monotonic() + 30
            while service.coalescer.stats()["batches"] < 1:
                assert time.monotonic() < deadline, "slow query never dispatched"
                time.sleep(0.005)
            threads = [threading.Thread(target=worker, args=(p,)) for p in ("E", "A")]
            for thread in threads:
                thread.start()
            for thread in [slow] + threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert sorted(results) == ["A", "E", "slow"]
            assert service.coalescer.stats()["largest_batch"] == 2
            assert service.compute.batches == 2
        assert results["E"]["name"] != results["A"]["name"]


class TestBackpressure:
    def test_overload_is_explicit_and_bounded(self):
        _register_slow_scenario("service-test-slow", 12, delay=0.1)
        config = ServiceConfig(max_pending=2)
        with ServerThread(store=None, config=config) as server:
            outcomes = []
            lock = threading.Lock()

            def worker(index):
                with ServiceClient(server.address) as client:
                    response = client.query_scenario(
                        "service-test-slow", index=index, check=False
                    )
                    with lock:
                        outcomes.append(response)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(10)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)

            assert len(outcomes) == 10
            ok = [r for r in outcomes if r.get("ok")]
            rejected = [r for r in outcomes if not r.get("ok")]
            # Under 10 concurrent slow queries with max_pending=2 some must
            # be rejected, every rejection is the explicit overload signal,
            # and admission never exceeded the bound.
            assert ok and rejected
            assert all(r["error"]["code"] == "overloaded" for r in rejected)
            service = server.service
            assert service.peak_pending <= 2
            assert service.overloaded_count == len(rejected)
            # Ping/stats stay admitted during overload.
            with ServiceClient(server.address) as client:
                assert client.ping()
                assert client.stats()["max_pending"] == 2


class TestWarmThroughputSpeedup:
    def test_warm_service_is_10x_faster_than_cold_compute(self):
        """A warmed daemon answers the Figure-2 workload without computing.

        Hot reads all come from the LRU and leave the compute tier's
        ``computed`` counter unchanged; a fresh daemon over the warmed
        store computes nothing either.  The throughput ratio against cold
        compute is printed for information only: its denominator is the
        engine's cold path, so it falls whenever that path gets faster.
        """
        # Cold single-query baseline: fresh machines, graphs and engines per
        # run (build_instances constructs new objects, so nothing is shared
        # with the daemon or earlier tests).
        cold_instances = build_instances(FIG2_SCENARIO)
        started = time.perf_counter()
        evaluate_timed(cold_instances)
        cold_qps = len(cold_instances) / (time.perf_counter() - started)

        store = SQLiteVerdictStore(":memory:")
        payloads = scenario_payloads(FIG2_SCENARIO)
        with ServerThread(store=store) as server:
            # Warm the store and LRU once, then measure closed-loop.
            run_load(server.address, payloads, clients=1, label="warmup")
            computed = server.service.stats()["tiers"]["compute"]["computed"]
            report = run_load(
                server.address,
                payloads,
                clients=4,
                total=max(200, 4 * len(payloads)),
                label="hot-cache",
            )
            assert server.service.stats()["tiers"]["compute"]["computed"] == computed
        assert computed > 0
        assert report.errors == 0 and report.overloaded == 0
        assert report.sources == {"lru": report.requests}
        print(f"hot {report.qps:.0f} qps = {report.qps / cold_qps:.1f}x cold {cold_qps:.1f} qps")

        with ServerThread(store=store) as warm_server:
            warm = run_load(warm_server.address, payloads, clients=1, label="warm-store")
            assert warm_server.service.stats()["tiers"]["compute"]["computed"] == 0
        assert warm.errors == 0 and warm.sources.get("store", 0) > 0


class TestDynamicSessions:
    """The mutations stream end to end: open, mutate, query, and fail typed."""

    INSTANCE = "2-colorable|cycle6|sequential"
    SESSION_SCENARIO = FIG2_SCENARIO

    def _open(self, client, session):
        return client.mutate(
            session, scenario=self.SESSION_SCENARIO, instance=self.INSTANCE
        )

    def test_mutate_query_flip_and_revert(self):
        """A chord flips the verdict; reverting re-hits the original LRU
        entry -- the content-addressed key makes stale answers impossible."""
        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                opened = self._open(client, "workbench")
                assert opened["opened"] is True and opened["applied"] == 0

                first = client.query_session("workbench")
                assert first["verdict"] is True  # even cycle: 2-colorable
                base_key = first["key"]

                chord = {"kind": "edge-insert", "u": 0, "v": 2}
                response = client.mutate("workbench", deltas=[chord])
                assert response["opened"] is False
                assert response["applied"] == 1 and response["dirty"] > 0

                mutated = client.query_session("workbench")
                assert mutated["verdict"] is False  # the chord closes a triangle
                assert mutated["key"] != base_key
                assert mutated["source"] == "dynamic"

                client.mutate(
                    "workbench", deltas=[{"kind": "edge-delete", "u": 0, "v": 2}]
                )
                reverted = client.query_session("workbench")
                assert reverted["verdict"] is True
                assert reverted["key"] == base_key
                # The reverted state legitimately re-hits its old cache entry.
                assert reverted["source"] in ("lru", "store")

    def test_unknown_session_and_reopen_are_typed_errors(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.query_session("ghost")
                assert excinfo.value.code == "unknown-session"

                with pytest.raises(ServiceError) as excinfo:
                    client.mutate("ghost", deltas=[])  # no opening address
                assert excinfo.value.code == "unknown-session"

                self._open(client, "w")
                with pytest.raises(ServiceError) as excinfo:
                    self._open(client, "w")  # re-addressing an open session
                assert excinfo.value.code == "bad-request"

    def test_bad_delta_batches_are_atomic(self):
        """A failing batch is rolled back wholesale: the later query sees
        the pre-batch state and the failure is the typed bad-delta error."""
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                self._open(client, "w")
                before = client.query_session("w")
                with pytest.raises(ServiceError) as excinfo:
                    client.mutate(
                        "w",
                        deltas=[
                            {"kind": "set-label", "node": 1, "label": "1"},  # valid
                            {"kind": "edge-insert", "u": 0, "v": 1},  # duplicate
                        ],
                    )
                assert excinfo.value.code == "bad-delta"
                after = client.query_session("w")
                assert after["key"] == before["key"]  # label flip rolled back
                session = server.service.sessions["w"]
                assert session.deltas_applied == 0

    def test_semantically_bad_deltas_are_typed(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                self._open(client, "w")
                for delta in (
                    {"kind": "edge-insert", "u": 0, "v": 99},  # out of range
                    {"kind": "edge-insert", "u": 0, "v": 1},  # duplicate edge
                    {"kind": "edge-delete", "u": 0, "v": 3},  # missing edge
                    {"kind": "set-label", "node": 0, "label": "2x"},  # not bits
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        client.mutate("w", deltas=[delta])
                    assert excinfo.value.code == "bad-delta", delta

    def test_session_limit(self):
        config = ServiceConfig(max_sessions=1)
        with ServerThread(store=None, config=config) as server:
            with ServiceClient(server.address) as client:
                self._open(client, "first")
                with pytest.raises(ServiceError) as excinfo:
                    self._open(client, "second")
                assert excinfo.value.code == "session-limit"

    def test_concurrent_mutates_and_queries_serialize(self):
        """Racing mutates and queries on one session never corrupt it: every
        response is well-formed and the final state verifies differentially."""
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as opener:
                self._open(opener, "race")
                assert opener.query_session("race")["verdict"] is True
            errors = []

            def mutator():
                try:
                    with ServiceClient(server.address) as client:
                        for _ in range(6):
                            client.mutate(
                                "race",
                                deltas=[{"kind": "set-label", "node": 1, "label": "1"}],
                            )
                            client.mutate(
                                "race",
                                deltas=[{"kind": "set-label", "node": 1, "label": ""}],
                            )
                except Exception as error:  # noqa: BLE001 -- surfaced below
                    errors.append(error)

            def querier():
                try:
                    with ServiceClient(server.address) as client:
                        for _ in range(12):
                            response = client.query_session("race")
                            # Labels never affect 2-colorability.
                            assert response["verdict"] is True
                except Exception as error:  # noqa: BLE001 -- surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=mutator) for _ in range(2)]
            threads += [threading.Thread(target=querier) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors

            session = server.service.sessions["race"]
            mutable = session.mutable
            from repro.engine.dynamic import recompute_verdict

            assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())
            assert session.deltas_applied == 24

    def test_dynamic_stats(self):
        with ServerThread(store=None) as server:
            with ServiceClient(server.address) as client:
                self._open(client, "s1")
                client.mutate(
                    "s1", deltas=[{"kind": "set-label", "node": 0, "label": "1"}]
                )
                client.query_session("s1")
                stats = client.stats()
            dynamic = stats["dynamic"]
            assert dynamic["sessions"] == 1
            assert dynamic["opened"] == 1
            info = dynamic["by_session"]["s1"]
            assert info["mutations"] == 1
            assert info["queries"] == 1
            assert stats["requests"]["mutate"] == 2
