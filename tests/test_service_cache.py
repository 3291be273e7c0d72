"""The tiered read path (LRU -> store -> compute) and engine telemetry."""

from __future__ import annotations

import gc
import threading
import weakref

from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.engine.batch import GameInstance
from repro.service.cache import ComputeTier, TieredVerdictCache
from repro.service.resolver import Resolver
from repro.service.protocol import QueryRequest
from repro.sweep.store import SQLiteVerdictStore


def _instances(sizes=(4, 5, 6)):
    from repro.hierarchy.arbiters import two_colorability_spec

    spec = two_colorability_spec()
    instances = []
    for n in sizes:
        graph = generators.cycle_graph(n)
        instances.append(
            GameInstance(
                machine=spec.machine,
                graph=graph,
                ids=sequential_identifier_assignment(graph),
                spaces=list(spec.spaces),
                prefix=spec.prefix(),
                name=f"2col|cycle{n}",
            )
        )
    return spec, instances


class TestTieredVerdictCache:
    def test_full_miss_returns_none(self):
        cache = TieredVerdictCache(SQLiteVerdictStore(":memory:"))
        assert cache.lookup_lru("nope") is None
        assert cache.lookup_store("nope") is None
        stats = cache.stats()
        assert stats["lru"]["misses"] == 1
        assert stats["store"]["misses"] == 1

    def test_insert_then_lru_hit(self):
        cache = TieredVerdictCache(SQLiteVerdictStore(":memory:"))
        cache.insert("k", True, name="x", seconds=0.1)
        assert cache.lookup_lru("k") == (True, "lru")
        assert cache.stats()["lru"]["hits"] == 1

    def test_store_hit_is_promoted_into_lru(self):
        store = SQLiteVerdictStore(":memory:")
        first = TieredVerdictCache(store)
        first.insert("k", False)
        # A fresh process (new LRU) over the same shared store.
        second = TieredVerdictCache(store)
        assert second.lookup_lru("k") is None
        assert second.lookup_store("k") == (False, "store")
        assert second.lookup_lru("k") == (False, "lru")
        stats = second.stats()
        assert stats["store"]["hits"] == 1
        assert stats["lru"]["hits"] == 1

    def test_insert_without_persist_skips_store(self):
        store = SQLiteVerdictStore(":memory:")
        cache = TieredVerdictCache(store)
        cache.insert("k", True, persist=False)
        assert store.get("k") is None
        assert cache.lookup_lru("k") == (True, "lru")

    def test_no_store_attached(self):
        cache = TieredVerdictCache(None)
        assert cache.lookup_lru("k") is None
        assert cache.lookup_store("k") is None
        cache.insert("k", True)
        assert cache.lookup_lru("k") == (True, "lru")
        assert cache.stats()["store"]["attached"] is False


class TestComputeTier:
    def test_verdicts_match_spec_decisions(self):
        spec, instances = _instances()
        tier = ComputeTier()
        verdicts, seconds = tier.evaluate(instances)
        expected = [spec.decide(inst.graph, inst.ids) for inst in instances]
        assert verdicts == expected
        assert len(seconds) == len(instances)
        assert all(s >= 0 for s in seconds)

    def test_batch_engines_die_with_the_batch(self, monkeypatch):
        # The tier keeps no engine between batches: every compiled instance
        # and engine a batch builds is garbage once the batch has answered.
        from repro.engine.compiled import CompiledGameEngine, CompiledInstance

        spec, instances = _instances((5, 6))
        expected = [spec.decide(inst.graph, inst.ids) for inst in instances]
        built = []
        for cls in (CompiledInstance, CompiledGameEngine):
            def recording_init(self, *args, _init=cls.__init__, **kwargs):
                _init(self, *args, **kwargs)
                built.append(weakref.ref(self))

            monkeypatch.setattr(cls, "__init__", recording_init)
        tier = ComputeTier()
        assert tier.evaluate(instances)[0] == expected
        assert len(built) == 2 * len(instances)  # one instance, one engine each
        gc.collect()
        assert [ref() for ref in built] == [None] * len(built)

    def test_engine_stats_shape(self):
        _, instances = _instances((4,))
        tier = ComputeTier()
        tier.evaluate(instances)
        stats = tier.engine_stats()
        assert set(stats) == {"batches", "computed", "seconds", "paths", "simulator_runs"}
        assert stats["paths"] == {"kernel": 1, "direct": 0, "fixpoint": 0, "simulate": 0}
        assert stats["batches"] == stats["computed"] == 1
        assert stats["simulator_runs"] == 0

    def test_engine_stats_count_paths_and_simulator_runs(self):
        # Kernel (sequential ids), fixpoint (periodic ids collide inside the
        # gather horizon) and simulate (a gather subclass, which the engine
        # does not rebuild views for): each computed verdict is counted
        # under its path, once per batch that computes it, and only the
        # simulated game runs the simulator.
        from repro.graphs.identifiers import cyclic_identifier_assignment
        from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm

        class Subclassed(NeighborhoodGatherAlgorithm):
            pass

        spec, instances = _instances((6,))
        graph = instances[0].graph
        colliding = GameInstance(
            machine=spec.machine,
            graph=graph,
            ids=cyclic_identifier_assignment(graph, 3),
            spaces=list(spec.spaces),
            prefix=spec.prefix(),
            name="2col|cycle6|cyclic3",
        )
        simulated = GameInstance(
            machine=Subclassed(1, spec.machine.compute),
            graph=graph,
            ids=instances[0].ids,
            spaces=list(spec.spaces),
            prefix=spec.prefix(),
            name="2col|cycle6|subclassed",
        )
        tier = ComputeTier()
        for _ in range(2):
            assert tier.evaluate([instances[0], colliding, simulated])[0] == [True] * 3
        stats = tier.engine_stats()
        assert stats["paths"] == {"kernel": 2, "direct": 0, "fixpoint": 2, "simulate": 2}
        assert sum(stats["paths"].values()) == stats["computed"] == 6
        assert stats["simulator_runs"] > 0
        metrics = tier.registry.render_prometheus()
        assert 'repro_compute_verdicts_total{path="simulate"} 2' in metrics
        assert f"repro_compute_simulator_runs_total {stats['simulator_runs']}" in metrics
        fixpoint_only = ComputeTier()
        fixpoint_only.evaluate([colliding])
        assert fixpoint_only.engine_stats()["simulator_runs"] == 0

    def test_engine_stats_never_blocks_on_a_running_batch(self):
        # A stats request during a cold evaluation reads the tier's counters
        # at once instead of waiting for the batch lock.
        _, instances = _instances((4,))
        tier = ComputeTier()
        tier.evaluate(instances)
        answered = {}
        with tier._lock:  # a batch is "in flight"
            reader = threading.Thread(target=lambda: answered.update(tier.engine_stats()))
            reader.start()
            reader.join(timeout=10)
            assert not reader.is_alive(), "engine_stats waited for the batch lock"
        assert answered["computed"] == len(instances)


class TestResolverIdentityStability:
    """Repeated resolutions reuse objects: coalesced Sigma and Pi misses of
    one game then share one compiled instance within a batch, and
    ``scenario_keys`` fingerprints each machine once."""

    def test_scenario_resolutions_share_instances(self):
        resolver = Resolver()
        first = resolver.resolve(QueryRequest(scenario="smoke", index=0))
        second = resolver.resolve(QueryRequest(scenario="smoke", index=0))
        assert first.instance is second.instance
        assert first.key == second.key

    def test_scenario_name_and_index_agree(self):
        resolver = Resolver()
        by_index = resolver.resolve(QueryRequest(scenario="smoke", index=0))
        by_name = resolver.resolve(
            QueryRequest(scenario="smoke", instance=by_index.instance.name)
        )
        assert by_name.instance is by_index.instance

    def test_inline_specs_are_memoized(self):
        resolver = Resolver()
        spec = {"arbiter": "2-colorable", "family": "cycle", "n": 6, "scheme": "sequential"}
        first = resolver.resolve(QueryRequest(spec=spec))
        second = resolver.resolve(QueryRequest(spec=dict(spec)))
        assert first is second

    def test_inline_key_matches_scenario_style_fingerprint(self):
        from repro.sweep.fingerprint import game_instance_key

        resolver = Resolver()
        resolved = resolver.resolve(
            QueryRequest(spec={"arbiter": "eulerian", "family": "cycle", "n": 6})
        )
        assert resolved.key == game_instance_key(resolved.instance)


class TestBulkStoreLookups:
    """Multi-key reads route through VerdictStore.get_many with promotion."""

    def test_lookup_store_many_promotes_all_hits(self):
        store = SQLiteVerdictStore(":memory:")
        store.put("a", True)
        store.put("b", False)
        cache = TieredVerdictCache(store)
        found = cache.lookup_store_many(["a", "b", "missing"])
        assert found == {"a": True, "b": False}
        stats = cache.stats()
        # Speculative bulk keys count as promotions, not hits or misses;
        # the caller notes the outcome of the one key it actually needed.
        assert stats["store"]["promotions"] == 2
        assert stats["store"]["hits"] == 0 and stats["store"]["misses"] == 0
        cache.note_store_hit()
        cache.note_store_miss()
        stats = cache.stats()
        assert stats["store"]["hits"] == 1 and stats["store"]["misses"] == 1
        # Both hits are now tier-1 answers.
        assert cache.lookup_lru("a") == (True, "lru")
        assert cache.lookup_lru("b") == (False, "lru")

    def test_lookup_store_many_without_store(self):
        cache = TieredVerdictCache(None)
        assert cache.lookup_store_many(["a", "b"]) == {}

    def test_resolver_scenario_keys_match_per_query_resolution(self):
        resolver = Resolver()
        keys = resolver.scenario_keys("smoke")
        assert keys  # one key per instance, in instance order
        for index in (0, len(keys) - 1):
            resolved = resolver.resolve(
                QueryRequest(id=1, scenario="smoke", index=index)
            )
            assert resolved.key == keys[index]

    def test_repeated_resolution_shares_objects_with_scenario_keys(self):
        resolver = Resolver()
        requests = [QueryRequest(id=i, scenario="smoke", index=i) for i in range(3)]
        resolved = [resolver.resolve(request) for request in requests]
        again = [resolver.resolve(request) for request in requests]
        assert [r.key for r in resolved] == [r.key for r in again]
        assert all(a.instance is b.instance for a, b in zip(resolved, again))
        keys = resolver.scenario_keys("smoke")
        assert [r.key for r in resolved] == keys[:3]


class TestNoNodeVerdicts:
    def test_daemon_makes_no_node_verdict_store_calls(self):
        # The daemon remembers verdicts only under their store keys: neither
        # its compute tier nor a session reads or writes node verdicts.
        import asyncio

        from repro.engine.dynamic import recompute_verdict
        from repro.hierarchy.arbiters import two_colorability_spec
        from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
        from repro.service.protocol import MutateRequest
        from repro.service.server import VerdictService

        class _Sim(NeighborhoodGatherAlgorithm):
            """Simulation-forced clone: the engine simulates its balls."""

        spec = two_colorability_spec()
        machine = _Sim(spec.machine.radius, spec.machine.compute, name="two-col-sim")
        graph = generators.cycle_graph(6)
        instance = GameInstance(
            machine=machine,
            graph=graph,
            ids=sequential_identifier_assignment(graph),
            spaces=list(spec.spaces),
            prefix=spec.prefix(),
            name="sim|cycle6",
        )
        store = SQLiteVerdictStore(":memory:")
        service = VerdictService(store=store)

        async def session_round():
            opening = {"arbiter": "2-colorable", "family": "cycle", "n": 12, "scheme": "small"}
            opened = await service.handle_request(
                MutateRequest(id=1, session="s", spec=opening)
            )
            assert opened["ok"] and opened["opened"], opened
            relabel = {"kind": "set-label", "node": 0, "label": "1"}
            mutated = await service.handle_request(
                MutateRequest(id=2, session="s", deltas=(relabel,))
            )
            assert mutated["ok"] and mutated["applied"] == 1, mutated
            return await service.handle_request(QueryRequest(id=3, session="s"))

        try:
            verdicts, _ = service.compute.evaluate([instance])
            assert verdicts == [spec.decide(graph, instance.ids)]
            answer = asyncio.run(session_round())
            mutable = service.sessions["s"].mutable
            assert mutable.compiled.path == "fixpoint"
            assert answer["source"] == "dynamic"
            assert answer["verdict"] == recompute_verdict(mutable.as_game_instance())
            assert store.node_count() == 0
            calls = service.stats()["tiers"]["store"]["calls"]
            assert not [op for op in calls if op.startswith(("get_node", "put_node"))], calls
        finally:
            asyncio.run(service.close())
            store.close()
