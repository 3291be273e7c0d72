"""The tiered read path (LRU -> store -> compute) and engine telemetry."""

from __future__ import annotations

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
        assert cache.lookup("nope") is None
        stats = cache.stats()
        assert stats["lru"]["misses"] == 1
        assert stats["store"]["misses"] == 1

    def test_insert_then_lru_hit(self):
        cache = TieredVerdictCache(SQLiteVerdictStore(":memory:"))
        cache.insert("k", True, name="x", seconds=0.1)
        assert cache.lookup("k") == (True, "lru")
        assert cache.stats()["lru"]["hits"] == 1

    def test_store_hit_is_promoted_into_lru(self):
        store = SQLiteVerdictStore(":memory:")
        first = TieredVerdictCache(store)
        first.insert("k", False)
        # A fresh process (new LRU) over the same shared store.
        second = TieredVerdictCache(store)
        assert second.lookup("k") == (False, "store")
        assert second.lookup("k") == (False, "lru")
        stats = second.stats()
        assert stats["store"]["hits"] == 1
        assert stats["lru"]["hits"] == 1

    def test_insert_without_persist_skips_store(self):
        store = SQLiteVerdictStore(":memory:")
        cache = TieredVerdictCache(store)
        cache.insert("k", True, persist=False)
        assert store.get("k") is None
        assert cache.lookup("k") == (True, "lru")

    def test_no_store_attached(self):
        cache = TieredVerdictCache(None)
        assert cache.lookup("k") is None
        cache.insert("k", True)
        assert cache.lookup("k") == (True, "lru")
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

    def test_engines_persist_across_batches(self):
        _, instances = _instances((5, 6))
        tier = ComputeTier()
        tier.evaluate(instances)
        first = tier.engine_stats()
        # Re-answering the same instances must hit the cached engines'
        # transposition state instead of recompiling.
        tier.evaluate(instances)
        second = tier.engine_stats()
        assert second["compiled_instances"] == first["compiled_instances"]
        assert second["engines"] == first["engines"]
        assert second["transposition"]["hits"] > first["transposition"]["hits"]
        assert second["computed"] == first["computed"] + len(instances)

    def test_engine_stats_shape(self):
        _, instances = _instances((4,))
        tier = ComputeTier()
        tier.evaluate(instances)
        stats = tier.engine_stats()
        for field in ("batches", "computed", "seconds", "compiled_instances", "engines"):
            assert field in stats
        for cache_info in (stats["memo"], stats["transposition"]):
            for field in ("size", "hits", "misses", "evictions", "caches"):
                assert isinstance(cache_info[field], int)
        assert stats["memo"]["caches"] == stats["compiled_instances"]
        assert stats["stale"] is False

    def test_engine_stats_never_blocks_on_a_running_batch(self):
        # A stats request during a cold evaluation must return the last
        # snapshot immediately (marked stale) instead of waiting the batch out.
        _, instances = _instances((4,))
        tier = ComputeTier()
        tier.evaluate(instances)
        with tier._lock:  # a batch is "in flight"
            stats = tier.engine_stats()
        assert stats["stale"] is True
        assert stats["computed"] == len(instances)
        assert tier.engine_stats()["stale"] is False


class TestResolverIdentityStability:
    """Repeated resolutions must reuse objects, or the engine caches never hit."""

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


class TestCanonicalTier:
    def test_compute_tier_reports_canonical_stats(self):
        _, instances = _instances()
        tier = ComputeTier()
        tier.evaluate(instances)
        stats = tier.engine_stats()
        assert "canonical" in stats
        assert set(stats["canonical"]) >= {"entries", "hits", "misses", "hit_rate"}

    def test_compute_tier_flushes_node_verdicts_to_store(self):
        from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
        from repro.hierarchy.arbiters import two_colorability_spec

        class _Sim(NeighborhoodGatherAlgorithm):
            """Simulation-forced clone: the canonical-eligible path."""

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
        tier = ComputeTier(store=store)
        tier.evaluate([instance])
        assert store.node_count() > 0
        stats = tier.engine_stats()["canonical"]
        assert stats["entries"] > 0

    def test_open_breaker_sheds_canonical_node_reads(self):
        import asyncio

        from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
        from repro.hierarchy.arbiters import two_colorability_spec
        from repro.service.server import ServiceConfig, VerdictService

        class _Sim(NeighborhoodGatherAlgorithm):
            """Simulation-forced clone: the canonical-eligible path."""

        class _CountingStore(SQLiteVerdictStore):
            node_reads = 0

            def get_node(self, key):
                self.node_reads += 1
                return super().get_node(key)

            def get_node_many(self, keys):
                self.node_reads += 1
                return super().get_node_many(keys)

        spec = two_colorability_spec()
        machine = _Sim(spec.machine.radius, spec.machine.compute, name="two-col-sim")
        graph = generators.cycle_graph(8)
        instance = GameInstance(
            machine=machine,
            graph=graph,
            ids=sequential_identifier_assignment(graph),
            spaces=list(spec.spaces),
            prefix=spec.prefix(),
            name="sim|cycle8",
        )
        store = _CountingStore(":memory:")
        config = ServiceConfig(breaker_threshold=1, breaker_reset_seconds=60.0)
        service = VerdictService(store=store, config=config)
        try:
            service.breaker.record_failure()
            assert service.breaker.state == "open"
            verdicts, _ = service.compute.evaluate([instance])
            assert verdicts == [spec.decide(graph, instance.ids)]
            assert store.node_reads == 0
            stats = service.compute.engine_stats()
            assert stats["canonical"]["store_errors"] > 0  # the shed reads
            assert stats["flush_failures"] == 0  # a shed flush is no failure
        finally:
            asyncio.run(service.close())
            store.close()
