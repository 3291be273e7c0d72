"""Canonical ball memoization: signatures, sharing, persistence, correctness.

The canonical signature must separate any two dependency balls the engine
could evaluate differently (machine, structure, identifiers, labels,
center, certificates) while identifying balls that are literally the same
computation -- the sharing the sweep executor and the service compute tier
rely on.  Correctness is pinned by evaluating with and without a shared
cache against the exhaustive oracle.
"""

import random

import pytest

from repro.engine import (
    CanonicalVerdictCache,
    CompiledGameEngine,
    CompiledInstance,
    node_ball_signature,
)
from repro.graphs import generators
from repro.graphs.identifiers import (
    cyclic_identifier_assignment,
    sequential_identifier_assignment,
)
from repro.hierarchy.certificate_spaces import bit_space
from repro.hierarchy.game import eve_wins, pi_prefix, sigma_prefix
from repro.machines import builtin
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.sweep.executor import evaluate_timed, run_instances
from repro.sweep.scenarios import build_instances
from repro.sweep.store import SQLiteVerdictStore


class _SimulatedGather(NeighborhoodGatherAlgorithm):
    """Behaviorally identical subclass: forces the simulation fallback."""


def _simulated_two_colorability():
    base = builtin.two_colorability_verifier()
    return _SimulatedGather(base.radius, base.compute, name="two-col-sim")


def _instance(machine, graph, ids=None):
    return CompiledInstance(machine, graph, ids or sequential_identifier_assignment(graph))


class TestSignatures:
    """Distinct balls must not share a signature; identical balls must."""

    def test_identical_balls_share_within_an_instance(self):
        machine = _simulated_two_colorability()
        graph = generators.cycle_graph(12)
        ids = cyclic_identifier_assignment(graph, 3)
        instance = CompiledInstance(machine, graph, ids)
        # Period-3 identifiers on C12 (simulation radius 3, so balls are
        # 7-node sub-paths): interior nodes u and u+3 see identical balls.
        signatures = [node_ball_signature(instance, u) for u in range(instance.n)]
        assert signatures[3] == signatures[6]
        assert signatures[4] == signatures[7]
        # ...but the wrap-around nodes, whose balls sort differently, do not.
        assert signatures[0] != signatures[3]

    def test_identical_balls_share_across_instances_and_machine_builds(self):
        graph_a, graph_b = generators.cycle_graph(12), generators.cycle_graph(15)
        a = CompiledInstance(
            _simulated_two_colorability(), graph_a, cyclic_identifier_assignment(graph_a, 3)
        )
        b = CompiledInstance(
            _simulated_two_colorability(), graph_b, cyclic_identifier_assignment(graph_b, 3)
        )
        # Separately built machines with the same code fingerprint alike;
        # matching local neighborhoods therefore share across graphs.
        assert node_ball_signature(a, 4) == node_ball_signature(b, 4)

    def test_distinct_identifiers_separate(self):
        machine = _simulated_two_colorability()
        graph = generators.cycle_graph(6)
        seq = CompiledInstance(machine, graph, sequential_identifier_assignment(graph))
        cyc = CompiledInstance(machine, graph, cyclic_identifier_assignment(graph, 3))
        assert node_ball_signature(seq, 0) != node_ball_signature(cyc, 0)

    def test_distinct_labels_separate(self):
        machine = _simulated_two_colorability()
        plain = _instance(machine, generators.path_graph(4))
        labeled = _instance(machine, generators.path_graph(4, labels=["1", "0", "1", "1"]))
        assert node_ball_signature(plain, 1) != node_ball_signature(labeled, 1)

    def test_distinct_structure_and_center_separate(self):
        machine = _simulated_two_colorability()
        path = _instance(machine, generators.path_graph(5))
        # Endpoint vs interior: same graph, different ball around the center.
        assert node_ball_signature(path, 0) != node_ball_signature(path, 2)
        cycle = _instance(machine, generators.cycle_graph(5))
        assert node_ball_signature(path, 2) != node_ball_signature(cycle, 2)

    def test_distinct_machines_separate(self):
        graph = generators.cycle_graph(5)
        two = _instance(_simulated_two_colorability(), graph)
        base = builtin.three_colorability_verifier()
        three = _instance(
            _SimulatedGather(base.radius, base.compute, name="three-sim"), graph
        )
        assert node_ball_signature(two, 0) != node_ball_signature(three, 0)

    def test_certificate_restrictions_separate_keys(self):
        machine = _simulated_two_colorability()
        graph = generators.cycle_graph(5)
        instance = _instance(machine, graph)
        empty = [{u: "" for u in graph.nodes}]
        ones = [{u: "1" for u in graph.nodes}]

        def key(assignments):
            state = instance.new_state(len(assignments))
            for level, assignment in enumerate(assignments):
                state.load_level(level, assignment)
            return instance.canonical_key_state(0, state)

        assert key(empty) != key(ones)
        assert key(empty) != key([])


class TestCacheBehavior:
    def test_ruled_instances_do_not_consult_the_cache(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(5)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        cache = CanonicalVerdictCache()
        instance.attach_canonical(cache)
        engine = CompiledGameEngine(machine, graph, ids, [bit_space()], instance=instance)
        engine.eve_wins(sigma_prefix(1))
        assert len(cache) == 0 and cache.misses == 0

    def test_cross_instance_sharing_and_correctness(self):
        cache = CanonicalVerdictCache()
        for n in (6, 9, 12):
            graph = generators.cycle_graph(n)
            ids = cyclic_identifier_assignment(graph, 3)
            machine = _simulated_two_colorability()
            instance = CompiledInstance(machine, graph, ids)
            instance.attach_canonical(cache)
            for prefix in (sigma_prefix(1), pi_prefix(1)):
                expected = eve_wins(machine, graph, ids, [bit_space()], prefix)
                got = CompiledGameEngine(
                    machine, graph, ids, [bit_space()], instance=instance
                ).eve_wins(prefix)
                assert expected == got, (n, prefix)
        assert cache.hits > 0
        assert 0 < cache.hit_rate() <= 1

    def test_store_backed_cache_promotes_and_skips_work(self):
        machine = _simulated_two_colorability()
        graph = generators.cycle_graph(6)
        ids = cyclic_identifier_assignment(graph, 3)
        store = SQLiteVerdictStore(":memory:")

        first = CanonicalVerdictCache(store=store)
        instance = CompiledInstance(machine, graph, ids)
        instance.attach_canonical(first)
        value = CompiledGameEngine(
            machine, graph, ids, [bit_space()], instance=instance
        ).eve_wins(sigma_prefix(1))
        assert first.flush() > 0
        assert store.node_count() > 0

        second = CanonicalVerdictCache(store=store)
        fresh = CompiledInstance(_simulated_two_colorability(), graph, ids)
        fresh.attach_canonical(second)
        again = CompiledGameEngine(
            machine, graph, ids, [bit_space()], instance=fresh
        ).eve_wins(sigma_prefix(1))
        assert again == value
        assert second.store_hits > 0
        assert fresh.simulator_runs == 0

    def test_bounded_cache_evicts_oldest_half(self):
        store = SQLiteVerdictStore(":memory:")
        cache = CanonicalVerdictCache(store=store, max_entries=4)
        for i in range(6):
            cache.put(f"ball:{i}", i % 2 == 0)
        assert len(cache) <= 4
        assert cache.evictions > 0
        cache.flush()
        # Evicted entries are re-promotable from the store, not lost.
        assert cache.get("ball:0") is True
        assert cache.store_hits > 0

    def test_drain_records(self):
        cache = CanonicalVerdictCache()
        cache.put("ball:a", True)
        cache.put("ball:b", False)
        records = cache.drain_records()
        assert sorted(records) == [("ball:a", True), ("ball:b", False)]
        assert cache.drain_records() == []


class TestSweepIntegration:
    def test_separations_sweep_reports_positive_hit_rate(self):
        result = run_instances(build_instances("separations"), scenario="separations")
        assert result.canonical is not None
        assert result.canonical["hits"] > 0
        assert result.canonical["hit_rate"] > 0
        assert "canonical" in result.as_dict()

    def test_sweep_persists_node_verdicts_and_rereads_them(self):
        store = SQLiteVerdictStore(":memory:")
        instances = build_instances("separations")
        first = run_instances(instances, store=store, scenario="separations")
        assert store.node_count() > 0
        # A fresh, fully cold evaluation against the same store answers the
        # eligible per-node work from the persistence tier.
        warm_cache = CanonicalVerdictCache(store=store)
        verdicts, _ = evaluate_timed(build_instances("separations"), canonical=warm_cache)
        assert verdicts == first.verdicts
        assert warm_cache.store_hits > 0
