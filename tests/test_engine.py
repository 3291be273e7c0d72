"""Engine/oracle equivalence: the compiled game engine vs the exhaustive solver.

The engine (``repro.engine``) must be observationally equivalent to the
reference solver ``repro.hierarchy.game.eve_wins`` -- same game values, same
winning first moves -- on every machine kind (direct gather path, generic
simulation path, Turing machines, raw node machines), every quantifier
prefix and every certificate space.  Leaf verdicts are checked against a
full simulator execution.  These tests assert that equivalence on
randomized small instances, plus the engine-specific behaviors
(memoization, batching, sharing).
"""

import random

import pytest

from repro.engine import (
    CompiledGameEngine,
    CompiledInstance,
    GameInstance,
)
from repro.graphs import generators
from repro.graphs.identifiers import (
    random_identifier_assignment,
    sequential_identifier_assignment,
)
from repro.hierarchy.certificate_spaces import (
    bit_space,
    color_space,
    empty_space,
    enumerated_space,
)
from repro.hierarchy.game import (
    Quantifier,
    eve_wins,
    pi_prefix,
    sigma_prefix,
    winning_first_move,
)
from repro.machines import builtin
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.machines.simulator import execute
from repro.machines.turing import label_is_one_machine
from repro.sweep.executor import evaluate_timed


class _SubclassedGather(NeighborhoodGatherAlgorithm):
    """Behaviorally identical subclass: forces the engine's simulation path.

    The direct path is taken only for plain ``NeighborhoodGatherAlgorithm``
    instances, so running the same compute function through a subclass pits
    the two strategies against each other.
    """


def _engine(machine, graph, ids, spaces):
    """A cold engine: fresh compiled instance and memo."""
    return CompiledGameEngine(
        machine, graph, ids, spaces, instance=CompiledInstance(machine, graph, ids)
    )


def _graph_pool():
    return [
        generators.cycle_graph(3),
        generators.cycle_graph(5),
        generators.path_graph(2, labels=["1", "1"]),
        generators.path_graph(4, labels=["1", "0", "1", "1"]),
        generators.star_graph(4),
        generators.complete_graph(4),
        generators.random_tree(5, seed=7),
    ]


def _node_verdicts(instance, assignments):
    """Every node's verdict under per-level certificate dicts (no short-circuit)."""
    state = instance.new_state(len(assignments))
    for level, assignment in enumerate(assignments):
        state.load_level(level, assignment)
    return {
        node: instance.node_verdict_state(u, state)
        for u, node in enumerate(instance.nodes)
    }


def _certificate_parity_machine():
    """Accept at a node iff the parity of 1-bits in view certificates is even."""

    def compute(view):
        ones = sum(
            cert.count("1")
            for _, certs in view.certificates
            for cert in certs
        )
        return "1" if ones % 2 == 0 else "0"

    return NeighborhoodGatherAlgorithm(1, compute, name="cert-parity")


def _machine_pool():
    return [
        builtin.three_colorability_verifier(),
        builtin.two_colorability_verifier(),
        builtin.eulerian_decider(),
        builtin.all_selected_decider(),
        _certificate_parity_machine(),
    ]


def _space_pool():
    return [
        bit_space(),
        color_space(2),
        color_space(3),
        empty_space(),
        enumerated_space(("", "1"), name="maybe-one"),
    ]


class TestLeafEquivalence:
    """Compiled leaf verdicts must agree with a full simulator execution."""

    @pytest.mark.parametrize("seed", range(4))
    def test_direct_path_matches_simulator(self, seed):
        rng = random.Random(seed)
        for graph in _graph_pool():
            ids = sequential_identifier_assignment(graph)
            machine = _certificate_parity_machine()
            instance = CompiledInstance(machine, graph, ids)
            assert instance.direct
            certificates = {u: rng.choice(["", "0", "1", "11"]) for u in graph.nodes}
            expected = execute(machine, graph, ids, [certificates]).accepts()
            assert instance.accepts_dicts([certificates]) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_simulation_path_matches_simulator(self, seed):
        rng = random.Random(100 + seed)
        machine = _SubclassedGather(
            1, _certificate_parity_machine().compute, name="cert-parity-sub"
        )
        for graph in _graph_pool():
            ids = sequential_identifier_assignment(graph)
            instance = CompiledInstance(machine, graph, ids)
            assert not instance.direct
            certificates = {u: rng.choice(["", "0", "1"]) for u in graph.nodes}
            expected = execute(machine, graph, ids, [certificates]).accepts()
            assert instance.accepts_dicts([certificates]) == expected

    def test_turing_machine_path(self):
        machine = label_is_one_machine()
        for graph in (
            generators.path_graph(3, labels=["1", "1", "1"]),
            generators.path_graph(3, labels=["1", "0", "1"]),
            generators.cycle_graph(4),
        ):
            ids = sequential_identifier_assignment(graph)
            instance = CompiledInstance(machine, graph, ids)
            expected = execute(machine, graph, ids).accepts()
            assert instance.accepts_dicts([]) == expected

    def test_memoization_hits_on_repeated_leaves(self):
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(builtin.three_colorability_verifier(), graph, ids)
        certificates = {u: "00" for u in graph.nodes}
        instance.accepts_dicts([certificates])
        misses = instance.memo_misses
        instance.accepts_dicts([certificates])
        assert instance.memo_misses == misses
        assert instance.memo_hits > 0

    def test_id_collision_at_gather_horizon_forces_fallback(self):
        # Regression: two nodes sharing an identifier at distance radius + 1
        # plant phantom entries in the *simulated* gather (an out-of-view
        # name-sharer reports an edge between two in-view identifiers), so
        # the direct path must not be taken -- the engine has to fall back
        # to simulation and reproduce the simulator's answer exactly.
        def compute(view):
            neighbors = sorted(view.neighbors_of(view.center))
            for i in range(len(neighbors)):
                for j in range(i + 1, len(neighbors)):
                    if frozenset({neighbors[i], neighbors[j]}) in view.edges:
                        return "1"
            return "0"

        machine = NeighborhoodGatherAlgorithm(1, compute, name="triangle-corner")
        graph = generators.path_graph(5)
        nodes = list(graph.nodes)
        ids = dict(zip(nodes, ["0", "1", "2", "3", "1"]))  # collision at distance 3
        instance = CompiledInstance(machine, graph, ids)
        assert not instance.direct
        expected = execute(machine, graph, ids).verdicts()
        assert _node_verdicts(instance, []) == expected
        for prefix in (sigma_prefix(1), pi_prefix(1)):
            oracle = eve_wins(machine, graph, ids, [bit_space()], prefix)
            assert _engine(machine, graph, ids, [bit_space()]).eve_wins(prefix) == oracle

    def test_ball_subgraph_preserves_influential_degrees(self):
        # Regression guard for the simulation path's truncation argument: a
        # machine whose round-1 messages carry node degrees must see the
        # same degrees on the induced ball subgraph as on the full graph
        # (nodes at distance max_rounds cannot influence the center).  On
        # graphs whose balls span every node, one execution is harvested
        # into every node's memo slot.
        class DegreeEcho:
            def initial_state(self, node_input):
                return {"deg": node_input.degree, "got": None}

            def round(self, state, received, round_index):
                if round_index == 1:
                    return state, [str(state["deg"])] * state["deg"], False
                state["got"] = list(received)
                return state, [""] * state["deg"], True

            def output(self, state):
                if state["got"] is None:
                    return "0"
                return "1" if all(m and int(m) >= 2 for m in state["got"]) else "0"

            def max_rounds(self):
                return 2

        machine = DegreeEcho()
        for graph in (
            generators.path_graph(7),
            generators.cycle_graph(6),
            generators.star_graph(5),
            generators.random_tree(8, seed=3),
        ):
            ids = sequential_identifier_assignment(graph)
            instance = CompiledInstance(machine, graph, ids)
            expected = execute(machine, graph, ids).verdicts()
            assert _node_verdicts(instance, []) == expected

    def test_restriction_localizes_certificate_changes(self):
        # Changing one node's certificate must not invalidate nodes whose
        # ball does not contain it.
        graph = generators.path_graph(4)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(builtin.eulerian_decider(), graph, ids)
        nodes = list(graph.nodes)
        first = {u: "0" for u in nodes}
        _node_verdicts(instance, [first])
        misses = instance.memo_misses
        changed = dict(first)
        changed[nodes[-1]] = "1"  # outside the balls of nodes[0] and nodes[1]
        _node_verdicts(instance, [changed])
        assert instance.memo_misses - misses <= 2


class TestGameEquivalence:
    """Engine game values vs the exhaustive reference solver."""

    @pytest.mark.parametrize("level", [0, 1])
    def test_randomized_equivalence(self, level):
        rng = random.Random(level)
        for trial in range(12):
            graph = rng.choice(_graph_pool())
            machine = rng.choice(_machine_pool())
            spaces = [rng.choice(_space_pool()) for _ in range(level)]
            ids = sequential_identifier_assignment(graph)
            for prefix in (sigma_prefix(level), pi_prefix(level)):
                expected = eve_wins(machine, graph, ids, spaces, prefix)
                engine = _engine(machine, graph, ids, spaces)
                assert engine.eve_wins(prefix) == expected, (
                    trial,
                    machine,
                    graph,
                    [space.name for space in spaces],
                    prefix,
                )

    @pytest.mark.slow
    def test_randomized_equivalence_level_two(self):
        rng = random.Random(2)
        small_graphs = [
            generators.path_graph(2, labels=["1", "1"]),
            generators.cycle_graph(3),
            generators.path_graph(3, labels=["1", "0", "1"]),
        ]
        small_spaces = [bit_space(), enumerated_space(("", "1"), name="maybe-one")]
        for trial in range(8):
            graph = rng.choice(small_graphs)
            machine = rng.choice(_machine_pool())
            spaces = [rng.choice(small_spaces) for _ in range(2)]
            ids = sequential_identifier_assignment(graph)
            for prefix in (sigma_prefix(2), pi_prefix(2)):
                expected = eve_wins(machine, graph, ids, spaces, prefix)
                engine = _engine(machine, graph, ids, spaces)
                assert engine.eve_wins(prefix) == expected, (trial, prefix)

    @pytest.mark.slow
    def test_equivalence_under_random_identifiers(self):
        rng = random.Random(3)
        machine = builtin.three_colorability_verifier()
        for seed in range(3):
            graph = generators.cycle_graph(5)
            ids = random_identifier_assignment(graph, 1, rng=random.Random(seed))
            expected = eve_wins(machine, graph, ids, [color_space(3)], sigma_prefix(1))
            engine = _engine(machine, graph, ids, [color_space(3)])
            assert engine.eve_wins(sigma_prefix(1)) == expected

    def test_simulation_and_direct_paths_agree_in_games(self):
        compute = _certificate_parity_machine().compute
        direct_machine = NeighborhoodGatherAlgorithm(1, compute, name="p")
        generic_machine = _SubclassedGather(1, compute, name="p-sub")
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        for prefix_fn in (sigma_prefix, pi_prefix):
            direct = _engine(direct_machine, graph, ids, [bit_space()])
            generic = _engine(generic_machine, graph, ids, [bit_space()])
            assert direct.compiled.direct and not generic.compiled.direct
            assert direct.eve_wins(prefix_fn(1)) == generic.eve_wins(prefix_fn(1))

    def test_fixed_prefix_equivalence(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        fixed = [{u: "00" for u in graph.nodes}]
        expected = eve_wins(machine, graph, ids, [color_space(3)], sigma_prefix(1), fixed)
        engine = _engine(machine, graph, ids, [color_space(3)])
        assert engine.eve_wins(sigma_prefix(1), fixed) == expected

    def test_prefix_length_validation(self):
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        engine = _engine(builtin.constant_algorithm(), graph, ids, [bit_space()])
        with pytest.raises(ValueError):
            engine.eve_wins([])


class TestWinningMoves:
    def test_move_parity_with_reference(self):
        machine = builtin.three_colorability_verifier()
        for graph in (generators.cycle_graph(3), generators.complete_graph(4)):
            ids = sequential_identifier_assignment(graph)
            expected = winning_first_move(
                machine, graph, ids, [color_space(3)], sigma_prefix(1)
            )
            engine = _engine(machine, graph, ids, [color_space(3)])
            assert engine.winning_first_move(sigma_prefix(1)) == expected

    def test_adam_refutation_on_pi_game(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        engine = _engine(machine, graph, ids, [color_space(3)])
        move = engine.winning_first_move(pi_prefix(1))
        # Adam can always refute: e.g. a monochromatic assignment.
        assert move is not None
        assert not engine.eve_wins(pi_prefix(1), [move])


class TestBatchAPI:
    def test_batch_matches_individual_decisions(self):
        from repro.graphs.identifiers import small_identifier_assignment
        from repro.hierarchy.arbiters import three_colorability_spec

        spec = three_colorability_spec()
        graphs = [
            generators.cycle_graph(3),
            generators.complete_graph(4),
            generators.cycle_graph(5),
        ]
        instances = [
            GameInstance(
                spec.machine,
                graph,
                small_identifier_assignment(graph, spec.identifier_radius),
                list(spec.spaces),
                spec.prefix(),
            )
            for graph in graphs
        ]
        values, _ = evaluate_timed(instances)
        assert values == [spec.decide(graph) for graph in graphs]
        assert values == [spec.decide_naive(graph) for graph in graphs]

    def test_batch_shares_engines_across_prefixes(self, monkeypatch):
        # Each game gets its own engine, but the three games of one
        # (machine, graph, ids) run on one compiled instance.
        from repro.engine import compiled

        built = []

        def counting_compile(*args):
            built.append(args)
            return CompiledInstance(*args)

        monkeypatch.setattr(compiled, "compile_instance", counting_compile)
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        spaces = [color_space(3)]
        instances = [
            GameInstance(machine, graph, ids, spaces, sigma_prefix(1)),
            GameInstance(machine, graph, ids, spaces, pi_prefix(1)),
            GameInstance(machine, graph, ids, spaces, sigma_prefix(1)),
        ]
        (sigma_value, pi_value, sigma_again), _ = evaluate_timed(instances)
        assert sigma_value is True
        assert pi_value is False
        assert sigma_again is True
        assert len(built) == 1


class TestSpecIntegration:
    def test_spec_decide_matches_naive(self):
        from repro.hierarchy.arbiters import (
            all_selected_spec,
            eulerian_spec,
            three_colorability_spec,
            two_colorability_spec,
        )

        graphs = [
            generators.cycle_graph(3),
            generators.cycle_graph(4),
            generators.star_graph(4),
            generators.path_graph(3, labels=["1", "1", "1"]),
        ]
        for spec in (
            all_selected_spec(),
            eulerian_spec(),
            three_colorability_spec(),
            two_colorability_spec(),
        ):
            for graph in graphs:
                assert spec.decide(graph) == spec.decide_naive(graph), (spec, graph)
