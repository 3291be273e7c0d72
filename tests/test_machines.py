"""Tests for the distributed Turing machines and the LOCAL simulator (Section 4)."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.engine import CompiledInstance
from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment, small_identifier_assignment
from repro.machines import builtin, execute
from repro.machines.interface import NodeInput
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm, gather_view
from repro.machines.turing import (
    DistributedTuringMachine,
    Tape,
    accept_machine,
    label_is_one_machine,
)


class TestTape:
    def test_left_end_marker_is_protected(self):
        tape = Tape("01")
        tape.write("1")
        assert tape.cells[0] == "⊢"

    def test_content_strips_markers_and_blanks(self):
        tape = Tape("01")
        tape.head = 3
        tape.write("□")
        assert tape.content() == "01"

    def test_move_never_goes_left_of_zero(self):
        tape = Tape("")
        tape.move(-1)
        assert tape.head == 0


class TestTuringMachines:
    def test_accept_machine_accepts_everything(self, path4):
        ids = sequential_identifier_assignment(path4)
        result = execute(accept_machine(), path4, ids)
        assert result.accepts()
        assert all(label == "1" for label in result.outputs.values())

    def test_label_is_one_machine_decides_all_selected(self):
        machine = label_is_one_machine()
        yes = generators.path_graph(4, labels=["1"] * 4)
        no = generators.path_graph(4, labels=["1", "0", "1", "1"])
        long_label = generators.path_graph(2, labels=["11", "1"])
        ids4 = sequential_identifier_assignment(yes)
        assert execute(machine, yes, ids4).accepts()
        assert not execute(machine, no, ids4).accepts()
        ids2 = sequential_identifier_assignment(long_label)
        assert not execute(machine, long_label, ids2).accepts()

    def test_turing_machine_runs_in_constant_rounds(self, five_cycle):
        ids = sequential_identifier_assignment(five_cycle)
        result = execute(label_is_one_machine(), five_cycle.with_uniform_label("1"), ids)
        assert result.rounds_used == 1

    def test_step_limit_guards_against_runaway(self):
        # A machine that never halts: whatever the three heads read, keep
        # moving the internal head right (the table must cover *every*
        # symbol triple -- missing entries mean "halt by convention").
        import itertools

        transitions = {}
        for symbols in itertools.product(("⊢", "□", "#", "0", "1"), repeat=3):
            transitions[("q_start", *symbols)] = (
                "q_start",
                *symbols,
                0,
                1,
                0,
            )
        machine = DistributedTuringMachine(["q_start"], transitions, rounds=1, step_limit=50)
        graph = generators.single_node("")
        ids = sequential_identifier_assignment(graph)
        with pytest.raises(RuntimeError):
            execute(machine, graph, ids)

    def test_invalid_transition_symbols_rejected(self):
        with pytest.raises(ValueError):
            from repro.machines.turing import TuringTransition

            TuringTransition("q_start", ("x", "0", "1"), "q_stop", ("0", "0", "0"), (0, 0, 0))


class TestSimulator:
    def test_acceptance_by_unanimity(self, one_zero_path):
        ids = sequential_identifier_assignment(one_zero_path)
        result = execute(builtin.all_selected_decider(), one_zero_path, ids)
        verdicts = result.verdicts()
        assert sum(1 for accepted in verdicts.values() if not accepted) == 1
        assert result.rejects()

    def test_result_graph_has_same_topology(self, all_ones_path):
        ids = sequential_identifier_assignment(all_ones_path)
        result = execute(builtin.all_selected_decider(), all_ones_path, ids)
        output = result.result_graph()
        assert output.edges == all_ones_path.edges
        assert all(output.label(u) == "1" for u in output.nodes)

    def test_local_uniqueness_check(self):
        graph = generators.cycle_graph(6)
        bad_ids = {u: "0" for u in graph.nodes}
        with pytest.raises(ValueError):
            execute(builtin.all_selected_decider(), graph, bad_ids, check_local_uniqueness_radius=1)

    def test_neighbor_order_does_not_depend_on_the_hash_seed(self):
        # b's neighbors a and c share identifier "1" (outside the paper's
        # 1-locally unique schemes), so whose certificate b's table keeps
        # under "1" depends on the merge order.  Ties are broken by position
        # in graph.nodes, never by set iteration order: a wins in every
        # interpreter, whatever its string-hash seed.
        script = textwrap.dedent(
            """
            from repro.graphs.labeled_graph import LabeledGraph
            from repro.machines import execute
            from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm

            graph = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
            ids = {"a": "1", "b": "0", "c": "1"}
            machine = NeighborhoodGatherAlgorithm(
                1, lambda view: view.certificates_of("1")[0] or "0"
            )
            result = execute(machine, graph, ids, [{"a": "0", "b": "", "c": "1"}])
            print(result.outputs["b"])
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True, timeout=60,
            )
            outputs.append(completed.stdout.strip())
        assert outputs == ["0", "0"]

    def test_message_statistics_are_recorded(self, five_cycle):
        ids = sequential_identifier_assignment(five_cycle)
        result = execute(NeighborhoodGatherAlgorithm(1, lambda view: "1"), five_cycle, ids)
        assert result.message_volume > 0
        assert result.max_message_length > 0
        assert len(result.messages_per_round) == result.rounds_used


class TestNeighborhoodGathering:
    def test_gathered_view_matches_oracle(self):
        graph = generators.random_connected_graph(7, seed=3, labels=None)
        graph = graph.relabel({u: format(i, "b") for i, u in enumerate(graph.nodes)})
        ids = sequential_identifier_assignment(graph)
        observed = {}

        def record(view):
            observed[view.center] = view
            return "1"

        execute(NeighborhoodGatherAlgorithm(2, record), graph, ids)
        for node in graph.nodes:
            expected = gather_view(graph, ids, node, 2)
            actual = observed[ids[node]]
            assert actual.nodes == expected.nodes
            assert actual.edges == expected.edges
            assert actual.labels == expected.labels
            assert actual.distances == expected.distances

        # The compiled engine's direct path rebuilds the view from its own
        # balls and index arrays instead of simulating the gather; compute
        # must receive the same view, certificates included.
        for graph in (
            generators.path_graph(6),
            generators.cycle_graph(7),
            generators.random_tree(8, seed=5),
        ):
            ids = sequential_identifier_assignment(graph)
            # Every third node carries no certificate (the view shows "").
            certificates = {
                u: format(i, "b") for i, u in enumerate(graph.nodes) if i % 3
            }
            for radius in (0, 1, 2):
                observed = {}
                instance = CompiledInstance(
                    NeighborhoodGatherAlgorithm(radius, record), graph, ids
                )
                assert instance.direct
                assert instance.accepts_dicts([certificates])
                for node in graph.nodes:
                    expected = gather_view(graph, ids, node, radius, [certificates])
                    actual = observed[ids[node]]
                    for field in ("nodes", "edges", "labels", "distances", "certificates"):
                        assert getattr(actual, field) == getattr(expected, field), (
                            field, radius, node,
                        )

    def test_radius_zero_view_contains_only_center(self, five_cycle):
        ids = sequential_identifier_assignment(five_cycle)
        sizes = []
        execute(
            NeighborhoodGatherAlgorithm(0, lambda view: sizes.append(view.size()) or "1"),
            five_cycle,
            ids,
        )
        assert sizes == [1] * 5

    def test_certificates_visible_in_view(self, triangle):
        ids = sequential_identifier_assignment(triangle)
        nodes = list(triangle.nodes)
        certificate = {nodes[0]: "11", nodes[1]: "00", nodes[2]: "01"}
        seen = {}

        def record(view):
            seen[view.center] = view.center_certificates()
            return "1"

        execute(NeighborhoodGatherAlgorithm(1, record), triangle, ids, [certificate])
        assert seen[ids[nodes[0]]] == ("11",)


class TestBuiltinMachines:
    def test_eulerian_decider(self):
        ids_cycle = sequential_identifier_assignment(generators.cycle_graph(6))
        assert execute(builtin.eulerian_decider(), generators.cycle_graph(6), ids_cycle).accepts()
        path = generators.path_graph(4)
        assert not execute(
            builtin.eulerian_decider(), path, sequential_identifier_assignment(path)
        ).accepts()

    def test_coloring_label_verifier(self):
        graph = generators.cycle_graph(4, labels=["0", "1", "0", "1"])
        ids = sequential_identifier_assignment(graph)
        assert execute(builtin.coloring_label_verifier(2), graph, ids).accepts()
        bad = generators.cycle_graph(4, labels=["0", "0", "0", "1"])
        assert not execute(builtin.coloring_label_verifier(2), bad, ids).accepts()

    def test_three_colorability_verifier_with_certificates(self, triangle):
        ids = sequential_identifier_assignment(triangle)
        nodes = list(triangle.nodes)
        good = {nodes[0]: "00", nodes[1]: "01", nodes[2]: "10"}
        bad = {u: "00" for u in nodes}
        malformed = {u: "11" for u in nodes}  # 3 is not a color
        assert execute(builtin.three_colorability_verifier(), triangle, ids, [good]).accepts()
        assert not execute(builtin.three_colorability_verifier(), triangle, ids, [bad]).accepts()
        assert not execute(builtin.three_colorability_verifier(), triangle, ids, [malformed]).accepts()

    def test_constant_algorithm(self, path4):
        ids = sequential_identifier_assignment(path4)
        assert execute(builtin.constant_algorithm("1"), path4, ids).accepts()
        assert not execute(builtin.constant_algorithm("0"), path4, ids).accepts()

    def test_node_input_helpers(self):
        node_input = NodeInput(node="u", label="10", identifier="01", certificates=("1", ""), degree=2)
        assert node_input.certificate_list_string() == "1#"
        assert node_input.internal_tape_content() == "10#01#1#"
