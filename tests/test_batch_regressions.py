"""Regression tests for the batch evaluation's identity-based cache keys."""

from __future__ import annotations

import gc

from repro.engine.batch import GameInstance
from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment, small_identifier_assignment
from repro.hierarchy.arbiters import three_colorability_spec
from repro.machines import builtin
from repro.sweep.executor import evaluate_timed


class TestEvaluateBatchLazy:
    def test_lazy_generator_with_dying_machines(self):
        """Machines created and dropped mid-iteration must not alias caches.

        The old ``id(machine)``-based keys could hand a freshly allocated
        machine a dead machine's engine -- and its cached game value.  The
        identity keys hold strong references, so every engine's machine
        stays alive for the duration of the batch.
        """
        graph = generators.path_graph(3)
        ids = sequential_identifier_assignment(graph)

        def lazy_instances():
            for round_index in range(6):
                verdict = "1" if round_index % 2 == 0 else "0"
                machine = builtin.constant_algorithm(verdict)
                yield GameInstance(
                    machine=machine, graph=graph, ids=ids, spaces=[], prefix=[]
                )
                del machine
                gc.collect()

        verdicts, _ = evaluate_timed(lazy_instances())
        assert verdicts == [True, False, True, False, True, False]

    def test_list_input_still_works(self):
        spec = three_colorability_spec()
        graphs = [generators.cycle_graph(3), generators.complete_graph(4)]
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
        verdicts, _ = evaluate_timed(instances)
        assert verdicts == [True, False]
