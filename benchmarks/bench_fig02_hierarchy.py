"""Figures 2 and 13: the hierarchy diagram and its separation witnesses.

Reproduces the executable separations: LP ⊊ NLP (Proposition 24), the
incomparability of coLP and NLP (Proposition 26), and the placement of
3-colorability in NLP \\ LP, times the two witness constructions, and
measures the certificate-game engine against the exhaustive reference
solver on the NLP membership game.
"""

import time

from repro.engine import CompiledGameEngine, CompiledInstance
from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.hierarchy.certificate_spaces import bit_space, color_space
from repro.hierarchy.game import eve_wins, sigma_prefix
from repro.machines import builtin
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.properties.coloring import is_k_colorable
from repro.separations import (
    lp_vs_nlp_separation_report,
    pumping_breaks_verifier,
    separation_table,
)
from repro.sweep import run_scenario

from conftest import (
    report,
    timed_median_seconds,
    timed_median_with_result,
    write_bench_json,
)


def test_lp_strictly_below_nlp(benchmark):
    candidate = NeighborhoodGatherAlgorithm(1, lambda view: "1", name="candidate-decider")
    result = benchmark(lp_vs_nlp_separation_report, candidate, 2)
    assert result["separation_established"]
    report("Proposition 24 (LP ⊊ NLP)", [result])


def test_colp_incomparable_with_nlp(benchmark):
    result = benchmark(pumping_breaks_verifier, 4, 3)
    assert result["verifier_complete"]
    assert result["soundness_broken"]
    report("Proposition 26 (coLP ⋚ NLP)", [result])


def test_full_separation_table(benchmark):
    rows = benchmark(separation_table)
    assert len(rows) >= 8
    report("Figure 2 / Figure 13 facts", [
        {"statement": row["statement"], "kind": row["kind"]} for row in rows
    ])
    write_bench_json(
        "fig02",
        {
            "separation_table_median_seconds": timed_median_seconds(separation_table),
            "separation_table_rows": len(rows),
        },
    )


def test_separations_sweep_scenario(benchmark):
    """The Figure 2 membership games, run as a registered sweep scenario.

    The sweep executor answers the scenario's instances in order through
    the engine, sharing one compiled instance per leaf evaluator; the
    fooling-pair games must come out exactly as Proposition 24 predicts
    (only the doubled cycle is 2-colorable).
    """
    result = benchmark(run_scenario, "separations")
    by_name = {r.name: r.verdict for r in result.results}
    for radius in (1, 2):
        assert by_name[f"2-colorable|fooling-odd-r{radius}|glued"] is False
        assert by_name[f"2-colorable|fooling-doubled-r{radius}|glued"] is True
    assert by_name["3-colorable|k4|small"] is False
    assert by_name["3-colorable|fig1-yes|small"] is True
    write_bench_json(
        "fig02",
        {
            "sweep_separations_median_seconds": timed_median_seconds(
                lambda: run_scenario("separations")
            ),
            "sweep_separations_instances": len(result.results),
        },
    )


def test_engine_speedup_over_naive_game(benchmark):
    """The engine must beat the exhaustive solver by >= 5x on the NLP game.

    The instance is the 3-colorability membership game on a 7-cycle: the
    reference solver expands 3^7 certificate assignments with a full
    LOCAL-model simulation each, the engine solves the same game on a
    compiled instance with pruned innermost search.
    """
    machine = builtin.three_colorability_verifier()
    graph = generators.cycle_graph(7)
    ids = sequential_identifier_assignment(graph)
    spaces = [color_space(3)]
    prefix = sigma_prefix(1)

    start = time.perf_counter()
    naive_value = eve_wins(machine, graph, ids, spaces, prefix)
    naive_seconds = time.perf_counter() - start

    def engine_run():
        # A fresh compiled instance each round: cold lowering and verdict
        # memo, so the measurement includes all setup.
        return CompiledGameEngine(
            machine, graph, ids, spaces, instance=CompiledInstance(machine, graph, ids)
        ).eve_wins(prefix)

    engine_value = benchmark(engine_run)
    assert engine_value == naive_value

    engine_median, engine_result = timed_median_with_result(engine_run, repeats=5)
    assert engine_result == naive_value

    start = time.perf_counter()
    assert engine_run() == naive_value
    engine_seconds = time.perf_counter() - start
    speedup = naive_seconds / engine_seconds
    speedup_median = naive_seconds / engine_median
    report(
        "Engine vs exhaustive solver (Sigma^lp_1 game, C7)",
        [
            {
                "naive_seconds": round(naive_seconds, 4),
                "engine_median_seconds": round(engine_median, 6),
                "speedup_median": round(speedup_median, 1),
            }
        ],
    )
    write_bench_json(
        "fig02",
        {
            "engine_vs_naive": {
                "naive_seconds": naive_seconds,
                "engine_seconds": engine_seconds,
                "engine_median_seconds": engine_median,
                "speedup": round(speedup, 2),
                "speedup_median": round(speedup_median, 2),
            }
        },
    )
    assert speedup_median >= 5.0, (
        f"engine median speedup {speedup_median:.1f}x below the required 5x"
    )


def _figure2_workload():
    """The Figure-2 membership games timed cold by :func:`test_figure2_cold_seconds`.

    The class-membership questions behind the hierarchy diagram --
    3-colorability (NLP via Theorem 23) on the paper's gadgets, complete
    graphs and cycles, and 2-colorability (Proposition 24) on odd/even
    cycles -- under globally unique identifiers, where the verifiers take
    the engine's fast path.  Reject-heavy instances (K4/K5/K6, odd cycles)
    dominate, so the measurement is of cold search work, not of engine
    construction.
    """
    three = builtin.three_colorability_verifier()
    two = builtin.two_colorability_verifier()
    games = []
    for machine, graph, spaces in [
        (three, generators.cycle_graph(7), [color_space(3)]),
        (three, generators.figure1_yes_instance(), [color_space(3)]),
        (three, generators.figure1_no_instance(), [color_space(3)]),
        (three, generators.complete_graph(4), [color_space(3)]),
        (three, generators.complete_graph(5), [color_space(3)]),
        (three, generators.complete_graph(6), [color_space(3)]),
        (three, generators.cycle_graph(15), [color_space(3)]),
        (two, generators.cycle_graph(9), [bit_space()]),
        (two, generators.cycle_graph(13), [bit_space()]),
        (two, generators.cycle_graph(17), [bit_space()]),
    ]:
        ids = sequential_identifier_assignment(graph)
        games.append((machine, graph, ids, spaces, sigma_prefix(1)))
    return games


def test_figure2_cold_seconds(benchmark):
    """Absolute cold time of the Figure-2 workload on the engine.

    Every game gets a fresh ``CompiledInstance`` and engine, so the time
    covers lowering, interning and table construction, not just warm
    lookups.  The median over 5 full-workload passes is recorded as
    ``figure2_cold_median_seconds``, for information: the gated cold
    figure is perfbench's ``sweep-cold`` workload, run by ``repro bench``.
    """
    games = _figure2_workload()

    def run_workload():
        return [
            CompiledGameEngine(
                machine, graph, ids, spaces,
                instance=CompiledInstance(machine, graph, ids),
            ).eve_wins(prefix)
            for machine, graph, ids, spaces, prefix in games
        ]

    cold_median, verdicts = timed_median_with_result(run_workload, repeats=5)
    assert verdicts == [
        is_k_colorable(graph, 3 if machine is games[0][0] else 2)
        for machine, graph, _, _, _ in games
    ]
    benchmark(run_workload)
    report(
        "Engine on the Figure-2 workload (cold)",
        [{"games": len(games), "cold_median_seconds": round(cold_median, 6)}],
    )
    write_bench_json(
        "fig02",
        {
            "figure2_cold_median_seconds": cold_median,
            "figure2_workload_games": len(games),
        },
    )
