"""Figure 7: alternation level vs certificate size as locality measures.

Reproduces the two classifications side by side: the alternation class of our
Section 5.2 formulas, and the measured certificate lengths of the
proof-labeling schemes, for the properties shown in Figure 7.
"""

from repro.locality import figure7_rows, figure7_table, all_schemes
from repro.graphs import generators
from repro.sweep import run_scenario

from conftest import report, timed_median_seconds, write_bench_json


def test_figure7_table(benchmark):
    rows = benchmark(figure7_rows)
    by_name = {row.property_name: row for row in rows}
    # Qualitative shape of Figure 7:
    # eulerian is purely local (level 0 / LCP(0)); 3-colorable is almost local
    # (level 1 / O(1)); the spanning-tree properties sit in the middle; the
    # automorphism property needs polynomial certificates.
    assert by_name["eulerian"].paper_lcp_class == "LCP(0)"
    assert by_name["3-colorable"].measured_certificate_lengths is not None
    assert max(by_name["3-colorable"].measured_certificate_lengths.values()) <= 2
    odd_lengths = by_name["odd"].measured_certificate_lengths
    automorphic_lengths = by_name["automorphic"].measured_certificate_lengths
    assert max(automorphic_lengths.values()) > 4 * max(odd_lengths.values()) / 3
    print()
    print(figure7_table())
    write_bench_json(
        "fig07",
        {
            "figure7_rows_median_seconds": timed_median_seconds(figure7_rows),
            "measured_certificate_lengths": {
                row.property_name: row.measured_certificate_lengths
                for row in rows
                if row.measured_certificate_lengths
            },
        },
    )


def test_locality_sweep_scenario(benchmark):
    """The Figure 7 verification games as a registered sweep scenario.

    Every proof-labeling scheme's honest certificates must be accepted on
    every sample graph (completeness), here checked through the sweep
    executor rather than one-off verifier runs.
    """
    result = benchmark(run_scenario, "locality")
    assert result.results, "the locality scenario must produce instances"
    assert all(r.verdict for r in result.results), [
        r.name for r in result.results if not r.verdict
    ]
    write_bench_json(
        "fig07",
        {
            "sweep_locality_median_seconds": timed_median_seconds(
                lambda: run_scenario("locality")
            ),
            "sweep_locality_instances": len(result.results),
        },
    )


def test_proof_labeling_completeness_sweep(benchmark):
    schemes = all_schemes()
    samples = {
        "eulerian": generators.cycle_graph(10),
        "3-colorable": generators.cycle_graph(10),
        "acyclic": generators.random_tree(10, seed=2),
        "odd": generators.path_graph(9),
        "non-2-colorable": generators.cycle_graph(9),
        "automorphic": generators.cycle_graph(8),
    }

    def run():
        return {s.property_name: s.prove_and_verify(samples[s.property_name]) for s in schemes}

    results = benchmark(run)
    assert all(results.values())
    report("Figure 7 proof-labeling completeness", [results])
