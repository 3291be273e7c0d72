"""The separation facts of Figure 2 / Figure 13, assembled into a table.

Each row records a relation between two classes of the locally polynomial
hierarchy (or its complement hierarchy), how the paper proves it, and -- where
this repository contains an executable witness -- a callable producing the
witnessing evidence.  The benchmark ``bench_fig02_hierarchy`` prints this
table together with the results of running the executable witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class HierarchyFact:
    """One inclusion/separation statement of Figure 2 / Figure 13."""

    statement: str
    paper_reference: str
    kind: str  # "inclusion", "strict", "incomparable", "equality(bounded degree)"
    witness_property: Optional[str] = None
    executable: Optional[Callable[[], Dict[str, object]]] = None


def _lp_vs_nlp_witness() -> Dict[str, object]:
    from repro.machines import builtin
    from repro.separations.lp_vs_nlp import lp_vs_nlp_separation_report

    # Any concrete candidate decider is fooled; we use the (sound but
    # incomplete) algorithm that checks 2-colorability of the local view only.
    def local_guess(view):
        return "1"

    from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm

    candidate = NeighborhoodGatherAlgorithm(1, local_guess, name="candidate-2col-decider")
    return lp_vs_nlp_separation_report(candidate, identifier_radius=2)


def _colp_vs_nlp_witness() -> Dict[str, object]:
    from repro.separations.colp_vs_nlp import pumping_breaks_verifier

    return pumping_breaks_verifier(modulus=4, identifier_period=3)


def _three_colorable_witness() -> Dict[str, object]:
    from repro.graphs import generators
    from repro.hierarchy.arbiters import three_colorability_spec
    from repro.properties.coloring import three_colorable
    from repro.sweep import instances_for_spec, run_instances

    spec = three_colorability_spec()
    triangle = generators.cycle_graph(3)
    k4 = generators.complete_graph(4)
    # Both NLP games run through the sweep executor (shared engine caches,
    # and a persistent-store hit when a verdict store is configured).
    sweep = run_instances(
        instances_for_spec(spec, [("triangle", triangle), ("K4", k4)]),
        scenario="figure2-3colorable",
    )
    triangle_wins, k4_wins = sweep.verdicts
    return {
        "triangle_in_NLP_game": triangle_wins,
        "triangle_3colorable": three_colorable(triangle),
        "K4_in_NLP_game": k4_wins,
        "K4_3colorable": three_colorable(k4),
    }


def hierarchy_facts() -> List[HierarchyFact]:
    """The statements depicted in Figure 2 / Figure 13."""
    return [
        HierarchyFact(
            statement="LP ⊆ Sigma^lp_1 = NLP and LP ⊆ Pi^lp_1 (definitional inclusions)",
            paper_reference="Section 4",
            kind="inclusion",
        ),
        HierarchyFact(
            statement="LP ⊊ NLP (2-colorability is verifiable but not decidable)",
            paper_reference="Proposition 24",
            kind="strict",
            witness_property="2-colorable",
            executable=_lp_vs_nlp_witness,
        ),
        HierarchyFact(
            statement="coLP and NLP are incomparable (not-all-selected ∉ NLP)",
            paper_reference="Proposition 26",
            kind="incomparable",
            witness_property="not-all-selected",
            executable=_colp_vs_nlp_witness,
        ),
        HierarchyFact(
            statement="LP ≠ coLP (LP is not closed under complementation)",
            paper_reference="Corollary 27",
            kind="strict",
            witness_property="not-all-selected",
        ),
        HierarchyFact(
            statement="3-colorable ∈ NLP \\ LP (NLP-completeness plus LP ⊊ NLP)",
            paper_reference="Theorem 23, Corollary 25",
            kind="strict",
            witness_property="3-colorable",
            executable=_three_colorable_witness,
        ),
        HierarchyFact(
            statement="non-3-colorable ∉ NLP (coNLP-hardness plus coLP ⋚ NLP)",
            paper_reference="Corollary 28",
            kind="strict",
            witness_property="non-3-colorable",
        ),
        HierarchyFact(
            statement="hamiltonian, non-hamiltonian, non-eulerian ∉ NLP",
            paper_reference="Corollary 29",
            kind="strict",
            witness_property="hamiltonian",
        ),
        HierarchyFact(
            statement="All levels Sigma^lp_l ending in an existential block are distinct",
            paper_reference="Theorem 36 (via pictures and tiling systems)",
            kind="strict",
            witness_property="picture languages",
        ),
        HierarchyFact(
            statement="On graphs of bounded structural degree the dashed inclusions become equalities",
            paper_reference="Proposition 38",
            kind="equality(bounded degree)",
        ),
    ]


def separation_table() -> List[Dict[str, object]]:
    """Evaluate every executable witness and return one row per fact."""
    rows: List[Dict[str, object]] = []
    for fact in hierarchy_facts():
        row: Dict[str, object] = {
            "statement": fact.statement,
            "reference": fact.paper_reference,
            "kind": fact.kind,
            "witness_property": fact.witness_property or "-",
        }
        if fact.executable is not None:
            row["evidence"] = fact.executable()
        rows.append(row)
    return rows
