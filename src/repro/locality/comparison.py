"""The Figure 7 comparison: alternation level vs certificate size.

For each of the example properties of Figure 7 the table records

* the level of the locally bounded hierarchy the paper places it at, together
  with the level our Section 5.2 formula actually achieves (where we have
  one), and
* the LCP certificate-size class the paper places it at, together with the
  certificate sizes measured from the proof-labeling schemes of
  :mod:`repro.locality.proof_labeling` on a family of sample graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.locality.alternation import alternation_levels, locality_band
from repro.locality.proof_labeling import ProofLabelingScheme, all_schemes
from repro.properties.base import property_registry


@dataclass
class Figure7Row:
    """One row of the Figure 7 comparison table."""

    property_name: str
    paper_alternation_class: str
    formula_alternation_class: Optional[str]
    paper_lcp_class: str
    measured_certificate_lengths: Optional[Dict[int, int]]
    #: Whether the scheme's honest certificates were accepted on every
    #: sample graph (checked through the engine's memoizing evaluator;
    #: ``None`` when the property has no executable scheme).
    scheme_verified: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "property": self.property_name,
            "paper alternation": self.paper_alternation_class,
            "our formula": self.formula_alternation_class or "-",
            "paper LCP": self.paper_lcp_class,
            "measured |certificate| by n": self.measured_certificate_lengths or {},
            "scheme verified": self.scheme_verified,
        }


#: The properties shown in Figure 7, in the paper's bottom-to-top order.
FIGURE7_PROPERTIES = [
    "eulerian",
    "3-colorable",
    "odd",
    "acyclic",
    "hamiltonian",
    "non-2-colorable",
    "non-3-colorable",
    "automorphic",
    "prime",
]


def _sample_graphs_for(scheme: ProofLabelingScheme) -> Dict[int, object]:
    """Yes-instances of growing size for measuring certificate lengths."""
    samples = {}
    for size in (5, 9, 15, 21):
        if scheme.property_name == "eulerian":
            graph = generators.cycle_graph(size)
        elif scheme.property_name == "3-colorable":
            graph = generators.cycle_graph(size if size % 2 == 0 else size + 1)
        elif scheme.property_name == "odd":
            graph = generators.path_graph(size if size % 2 == 1 else size + 1)
        elif scheme.property_name == "acyclic":
            graph = generators.random_tree(size, seed=size)
        elif scheme.property_name == "non-2-colorable":
            graph = generators.cycle_graph(size if size % 2 == 1 else size + 1)
        elif scheme.property_name == "automorphic":
            graph = generators.cycle_graph(size)
        else:
            continue
        samples[graph.cardinality()] = graph
    return samples


def _figure7_plan() -> "Tuple[List[Figure7Row], list, List[int]]":
    """The table rows plus the verification games backing their ``verified`` column.

    Returns ``(rows, instances, instance_rows)`` where ``instance_rows[i]``
    is the index of the row that instance ``i``'s verdict belongs to.
    Deterministic (the provers are), which lets the instance list double as
    a registered scenario: the daemon addresses it by name and index, and
    warm re-runs reproduce its store keys.
    """
    from repro.engine.batch import GameInstance
    from repro.hierarchy.game import Quantifier
    from repro.sweep import fixed_certificate_space

    formula_levels = {name: str(cls) for name, cls in alternation_levels().items()}
    schemes = {scheme.property_name: scheme for scheme in all_schemes()}
    rows: List[Figure7Row] = []
    instances: List[GameInstance] = []
    #: parallel to *instances*: the row index whose verification it belongs to.
    instance_rows: List[int] = []
    for name in FIGURE7_PROPERTIES:
        registered = property_registry.get(name)
        paper_alt = registered.paper_alternation_class if registered else "?"
        paper_lcp = registered.paper_lcp_class if registered else "?"
        measured: Optional[Dict[int, int]] = None
        verified: Optional[bool] = None
        if name in schemes:
            scheme = schemes[name]
            measured = {}
            verified = True
            for size, graph in _sample_graphs_for(scheme).items():
                ids = sequential_identifier_assignment(graph)
                certificates = scheme.prover(graph, ids)
                if certificates is None:
                    measured[size] = 0
                    verified = False
                    continue
                measured[size] = max(len(value) for value in certificates.values())
                instances.append(
                    GameInstance(
                        machine=scheme.verifier,
                        graph=graph,
                        ids=ids,
                        spaces=[
                            fixed_certificate_space(certificates, name=f"honest[{scheme.name}]")
                        ],
                        prefix=[Quantifier.EXISTS],
                        name=f"pls-{name}|n{size}",
                    )
                )
                instance_rows.append(len(rows))
        rows.append(
            Figure7Row(
                property_name=name,
                paper_alternation_class=paper_alt or "?",
                formula_alternation_class=formula_levels.get(name),
                paper_lcp_class=paper_lcp or "?",
                measured_certificate_lengths=measured,
                scheme_verified=verified,
            )
        )
    return rows, instances, instance_rows


def figure7_verification_instances() -> list:
    """The verification games backing the table, for the scenario registry.

    Registered as the built-in ``figure7-verification`` scenario in
    :mod:`repro.sweep.scenarios`; ``figure7_rows`` runs exactly this list,
    so a table computed against a store shares its verdicts with
    ``repro sweep figure7-verification`` against that store.
    """
    return _figure7_plan()[1]


def figure7_rows(store: Union[str, object, None] = None) -> List[Figure7Row]:
    """Compute the Figure 7 table rows.

    The honest-certificate verification games of every scheme x sample pair
    are collected into one batch and run through the sweep executor as the
    registered ``figure7-verification`` scenario: engines are shared across
    pairs, and *store* makes re-tabulations incremental across sessions.
    """
    from repro.sweep import run_instances

    rows, instances, instance_rows = _figure7_plan()
    sweep = run_instances(instances, store=store, scenario="figure7-verification")
    for row_index, result in zip(instance_rows, sweep.results):
        if not result.verdict:
            rows[row_index].scheme_verified = False
    return rows


def figure7_table() -> str:
    """A human-readable rendering of the Figure 7 comparison."""
    rows = figure7_rows()
    header = (
        f"{'property':<18} {'paper-alt':<28} {'our formula':<16} {'paper-LCP':<16} "
        f"{'verified':<9} measured certificate bits"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        measured = (
            ", ".join(f"n={size}: {length}" for size, length in sorted(row.measured_certificate_lengths.items()))
            if row.measured_certificate_lengths
            else "-"
        )
        verified = "-" if row.scheme_verified is None else ("yes" if row.scheme_verified else "NO")
        lines.append(
            f"{row.property_name:<18} {row.paper_alternation_class:<28} "
            f"{(row.formula_alternation_class or '-'):<16} {row.paper_lcp_class:<16} "
            f"{verified:<9} {measured}"
        )
    return "\n".join(lines)
