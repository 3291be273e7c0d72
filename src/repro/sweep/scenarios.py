"""The scenario registry: sweeps declared as cross-products, built on demand.

A *scenario* is a named, deterministic recipe producing a list of
:class:`~repro.engine.batch.GameInstance` questions -- typically the
cross-product of graph-family generators, identifier schemes and arbiter
specifications.  Scenarios are registered by name so that

* the CLI (``python -m repro sweep <scenario>``) can run them,
* the verdict daemon (``python -m repro query --scenario NAME --index I``)
  can rebuild exactly the same instance list from nothing but the scenario
  name (machines close over plain Python functions and cannot cross the
  wire; names can), and
* re-runs hit the persistent verdict store, because the recipe is
  deterministic.

The paper's standing workloads are registered out of the box -- the
separation games behind Figure 2 (``separations``), the Figure 7
proof-labeling verification games (``locality``), the compiled Fagin
arbiters of Section 7 (``fagin``) -- alongside new graph families: cycles
swept over identifier schemes (``coloring-cycles``), random regular graphs
(``random-regular``), grids and random trees (``grids-trees``), and the
small gadget graphs of Figures 1/3 plus the fooling pairs (``gadgets``).
``smoke`` is a fast cross-section of all of the above for CI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.engine.batch import GameInstance
from repro.graphs import generators
from repro.graphs.identifiers import (
    cyclic_identifier_assignment,
    random_identifier_assignment,
    sequential_identifier_assignment,
    small_identifier_assignment,
)
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace
from repro.hierarchy.game import Quantifier

ScenarioBuilder = Callable[[], List[GameInstance]]


@dataclass(frozen=True)
class Scenario:
    """A named, deterministic recipe for a list of game instances."""

    name: str
    description: str
    build: ScenarioBuilder
    tags: Tuple[str, ...] = ()

    def instances(self) -> List[GameInstance]:
        return self.build()

    def __repr__(self) -> str:
        return f"Scenario({self.name!r})"


_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(
    name: str, description: str = "", tags: Sequence[str] = ()
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator registering a scenario builder under *name*.

    Re-registering a name replaces the previous scenario (so tests can
    shadow built-ins); the builder must be deterministic, since the daemon
    and warm re-runs rebuild the instance list from scratch.
    """

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        doc = (builder.__doc__ or "").strip()
        _REGISTRY[name] = Scenario(
            name=name,
            description=description or (doc.splitlines()[0] if doc else ""),
            build=builder,
            tags=tuple(tags),
        )
        return builder

    return decorate


def get_scenario(name: str) -> Scenario:
    """The registered scenario called *name* (KeyError with a listing otherwise)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


def build_instances(name: str) -> List[GameInstance]:
    """Build the instance list of the named scenario."""
    return get_scenario(name).instances()


# ----------------------------------------------------------------------
# Cross-product helpers
# ----------------------------------------------------------------------
#: name -> (graph, identifier_radius) -> identifier assignment
IdentifierScheme = Callable[[LabeledGraph, int], Mapping[Node, str]]

IDENTIFIER_SCHEMES: Dict[str, IdentifierScheme] = {
    "small": lambda graph, radius: small_identifier_assignment(graph, radius),
    "sequential": lambda graph, radius: sequential_identifier_assignment(graph),
    "random": lambda graph, radius: random_identifier_assignment(
        graph, radius, rng=random.Random(7)
    ),
}


def instances_for_spec(
    spec,
    graphs: Iterable[Tuple[str, LabeledGraph]],
    id_schemes: Sequence[str] = ("small",),
) -> List[GameInstance]:
    """The cross-product of one arbiter spec with graphs and identifier schemes.

    *graphs* yields ``(tag, graph)`` pairs; every instance is named
    ``"<spec>|<tag>|<scheme>"``.  *spec* is an
    :class:`~repro.hierarchy.arbiters.ArbiterSpec` or anything with
    ``machine``, ``spaces``, ``identifier_radius`` and ``prefix()``.
    """
    instances: List[GameInstance] = []
    for tag, graph in graphs:
        for scheme in id_schemes:
            ids = IDENTIFIER_SCHEMES[scheme](graph, spec.identifier_radius)
            instances.append(
                GameInstance(
                    machine=spec.machine,
                    graph=graph,
                    ids=ids,
                    spaces=list(spec.spaces),
                    prefix=spec.prefix(),
                    name=f"{getattr(spec, 'name', 'spec')}|{tag}|{scheme}",
                )
            )
    return instances


def fixed_certificate_space(
    certificates: Mapping[Node, str], name: str = "fixed"
) -> CertificateSpace:
    """The one-assignment space pinning every node to a given certificate.

    With prefix ``[EXISTS]`` the resulting game is exactly "does the
    arbiter accept these certificates?", which lets certificate
    *verification* workloads (e.g. the Figure 7 proof-labeling schemes) ride
    the same sweep machinery as full games.
    """
    pinned = dict(certificates)
    return CertificateSpace(
        candidates=lambda graph, ids, node: (pinned.get(node, ""),),
        name=name,
    )


# ----------------------------------------------------------------------
# Graph families
# ----------------------------------------------------------------------
def family_cycles(sizes: Sequence[int]) -> List[Tuple[str, LabeledGraph]]:
    return [(f"cycle{n}", generators.cycle_graph(n)) for n in sizes]


def family_paths(sizes: Sequence[int]) -> List[Tuple[str, LabeledGraph]]:
    return [(f"path{n}", generators.path_graph(n)) for n in sizes]


def family_grids(shapes: Sequence[Tuple[int, int]]) -> List[Tuple[str, LabeledGraph]]:
    return [(f"grid{r}x{c}", generators.grid_graph(r, c)) for r, c in shapes]


def family_trees(sizes: Sequence[int], seeds: Sequence[int] = (0,)) -> List[Tuple[str, LabeledGraph]]:
    return [
        (f"tree{n}s{seed}", generators.random_tree(n, seed=seed))
        for n in sizes
        for seed in seeds
    ]


def family_random_regular(
    degree: int, sizes: Sequence[int], seeds: Sequence[int] = (0,)
) -> List[Tuple[str, LabeledGraph]]:
    return [
        (f"reg{degree}n{n}s{seed}", generators.random_regular_graph(degree, n, seed=seed))
        for n in sizes
        for seed in seeds
    ]


def family_gadgets() -> List[Tuple[str, LabeledGraph]]:
    """The small hand-built gadget graphs of Figures 1 and 3."""
    return [
        ("fig1-no", generators.figure1_no_instance()),
        ("fig1-yes", generators.figure1_yes_instance()),
        ("fig3", generators.figure3_graph().with_uniform_label("")),
        ("k4", generators.complete_graph(4)),
    ]


# ----------------------------------------------------------------------
# Built-in scenarios
# ----------------------------------------------------------------------
@register_scenario(
    "smoke",
    "Fast cross-section of every workload (CI smoke sweep).",
    tags=("ci", "fast"),
)
def _smoke_scenario() -> List[GameInstance]:
    from repro.hierarchy.arbiters import (
        eulerian_spec,
        three_colorability_spec,
        two_colorability_spec,
    )

    instances = instances_for_spec(
        three_colorability_spec(),
        family_cycles((4, 5)) + family_gadgets(),
        id_schemes=("small", "sequential"),
    )
    instances += instances_for_spec(
        two_colorability_spec(), family_cycles((5, 6)) + family_paths((4,))
    )
    instances += instances_for_spec(
        eulerian_spec(), family_cycles((6,)) + family_paths((5,))
    )
    return instances


@register_scenario(
    "separations",
    "The membership games behind Figure 2: fooling pairs, gadgets, odd/even cycles.",
    tags=("paper", "figure2"),
)
def _separations_scenario() -> List[GameInstance]:
    from repro.hierarchy.arbiters import three_colorability_spec, two_colorability_spec
    from repro.separations.lp_vs_nlp import fooling_pair

    two_col = two_colorability_spec()
    three_col = three_colorability_spec()

    instances = instances_for_spec(
        three_col, family_gadgets() + family_cycles((3, 4, 7)), id_schemes=("small",)
    )
    instances += instances_for_spec(
        two_col, family_cycles((5, 6, 9, 10)), id_schemes=("small", "sequential")
    )
    # The fooling pair of Proposition 24, with its *glued* identifier
    # assignment: corresponding nodes of the odd and doubled cycle carry the
    # same identifiers, yet only the doubled cycle is 2-colorable.
    for radius in (1, 2):
        pair = fooling_pair(radius)
        for tag, graph, ids in (
            (f"fooling-odd-r{radius}", pair.odd_cycle, pair.odd_ids),
            (f"fooling-doubled-r{radius}", pair.doubled_cycle, pair.doubled_ids),
        ):
            instances.append(
                GameInstance(
                    machine=two_col.machine,
                    graph=graph,
                    ids=ids,
                    spaces=list(two_col.spaces),
                    prefix=two_col.prefix(),
                    name=f"{two_col.name}|{tag}|glued",
                )
            )
    return instances


@register_scenario(
    "locality",
    "Figure 7 proof-labeling verification: honest certificates as one-move games.",
    tags=("paper", "figure7"),
)
def _locality_scenario() -> List[GameInstance]:
    from repro.locality.proof_labeling import all_schemes

    samples: Dict[str, List[Tuple[str, LabeledGraph]]] = {
        "eulerian": family_cycles((6, 10)),
        "3-colorable": family_cycles((6, 10)),
        "acyclic": family_trees((8,), seeds=(2,)),
        "odd": family_paths((5, 9)),
        "non-2-colorable": family_cycles((5, 9)),
        "automorphic": family_cycles((8,)),
    }
    instances: List[GameInstance] = []
    for scheme in all_schemes():
        for tag, graph in samples.get(scheme.property_name, []):
            ids = sequential_identifier_assignment(graph)
            certificates = scheme.prover(graph, ids)
            if certificates is None:
                continue
            instances.append(
                GameInstance(
                    machine=scheme.verifier,
                    graph=graph,
                    ids=ids,
                    spaces=[fixed_certificate_space(certificates, name=f"honest[{scheme.name}]")],
                    prefix=[Quantifier.EXISTS],
                    name=f"pls-{scheme.property_name}|{tag}|sequential",
                )
            )
    return instances


@register_scenario(
    "figure7-verification",
    "The verification games backing the Figure 7 table (drives figure7_rows).",
    tags=("paper", "figure7"),
)
def _figure7_verification_scenario() -> List[GameInstance]:
    from repro.locality.comparison import figure7_verification_instances

    return figure7_verification_instances()


@register_scenario(
    "fagin",
    "Compiled Fagin arbiters (Section 7) played on small graphs.",
    tags=("paper", "section7"),
)
def _fagin_scenario() -> List[GameInstance]:
    from repro.fagin import compile_sentence
    from repro.logic import examples

    three_col = compile_sentence(examples.three_colorable_formula()).spec("fagin-3col")
    all_sel = compile_sentence(examples.all_selected_formula()).spec("fagin-allsel")

    instances = instances_for_spec(
        three_col, family_cycles((3, 4)) + family_paths((3,)), id_schemes=("small",)
    )
    selected_graphs = [
        ("ones-path3", generators.path_graph(3, labels=["1", "1", "1"])),
        ("zero-path3", generators.path_graph(3, labels=["1", "0", "1"])),
    ]
    instances += instances_for_spec(all_sel, selected_graphs, id_schemes=("small",))
    return instances


@register_scenario(
    "coloring-cycles",
    "3- and 2-colorability games on cycles, swept over identifier schemes.",
    tags=("family", "benchmark"),
)
def _coloring_cycles_scenario() -> List[GameInstance]:
    from repro.hierarchy.arbiters import three_colorability_spec, two_colorability_spec

    three_col = three_colorability_spec()
    two_col = two_colorability_spec()
    # ``small`` identifiers collide inside the gather horizon, pushing the
    # engine off its rule kernel onto the (slower) fixpoint path -- one
    # such instance is kept as a deliberately heavy slice, the larger
    # cycles use globally unique schemes and stay on the kernel.
    instances = instances_for_spec(
        three_col, family_cycles((9,)), id_schemes=("small",)
    )
    instances += instances_for_spec(
        three_col,
        family_cycles((9, 12, 15, 18, 21, 24)),
        id_schemes=("sequential", "random"),
    )
    instances += instances_for_spec(
        two_col,
        family_cycles((10, 14, 18, 22)),
        id_schemes=("sequential", "random"),
    )
    # Periodic identifiers (Proposition 26 style): locally unique for the
    # game, but colliding inside the gather horizon, which forces the
    # engine's fixpoint path -- a deliberately heavy slice.
    for length in (12, 16):
        graph = generators.cycle_graph(length)
        ids = cyclic_identifier_assignment(graph, period=4)
        instances.append(
            GameInstance(
                machine=two_col.machine,
                graph=graph,
                ids=ids,
                spaces=list(two_col.spaces),
                prefix=two_col.prefix(),
                name=f"{two_col.name}|cycle{length}|cyclic4",
            )
        )
    return instances


@register_scenario(
    "random-regular",
    "3-colorability games on connected random regular graphs.",
    tags=("family",),
)
def _random_regular_scenario() -> List[GameInstance]:
    from repro.hierarchy.arbiters import three_colorability_spec

    spec = three_colorability_spec()
    # One small-identifier instance exercises the fixpoint path; the rest
    # run with globally unique identifiers on the engine's rule kernel.
    instances = instances_for_spec(
        spec, family_random_regular(3, (8,), seeds=(0,)), id_schemes=("small",)
    )
    instances += instances_for_spec(
        spec,
        family_random_regular(3, (8, 10, 12), seeds=(0, 1))
        + family_random_regular(4, (9, 11), seeds=(0,)),
        id_schemes=("sequential", "random"),
    )
    return instances


@register_scenario(
    "grids-trees",
    "Eulerian / colorability games on grids and random trees.",
    tags=("family",),
)
def _grids_trees_scenario() -> List[GameInstance]:
    from repro.hierarchy.arbiters import (
        eulerian_spec,
        three_colorability_spec,
        two_colorability_spec,
    )

    grids = family_grids(((2, 3), (3, 3), (2, 5)))
    trees = family_trees((7, 10, 13), seeds=(0, 3))
    instances = instances_for_spec(two_colorability_spec(), grids + trees)
    instances += instances_for_spec(three_colorability_spec(), grids, id_schemes=("sequential",))
    instances += instances_for_spec(eulerian_spec(), grids + trees)
    return instances


# ----------------------------------------------------------------------
# Dynamic scenarios: a base game plus a seeded mutation trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DynamicTrace:
    """A dynamic workload: one base game and the deltas replayed over it."""

    base: GameInstance
    deltas: Tuple  # Tuple[repro.engine.dynamic.Delta, ...]

    def __repr__(self) -> str:
        return f"DynamicTrace({self.base.name!r}, steps={len(self.deltas)})"


DynamicBuilder = Callable[[], DynamicTrace]


@dataclass(frozen=True)
class DynamicScenario:
    """A named, deterministic recipe for a :class:`DynamicTrace`.

    Parallel to :class:`Scenario` but producing one evolving game instead
    of a static instance list; the ``dynamic`` CLI subcommand replays the
    trace through :class:`~repro.engine.dynamic.MutableInstance` and can
    differentially verify every step against a full recompute.
    """

    name: str
    description: str
    build: DynamicBuilder
    tags: Tuple[str, ...] = ()

    def trace(self) -> DynamicTrace:
        return self.build()

    def __repr__(self) -> str:
        return f"DynamicScenario({self.name!r})"


_DYNAMIC_REGISTRY: Dict[str, DynamicScenario] = {}


def register_dynamic_scenario(
    name: str, description: str = "", tags: Sequence[str] = ()
) -> Callable[[DynamicBuilder], DynamicBuilder]:
    """Decorator registering a dynamic scenario builder under *name*."""

    def decorate(builder: DynamicBuilder) -> DynamicBuilder:
        doc = (builder.__doc__ or "").strip()
        _DYNAMIC_REGISTRY[name] = DynamicScenario(
            name=name,
            description=description or (doc.splitlines()[0] if doc else ""),
            build=builder,
            tags=tuple(tags),
        )
        return builder

    return decorate


def get_dynamic_scenario(name: str) -> DynamicScenario:
    """The registered dynamic scenario called *name*."""
    try:
        return _DYNAMIC_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_DYNAMIC_REGISTRY)) or "(none)"
        raise KeyError(
            f"unknown dynamic scenario {name!r}; registered: {known}"
        ) from None


def dynamic_scenario_names() -> List[str]:
    """All registered dynamic scenario names, sorted."""
    return sorted(_DYNAMIC_REGISTRY)


@register_dynamic_scenario(
    "dynamic-smoke",
    "Short mixed trace on a 2-colorability cycle (CI differential smoke).",
    tags=("ci", "fast", "dynamic"),
)
def _dynamic_smoke() -> DynamicTrace:
    from repro.engine.dynamic import random_trace
    from repro.hierarchy.arbiters import two_colorability_spec

    spec = two_colorability_spec()
    graph = generators.cycle_graph(12)
    ids = sequential_identifier_assignment(graph)
    base = GameInstance(
        machine=spec.machine,
        graph=graph,
        ids=ids,
        spaces=list(spec.spaces),
        prefix=spec.prefix(),
        name=f"{spec.name}|cycle12|sequential",
    )
    deltas = random_trace(graph, seed=11, steps=8, kinds=("label", "edge"), ids=ids)
    return DynamicTrace(base=base, deltas=tuple(deltas))


@register_dynamic_scenario(
    "dynamic-cycles",
    "Mostly-stable label churn on a cyclic-identifier cycle (the repair showcase).",
    tags=("dynamic", "benchmark"),
)
def _dynamic_cycles() -> DynamicTrace:
    from repro.engine.dynamic import random_trace
    from repro.hierarchy.arbiters import two_colorability_spec

    spec = two_colorability_spec()
    graph = generators.cycle_graph(32)
    # Periodic identifiers collide inside the gather horizon, forcing the
    # memo-heavy fixpoint path -- exactly where repair beats recompute.
    ids = cyclic_identifier_assignment(graph, period=4)
    base = GameInstance(
        machine=spec.machine,
        graph=graph,
        ids=ids,
        spaces=list(spec.spaces),
        prefix=spec.prefix(),
        name=f"{spec.name}|cycle32|cyclic4",
    )
    hot = list(graph.nodes)[:3]
    deltas = random_trace(
        graph, seed=3, steps=10, kinds=("label",), ids=ids, hot_nodes=hot
    )
    return DynamicTrace(base=base, deltas=tuple(deltas))


@register_dynamic_scenario(
    "dynamic-trees",
    "Edge rewiring and label churn on a random tree (3-colorability).",
    tags=("dynamic",),
)
def _dynamic_trees() -> DynamicTrace:
    from repro.engine.dynamic import random_trace
    from repro.hierarchy.arbiters import three_colorability_spec

    spec = three_colorability_spec()
    graph = generators.random_tree(10, seed=5)
    ids = sequential_identifier_assignment(graph)
    base = GameInstance(
        machine=spec.machine,
        graph=graph,
        ids=ids,
        spaces=list(spec.spaces),
        prefix=spec.prefix(),
        name=f"{spec.name}|tree10|sequential",
    )
    deltas = random_trace(graph, seed=23, steps=10, kinds=("label", "edge"), ids=ids)
    return DynamicTrace(base=base, deltas=tuple(deltas))


@register_dynamic_scenario(
    "dynamic-id-churn",
    "Identifier reassignment on a grid (Eulerian decider) plus label flips.",
    tags=("dynamic",),
)
def _dynamic_id_churn() -> DynamicTrace:
    from repro.engine.dynamic import random_trace
    from repro.hierarchy.arbiters import eulerian_spec

    spec = eulerian_spec()
    graph = generators.grid_graph(2, 4)
    ids = sequential_identifier_assignment(graph)
    base = GameInstance(
        machine=spec.machine,
        graph=graph,
        ids=ids,
        spaces=list(spec.spaces),
        prefix=spec.prefix(),
        name=f"{spec.name}|grid2x4|sequential",
    )
    pool = [format(value, "b") for value in range(16, 32)]
    deltas = random_trace(
        graph,
        seed=17,
        steps=10,
        kinds=("label", "id"),
        ids=ids,
        id_pool=tuple(pool),
    )
    return DynamicTrace(base=base, deltas=tuple(deltas))
