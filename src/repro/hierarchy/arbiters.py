"""Arbiter specifications: a machine plus its game parameters.

An :class:`ArbiterSpec` bundles everything needed to decide membership of a
graph in the class arbitrated by a machine: the machine itself, the identifier
radius it operates under, the certificate radius and polynomial bound, the
quantifier prefix (Sigma or Pi, and the level), and the finite certificate
space searched at each level.  ``decide`` then solves the game.

The specs defined at the bottom are the paper's standard examples:

* LP deciders (level 0): any certificate-free local algorithm;
* the NLP verifier for 3-colorability (Theorem 23's easy direction);
* the NLP verifier for 2-colorability (used in Proposition 24).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence

from repro.graphs.certificates import Polynomial, polynomial
from repro.graphs.identifiers import small_identifier_assignment
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace, color_space, empty_space
from repro.hierarchy.game import Quantifier, eve_wins, pi_prefix, sigma_prefix
from repro.machines import builtin
from repro.machines.interface import NodeMachine
from repro.machines.simulator import execute


@dataclass
class ArbiterSpec:
    """A complete description of a Sigma^lp_l or Pi^lp_l arbiter.

    Attributes
    ----------
    name:
        Human-readable name of the arbitrated property.
    machine:
        The locally polynomial machine acting as arbiter.
    level:
        The number ``l`` of certificate assignments (0 for LP deciders).
    kind:
        ``"Sigma"`` (Eve moves first) or ``"Pi"`` (Adam moves first).
    spaces:
        The finite certificate space searched at each of the ``level`` levels.
    identifier_radius:
        The radius for which identifier assignments must be locally unique.
    certificate_radius, certificate_bound:
        The ``(r, p)``-boundedness parameters the certificates are meant to
        satisfy (checked by :meth:`certificates_bounded`).
    """

    name: str
    machine: NodeMachine
    level: int
    kind: str = "Sigma"
    spaces: Sequence[CertificateSpace] = field(default_factory=tuple)
    identifier_radius: int = 1
    certificate_radius: int = 1
    certificate_bound: Polynomial = field(default_factory=lambda: polynomial(2, 4, 4))

    def __post_init__(self) -> None:
        if self.kind not in ("Sigma", "Pi"):
            raise ValueError("kind must be 'Sigma' or 'Pi'")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if len(self.spaces) != self.level:
            raise ValueError("there must be exactly one certificate space per level")

    # ------------------------------------------------------------------
    def prefix(self) -> List[Quantifier]:
        """The quantifier prefix corresponding to ``kind`` and ``level``."""
        return sigma_prefix(self.level) if self.kind == "Sigma" else pi_prefix(self.level)

    def decide(self, graph: LabeledGraph, ids: Optional[Mapping[Node, str]] = None) -> bool:
        """Whether *graph* has the arbitrated property (Eve wins the game).

        If *ids* is omitted, a small ``identifier_radius``-locally unique
        assignment is constructed; by definition of the classes the outcome
        must not depend on this choice (tests verify this on several
        assignments).

        Solved through the fast :class:`~repro.engine.compiled.CompiledGameEngine`;
        :meth:`decide_naive` runs the exhaustive reference solver instead.
        """
        return self.game_engine(graph, ids).eve_wins(self.prefix())

    def decide_naive(
        self, graph: LabeledGraph, ids: Optional[Mapping[Node, str]] = None
    ) -> bool:
        """Reference path: the exhaustive solver (and, at level 0, one raw execution).

        Kept as the oracle the engine is cross-checked against; exponential
        in the graph size for positive levels.
        """
        if ids is None:
            ids = small_identifier_assignment(graph, self.identifier_radius)
        if self.level == 0:
            return execute(self.machine, graph, ids).accepts()
        return eve_wins(self.machine, graph, ids, list(self.spaces), self.prefix())

    def game_engine(
        self, graph: LabeledGraph, ids: Optional[Mapping[Node, str]] = None
    ) -> "CompiledGameEngine":
        """A :class:`~repro.engine.compiled.CompiledGameEngine` for this spec on *graph*.

        The engine compiles its own instance, so its per-node verdict memo
        starts cold and serves every query made on this engine.
        """
        from repro.engine import CompiledGameEngine

        if ids is None:
            ids = small_identifier_assignment(graph, self.identifier_radius)
        return CompiledGameEngine(self.machine, graph, ids, list(self.spaces))

    def certificates_bounded(self, graph: LabeledGraph, ids: Mapping[Node, str]) -> bool:
        """Whether every candidate certificate respects the ``(r, p)`` bound."""
        return all(
            space.is_bounded(graph, ids, self.certificate_radius, self.certificate_bound)
            for space in self.spaces
        )

    def class_name(self) -> str:
        """The hierarchy class this spec witnesses membership in, e.g. ``Sigma^lp_1``."""
        if self.level == 0:
            return "LP"
        if self.level == 1 and self.kind == "Sigma":
            return "NLP"
        return f"{self.kind}^lp_{self.level}"

    def __repr__(self) -> str:
        return f"ArbiterSpec({self.name!r}, {self.class_name()})"


# ----------------------------------------------------------------------
# Standard specs
# ----------------------------------------------------------------------
def lp_decider_spec(name: str, machine: NodeMachine, identifier_radius: int = 1) -> ArbiterSpec:
    """An LP decider: level 0, no certificates."""
    return ArbiterSpec(
        name=name,
        machine=machine,
        level=0,
        kind="Sigma",
        spaces=(),
        identifier_radius=identifier_radius,
    )


def nlp_verifier_spec(
    name: str,
    machine: NodeMachine,
    space: CertificateSpace,
    identifier_radius: int = 1,
    certificate_radius: int = 1,
) -> ArbiterSpec:
    """An NLP verifier: level 1, Eve chooses one certificate assignment."""
    return ArbiterSpec(
        name=name,
        machine=machine,
        level=1,
        kind="Sigma",
        spaces=(space,),
        identifier_radius=identifier_radius,
        certificate_radius=certificate_radius,
    )


def all_selected_spec() -> ArbiterSpec:
    """LP decider for ``all-selected`` (Remark 17)."""
    return lp_decider_spec("all-selected", builtin.all_selected_decider())


def eulerian_spec() -> ArbiterSpec:
    """LP decider for ``eulerian`` (Proposition 18)."""
    return lp_decider_spec("eulerian", builtin.eulerian_decider())


def three_colorability_spec() -> ArbiterSpec:
    """NLP verifier for ``3-colorable``: Eve's certificate is the node's color."""
    return nlp_verifier_spec(
        "3-colorable", builtin.three_colorability_verifier(), color_space(3)
    )


def two_colorability_spec() -> ArbiterSpec:
    """NLP verifier for ``2-colorable`` (the separation witness of Proposition 24)."""
    return nlp_verifier_spec(
        "2-colorable", builtin.two_colorability_verifier(), color_space(2)
    )
