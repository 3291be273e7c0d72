"""Finite certificate spaces: the moves available to Eve and Adam.

The paper lets certificates be arbitrary ``(r, p)``-bounded bit strings.  To
solve the game exhaustively we fix, per quantifier level, a finite set of
candidate certificates for every node; the arbiter must be written so that
certificates outside its expected format simply cause rejection (exactly as
in the proof of Lemma 11, where overly large certificates are rejected), so
restricting the enumeration to the candidates the arbiter can meaningfully
read does not change who wins the game.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.graphs.certificates import Polynomial, is_rp_bounded, neighborhood_information
from repro.graphs.identifiers import IdentifierAssignment
from repro.graphs.labeled_graph import LabeledGraph, Node

CandidateFunction = Callable[[LabeledGraph, Mapping[Node, str], Node], Sequence[str]]


@dataclass(frozen=True)
class CertificateSpace:
    """A finite space of per-node certificates.

    Attributes
    ----------
    candidates:
        A function mapping ``(graph, ids, node)`` to the candidate certificate
        strings available at that node.
    name:
        A human-readable description, used in reprs and error messages.
    """

    candidates: CandidateFunction
    name: str = "certificate-space"

    def node_candidates(
        self, graph: LabeledGraph, ids: Mapping[Node, str], node: Node
    ) -> List[str]:
        """The candidate certificates of *node* (as a list, preserving order)."""
        return list(self.candidates(graph, ids, node))

    def assignments(
        self, graph: LabeledGraph, ids: Mapping[Node, str]
    ) -> Iterator[Dict[Node, str]]:
        """All certificate assignments drawing each node's certificate from its candidates."""
        nodes = list(graph.nodes)
        per_node = [self.node_candidates(graph, ids, u) for u in nodes]
        for combination in itertools.product(*per_node):
            yield dict(zip(nodes, combination))

    def assignment_count(self, graph: LabeledGraph, ids: Mapping[Node, str]) -> int:
        """The number of assignments (product of per-node candidate counts)."""
        count = 1
        for u in graph.nodes:
            count *= max(1, len(self.node_candidates(graph, ids, u)))
        return count

    def is_bounded(
        self,
        graph: LabeledGraph,
        ids: Mapping[Node, str],
        radius: int,
        bound: Polynomial,
    ) -> bool:
        """Whether every candidate at every node satisfies the ``(radius, bound)`` condition."""
        for u in graph.nodes:
            info = neighborhood_information(graph, ids, u, radius)
            for candidate in self.node_candidates(graph, ids, u):
                if len(candidate) > bound(info):
                    return False
        return True

    def __repr__(self) -> str:
        return f"CertificateSpace({self.name!r})"


@dataclass(frozen=True)
class MaterializedSpace:
    """A certificate space evaluated on one ``(graph, ids)`` instance.

    This is the *coded form* of the space: the per-node candidate lists (in
    graph node order, preserving each node's enumeration order) plus the
    sorted alphabet of distinct candidate strings.  The compiled engine
    core interns exactly these strings into its integer alphabet, and the
    sweep store's fingerprints hash exactly these lists.  Each consumer
    materializes for itself: a materialization is cheap next to the game
    it feeds (a few microseconds on a dozen nodes).
    """

    space_name: str
    per_node: Tuple[Tuple[str, ...], ...]
    alphabet: Tuple[str, ...]

    def assignment_count(self) -> int:
        """Product of per-node candidate counts (empty sets count as one)."""
        count = 1
        for candidates in self.per_node:
            count *= max(1, len(candidates))
        return count


def materialize_space(
    space: CertificateSpace, graph: LabeledGraph, ids: Mapping[Node, str]
) -> MaterializedSpace:
    """The :class:`MaterializedSpace` of *space* on ``(graph, ids)``, built afresh.

    ``per_node`` is positional in ``graph.nodes``, so equal graphs listed
    in different node orders materialize differently.
    """
    per_node = tuple(tuple(space.node_candidates(graph, ids, u)) for u in graph.nodes)
    alphabet = tuple(sorted({c for candidates in per_node for c in candidates}))
    return MaterializedSpace(space_name=space.name, per_node=per_node, alphabet=alphabet)


def enumerated_space(strings: Sequence[str], name: str = "") -> CertificateSpace:
    """The space in which every node may pick any of the given strings."""
    fixed = tuple(strings)
    return CertificateSpace(
        candidates=lambda graph, ids, node: fixed,
        name=name or f"enumerated{list(fixed)!r}",
    )


def bit_space() -> CertificateSpace:
    """Single-bit certificates ``{"0", "1"}``."""
    return enumerated_space(("0", "1"), name="bit")


def color_space(colors: int) -> CertificateSpace:
    """Certificates encoding a color in ``{0, ..., colors-1}`` as a fixed-width bit string."""
    width = max(1, (colors - 1).bit_length())
    values = tuple(format(i, "b").zfill(width) for i in range(colors))
    return enumerated_space(values, name=f"color[{colors}]")


def empty_space() -> CertificateSpace:
    """The trivial space containing only the empty certificate."""
    return enumerated_space(("",), name="empty")


def bounded_strings_space(max_length: int, name: str = "") -> CertificateSpace:
    """All bit strings of length at most *max_length* (grows exponentially; keep tiny)."""
    strings: List[str] = [""]
    for length in range(1, max_length + 1):
        strings.extend("".join(bits) for bits in itertools.product("01", repeat=length))
    return enumerated_space(tuple(strings), name=name or f"strings<= {max_length}")
