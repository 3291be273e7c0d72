"""Precomputed radius-``r`` balls and static local views (the fallback substrate).

In the LOCAL model the verdict of a node ``u`` after ``t`` rounds is a
function of the radius-``t`` ball around ``u`` -- its topology, labels and
identifiers (all fixed for the duration of a game) plus the certificates of
the ball's nodes (the only part that changes between game positions).  The
compiled core (:mod:`repro.engine.compiled`) keys its verdict memo on that
fact; for machines without a table-driven kernel it evaluates a memo miss
through the :class:`BallIndex`, which precomputes, once per
``(graph, ids, radius)`` triple,

* the ball ``N^G_r(u)`` of every node, as a tuple in the graph's node order,
* the *static* part of a node's :class:`~repro.machines.local_algorithm.LocalView`
  (center, nodes, edges, labels, distances -- everything except
  certificates), built lazily on first use (only the direct view path
  reads views),
* the induced subgraph of a node's ball (also lazy, for the ball
  simulation path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.machines.local_algorithm import LocalView


@dataclass(frozen=True)
class _StaticView:
    """The certificate-independent part of a node's :class:`LocalView`."""

    center: str
    radius: int
    nodes: FrozenSet[str]
    edges: FrozenSet[FrozenSet[str]]
    labels: Tuple[Tuple[str, str], ...]
    distances: Tuple[Tuple[str, int], ...]
    #: Ball nodes paired with their identifiers, in ball order (used to build
    #: the per-assignment certificates tuple).
    id_pairs: Tuple[Tuple[Node, str], ...]


class BallIndex:
    """Radius-``r`` ball cache for a fixed ``(graph, ids)`` instance.

    Parameters
    ----------
    graph, ids:
        The input graph and its identifier assignment.  Both are treated as
        immutable for the lifetime of the index (``LabeledGraph`` already is;
        the identifier mapping is copied).
    radius:
        The dependency radius: a node's verdict depends on the certificates
        of its radius-``radius`` ball only.  For a gather-style algorithm this
        is the gathering radius; for a generic machine it is its round bound
        (information cannot travel further than one hop per round).
    """

    __slots__ = ("graph", "ids", "radius", "_node_order", "_balls", "_static", "_subgraphs")

    def __init__(self, graph: LabeledGraph, ids: Mapping[Node, str], radius: int) -> None:
        if radius < 0:
            raise ValueError("the ball radius must be nonnegative")
        self.graph = graph
        self.ids: Dict[Node, str] = dict(ids)
        self.radius = radius
        self._node_order: Tuple[Node, ...] = graph.nodes
        self._balls: Dict[Node, Tuple[Node, ...]] = {}
        self._static: Dict[Node, _StaticView] = {}
        self._subgraphs: Dict[Node, LabeledGraph] = {}
        position = {u: i for i, u in enumerate(self._node_order)}
        for u in self._node_order:
            ball_set = graph.ball(u, radius)
            self._balls[u] = tuple(sorted(ball_set, key=position.__getitem__))

    def covers_graph(self, node: Node) -> bool:
        """Whether the node's ball contains every node of the graph."""
        return len(self._balls[node]) == len(self._node_order)

    def view(self, node: Node, assignments: Sequence[Mapping[Node, str]]) -> LocalView:
        """The node's :class:`LocalView` under the given certificate assignments.

        Reconstructs, without running the simulator, exactly the view a
        :class:`~repro.machines.local_algorithm.NeighborhoodGatherAlgorithm`
        of this index's radius would hand to its ``compute`` function (see
        :func:`repro.machines.local_algorithm.gather_view`, the central
        oracle the tests check the simulator against).
        """
        static = self._static.get(node)
        if static is None:
            static = self._build_static(node)
            self._static[node] = static
        certificates = tuple(
            sorted(
                (identifier, tuple(assignment.get(v, "") for assignment in assignments))
                for v, identifier in static.id_pairs
            )
        )
        return LocalView(
            center=static.center,
            radius=static.radius,
            nodes=static.nodes,
            edges=static.edges,
            labels=static.labels,
            certificates=certificates,
            distances=static.distances,
        )

    def ball_subgraph(self, node: Node) -> LabeledGraph:
        """The induced subgraph of the node's ball (cached; for generic machines)."""
        if node not in self._subgraphs:
            if self.covers_graph(node):
                self._subgraphs[node] = self.graph
            else:
                self._subgraphs[node] = self.graph.induced_subgraph(self._balls[node])
        return self._subgraphs[node]

    # ------------------------------------------------------------------
    def _build_static(self, node: Node) -> _StaticView:
        graph, ids = self.graph, self.ids
        ball = self._balls[node]
        ball_set = set(ball)
        id_pairs = tuple((v, ids[v]) for v in ball)
        distances = graph.distances_from(node)
        return _StaticView(
            center=ids[node],
            radius=self.radius,
            nodes=frozenset(identifier for _, identifier in id_pairs),
            edges=frozenset(
                frozenset({ids[u], ids[v]})
                for u, v in graph.edge_pairs()
                if u in ball_set and v in ball_set
            ),
            labels=tuple(sorted((ids[v], graph.label(v)) for v in ball)),
            distances=tuple(sorted((ids[v], distances[v]) for v in ball)),
            id_pairs=id_pairs,
        )

    def __repr__(self) -> str:
        return (
            f"BallIndex(nodes={len(self._node_order)}, radius={self.radius}, "
            f"max_ball={max(len(b) for b in self._balls.values())})"
        )
