"""Labeled graphs as defined in Section 3 of the paper.

A labeled graph is a triple ``G = (V, E, lambda)`` where ``V`` is a finite
nonempty set of nodes, ``E`` is a set of undirected edges making the graph
connected, and ``lambda`` assigns a bit string to every node.  All graphs are
finite, simple, undirected and connected.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    import networkx as nx

Node = Hashable
Edge = Tuple[Node, Node]

_BIT_CHARS = frozenset("01")


def _check_bitstring(label: str) -> str:
    """Validate that *label* is a bit string (possibly empty)."""
    if not isinstance(label, str):
        raise TypeError(f"label must be a str of bits, got {type(label).__name__}")
    if not set(label) <= _BIT_CHARS:
        raise ValueError(f"label must consist of '0'/'1' characters only, got {label!r}")
    return label


class LabeledGraph:
    """A finite, simple, undirected, connected graph with bit-string labels.

    Parameters
    ----------
    nodes:
        Iterable of hashable node identities.  Must be nonempty.
    edges:
        Iterable of 2-element node pairs (a pair repeated in either order
        is one edge).  Self-loops are rejected; the graph must be connected.
    labels:
        Mapping from node to bit-string label.  Nodes absent from the mapping
        receive the empty label ``""``.
    """

    __slots__ = ("_adjacency", "_labels", "_nodes", "_edges")

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[Edge],
        labels: Optional[Mapping[Node, str]] = None,
    ) -> None:
        node_list = list(nodes)
        if not node_list:
            raise ValueError("a labeled graph must have at least one node")
        node_set = set(node_list)
        if len(node_set) != len(node_list):
            raise ValueError("duplicate nodes are not allowed")

        adjacency: Dict[Node, Set[Node]] = {u: set() for u in node_list}
        edge_set: Set[FrozenSet[Node]] = set()
        for u, v in edges:
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u!r}, {v!r}) refers to unknown node")
            if u == v:
                raise ValueError(f"self-loop at node {u!r} is not allowed (graphs are simple)")
            edge_set.add(frozenset((u, v)))
            adjacency[u].add(v)
            adjacency[v].add(u)

        label_map: Dict[Node, str] = {u: "" for u in node_list}
        if labels is not None:
            for u, lab in labels.items():
                if u not in node_set:
                    raise ValueError(f"label given for unknown node {u!r}")
                label_map[u] = _check_bitstring(lab)

        self._nodes: Tuple[Node, ...] = tuple(node_list)
        self._edges: FrozenSet[FrozenSet[Node]] = frozenset(edge_set)
        self._adjacency = {u: frozenset(neigh) for u, neigh in adjacency.items()}
        self._labels = label_map

        if not self._is_connected():
            raise ValueError("labeled graphs must be connected")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The nodes of the graph, in insertion order."""
        return self._nodes

    @property
    def edges(self) -> FrozenSet[FrozenSet[Node]]:
        """The undirected edges, each a 2-element frozenset."""
        return self._edges

    def edge_pairs(self) -> Iterator[Tuple[Node, Node]]:
        """Iterate over edges as ordered pairs (one orientation per edge)."""
        for edge in self._edges:
            u, v = tuple(edge)
            yield u, v

    def label(self, node: Node) -> str:
        """Return the bit-string label of *node*."""
        return self._labels[node]

    @property
    def labels(self) -> Dict[Node, str]:
        """A copy of the labeling function as a dictionary."""
        return dict(self._labels)

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """The set of neighbors of *node*."""
        return self._adjacency[node]

    def degree(self, node: Node) -> int:
        """The number of neighbors of *node*."""
        return len(self._adjacency[node])

    def structural_degree(self, node: Node) -> int:
        """Degree plus label length (Section 9: ``structural degree``)."""
        return self.degree(node) + len(self.label(node))

    def cardinality(self) -> int:
        """Number of nodes, written ``card(G)`` in the paper."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        return v in self._adjacency.get(u, frozenset())

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def _is_connected(self) -> bool:
        start = self._nodes[0]
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == len(self._nodes)

    def distances_from(self, source: Node) -> Dict[Node, int]:
        """BFS distances from *source* to every node."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def distance(self, u: Node, v: Node) -> int:
        """Shortest-path distance between *u* and *v*."""
        return self.distances_from(u)[v]

    def diameter(self) -> int:
        """The diameter of the graph."""
        return max(max(self.distances_from(u).values()) for u in self._nodes)

    def ball(self, center: Node, radius: int) -> Set[Node]:
        """The set of nodes at distance at most *radius* from *center*."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        adjacency = self._adjacency
        seen = {center}
        frontier = [center]
        for _ in range(radius):
            next_frontier: List[Node] = []
            for u in frontier:
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        next_frontier.append(v)
            if not next_frontier:
                break
            frontier = next_frontier
        return seen

    def neighborhood(self, center: Node, radius: int) -> "LabeledGraph":
        """The *r*-neighborhood ``N^G_r(u)``: induced subgraph of the ball."""
        return self.induced_subgraph(self.ball(center, radius))

    def induced_subgraph(self, nodes: Iterable[Node]) -> "LabeledGraph":
        """Induced subgraph on *nodes* (must be nonempty and connected)."""
        node_set = set(nodes)
        sub_edges = [
            tuple(e) for e in self._edges if set(e) <= node_set
        ]
        sub_labels = {u: self._labels[u] for u in node_set}
        ordered = [u for u in self._nodes if u in node_set]
        return LabeledGraph(ordered, sub_edges, sub_labels)

    def max_degree(self) -> int:
        """Maximum node degree."""
        return max(self.degree(u) for u in self._nodes)

    def max_structural_degree(self) -> int:
        """Maximum structural degree (degree + label length)."""
        return max(self.structural_degree(u) for u in self._nodes)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    # A derived graph shares every part it does not change with this one
    # (graphs are immutable) and checks only what its change can break.
    def _derived(
        self,
        adjacency: Optional[Dict[Node, FrozenSet[Node]]] = None,
        edges: Optional[FrozenSet[FrozenSet[Node]]] = None,
        labels: Optional[Dict[Node, str]] = None,
    ) -> "LabeledGraph":
        graph = object.__new__(LabeledGraph)
        graph._nodes = self._nodes
        graph._adjacency = self._adjacency if adjacency is None else adjacency
        graph._edges = self._edges if edges is None else edges
        graph._labels = self._labels if labels is None else labels
        return graph

    def relabel(self, labels: Mapping[Node, str]) -> "LabeledGraph":
        """Return a copy with the labels of the given nodes replaced."""
        new_labels = dict(self._labels)
        for u, lab in labels.items():
            if u not in self._adjacency:
                raise ValueError(f"unknown node {u!r}")
            new_labels[u] = _check_bitstring(lab)
        return self._derived(labels=new_labels)

    def _check_pair(self, u: Node, v: Node) -> None:
        if u not in self._adjacency or v not in self._adjacency:
            raise ValueError(f"edge ({u!r}, {v!r}) refers to unknown node")
        if u == v:
            raise ValueError(f"self-loop at node {u!r} is not allowed (graphs are simple)")

    def with_edge(self, u: Node, v: Node) -> "LabeledGraph":
        """Return a copy with the new edge ``{u, v}`` inserted."""
        self._check_pair(u, v)
        if v in self._adjacency[u]:
            raise ValueError(f"edge ({u!r}, {v!r}) already exists")
        adjacency = dict(self._adjacency)
        adjacency[u] = adjacency[u] | {v}
        adjacency[v] = adjacency[v] | {u}
        return self._derived(adjacency, self._edges | {frozenset((u, v))})

    def without_edge(self, u: Node, v: Node) -> "LabeledGraph":
        """Return a copy with the edge ``{u, v}`` deleted; it must not be a bridge."""
        self._check_pair(u, v)
        if v not in self._adjacency[u]:
            raise ValueError(f"edge ({u!r}, {v!r}) does not exist")
        adjacency = dict(self._adjacency)
        adjacency[u] = adjacency[u] - {v}
        adjacency[v] = adjacency[v] - {u}
        # The graph stays connected exactly when v is still reachable from u.
        seen = {u}
        queue = deque([u])
        while queue:
            for w in adjacency[queue.popleft()]:
                if w == v:
                    return self._derived(adjacency, self._edges - {frozenset((u, v))})
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        raise ValueError(f"deleting edge ({u!r}, {v!r}) would disconnect the graph")

    def with_uniform_label(self, label: str) -> "LabeledGraph":
        """Return a copy in which every node carries *label*."""
        return self.relabel({u: label for u in self._nodes})

    def to_networkx(self) -> nx.Graph:
        """Export to a :class:`networkx.Graph` with ``label`` node attributes."""
        import networkx as nx

        graph = nx.Graph()
        for u in self._nodes:
            graph.add_node(u, label=self._labels[u])
        for u, v in self.edge_pairs():
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_networkx(cls, graph: nx.Graph, label_attr: str = "label") -> "LabeledGraph":
        """Build a labeled graph from a networkx graph.

        Missing label attributes default to the empty string.
        """
        labels = {u: str(graph.nodes[u].get(label_attr, "")) for u in graph.nodes}
        return cls(list(graph.nodes), list(graph.edges), labels)

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            set(self._nodes) == set(other._nodes)
            and self._edges == other._edges
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._nodes),
                self._edges,
                frozenset(self._labels.items()),
            )
        )

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(nodes={len(self._nodes)}, edges={len(self._edges)}, "
            f"labels={{{', '.join(f'{u!r}: {lab!r}' for u, lab in sorted(self._labels.items(), key=lambda kv: str(kv[0])))}}})"
        )

    # ------------------------------------------------------------------
    # Isomorphism (used to express isomorphism-closed graph properties)
    # ------------------------------------------------------------------
    def is_isomorphic_to(self, other: "LabeledGraph") -> bool:
        """Label-preserving graph isomorphism check (delegates to networkx)."""
        import networkx as nx

        return nx.is_isomorphic(
            self.to_networkx(),
            other.to_networkx(),
            node_match=lambda a, b: a.get("label", "") == b.get("label", ""),
        )

    def nontrivial_automorphism(self) -> Optional[Dict[Node, Node]]:
        """The first label-preserving automorphism that is not the identity, or ``None``.

        A backtracking search maps the nodes in :attr:`nodes` order and tries
        their targets in that same order, so the answer is deterministic.  A
        target must be unused, carry the node's label and degree, and be
        adjacent to exactly the images of the node's mapped neighbors.
        """
        nodes, adjacency, labels = self._nodes, self._adjacency, self._labels
        image: Dict[Node, Node] = {}

        def targets(u: Node) -> Iterator[Node]:
            used = set(image.values())
            mapped = {image[w] for w in adjacency[u] if w in image}
            for t in nodes:
                around = adjacency[t]
                if (
                    t not in used
                    and labels[t] == labels[u]
                    and len(around) == len(adjacency[u])
                    and around & used == mapped
                ):
                    yield t

        # stack[d] yields the targets of nodes[d]; no recursion, so any size works.
        stack: List[Iterator[Node]] = [targets(nodes[0])]
        while stack:
            u = nodes[len(stack) - 1]
            image.pop(u, None)
            for target in stack[-1]:
                image[u] = target
                if len(stack) < len(nodes):
                    stack.append(targets(nodes[len(stack)]))
                elif any(v != w for v, w in image.items()):
                    return image
                break
            else:
                stack.pop()
        return None

    def is_single_node(self) -> bool:
        """Whether the graph lies in ``node`` (single-node graphs ~ strings)."""
        return len(self._nodes) == 1
