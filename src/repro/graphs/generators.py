"""Graph generators used by the tests, examples and benchmarks.

The families here cover the graphs appearing in the paper's figures and
proofs: paths, cycles (Propositions 24 and 26), grids (picture encodings of
Section 9.2.2), trees, random connected graphs, and the specific instances of
Figure 1 (3-round 3-colorability).
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Mapping, Optional, Sequence

from repro.graphs.labeled_graph import LabeledGraph, Node


def single_node(label: str = "") -> LabeledGraph:
    """A single labeled node -- the graphs identified with strings."""
    return LabeledGraph(["v"], [], {"v": label})


def string_graph(bits: str) -> LabeledGraph:
    """The single-node graph whose label is *bits* (``node`` in the paper)."""
    return single_node(bits)


def path_graph(length: int, labels: Optional[Sequence[str]] = None) -> LabeledGraph:
    """A path on *length* nodes ``p0 - p1 - ... - p_{length-1}``."""
    if length < 1:
        raise ValueError("a path needs at least one node")
    nodes = [f"p{i}" for i in range(length)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(length - 1)]
    label_map = _label_map(nodes, labels)
    return LabeledGraph(nodes, edges, label_map)


def cycle_graph(length: int, labels: Optional[Sequence[str]] = None) -> LabeledGraph:
    """A cycle on *length* >= 3 nodes ``c0 - c1 - ... - c_{length-1} - c0``."""
    if length < 3:
        raise ValueError("a cycle needs at least three nodes")
    nodes = [f"c{i}" for i in range(length)]
    edges = [(nodes[i], nodes[(i + 1) % length]) for i in range(length)]
    label_map = _label_map(nodes, labels)
    return LabeledGraph(nodes, edges, label_map)


def star_graph(leaves: int, center_label: str = "", leaf_label: str = "") -> LabeledGraph:
    """A star with one center and *leaves* leaves."""
    if leaves < 0:
        raise ValueError("number of leaves must be nonnegative")
    nodes = ["center"] + [f"leaf{i}" for i in range(leaves)]
    edges = [("center", f"leaf{i}") for i in range(leaves)]
    labels = {"center": center_label}
    labels.update({f"leaf{i}": leaf_label for i in range(leaves)})
    return LabeledGraph(nodes, edges, labels)


def complete_graph(size: int, labels: Optional[Sequence[str]] = None) -> LabeledGraph:
    """The complete graph on *size* nodes."""
    if size < 1:
        raise ValueError("a complete graph needs at least one node")
    nodes = [f"k{i}" for i in range(size)]
    edges = [(nodes[i], nodes[j]) for i in range(size) for j in range(i + 1, size)]
    return LabeledGraph(nodes, edges, _label_map(nodes, labels))


def grid_graph(rows: int, cols: int, labels: Optional[Mapping[Node, str]] = None) -> LabeledGraph:
    """A ``rows x cols`` grid; nodes are ``(i, j)`` pairs.

    Grids are the graph-side image of pictures (Section 9.2.2).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    nodes = [(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < cols:
                edges.append(((i, j), (i, j + 1)))
    label_map = {node: "" for node in nodes}
    if labels:
        label_map.update(labels)
    return LabeledGraph(nodes, edges, label_map)


def random_tree(size: int, seed: int = 0, labels: Optional[Sequence[str]] = None) -> LabeledGraph:
    """A uniformly random labeled tree on *size* nodes.

    The tree decodes a Prüfer sequence of ``size - 2`` draws from
    ``random.Random(seed)``, so it has the edges of
    ``networkx.random_labeled_tree(size, seed=seed)``.
    """
    if size < 1:
        raise ValueError("a tree needs at least one node")
    if size == 1:
        return single_node(labels[0] if labels else "")
    rng = random.Random(seed)
    sequence = [rng.choice(range(size)) for _ in range(size - 2)]
    degree = [1] * size
    for v in sequence:
        degree[v] += 1
    leaves = [u for u in range(size) if degree[u] == 1]  # ascending, so already a heap
    nodes = [f"t{i}" for i in range(size)]
    edges = []
    for v in sequence:  # join the smallest leaf to v; v may become a leaf
        edges.append((nodes[heapq.heappop(leaves)], nodes[v]))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((nodes[heapq.heappop(leaves)], nodes[heapq.heappop(leaves)]))
    return LabeledGraph(nodes, edges, _label_map(nodes, labels))


def random_regular_graph(
    degree: int, size: int, seed: int = 0, labels: Optional[Sequence[str]] = None
) -> LabeledGraph:
    """A random connected *degree*-regular graph on *size* nodes (via networkx).

    ``degree * size`` must be even and ``degree < size``.  Random regular
    graphs are connected with high probability for ``degree >= 3``; seeds
    producing a disconnected sample are skipped deterministically, so the
    result depends only on ``(degree, size, seed)``.
    """
    if degree < 2 or degree >= size:
        raise ValueError("need 2 <= degree < size")
    if (degree * size) % 2 != 0:
        raise ValueError("degree * size must be even")
    import networkx as nx

    for attempt in range(100):
        sample = nx.random_regular_graph(degree, size, seed=seed + attempt)
        if nx.is_connected(sample):
            nodes = [f"r{i}" for i in range(size)]
            edges = [(f"r{u}", f"r{v}") for u, v in sample.edges]
            return LabeledGraph(nodes, edges, _label_map(nodes, labels))
    raise ValueError(f"no connected {degree}-regular graph found near seed {seed}")


def random_connected_graph(
    size: int, edge_probability: float = 0.4, seed: int = 0, labels: Optional[Sequence[str]] = None
) -> LabeledGraph:
    """A random connected graph: random tree plus extra random edges."""
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(seed)
    base = random_tree(size, seed=seed)
    nodes = list(base.nodes)
    extra = []
    for i in range(size):
        for j in range(i + 1, size):
            u, v = nodes[i], nodes[j]
            if not base.has_edge(u, v) and rng.random() < edge_probability:
                extra.append((u, v))
    edges = [tuple(e) for e in base.edges] + extra
    return LabeledGraph(nodes, edges, _label_map(nodes, labels))


def uniformly_labeled(graph: LabeledGraph, label: str) -> LabeledGraph:
    """Every node relabeled with *label* (e.g. ``"1"`` for all-selected)."""
    return graph.with_uniform_label(label)


def figure1_no_instance() -> LabeledGraph:
    """The no-instance of 3-round 3-colorability from Figure 1a.

    Nodes: ``u`` (degree 1), ``v1``, ``v2`` (degree 2), ``w1``, ``w2``, ``w3``.
    Adam can force a colouring conflict because of the edge ``{w1, w3}``.
    """
    nodes = ["u", "v1", "v2", "w1", "w2", "w3"]
    edges = [
        ("u", "w1"),
        ("v1", "w2"),
        ("v1", "w3"),
        ("v2", "w1"),
        ("v2", "w3"),
        ("w1", "w2"),
        ("w2", "w3"),
        ("w1", "w3"),
    ]
    return LabeledGraph(nodes, edges)


def figure1_yes_instance() -> LabeledGraph:
    """The yes-instance of Figure 1b: same graph without the edge ``{w1, w3}``."""
    nodes = ["u", "v1", "v2", "w1", "w2", "w3"]
    edges = [
        ("u", "w1"),
        ("v1", "w2"),
        ("v1", "w3"),
        ("v2", "w1"),
        ("v2", "w3"),
        ("w1", "w2"),
        ("w2", "w3"),
    ]
    return LabeledGraph(nodes, edges)


def figure3_graph() -> LabeledGraph:
    """The 4-node graph of Figure 3 used to illustrate the Hamiltonicity reduction.

    ``u1, u3, u4`` carry label ``1``; ``u2`` carries label ``0``.
    """
    nodes = ["u1", "u2", "u3", "u4"]
    edges = [("u1", "u2"), ("u1", "u3"), ("u2", "u4"), ("u3", "u4"), ("u1", "u4")]
    labels = {"u1": "1", "u2": "0", "u3": "1", "u4": "1"}
    return LabeledGraph(nodes, edges, labels)


def figure9_graph() -> LabeledGraph:
    """The 3-node path of Figure 9 with labels 1, 1, 0."""
    return path_graph(3, labels=["1", "1", "0"])


def boolean_graph(
    formulas: Mapping[Node, str], edges: Sequence[tuple], nodes: Optional[Sequence[Node]] = None
) -> LabeledGraph:
    """A graph whose labels are encodings of Boolean formulas.

    The Boolean-graph machinery in :mod:`repro.boolsat.boolean_graph` provides
    the encoding/decoding of formulas as bit strings; this helper simply wires
    the encoded labels into a :class:`LabeledGraph`.
    """
    from repro.boolsat.encoding import encode_formula_text

    node_list = list(nodes) if nodes is not None else list(formulas)
    labels = {u: encode_formula_text(formulas[u]) for u in formulas}
    return LabeledGraph(node_list, edges, labels)


def _label_map(nodes: List[Node], labels: Optional[Sequence[str]]) -> Dict[Node, str]:
    if labels is None:
        return {u: "" for u in nodes}
    if len(labels) != len(nodes):
        raise ValueError("number of labels must match number of nodes")
    return dict(zip(nodes, labels))
