"""Tests for the labeled-graph substrate (Section 3 preliminaries)."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph


class TestConstruction:
    def test_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            LabeledGraph([], [])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            LabeledGraph(["a", "a"], [])

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            LabeledGraph(["a", "b"], [("a", "a"), ("a", "b")])

    def test_repeated_edges_merge_into_one(self):
        once = LabeledGraph(["a", "b"], [("a", "b")])
        twice = LabeledGraph(["a", "b"], [("a", "b"), ("b", "a")])
        assert len(twice.edges) == 1
        assert twice == once
        assert hash(twice) == hash(once)
        assert twice.edges == once.edges
        assert twice.neighbors("a") == once.neighbors("a") == {"b"}
        assert twice.neighbors("b") == once.neighbors("b") == {"a"}

    def test_rejects_disconnected_graphs(self):
        with pytest.raises(ValueError):
            LabeledGraph(["a", "b", "c"], [("a", "b")])

    def test_rejects_unknown_edge_endpoints(self):
        with pytest.raises(ValueError):
            LabeledGraph(["a", "b"], [("a", "c")])

    def test_rejects_non_bitstring_labels(self):
        with pytest.raises(ValueError):
            LabeledGraph(["a"], [], {"a": "abc"})

    def test_missing_labels_default_to_empty(self):
        graph = LabeledGraph(["a", "b"], [("a", "b")], {"a": "101"})
        assert graph.label("a") == "101"
        assert graph.label("b") == ""

    def test_single_node_graph_is_allowed(self):
        graph = generators.single_node("0110")
        assert graph.cardinality() == 1
        assert graph.is_single_node()


class TestAccessors:
    def test_degree_and_neighbors(self, path4):
        nodes = list(path4.nodes)
        assert path4.degree(nodes[0]) == 1
        assert path4.degree(nodes[1]) == 2
        assert path4.neighbors(nodes[0]) == frozenset({nodes[1]})

    def test_structural_degree_adds_label_length(self):
        graph = generators.path_graph(3, labels=["111", "", "1"])
        nodes = list(graph.nodes)
        assert graph.structural_degree(nodes[0]) == 1 + 3
        assert graph.structural_degree(nodes[1]) == 2

    def test_has_edge_is_symmetric(self, square):
        nodes = list(square.nodes)
        assert square.has_edge(nodes[0], nodes[1])
        assert square.has_edge(nodes[1], nodes[0])
        assert not square.has_edge(nodes[0], nodes[2])

    def test_cardinality_and_len(self, five_cycle):
        assert five_cycle.cardinality() == 5
        assert len(five_cycle) == 5

    def test_edge_pairs_cover_all_edges(self, k4):
        assert len(list(k4.edge_pairs())) == 6


class TestDistances:
    def test_distances_on_a_path(self, path4):
        nodes = list(path4.nodes)
        distances = path4.distances_from(nodes[0])
        assert distances == {nodes[0]: 0, nodes[1]: 1, nodes[2]: 2, nodes[3]: 3}

    def test_diameter_of_cycle(self):
        assert generators.cycle_graph(6).diameter() == 3
        assert generators.cycle_graph(7).diameter() == 3

    def test_ball_growth(self, five_cycle):
        center = list(five_cycle.nodes)[0]
        assert len(five_cycle.ball(center, 0)) == 1
        assert len(five_cycle.ball(center, 1)) == 3
        assert len(five_cycle.ball(center, 2)) == 5

    def test_neighborhood_is_induced_subgraph(self):
        graph = generators.star_graph(4)
        sub = graph.neighborhood("center", 1)
        assert sub.cardinality() == 5
        leaf_view = graph.neighborhood("leaf0", 1)
        assert leaf_view.cardinality() == 2


class TestTransformations:
    def test_relabel_replaces_only_given_nodes(self, path4):
        nodes = list(path4.nodes)
        relabeled = path4.relabel({nodes[0]: "1"})
        assert relabeled.label(nodes[0]) == "1"
        assert relabeled.label(nodes[1]) == ""
        assert path4.label(nodes[0]) == ""  # original unchanged

    def test_with_uniform_label(self, triangle):
        labeled = triangle.with_uniform_label("1")
        assert all(labeled.label(u) == "1" for u in labeled.nodes)

    def test_networkx_round_trip(self, five_cycle):
        graph = five_cycle.with_uniform_label("01")
        back = LabeledGraph.from_networkx(graph.to_networkx())
        assert back == graph

    def test_induced_subgraph_keeps_labels(self):
        graph = generators.path_graph(4, labels=["1", "0", "1", "0"])
        nodes = list(graph.nodes)
        sub = graph.induced_subgraph(nodes[:2])
        assert sub.cardinality() == 2
        assert sub.label(nodes[0]) == "1"


class TestEqualityAndIsomorphism:
    def test_equality_ignores_node_order(self):
        a = LabeledGraph(["x", "y"], [("x", "y")], {"x": "1"})
        b = LabeledGraph(["y", "x"], [("y", "x")], {"x": "1"})
        assert a == b
        assert hash(a) == hash(b)

    def test_isomorphism_respects_labels(self):
        a = generators.path_graph(3, labels=["1", "0", "1"])
        b = generators.path_graph(3, labels=["1", "1", "0"])
        c = generators.path_graph(3, labels=["1", "0", "1"])
        assert a.is_isomorphic_to(c)
        assert not a.is_isomorphic_to(b)


def _vf2_automorphisms(graph):
    """networkx's label-preserving automorphisms of *graph*, in VF2 order."""
    nx_graph = graph.to_networkx()
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        nx_graph, nx_graph, node_match=lambda a, b: a["label"] == b["label"]
    )
    return matcher.isomorphisms_iter()


@st.composite
def small_labeled_graphs(draw):
    """Connected labeled graphs of at most 7 nodes, listed in a drawn order."""
    size = draw(st.integers(min_value=1, max_value=7))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, size)}
    pairs = [(u, v) for v in range(size) for u in range(v)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    labels = draw(st.lists(st.sampled_from(["", "1"]), min_size=size, max_size=size))
    order = draw(st.permutations(range(size)))
    return LabeledGraph(order, edges, dict(enumerate(labels)))


class TestNontrivialAutomorphism:
    @settings(max_examples=200, deadline=None)
    @given(graph=small_labeled_graphs())
    def test_agrees_with_networkx(self, graph):
        identity = {u: u for u in graph.nodes}
        expected = any(mapping != identity for mapping in _vf2_automorphisms(graph))
        found = graph.nontrivial_automorphism()
        assert (found is not None) == expected
        if found is not None:
            assert found != identity
            assert set(found) == set(found.values()) == set(graph.nodes)
            assert all(graph.label(found[u]) == graph.label(u) for u in graph.nodes)
            assert {frozenset(found[u] for u in edge) for edge in graph.edges} == graph.edges

    def test_first_map_on_cycles_is_vf2s(self):
        """The automorphic scheme's certificates (and store keys) on cycles
        name the same automorphism as networkx's first one."""
        for length in range(3, 22):
            cycle = generators.cycle_graph(length)
            identity = {u: u for u in cycle.nodes}
            first = next(m for m in _vf2_automorphisms(cycle) if m != identity)
            assert cycle.nontrivial_automorphism() == first, length


def _assert_same_graph(derived, built):
    """*derived* equals the constructor's graph on every public part."""
    assert derived == built
    assert hash(derived) == hash(built)
    assert derived.nodes == built.nodes
    assert derived.edges == built.edges
    assert derived.labels == built.labels
    assert all(derived.neighbors(u) == built.neighbors(u) for u in built.nodes)


def _pairs(graph):
    return [(tuple(edge)[0], tuple(edge)[1]) for edge in graph.edges]


class TestDerivedGraphs:
    """relabel / with_edge / without_edge derive a graph from the current
    one; each must equal the constructor's graph on the same parts and
    reject what the constructor (or the change) rejects."""

    @settings(max_examples=60, deadline=None)
    @given(graph=small_labeled_graphs())
    def test_derived_graphs_equal_constructed_ones(self, graph):
        nodes, labels = graph.nodes, graph.labels
        for node in nodes:
            relabeled = graph.relabel({node: "01"})
            _assert_same_graph(
                relabeled, LabeledGraph(nodes, _pairs(graph), {**labels, node: "01"})
            )
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                if not graph.has_edge(u, v):
                    built = LabeledGraph(nodes, _pairs(graph) + [(u, v)], labels)
                    _assert_same_graph(graph.with_edge(u, v), built)
                    continue
                rest = [pair for pair in _pairs(graph) if set(pair) != {u, v}]
                try:
                    built = LabeledGraph(nodes, rest, labels)
                except ValueError:  # the edge is a bridge
                    with pytest.raises(ValueError, match="disconnect"):
                        graph.without_edge(u, v)
                    continue
                _assert_same_graph(graph.without_edge(u, v), built)
        # Deriving never changes the graph it derives from.
        assert graph.labels == labels

    def test_rejections(self):
        graph = generators.path_graph(3)
        a, b, c = graph.nodes
        with pytest.raises(ValueError):
            graph.relabel({a: "2"})  # not a bit string
        with pytest.raises(TypeError):
            graph.relabel({a: 5})  # not a string
        with pytest.raises(ValueError):
            graph.relabel({"zz": "1"})  # unknown node
        for derive in (graph.with_edge, graph.without_edge):
            with pytest.raises(ValueError):
                derive(a, "zz")  # unknown node
            with pytest.raises(ValueError):
                derive(a, a)  # self-loop
        with pytest.raises(ValueError, match="already exists"):
            graph.with_edge(a, b)  # duplicate insert
        with pytest.raises(ValueError, match="does not exist"):
            graph.without_edge(a, c)  # missing edge
        with pytest.raises(ValueError, match="disconnect"):
            graph.without_edge(a, b)  # a bridge
        closed = graph.with_edge(a, c)
        _assert_same_graph(closed.without_edge(a, b), LabeledGraph(graph.nodes, [(b, c), (a, c)]))


def test_random_tree_matches_networkx():
    for size in range(2, 40):
        for seed in range(25):
            reference = nx.random_labeled_tree(size, seed=seed)
            expected = {frozenset((f"t{u}", f"t{v}")) for u, v in reference.edges}
            assert generators.random_tree(size, seed=seed).edges == expected, (size, seed)


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=1, max_value=9), seed=st.integers(min_value=0, max_value=50))
def test_random_trees_have_tree_edge_count(size, seed):
    graph = generators.random_tree(size, seed=seed)
    assert len(graph.edges) == size - 1


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=50))
def test_distance_is_symmetric(size, seed):
    graph = generators.random_connected_graph(size, seed=seed)
    nodes = list(graph.nodes)
    u, v = nodes[0], nodes[-1]
    assert graph.distance(u, v) == graph.distance(v, u)


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=2, max_value=8), radius=st.integers(min_value=0, max_value=4))
def test_balls_are_monotone_in_radius(size, radius):
    graph = generators.random_connected_graph(size, seed=size)
    center = list(graph.nodes)[0]
    assert graph.ball(center, radius) <= graph.ball(center, radius + 1)
