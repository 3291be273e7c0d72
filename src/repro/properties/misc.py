"""Miscellaneous properties used in Figure 7: automorphic, prime, degree bounds."""

from __future__ import annotations

from itertools import permutations

from repro.graphs.labeled_graph import LabeledGraph
from repro.properties.base import GraphProperty, register_property


def automorphic(graph: LabeledGraph) -> bool:
    """Whether the graph has a nontrivial (label-preserving) automorphism.

    Goos and Suomela showed this inherently global property requires
    quadratic-size certificates; Figure 7 places it outside the locally
    bounded hierarchy.
    """
    return graph.nontrivial_automorphism() is not None


def prime_cardinality(graph: LabeledGraph) -> bool:
    """Whether the number of nodes is a prime number (the ``prime`` row of Fig. 7)."""
    n = graph.cardinality()
    if n < 2:
        return False
    divisor = 2
    while divisor * divisor <= n:
        if n % divisor == 0:
            return False
        divisor += 1
    return True


def bounded_structural_degree(graph: LabeledGraph, bound: int) -> bool:
    """Whether the graph lies in ``graph(bound)``: structural degree at most *bound*.

    The structural degree of a node is its degree plus its label length
    (Section 9).
    """
    return graph.max_structural_degree() <= bound


AUTOMORPHIC = register_property(
    GraphProperty(
        name="automorphic",
        decide=automorphic,
        description="has a nontrivial label-preserving automorphism",
        paper_alternation_class="outside locally bounded hierarchy",
        paper_lcp_class="LCP(poly(n))",
    )
)

PRIME = register_property(
    GraphProperty(
        name="prime",
        decide=prime_cardinality,
        description="has a prime number of nodes",
        paper_alternation_class="outside locally bounded hierarchy",
        paper_lcp_class="LCP(poly(n))",
    )
)
