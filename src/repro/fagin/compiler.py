"""Compiling local second-order sentences into arbiters (Theorems 14/15, backward direction).

Given a sentence of the local second-order hierarchy,

    phi  =  Q_1 R-block_1  ...  Q_l R-block_l  ∀x  psi(x),        psi ∈ BF,

the compiler produces

* one :class:`~repro.hierarchy.certificate_spaces.CertificateSpace` per
  quantifier block, whose certificates encode interpretations of that block's
  relation variables restricted to tuples "owned" by the certificate's node
  (first element is the node or one of its labeling bits, the remaining
  elements lie in a bounded neighborhood), and
* a :class:`CompiledArbiter`: a constant-round local algorithm in which every
  node gathers its radius-``r`` neighborhood (``r`` = nesting depth of the
  bounded quantifiers of ``psi``), decodes all certificates in the
  neighborhood into a partial interpretation of the relation variables, and
  evaluates ``psi`` at its own element and at each of its labeling bits.

Running the resulting arbiter through the certificate game of
:mod:`repro.hierarchy.game` decides exactly the property defined by ``phi``
(on the graphs where the exhaustive game is feasible); this is the executable
content of the generalized Fagin theorem.

A game runs the arbiter at every leaf it cannot answer from its memo, so
the arbiter does as little per view as it can: ``psi`` is compiled once
into closures (:func:`repro.logic.semantics.compile_formula`, tested
against the Table 1 interpreter :func:`~repro.logic.semantics.evaluate`),
and each arbiter memoizes the decoded content of each certificate string
and the structure of each view shape in bounded ``functools.lru_cache``
wrappers of its own.  The memos are thread-safe, die with the arbiter, and
stay out of the arbiter's store key (:mod:`repro.sweep.fingerprint` sees
an ``lru_cache`` wrapper's function, not its contents), so a filled memo
never changes the key.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.fagin.encoding import (
    ElementRef,
    RelationContent,
    TupleRef,
    encode_relation_content,
    safe_decode_relation_content,
)
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.graphs.structures import Structure
from repro.hierarchy.arbiters import ArbiterSpec
from repro.hierarchy.certificate_spaces import CertificateSpace
from repro.logic.fragments import second_order_prefix, is_lfo_sentence
from repro.logic.semantics import compile_formula
from repro.logic.syntax import (
    BoundedExists,
    BoundedForall,
    Forall,
    Formula,
    LocalExists,
    LocalForall,
    RelationVariable,
)
from repro.machines.local_algorithm import LocalView, NeighborhoodGatherAlgorithm


# ----------------------------------------------------------------------
# Static analysis
# ----------------------------------------------------------------------
def bounded_quantifier_depth(formula: Formula) -> int:
    """The maximum "reach" of the bounded quantifiers of a BF formula.

    Bounded quantifiers reach one step from their anchor; the radius-``r``
    variants reach ``r`` steps.  The value bounds how far from the evaluated
    element the formula can "see", and therefore the gathering radius of the
    compiled arbiter.
    """
    from repro.logic.syntax import (
        And,
        BinaryAtom,
        Equal,
        Iff,
        Implies,
        Not,
        Or,
        RelationAtom,
        TruthConstant,
        UnaryAtom,
        Exists,
    )

    if isinstance(formula, (TruthConstant, UnaryAtom, BinaryAtom, Equal, RelationAtom)):
        return 0
    if isinstance(formula, Not):
        return bounded_quantifier_depth(formula.operand)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return max(bounded_quantifier_depth(formula.left), bounded_quantifier_depth(formula.right))
    if isinstance(formula, (BoundedExists, BoundedForall)):
        return 1 + bounded_quantifier_depth(formula.body)
    if isinstance(formula, (LocalExists, LocalForall)):
        return formula.radius + bounded_quantifier_depth(formula.body)
    if isinstance(formula, (Exists, Forall)):
        # Unbounded quantifiers can see the whole structure; callers reject
        # such formulas before asking for a depth.
        raise ValueError("unbounded first-order quantifier inside a BF formula")
    raise TypeError(f"unknown formula node {formula!r}")


def quantifier_blocks(formula: Formula) -> Tuple[List[Tuple[str, List[RelationVariable]]], Formula]:
    """Group the second-order prefix into alternation blocks.

    Returns ``([(kind, [relations...]), ...], matrix)`` with ``kind`` being
    ``"E"`` or ``"A"``.
    """
    prefix, matrix = second_order_prefix(formula)
    blocks: List[Tuple[str, List[RelationVariable]]] = []
    for kind, relation in prefix:
        if blocks and blocks[-1][0] == kind:
            blocks[-1][1].append(relation)
        else:
            blocks.append((kind, [relation]))
    return blocks, matrix


# ----------------------------------------------------------------------
# Certificate spaces encoding relation interpretations
# ----------------------------------------------------------------------
def _owned_refs(graph: LabeledGraph, ids: Mapping[Node, str], node: Node) -> List[ElementRef]:
    """References to the elements owned by *node*: itself plus its labeling bits."""
    refs: List[ElementRef] = [(ids[node], None)]
    refs.extend((ids[node], i) for i in range(1, len(graph.label(node)) + 1))
    return refs


def _nearby_refs(
    graph: LabeledGraph, ids: Mapping[Node, str], node: Node, radius: int
) -> List[ElementRef]:
    """References to all elements owned by nodes within *radius* of *node*."""
    refs: List[ElementRef] = []
    for v in sorted(graph.ball(node, radius), key=lambda w: ids[w]):
        refs.extend(_owned_refs(graph, ids, v))
    return refs


def relation_certificate_space(
    relations: Sequence[RelationVariable],
    locality_radius: int,
    candidate_limit: int = 14,
    name: str = "",
) -> CertificateSpace:
    """The certificate space encoding interpretations of a block of relations.

    At node ``u`` the candidates are all ways to choose, for every relation of
    the block, a set of tuples whose first element is owned by ``u`` and whose
    remaining elements are owned by nodes within ``2 * locality_radius`` of
    ``u``.  The number of candidate tuples per node is capped by
    *candidate_limit* to keep the game enumerable.
    """

    def candidates(graph: LabeledGraph, ids: Mapping[Node, str], node: Node) -> List[str]:
        owned = _owned_refs(graph, ids, node)
        nearby = _nearby_refs(graph, ids, node, 2 * locality_radius)
        all_tuples: List[Tuple[str, TupleRef]] = []
        for relation in relations:
            if relation.arity == 1:
                tuples = [(ref,) for ref in owned]
            else:
                tuples = [
                    (first, *rest)
                    for first in owned
                    for rest in itertools.product(nearby, repeat=relation.arity - 1)
                ]
            all_tuples.extend((relation.name, tup) for tup in tuples)
        if len(all_tuples) > candidate_limit:
            raise ValueError(
                f"certificate space at node {node!r} would need {len(all_tuples)} candidate "
                f"tuples (> limit {candidate_limit}); use smaller graphs or monadic relations"
            )
        certificates: List[str] = []
        for mask in range(2 ** len(all_tuples)):
            content: Dict[str, Set[TupleRef]] = {relation.name: set() for relation in relations}
            for i, (rel_name, tup) in enumerate(all_tuples):
                if (mask >> i) & 1:
                    content[rel_name].add(tup)
            certificates.append(encode_relation_content({k: frozenset(v) for k, v in content.items()}))
        return certificates

    label = name or "+".join(r.name for r in relations)
    return CertificateSpace(candidates=candidates, name=f"relations[{label}]")


def decode_relation_certificates(
    view: LocalView, level_index: int, relations: Sequence[RelationVariable]
) -> Dict[str, Set[TupleRef]]:
    """Union of the relation fragments encoded by all certificates in a view."""
    combined: Dict[str, Set[TupleRef]] = {relation.name: set() for relation in relations}
    for identifier in view.nodes:
        certificates = view.certificates_of(identifier)
        if level_index >= len(certificates):
            continue
        content = safe_decode_relation_content(certificates[level_index])
        for name, tuples in content.items():
            if name in combined:
                combined[name].update(tuples)
    return combined


# ----------------------------------------------------------------------
# The compiled arbiter
# ----------------------------------------------------------------------
def _view_structure(
    nodes: FrozenSet[str],
    edges: FrozenSet[FrozenSet[str]],
    labels: Tuple[Tuple[str, str], ...],
) -> Tuple[Structure, Dict[ElementRef, object]]:
    """Build the structural representation of a local view's shape.

    Takes a :class:`LocalView`'s ``nodes``, ``edges`` and ``labels``.
    Elements are the view's node identifiers and ``(identifier, position)``
    pairs for labeling bits; the mapping from :class:`ElementRef` to element
    is returned alongside so decoded certificates can be resolved.
    """
    domain: List[object] = []
    ones: Set[object] = set()
    rel1: Set[Tuple[object, object]] = set()
    rel2: Set[Tuple[object, object]] = set()
    ref_to_element: Dict[ElementRef, object] = {}
    label_of = dict(labels)

    for identifier in sorted(nodes):
        domain.append(identifier)
        ref_to_element[(identifier, None)] = identifier
        label = label_of[identifier]
        previous = None
        for position in range(1, len(label) + 1):
            element = (identifier, position)
            domain.append(element)
            ref_to_element[(identifier, position)] = element
            rel2.add((identifier, element))
            if label[position - 1] == "1":
                ones.add(element)
            if previous is not None:
                rel1.add((previous, element))
            previous = element
    for edge in edges:
        a, b = tuple(edge)
        rel1.add((a, b))
        rel1.add((b, a))

    return Structure(domain, unary=[ones], binary=[rel1, rel2]), ref_to_element


#: Bounds of each compiled arbiter's memos (see :func:`compile_sentence`):
#: decoded certificate strings, and view shapes with their structures.
_DECODE_MEMO_SIZE = 4096
_SHAPE_MEMO_SIZE = 256


@dataclass
class CompiledArbiter:
    """The result of compiling a local second-order sentence.

    ``memos`` names the arbiter's ``functools.lru_cache`` wrappers
    (``"decode"`` and ``"view_structure"``); their ``cache_info()`` reports
    hits and misses.
    """

    sentence: Formula
    blocks: List[Tuple[str, List[RelationVariable]]]
    matrix: Formula
    radius: int
    algorithm: NeighborhoodGatherAlgorithm
    spaces: List[CertificateSpace]
    memos: Mapping[str, Callable]

    def spec(self, name: str = "") -> ArbiterSpec:
        """Wrap the arbiter into an :class:`ArbiterSpec` ready for the game solver."""
        kind = "Sigma" if not self.blocks or self.blocks[0][0] == "E" else "Pi"
        return ArbiterSpec(
            name=name or f"compiled[{kind}^lp_{len(self.blocks)}]",
            machine=self.algorithm,
            level=len(self.blocks),
            kind=kind,
            spaces=tuple(self.spaces),
            identifier_radius=max(1, self.radius + 1),
            certificate_radius=max(1, 2 * self.radius),
        )


def compile_sentence(
    sentence: Formula,
    candidate_limit: int = 14,
) -> CompiledArbiter:
    """Compile a sentence of the local second-order hierarchy into an arbiter.

    The sentence must consist of a second-order quantifier prefix followed by
    an LFO matrix ``∀x psi(x)`` with ``psi`` in BF.  ``psi`` is compiled
    once, and the returned arbiter carries its own memos (see the module
    docstring and :attr:`CompiledArbiter.memos`).
    """
    blocks, matrix = quantifier_blocks(sentence)
    if not is_lfo_sentence(matrix):
        raise ValueError("the matrix after the second-order prefix must be an LFO sentence")
    assert isinstance(matrix, Forall)
    psi = matrix.body
    first_order_variable = matrix.variable
    radius = bounded_quantifier_depth(psi)

    spaces = [
        relation_certificate_space(block, radius, candidate_limit=candidate_limit)
        for _, block in blocks
    ]
    check = compile_formula(psi)
    # Per-arbiter memos: a game revisits a few view shapes and certificate
    # strings at every leaf.  They are bounded lru_cache wrappers, so they are
    # thread-safe, die with the arbiter, and keep their contents out of the
    # store key: the fingerprint walks closure cells and mappings, and sees
    # only the wrapped function of an lru_cache wrapper.  Nothing mutates
    # what they return.
    decode = functools.lru_cache(maxsize=_DECODE_MEMO_SIZE)(safe_decode_relation_content)
    view_structure = functools.lru_cache(maxsize=_SHAPE_MEMO_SIZE)(_view_structure)

    def compute(view: LocalView) -> str:
        structure, ref_to_element = view_structure(view.nodes, view.edges, view.labels)
        certificates = dict(view.certificates)
        # Decode all certificate levels visible in the view.
        env: Dict[object, object] = {}
        for level_index, (_, block) in enumerate(blocks):
            contents = [
                decode(certificates[identifier][level_index])
                for identifier in view.nodes
                if level_index < len(certificates[identifier])
            ]
            for relation in block:
                tuples = set()
                for content in contents:
                    for tup in content.get(relation.name, ()):
                        try:
                            tuples.add(tuple([ref_to_element[ref] for ref in tup]))
                        except KeyError:
                            continue  # tuple refers to elements outside the view
                env[relation] = frozenset(tuples)
        # Evaluate psi at the center element and at each of its labeling bits.
        center = view.center
        own_elements = [center] + [
            (center, position) for position in range(1, len(view.center_label()) + 1)
        ]
        for element in own_elements:
            env[first_order_variable] = element
            if not check(structure, env):
                return "0"
        return "1"

    algorithm = NeighborhoodGatherAlgorithm(radius, compute, name="fagin-compiled")
    return CompiledArbiter(
        sentence=sentence,
        blocks=blocks,
        matrix=matrix,
        radius=radius,
        algorithm=algorithm,
        spaces=spaces,
        memos={"decode": decode, "view_structure": view_structure},
    )
