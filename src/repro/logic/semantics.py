"""Model checking of formulas on relational structures.

The evaluator implements the semantics of Table 1 directly.  Second-order
quantification is exhaustive over all interpretations of the quantified
relation variable and is therefore exponential; two mitigations are provided
through :class:`EvaluationOptions`:

* ``second_order_locality`` restricts the interpretations of relation
  variables of arity >= 2 to tuples whose elements all lie within the given
  distance of the tuple's first element.  This mirrors the restriction the
  paper imposes on certificates in the backward direction of Theorem 15
  ("the certificate must encode a set of k-tuples whose ... remaining
  elements all represent nodes or labeling bits that lie in the
  2r-neighborhood"), and it does not change the truth value of formulas that
  only ever relate nearby elements -- which is the case for every example
  formula of Section 5.2.
* ``candidate_limit`` aborts with an error instead of silently attempting an
  astronomically large enumeration.

Both existential and universal quantifiers short-circuit.

:func:`evaluate` interprets a formula node by node and is the reference.
:func:`compile_formula` turns a first-order formula into nested closures
once, for callers that check one formula many times (the compiled Fagin
arbiters of :mod:`repro.fagin.compiler` run theirs at every memo miss of a
game); its closures bind quantified variables in place on one assignment
dict instead of copying it per binding, and are tested against
:func:`evaluate`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.graphs.labeled_graph import LabeledGraph
from repro.graphs.structures import Structure, structural_representation
from repro.logic.syntax import (
    And,
    BinaryAtom,
    BoundedExists,
    BoundedForall,
    Equal,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    LocalExists,
    LocalForall,
    Not,
    Or,
    RelationAtom,
    RelationVariable,
    SOExists,
    SOForall,
    TruthConstant,
    UnaryAtom,
)

Element = object
Assignment = Dict[Union[str, RelationVariable], object]


@dataclass(frozen=True)
class EvaluationOptions:
    """Tuning knobs for the exhaustive evaluator.

    Attributes
    ----------
    second_order_locality:
        If set, relation variables of arity >= 2 range only over sets of
        tuples whose elements all lie within this distance of the tuple's
        first element.  ``None`` means unrestricted (full) quantification.
    second_order_node_only:
        If true, relation variables range only over tuples of *node* elements
        (elements with no incoming arrow of the second binary relation).  This
        is sound for formulas that only ever apply their relation variables to
        node-quantified variables -- which is the case for every example
        formula of Section 5.2 -- and drastically shrinks the search space on
        structural representations of labeled graphs.
    candidate_limit:
        Maximum number of candidate tuples per second-order quantifier before
        the evaluator refuses to enumerate (guards against runaway blowup).
    """

    second_order_locality: Optional[int] = None
    second_order_node_only: bool = False
    candidate_limit: int = 22

    def __post_init__(self) -> None:
        if self.candidate_limit < 0:
            raise ValueError("candidate_limit must be nonnegative")


DEFAULT_OPTIONS = EvaluationOptions()


class EvaluationBudgetExceeded(RuntimeError):
    """Raised when a second-order quantifier would enumerate too many interpretations."""


def _node_elements(structure: Structure) -> List[Element]:
    """Elements with no incoming arrow of the second binary relation.

    On structural representations of labeled graphs these are exactly the
    elements representing nodes (the ``IsNode`` predicate of Section 5.1).
    """
    if structure.signature[1] < 2:
        return list(structure.domain)
    targets = {b for (_, b) in structure.binary(2)}
    return [a for a in structure.domain if a not in targets]


def _candidate_tuples(
    structure: Structure, arity: int, options: EvaluationOptions
) -> List[Tuple[Element, ...]]:
    domain = _node_elements(structure) if options.second_order_node_only else list(structure.domain)
    allowed = set(domain)
    if arity == 1 or options.second_order_locality is None:
        candidates = list(itertools.product(domain, repeat=arity))
    else:
        radius = options.second_order_locality
        candidates = []
        for first in domain:
            ball = [a for a in structure.ball(first, radius) if a in allowed]
            for rest in itertools.product(sorted(ball, key=str), repeat=arity - 1):
                candidates.append((first, *rest))
    if len(candidates) > options.candidate_limit:
        raise EvaluationBudgetExceeded(
            f"second-order quantifier over arity-{arity} relation would need "
            f"{len(candidates)} candidate tuples (> limit {options.candidate_limit}); "
            "use a smaller structure, set second_order_locality, or raise candidate_limit"
        )
    return candidates


def _relation_interpretations(
    structure: Structure, relation: RelationVariable, options: EvaluationOptions
) -> Iterator[FrozenSet[Tuple[Element, ...]]]:
    """All interpretations of *relation* allowed by *options* (lazily)."""
    candidates = _candidate_tuples(structure, relation.arity, options)
    count = len(candidates)
    for mask in range(2**count):
        yield frozenset(candidates[i] for i in range(count) if (mask >> i) & 1)


def evaluate(
    structure: Structure,
    formula: Formula,
    assignment: Optional[Assignment] = None,
    options: EvaluationOptions = DEFAULT_OPTIONS,
) -> bool:
    """Whether ``structure, assignment |= formula``."""
    sigma: Assignment = dict(assignment or {})
    return _eval(structure, formula, sigma, options)


def _lookup_element(sigma: Assignment, name: str) -> Element:
    if name not in sigma:
        raise KeyError(f"first-order variable {name!r} is not assigned")
    return sigma[name]


def _lookup_relation(sigma: Assignment, relation: RelationVariable) -> FrozenSet[Tuple[Element, ...]]:
    if relation in sigma:
        return sigma[relation]  # type: ignore[return-value]
    # Allow lookup by name as a convenience for hand-written assignments.
    for key, value in sigma.items():
        if isinstance(key, RelationVariable) and key.name == relation.name:
            return value  # type: ignore[return-value]
    raise KeyError(f"second-order variable {relation.name!r} is not assigned")


def _eval(structure: Structure, formula: Formula, sigma: Assignment, options: EvaluationOptions) -> bool:
    if isinstance(formula, TruthConstant):
        return formula.value
    if isinstance(formula, UnaryAtom):
        return structure.in_unary(formula.index, _lookup_element(sigma, formula.variable))
    if isinstance(formula, BinaryAtom):
        return structure.in_binary(
            formula.index,
            _lookup_element(sigma, formula.left),
            _lookup_element(sigma, formula.right),
        )
    if isinstance(formula, Equal):
        return _lookup_element(sigma, formula.left) == _lookup_element(sigma, formula.right)
    if isinstance(formula, RelationAtom):
        interpretation = _lookup_relation(sigma, formula.relation)
        arguments = tuple(_lookup_element(sigma, name) for name in formula.arguments)
        return arguments in interpretation
    if isinstance(formula, Not):
        return not _eval(structure, formula.operand, sigma, options)
    if isinstance(formula, And):
        return _eval(structure, formula.left, sigma, options) and _eval(
            structure, formula.right, sigma, options
        )
    if isinstance(formula, Or):
        return _eval(structure, formula.left, sigma, options) or _eval(
            structure, formula.right, sigma, options
        )
    if isinstance(formula, Implies):
        return (not _eval(structure, formula.left, sigma, options)) or _eval(
            structure, formula.right, sigma, options
        )
    if isinstance(formula, Iff):
        return _eval(structure, formula.left, sigma, options) == _eval(
            structure, formula.right, sigma, options
        )
    if isinstance(formula, Exists):
        return any(
            _eval(structure, formula.body, {**sigma, formula.variable: element}, options)
            for element in structure.domain
        )
    if isinstance(formula, Forall):
        return all(
            _eval(structure, formula.body, {**sigma, formula.variable: element}, options)
            for element in structure.domain
        )
    if isinstance(formula, BoundedExists):
        anchor = _lookup_element(sigma, formula.anchor)
        return any(
            _eval(structure, formula.body, {**sigma, formula.variable: element}, options)
            for element in structure.connections(anchor)
        )
    if isinstance(formula, BoundedForall):
        anchor = _lookup_element(sigma, formula.anchor)
        return all(
            _eval(structure, formula.body, {**sigma, formula.variable: element}, options)
            for element in structure.connections(anchor)
        )
    if isinstance(formula, LocalExists):
        anchor = _lookup_element(sigma, formula.anchor)
        return any(
            _eval(structure, formula.body, {**sigma, formula.variable: element}, options)
            for element in structure.ball(anchor, formula.radius)
        )
    if isinstance(formula, LocalForall):
        anchor = _lookup_element(sigma, formula.anchor)
        return all(
            _eval(structure, formula.body, {**sigma, formula.variable: element}, options)
            for element in structure.ball(anchor, formula.radius)
        )
    if isinstance(formula, SOExists):
        return any(
            _eval(structure, formula.body, {**sigma, formula.relation: interpretation}, options)
            for interpretation in _relation_interpretations(structure, formula.relation, options)
        )
    if isinstance(formula, SOForall):
        return all(
            _eval(structure, formula.body, {**sigma, formula.relation: interpretation}, options)
            for interpretation in _relation_interpretations(structure, formula.relation, options)
        )
    raise TypeError(f"unknown formula node {formula!r}")


# ----------------------------------------------------------------------
# Compiled first-order formulas
# ----------------------------------------------------------------------
Check = Callable[[Structure, Assignment], bool]
"""A compiled formula: ``check(structure, assignment)`` is its truth value."""

_UNBOUND = object()


def _quantifier(
    variable: str,
    candidates: Callable[[Structure, Assignment], Iterable[Element]],
    body: Check,
    universal: bool,
) -> Check:
    """``∃`` (or ``∀`` if *universal*) *variable* over ``candidates(structure, env)``.

    The candidates are read before *variable* is bound, so an anchor naming
    the quantified variable refers to its outer binding, as in :func:`_eval`.
    The variable is bound in place on *env*, and its previous binding (or
    its absence) is restored on the way out.
    """

    def check(structure: Structure, env: Assignment) -> bool:
        elements = candidates(structure, env)
        saved = env.get(variable, _UNBOUND)
        try:
            for element in elements:
                env[variable] = element
                # A witness decides an ∃, a counterexample decides a ∀.
                if (not body(structure, env)) is universal:
                    return not universal
            return universal
        finally:
            if saved is _UNBOUND:
                env.pop(variable, None)
            else:
                env[variable] = saved

    return check


def compile_formula(formula: Formula) -> Check:
    """Compile a first-order formula into a closure ``check(structure, env) -> bool``.

    ``check(S, env)`` equals ``evaluate(S, formula, env)``: connectives and
    quantifiers short-circuit in the same order, relation variables are
    looked up as :func:`_eval` looks them up, and an unassigned variable
    raises ``KeyError``.  Quantifiers bind their variable in place on *env*
    and restore it afterwards, so *env* is unchanged when ``check`` returns
    or raises.  Second-order quantifiers are refused with ``ValueError``.
    """
    if isinstance(formula, TruthConstant):
        value = formula.value
        return lambda structure, env: value
    if isinstance(formula, UnaryAtom):
        index, variable = formula.index, formula.variable
        return lambda structure, env: structure.in_unary(index, env[variable])
    if isinstance(formula, BinaryAtom):
        index, left, right = formula.index, formula.left, formula.right
        return lambda structure, env: structure.in_binary(index, env[left], env[right])
    if isinstance(formula, Equal):
        left, right = formula.left, formula.right
        return lambda structure, env: env[left] == env[right]
    if isinstance(formula, RelationAtom):
        relation, arguments = formula.relation, formula.arguments

        def relation_atom(structure: Structure, env: Assignment) -> bool:
            try:
                interpretation = env[relation]
            except KeyError:
                interpretation = _lookup_relation(env, relation)
            return tuple([env[name] for name in arguments]) in interpretation

        return relation_atom
    if isinstance(formula, Not):
        operand = compile_formula(formula.operand)
        return lambda structure, env: not operand(structure, env)
    if isinstance(formula, (And, Or, Implies, Iff)):
        left, right = compile_formula(formula.left), compile_formula(formula.right)
        if isinstance(formula, And):
            return lambda structure, env: left(structure, env) and right(structure, env)
        if isinstance(formula, Or):
            return lambda structure, env: left(structure, env) or right(structure, env)
        if isinstance(formula, Implies):
            return lambda structure, env: (not left(structure, env)) or right(structure, env)
        return lambda structure, env: left(structure, env) == right(structure, env)
    if isinstance(formula, (Exists, Forall)):
        candidates = lambda structure, env: structure.domain
        universal = isinstance(formula, Forall)
    elif isinstance(formula, (BoundedExists, BoundedForall)):
        anchor = formula.anchor
        candidates = lambda structure, env: structure.connections(env[anchor])
        universal = isinstance(formula, BoundedForall)
    elif isinstance(formula, (LocalExists, LocalForall)):
        anchor, radius = formula.anchor, formula.radius
        candidates = lambda structure, env: structure.ball(env[anchor], radius)
        universal = isinstance(formula, LocalForall)
    elif isinstance(formula, (SOExists, SOForall)):
        raise ValueError(
            f"compile_formula compiles first-order formulas only; {formula.relation.name!r} "
            "is quantified second-order (use evaluate)"
        )
    else:
        raise TypeError(f"unknown formula node {formula!r}")
    return _quantifier(formula.variable, candidates, compile_formula(formula.body), universal)


def graph_satisfies(
    graph: LabeledGraph,
    formula: Formula,
    assignment: Optional[Assignment] = None,
    options: EvaluationOptions = DEFAULT_OPTIONS,
) -> bool:
    """Whether the structural representation ``$G`` of *graph* satisfies *formula*."""
    return evaluate(structural_representation(graph), formula, assignment, options)


def defines_property(formula: Formula, options: EvaluationOptions = DEFAULT_OPTIONS):
    """The graph property defined by a sentence: a callable ``LabeledGraph -> bool``."""

    def decide(graph: LabeledGraph) -> bool:
        return graph_satisfies(graph, formula, options=options)

    return decide
