"""Tests for formula evaluation on structures (Table 1 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.structures import Structure, structural_representation
from repro.logic import EvaluationOptions, evaluate, graph_satisfies
from repro.logic.semantics import EvaluationBudgetExceeded, compile_formula
from repro.logic.shorthands import is_bit1, is_node, is_selected
from repro.logic.syntax import (
    And,
    BinaryAtom,
    BoundedExists,
    BoundedForall,
    Equal,
    Exists,
    Forall,
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


@pytest.fixture
def chain_structure():
    """A 3-element chain 1 -> 2 -> 3 with element 2 in the unary relation."""
    return Structure([1, 2, 3], unary=[{2}], binary=[{(1, 2), (2, 3)}])


class TestAtomsAndConnectives:
    def test_unary_and_binary_atoms(self, chain_structure):
        assert evaluate(chain_structure, UnaryAtom(1, "x"), {"x": 2})
        assert not evaluate(chain_structure, UnaryAtom(1, "x"), {"x": 1})
        assert evaluate(chain_structure, BinaryAtom(1, "x", "y"), {"x": 1, "y": 2})
        assert not evaluate(chain_structure, BinaryAtom(1, "x", "y"), {"x": 2, "y": 1})

    def test_equality_and_constants(self, chain_structure):
        assert evaluate(chain_structure, Equal("x", "y"), {"x": 3, "y": 3})
        assert evaluate(chain_structure, TruthConstant(True), {})
        assert not evaluate(chain_structure, TruthConstant(False), {})

    def test_connectives(self, chain_structure):
        t, f = TruthConstant(True), TruthConstant(False)
        assert evaluate(chain_structure, Or(f, t), {})
        assert not evaluate(chain_structure, And(t, f), {})
        assert evaluate(chain_structure, Implies(f, f), {})
        assert evaluate(chain_structure, Iff(t, t), {})
        assert not evaluate(chain_structure, Iff(t, f), {})

    def test_missing_variable_raises(self, chain_structure):
        with pytest.raises(KeyError):
            evaluate(chain_structure, UnaryAtom(1, "x"), {})


class TestFirstOrderQuantifiers:
    def test_unbounded_quantifiers(self, chain_structure):
        assert evaluate(chain_structure, Exists("x", UnaryAtom(1, "x")))
        assert not evaluate(chain_structure, Forall("x", UnaryAtom(1, "x")))

    def test_bounded_quantifier_ranges_over_connections(self, chain_structure):
        # Element 1 is connected to 2 only; element 2 to both 1 and 3.
        phi = BoundedExists("y", "x", UnaryAtom(1, "y"))
        assert evaluate(chain_structure, phi, {"x": 1})
        assert not evaluate(chain_structure, phi, {"x": 2})  # neighbors of 2 are 1 and 3

    def test_bounded_forall(self, chain_structure):
        phi = BoundedForall("y", "x", Not(UnaryAtom(1, "y")))
        assert evaluate(chain_structure, phi, {"x": 2})
        assert not evaluate(chain_structure, phi, {"x": 1})

    def test_local_quantifier_includes_anchor(self, chain_structure):
        phi = LocalExists("y", "x", 0, UnaryAtom(1, "y"))
        assert evaluate(chain_structure, phi, {"x": 2})
        assert not evaluate(chain_structure, phi, {"x": 1})
        phi1 = LocalExists("y", "x", 1, UnaryAtom(1, "y"))
        assert evaluate(chain_structure, phi1, {"x": 1})


class TestSecondOrderQuantifiers:
    def test_exists_monadic(self, chain_structure):
        X = RelationVariable("X", 1)
        # There is a set containing exactly the elements in the unary relation.
        phi = SOExists(X, Forall("x", Iff(RelationAtom(X, ("x",)), UnaryAtom(1, "x"))))
        assert evaluate(chain_structure, phi)

    def test_forall_monadic(self, chain_structure):
        X = RelationVariable("X", 1)
        # Not every set contains element 1.
        phi = SOForall(X, RelationAtom(X, ("x",)))
        assert not evaluate(chain_structure, phi, {"x": 1})

    def test_binary_relation_quantification(self):
        structure = Structure([1, 2], binary=[{(1, 2)}])
        R = RelationVariable("R", 2)
        # There is a relation equal to the edge relation.
        phi = SOExists(
            R,
            Forall(
                "x",
                Forall("y", Iff(RelationAtom(R, ("x", "y")), BinaryAtom(1, "x", "y"))),
            ),
        )
        assert evaluate(structure, phi)

    def test_candidate_limit_guard(self):
        structure = Structure(list(range(8)), binary=[set()])
        R = RelationVariable("R", 2)
        phi = SOExists(R, Forall("x", TruthConstant(True)))
        with pytest.raises(EvaluationBudgetExceeded):
            evaluate(structure, phi, options=EvaluationOptions(candidate_limit=10))

    def test_locality_restriction_shrinks_candidates(self):
        structure = Structure(list(range(6)), binary=[{(i, i + 1) for i in range(5)}])
        R = RelationVariable("R", 2)
        phi = SOExists(R, Forall("x", TruthConstant(True)))
        options = EvaluationOptions(second_order_locality=1, candidate_limit=20)
        assert evaluate(structure, phi, options=options)

    def test_node_only_restriction(self):
        graph = generators.path_graph(2, labels=["1", "1"])
        structure = structural_representation(graph)
        X = RelationVariable("X", 1)
        # "There is a set containing every element" is false under the
        # node-only restriction (bits can never be included) but true without it.
        phi = SOExists(X, Forall("x", RelationAtom(X, ("x",))))
        assert evaluate(structure, phi)
        assert not evaluate(
            structure, phi, options=EvaluationOptions(second_order_node_only=True)
        )


class TestGraphSatisfaction:
    def test_shorthand_predicates(self):
        graph = generators.path_graph(2, labels=["1", "0"])
        structure = structural_representation(graph)
        nodes = list(graph.nodes)
        assert evaluate(structure, is_node("x"), {"x": nodes[0]})
        assert evaluate(structure, is_selected("x"), {"x": nodes[0]})
        assert not evaluate(structure, is_selected("x"), {"x": nodes[1]})
        from repro.graphs.structures import bit_element

        assert evaluate(structure, is_bit1("x"), {"x": bit_element(nodes[0], 1)})
        assert not evaluate(structure, is_node("x"), {"x": bit_element(nodes[0], 1)})

    def test_selected_requires_label_exactly_one(self):
        graph = generators.path_graph(2, labels=["11", "1"])
        structure = structural_representation(graph)
        nodes = list(graph.nodes)
        assert not evaluate(structure, is_selected("x"), {"x": nodes[0]})
        assert evaluate(structure, is_selected("x"), {"x": nodes[1]})

    def test_graph_satisfies_wrapper(self):
        from repro.logic.examples import all_selected_formula

        assert graph_satisfies(generators.path_graph(2, labels=["1", "1"]), all_selected_formula())
        assert not graph_satisfies(generators.path_graph(2, labels=["1", "0"]), all_selected_formula())


# ----------------------------------------------------------------------
# compile_formula against the reference interpreter
# ----------------------------------------------------------------------
VARIABLES = ("x", "y", "z")
UNARY_R = RelationVariable("R", 1)
BINARY_S = RelationVariable("S", 2)

_variables = st.sampled_from(VARIABLES)
_distinct_pair = st.tuples(_variables, _variables).filter(lambda pair: pair[0] != pair[1])
_atoms = st.one_of(
    st.builds(TruthConstant, st.booleans()),
    st.builds(UnaryAtom, st.just(1), _variables),
    st.builds(BinaryAtom, st.sampled_from((1, 2)), _variables, _variables),
    st.builds(Equal, _variables, _variables),
    st.builds(lambda v: RelationAtom(UNARY_R, (v,)), _variables),
    st.builds(lambda v, w: RelationAtom(BINARY_S, (v, w)), _variables, _variables),
)


def _extend(children):
    bounded = lambda kind: st.builds(  # noqa: E731
        lambda pair, body: kind(pair[0], pair[1], body), _distinct_pair, children
    )
    # LocalExists/LocalForall allow the anchor to be the bound variable itself.
    local = lambda kind: st.builds(  # noqa: E731
        kind, _variables, _variables, st.integers(0, 2), children
    )
    return st.one_of(
        st.builds(Not, children),
        *(st.builds(kind, children, children) for kind in (And, Or, Implies, Iff)),
        *(st.builds(kind, _variables, children) for kind in (Exists, Forall)),
        bounded(BoundedExists),
        bounded(BoundedForall),
        local(LocalExists),
        local(LocalForall),
    )


_formulas = st.recursive(_atoms, _extend, max_leaves=10)


@st.composite
def _structures_and_assignments(draw):
    """A random signature-(1, 2) structure of 1-4 elements, with every first-order
    variable and both relation variables assigned."""
    domain = list(range(draw(st.integers(1, 4))))
    subsets = lambda items: st.sets(st.sampled_from(items)) if items else st.just(set())  # noqa: E731
    pairs = [(a, b) for a in domain for b in domain]
    structure = Structure(
        domain, unary=[draw(subsets(domain))], binary=[draw(subsets(pairs)), draw(subsets(pairs))]
    )
    assignment = {variable: draw(st.sampled_from(domain)) for variable in VARIABLES}
    assignment[UNARY_R] = frozenset((a,) for a in draw(subsets(domain)))
    assignment[BINARY_S] = frozenset(draw(subsets(pairs)))
    return structure, assignment


class TestCompiledFormulas:
    @settings(max_examples=300, deadline=None)
    @given(formula=_formulas, drawn=_structures_and_assignments())
    def test_compiled_formula_equals_evaluate(self, formula, drawn):
        # Every variable is assigned up front, so every quantifier rebinds a
        # bound variable, and the assignment must come back unchanged.
        structure, assignment = drawn
        env = dict(assignment)
        assert compile_formula(formula)(structure, env) == evaluate(structure, formula, assignment)
        assert env == assignment

    def test_quantifier_rebinding_restores_the_outer_binding(self, chain_structure):
        # ∃x (x ∈ U) ∧ ¬U(x): the inner x shadows the outer one, which is
        # visible again after the quantifier; the anchor of a radius
        # quantifier naming its own variable reads the outer binding.
        phi = And(Exists("x", UnaryAtom(1, "x")), Not(UnaryAtom(1, "x")))
        local = LocalExists("x", "x", 0, UnaryAtom(1, "x"))
        for element in chain_structure.domain:
            env = {"x": element}
            assert compile_formula(phi)(chain_structure, env) == evaluate(
                chain_structure, phi, {"x": element}
            )
            assert compile_formula(local)(chain_structure, env) == (element == 2)
            assert env == {"x": element}
        # A variable bound only by the quantifier is unbound again afterwards.
        env = {}
        assert compile_formula(Exists("y", UnaryAtom(1, "y")))(chain_structure, env)
        assert env == {}

    def test_relation_looked_up_by_name_and_missing_variables_raise(self, chain_structure):
        X = RelationVariable("X", 1)
        atom = compile_formula(RelationAtom(X, ("x",)))
        # A hand-written assignment may key the relation by an equal-named variable.
        assert atom(chain_structure, {"x": 1, RelationVariable("X", 2): frozenset({(1,)})})
        with pytest.raises(KeyError):
            atom(chain_structure, {"x": 1})
        with pytest.raises(KeyError):
            compile_formula(UnaryAtom(1, "x"))(chain_structure, {})

    def test_second_order_quantifiers_are_refused(self):
        X = RelationVariable("X", 1)
        for kind in (SOExists, SOForall):
            with pytest.raises(ValueError, match="first-order"):
                compile_formula(And(TruthConstant(True), kind(X, RelationAtom(X, ("x",)))))
