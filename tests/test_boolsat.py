"""Tests for the Boolean satisfiability substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolsat import (
    And,
    Const,
    Not,
    Or,
    Var,
    boolean_graph_from_formulas,
    decode_formula_text,
    dpll_satisfiable,
    encode_formula_text,
    is_three_cnf,
    parse_formula,
    sat_graph_assignment,
    sat_graph_satisfiable,
    satisfying_assignment,
    to_cnf_tseytin,
)
from repro.boolsat.boolean_graph import is_valid_sat_graph_assignment
from repro.boolsat.encoding import decode_text, encode_text
from repro.boolsat.cnf import formula_to_cnf_clauses
from repro.boolsat.formulas import all_valuations, brute_force_satisfiable


class TestParser:
    def test_parse_simple(self):
        formula = parse_formula("P1 & ~P2")
        assert formula == And(Var("P1"), Not(Var("P2")))

    def test_parse_precedence(self):
        formula = parse_formula("P1 | P2 & P3")
        assert formula == Or(Var("P1"), And(Var("P2"), Var("P3")))

    def test_parse_parentheses_and_constants(self):
        formula = parse_formula("(P1 | F) & T")
        assert formula.evaluate({"P1": True})
        assert not formula.evaluate({"P1": False})

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_formula("P1 &")
        with pytest.raises(ValueError):
            parse_formula("(P1")
        with pytest.raises(ValueError):
            parse_formula("P1 ? P2")

    def test_str_round_trip(self):
        text = "((P1 & ~P2) | (P3 & T))"
        formula = parse_formula(text)
        again = parse_formula(str(formula))
        for valuation in all_valuations(formula.variables()):
            assert formula.evaluate(valuation) == again.evaluate(valuation)


class TestCNF:
    def test_tseytin_preserves_satisfiability(self):
        satisfiable = parse_formula("(P1 | ~P2) & (P2 | P3)")
        unsatisfiable = parse_formula("P1 & ~P1")
        assert dpll_satisfiable(to_cnf_tseytin(satisfiable))
        assert not dpll_satisfiable(to_cnf_tseytin(unsatisfiable))

    def test_tseytin_produces_three_cnf(self):
        formula = parse_formula("(P1 | P2 | P3 | P4) & ~(P1 & P5)")
        cnf = to_cnf_tseytin(formula)
        assert is_three_cnf(cnf)

    def test_formula_to_cnf_clauses(self):
        cnf = formula_to_cnf_clauses(parse_formula("(P1 | ~P2) & P3"))
        assert len(cnf) == 2
        assert cnf.evaluate({"P1": False, "P2": False, "P3": True})

    def test_formula_to_cnf_rejects_non_cnf(self):
        with pytest.raises(ValueError):
            formula_to_cnf_clauses(parse_formula("~(P1 & P2)"))

    def test_is_three_cnf_on_formula(self):
        assert is_three_cnf(parse_formula("(P1 | P2 | P3) & ~P4"))
        assert not is_three_cnf(parse_formula("P1 | P2 | P3 | P4"))


class TestSolver:
    def test_satisfying_assignment_actually_satisfies(self):
        formula = parse_formula("(P1 | ~P2) & (P2 | P3) & (~P1 | ~P3)")
        model = satisfying_assignment(formula)
        assert model is not None
        assert formula.evaluate(model)

    def test_unsatisfiable_returns_none(self):
        formula = parse_formula("(P1 | P2) & (~P1 | P2) & (P1 | ~P2) & (~P1 | ~P2)")
        assert satisfying_assignment(formula) is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dpll_agrees_with_brute_force(self, data):
        variables = ["A", "B", "C"]
        clause_count = data.draw(st.integers(min_value=1, max_value=5))
        clauses = []
        for _ in range(clause_count):
            literal_count = data.draw(st.integers(min_value=1, max_value=3))
            literals = []
            for _ in range(literal_count):
                name = data.draw(st.sampled_from(variables))
                positive = data.draw(st.booleans())
                literals.append(Var(name) if positive else Not(Var(name)))
            clause = literals[0]
            for item in literals[1:]:
                clause = Or(clause, item)
            clauses.append(clause)
        formula = clauses[0]
        for item in clauses[1:]:
            formula = And(formula, item)
        assert dpll_satisfiable(formula) == brute_force_satisfiable(formula)


class TestBooleanGraphs:
    def test_consistent_shared_variables_required(self):
        graph = boolean_graph_from_formulas({"u": "P1", "v": "~P1"}, [("u", "v")])
        assert not sat_graph_satisfiable(graph)

    def test_disconnected_variables_are_free(self):
        graph = boolean_graph_from_formulas({"u": "P1", "v": "~P2"}, [("u", "v")])
        assert sat_graph_satisfiable(graph)

    def test_non_adjacent_nodes_may_disagree(self):
        # u and w are not adjacent; they share P1 but need not agree on it.
        graph = boolean_graph_from_formulas(
            {"u": "P1", "v": "P2", "w": "~P1"}, [("u", "v"), ("v", "w")]
        )
        assert sat_graph_satisfiable(graph)

    def test_assignment_is_valid(self):
        graph = boolean_graph_from_formulas(
            {"u": "P1 & P2", "v": "P2 | P3", "w": "~P3"}, [("u", "v"), ("v", "w")]
        )
        assignment = sat_graph_assignment(graph)
        assert assignment is not None
        assert is_valid_sat_graph_assignment(graph, assignment)

    def test_single_node_sat_graph_is_classical_sat(self):
        graph = boolean_graph_from_formulas({"u": "(P1 | P2) & ~P1 & ~P2"}, [])
        assert not sat_graph_satisfiable(graph)

    def test_encoding_round_trip(self):
        text = "(P1 & ~P2) | P3"
        assert decode_formula_text(encode_formula_text(text)) == text

    def test_encoding_rejects_unparsable_text(self):
        with pytest.raises(ValueError):
            encode_formula_text("P1 &&& P2")


class TestTextEncoding:
    @settings(max_examples=200, deadline=None)
    @given(text=st.text(alphabet=st.characters(max_codepoint=127)))
    def test_round_trip_on_ascii(self, text):
        assert decode_text(encode_text(text)) == text

    def test_empty_string_round_trips(self):
        assert encode_text("") == ""
        assert decode_text("") == ""

    def test_length_error_is_unchanged(self):
        with pytest.raises(ValueError, match=r"^encoded text must have a length divisible by 8$"):
            decode_text("0100000")
        # The length is checked before the characters.
        with pytest.raises(ValueError, match="divisible by 8"):
            decode_text("01x")

    @pytest.mark.parametrize(
        "chunk",
        # int(..., 2) would accept the prefix, the underscore, the spaces
        # and the non-ASCII digits.
        ["0100000x", "0b000001", "0_000001", " 1000001", "1000001 ", "\u0661" * 8],
    )
    def test_first_invalid_chunk_is_reported(self, chunk):
        bits = encode_text("A") + chunk + "0" * 8 + "x" * 8
        with pytest.raises(ValueError, match=r"^invalid bit chunk ") as raised:
            decode_text(bits)
        assert str(raised.value) == f"invalid bit chunk {chunk!r}"
