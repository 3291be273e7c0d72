"""Tests for the Fagin compiler and the Cook-Levin construction (Sections 7 and 8)."""

import dataclasses
import functools
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolsat.encoding import encode_text
from repro.fagin import compile_sentence, cook_levin_boolean_graph, cook_levin_reduction_check
from repro.fagin.compiler import (
    _view_structure,
    bounded_quantifier_depth,
    decode_relation_certificates,
    quantifier_blocks,
    relation_certificate_space,
)
from repro.fagin.encoding import (
    decode_relation_content,
    encode_relation_content,
    safe_decode_relation_content,
)
from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment, small_identifier_assignment
from repro.logic import examples
from repro.logic.semantics import evaluate
from repro.logic.syntax import (
    BoundedExists,
    Equal,
    Forall,
    Iff,
    LocalExists,
    Not,
    RelationAtom,
    RelationVariable,
    SOExists,
    UnaryAtom,
)
from repro.machines.local_algorithm import gather_view
import repro.properties as props


class TestCertificateEncoding:
    def test_round_trip(self):
        content = {
            "C0": frozenset({(("01", None),), (("01", 2),)}),
            "P": frozenset({(("01", None), ("10", None))}),
        }
        bits = encode_relation_content(content)
        assert decode_relation_content(bits) == content

    def test_empty_content(self):
        assert decode_relation_content(encode_relation_content({})) == {}

    def test_safe_decode_on_garbage(self):
        assert safe_decode_relation_content("10101") == {}


class TestStaticAnalysis:
    def test_bounded_quantifier_depth(self):
        phi = BoundedExists("y", "x", BoundedExists("z", "y", Equal("z", "y")))
        assert bounded_quantifier_depth(phi) == 2
        assert bounded_quantifier_depth(LocalExists("y", "x", 3, Equal("y", "x"))) == 3
        assert bounded_quantifier_depth(UnaryAtom(1, "x")) == 0

    def test_quantifier_blocks(self):
        X = RelationVariable("X", 1)
        Y = RelationVariable("Y", 1)
        matrix = Forall("x", UnaryAtom(1, "x"))
        blocks, inner = quantifier_blocks(SOExists(X, SOExists(Y, matrix)))
        assert [(kind, [r.name for r in rels]) for kind, rels in blocks] == [("E", ["X", "Y"])]
        assert inner == matrix


class TestCompiledArbiters:
    def test_all_selected_compiles_to_lp_decider(self):
        spec = compile_sentence(examples.all_selected_formula()).spec("all-selected")
        assert spec.class_name() == "LP"
        assert spec.decide(generators.path_graph(3, labels=["1", "1", "1"]))
        assert not spec.decide(generators.path_graph(3, labels=["1", "0", "1"]))

    def test_three_colorable_compiles_to_nlp_verifier(self):
        compiled = compile_sentence(examples.three_colorable_formula())
        assert [kind for kind, _ in compiled.blocks] == ["E"]
        spec = compiled.spec("3-colorable")
        assert spec.class_name() == "NLP"
        assert spec.decide(generators.cycle_graph(3))

    def test_compiled_game_rejects_non_three_colorable(self):
        spec = compile_sentence(examples.three_colorable_formula()).spec("3-colorable")
        assert not spec.decide(generators.complete_graph(4))

    def test_compiled_game_matches_ground_truth_on_paths(self):
        spec = compile_sentence(examples.three_colorable_formula()).spec("3-colorable")
        graph = generators.path_graph(3)
        assert spec.decide(graph) == props.three_colorable(graph)

    def test_rejects_non_lfo_matrix(self):
        from repro.logic.syntax import Exists

        X = RelationVariable("X", 1)
        bad = SOExists(X, Exists("x", UnaryAtom(1, "x")))
        with pytest.raises(ValueError):
            compile_sentence(bad)

    def test_certificate_space_blowup_is_reported(self):
        # Binary relation variables on labeled graphs exceed the candidate cap.
        compiled = compile_sentence(examples.hamiltonian_formula(), candidate_limit=4)
        graph = generators.cycle_graph(4, labels=["1"] * 4)
        ids = sequential_identifier_assignment(graph)
        with pytest.raises(ValueError):
            compiled.spaces[0].node_candidates(graph, ids, list(graph.nodes)[0])


# ----------------------------------------------------------------------
# The compiled arbiter against the interpreted one
# ----------------------------------------------------------------------
BITS = RelationVariable("B", 1)
#: Every example sentence of Section 5.2 (all of them compile).
SENTENCES = {
    "three-colorable": examples.three_colorable_formula,
    "two-colorable": examples.two_colorable_formula,
    "non-three-colorable": examples.non_three_colorable_formula,
    "all-selected": examples.all_selected_formula,
    "not-all-selected": examples.not_all_selected_formula,
    "one-selected": examples.one_selected_formula,
    "exists-unselected-node": examples.exists_unselected_node_formula,
    "hamiltonian": examples.hamiltonian_formula,
    "non-hamiltonian": examples.non_hamiltonian_formula,
    # Two sentences whose matrix can fail at a labeling bit rather than a node.
    "no-one-bits": lambda: Forall("x", Not(UnaryAtom(1, "x"))),
    "bits-recorded": lambda: SOExists(
        BITS, Forall("x", Iff(RelationAtom(BITS, ("x",)), UnaryAtom(1, "x")))
    ),
}


@functools.lru_cache(maxsize=None)
def compiled_example(name):
    """One arbiter per sentence for the whole module, so its memos both
    miss (new strings and shapes) and hit (repeated ones)."""
    return compile_sentence(SENTENCES[name]())


def reference_compute(compiled, view):
    """The arbiter's output on *view* by the Table 1 interpreter: the view's
    structure, every visible certificate decoded afresh, and ``evaluate``."""
    structure, ref_to_element = _view_structure(view.nodes, view.edges, view.labels)
    interpretation = {}
    for level_index, (_, block) in enumerate(compiled.blocks):
        decoded = decode_relation_certificates(view, level_index, block)
        for relation in block:
            interpretation[relation] = frozenset(
                tuple(ref_to_element[ref] for ref in tup)
                for tup in decoded[relation.name]
                if all(ref in ref_to_element for ref in tup)
            )
    psi, variable = compiled.matrix.body, compiled.matrix.variable
    center = view.center
    for element in [center] + [(center, p) for p in range(1, len(view.center_label()) + 1)]:
        if not evaluate(structure, psi, {**interpretation, variable: element}):
            return "0"
    return "1"


MALFORMED_TEXTS = ["C0:x.-", "C0:01.z", "C0;P:01.-+", ":;", "C0:01", "P:.-+.-"]


def certificates_for(block, refs):
    """Well-formed fragments over *refs* (including elements outside the view,
    foreign relation names and tuples of the wrong arity) and malformed strings."""
    tuples = st.lists(st.sampled_from(refs), min_size=1, max_size=2).map(tuple)
    names = [relation.name for relation in block] + ["Q"]
    fragments = st.dictionaries(st.sampled_from(names), st.frozensets(tuples, max_size=3), max_size=3)
    return st.one_of(
        fragments.map(encode_relation_content),
        st.text("01", max_size=20),
        st.sampled_from(MALFORMED_TEXTS).map(encode_text),
    )


@st.composite
def arbiter_views(draw):
    """A compiled example arbiter and a view of a small labeled path or cycle.

    In about half the views every certificate is a candidate of the arbiter's
    own spaces (where they are small), so that the matrix is not only ever
    refuted early; in the
    others they are drawn by :func:`certificates_for`, and a node may carry
    fewer levels than the arbiter has.
    """
    compiled = compiled_example(draw(st.sampled_from(sorted(SENTENCES))))
    size = draw(st.integers(1, 4))
    labels = draw(st.lists(st.text("01", max_size=2), min_size=size, max_size=size))
    make = generators.cycle_graph if size >= 3 and draw(st.booleans()) else generators.path_graph
    graph = make(size, labels=labels)
    if draw(st.booleans()):
        ids = sequential_identifier_assignment(graph)
    else:
        ids = small_identifier_assignment(graph, compiled.radius + 1)
    center = draw(st.sampled_from(list(graph.nodes)))
    view = gather_view(graph, ids, center, compiled.radius)
    node_of = {ids[node]: node for node in graph.ball(center, compiled.radius)}
    refs = [("111111", None), ("", None)]  # identifiers nobody carries
    for node in graph.nodes:
        # One bit position past the label: an element outside every view.
        refs += [(ids[node], None)] + [(ids[node], p) for p in range(1, len(graph.label(node)) + 2)]
    honest = draw(st.booleans())
    certificates = []
    for identifier in sorted(view.nodes):
        levels = len(compiled.blocks) if honest else draw(st.integers(0, len(compiled.blocks)))
        drawn = []
        for level in range(levels):
            block = compiled.blocks[level][1]
            strategy = certificates_for(block, refs)
            if honest:
                # The arbiter's own space, capped at 2**6 candidates per node.
                space = relation_certificate_space(block, compiled.radius, candidate_limit=6)
                try:
                    strategy = st.sampled_from(space.node_candidates(graph, ids, node_of[identifier]))
                except ValueError:  # more candidate tuples than the cap
                    pass
            drawn.append(draw(strategy))
        certificates.append((identifier, tuple(drawn)))
    return compiled, dataclasses.replace(view, certificates=tuple(certificates))


class TestCompiledMatrix:
    @settings(max_examples=200, deadline=None)
    @given(drawn=arbiter_views())
    def test_compute_equals_the_interpreted_reference(self, drawn):
        compiled, view = drawn
        assert compiled.algorithm.compute(view) == reference_compute(compiled, view)

    @pytest.mark.parametrize(
        "name, graph",
        [
            ("three-colorable", generators.cycle_graph(3)),
            ("two-colorable", generators.path_graph(3)),
            ("hamiltonian", generators.path_graph(2)),  # three blocks, a binary relation
            ("bits-recorded", generators.path_graph(2, labels=["10", "1"])),
        ],
    )
    def test_compute_equals_the_reference_on_every_certificate_assignment(self, name, graph):
        # Random certificates rarely satisfy a matrix; over every assignment
        # of the arbiter's own spaces, some views accept and others reject.
        compiled = compile_sentence(SENTENCES[name]())
        ids = sequential_identifier_assignment(graph)
        nodes = list(graph.nodes)
        choices = [space.node_candidates(graph, ids, v) for space in compiled.spaces for v in nodes]
        outputs = set()
        for combination in itertools.product(*choices):
            levels = [
                dict(zip(nodes, combination[i : i + len(nodes)]))
                for i in range(0, len(combination), len(nodes))
            ]
            for node in nodes:
                view = gather_view(graph, ids, node, compiled.radius, levels)
                expected = reference_compute(compiled, view)
                assert compiled.algorithm.compute(view) == expected
                outputs.add(expected)
        assert outputs == {"0", "1"}

    def test_one_arbiter_shared_by_eight_threads(self):
        compiled = compile_sentence(examples.three_colorable_formula())
        rng = random.Random(7)
        views = []
        for graph in (generators.cycle_graph(3), generators.cycle_graph(4), generators.path_graph(3)):
            ids = sequential_identifier_assignment(graph)
            candidates = {
                node: compiled.spaces[0].node_candidates(graph, ids, node) for node in graph.nodes
            }
            for _ in range(12):
                assignment = {node: rng.choice(candidates[node]) for node in graph.nodes}
                views += [
                    gather_view(graph, ids, node, compiled.radius, [assignment])
                    for node in graph.nodes
                ]
        expected = [reference_compute(compiled, view) for view in views]
        assert set(expected) == {"0", "1"}
        answers = [None] * 8

        def worker(index):
            order = list(range(len(views)))
            random.Random(index).shuffle(order)
            answers[index] = {i: compiled.algorithm.compute(views[i]) for i in order}

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for answer in answers:
            assert [answer[i] for i in range(len(views))] == expected
        for memo in compiled.memos.values():
            info = memo.cache_info()
            assert info.hits > 0 and info.misses > 0, info


class TestCookLevin:
    def test_three_colorability_equivalence(self):
        graphs = [
            generators.cycle_graph(3),
            generators.complete_graph(4),
            generators.path_graph(3),
            generators.cycle_graph(5),
        ]
        failures = cook_levin_reduction_check(
            examples.three_colorable_formula(), graphs, props.three_colorable
        )
        assert failures == []

    def test_all_selected_equivalence(self):
        graphs = [
            generators.path_graph(3, labels=["1", "1", "1"]),
            generators.path_graph(3, labels=["1", "0", "1"]),
            generators.single_node("1"),
            generators.single_node("0"),
        ]
        failures = cook_levin_reduction_check(
            examples.all_selected_formula(), graphs, props.all_selected
        )
        assert failures == []

    def test_output_is_boolean_graph_with_same_topology(self):
        graph = generators.cycle_graph(4)
        boolean_graph = cook_levin_boolean_graph(examples.three_colorable_formula(), graph)
        assert boolean_graph.cardinality() == graph.cardinality()
        assert len(boolean_graph.edges) == len(graph.edges)
        from repro.boolsat.boolean_graph import decode_boolean_graph

        decode_boolean_graph(boolean_graph)  # must not raise

    def test_rejects_non_sigma1_sentences(self):
        with pytest.raises(ValueError):
            cook_levin_boolean_graph(
                examples.non_three_colorable_formula(), generators.cycle_graph(3)
            )

    def test_single_node_case_recovers_classical_cook_levin(self):
        # On single-node graphs the construction specializes to NP's Cook-Levin:
        # a string satisfies the property iff the produced formula is satisfiable.
        yes = generators.single_node("1")
        no = generators.single_node("0")
        formula = examples.all_selected_formula()
        assert props.sat_graph(cook_levin_boolean_graph(formula, yes))
        assert not props.sat_graph(cook_levin_boolean_graph(formula, no))
