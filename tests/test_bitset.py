"""Bitset search equivalence: mask-pruned engine == exhaustive oracle.

The vectorized search (``repro.engine.bitset`` plus the pairwise mask
searches and quantifier collapse in ``CompiledGameEngine``) must be
bit-identical to the exhaustive reference solver, across every builtin rule
kind, identifier scheme, certificate space (including empty ones, which
gate the collapse) and quantifier prefix.  Star rules have no bitset
kernel; they take the generic memoized search, checked here on the same
games.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BitsetKernel, CompiledGameEngine, CompiledInstance
from repro.graphs import generators
from repro.graphs.identifiers import (
    random_identifier_assignment,
    sequential_identifier_assignment,
    small_identifier_assignment,
)
from repro.hierarchy.certificate_spaces import (
    CertificateSpace,
    bit_space,
    color_space,
    empty_space,
    enumerated_space,
)
from repro.hierarchy.game import (
    Quantifier,
    eve_wins,
    pi_prefix,
    sigma_prefix,
    winning_first_move,
)
from repro.locality.proof_labeling import all_schemes
from repro.machines import builtin
from repro.machines.rules import PairwiseRule, StarRule, rule_of


def _graph_pool():
    return [
        generators.cycle_graph(3),
        generators.cycle_graph(5),
        generators.path_graph(4, labels=["1", "0", "1", "1"]),
        generators.star_graph(4),
        generators.complete_graph(4),
        generators.random_tree(6, seed=11),
        generators.grid_graph(2, 3),
    ]


def _ruled_machine_pool():
    return [
        builtin.three_colorability_verifier(),
        builtin.two_colorability_verifier(),
        builtin.eulerian_decider(),
        builtin.all_selected_decider(),
        builtin.coloring_label_verifier(2),
        builtin.selected_equals_certificate_verifier(),
        builtin.constant_algorithm("1"),
        builtin.constant_algorithm("0"),
    ]


def _space_pool():
    return [
        bit_space(),
        color_space(2),
        color_space(3),
        empty_space(),
        enumerated_space(("", "1"), name="maybe-one"),
    ]


def _id_schemes(graph, rng):
    yield sequential_identifier_assignment(graph)
    yield small_identifier_assignment(graph, 1)
    yield random_identifier_assignment(graph, 1, rng=random.Random(rng.randrange(100)))


def _decoy_space(honest):
    """Two candidates per node: a wrong certificate, then the honest one."""
    values = sorted(set(honest.values()))

    def candidates(graph, ids, node):
        decoy = next((value for value in values if value != honest[node]), "")
        return (decoy, honest[node])

    return CertificateSpace(candidates=candidates, name="decoy-then-honest")


def _engine(machine, graph, ids, spaces):
    return CompiledGameEngine(
        machine,
        graph,
        ids,
        spaces,
        instance=CompiledInstance(machine, graph, ids),
    )


class TestMaskTables:
    """Rules emit the mask tables the kernel is built from."""

    def test_own_code_mask_matches_rule(self):
        machine = builtin.three_colorability_verifier()
        rule = rule_of(machine)
        assert isinstance(rule, PairwiseRule)
        alphabet = ["", "00", "01", "10", "junk"]
        mask = rule.own_code_mask("1", 2, alphabet)
        for code, certificate in enumerate(alphabet):
            assert bool((mask >> code) & 1) == bool(rule.own_ok("1", 2, certificate))

    def test_mutual_pair_mask_requires_both_directions(self):
        machine = builtin.three_colorability_verifier()
        rule = rule_of(machine)
        alphabet = ["", "00", "01", "10"]
        mask = rule.mutual_pair_mask("1", "1", "00", alphabet)
        for code, certificate in enumerate(alphabet):
            expected = rule.pair_ok("1", certificate, "1", "00") and rule.pair_ok(
                "1", "00", "1", certificate
            )
            assert bool((mask >> code) & 1) == bool(expected)

    def test_pair_ok_none_yields_all_ones(self):
        machine = builtin.eulerian_decider()
        rule = rule_of(machine)
        assert rule.pair_ok is None
        alphabet = ["", "x", "y"]
        assert rule.mutual_pair_mask("1", "1", "", alphabet) == 0b111

    def test_kernel_snapshot_goes_stale_on_interning(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        kernel = instance.bitset_kernel()
        assert isinstance(kernel, BitsetKernel)
        assert instance.bitset_kernel() is kernel  # still fresh: reused
        instance.intern("fresh-certificate")
        rebuilt = instance.bitset_kernel()
        assert rebuilt is not kernel and instance.bitset_kernel() is rebuilt

    def test_kernel_path_instance_is_freed_without_the_cycle_collector(self):
        # The kernel keeps no reference back to its instance: a batch's
        # instances die with their last holder instead of waiting for a
        # cyclic collection.
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(5)
        ids = sequential_identifier_assignment(graph)
        gc.disable()
        try:
            engine = _engine(machine, graph, ids, [color_space(3)])
            assert engine.eve_wins(sigma_prefix(1)) is True
            assert engine.compiled._bitset_kernel is not None
            dead = weakref.ref(engine.compiled)
            del engine
            assert dead() is None
        finally:
            gc.enable()

    def test_unruled_instance_has_no_kernel(self):
        machine = builtin.predicate_decider(1, lambda view: True, name="bare")
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        assert CompiledInstance(machine, graph, ids).bitset_kernel() is None


class TestBitsetEquivalence:
    """bitset engine == exhaustive oracle."""

    @pytest.mark.parametrize("level", [0, 1])
    def test_randomized_equivalence(self, level):
        rng = random.Random(170 + level)
        for trial in range(10):
            graph = rng.choice(_graph_pool())
            machine = rng.choice(_ruled_machine_pool())
            spaces = [rng.choice(_space_pool()) for _ in range(level)]
            for ids in _id_schemes(graph, rng):
                for prefix in (sigma_prefix(level), pi_prefix(level)):
                    expected = eve_wins(machine, graph, ids, spaces, prefix)
                    bitset = _engine(machine, graph, ids, spaces).eve_wins(prefix)
                    assert expected == bitset, (
                        trial, machine, graph, [s.name for s in spaces], prefix, ids,
                    )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_hypothesis_two_level_collapse(self, data):
        """EA/AE games on ruled machines: the collapse must match the oracle.

        Two-level games with a level-0 rule exercise the quantifier
        collapse (the inner level cannot change the verdict) including its
        vacuity guard (empty candidate spaces flip FORALL levels).
        """
        graphs = [
            generators.path_graph(2, labels=["1", "1"]),
            generators.cycle_graph(3),
            generators.path_graph(3, labels=["1", "0", "1"]),
        ]
        graph = graphs[data.draw(st.integers(min_value=0, max_value=len(graphs) - 1))]
        machines = _ruled_machine_pool()
        machine = machines[
            data.draw(st.integers(min_value=0, max_value=len(machines) - 1))
        ]
        pool = [bit_space(), enumerated_space(("", "1"), name="m1"), empty_space()]
        spaces = [
            pool[data.draw(st.integers(min_value=0, max_value=2))] for _ in range(2)
        ]
        quantifiers = [
            Quantifier.EXISTS if bit else Quantifier.FORALL
            for bit in (data.draw(st.booleans()), data.draw(st.booleans()))
        ]
        ids = sequential_identifier_assignment(graph)
        expected = eve_wins(machine, graph, ids, spaces, quantifiers)
        bitset = _engine(machine, graph, ids, spaces).eve_wins(quantifiers)
        assert expected == bitset

    def test_star_rules_through_generic_search(self):
        # Every scheme's verifier on arbitrary small spaces must agree with
        # the oracle, both prefixes.  Star verifiers have no bitset kernel:
        # on a yes-instance of each, a space offering a decoy before the
        # honest certificate at every node makes the generic search
        # backtrack, and Eve must still win.
        yes_instances = {
            "acyclic": generators.random_tree(6, seed=11),
            "odd": generators.path_graph(5),
            "non-2-colorable": generators.cycle_graph(5),
            "automorphic": generators.cycle_graph(6),
        }
        star_schemes = 0
        for scheme in all_schemes():
            graph = generators.cycle_graph(5)
            ids = sequential_identifier_assignment(graph)
            for spaces in ([bit_space()], [enumerated_space(("", "1"), name="m1")]):
                for prefix in (sigma_prefix(1), pi_prefix(1)):
                    expected = eve_wins(scheme.verifier, graph, ids, spaces, prefix)
                    got = _engine(scheme.verifier, graph, ids, spaces).eve_wins(prefix)
                    assert expected == got, (scheme.property_name, prefix)
            if not isinstance(rule_of(scheme.verifier), StarRule):
                continue
            star_schemes += 1
            graph = yes_instances[scheme.property_name]
            ids = sequential_identifier_assignment(graph)
            spaces = [_decoy_space(scheme.prover(graph, ids))]
            engine = _engine(scheme.verifier, graph, ids, spaces)
            assert engine.compiled.bitset_kernel() is None
            assert eve_wins(scheme.verifier, graph, ids, spaces, sigma_prefix(1)) is True
            assert engine.eve_wins(sigma_prefix(1)) is True, scheme.property_name
            expected = eve_wins(scheme.verifier, graph, ids, spaces, pi_prefix(1))
            assert engine.eve_wins(pi_prefix(1)) == expected, scheme.property_name
        assert star_schemes == len(yes_instances)

    def test_winning_first_move_parity(self):
        machine = builtin.three_colorability_verifier()
        for graph in (generators.cycle_graph(3), generators.complete_graph(4)):
            ids = sequential_identifier_assignment(graph)
            for prefix in (sigma_prefix(1), pi_prefix(1)):
                bitset = _engine(machine, graph, ids, [color_space(3)])
                expected = winning_first_move(machine, graph, ids, [color_space(3)], prefix)
                assert bitset.winning_first_move(prefix) == expected

    def test_fixed_prefix_equivalence(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        fixed = [{u: "00" for u in graph.nodes}]
        expected = eve_wins(machine, graph, ids, [color_space(3)], sigma_prefix(1), fixed)
        engine = _engine(machine, graph, ids, [color_space(3)])
        assert engine.eve_wins(sigma_prefix(1), fixed) == expected


class TestPruningBehavior:
    def test_reject_heavy_instance_prunes_blocks(self):
        # K4 is not 3-colorable: the whole search must die in the masks.
        machine = builtin.three_colorability_verifier()
        graph = generators.complete_graph(4)
        ids = sequential_identifier_assignment(graph)
        engine = _engine(machine, graph, ids, [color_space(3)])
        assert engine.eve_wins(sigma_prefix(1)) is False
        assert engine.bitset_prunes > 0
        # The pairwise mask search leaves no per-node memo trail at all.
        assert engine.compiled.memo_info()["size"] == 0

    def test_uniform_label_fast_path_matches_generic(self):
        machine = builtin.two_colorability_verifier()
        graph = generators.cycle_graph(6)  # uniform labels
        assert len(set(graph.label(u) for u in graph.nodes)) == 1
        ids = sequential_identifier_assignment(graph)
        bitset = _engine(machine, graph, ids, [bit_space()]).eve_wins(sigma_prefix(1))
        oracle = eve_wins(machine, graph, ids, [bit_space()], sigma_prefix(1))
        assert bitset == oracle is True
