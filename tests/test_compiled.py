"""Compiled core equivalence: cold and shared-instance engines vs the oracle.

The compiled instance core (``repro.engine.compiled``) must be bit-identical
to the exhaustive reference solver ``repro.hierarchy.game.eve_wins`` on
every machine kind (table-driven pairwise rules, star rules, the generic
direct path, the knowledge fixpoint, ball simulation), every identifier
scheme (globally unique, locally unique, colliding), every quantifier
prefix and every certificate space -- both on a fresh instance and on one
instance held across several games, as ``evaluate_timed``'s sharing groups
hold it.  These tests assert that three-way equivalence on randomized
instances, the fixpoint's node verdicts against the simulator's, plus the
compiled-specific machinery: incremental packed restriction keys, alphabet
rebase, memo bounds and counters, kernel selection, positional sharing
keys, and that compiling pins nothing process-wide.
"""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompiledGameEngine, CompiledInstance, compile_instance
from repro.engine import compiled as compiled_module
from repro.engine.batch import GameInstance
from repro.engine.caching import LRUCache
from repro.graphs import generators
from repro.graphs.identifiers import (
    cyclic_identifier_assignment,
    random_identifier_assignment,
    sequential_identifier_assignment,
    small_identifier_assignment,
)
from repro.hierarchy.certificate_spaces import (
    bit_space,
    color_space,
    empty_space,
    enumerated_space,
    materialize_space,
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
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.machines.rules import PairwiseRule, StarRule, rule_of
from repro.machines.simulator import execute
from repro.sweep.executor import evaluate_timed


class _SubclassedGather(NeighborhoodGatherAlgorithm):
    """Behaviorally identical subclass: forces the simulation fallback."""


def _parity_machine():
    def compute(view):
        ones = sum(
            cert.count("1") for _, certs in view.certificates for cert in certs
        )
        return "1" if ones % 2 == 0 else "0"

    return NeighborhoodGatherAlgorithm(1, compute, name="cert-parity")


def _view_hash_machine(radius):
    """A gather whose verdict is one bit of a hash of its whole view.

    Any difference in the view's nodes, edges, labels, certificates or
    distances flips the verdict with probability 1/2, so per-node verdict
    equality over many draws checks the views themselves.
    """

    def compute(view):
        payload = repr(
            (
                view.center,
                view.radius,
                sorted(view.nodes),
                sorted(sorted(edge) for edge in view.edges),
                view.labels,
                view.certificates,
                view.distances,
            )
        )
        return "1" if hashlib.sha256(payload.encode()).digest()[0] & 1 else "0"

    return NeighborhoodGatherAlgorithm(radius, compute, name=f"view-hash[{radius}]")


def _loaded_state(instance, assignments):
    """A coded state holding per-level certificate dicts."""
    state = instance.new_state(len(assignments))
    for level, assignment in enumerate(assignments):
        state.load_level(level, assignment)
    return state


def _node_verdicts(instance, assignments):
    """Every node's verdict under certificate dicts (no short-circuit)."""
    state = _loaded_state(instance, assignments)
    return {
        node: instance.node_verdict_state(u, state)
        for u, node in enumerate(instance.nodes)
    }


def _packed_key(instance, u, assignments):
    """Node *u*'s packed restriction key, packed from scratch (no set_code)."""
    ball = instance.balls[u]
    key = 0
    for level, assignment in enumerate(assignments):
        for position, v in enumerate(ball):
            code = instance.code_of[assignment.get(instance.nodes[v], "")]
            key |= code << ((level * len(ball) + position) * instance.shift)
    return key


def _graph_pool():
    return [
        generators.cycle_graph(3),
        generators.cycle_graph(5),
        generators.cycle_graph(6),
        generators.path_graph(2, labels=["1", "1"]),
        generators.path_graph(4, labels=["1", "0", "1", "1"]),
        generators.star_graph(4),
        generators.complete_graph(4),
        generators.random_tree(6, seed=11),
        generators.grid_graph(2, 3),
    ]


def _ruled_machine_pool():
    """Machines carrying declarative rules (pairwise and star kernels)."""
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


def _machine_pool():
    return _ruled_machine_pool() + [
        _parity_machine(),
        _SubclassedGather(1, _parity_machine().compute, name="cert-parity-sub"),
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


class TestThreeWayEquivalence:
    """cold engine == shared-instance engine == exhaustive oracle."""

    @pytest.mark.parametrize("level", [0, 1])
    def test_randomized_equivalence(self, level):
        rng = random.Random(40 + level)
        # Pools drawn once, so a (machine, graph, ids) triple can recur
        # across trials with other spaces: its one held instance then
        # serves every game played on it.
        graphs, machines, space_pool = _graph_pool(), _machine_pool(), _space_pool()
        held = {}
        for trial in range(10):
            graph = rng.choice(graphs)
            machine = rng.choice(machines)
            spaces = [rng.choice(space_pool) for _ in range(level)]
            for ids in _id_schemes(graph, rng):
                triple = (machine, graph, tuple((u, ids[u]) for u in graph.nodes))
                if triple not in held:
                    held[triple] = CompiledInstance(machine, graph, ids)
                for prefix in (sigma_prefix(level), pi_prefix(level)):
                    expected = eve_wins(machine, graph, ids, spaces, prefix)
                    shared = CompiledGameEngine(
                        machine, graph, ids, spaces, instance=held[triple]
                    ).eve_wins(prefix)
                    compiled = CompiledGameEngine(
                        machine, graph, ids, spaces,
                        instance=CompiledInstance(machine, graph, ids),
                    ).eve_wins(prefix)
                    assert expected == shared == compiled, (
                        trial, machine, graph, [s.name for s in spaces], prefix, ids,
                    )

    @pytest.mark.slow
    def test_randomized_equivalence_level_two(self):
        rng = random.Random(99)
        small_graphs = [
            generators.path_graph(2, labels=["1", "1"]),
            generators.cycle_graph(3),
            generators.path_graph(3, labels=["1", "0", "1"]),
        ]
        # A space listing a candidate twice is the one input on which a
        # position recurs within one game.
        repeating = enumerated_space(("0", "1", "0"))
        small_spaces = [bit_space(), enumerated_space(("", "1"), name="maybe-one"), repeating]
        drew_repeating = False
        for trial in range(6):
            graph = rng.choice(small_graphs)
            machine = rng.choice(_machine_pool())
            spaces = [rng.choice(small_spaces) for _ in range(2)]
            drew_repeating = drew_repeating or repeating in spaces
            ids = sequential_identifier_assignment(graph)
            for prefix in (sigma_prefix(2), pi_prefix(2)):
                expected = eve_wins(machine, graph, ids, spaces, prefix)
                compiled = CompiledGameEngine(machine, graph, ids, spaces).eve_wins(prefix)
                assert expected == compiled, (trial, prefix)
        assert drew_repeating

    def test_colliding_identifiers_force_simulation_and_agree(self):
        # Cyclic identifiers collide at the gather horizon (Proposition 26):
        # kernels must be refused and the simulator's behavior reproduced,
        # here by the knowledge fixpoint without running the simulator.
        machine = builtin.two_colorability_verifier()
        graph = generators.cycle_graph(6)
        ids = cyclic_identifier_assignment(graph, 3)
        instance = CompiledInstance(machine, graph, ids)
        assert not instance.direct
        assert instance.rule is None
        assert instance.path == "fixpoint"
        spaces = [bit_space()]
        for prefix in (sigma_prefix(1), pi_prefix(1)):
            expected = eve_wins(machine, graph, ids, spaces, prefix)
            engine = CompiledGameEngine(machine, graph, ids, spaces, instance=instance)
            assert engine.eve_wins(prefix) == expected
            assert instance.simulator_runs == 0

    def test_fixed_prefix_equivalence(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        fixed = [{u: "00" for u in graph.nodes}]
        expected = eve_wins(machine, graph, ids, [color_space(3)], sigma_prefix(1), fixed)
        engine = CompiledGameEngine(machine, graph, ids, [color_space(3)])
        assert engine.eve_wins(sigma_prefix(1), fixed) == expected

    def test_prefix_length_validation(self):
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        engine = CompiledGameEngine(builtin.constant_algorithm(), graph, ids, [bit_space()])
        with pytest.raises(ValueError):
            engine.eve_wins([])
        with pytest.raises(ValueError):
            engine.winning_first_move([])

    def test_winning_first_move_parity(self):
        machine = builtin.three_colorability_verifier()
        for graph in (generators.cycle_graph(3), generators.complete_graph(4)):
            ids = sequential_identifier_assignment(graph)
            held = CompiledInstance(machine, graph, ids)
            for prefix in (sigma_prefix(1), pi_prefix(1)):
                expected = winning_first_move(machine, graph, ids, [color_space(3)], prefix)
                shared = CompiledGameEngine(
                    machine, graph, ids, [color_space(3)], instance=held
                ).winning_first_move(prefix)
                compiled = CompiledGameEngine(
                    machine, graph, ids, [color_space(3)],
                    instance=CompiledInstance(machine, graph, ids),
                ).winning_first_move(prefix)
                assert expected == shared == compiled


class TestProofLabelingKernels:
    """The star-rule verifiers must agree with simulation on real certificates."""

    def test_schemes_verify_through_compiled_kernels(self):
        samples = {
            "eulerian": generators.cycle_graph(8),
            "3-colorable": generators.cycle_graph(9),
            "acyclic": generators.random_tree(8, seed=4),
            "odd": generators.path_graph(7),
            "non-2-colorable": generators.cycle_graph(7),
            "automorphic": generators.cycle_graph(6),
        }
        for scheme in all_schemes():
            graph = samples[scheme.property_name]
            ids = sequential_identifier_assignment(graph)
            certificates = scheme.prover(graph, ids)
            assert certificates is not None, scheme.property_name
            instance = CompiledInstance(scheme.verifier, graph, ids)
            got = instance.accepts_dicts([dict(certificates)])
            expected = execute(scheme.verifier, graph, ids, [dict(certificates)]).accepts()
            assert got == expected is True, scheme.property_name

    def test_star_rule_rejections_match_simulator(self):
        # Corrupted certificates must be rejected identically node by node.
        rng = random.Random(7)
        for scheme in all_schemes():
            if scheme.property_name == "eulerian":
                continue
            graph = generators.cycle_graph(5) if scheme.decide(generators.cycle_graph(5)) else generators.path_graph(5)
            ids = sequential_identifier_assignment(graph)
            certificates = scheme.prover(graph, ids) or {u: "" for u in graph.nodes}
            corrupted = dict(certificates)
            victim = rng.choice(list(corrupted))
            corrupted[victim] = "10101010"
            instance = CompiledInstance(scheme.verifier, graph, ids)
            got = _node_verdicts(instance, [corrupted])
            expected = execute(scheme.verifier, graph, ids, [corrupted]).verdicts()
            assert got == expected, scheme.property_name

    def test_kernel_selection(self):
        graph = generators.cycle_graph(5)
        ids = sequential_identifier_assignment(graph)
        pairwise = CompiledInstance(builtin.three_colorability_verifier(), graph, ids)
        assert isinstance(pairwise.rule, PairwiseRule)
        star_machine = [s for s in all_schemes() if s.property_name == "acyclic"][0].verifier
        star = CompiledInstance(star_machine, graph, ids)
        assert isinstance(star.rule, StarRule)
        # Only pairwise rules get a bitset kernel; star rules take the
        # generic memoized search.
        assert pairwise.bitset_kernel() is not None
        assert star.bitset_kernel() is None
        unruled = CompiledInstance(_parity_machine(), graph, ids)
        assert unruled.rule is None and unruled.direct
        simulated = CompiledInstance(
            _SubclassedGather(1, _parity_machine().compute, name="sub"), graph, ids
        )
        assert simulated.rule is None and not simulated.direct
        colliding = CompiledInstance(
            _parity_machine(), graph, cyclic_identifier_assignment(graph, 3)
        )
        assert colliding.rule is None and not colliding.direct
        paths = [instance.path for instance in (pairwise, star, unruled, colliding, simulated)]
        assert paths == ["kernel", "kernel", "direct", "fixpoint", "simulate"]
        assert "path=fixpoint" in repr(colliding)

    def test_certificate_free_rules_apply_at_level_zero(self):
        # eulerian's rule reads no certificates, so even the 0-level game
        # runs on the table-driven kernel (no simulator, no local views).
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(builtin.eulerian_decider(), graph, ids)
        assert instance.accepts_dicts([]) is True
        assert instance.simulator_runs == 0
        expected = execute(builtin.eulerian_decider(), graph, ids).accepts()
        assert expected is True


@st.composite
def _colliding_instances(draw):
    """A small connected graph whose identifiers come from a 2-3 bit
    alphabet, so they collide inside the gather horizon and neighbors can
    tie; a view-hashing gather and 1-2 levels of random certificates."""
    kind = draw(st.sampled_from(["cycle", "path", "tree", "connected"]))
    size = draw(st.integers(min_value=3 if kind == "cycle" else 1, max_value=12))
    labels = draw(st.lists(st.sampled_from(["", "0", "1"]), min_size=size, max_size=size))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = {
        "cycle": lambda: generators.cycle_graph(size, labels=labels),
        "path": lambda: generators.path_graph(size, labels=labels),
        "tree": lambda: generators.random_tree(size, seed=seed, labels=labels),
        "connected": lambda: generators.random_connected_graph(
            size, edge_probability=0.3, seed=seed, labels=labels
        ),
    }[kind]()
    bits = draw(st.sampled_from([2, 3]))
    codes = draw(st.lists(st.integers(0, 2**bits - 1), min_size=size, max_size=size))
    ids = {u: format(code, "b").zfill(bits) for u, code in zip(graph.nodes, codes)}
    radius = draw(st.integers(min_value=0, max_value=3))
    levels = draw(st.integers(min_value=1, max_value=2))
    certificate = st.sampled_from(["", "0", "1", "01"])
    draws = draw(
        st.lists(
            st.lists(
                st.lists(certificate, min_size=size, max_size=size),
                min_size=levels,
                max_size=levels,
            ),
            min_size=1,
            max_size=3,
        )
    )
    assignment_sets = [
        [dict(zip(graph.nodes, level)) for level in assignments] for assignments in draws
    ]
    return _view_hash_machine(radius), graph, ids, assignment_sets


class TestKnowledgeFixpoint:
    """Gather machines with colliding identifiers: fixpoint == simulator."""

    @settings(max_examples=150, deadline=None)
    @given(case=_colliding_instances())
    def test_fixpoint_verdicts_equal_the_simulator(self, case):
        machine, graph, ids, assignment_sets = case
        instance = CompiledInstance(machine, graph, ids)
        assert instance.path in ("direct", "fixpoint")
        for assignments in assignment_sets:
            expected = execute(machine, graph, ids, assignments).verdicts()
            assert _node_verdicts(instance, assignments) == expected, assignments
        assert instance.simulator_runs == 0

    def test_registered_colliding_instances_equal_the_simulator(self):
        from repro.sweep.scenarios import build_instances, scenario_names

        rng = random.Random(26)
        checked = 0
        for name in scenario_names():
            for game in build_instances(name):
                instance = CompiledInstance(game.machine, game.graph, game.ids)
                if instance.path != "fixpoint":
                    continue
                spaces = [materialize_space(s, game.graph, game.ids) for s in game.spaces]
                for _ in range(10):
                    assignments = [
                        {
                            u: rng.choice(space.per_node[i]) if space.per_node[i] else ""
                            for i, u in enumerate(game.graph.nodes)
                        }
                        for space in spaces
                    ]
                    expected = execute(game.machine, game.graph, game.ids, assignments)
                    got = _node_verdicts(instance, assignments)
                    assert got == expected.verdicts(), (name, game.name, assignments)
                assert instance.simulator_runs == 0
                checked += 1
        assert checked >= 8  # the periodic-identifier instances of the scenarios


class TestIncrementalKeys:
    """Packed restriction keys under deltas must equal keys rebuilt from dicts."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_incremental_keys_match_rebuilt(self, data):
        graph_index = data.draw(st.integers(min_value=0, max_value=len(_graph_pool()) - 1))
        graph = _graph_pool()[graph_index]
        machine = builtin.three_colorability_verifier()
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        levels = data.draw(st.integers(min_value=1, max_value=2))
        state = instance.new_state(levels)
        certificates = ["", "0", "1", "00", "01", "10", "11"]
        n = instance.n
        deltas = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=levels - 1),
                    st.integers(min_value=0, max_value=n - 1),
                    st.sampled_from(certificates),
                ),
                max_size=25,
            )
        )
        for level, v, certificate in deltas:
            state.set_code(level, v, instance.intern(certificate))
            state.sync()
        # Rebuild every node's key from the decoded assignment dicts.
        alphabet = instance.alphabet
        assignments = [
            {instance.nodes[v]: alphabet[state.codes[level][v]] for v in range(n)}
            for level in range(levels)
        ]
        for u in range(n):
            assert state.keys[u] == _packed_key(instance, u, assignments), (u, deltas)

    def test_rebase_preserves_verdicts_and_keys(self):
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(5)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        state = instance.new_state(1)
        state.set_code(0, 0, instance.intern("00"))
        before_gen = instance.generation
        # Intern past the initial capacity to force at least one rebase.
        for i in range(2 ** instance.shift + 5):
            instance.intern(format(i, "b").zfill(12))
        assert instance.generation > before_gen
        state.sync()
        assignments = [{instance.nodes[v]: instance.alphabet[state.codes[0][v]] for v in range(instance.n)}]
        for u in range(instance.n):
            assert state.keys[u] == _packed_key(instance, u, assignments)
        # Verdicts after the rebase still match the simulator.
        expected = execute(machine, graph, ids, [dict(assignments[0])]).accepts()
        assert instance.accepts_dicts(assignments) == expected

    def test_pair_table_survives_relabels(self):
        # The shared pair table is keyed (label, code, label, code) and is
        # never cleared by a rewire: relabels from uniform labels to mixed
        # ones and back must keep accepts_dicts equal to the simulator.
        # Selected ("1") nodes accept any bit; unselected ones need every
        # neighbor to carry another bit, so the pair verdict of two equal
        # codes differs between the all-"1" and all-"0" labelings.
        def predicate(view):
            certs = view.center_certificates()
            if not certs or certs[0] not in ("0", "1"):
                return False
            if view.center_label() == "1":
                return True
            return all(
                view.certificates_of(neighbor)[:1] != certs[:1]
                for neighbor in view.neighbors_of(view.center)
            )

        machine = builtin.predicate_decider(
            1,
            predicate,
            name="selected-or-2-colored",
            rule=PairwiseRule(
                own_ok=lambda label, degree, cert: cert in ("0", "1"),
                pair_ok=lambda own_label, own_cert, nb_label, nb_cert: (
                    own_label == "1" or nb_cert != own_cert
                ),
            ),
        )
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        nodes = graph.nodes
        assignments = [
            [{u: "0" for u in nodes}],
            [{u: "01"[i % 2] for i, u in enumerate(nodes)}],
            [{u: "0011"[i] for i, u in enumerate(nodes)}],
        ]
        instance = CompiledInstance(machine, graph.with_uniform_label("1"), ids)
        verdicts = set()
        for labels in ("1111", "0101", "1111", "0000", "1011", "1111", "0000"):
            relabeled = graph.relabel(dict(zip(nodes, labels)))
            instance.rewire(relabeled, ids)
            for certificates in assignments:
                expected = execute(machine, relabeled, ids, certificates).accepts()
                got = instance.accepts_dicts(certificates)
                assert got == expected, (labels, certificates)
                verdicts.add((labels, got))
        assert ("1111", True) in verdicts and ("0000", False) in verdicts

    @pytest.mark.parametrize("kind", ["pairwise", "direct", "simulate"])
    def test_accepts_dicts_rebasing_while_loading_matches_simulator(self, kind):
        # accepts_dicts interns every certificate before it evaluates: with
        # at least 2**shift unseen strings the instance rebases in the middle
        # of loading, and the verdict must still be the simulator's.
        machine = {
            "pairwise": builtin.three_colorability_verifier(),
            "direct": _parity_machine(),
            "simulate": _SubclassedGather(1, _parity_machine().compute, name="sub"),
        }[kind]
        graph = generators.cycle_graph(20)
        ids = sequential_identifier_assignment(graph)
        nodes = list(graph.nodes)
        coloring = {u: ("00", "01")[i % 2] for i, u in enumerate(nodes)}
        zeros = {u: "0" * (i + 1) for i, u in enumerate(nodes)}
        binary = {u: format(i, "b").zfill(8) for i, u in enumerate(nodes)}
        verdicts = set()
        for assignments in ([zeros], [binary], [coloring, zeros], [coloring, binary], [zeros, coloring]):
            instance = CompiledInstance(machine, graph, ids)
            assert len(nodes) >= 2 ** instance.shift
            generation = instance.generation
            got = instance.accepts_dicts(assignments)
            assert instance.generation > generation  # rebased while loading
            assert got == execute(machine, graph, ids, assignments).accepts(), assignments
            verdicts.add(got)
            # The loaded keys are in the post-rebase packing, every level.
            instance = CompiledInstance(machine, graph, ids)
            state = _loaded_state(instance, assignments)
            assert instance.generation > generation
            assert state.keys == [
                _packed_key(instance, u, assignments) for u in range(instance.n)
            ]
        assert verdicts == {True, False}

    def test_engine_requeried_across_a_rebase_keeps_its_value(self):
        # An engine asked again after its instance rebased resyncs its
        # state's packed keys and gives the same answer.
        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        engine = CompiledGameEngine(machine, graph, ids, [color_space(3)], instance=instance)
        value = engine.eve_wins(sigma_prefix(1))
        for i in range(2 ** instance.shift + 5):
            instance.intern(format(i, "b").zfill(10))
        assert engine.eve_wins(sigma_prefix(1)) == value


class TestBoundsAndCounters:
    """LRU caps and hit/miss/eviction counters (the memory-bound satellite)."""

    def test_lru_cache_eviction_and_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert "b" not in cache
        assert cache.get("b", "miss") == "miss"
        assert cache.get("a") == 1 and cache.get("c") == 3
        info = cache.info()
        assert info["evictions"] == 1
        assert info["hits"] == 3 and info["misses"] == 1
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_compiled_memo_cap_and_counters(self, monkeypatch):
        # The 3-coloring verifier without its rule: the bitset search leaves
        # no memo trail, so the generic backtracking search exercises the
        # cap machinery.
        verifier = builtin.three_colorability_verifier()
        machine = NeighborhoodGatherAlgorithm(verifier.radius, verifier.compute, name="bare")
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        monkeypatch.setattr(compiled_module, "DEFAULT_LEAF_MEMO_CAP", 8)
        instance = CompiledInstance(machine, graph, ids)
        assert instance.rule is None
        engine = CompiledGameEngine(
            machine, graph, ids, [color_space(3)], instance=instance
        )
        assert engine.eve_wins(sigma_prefix(1)) is True
        info = instance.memo_info()
        assert info["maxsize"] == 8
        assert info["size"] <= 8 + instance.n  # one segment sweep granularity
        assert info["evictions"] > 0
        assert info["hits"] + info["misses"] > 0
        # Correctness is unaffected by the tiny cap.
        expected = eve_wins(machine, graph, ids, [color_space(3)], sigma_prefix(1))
        assert engine.eve_wins(sigma_prefix(1)) == expected

    def test_simulation_harvest_keeps_memo_accounting_consistent(self, monkeypatch):
        # Regression: the whole-graph harvest of the simulation fallback can
        # trigger segment eviction (rebinding the per-node memo dicts) while
        # a verdict is being computed; the caller must not write into a
        # stale dict or count phantom entries.
        import itertools as it

        machine = _SubclassedGather(1, _parity_machine().compute, name="sub")
        graph = generators.cycle_graph(5)
        ids = sequential_identifier_assignment(graph)
        for memo_cap in (6, compiled_module.DEFAULT_LEAF_MEMO_CAP):
            monkeypatch.setattr(compiled_module, "DEFAULT_LEAF_MEMO_CAP", memo_cap)
            instance = CompiledInstance(machine, graph, ids)
            assert not instance.direct  # simulation path, whole-graph balls
            state = instance.new_state(1)
            zero, one = instance.intern(""), instance.intern("1")
            for bits in it.product((zero, one), repeat=instance.n):
                for v, code in enumerate(bits):
                    state.set_code(0, v, code)
                assignment = {
                    instance.nodes[v]: instance.alphabet[bits[v]] for v in range(instance.n)
                }
                expected = execute(machine, graph, ids, [assignment]).verdicts()
                for u in range(instance.n):
                    got = instance.node_verdict_state(u, state)
                    assert got == expected[instance.nodes[u]], (bits, u)
            info = instance.memo_info()
            live_entries = sum(len(memo) for memo in instance.memo_nodes)
            assert info["size"] == live_entries, (info, live_entries)
            if memo_cap > 6:
                # A memo that never fills: one whole-graph run per assignment
                # answers all five nodes, not one run per node.
                assert instance.simulator_runs == 2 ** instance.n
            else:
                assert info["evictions"] > 0

    def test_leaf_evaluator_memo_info_both_paths(self):
        # The kernel path (eulerian's rule) and the simulation path report
        # the same memo counters, rewire invalidations included.
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        simulated = _SubclassedGather(1, _parity_machine().compute, name="sub")
        for machine in (builtin.eulerian_decider(), simulated):
            instance = CompiledInstance(machine, graph, ids)
            instance.accepts_dicts([])
            instance.accepts_dicts([])
            info = instance.memo_info()
            assert info["hits"] >= 1
            assert set(info) == {"size", "maxsize", "hits", "misses", "evictions", "invalidations"}


class TestSharingAndIntegration:
    def test_spec_game_engine_returns_compiled_engine(self):
        from repro.hierarchy.arbiters import three_colorability_spec

        spec = three_colorability_spec()
        graph = generators.cycle_graph(3)
        spec_engine = spec.game_engine(graph)
        assert isinstance(spec_engine, CompiledGameEngine)
        assert spec_engine.sigma_value() is True

    def test_equal_graphs_with_other_node_orders_stay_apart(self):
        # Graphs compare equal whatever their node order, but compiled
        # instances and materialized spaces are positional in graph.nodes:
        # the same identifier tuple in another node order is another input.
        from repro.graphs.labeled_graph import LabeledGraph
        from repro.hierarchy.certificate_spaces import CertificateSpace
        from repro.sweep.executor import run_instances

        machine = builtin.two_colorability_verifier()
        forward = LabeledGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        backward = LabeledGraph(["c", "b", "a"], [("a", "b"), ("b", "c")])
        assert forward == backward
        forward_ids = {"a": "10", "b": "0", "c": "1"}
        backward_ids = {"a": "1", "b": "0", "c": "10"}
        compile_instance(machine, forward, forward_ids)
        instance = compile_instance(machine, backward, backward_ids)
        assert dict(zip(instance.nodes, instance.ids_list)) == backward_ids
        named = CertificateSpace(candidates=lambda graph, ids, u: (u,), name="node-name")
        materialize_space(named, forward, forward_ids)
        assert materialize_space(named, backward, backward_ids).per_node == (
            ("c",), ("b",), ("a",),
        )
        # One batch holding both orders: their identifier tuples coincide
        # (10, 0, 1), so a sharing key without the nodes gives both one
        # engine.  Only node a is labelled 1, and the arbiter accepts iff
        # the node with identifier 10 is.
        id_ten_is_labelled_one = NeighborhoodGatherAlgorithm(
            0,
            lambda view: view.center_label() if view.center == "10" else "1",
            name="id-10-labelled-1",
        )
        games = [
            GameInstance(
                id_ten_is_labelled_one,
                LabeledGraph(
                    order, [("a", "b"), ("b", "c")], labels={"a": "1", "b": "0", "c": "0"}
                ),
                dict(zip(order, ("10", "0", "1"))),
                [],
                (),
            )
            for order in (["a", "b", "c"], ["c", "b", "a"])
        ]
        expected = [
            eve_wins(game.machine, game.graph, game.ids, game.spaces, game.prefix)
            for game in games
        ]
        assert expected == [True, False]
        for batch, oracle in ((games, expected), (games[::-1], expected[::-1])):
            assert evaluate_timed(batch)[0] == oracle
            assert run_instances(batch).verdicts == oracle

    def test_compiling_pins_no_machine_or_space(self):
        # Compiling, materializing and playing a game keep nothing alive
        # past the caller's own references: no process-wide cache may pin
        # a machine or a space.
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        machines, spaces = [], []
        for index in range(8):
            machine = _parity_machine()
            space = enumerated_space(("", "1"), name=f"maybe-one-{index}")
            compile_instance(machine, graph, ids)
            materialize_space(space, graph, ids)
            assert CompiledGameEngine(machine, graph, ids, [space]).sigma_value() is True
            machines.append(weakref.ref(machine))
            spaces.append(weakref.ref(space))
        del machine, space
        gc.collect()
        assert [ref() for ref in machines + spaces] == [None] * 16

    def test_leaf_evaluator_shares_instance_memo_with_engine(self):
        # Dict-facing leaf queries and engines on one instance share the
        # per-node memo.  A rule-less machine: the bitset search leaves no
        # memo trail for rules.
        machine = _parity_machine()
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        engine = CompiledGameEngine(machine, graph, ids, [bit_space()], instance=instance)
        assert engine.eve_wins(sigma_prefix(1)) is True
        all_zero = {u: "0" for u in graph.nodes}
        before = instance.memo_info()["misses"]
        assert instance.accepts_dicts([all_zero]) is True
        # The engine's search accepted this assignment first.
        assert instance.memo_info()["misses"] == before

    def test_batch_runs_on_compiled_engines(self):
        machine = builtin.three_colorability_verifier()
        graphs = [generators.cycle_graph(3), generators.complete_graph(4), generators.cycle_graph(5)]
        instances = [
            GameInstance(
                machine,
                graph,
                sequential_identifier_assignment(graph),
                [color_space(3)],
                sigma_prefix(1),
            )
            for graph in graphs
        ]
        values, _ = evaluate_timed(instances)
        assert values == [True, False, True]

    def test_materialized_space_is_cached_and_coded(self):
        # Each call builds afresh; the same input materializes equally.
        space = color_space(3)
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        first = materialize_space(space, graph, ids)
        assert materialize_space(space, graph, ids) == first
        assert first.alphabet == ("00", "01", "10")
        assert all(candidates == ("00", "01", "10") for candidates in first.per_node)

    def test_fingerprints_unchanged_by_coded_materialization(self):
        # The store key must still hash the same payload as the per-node
        # candidate functions (warm stores stay valid).
        from repro.sweep.fingerprint import instance_key

        machine = builtin.three_colorability_verifier()
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        key_one = instance_key(machine, graph, ids, [color_space(3)], sigma_prefix(1))
        key_two = instance_key(machine, graph, ids, [color_space(3)], sigma_prefix(1))
        assert key_one == key_two
        other = instance_key(machine, graph, ids, [color_space(2)], sigma_prefix(1))
        assert other != key_one

    def test_rule_of_rejects_foreign_attributes(self):
        machine = builtin.three_colorability_verifier()
        machine.local_rule = object()  # not a rule: must be ignored
        assert rule_of(machine) is None
        graph = generators.cycle_graph(3)
        ids = sequential_identifier_assignment(graph)
        instance = CompiledInstance(machine, graph, ids)
        assert instance.rule is None
        expected = eve_wins(machine, graph, ids, [color_space(3)], sigma_prefix(1))
        engine = CompiledGameEngine(machine, graph, ids, [color_space(3)], instance=instance)
        assert engine.eve_wins(sigma_prefix(1)) == expected
