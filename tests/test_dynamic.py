"""Differential harness for dynamic graphs with verdict repair.

The contract under test: after ANY valid mutation sequence, the repaired
verdict of :class:`repro.engine.dynamic.MutableInstance` is bitwise-equal
to a full recompute and to the exhaustive oracle --
and no cache tier (per-node memo, canonical ball signatures, store-backed
node verdicts, content-addressed instance keys) can ever serve a
pre-mutation answer for a post-mutation state.

The hypothesis suites draw *valid* mutations adaptively from the evolving
state (every generated trace is applicable by construction), so shrinking
produces a minimal delta list whose dataclass reprs read as a replayable
counterexample.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.compiled import CompiledGameEngine, CompiledInstance
from repro.engine.canonical import CanonicalVerdictCache
from repro.engine import dynamic
from repro.engine.dynamic import (
    DeltaError,
    EdgeDelete,
    EdgeInsert,
    MutableInstance,
    SetIdentifier,
    SetLabel,
    _insert_id_clash,
    delta_from_wire,
    delta_to_wire,
    random_trace,
    recompute_verdict,
)
from repro.graphs import generators
from repro.graphs.identifiers import (
    cyclic_identifier_assignment,
    sequential_identifier_assignment,
    small_identifier_assignment,
)
from repro.graphs.labeled_graph import LabeledGraph
from repro.hierarchy.certificate_spaces import (
    CertificateSpace,
    bit_space,
    color_space,
    materialize_space,
)
from repro.hierarchy.game import eve_wins, pi_prefix, sigma_prefix
from repro.machines import builtin
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.sweep.fingerprint import game_instance_key
from repro.sweep.store import open_store


def _parity_machine():
    """A rule-less gather machine: exercises the direct and fixpoint paths."""

    def compute(view):
        ones = sum(
            cert.count("1") for _, certs in view.certificates for cert in certs
        )
        return "1" if ones % 2 == 0 else "0"

    return NeighborhoodGatherAlgorithm(1, compute, name="cert-parity")


def _id_derived_space():
    """Each node may carry its identifier, or its identifier and a 1: an
    identifier change strands the codes of the node's old candidates."""
    return CertificateSpace(
        candidates=lambda graph, ids, node: (ids[node], ids[node] + "1"),
        name="id-derived",
    )


def _eager_rebuilds():
    """Lower the recompile trigger: a session then recompiles once its
    interned alphabet outgrows ``""`` plus its live candidates."""
    return mock.patch.multiple(dynamic, _COMPACT_FACTOR=1, _COMPACT_SLACK=0)


#: (machine factory, spaces factory, prefix) combinations for the
#: differential sweep: rule kernels, the label-sensitive decider and a
#: rule-less machine, over both quantifiers, and the rule-less machine
#: over identifier-derived candidates, whose churn recompiles the session.
_GAME_POOL = [
    (builtin.two_colorability_verifier, lambda: [color_space(2)], sigma_prefix(1)),
    (builtin.three_colorability_verifier, lambda: [color_space(3)], sigma_prefix(1)),
    (builtin.all_selected_decider, lambda: [bit_space()], pi_prefix(1)),
    (_parity_machine, lambda: [bit_space()], pi_prefix(1)),
    (_parity_machine, lambda: [_id_derived_space()], sigma_prefix(1)),
]

_GRAPH_POOL = [
    lambda: generators.cycle_graph(4),
    lambda: generators.cycle_graph(5),
    lambda: generators.path_graph(4),
    lambda: generators.complete_graph(4),
    lambda: generators.star_graph(4),
    lambda: generators.grid_graph(2, 3),
]

_ID_SCHEMES = [
    sequential_identifier_assignment,
    lambda graph: small_identifier_assignment(graph, 1),
]

_LABELS = ("", "1")

_ID_POOL = tuple(format(value, "b") for value in range(16, 24))


def _valid_moves(mutable: MutableInstance):
    """Every delta applicable to the current state (the generator's menu)."""
    moves = []
    graph = mutable.graph
    ids = mutable._ids
    nodes = mutable.nodes
    for node in nodes:
        current = graph.label(node)
        moves.extend(
            SetLabel(node=node, label=label) for label in _LABELS if label != current
        )
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if graph.has_edge(u, v):
                try:
                    graph.without_edge(u, v)
                except ValueError:  # a bridge
                    continue
                moves.append(EdgeDelete(u=u, v=v))
            elif _insert_id_clash(graph, ids, u, v) is None:
                moves.append(EdgeInsert(u=u, v=v))
    for node in nodes:
        taken = {ids[w] for w in nodes if w != node}
        moves.extend(
            SetIdentifier(node=node, identifier=candidate)
            for candidate in _ID_POOL[:3]
            if candidate != ids[node] and candidate not in taken
        )
    return moves


def _assert_structurally_fresh(mutable: MutableInstance) -> None:
    """The repaired compiled instance must equal a from-scratch compile."""
    repaired = mutable.compiled
    fresh = CompiledInstance(mutable.machine, mutable.graph, mutable._ids)
    assert repaired.adjacency == fresh.adjacency
    assert repaired.degrees == fresh.degrees
    assert repaired.labels == fresh.labels
    assert repaired.ids_list == fresh.ids_list
    assert repaired.ids == fresh.ids
    assert repaired.direct == fresh.direct
    assert repaired.radius == fresh.radius
    assert repaired.rule is fresh.rule
    assert repaired.balls == fresh.balls
    assert repaired.ball_sizes == fresh.ball_sizes
    assert repaired.dependents == fresh.dependents
    # A stale dep-shift table corrupts packed keys without raising, so
    # every table the repaired instance holds must equal a fresh build.
    fresh.shift = repaired.shift
    for level, table in enumerate(repaired._dep_shifts):
        assert [set(pairs) for pairs in table] == [
            set(pairs) for pairs in fresh.dep_shifts(level)
        ], level


class TestDifferentialRepair:
    """repair == full recompute == exhaustive oracle, on random traces."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    @_eager_rebuilds()
    def test_random_trace_differential(self, data):
        game_index = data.draw(
            st.integers(min_value=0, max_value=len(_GAME_POOL) - 1), label="game"
        )
        machine_factory, spaces_factory, prefix = _GAME_POOL[game_index]
        graph = data.draw(st.sampled_from(_GRAPH_POOL), label="graph")()
        ids = dict(data.draw(st.sampled_from(_ID_SCHEMES), label="ids")(graph))
        machine = machine_factory()
        spaces = spaces_factory()
        mutable = MutableInstance(machine, graph, ids, spaces, prefix)
        steps = data.draw(st.integers(min_value=1, max_value=4), label="steps")
        applied = []
        for _ in range(steps):
            moves = _valid_moves(mutable)
            if not moves:
                break
            delta = data.draw(st.sampled_from(moves), label="delta")
            applied.append(delta)
            mutable.apply(delta)

            repaired = mutable.verdict()
            snapshot = mutable.as_game_instance()
            recomputed = recompute_verdict(snapshot)
            oracle = eve_wins(
                machine, snapshot.graph, snapshot.ids, spaces, prefix
            )
            assert repaired == recomputed == oracle, (
                f"divergence after {applied!r}: repair={repaired} "
                f"recompute={recomputed} oracle={oracle}"
            )
            _assert_structurally_fresh(mutable)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_random_trace_generator_is_always_valid(self, seed):
        """Traces from random_trace apply cleanly and verify at the end."""
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        trace = random_trace(
            graph,
            seed=seed,
            steps=6,
            kinds=("label", "edge", "id"),
            ids=ids,
            id_pool=_ID_POOL,
        )
        machine = builtin.two_colorability_verifier()
        mutable = MutableInstance(
            machine, graph, ids, [color_space(2)], sigma_prefix(1)
        )
        mutable.apply_all(trace)  # DeltaError here = generator bug
        assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())

    def test_radius_two_balls_follow_edge_deltas(self):
        """A chord moves the radius-2 balls of nodes whose own rows stay."""
        graph = generators.cycle_graph(10)
        machine = NeighborhoodGatherAlgorithm(2, _parity_machine().compute, name="parity-2")
        mutable = MutableInstance(
            machine, graph, sequential_identifier_assignment(graph), [bit_space()], pi_prefix(1)
        )
        assert mutable.compiled.radius == 2
        nodes = graph.nodes
        for delta in (
            EdgeInsert(u=nodes[0], v=nodes[5]),
            EdgeDelete(u=nodes[0], v=nodes[1]),
            SetLabel(node=nodes[3], label="1"),
        ):
            mutable.apply(delta)
            _assert_structurally_fresh(mutable)
            assert mutable.verdict() == recompute_verdict(mutable.as_game_instance()), delta

    def test_two_level_prefix_differential(self):
        """Repair stays correct for a two-quantifier game."""
        graph = generators.cycle_graph(4)
        ids = sequential_identifier_assignment(graph)
        machine = builtin.two_colorability_verifier()
        spaces = [color_space(2), bit_space()]
        prefix = sigma_prefix(2)
        mutable = MutableInstance(machine, graph, ids, spaces, prefix)
        nodes = graph.nodes
        for delta in (
            SetLabel(node=nodes[0], label="1"),
            EdgeInsert(u=nodes[0], v=nodes[2]),
            EdgeDelete(u=nodes[0], v=nodes[1]),
        ):
            mutable.apply(delta)
            assert mutable.verdict() == recompute_verdict(
                mutable.as_game_instance()
            ), delta


class TestMutationValidation:
    """Invalid deltas are typed errors and never corrupt state."""

    def _mutable(self):
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        return MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [color_space(2)],
            sigma_prefix(1),
        )

    def test_rejections(self):
        mutable = self._mutable()
        nodes = mutable.nodes
        before_key = mutable.key()
        cases = [
            EdgeInsert(u=nodes[0], v=nodes[1]),  # duplicate edge
            EdgeDelete(u=nodes[0], v=nodes[3]),  # missing edge
            EdgeInsert(u=nodes[0], v=nodes[0]),  # self-loop
            SetLabel(node=nodes[0], label="2x"),  # not a bit string
            SetLabel(node="zz", label="1"),  # unknown node
            SetIdentifier(node=nodes[1], identifier=mutable.ids[nodes[2]]),  # id clash
        ]
        for delta in cases:
            with pytest.raises((DeltaError, ValueError)):
                mutable.apply(delta)
        assert mutable.key() == before_key  # nothing leaked into the state

    def test_bridge_deletion_rejected(self):
        graph = generators.path_graph(3)
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            sequential_identifier_assignment(graph),
            [color_space(2)],
            sigma_prefix(1),
        )
        with pytest.raises(DeltaError):
            mutable.apply(EdgeDelete(u=graph.nodes[0], v=graph.nodes[1]))

    def test_insert_rejected_on_identifier_clash(self):
        """An edge pulling equal ids within distance 2 breaks the model."""
        graph = generators.cycle_graph(8)
        ids = dict(sequential_identifier_assignment(graph))
        nodes = graph.nodes
        ids[nodes[4]] = ids[nodes[0]]  # duplicate at distance 4: still legal
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [color_space(2)],
            sigma_prefix(1),
        )
        with pytest.raises(DeltaError):
            mutable.apply(EdgeInsert(u=nodes[0], v=nodes[4]))

    def test_noop_deltas_do_not_invalidate(self):
        mutable = self._mutable()
        node = mutable.nodes[0]
        mutable.verdict()
        key = mutable.key()
        report = mutable.apply(SetLabel(node=node, label=mutable.graph.label(node)))
        assert not report.changed and report.dirty == ()
        assert mutable.key() == key
        assert mutable.info()["noops"] == 1

    def test_apply_batch_is_atomic(self):
        mutable = self._mutable()
        nodes = mutable.nodes
        key = mutable.key()
        labels_before = dict(mutable.graph.labels)
        with pytest.raises(DeltaError):
            mutable.apply_batch(
                [
                    SetLabel(node=nodes[0], label="1"),  # valid
                    EdgeInsert(u=nodes[2], v=nodes[3]),  # duplicate edge
                ]
            )
        assert dict(mutable.graph.labels) == labels_before
        assert mutable.key() == key
        assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())

    def test_apply_batch_rolls_back_a_mistyped_label(self):
        """A non-string label is a DeltaError, so the batch before it rolls
        back: labels, ids, the mutation count and the key all stay."""
        mutable = self._mutable()
        nodes = mutable.nodes
        key = mutable.key()
        labels_before = mutable.graph.labels
        ids_before = mutable.ids
        mutations = mutable.info()["mutations"]
        with pytest.raises(DeltaError):
            mutable.apply_batch(
                [SetLabel(node=nodes[0], label="1"), SetLabel(node=nodes[1], label=5)]
            )
        assert mutable.graph.labels == labels_before
        assert mutable.ids == ids_before
        assert mutable.info()["mutations"] == mutations
        assert mutable.key() == key
        with pytest.raises(DeltaError):
            mutable.apply(SetLabel(node=nodes[1], label=5))

    def test_full_rebuild_on_direct_flip(self):
        """Identifier churn breaking horizon-uniqueness widens to everything."""
        graph = generators.cycle_graph(12)
        ids = dict(sequential_identifier_assignment(graph))
        nodes = graph.nodes
        ids[nodes[6]] = ids[nodes[0]]  # duplicates at distance 6: direct still ok
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [color_space(2)],
            sigma_prefix(1),
        )
        assert mutable.compiled.direct
        # The chord pulls the duplicate pair within the gather horizon.
        report = mutable.apply(EdgeInsert(u=nodes[1], v=nodes[7]))
        assert not mutable.compiled.direct
        assert report.full_rebuild
        assert len(report.dirty) == len(nodes)
        assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())


class TestRepairCost:
    """A delta does work in proportion to its dirty set, not to the graph."""

    def test_delta_reads_only_dirty_nodes(self, monkeypatch):
        graph = generators.cycle_graph(256)
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),  # a pairwise rule
            graph,
            sequential_identifier_assignment(graph),
            [color_space(2)],
            sigma_prefix(1),
        )
        calls = {"init": 0, "reads": 0}

        def counting(method, counter):
            def wrapped(*args, **kwargs):
                calls[counter] += 1
                return method(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(LabeledGraph, "__init__", counting(LabeledGraph.__init__, "init"))
        for name in ("neighbors", "label"):
            monkeypatch.setattr(LabeledGraph, name, counting(getattr(LabeledGraph, name), "reads"))
        nodes = graph.nodes
        for delta in (
            SetLabel(node=nodes[7], label="1"),
            EdgeInsert(u=nodes[100], v=nodes[102]),
        ):
            calls.update(init=0, reads=0)
            report = mutable.apply(delta)
            assert 0 < len(report.dirty) <= 6, delta
            assert calls["init"] == 0, delta  # derived, not rebuilt and re-validated
            assert calls["reads"] <= 5 * len(report.dirty), (delta, calls)
        monkeypatch.undo()
        _assert_structurally_fresh(mutable)
        assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())

    def test_dep_shift_tables_track_repairs(self):
        """Tables built before a delta survive it only while every ball
        does, and always equal a fresh build."""
        graph = generators.cycle_graph(6)
        mutable = MutableInstance(
            _parity_machine(),  # rule-less: its search assigns through dep shifts
            graph,
            sequential_identifier_assignment(graph),
            [bit_space()],
            pi_prefix(1),
        )
        compiled = mutable.compiled
        nodes = graph.nodes
        mutable.verdict()
        assert compiled._dep_shifts
        tables = compiled._dep_shifts
        mutable.apply(SetLabel(node=nodes[0], label="1"))  # no ball moves
        assert compiled._dep_shifts is tables
        _assert_structurally_fresh(mutable)
        mutable.apply(EdgeInsert(u=nodes[0], v=nodes[3]))  # balls move
        assert compiled._dep_shifts == []
        assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())
        assert compiled._dep_shifts
        _assert_structurally_fresh(mutable)


class TestWireDeltas:
    def test_round_trip(self):
        graph = generators.cycle_graph(4)
        nodes = graph.nodes
        deltas = [
            EdgeInsert(u=nodes[0], v=nodes[2]),
            EdgeDelete(u=nodes[0], v=nodes[1]),
            SetLabel(node=nodes[2], label="1"),
            SetIdentifier(node=nodes[3], identifier="10110"),
        ]
        for delta in deltas:
            wire = delta_to_wire(delta, nodes)
            assert delta_from_wire(wire, nodes) == delta

    def test_malformed_wire_bodies(self):
        nodes = generators.cycle_graph(4).nodes
        bad = [
            {"kind": "warp"},
            {"kind": "edge-insert", "u": 0},
            {"kind": "edge-insert", "u": 0, "v": 99},
            {"kind": "edge-insert", "u": True, "v": 1},
            {"kind": "edge-insert", "u": -1, "v": 1},
            {"kind": "set-label", "node": 0, "label": 3},
            {"kind": "set-id", "node": 0},
        ]
        for body in bad:
            with pytest.raises(DeltaError):
                delta_from_wire(body, nodes)


class TestCacheFreshness:
    """No tier may serve a pre-mutation verdict for a post-mutation state."""

    def test_content_addressed_key_tracks_mutations(self):
        """The instance key changes with every effective delta and returns
        on revert -- the invariant shielding the service LRU/store tiers."""
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [color_space(2)],
            sigma_prefix(1),
        )
        nodes = graph.nodes
        original = mutable.key()
        assert original == game_instance_key(mutable.as_game_instance())
        mutable.apply(EdgeInsert(u=nodes[0], v=nodes[2]))
        chorded = mutable.key()
        assert chorded != original
        mutable.apply(SetLabel(node=nodes[1], label="1"))
        labeled = mutable.key()
        assert labeled not in (original, chorded)
        mutable.apply(SetLabel(node=nodes[1], label=""))
        mutable.apply(EdgeDelete(u=nodes[0], v=nodes[2]))
        assert mutable.key() == original

    def test_key_fingerprints_the_machine_once(self, monkeypatch):
        """200 label flips, each followed by key(): one machine fingerprint,
        and every key equals the one a fresh snapshot gets."""
        import repro.sweep.fingerprint as fingerprint

        graph = generators.cycle_graph(16)
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            sequential_identifier_assignment(graph),
            [color_space(2)],
            sigma_prefix(1),
        )
        calls = []
        original = fingerprint.machine_fingerprint

        def counting(machine):
            calls.append(machine)
            return original(machine)

        monkeypatch.setattr(fingerprint, "machine_fingerprint", counting)
        keys, snapshots = [], []
        for step in range(200):
            node = graph.nodes[step % 16]
            label = "1" if (step // 16) % 2 == 0 else ""
            assert mutable.apply(SetLabel(node=node, label=label)).changed
            keys.append(mutable.key())
            snapshots.append(mutable.as_game_instance())
        assert len(calls) == 1
        monkeypatch.undo()
        assert len(set(keys)) > 16
        assert keys == [game_instance_key(snapshot) for snapshot in snapshots]

    def test_warm_canonical_cache_survives_verdict_flips(self):
        """A chord flips 2-colorability; warm ball verdicts must not leak."""
        graph = generators.cycle_graph(8)
        ids = cyclic_identifier_assignment(graph, period=4)  # fixpoint path
        cache = CanonicalVerdictCache()
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [color_space(2)],
            sigma_prefix(1),
            canonical=cache,
        )
        nodes = graph.nodes
        assert mutable.verdict() is True
        assert cache.info()["entries"] > 0  # the cache is actually in play
        mutable.apply(EdgeInsert(u=nodes[0], v=nodes[2]))
        assert mutable.verdict() is False  # stale ball verdicts would flip this
        mutable.apply(EdgeDelete(u=nodes[0], v=nodes[2]))
        assert mutable.verdict() is True

    def test_label_flip_invalidates_intersecting_balls(self):
        """A label-sensitive game under warm caches, flipped back and forth."""
        graph = generators.path_graph(4, labels=["1", "1", "1", "1"])
        ids = small_identifier_assignment(graph, 1)
        cache = CanonicalVerdictCache()
        mutable = MutableInstance(
            builtin.all_selected_decider(),
            graph,
            ids,
            [bit_space()],
            pi_prefix(1),
            canonical=cache,
        )
        node = graph.nodes[1]
        first = mutable.verdict()
        assert first == recompute_verdict(mutable.as_game_instance())
        mutable.apply(SetLabel(node=node, label="0"))
        flipped = mutable.verdict()
        assert flipped == recompute_verdict(mutable.as_game_instance())
        assert flipped != first  # the flip is observable, not masked by a cache
        mutable.apply(SetLabel(node=node, label="1"))
        assert mutable.verdict() == first

    def test_store_backed_node_verdicts_stay_fresh(self):
        """Ball verdicts persisted before a mutation must not answer for a
        mutated ball (signatures embed ball-local labels/ids/edges)."""
        graph = generators.cycle_graph(8)
        ids = cyclic_identifier_assignment(graph, period=4)
        machine = builtin.two_colorability_verifier()
        store = open_store("memory://")

        seed_cache = CanonicalVerdictCache(store=store)
        seeded = MutableInstance(
            machine, graph, ids, [color_space(2)], sigma_prefix(1),
            canonical=seed_cache,
        )
        assert seeded.verdict() is True
        seed_cache.flush()
        assert store.node_count() > 0

        warm_cache = CanonicalVerdictCache(store=store)
        mutable = MutableInstance(
            machine, graph, ids, [color_space(2)], sigma_prefix(1),
            canonical=warm_cache,
        )
        nodes = graph.nodes
        mutable.apply(EdgeInsert(u=nodes[0], v=nodes[2]))
        assert mutable.verdict() is False
        mutable.apply(EdgeDelete(u=nodes[0], v=nodes[2]))
        assert mutable.verdict() is True
        assert warm_cache.info()["store_hits"] > 0  # the store tier was used

    def test_clean_node_memos_survive_repair(self):
        """The point of repair: memoized verdicts outside the dirty set live."""
        graph = generators.cycle_graph(16)
        ids = cyclic_identifier_assignment(graph, period=4)
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [color_space(2)],
            sigma_prefix(1),
        )
        mutable.verdict()
        compiled = mutable.compiled
        entries_before = compiled.memo_entries
        assert entries_before > 0
        report = mutable.apply(SetLabel(node=graph.nodes[0], label="1"))
        assert 0 < len(report.dirty) < len(graph.nodes)
        assert compiled.memo_invalidations > 0
        assert compiled.memo_entries > 0  # clean nodes kept their memos
        assert compiled.memo_entries < entries_before
        clean = [u for u in range(compiled.n) if u not in report.dirty]
        assert any(compiled.memo_nodes[u] for u in clean)
        assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())


class TestAlphabetCompaction:
    """Stranded codes are dropped by recompiling the session's instance;
    within an instance, codes never change meaning."""

    def test_mutable_instance_compacts_stranded_codes(self):
        """Once churn strands most codes, the next verdict recompiles the
        session's instance -- and the verdict is unchanged."""
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        space = color_space(2)
        mutable = MutableInstance(
            builtin.two_colorability_verifier(),
            graph,
            ids,
            [space],
            sigma_prefix(1),
            canonical=CanonicalVerdictCache(),
        )
        before = mutable.verdict()
        old = mutable.compiled
        # Strand a pile of codes, the way an identifier-dependent candidate
        # space does after heavy id churn (its old alphabets stay interned).
        for value in range(64):
            old.intern(format(value, "07b"))
        old_alphabet = list(old.alphabet)
        node = graph.nodes[0]
        mutable.apply(SetLabel(node=node, label="1"))
        generation = old.generation
        after = mutable.verdict()  # the rebuild happens here
        assert mutable.info()["compactions"] == 1
        fresh = mutable.compiled
        assert fresh is not old
        live = materialize_space(space, mutable.graph, mutable._ids).alphabet
        assert sorted(fresh.alphabet) == sorted({""} | set(live))
        assert fresh.generation > generation
        assert old.canonical is not None
        assert fresh.canonical is old.canonical
        assert old.alphabet == old_alphabet
        assert after == recompute_verdict(mutable.as_game_instance())
        mutable.apply(SetLabel(node=node, label=""))
        assert mutable.verdict() == before

    def test_identifier_churn_rebuilds_with_rising_generations(self):
        """Over a fixed churn trace the session recompiles, and its
        generation never falls: it rises across each rebuild."""
        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        mutable = MutableInstance(
            _parity_machine(), graph, ids, [_id_derived_space()], sigma_prefix(1)
        )
        mutable.verdict()
        nodes = graph.nodes
        trace = [SetIdentifier(node=nodes[i], identifier=_ID_POOL[i]) for i in range(4)]
        trace += [SetIdentifier(node=nodes[i], identifier=ids[nodes[i]]) for i in range(4)]
        generations = [mutable.compiled.generation]
        with _eager_rebuilds():
            for delta in trace:
                mutable.apply(delta)
                generation, compactions = mutable.compiled.generation, mutable.compactions
                assert mutable.verdict() == recompute_verdict(mutable.as_game_instance())
                if mutable.compactions > compactions:
                    assert mutable.compiled.generation > generation, delta
                generations += [generation, mutable.compiled.generation]
        assert mutable.compactions >= 1
        assert generations == sorted(generations)
