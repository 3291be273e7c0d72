"""The verdict store: round-trips, persistence, concurrency, key invalidation."""

from __future__ import annotations

import dataclasses
import sqlite3
import threading

import pytest

from repro.fagin import compile_sentence
from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.hierarchy.certificate_spaces import bit_space, color_space
from repro.hierarchy.game import pi_prefix, sigma_prefix
from repro.logic.examples import color_relations, three_colorable_formula
from repro.logic.syntax import Formula, RelationAtom
from repro.machines import builtin
from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
from repro.sweep import (
    SQLiteVerdictStore,
    instance_key,
    machine_fingerprint,
    open_store,
)
from repro.sweep.store import WouldBlock


def _next_color_at(formula, n):
    """*formula* with the relation of its *n*-th color atom (in field order)
    replaced by the next color ``C(i+1 mod 3)``."""
    colors = color_relations(3)
    count = [0]

    def walk(node):
        if isinstance(node, RelationAtom):
            count[0] += 1
            if count[0] - 1 != n:
                return node
            return dataclasses.replace(node, relation=colors[(colors.index(node.relation) + 1) % 3])
        changes = {
            field.name: walk(getattr(node, field.name))
            for field in dataclasses.fields(node)
            if isinstance(getattr(node, field.name), Formula)
        }
        return dataclasses.replace(node, **changes) if changes else node

    return walk(formula)


@pytest.fixture(params=["memory", "sqlite", "jsonl"])
def store(request, tmp_path):
    # "jsonl": a bare path with the JSON-lines suffix names a SQLite
    # database like any other path.
    path = {
        "memory": "memory://",
        "sqlite": str(tmp_path / "verdicts.sqlite"),
        "jsonl": str(tmp_path / "verdicts.jsonl"),
    }[request.param]
    with open_store(path) as opened:
        yield opened


class TestStoreRoundTrip:
    def test_get_put(self, store):
        assert store.get("k1") is None
        store.put("k1", True, name="inst", seconds=0.5)
        store.put("k2", False)
        assert store.get("k1") is True
        assert store.get("k2") is False
        assert len(store) == 2

    def test_put_many_and_items(self, store):
        store.put_many([("a", True, "x", 0.1), ("b", False, "y", 0.2)])
        assert dict(store.items()) == {"a": (True, "x", 0.1), "b": (False, "y", 0.2)}

    def test_overwrite_last_wins(self, store):
        store.put("k", True)
        store.put("k", False)
        assert store.get("k") is False
        assert len(store) == 1


class TestPersistence:
    def test_sqlite_survives_reopen(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        with SQLiteVerdictStore(path) as first:
            first.put("k", True, name="n", seconds=1.0)
        with SQLiteVerdictStore(path) as second:
            assert second.get("k") is True
            assert len(second) == 1

    def test_open_store_dispatch(self, tmp_path):
        for in_memory in (open_store(None), open_store("memory://")):
            assert isinstance(in_memory, SQLiteVerdictStore)
            assert in_memory.path == ":memory:"
            in_memory.close()
        # JSONL is not a backend: its scheme is unknown, and a bare .jsonl
        # path names a SQLite database like any other suffix.
        with pytest.raises(ValueError, match="unknown store scheme"):
            open_store(f"jsonl://{tmp_path}/a.jsonl")
        with open_store(str(tmp_path / "a.jsonl")) as suffixed:
            assert isinstance(suffixed, SQLiteVerdictStore)
            assert suffixed.path == str(tmp_path / "a.jsonl")

    def test_jsonl_survives_reopen(self, tmp_path):
        path = str(tmp_path / "v.jsonl")
        with open_store(path) as first:
            first.put("k", False)
            first.put("k2", True)
        with open_store(path) as second:
            assert second.get("k") is False
            assert second.get("k2") is True

    def test_open_store_scheme_prefixes_win_over_suffixes(self, tmp_path):
        # The scheme decides, not the extension: daemons can name their
        # store unambiguously.
        with open_store(f"sqlite://{tmp_path}/odd.jsonl") as forced_sqlite:
            assert isinstance(forced_sqlite, SQLiteVerdictStore)
            assert forced_sqlite.path == f"{tmp_path}/odd.jsonl"
        assert open_store("sqlite://:memory:").path == ":memory:"

    def test_open_store_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            open_store("postgres://x")

    def test_leftover_jsonl_store_is_not_read_as_empty(self, tmp_path):
        # A JSON-lines store written by an older release must fail loudly
        # rather than be silently shadowed by an empty database.
        path = tmp_path / "verdicts.jsonl"
        path.write_text('{"key": "old", "verdict": true, "name": "i"}\n')
        with pytest.raises(sqlite3.DatabaseError, match="file is not a database"):
            open_store(str(path))

    def test_legacy_append_log_table_is_dropped_on_open(self, tmp_path):
        # Stores written by older releases carry a verdict_log table, a
        # JSON copy of every verdict put and journal append.  Reopening
        # drops it and keeps the verdicts and the journal.
        path = str(tmp_path / "legacy.sqlite")
        with SQLiteVerdictStore(path) as first:
            first.put("k", True, name="n", seconds=0.5)
            first.journal_append("sess", 0, {"kind": "open"})
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE IF NOT EXISTS verdict_log ("
            " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
            " kind TEXT NOT NULL, record TEXT NOT NULL, created REAL NOT NULL)"
        )
        connection.execute(
            "INSERT INTO verdict_log (kind, record, created)"
            " VALUES ('verdict', '{\"key\": \"k\"}', 0)"
        )
        connection.commit()
        connection.close()
        with SQLiteVerdictStore(path) as second:
            assert dict(second.items()) == {"k": (True, "n", 0.5)}
            assert second.journal_entries("sess") == [(0, {"kind": "open"})]
        connection = sqlite3.connect(path)
        tables = {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        connection.close()
        assert "verdict_log" not in tables

    def test_open_store_creates_parent_directories(self, tmp_path):
        deep_sqlite = tmp_path / "a" / "b" / "c" / "verdicts.sqlite"
        with open_store(f"sqlite://{deep_sqlite}") as store:
            store.put("k", True)
        assert deep_sqlite.exists()
        deep_bare = tmp_path / "x" / "y" / "verdicts.db"
        with open_store(str(deep_bare)) as store:
            store.put("k", False)
        assert deep_bare.exists()


class TestBulkLookup:
    def test_get_many_on_every_backend(self, store):
        store.put_many([("a", True, "", 0.0), ("b", False, "", 0.0), ("c", True, "", 0.0)])
        found = store.get_many(["a", "b", "missing", "c"])
        assert found == {"a": True, "b": False, "c": True}

    def test_get_many_empty(self, store):
        assert store.get_many([]) == {}

    def test_sqlite_get_many_spans_chunks(self, tmp_path):
        with SQLiteVerdictStore(str(tmp_path / "big.sqlite")) as store:
            count = 2 * SQLiteVerdictStore.GET_MANY_CHUNK + 17
            store.put_many([(f"k{i}", i % 2 == 0, "", 0.0) for i in range(count)])
            found = store.get_many([f"k{i}" for i in range(count)] + ["absent"])
            assert len(found) == count
            assert found["k0"] is True and found["k1"] is False


class TestServiceConcurrency:
    """The daemon's access pattern: one store shared across threads."""

    def test_sqlite_runs_wal_with_busy_timeout(self, tmp_path):
        with SQLiteVerdictStore(str(tmp_path / "wal.sqlite")) as store:
            assert store.journal_mode() == "wal"
            (timeout,) = store._connection.execute("PRAGMA busy_timeout").fetchone()
            assert timeout >= 1000

    def test_shared_store_concurrent_readers_and_writers(self, tmp_path):
        with SQLiteVerdictStore(str(tmp_path / "shared.sqlite")) as store:
            writers, per_writer = 4, 40
            errors = []

            def writer(slot: int) -> None:
                try:
                    for i in range(per_writer):
                        store.put(f"w{slot}-{i}", (slot + i) % 2 == 0, name=f"t{slot}")
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            def reader() -> None:
                try:
                    for _ in range(30):
                        keys = [f"w0-{i}" for i in range(per_writer)]
                        found = store.get_many(keys)
                        assert all(isinstance(v, bool) for v in found.values())
                        len(store)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [
                threading.Thread(target=writer, args=(slot,)) for slot in range(writers)
            ] + [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(store) == writers * per_writer
            for slot in range(writers):
                assert store.get(f"w{slot}-0") is (slot % 2 == 0)

    def test_two_connections_reader_sees_writer(self, tmp_path):
        # Separate store objects (separate SQLite connections) on one path:
        # WAL lets the reader observe committed writes without locking errors.
        path = str(tmp_path / "cross.sqlite")
        with SQLiteVerdictStore(path) as writer, SQLiteVerdictStore(path) as reader:
            assert reader.get("k") is None
            writer.put("k", True, name="cross")
            assert reader.get("k") is True
            writer.put_many([(f"m{i}", False, "", 0.0) for i in range(10)])
            assert reader.get_many([f"m{i}" for i in range(10)]) == {
                f"m{i}": False for i in range(10)
            }


class TestNonBlockingCalls:
    """``get_nowait`` / ``journal_append_nowait``: the event loop's calls,
    which raise ``WouldBlock`` where the blocking calls would wait."""

    def test_nowait_calls_match_the_blocking_ones(self, store):
        store.put("k", True)
        assert store.get_nowait("k") is True and store.get_nowait("absent") is None
        store.journal_append_nowait("s", 0, {"kind": "open", "address": {}})
        store.journal_append("s", 1, {"kind": "deltas", "deltas": []})
        assert [seq for seq, _ in store.journal_entries("s")] == [0, 1]

    def test_a_locked_database_raises_would_block(self, tmp_path):
        path = str(tmp_path / "locked.sqlite")
        with SQLiteVerdictStore(path) as store:
            store.put("k", True)
            holder = sqlite3.connect(path, isolation_level=None)
            holder.execute("BEGIN IMMEDIATE")  # another connection's write lock
            try:
                assert store.get_nowait("k") is True  # WAL: readers never wait
                with pytest.raises(WouldBlock):
                    store.journal_append_nowait("s", 0, {"kind": "open"})
            finally:
                holder.execute("COMMIT")
                holder.close()
            assert store.journal_entries("s") == []  # nothing half-written
            store.journal_append_nowait("s", 0, {"kind": "open"})
            assert store.journal_entries("s") == [(0, {"kind": "open"})]

    def test_a_lock_held_by_another_thread_raises_would_block(self):
        # In memory the non-blocking calls share the writer's lock.
        with SQLiteVerdictStore(":memory:") as store:
            taken, done = threading.Event(), threading.Event()

            def hold():
                with store._lock:
                    taken.set()
                    done.wait(5)

            holder = threading.Thread(target=hold)
            holder.start()
            taken.wait(5)
            try:
                with pytest.raises(WouldBlock):
                    store.get_nowait("k")
                with pytest.raises(WouldBlock):
                    store.journal_append_nowait("s", 0, {})
            finally:
                done.set()
                holder.join()
            assert store.get_nowait("k") is None

    def test_every_nth_loop_commit_asks_for_a_checkpoint(self, tmp_path):
        with SQLiteVerdictStore(str(tmp_path / "wal.sqlite")) as store:
            (pages,) = store._nowait_connection.execute("PRAGMA wal_autocheckpoint").fetchone()
            assert pages == 0  # loop commits never checkpoint by themselves
            store.CHECKPOINT_EVERY = 3
            due = [store.journal_append_nowait("s", seq, {}) for seq in range(7)]
            assert due == [False, False, True, False, False, True, False]
            store.checkpoint()
        with SQLiteVerdictStore(":memory:") as memory:  # no log to fold back
            memory.CHECKPOINT_EVERY = 1
            assert memory.journal_append_nowait("s", 0, {}) is False


class TestKeyScheme:
    """The content-addressed keys: stable under reconstruction, fresh on change."""

    def _key(self, machine, graph=None, ids=None, spaces=None, prefix=None):
        graph = graph if graph is not None else generators.cycle_graph(5)
        ids = ids or sequential_identifier_assignment(graph)
        spaces = spaces if spaces is not None else [color_space(3)]
        prefix = prefix if prefix is not None else sigma_prefix(1)
        return instance_key(machine, graph, ids, spaces, prefix)

    def test_reconstructed_machine_same_key(self):
        # Two independently constructed copies of the same machine must
        # share a key, or cross-session incrementality would never hit.
        first = self._key(builtin.three_colorability_verifier())
        second = self._key(builtin.three_colorability_verifier())
        assert first == second

    def test_changed_machine_is_a_miss(self):
        base = self._key(builtin.three_colorability_verifier())
        assert base != self._key(builtin.two_colorability_verifier())

    def test_changed_captured_constant_is_a_miss(self):
        # The machines differ only in a value captured by the compute
        # function's closure.
        assert machine_fingerprint(builtin.constant_algorithm("1")) != machine_fingerprint(
            builtin.constant_algorithm("0")
        )

    def test_every_atom_of_the_colorability_matrix_reaches_the_key(self):
        # The matrix nests deeper than any fixed bound a fingerprint walk
        # could stop at: changing the relation of any one of its 21 atoms
        # must change the machine's fingerprint.
        base = three_colorable_formula()
        variants = [_next_color_at(base, n) for n in range(21)]
        assert len(set(variants)) == 21 and base not in variants
        fingerprints = {
            machine_fingerprint(compile_sentence(f).algorithm) for f in [base] + variants
        }
        assert len(fingerprints) == 22

    def test_store_warmed_by_a_sentence_misses_for_its_variant(self):
        # Atom 3 turns ¬(C0(x) ∧ C1(x)) into ¬(C1(x) ∧ C1(x)), which forbids
        # C1: the 3-cycle is then not colorable, and a store warmed by the
        # original sentence must not answer for it.
        from repro.sweep import run_instances
        from repro.sweep.scenarios import family_cycles, instances_for_spec

        def instances(formula):
            spec = compile_sentence(formula).spec("fagin-3col")
            return instances_for_spec(spec, family_cycles((3,)), id_schemes=("small",))

        base = three_colorable_formula()
        variant = _next_color_at(base, 3)
        assert run_instances(instances(variant)).verdicts == [False]
        with open_store("memory://") as store:
            assert run_instances(instances(base), store=store).verdicts == [True]
            warm = run_instances(instances(variant), store=store)
            assert warm.verdicts == [False]
            assert warm.cached_count == 0

    def test_fagin_keys_survive_deciding_and_rebuilding(self):
        # The compiled arbiters memoize per arbiter; the memos must stay out
        # of the key, which is the same before and after a decision fills
        # them, and for a second build of the scenario.
        from repro.sweep import run_instances
        from repro.sweep.fingerprint import game_instance_key
        from repro.sweep.scenarios import build_instances

        def keys(instances):
            return [(machine_fingerprint(i.machine), game_instance_key(i)) for i in instances]

        first = build_instances("fagin")
        before = keys(first)
        assert keys(build_instances("fagin")) == before
        run_instances(first)
        assert keys(first) == before

    def test_stateless_helper_attribute_is_stable(self):
        # A machine dragging along a stateless helper object must not leak
        # the helper's memory address (default repr) into the key.
        class Helper:
            pass

        def make_machine():
            machine = NeighborhoodGatherAlgorithm(1, lambda view: "1")
            machine.helper = Helper()
            return machine

        assert machine_fingerprint(make_machine()) == machine_fingerprint(make_machine())

    def test_changed_radius_is_a_miss(self):
        accept = lambda view: "1"
        one = self._key(NeighborhoodGatherAlgorithm(1, accept))
        two = self._key(NeighborhoodGatherAlgorithm(2, accept))
        assert one != two

    def test_changed_compute_body_is_a_miss(self):
        one = self._key(NeighborhoodGatherAlgorithm(1, lambda view: "1"))
        two = self._key(NeighborhoodGatherAlgorithm(1, lambda view: "0"))
        assert one != two

    def test_changed_graph_ids_space_prefix_are_misses(self):
        machine = builtin.three_colorability_verifier()
        base = self._key(machine)
        relabeled = generators.cycle_graph(5).relabel({"c0": "1"})
        assert base != self._key(machine, graph=relabeled)
        other_graph = generators.cycle_graph(6)
        assert base != self._key(machine, graph=other_graph)
        graph = generators.cycle_graph(5)
        shuffled = sequential_identifier_assignment(graph)
        nodes = list(graph.nodes)
        swapped = dict(shuffled)
        swapped[nodes[0]], swapped[nodes[1]] = shuffled[nodes[1]], shuffled[nodes[0]]
        assert base != self._key(machine, graph=graph, ids=swapped)
        assert base != self._key(machine, spaces=[bit_space()])
        assert base != self._key(machine, prefix=pi_prefix(1))

    def test_store_round_trip_under_real_keys(self, store):
        machine = builtin.three_colorability_verifier()
        key = self._key(machine)
        store.put(key, True, name="3-colorable|c5")
        assert store.get(self._key(builtin.three_colorability_verifier())) is True
        assert store.get(self._key(builtin.two_colorability_verifier())) is None


class TestNodeVerdicts:
    """The canonical ball cache's persistence tier (node-verdict table)."""

    def test_node_roundtrip(self, store):
        assert store.get_node("ball:x") is None
        store.put_node("ball:x", True)
        store.put_node_many([("ball:y", False), ("ball:z", True)])
        assert store.get_node("ball:x") is True
        assert store.get_node("ball:y") is False
        assert store.get_node_many(["ball:x", "ball:y", "ball:missing"]) == {
            "ball:x": True,
            "ball:y": False,
        }
        assert store.node_count() == 3
        # Node verdicts live beside, not inside, the instance table.
        assert len(store) == 0

    def test_node_overwrite_last_wins(self, store):
        store.put_node("ball:k", True)
        store.put_node("ball:k", False)
        assert store.get_node("ball:k") is False
        assert store.node_count() == 1

    def test_sqlite_node_verdicts_survive_reopen(self, tmp_path):
        path = str(tmp_path / "nodes.sqlite")
        with SQLiteVerdictStore(path) as first:
            first.put("instance-key", True)
            first.put_node_many([("ball:a", True), ("ball:b", False)])
        with SQLiteVerdictStore(path) as second:
            assert second.get("instance-key") is True
            assert second.get_node("ball:a") is True
            assert second.node_count() == 2

    def test_sqlite_pre_node_table_store_migrates_on_open(self, tmp_path):
        import sqlite3
        import time as time_module

        path = str(tmp_path / "legacy.sqlite")
        connection = sqlite3.connect(path)
        connection.execute(
            "CREATE TABLE verdicts (key TEXT PRIMARY KEY, verdict INTEGER NOT NULL,"
            " name TEXT NOT NULL DEFAULT '', seconds REAL NOT NULL DEFAULT 0,"
            " created REAL NOT NULL)"
        )
        connection.execute(
            "INSERT INTO verdicts VALUES ('old', 1, 'legacy', 0.1, ?)",
            (time_module.time(),),
        )
        connection.commit()
        connection.close()
        with SQLiteVerdictStore(path) as store:
            assert store.get("old") is True
            assert store.get_node("ball:new") is None
            store.put_node("ball:new", True)
            assert store.get_node("ball:new") is True

    def test_jsonl_mixes_kinds_in_one_file(self, tmp_path):
        # Instance and node verdicts share one database file and both
        # survive reopen, whatever the file's suffix.
        path = str(tmp_path / "mixed.jsonl")
        with open_store(path) as first:
            first.put("instance-key", True, name="i")
            first.put_node_many([("ball:a", False)])
        with open_store(path) as second:
            assert second.get("instance-key") is True
            assert second.get_node("ball:a") is False
            assert len(second) == 1 and second.node_count() == 1
