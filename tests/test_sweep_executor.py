"""The sweep executor: ground truth, group sharing, store incrementality.

The acceptance bar for the subsystem lives here:

* verdicts of randomized scenarios equal the properties they decide, in
  instance order,
* a warm re-run against the persistent store completes at least 5x faster
  than the cold run.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.engine.batch import GameInstance
from repro.graphs import generators
from repro.graphs.identifiers import (
    random_identifier_assignment,
    sequential_identifier_assignment,
)
from repro.hierarchy.arbiters import three_colorability_spec, two_colorability_spec
from repro.machines import builtin
from repro.sweep import (
    SQLiteVerdictStore,
    build_instances,
    evaluate_timed,
    register_scenario,
    run_instances,
    run_scenario,
)
from repro.properties.coloring import three_colorable, two_colorable


def _random_instances(seed: int) -> list:
    """A deterministic-but-arbitrary mix of graphs, schemes and arbiters."""
    rng = random.Random(seed)
    three_col = three_colorability_spec()
    two_col = two_colorability_spec()
    instances = []
    for index in range(10):
        kind = rng.choice(["cycle", "tree", "regular", "grid"])
        if kind == "cycle":
            graph = generators.cycle_graph(rng.randrange(3, 9))
        elif kind == "tree":
            graph = generators.random_tree(rng.randrange(3, 9), seed=rng.randrange(100))
        elif kind == "regular":
            graph = generators.random_regular_graph(3, rng.choice([4, 6, 8]), seed=rng.randrange(10))
        else:
            graph = generators.grid_graph(2, rng.randrange(2, 4))
        spec = rng.choice([three_col, two_col])
        if rng.random() < 0.5:
            ids = sequential_identifier_assignment(graph)
        else:
            ids = random_identifier_assignment(graph, 1, rng=random.Random(rng.randrange(100)))
        instances.append(
            GameInstance(
                machine=spec.machine,
                graph=graph,
                ids=ids,
                spaces=list(spec.spaces),
                prefix=spec.prefix(),
                name=f"{spec.name}|{kind}|{index}",
            )
        )
    return instances


# Registered by name, as run_scenario builds what it runs from the registry.
for _seed in (11, 23):
    register_scenario(f"test-random-{_seed}", "randomized equivalence scenario")(
        lambda seed=_seed: _random_instances(seed)
    )


class TestInProcessSweep:
    @pytest.mark.parametrize("name", ["test-random-11", "test-random-23"])
    def test_verdicts_match_ground_truth(self, name):
        instances = build_instances(name)
        result = run_scenario(name)
        assert [r.name for r in result.results] == [i.name for i in instances]
        for instance, verdict in zip(instances, result.verdicts):
            if instance.name.startswith("3-colorable"):
                assert verdict == three_colorable(instance.graph), instance.name
            else:
                assert verdict == two_colorable(instance.graph), instance.name

    def test_spaces_do_not_split_an_evaluator_group(self, monkeypatch):
        """Sigma/Pi games (or many spaces) on one instance share one compiled form."""
        from repro.engine import compiled
        from repro.hierarchy.certificate_spaces import bit_space, color_space

        compiles = []
        compile_instance = compiled.compile_instance

        def counting_compile(*args):
            compiles.append(args)
            return compile_instance(*args)

        monkeypatch.setattr(compiled, "compile_instance", counting_compile)

        graph = generators.cycle_graph(6)
        ids = sequential_identifier_assignment(graph)
        machine = builtin.two_colorability_verifier()
        spaced = [
            GameInstance(machine=machine, graph=graph, ids=ids, spaces=[space], prefix=spec.prefix(), name=f"s{i}")
            for spec in [two_colorability_spec()]
            for i, space in enumerate([bit_space(), color_space(2), bit_space()])
        ]
        evaluate_timed(spaced)
        assert len(compiles) == 1, "one evaluator group must compile once"

    def test_more_than_one_job_is_an_error(self):
        with pytest.raises(ValueError, match="in-process"):
            run_instances(build_instances("smoke"), jobs=2)

    def test_negative_limit_is_an_error(self):
        with pytest.raises(ValueError, match="limit"):
            run_scenario("smoke", limit=-1)
        assert run_scenario("smoke", limit=0).results == []


class TestPersistentStore:
    def test_warm_rerun_at_least_5x_faster(self, tmp_path):
        path = str(tmp_path / "verdicts.sqlite")
        start = time.perf_counter()
        cold = run_scenario("coloring-cycles", store=path)
        cold_seconds = time.perf_counter() - start
        assert cold.cached_count == 0

        start = time.perf_counter()
        warm = run_scenario("coloring-cycles", store=path)
        warm_seconds = time.perf_counter() - start
        assert warm.verdicts == cold.verdicts
        assert warm.cold_count == 0
        assert cold_seconds >= 5 * warm_seconds, (
            f"warm re-run must be >= 5x faster: cold {cold_seconds:.3f}s, "
            f"warm {warm_seconds:.3f}s"
        )

    def test_changed_machine_invalidates(self, tmp_path):
        """A store warmed by one machine must not answer for a changed one."""
        graph = generators.cycle_graph(5)
        ids = sequential_identifier_assignment(graph)

        def instance_for(machine):
            return GameInstance(
                machine=machine, graph=graph, ids=ids, spaces=[], prefix=[], name="const"
            )

        path = str(tmp_path / "verdicts.sqlite")
        accept = run_instances([instance_for(builtin.constant_algorithm("1"))], store=path)
        assert accept.verdicts == [True] and accept.cold_count == 1
        reject = run_instances([instance_for(builtin.constant_algorithm("0"))], store=path)
        assert reject.cold_count == 1, "changed machine must be a cache miss"
        assert reject.verdicts == [False]
        # Unchanged machine: a hit, with the same verdict.
        again = run_instances([instance_for(builtin.constant_algorithm("1"))], store=path)
        assert again.cold_count == 0
        assert again.verdicts == [True]

    def test_store_keys_fingerprint_each_machine_once(self, monkeypatch):
        # A warm store-backed sweep only computes keys: it fingerprints each
        # distinct machine once per call, and its keys equal the unmemoized
        # game_instance_key's.
        from repro.sweep import fingerprint

        instances = build_instances("coloring-cycles")
        expected = [fingerprint.game_instance_key(i) for i in instances]
        fingerprinted = []
        original = fingerprint.machine_fingerprint

        def counting(machine):
            fingerprinted.append(id(machine))
            return original(machine)

        monkeypatch.setattr(fingerprint, "machine_fingerprint", counting)
        with SQLiteVerdictStore(":memory:") as store:
            run_instances(instances, store=store)
            fingerprinted.clear()
            warm = run_instances(instances, store=store)
        assert warm.cold_count == 0
        assert [r.key for r in warm.results] == expected
        machines = {id(i.machine) for i in instances}
        assert len(instances) > len(machines)
        assert sorted(fingerprinted) == sorted(machines)

    def test_store_object_reuse(self):
        with SQLiteVerdictStore(":memory:") as store:
            first = run_scenario("smoke", store=store)
            second = run_scenario("smoke", store=store)
            assert first.cold_count == len(first.results)
            assert second.cold_count == 0
            assert first.verdicts == second.verdicts

    def test_path_store_is_closed_when_evaluation_raises(self, tmp_path, monkeypatch):
        from repro.machines.local_algorithm import NeighborhoodGatherAlgorithm
        from repro.sweep import executor

        def compute(view):
            raise RuntimeError("compute failed")

        closes = []

        class CloseCountingStore(SQLiteVerdictStore):
            def close(self):
                closes.append(self)
                super().close()

        monkeypatch.setattr(executor, "open_store", CloseCountingStore)
        graph = generators.cycle_graph(4)
        instance = GameInstance(
            machine=NeighborhoodGatherAlgorithm(1, compute, name="raises"),
            graph=graph,
            ids=sequential_identifier_assignment(graph),
            spaces=[],
            prefix=[],
            name="raises",
        )
        with pytest.raises(RuntimeError, match="compute failed"):
            run_instances([instance], store=str(tmp_path / "verdicts.sqlite"))
        assert len(closes) == 1
