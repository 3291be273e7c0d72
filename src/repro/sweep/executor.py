"""Sharded execution of game-instance sweeps, with persistent-store reuse.

The executor answers a list of :class:`~repro.engine.batch.GameInstance`
questions in three steps:

1. **Store lookup.**  When a verdict store is attached, every instance's
   content-addressed key (:mod:`repro.sweep.fingerprint`) is checked first;
   hits skip evaluation entirely, so re-running a sweep across sessions is
   incremental.
2. **Sharding.**  The remaining instances are partitioned so that all
   instances sharing a ``(machine, graph, ids)`` compiled instance -- and
   hence its per-node verdict cache -- land on the same shard
   (:func:`shard_indices`).  Splitting such a group across processes would
   duplicate the cache cold-start in every process; keeping it together
   preserves the engine's within-group reuse.
3. **Execution.**  Shards run either in-process (the deterministic
   fallback, also used for ``--jobs <= 1``) or across a ``multiprocessing``
   pool.  Machines close over plain functions and are not picklable, so
   parallel workers receive only the *scenario name* and their shard's
   indices, rebuild the instance list from the registry (scenario builders
   are deterministic by contract), evaluate their shard, and ship the
   boolean verdicts back.  The parent merges every shard's fresh verdicts
   into the persistent store.

Both paths return identical verdicts in instance order; the equivalence is
asserted by randomized tests.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import GameInstance, IdentityKey, engine_sharing_key
from repro.obs.log import get_logger
from repro.sweep.fingerprint import game_instance_key
from repro.sweep.scenarios import build_instances
from repro.sweep.store import VerdictStore, open_store

_log = get_logger("repro.sweep")


@dataclass
class InstanceResult:
    """The outcome of one instance of a sweep."""

    name: str
    verdict: bool
    cached: bool
    seconds: float = 0.0
    key: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "cached": self.cached,
            "seconds": round(self.seconds, 6),
            "key": self.key,
        }


@dataclass
class SweepResult:
    """Everything a sweep produced, in instance order."""

    scenario: str
    jobs: int
    shard_count: int
    executed_parallel: bool
    results: List[InstanceResult] = field(default_factory=list)
    total_seconds: float = 0.0
    store_path: Optional[str] = None
    #: Canonical ball cache counters for the sweep (hits/misses/hit_rate;
    #: summed over shards on the parallel path).
    canonical: Optional[Dict[str, object]] = None

    @property
    def verdicts(self) -> List[bool]:
        return [result.verdict for result in self.results]

    @property
    def cached_count(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def cold_count(self) -> int:
        return len(self.results) - self.cached_count

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "jobs": self.jobs,
            "shards": self.shard_count,
            "executed_parallel": self.executed_parallel,
            "store": self.store_path,
            "summary": {
                "instances": len(self.results),
                "cold": self.cold_count,
                "cached": self.cached_count,
                "seconds": round(self.total_seconds, 6),
            },
            "canonical": self.canonical,
            "instances": [result.as_dict() for result in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def table(self) -> str:
        """A human-readable result table."""
        width = max([len(result.name) for result in self.results] + [8])
        lines = [f"{'instance':<{width}}  verdict  source", "-" * (width + 18)]
        for result in self.results:
            verdict = "eve" if result.verdict else "adam"
            source = "store" if result.cached else f"{result.seconds * 1000:7.1f}ms"
            lines.append(f"{result.name:<{width}}  {verdict:<7}  {source}")
        lines.append(
            f"{len(self.results)} instances: {self.cold_count} solved, "
            f"{self.cached_count} from store, {self.total_seconds:.3f}s total"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------
def evaluator_sharing_key(instance: GameInstance) -> Tuple[IdentityKey, object, Tuple[str, ...]]:
    """The key under which instances share one compiled instance.

    Coarser than :func:`~repro.engine.batch.engine_sharing_key`: the
    certificate spaces are *not* part of it, because the per-node verdict
    cache depends only on ``(machine, graph, ids)`` -- Sigma and Pi games,
    and sweeps of many certificate spaces over one instance, all reuse it.
    """
    return (
        IdentityKey(instance.machine),
        instance.graph,
        tuple(instance.ids[u] for u in instance.graph.nodes),
    )


def shard_indices(instances: Sequence[GameInstance], shard_count: int) -> List[List[int]]:
    """Partition instance indices into at most *shard_count* balanced shards.

    Instances sharing a compiled instance (same ``(machine, graph, ids)``, see
    :func:`evaluator_sharing_key`) form an atomic group: the whole group
    lands on one shard so the per-node verdict cache is built once instead
    of once per process.  Groups are assigned greedily, in first-appearance
    order, to the currently lightest shard -- fully deterministic for a
    deterministic instance list.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be positive")
    groups: Dict[object, List[int]] = {}
    order: List[object] = []
    for index, instance in enumerate(instances):
        key = evaluator_sharing_key(instance)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)

    shard_count = min(shard_count, len(order)) if order else 1
    shards: List[List[int]] = [[] for _ in range(shard_count)]
    for key in order:
        lightest = min(range(shard_count), key=lambda i: (len(shards[i]), i))
        shards[lightest].extend(groups[key])
    return [sorted(shard) for shard in shards if shard]


# ----------------------------------------------------------------------
# Shard evaluation
# ----------------------------------------------------------------------
def evaluate_timed(
    instances: Sequence[GameInstance],
    compiled_cache=None,
    engine_cache=None,
    canonical=None,
) -> Tuple[List[bool], List[float]]:
    """Game values of *instances*, in order, with per-instance timing.

    One :class:`~repro.engine.compiled.CompiledInstance` is built per
    sharing group (same ``(machine, graph, ids)``), so every engine
    of the group -- across certificate spaces and prefixes -- runs on the
    same interned certificate alphabet and shares the per-node verdict
    memo.  The per-call caches keep the group's compiled form pinned for
    the batch's lifetime regardless of global-registry eviction.

    *compiled_cache* and *engine_cache* accept any ``get(key, default)`` /
    ``put(key, value)`` mapping (e.g. :class:`repro.engine.caching.LRUCache`);
    a long-lived caller -- the online verdict service's compute tier -- passes
    persistent caches so engines and their memo/transposition state survive
    across batches, and fresh per-call unbounded caches are used otherwise.

    *canonical*, when given, is a
    :class:`~repro.engine.canonical.CanonicalVerdictCache` attached to every
    compiled instance of the batch: isomorphic dependency balls then share
    one verdict across nodes *and* across the batch's instances (and, when
    the cache is store-backed, across sessions).
    """
    from repro.engine.caching import LRUCache
    from repro.engine.compiled import CompiledGameEngine, compile_instance
    from repro.obs.trace import current_trace

    compiled_by_group = compiled_cache if compiled_cache is not None else LRUCache(None)
    engines = engine_cache if engine_cache is not None else LRUCache(None)
    trace = current_trace()
    verdicts: List[bool] = []
    seconds: List[float] = []
    for instance in instances:
        key = engine_sharing_key(instance)
        engine = engines.get(key)
        compiled_fresh = False
        if engine is None:
            group_key = evaluator_sharing_key(instance)
            compiled = compiled_by_group.get(group_key)
            if compiled is None:
                compile_start = time.perf_counter()
                compiled = compile_instance(instance.machine, instance.graph, instance.ids)
                compiled_by_group.put(group_key, compiled)
                compiled_fresh = True
                if trace is not None:
                    trace.add_span(
                        "compile",
                        time.perf_counter() - compile_start,
                        instance=instance.name,
                    )
            if canonical is not None:
                compiled.attach_canonical(canonical)
            engine = CompiledGameEngine(
                instance.machine,
                instance.graph,
                instance.ids,
                instance.spaces,
                instance=compiled,
            )
            engines.put(key, engine)
        start = time.perf_counter()
        verdicts.append(engine.eve_wins(instance.prefix))
        spent = time.perf_counter() - start
        seconds.append(spent)
        if trace is not None:
            trace.add_span(
                "engine", spent, instance=instance.name, compiled=compiled_fresh
            )
    return verdicts, seconds


def _evaluate_shard_by_name(
    task: Tuple[str, List[int], Optional[str]]
) -> Tuple[List[int], List[bool], List[float], List[str], List[Tuple[str, bool]], Dict[str, object]]:
    """Worker entry point: rebuild the scenario and evaluate one shard.

    Only the scenario name, the shard's indices and the store *path* cross
    the process boundary; the (unpicklable) machines are rebuilt from the
    registry, and the worker opens its own read connection to the store
    (WAL SQLite serves concurrent readers) so persisted canonical node
    verdicts warm parallel sweeps too -- all *writes* stay in the parent.
    The rebuilt instances' names are shipped back so the parent can detect
    a scenario whose builder no longer matches the instances it fingerprinted
    (shadowed registration, drifted builder) instead of silently storing
    wrong verdicts under the caller's keys.  The shard's fresh canonical
    node verdicts (plain ``(key, bool)`` pairs -- picklable) ride back too,
    so the parent can persist them and report the shard's hit rates.
    """
    from repro.engine.canonical import CanonicalVerdictCache

    scenario_name, indices, store_path = task
    instances = build_instances(scenario_name)
    if indices and max(indices) >= len(instances):
        raise RuntimeError(
            f"scenario {scenario_name!r} rebuilt with only {len(instances)} "
            f"instances in the worker, but index {max(indices)} was requested; "
            "the builder is not deterministic or was re-registered"
        )
    shard = [instances[i] for i in indices]
    read_store = open_store(store_path) if store_path else None
    canonical = CanonicalVerdictCache(store=read_store)
    try:
        verdicts, seconds = evaluate_timed(shard, canonical=canonical)
    finally:
        if read_store is not None:
            read_store.close()
    names = [instance.name for instance in shard]
    return indices, verdicts, seconds, names, canonical.drain_records(), canonical.info()


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, when the platform offers it.

    Forked workers inherit the parent's registry (including scenarios
    registered at runtime); under spawn-only platforms the executor falls
    back to deterministic in-process evaluation instead of requiring every
    scenario to be importable.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_instances(
    instances: Sequence[GameInstance],
    jobs: int = 0,
    store: Union[VerdictStore, str, None] = None,
    scenario: Optional[str] = None,
    scenario_name: str = "ad-hoc",
) -> SweepResult:
    """Run a sweep over explicit instances (see module docstring).

    Parameters
    ----------
    instances:
        The questions, in order; verdicts come back in the same order.
    jobs:
        ``<= 1`` evaluates in-process (deterministic fallback); ``N > 1``
        partitions the cold instances into up to ``N`` shards and runs them
        on a ``multiprocessing`` pool -- which requires *scenario* (workers
        rebuild instances by name) and the fork start method, and otherwise
        silently degrades to the in-process path with identical results.
    store:
        A :class:`~repro.sweep.store.VerdictStore`, a path for
        :func:`~repro.sweep.store.open_store`, or ``None`` for no
        persistence.  Hits skip evaluation; fresh verdicts are merged back.
    scenario:
        Name of the registered scenario that (deterministically) builds
        exactly *instances* -- the handle parallel workers rebuild from.
    scenario_name:
        Label for reporting when *scenario* is not given.
    """
    from repro.engine.canonical import CanonicalVerdictCache

    started = time.perf_counter()
    instances = list(instances)
    owns_store = isinstance(store, str)
    store_obj: Optional[VerdictStore] = open_store(store) if owns_store else store
    store_path = store if owns_store else getattr(store_obj, "path", None)

    keys: List[Optional[str]] = [None] * len(instances)
    cached: Dict[int, bool] = {}
    if store_obj is not None:
        for index, instance in enumerate(instances):
            keys[index] = game_instance_key(instance)
        # One bulk lookup instead of one round-trip per instance.
        found = store_obj.get_many([key for key in keys if key is not None])
        for index, key in enumerate(keys):
            if key in found:
                cached[index] = found[key]

    cold = [index for index in range(len(instances)) if index not in cached]
    shards = shard_indices([instances[i] for i in cold], max(1, jobs))
    # shard_indices returned positions into `cold`; map back to instance indices.
    shards = [[cold[position] for position in shard] for shard in shards]

    verdicts: Dict[int, bool] = dict(cached)
    seconds: Dict[int, float] = {}
    canonical_info: Dict[str, object] = {
        "entries": 0, "hits": 0, "store_hits": 0, "misses": 0, "puts": 0,
    }

    def _merge_canonical(info: Dict[str, object]) -> None:
        for field_name in ("entries", "hits", "store_hits", "misses", "puts"):
            value = info.get(field_name)
            if isinstance(value, int):
                canonical_info[field_name] += value

    _log.debug(
        "sweep-start",
        scenario=scenario or scenario_name,
        instances=len(instances),
        cached=len(cached),
        jobs=jobs,
        shards=len(shards),
    )
    parallel = jobs > 1 and scenario is not None and len(shards) > 1
    context = _fork_context() if parallel else None
    if jobs > 1 and not (parallel and context is not None):
        # The caller asked for worker processes but gets the in-process
        # path (identical verdicts, serial wall-clock).  This used to be a
        # silent degrade; say why.
        if scenario is None:
            reason = "no scenario name (workers rebuild instances by name)"
        elif len(shards) <= 1:
            reason = "only one shard after store hits and engine-sharing grouping"
        else:
            reason = "fork start method unavailable on this platform"
        _log.warning(
            "parallel-degraded", jobs=jobs, reason=reason,
            scenario=scenario or scenario_name,
        )
    if parallel and context is not None:
        worker_store_path = (
            store_path
            if isinstance(store_path, str) and ":memory:" not in store_path
            else None
        )
        tasks = [(scenario, shard, worker_store_path) for shard in shards]
        with context.Pool(processes=min(jobs, len(shards))) as pool:
            for (
                indices,
                shard_verdicts,
                shard_seconds,
                shard_names,
                shard_records,
                shard_canonical,
            ) in pool.map(_evaluate_shard_by_name, tasks):
                expected = [instances[index].name for index in indices]
                if shard_names != expected:
                    raise RuntimeError(
                        f"scenario {scenario!r} rebuilt differently in a worker "
                        f"process (expected instances {expected[:3]}..., got "
                        f"{shard_names[:3]}...); refusing to attribute its "
                        "verdicts -- is the builder deterministic and still "
                        "registered under this name?"
                    )
                for index, verdict, spent in zip(indices, shard_verdicts, shard_seconds):
                    verdicts[index] = verdict
                    seconds[index] = spent
                if store_obj is not None and shard_records:
                    store_obj.put_node_many(shard_records)
                _merge_canonical(shard_canonical)
        executed_parallel = True
    else:
        canonical = CanonicalVerdictCache(store=store_obj)
        for shard in shards:
            shard_verdicts, shard_seconds = evaluate_timed(
                [instances[i] for i in shard], canonical=canonical
            )
            for index, verdict, spent in zip(shard, shard_verdicts, shard_seconds):
                verdicts[index] = verdict
                seconds[index] = spent
        canonical.flush()
        _merge_canonical(canonical.info())
        executed_parallel = False

    answered = canonical_info["hits"] + canonical_info["store_hits"]
    total_lookups = answered + canonical_info["misses"]
    canonical_info["hit_rate"] = (
        round(answered / total_lookups, 4) if total_lookups else 0.0
    )

    if store_obj is not None and cold:
        store_obj.put_many(
            (keys[index], verdicts[index], instances[index].name, seconds.get(index, 0.0))
            for index in cold
        )
    if owns_store and store_obj is not None:
        store_obj.close()
    _log.debug(
        "sweep-end",
        scenario=scenario or scenario_name,
        instances=len(instances),
        solved=len(cold),
        cached=len(cached),
        parallel=executed_parallel,
        seconds=round(time.perf_counter() - started, 4),
    )

    results = [
        InstanceResult(
            name=instance.name or f"instance-{index}",
            verdict=verdicts[index],
            cached=index in cached,
            seconds=seconds.get(index, 0.0),
            key=keys[index],
        )
        for index, instance in enumerate(instances)
    ]
    return SweepResult(
        scenario=scenario or scenario_name,
        jobs=jobs,
        shard_count=len(shards),
        executed_parallel=executed_parallel,
        results=results,
        total_seconds=time.perf_counter() - started,
        store_path=store_path,
        canonical=canonical_info,
    )


def run_scenario(
    name: str,
    jobs: int = 0,
    store: Union[VerdictStore, str, None] = None,
    limit: Optional[int] = None,
) -> SweepResult:
    """Run a registered scenario end to end.

    *limit* keeps only the first ``limit`` instances (a prefix, so parallel
    workers -- which rebuild the full list -- index consistently).
    """
    instances = build_instances(name)
    if limit is not None:
        instances = instances[:limit]
    return run_instances(instances, jobs=jobs, store=store, scenario=name)
