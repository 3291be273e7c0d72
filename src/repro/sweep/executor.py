"""In-process execution of game-instance sweeps, with persistent-store reuse.

The executor answers a list of :class:`~repro.engine.batch.GameInstance`
questions in two steps:

1. **Store lookup.**  When a verdict store is attached, every instance's
   content-addressed key (:mod:`repro.sweep.fingerprint`) is checked first;
   hits skip evaluation entirely, so re-running a sweep across sessions is
   incremental.
2. **Evaluation.**  The remaining instances are decided in instance order
   by one :func:`evaluate_timed` call.  Instances sharing a
   ``(machine, graph, ids)`` compiled instance (:func:`evaluator_sharing_key`)
   share its per-node verdict memo, one canonical ball cache spans the
   whole sweep, and the fresh verdicts are merged back into the store.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.batch import GameInstance, IdentityKey
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
    results: List[InstanceResult] = field(default_factory=list)
    total_seconds: float = 0.0
    store_path: Optional[str] = None
    #: Canonical ball cache counters for the sweep (see
    #: :meth:`~repro.engine.canonical.CanonicalVerdictCache.info`).
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
# Evaluation
# ----------------------------------------------------------------------
def evaluator_sharing_key(instance: GameInstance) -> Tuple[IdentityKey, object, Tuple[tuple, ...]]:
    """The key under which instances share one compiled instance.

    The certificate spaces and the prefix are *not* part of it, because
    the per-node verdict cache depends only on ``(machine, graph, ids)``
    -- Sigma and Pi games, and sweeps of many certificate spaces over one
    instance, all reuse it.  The machine is compared by identity through
    :class:`~repro.engine.batch.IdentityKey`.  The identifiers are listed
    with their nodes, in node order: graphs compare equal whatever their
    node order, but a compiled instance is positional in ``graph.nodes``,
    so the same identifier tuple in another node order is another input.
    """
    return (
        IdentityKey(instance.machine),
        instance.graph,
        tuple((u, instance.ids[u]) for u in instance.graph.nodes),
    )


def evaluate_timed(
    instances: Sequence[GameInstance],
    canonical=None,
) -> Tuple[List[bool], List[float]]:
    """Game values of *instances*, in order, with per-instance timing.

    One :class:`~repro.engine.compiled.CompiledInstance` is built per
    sharing group (same ``(machine, graph, ids)``), and each instance gets
    its own engine on it, so every game of the group -- across certificate
    spaces and prefixes -- runs on the same interned certificate alphabet
    and shares the per-node verdict memo.  An engine keeps no game values,
    so there is nothing else to share.  The compiled instances are shared
    within this call only: each is garbage once it returns, and a verdict
    worth keeping is kept under its store key by the caller.

    Under an active trace, each instance records an ``engine`` span with
    the path that filled its memo misses
    (:attr:`~repro.engine.compiled.CompiledInstance.path`)
    and the simulator runs its game took; the daemon's compute tier counts
    verdicts per path from these spans.

    *canonical*, when given, is a
    :class:`~repro.engine.canonical.CanonicalVerdictCache` attached to every
    compiled instance of the batch: isomorphic dependency balls then share
    one verdict across nodes *and* across the batch's instances (and, when
    the cache is store-backed, across sessions).
    """
    from repro.engine.compiled import CompiledGameEngine, CompiledInstance, compile_instance
    from repro.obs.trace import current_trace

    compiled_by_group: Dict[tuple, CompiledInstance] = {}
    trace = current_trace()
    verdicts: List[bool] = []
    seconds: List[float] = []
    for instance in instances:
        group_key = evaluator_sharing_key(instance)
        compiled = compiled_by_group.get(group_key)
        compiled_fresh = compiled is None
        if compiled_fresh:
            compile_start = time.perf_counter()
            compiled = compile_instance(instance.machine, instance.graph, instance.ids)
            compiled_by_group[group_key] = compiled
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
        runs = compiled.simulator_runs
        start = time.perf_counter()
        verdicts.append(engine.eve_wins(instance.prefix))
        spent = time.perf_counter() - start
        seconds.append(spent)
        if trace is not None:
            trace.add_span(
                "engine",
                spent,
                instance=instance.name,
                compiled=compiled_fresh,
                path=compiled.path,
                simulator_runs=compiled.simulator_runs - runs,
            )
    return verdicts, seconds


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_instances(
    instances: Sequence[GameInstance],
    store: Union[VerdictStore, str, None] = None,
    scenario: str = "ad-hoc",
    *,
    jobs: int = 0,
) -> SweepResult:
    """Run a sweep over explicit instances (see module docstring).

    Parameters
    ----------
    instances:
        The questions, in order; verdicts come back in the same order.
    store:
        A :class:`~repro.sweep.store.VerdictStore`, a path for
        :func:`~repro.sweep.store.open_store`, or ``None`` for no
        persistence.  Hits skip evaluation; fresh verdicts are merged back.
        A store opened here from a path is closed here, also on error.
    scenario:
        The label the result and the sweep's log events carry.
    jobs:
        Must be ``<= 1``: sweeps run in-process, and a larger value raises
        :class:`ValueError`.
    """
    from repro.engine.canonical import CanonicalVerdictCache

    if jobs > 1:
        raise ValueError(f"jobs={jobs}: sweeps run in-process only (jobs <= 1)")
    started = time.perf_counter()
    instances = list(instances)
    owns_store = isinstance(store, str)
    store_obj: Optional[VerdictStore] = open_store(store) if owns_store else store
    store_path = store if owns_store else getattr(store_obj, "path", None)
    try:
        keys: List[Optional[str]] = [None] * len(instances)
        verdicts: Dict[int, bool] = {}
        if store_obj is not None:
            # Each distinct machine is fingerprinted once per call.
            fingerprints: Dict[int, str] = {}
            keys = [game_instance_key(instance, fingerprints) for instance in instances]
            # One bulk lookup instead of one round-trip per instance.
            found = store_obj.get_many(keys)
            verdicts = {
                index: found[key] for index, key in enumerate(keys) if key in found
            }
        cached = set(verdicts)
        cold = [index for index in range(len(instances)) if index not in cached]
        _log.debug(
            "sweep-start", scenario=scenario, instances=len(instances), cached=len(cached)
        )
        canonical = CanonicalVerdictCache(store=store_obj)
        cold_verdicts, cold_seconds = evaluate_timed(
            [instances[index] for index in cold], canonical=canonical
        )
        canonical.flush()
        verdicts.update(zip(cold, cold_verdicts))
        seconds: Dict[int, float] = dict(zip(cold, cold_seconds))
        if store_obj is not None and cold:
            store_obj.put_many(
                (keys[index], verdicts[index], instances[index].name, seconds[index])
                for index in cold
            )
    finally:
        if owns_store and store_obj is not None:
            store_obj.close()
    _log.debug(
        "sweep-end",
        scenario=scenario,
        instances=len(instances),
        solved=len(cold),
        cached=len(cached),
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
        scenario=scenario,
        results=results,
        total_seconds=time.perf_counter() - started,
        store_path=store_path,
        canonical=canonical.info(),
    )


def run_scenario(
    name: str,
    store: Union[VerdictStore, str, None] = None,
    limit: Optional[int] = None,
) -> SweepResult:
    """Run a registered scenario end to end.

    *limit* keeps only the first ``limit`` instances; it must not be
    negative.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    instances = build_instances(name)
    if limit is not None:
        instances = instances[:limit]
    return run_instances(instances, store=store, scenario=name)
