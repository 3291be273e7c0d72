"""Dynamic verdict repair vs full recompute on a mostly-stable trace.

The incremental-scenario subsystem's whole claim is that after a small
mutation, repairing the compiled instance in place (dirty dependency balls
only, clean memos surviving) beats rebuilding and re-solving the game from
scratch.  This benchmark replays the ``dynamic-cycles`` workload -- a
32-cycle under the 2-colorability game with periodic identifiers, so the
engine sits on its memo-heavy fixpoint path, and label churn confined to
three hot nodes -- and times, per delta:

* **repair**: ``MutableInstance.apply`` + the incremental ``verdict()``,
* **recompute**: a fresh ``CompiledInstance`` + engine over a snapshot of
  the same mutated state (what a client without the mutable layer pays).

Every pair of verdicts is asserted equal (the benchmark doubles as a
differential check), and ``BENCH_dynamic.json`` records the medians and
their ratio (informational: both sides move with the leaf-evaluation
path).  The gate counts work instead of time: summed over the trace, the
leaf evaluations repair adds to its instance (memo misses) must be at
most a third of those the from-scratch recomputes pay.  If repair ever
redoes that much of the work, the dynamic subsystem has lost its reason
to exist.
"""

from __future__ import annotations

import statistics

from repro.engine.compiled import CompiledGameEngine, CompiledInstance
from repro.engine.dynamic import MutableInstance, recompute_verdict
from repro.sweep.scenarios import get_dynamic_scenario

from conftest import report, write_bench_json

SCENARIO = "dynamic-cycles"

#: The CI gate: recompute must pay at least this many times the leaf
#: evaluations repair pays, summed over the trace.
MIN_LEAF_RATIO = 3.0


def _recompute_leaf_misses(snapshot) -> int:
    """Leaf evaluations (memo misses) of a from-scratch solve of *snapshot*:
    the same fresh instance and engine ``recompute_verdict`` builds."""
    compiled = CompiledInstance(snapshot.machine, snapshot.graph, snapshot.ids)
    CompiledGameEngine(
        snapshot.machine, snapshot.graph, snapshot.ids, snapshot.spaces, instance=compiled
    ).eve_wins(snapshot.prefix)
    return compiled.memo_misses


def _replay_with_timings(trace):
    """Replay the trace, timing repair and recompute per delta and counting
    the leaf evaluations each pays."""
    import time

    mutable = MutableInstance.from_game_instance(trace.base)
    mutable.verdict()  # warm solve: the steady state repair starts from
    repair_seconds = []
    recompute_seconds = []
    repair_misses = []
    recompute_misses = []
    verdicts = []
    for delta in trace.deltas:
        misses = mutable.compiled.memo_misses
        start = time.perf_counter()
        mutable.apply(delta)
        repaired = mutable.verdict()
        repair_seconds.append(time.perf_counter() - start)
        repair_misses.append(mutable.compiled.memo_misses - misses)

        snapshot = mutable.as_game_instance()
        start = time.perf_counter()
        recomputed = recompute_verdict(snapshot)
        recompute_seconds.append(time.perf_counter() - start)
        recompute_misses.append(_recompute_leaf_misses(snapshot))

        assert repaired == recomputed, (delta, repaired, recomputed)
        verdicts.append(repaired)
    return mutable, repair_seconds, recompute_seconds, repair_misses, recompute_misses, verdicts


def test_repair_beats_recompute_on_mostly_stable_trace(benchmark):
    """Repair must pay at most 1/MIN_LEAF_RATIO of recompute's leaf evaluations."""
    scenario = get_dynamic_scenario(SCENARIO)
    trace = scenario.trace()
    (
        mutable, repair_seconds, recompute_seconds, repair_misses, recompute_misses, verdicts
    ) = _replay_with_timings(trace)

    repair_median = statistics.median(repair_seconds)
    recompute_median = statistics.median(recompute_seconds)
    speedup = recompute_median / repair_median if repair_median > 0 else float("inf")
    repair_leaves, recompute_leaves = sum(repair_misses), sum(recompute_misses)
    assert MIN_LEAF_RATIO * repair_leaves <= recompute_leaves, (
        f"repair paid {repair_leaves} leaf evaluations vs recompute "
        f"{recompute_leaves}: more than 1/{MIN_LEAF_RATIO:g} "
        f"(per delta {repair_misses} vs {recompute_misses})"
    )
    # Repair must actually be incremental: no delta of this trace may dirty
    # the whole graph (a full rebuild would time like a recompute).
    info = mutable.info()
    assert info["full_rebuilds"] == 0, info
    assert info["dirty_total"] < info["mutations"] * info["nodes"], info

    # pytest-benchmark times one representative repaired step on a fresh
    # replay (apply + incremental verdict of the first delta).
    def one_repair_step():
        fresh = MutableInstance.from_game_instance(scenario.trace().base)
        fresh.verdict()
        fresh.apply(trace.deltas[0])
        return fresh.verdict()

    benchmark(one_repair_step)

    report(
        "Dynamic repair vs recompute (mostly-stable 32-cycle trace)",
        [
            {"steps": len(trace.deltas), "verdicts": verdicts},
            {
                "repair_median_ms": round(repair_median * 1e3, 3),
                "recompute_median_ms": round(recompute_median * 1e3, 3),
                "speedup_median": round(speedup, 2),
            },
            {
                "repair_leaf_evaluations": repair_leaves,
                "recompute_leaf_evaluations": recompute_leaves,
            },
            {
                "dirty_total": info["dirty_total"],
                "memo_invalidations": info["memo"]["invalidations"],
                "memo_hits": info["memo"]["hits"],
            },
        ],
    )
    write_bench_json(
        "dynamic",
        {
            "scenario": SCENARIO,
            "base": trace.base.name,
            "steps": len(trace.deltas),
            "repair_vs_recompute": {
                "repair_median_seconds": repair_median,
                "recompute_median_seconds": recompute_median,
                "speedup_median": round(speedup, 3),
            },
            "leaf_evaluations": {
                "repair": repair_leaves,
                "recompute": recompute_leaves,
                "min_ratio_gate": MIN_LEAF_RATIO,
            },
            "trace": {
                "dirty_total": info["dirty_total"],
                "full_rebuilds": info["full_rebuilds"],
                "nodes": info["nodes"],
                "mutations": info["mutations"],
                "memo": info["memo"],
            },
        },
    )
