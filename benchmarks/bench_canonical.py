"""Canonical ball memoization: hit rates on the separations sweep.

Measures how much of the Figure-2 (``separations``) workload's expensive
per-node work is answered by the canonical ball cache instead of being
recomputed:

* **cold**: a fresh cache shared across the sweep's instances -- hits are
  isomorphic dependency balls recurring across nodes and instances (the
  glued fooling-pair games are full of them);
* **store-backed**: a second, completely fresh evaluation over a store
  holding the first pass's node verdicts -- hits now come from the
  persistence tier, the cross-session path the service's compute tier uses.

Writes ``BENCH_canonical.json`` (hit counters and rates per shape), gated
in CI: the cold hit rate must be positive, or the canonical tier is dead
weight.
"""

from __future__ import annotations

from repro.engine.canonical import CanonicalVerdictCache
from repro.sweep.executor import evaluate_timed, run_instances
from repro.sweep.scenarios import build_instances
from repro.sweep.store import open_store

from conftest import report, write_bench_json

SCENARIO = "separations"


def test_canonical_cache_hit_rate_on_separations(benchmark):
    """The canonical cache must answer part of the cold separations sweep."""
    # Cold pass: fresh machines/graphs (the builder constructs new objects),
    # one shared canonical cache across every instance of the sweep.
    instances = build_instances(SCENARIO)
    cold_cache = CanonicalVerdictCache()
    cold_verdicts, _ = evaluate_timed(instances, canonical=cold_cache)
    cold = cold_cache.info()
    assert cold["hits"] > 0, cold

    # Store-backed pass: persist the cold pass's node verdicts, then solve
    # the whole workload again from scratch against the store.
    store = open_store("memory://")
    store.put_node_many(cold_cache.drain_records())
    warm_cache = CanonicalVerdictCache(store=store)
    warm_verdicts, _ = evaluate_timed(build_instances(SCENARIO), canonical=warm_cache)
    assert warm_verdicts == cold_verdicts
    warm = warm_cache.info()
    assert warm["store_hits"] > 0, warm

    # The sweep orchestrator reports the same counters end to end.
    sweep = run_instances(build_instances(SCENARIO), scenario=SCENARIO)
    assert sweep.canonical is not None and sweep.canonical["hit_rate"] > 0

    benchmark(
        lambda: evaluate_timed(
            build_instances(SCENARIO), canonical=CanonicalVerdictCache(store=store)
        )
    )
    report(
        "Canonical ball cache (separations sweep)",
        [
            {"cold_hit_rate": cold["hit_rate"], "entries": cold["entries"]},
            {"store_hit_rate": warm["hit_rate"], "store_hits": warm["store_hits"]},
        ],
    )
    write_bench_json(
        "canonical",
        {
            "scenario": SCENARIO,
            "instances": len(instances),
            "cold": cold,
            "store_backed": warm,
            "sweep": sweep.canonical,
        },
    )
