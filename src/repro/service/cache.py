"""The service's tiered read path: per-process LRU -> verdict store -> compute.

Tier 1 (:class:`TieredVerdictCache`'s LRU) answers hot keys in microseconds
from process memory.  Tier 2 is the shared persistent
:class:`~repro.sweep.store.VerdictStore` -- the same content-addressed
store the sweep orchestrator writes, so a daemon pointed at a sweep's
store starts warm, and verdicts computed online are visible to later
sweeps.  A store hit is promoted into the LRU on the way out.  Tier 3
(:class:`ComputeTier`) runs the compiled game engine; it is only reached
through the coalescer, which batches concurrent misses.

Every tier keeps hit/miss/latency counters, surfaced by the ``stats``
request so operators can see where queries are being answered.  The
compute tier additionally counts its verdicts by the engine path that
produced them (rule kernel, direct view, knowledge fixpoint or ball
simulation) and the simulator runs they took.  It keeps no engine between
batches: a game's verdict depends only on what its store key digests, and
tiers 1 and 2 already remember every verdict under that key.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.batch import GameInstance
from repro.engine.caching import LRUCache, MISSING
from repro.engine.canonical import CanonicalVerdictCache
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, MetricsRegistry
from repro.obs.trace import RequestTrace, TraceLog, active
from repro.service.resilience import StoreUnavailable
from repro.sweep.executor import evaluate_timed
from repro.sweep.store import VerdictStore, WouldBlock

#: Bound on the compute tier's in-memory canonical ball cache (the daemon
#: is long-lived; sweeps use unbounded per-run caches instead).
CANONICAL_CACHE_ENTRIES = 1 << 18


class TieredVerdictCache:
    """Read path over tier 1 (LRU) and tier 2 (persistent store).

    Thread-safe: the daemon looks up on the event loop and on worker
    threads (session queries, reads that hopped), and inserts may arrive
    from compute callbacks, so every LRU access takes the internal lock
    (uncontended in the common case).
    """

    def __init__(
        self,
        store: Optional[VerdictStore] = None,
        lru_size: int = 4096,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.lru = LRUCache(lru_size).bind_metrics(self.registry, "repro_tier_lru")
        self.store = store
        self._lock = threading.Lock()
        #: The store's size at the last count that did not have to wait.
        self._store_size: Optional[int] = None
        self._store_hits = self.registry.counter(
            "repro_tier_store_hits_total", help="tier-2 store lookups that hit"
        )
        self._store_misses = self.registry.counter(
            "repro_tier_store_misses_total", help="tier-2 store lookups that missed"
        )
        self._store_promotions = self.registry.counter(
            "repro_tier_store_promotions_total",
            help="verdicts speculatively promoted store -> LRU by bulk lookups",
        )
        self._inserts = self.registry.counter(
            "repro_tier_inserts_total", help="fresh verdicts recorded into the tiers"
        )
        self._store_errors = self.registry.counter(
            "repro_tier_store_errors_total",
            help="tier-2 store operations that raised (request degraded to compute)",
        )
        self._store_skips = self.registry.counter(
            "repro_tier_store_skipped_total",
            help="tier-2 lookups skipped because the store circuit breaker was open",
        )
        self._lru_seconds = self.registry.histogram(
            "repro_tier_lru_seconds",
            buckets=LATENCY_BUCKETS_SECONDS,
            help="tier-1 LRU lookup latency",
        )
        self._store_seconds = self.registry.histogram(
            "repro_tier_store_seconds",
            buckets=LATENCY_BUCKETS_SECONDS,
            help="tier-2 store lookup latency (single and bulk)",
        )

    def lookup_lru(self, key: str) -> Optional[Tuple[bool, str]]:
        """Tier 1 only: the in-process LRU (microseconds, loop-safe)."""
        start = time.perf_counter()
        with self._lock:
            verdict = self.lru.get(key, MISSING)
        self._lru_seconds.observe(time.perf_counter() - start)
        if verdict is not MISSING:
            return bool(verdict), "lru"
        return None

    def lookup_store(self, key: str) -> Optional[Tuple[bool, str]]:
        """Tier 2 only: the persistent store, promoting hits into the LRU.

        May block (up to the store's busy timeout under a concurrent
        writer) -- call from a worker thread in async contexts.
        """
        if self.store is None:
            return None
        start = time.perf_counter()
        return self._store_answer(key, self.store.get(key), start)

    def lookup_store_nowait(self, key: str) -> Optional[Tuple[bool, str]]:
        """:meth:`lookup_store` for the event loop: raises
        :class:`~repro.sweep.store.WouldBlock`, counting nothing, where
        the store would wait."""
        if self.store is None:
            return None
        start = time.perf_counter()
        return self._store_answer(key, self.store.get_nowait(key), start)

    def _store_answer(
        self, key: str, stored: Optional[bool], start: float
    ) -> Optional[Tuple[bool, str]]:
        self._store_seconds.observe(time.perf_counter() - start)
        if stored is None:
            self._store_misses.inc()
            return None
        self._store_hits.inc()
        with self._lock:
            self.lru.put(key, bool(stored))
        return bool(stored), "store"

    def lookup_store_many(self, keys: Sequence[str]) -> Dict[str, bool]:
        """Tier 2 in bulk: one :meth:`~repro.sweep.store.VerdictStore.get_many`.

        Every found key is promoted into the LRU, so a multi-key lookup
        (the daemon promotes a whole scenario on its first store miss)
        answers all sibling keys from tier 1 afterwards.  Speculative
        promotions are counted separately (``store_promotions``), never as
        hits or misses -- per-query tier counters stay meaningful, with the
        caller recording the outcome of the one key it actually needed
        (:meth:`note_store_hit` / :meth:`note_store_miss`).
        """
        if self.store is None or not keys:
            return {}
        start = time.perf_counter()
        found = self.store.get_many(keys)
        self._store_seconds.observe(time.perf_counter() - start)
        self._store_promotions.inc(len(found))
        with self._lock:
            for key, verdict in found.items():
                self.lru.put(key, bool(verdict))
        return {key: bool(verdict) for key, verdict in found.items()}

    def note_store_hit(self) -> None:
        """Record one tier-2 hit discovered through a bulk lookup."""
        self._store_hits.inc()

    def note_store_miss(self) -> None:
        """Record one tier-2 miss discovered through a bulk lookup."""
        self._store_misses.inc()

    def note_store_error(self, op: str, error: BaseException) -> None:
        """Record one failed tier-2 operation (the request degrades)."""
        self._store_errors.inc()
        self.registry.counter(
            "repro_tier_store_errors_by_op_total",
            labels={"op": op},
            help="failed tier-2 store operations by operation",
        ).inc()

    def note_store_skipped(self) -> None:
        """Record one tier-2 lookup shed by an open circuit breaker."""
        self._store_skips.inc()

    def insert(
        self,
        key: str,
        verdict: bool,
        name: str = "",
        seconds: float = 0.0,
        persist: bool = True,
    ) -> None:
        """Record a freshly computed verdict in the LRU and (optionally) the store."""
        with self._lock:
            self.lru.put(key, bool(verdict))
        self._inserts.inc()
        if persist and self.store is not None:
            self.store.put(key, bool(verdict), name=name, seconds=seconds)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            lru_info = self.lru.info()
        if self.store is not None:
            try:
                self._store_size = self.store.len_nowait()
            except WouldBlock:
                pass  # a writer holds the store: report the last count
        return {
            "lru": {**lru_info, "seconds": round(self._lru_seconds.sum, 6)},
            "store": {
                "attached": self.store is not None,
                "size": self._store_size,
                "hits": self._store_hits.value,
                "misses": self._store_misses.value,
                "promotions": self._store_promotions.value,
                "errors": self._store_errors.value,
                "skipped": self._store_skips.value,
                "seconds": round(self._store_seconds.sum, 6),
            },
            "inserts": self._inserts.value,
        }


class ComputeTier:
    """Tier 3: the compiled engine, one batch at a time.

    Batches are dispatched through the sweep executor's
    :func:`~repro.sweep.executor.evaluate_timed`, which shares one compiled
    instance per ``(machine, graph, ids)`` group *within* the batch -- Sigma
    and Pi misses of one game coalesced into a batch share a verdict memo
    -- and drops them all when the batch returns.  Only the canonical ball
    cache outlives a batch.

    Evaluation is serialized by a lock: the canonical cache is not
    thread-safe, and the workload is pure Python (GIL-bound), so worker
    concurrency buys nothing for a single batch anyway.
    """

    def __init__(
        self,
        store: Optional[VerdictStore] = None,
        registry: Optional[MetricsRegistry] = None,
        trace_log: Optional[TraceLog] = None,
        faults=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_log = trace_log
        #: Optional fault injector (the daemon wires it): the
        #: ``compute-error`` failpoint.
        self.faults = faults
        #: Canonical ball cache shared by every compiled instance the tier
        #: ever touches; store-backed when the daemon has a store, so the
        #: compute tier starts warm on neighborhoods any sweep ever solved.
        #: Bounded, like every other cache in the daemon: evicted entries
        #: stay re-promotable from the store.
        self.canonical = CanonicalVerdictCache(
            store=store, max_entries=CANONICAL_CACHE_ENTRIES
        )
        self._lock = threading.Lock()
        self._batches = self.registry.counter(
            "repro_compute_batches_total", help="batches dispatched to the engine tier"
        )
        self._verdicts = {
            path: self.registry.counter(
                "repro_compute_verdicts_total",
                labels={"path": path},
                help="verdicts computed by the engine tier, by engine path",
            )
            for path in ("kernel", "direct", "fixpoint", "simulate")
        }
        self._simulator_runs = self.registry.counter(
            "repro_compute_simulator_runs_total",
            help="simulator runs taken by the engine tier's games",
        )
        self._batch_seconds = self.registry.histogram(
            "repro_compute_batch_seconds",
            buckets=LATENCY_BUCKETS_SECONDS,
            help="wall time of one compute batch",
        )
        self._solve_seconds = self.registry.histogram(
            "repro_compute_solve_seconds",
            buckets=LATENCY_BUCKETS_SECONDS,
            help="per-instance engine solve time",
        )
        self._flush_failures = self.registry.counter(
            "repro_compute_canonical_flush_failures_total",
            help="canonical-cache store flushes that failed (verdicts unaffected)",
        )

    # Registry-backed counters, exposed as the plain ints they replaced.
    @property
    def batches(self) -> int:
        return self._batches.value

    @property
    def computed(self) -> int:
        return sum(counter.value for counter in self._verdicts.values())

    def evaluate(self, instances: Sequence[GameInstance]) -> Tuple[List[bool], List[float]]:
        """Verdicts and per-instance solve times of one batch.

        Each batch records a ``compute-batch`` trace (one ``engine`` span
        per instance, plus ``compile`` spans for each compiled group) into
        the daemon's trace log -- the coalescer serves many requests from
        one batch, so batch-level traces are where the engine time is
        visible.  The verdict and simulator-run counters are summed from
        the batch's ``engine`` spans.
        """
        if self.faults is not None:
            # The chaos harness's engine failpoint: fires *before* the
            # batch lock, modeling an evaluation blowing up -- every waiter
            # of this batch gets the typed ``internal`` error, the daemon
            # survives.
            self.faults.check("compute-error")
        start = time.perf_counter()
        batch_trace = RequestTrace(
            op="compute-batch", name=instances[0].name if instances else ""
        )
        with self._lock:
            with active(batch_trace):
                verdicts, seconds = evaluate_timed(instances, canonical=self.canonical)
            # Fresh node verdicts reach the store inside the batch (the
            # caller already runs evaluation off the event loop).  The
            # verdicts are already computed: a failed or breaker-shed flush
            # only costs persistence, never the answers.
            try:
                self.canonical.flush()
            except StoreUnavailable:
                pass
            except Exception:  # noqa: BLE001 -- persistence is best-effort
                self._flush_failures.inc()
            self._batches.inc()
            for record in batch_trace.spans:
                if record.name == "engine":
                    self._verdicts[record.meta["path"]].inc()
                    self._simulator_runs.inc(record.meta["simulator_runs"])
            self._batch_seconds.observe(time.perf_counter() - start)
            for spent in seconds:
                self._solve_seconds.observe(spent)
        batch_trace.annotate(instances=len(instances))
        if self.trace_log is not None:
            self.trace_log.record(batch_trace)
        return verdicts, seconds

    def engine_stats(self) -> Dict[str, object]:
        """The tier's counters: batches, verdicts per engine path, simulator
        runs and the canonical ball cache.

        Reads registry instruments and the canonical cache's counters only,
        never the batch lock: a ``stats`` request is handled on the daemon's
        event loop, and a batch can hold the lock for a whole cold
        evaluation.
        """
        paths = {path: counter.value for path, counter in self._verdicts.items()}
        return {
            "batches": self.batches,
            "computed": sum(paths.values()),
            "seconds": round(self._batch_seconds.sum, 6),
            "flush_failures": self._flush_failures.value,
            # How each computed verdict's memo misses were filled, and how
            # often its game ran the simulator to do it.
            "paths": paths,
            "simulator_runs": self._simulator_runs.value,
            "canonical": self.canonical.info(),
        }
