"""Request coalescing: in-flight dedup plus a micro-batching window.

Two mechanisms keep a thundering herd of concurrent cache misses from
multiplying compute:

* **In-flight dedup.**  The first miss for a key creates a future; every
  later query for the same key -- arriving any time before the compute
  finishes -- awaits that same future.  N concurrent clients asking the
  same question cost one evaluation.
* **Micro-batching.**  Distinct pending keys are held for a short window
  (a few milliseconds) and then grouped by
  :func:`~repro.sweep.executor.evaluator_sharing_key`; each group is
  dispatched as *one* batch through the sweep executor's evaluation path,
  so concurrent queries on the same ``(machine, graph, ids)`` instance
  share a single :class:`~repro.engine.compiled.CompiledInstance` (and its
  verdict memo) instead of compiling it once per request.

Batches run on a worker thread pool (machines close over plain functions
and are not picklable, so the process-pool path the sweep uses for named
scenarios is not available for arbitrary online queries); the event loop
stays free to admit, answer and reject traffic while a batch computes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.batch import GameInstance
from repro.obs.metrics import MetricsRegistry
from repro.sweep.executor import evaluator_sharing_key

#: Evaluates one compatible batch: instances -> (verdicts, per-instance seconds).
BatchEvaluator = Callable[[Sequence[GameInstance]], Tuple[List[bool], List[float]]]

#: Called on the event loop after a batch computes, with the batch's
#: (key, instance, name) entries and the parallel verdict/seconds lists --
#: the service's hook for recording results into the cache tiers exactly
#: once (dedup waiters never re-record).
ComputedCallback = Callable[
    [List[Tuple[str, GameInstance, str]], List[bool], List[float]], None
]


class CoalescerClosed(Exception):
    """Raised by queries still pending when the coalescer shuts down."""


@dataclass(frozen=True)
class CoalescedResult:
    """The outcome of one coalesced computation, as seen by one waiter."""

    verdict: bool
    seconds: float
    deduped: bool
    batch_size: int


class _Pending:
    __slots__ = ("key", "instance", "name", "future")

    def __init__(
        self, key: str, instance: GameInstance, name: str, future: "asyncio.Future"
    ) -> None:
        self.key = key
        self.instance = instance
        self.name = name
        self.future = future


class RequestCoalescer:
    """Deduplicates and micro-batches compute-tier dispatch (event-loop only).

    All public coroutines/methods must be called from the owning event
    loop; the only thing that leaves the loop is the batch evaluation
    itself, shipped to *executor* (a thread pool owned by the coalescer
    unless one is injected).
    """

    def __init__(
        self,
        evaluate: BatchEvaluator,
        window_seconds: float = 0.002,
        max_batch: int = 32,
        executor: Optional[concurrent.futures.Executor] = None,
        on_computed: Optional[ComputedCallback] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self._evaluate = evaluate
        self.window_seconds = max(0.0, window_seconds)
        self.max_batch = max_batch
        self._executor = executor or concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="verdict-compute"
        )
        self._owns_executor = executor is None
        self._on_computed = on_computed
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending: List[_Pending] = []
        self._timer: Optional[asyncio.TimerHandle] = None
        self._tasks: Set[asyncio.Task] = set()
        self._closed = False
        # Telemetry: registry-backed instruments (a private registry when
        # the owner -- normally the daemon -- does not hand one in).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._submitted = self.registry.counter(
            "repro_coalescer_submitted_total", help="distinct keys submitted"
        )
        self._deduped = self.registry.counter(
            "repro_coalescer_deduped_total", help="queries answered by an in-flight future"
        )
        self._batches = self.registry.counter(
            "repro_coalescer_batches_total", help="compatible batches dispatched"
        )
        self._batched = self.registry.counter(
            "repro_coalescer_batched_total", help="queries dispatched inside batches"
        )
        self._largest_batch = self.registry.gauge(
            "repro_coalescer_largest_batch", help="largest batch dispatched so far"
        )
        self._record_failures = self.registry.counter(
            "repro_coalescer_record_failures_total",
            help="on_computed callbacks that raised (verdicts still answered)",
        )

    # ------------------------------------------------------------------
    async def submit(
        self, key: str, instance: GameInstance, name: str = ""
    ) -> CoalescedResult:
        """The verdict for *key*, computed at most once across waiters."""
        if self._closed:
            raise CoalescerClosed("coalescer is shut down")
        loop = asyncio.get_running_loop()
        existing = self._inflight.get(key)
        if existing is not None:
            self._deduped.inc()
            result: CoalescedResult = await asyncio.shield(existing)
            return replace(result, deduped=True)

        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._pending.append(_Pending(key, instance, name, future))
        self._submitted.inc()
        if len(self._pending) >= self.max_batch:
            self._flush()
        elif self._timer is None:
            if self.window_seconds <= 0.0:
                self._timer = loop.call_soon(self._flush)
            else:
                self._timer = loop.call_later(self.window_seconds, self._flush)
        return await asyncio.shield(future)

    def pending_count(self) -> int:
        """Queries admitted but not yet answered (pending + dispatched)."""
        return len(self._inflight)

    def stats(self) -> Dict[str, object]:
        return {
            "window_seconds": self.window_seconds,
            "max_batch": self.max_batch,
            "submitted": self._submitted.value,
            "deduped": self._deduped.value,
            "batches": self._batches.value,
            "batched": self._batched.value,
            "largest_batch": int(self._largest_batch.value),
            "record_failures": self._record_failures.value,
            "inflight": len(self._inflight),
        }

    async def drain(self) -> None:
        """Finish all admitted work without failing anyone (graceful stop).

        Where :meth:`close` *fails* queries still pending, drain flushes
        the batching window immediately and awaits every in-flight batch:
        the graceful-drain path stops admitting upstream, then calls this
        so already-accepted queries still get real answers.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def close(self) -> None:
        """Fail pending work and release the worker pool (idempotent)."""
        self._closed = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        for entry in pending:
            self._inflight.pop(entry.key, None)
            if not entry.future.done():
                entry.future.set_exception(CoalescerClosed("coalescer is shut down"))
        # Consume the exception for waiters that already gave up, so the
        # loop does not log "exception was never retrieved".
        for entry in pending:
            if entry.future.done() and not entry.future.cancelled():
                entry.future.exception()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._owns_executor:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        groups: Dict[object, List[_Pending]] = {}
        for entry in pending:
            groups.setdefault(evaluator_sharing_key(entry.instance), []).append(entry)
        loop = asyncio.get_running_loop()
        for entries in groups.values():
            self._batches.inc()
            self._batched.inc(len(entries))
            if len(entries) > self._largest_batch.value:
                self._largest_batch.set(len(entries))
            task = loop.create_task(self._run_group(entries))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_group(self, entries: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        instances = [entry.instance for entry in entries]
        try:
            verdicts, seconds = await loop.run_in_executor(
                self._executor, self._evaluate, instances
            )
        except Exception as error:  # noqa: BLE001 -- forwarded to every waiter
            for entry in entries:
                self._inflight.pop(entry.key, None)
                if not entry.future.done():
                    entry.future.set_exception(error)
            return
        if self._on_computed is not None:
            # The verdicts are valid whether or not recording them succeeds
            # (a full disk, a locked store): never let a callback failure
            # hang the waiters or poison their keys in the in-flight map.
            try:
                self._on_computed(
                    [(entry.key, entry.instance, entry.name) for entry in entries],
                    verdicts,
                    seconds,
                )
            except Exception:  # noqa: BLE001 -- counted, waiters still answered
                self._record_failures.inc()
        batch_size = len(entries)
        for entry, verdict, spent in zip(entries, verdicts, seconds):
            self._inflight.pop(entry.key, None)
            if not entry.future.done():
                entry.future.set_result(
                    CoalescedResult(
                        verdict=verdict,
                        seconds=spent,
                        deduped=False,
                        batch_size=batch_size,
                    )
                )
