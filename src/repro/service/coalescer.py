"""Request coalescing: in-flight dedup plus one batch in flight.

Two mechanisms keep a thundering herd of concurrent cache misses from
multiplying compute:

* **In-flight dedup.**  The first miss for a key creates a future; every
  later query for the same key -- arriving any time before the compute
  finishes -- awaits that same future.  N concurrent clients asking the
  same question cost one evaluation.
* **Batching by compute availability.**  At most one batch computes at a
  time.  A miss that finds the compute thread idle is dispatched at once;
  misses that arrive while a batch computes queue up, and when that batch
  lands -- answered or failed -- everything queued leaves together as the
  next batch.  No timer guesses how long to wait: a batch grows exactly
  as long as the previous one kept the compute thread busy, and the
  daemon's ``max_pending`` admission bound caps it.  The instances of
  one ``(machine, graph, ids)`` in a batch share one
  :class:`~repro.engine.compiled.CompiledInstance` (and its verdict
  memo); that sharing is owned by
  :func:`~repro.sweep.executor.evaluate_timed` and ends with the batch.

Batches run on one worker thread: evaluation is pure Python under the
compute tier's one lock, so more threads would not decide a batch any
sooner.  The event loop stays free to admit, answer and reject traffic
while a batch computes.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.batch import GameInstance
from repro.obs.metrics import MetricsRegistry

#: Evaluates one batch: instances -> (verdicts, per-instance seconds).
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


class _Pending(NamedTuple):
    key: str
    instance: GameInstance
    name: str
    future: "asyncio.Future"


class RequestCoalescer:
    """Deduplicates and batches compute-tier dispatch (event-loop only).

    All public coroutines/methods must be called from the owning event
    loop; the only thing that leaves the loop is the batch evaluation
    itself, shipped to the coalescer's single compute thread.
    """

    def __init__(
        self,
        evaluate: BatchEvaluator,
        on_computed: Optional[ComputedCallback] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._evaluate = evaluate
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="verdict-compute"
        )
        self._on_computed = on_computed
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Misses waiting for the running batch to land.
        self._pending: List[_Pending] = []
        #: The one batch in flight (None while the compute thread is idle).
        self._running: Optional[asyncio.Task] = None
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
            "repro_coalescer_batches_total", help="batches dispatched"
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
        existing = self._inflight.get(key)
        if existing is not None:
            self._deduped.inc()
            result: CoalescedResult = await asyncio.shield(existing)
            return replace(result, deduped=True)

        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._pending.append(_Pending(key, instance, name, future))
        self._submitted.inc()
        if self._running is None:
            self._dispatch()
        return await asyncio.shield(future)

    def stats(self) -> Dict[str, object]:
        return {
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

        Where :meth:`close` *fails* queries still pending, drain awaits
        the running batch and every batch the queue behind it becomes:
        the graceful-drain path stops admitting upstream, then calls this
        so already-accepted queries still get real answers.
        """
        while self._running is not None:
            await asyncio.shield(self._running)

    async def close(self) -> None:
        """Fail undispatched work, finish the running batch (idempotent)."""
        self._closed = True
        pending, self._pending = self._pending, []
        for entry in pending:
            self._inflight.pop(entry.key, None)
            entry.future.set_exception(CoalescerClosed("coalescer is shut down"))
            # Mark it retrieved: a waiter that already gave up never reads
            # it, and the loop would log "exception was never retrieved".
            entry.future.exception()
        if self._running is not None:
            await asyncio.shield(self._running)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Send everything pending to the compute thread as one batch."""
        entries, self._pending = self._pending, []
        self._batches.inc()
        self._batched.inc(len(entries))
        if len(entries) > self._largest_batch.value:
            self._largest_batch.set(len(entries))
        self._running = asyncio.get_running_loop().create_task(self._run(entries))

    async def _run(self, entries: List[_Pending]) -> None:
        """Compute one batch, answer its waiters, then start the next."""
        loop = asyncio.get_running_loop()
        try:
            verdicts, seconds = await loop.run_in_executor(
                self._executor, self._evaluate, [entry.instance for entry in entries]
            )
        except Exception as error:  # noqa: BLE001 -- forwarded to every waiter
            for entry in entries:
                self._inflight.pop(entry.key, None)
                if not entry.future.done():
                    entry.future.set_exception(error)
        else:
            self._answer(entries, verdicts, seconds)
        finally:
            self._running = None
            if self._pending:
                self._dispatch()

    def _answer(
        self, entries: List[_Pending], verdicts: List[bool], seconds: List[float]
    ) -> None:
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
