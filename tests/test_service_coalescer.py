"""Request coalescing: in-flight dedup, one batch in flight, error paths."""

from __future__ import annotations

import asyncio
import threading
import time
from typing import List, Sequence

import pytest

from repro.engine.batch import GameInstance
from repro.graphs import generators
from repro.graphs.identifiers import sequential_identifier_assignment
from repro.service.coalescer import CoalescerClosed, RequestCoalescer


def _instance(n: int = 5, name: str = "") -> GameInstance:
    from repro.hierarchy.arbiters import eulerian_spec

    spec = eulerian_spec()
    graph = generators.cycle_graph(n)
    return GameInstance(
        machine=spec.machine,
        graph=graph,
        ids=sequential_identifier_assignment(graph),
        spaces=list(spec.spaces),
        prefix=spec.prefix(),
        name=name or f"eulerian|cycle{n}",
    )


class _FakeEvaluator:
    """Counts batches; optionally stalls so concurrent submits overlap."""

    def __init__(self, delay: float = 0.0, fail: bool = False) -> None:
        self.delay = delay
        self.fail = fail
        self.calls: List[int] = []
        self._lock = threading.Lock()

    def __call__(self, instances: Sequence[GameInstance]):
        with self._lock:
            self.calls.append(len(instances))
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("compute exploded")
        return [True] * len(instances), [0.001] * len(instances)


class TestDedup:
    def test_concurrent_same_key_computes_once(self):
        evaluator = _FakeEvaluator(delay=0.05)

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            instance = _instance()
            results = await asyncio.gather(
                coalescer.submit("k1", instance),
                coalescer.submit("k1", instance),
                coalescer.submit("k1", instance),
            )
            await coalescer.close()
            return results

        results = asyncio.run(scenario())
        assert evaluator.calls == [1]
        assert [r.verdict for r in results] == [True, True, True]
        assert sorted(r.deduped for r in results) == [False, True, True]

    def test_late_arrival_during_compute_still_dedupes(self):
        evaluator = _FakeEvaluator(delay=0.1)

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            instance = _instance()
            first = asyncio.ensure_future(coalescer.submit("k1", instance))
            # Let the first submit flush and start computing, then arrive late.
            await asyncio.sleep(0.03)
            second = await coalescer.submit("k1", instance)
            stats = coalescer.stats()
            result_first = await first
            await coalescer.close()
            return result_first, second, stats

        first, second, stats = asyncio.run(scenario())
        assert evaluator.calls == [1]
        assert not first.deduped and second.deduped
        assert stats["deduped"] == 1


class _GatedEvaluator(_FakeEvaluator):
    """Holds its first batch on a :class:`threading.Event` until released."""

    def __init__(self, fail_first: bool = False) -> None:
        super().__init__()
        self.release = threading.Event()
        self.fail_first = fail_first

    def __call__(self, instances: Sequence[GameInstance]):
        with self._lock:
            self.calls.append(len(instances))
            first = len(self.calls) == 1
        if first:
            assert self.release.wait(timeout=30), "gate never released"
            if self.fail_first:
                raise RuntimeError("compute exploded")
        return [True] * len(instances), [0.001] * len(instances)


async def _queue_behind_running_batch(coalescer, instances):
    """Start one batch on the gate, then queue *instances* behind it."""
    running = asyncio.ensure_future(coalescer.submit("running", _instance()))
    await asyncio.sleep(0)
    queued = [
        asyncio.ensure_future(coalescer.submit(f"q{index}", instance))
        for index, instance in enumerate(instances)
    ]
    await asyncio.sleep(0.02)
    return running, queued


class TestOneBatchInFlight:
    def test_lone_miss_on_idle_coalescer_dispatches_at_once(self):
        evaluator = _GatedEvaluator()

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            pending = asyncio.ensure_future(coalescer.submit("a", _instance()))
            await asyncio.sleep(0)
            stats = coalescer.stats()
            evaluator.release.set()
            result = await pending
            await coalescer.close()
            return stats, result

        stats, result = asyncio.run(scenario())
        assert stats["batches"] == 1 and stats["batched"] == 1
        assert result.batch_size == 1

    @pytest.mark.parametrize(
        "sizes", [(5, 5, 5), (5, 6, 7)], ids=["one-group", "three-groups"]
    )
    def test_misses_queued_behind_running_batch_leave_together(self, sizes):
        evaluator = _GatedEvaluator()

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            running, queued = await _queue_behind_running_batch(
                coalescer, [_instance(n) for n in sizes]
            )
            # Still one batch in flight: the queued misses wait for it.
            assert coalescer.stats()["batches"] == 1
            evaluator.release.set()
            first = await running
            results = await asyncio.gather(*queued)
            stats = coalescer.stats()
            await coalescer.close()
            return first, results, stats

        first, results, stats = asyncio.run(scenario())
        assert evaluator.calls == [1, 3]
        assert first.batch_size == 1
        assert all(r.batch_size == 3 and r.verdict is True for r in results)
        assert stats["batches"] == 2
        assert stats["largest_batch"] == 3
        assert stats["inflight"] == 0

    def test_failed_batch_does_not_strand_the_queue(self):
        evaluator = _GatedEvaluator(fail_first=True)

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            running, queued = await _queue_behind_running_batch(
                coalescer, [_instance(5), _instance(6)]
            )
            evaluator.release.set()
            with pytest.raises(RuntimeError):
                await running
            results = await asyncio.wait_for(asyncio.gather(*queued), timeout=30)
            await coalescer.close()
            return results

        results = asyncio.run(scenario())
        assert evaluator.calls == [1, 2]
        assert all(r.verdict is True and r.batch_size == 2 for r in results)

    def test_drain_answers_queued_misses(self):
        evaluator = _GatedEvaluator()

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            running, queued = await _queue_behind_running_batch(
                coalescer, [_instance(5), _instance(6)]
            )
            drain = asyncio.ensure_future(coalescer.drain())
            await asyncio.sleep(0.02)
            assert not drain.done()
            evaluator.release.set()
            await asyncio.wait_for(drain, timeout=30)
            # drain returned: every admitted miss already has its answer.
            assert running.done() and all(task.done() for task in queued)
            stats = coalescer.stats()
            await coalescer.close()
            return [running.result()] + [task.result() for task in queued], stats

        results, stats = asyncio.run(scenario())
        assert evaluator.calls == [1, 2]
        assert all(r.verdict is True for r in results)
        assert stats["inflight"] == 0


class TestRecording:
    def test_on_computed_failure_still_answers_waiters(self):
        # A store that cannot record (disk full, locked database) must not
        # hang the waiters or poison the in-flight map.
        evaluator = _FakeEvaluator()

        def broken_recorder(entries, verdicts, seconds):
            raise OSError("disk full")

        async def scenario():
            coalescer = RequestCoalescer(evaluator, on_computed=broken_recorder)
            result = await coalescer.submit("a", _instance())
            stats = coalescer.stats()
            # The key is released: a retry computes again instead of hanging.
            retry = await coalescer.submit("a", _instance())
            await coalescer.close()
            return result, retry, stats

        result, retry, stats = asyncio.run(scenario())
        assert result.verdict is True and retry.verdict is True
        assert stats["record_failures"] == 1
        assert stats["inflight"] == 0

    def test_on_computed_fires_once_per_batch_entry(self):
        evaluator = _FakeEvaluator(delay=0.05)
        recorded = []

        async def scenario():
            coalescer = RequestCoalescer(
                evaluator,
                on_computed=lambda entries, verdicts, seconds: recorded.extend(
                    (key, verdict) for (key, _, _), verdict in zip(entries, verdicts)
                ),
            )
            instance = _instance()
            await asyncio.gather(
                coalescer.submit("a", instance),
                coalescer.submit("a", instance),  # deduped: must not re-record
            )
            await coalescer.close()

        asyncio.run(scenario())
        assert recorded == [("a", True)]


class TestFailureAndShutdown:
    def test_compute_error_propagates_to_every_waiter(self):
        evaluator = _FakeEvaluator(delay=0.02, fail=True)

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            instance = _instance()
            results = await asyncio.gather(
                coalescer.submit("a", instance),
                coalescer.submit("a", instance),
                return_exceptions=True,
            )
            await coalescer.close()
            return results

        results = asyncio.run(scenario())
        assert len(results) == 2
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_key_is_retryable_after_a_failed_compute(self):
        evaluator = _FakeEvaluator(fail=True)

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            instance = _instance()
            with pytest.raises(RuntimeError):
                await coalescer.submit("a", instance)
            evaluator.fail = False
            result = await coalescer.submit("a", instance)
            await coalescer.close()
            return result

        assert asyncio.run(scenario()).verdict is True

    def test_close_fails_pending_and_rejects_new(self):
        evaluator = _GatedEvaluator()

        async def scenario():
            coalescer = RequestCoalescer(evaluator)
            running, (pending,) = await _queue_behind_running_batch(
                coalescer, [_instance(6)]
            )
            closing = asyncio.ensure_future(coalescer.close())
            # The undispatched entry fails at once; close still waits for
            # the running batch.
            with pytest.raises(CoalescerClosed):
                await pending
            assert not closing.done()
            with pytest.raises(CoalescerClosed):
                await coalescer.submit("b", _instance())
            evaluator.release.set()
            await asyncio.wait_for(closing, timeout=30)
            return await running

        result = asyncio.run(scenario())
        assert result.verdict is True and result.batch_size == 1
        assert evaluator.calls == [1]
