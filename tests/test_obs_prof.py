"""The continuous sampling profiler: aggregation, lifecycle, admin wiring."""

import threading
import time

import pytest

from repro.obs.prof import SamplingProfiler, _frame_label
from repro.service.client import ServiceClient
from repro.service.server import ServerThread
from repro.sweep.store import SQLiteVerdictStore


def _spin_inner(stop):
    while stop.locked():
        sum(range(500))


def _spin_outer(stop):
    _spin_inner(stop)


def _spinner():
    """A worker thread burning CPU in a known two-frame stack.

    It spins until the caller releases the returned lock.  Polling a held
    lock calls no Python function, so the thread only ever yields inside
    ``_spin_inner``'s own loop and every sample sees it as the leaf.
    """
    stop = threading.Lock()
    stop.acquire()
    thread = threading.Thread(target=_spin_outer, args=(stop,), daemon=True)
    thread.start()
    return stop, thread


class TestFoldedAggregation:
    def test_sample_once_folds_worker_stacks_root_first(self):
        profiler = SamplingProfiler(hz=50)
        stop, thread = _spinner()
        try:
            for _ in range(8):
                profiler.sample_once()
        finally:
            stop.release()
            thread.join()
        folded = profiler.folded()
        assert folded, "expected at least one folded stack"
        spinner_lines = [
            line for line in folded.splitlines() if "_spin_inner" in line
        ]
        assert spinner_lines, folded
        stack, count = spinner_lines[0].rsplit(" ", 1)
        assert int(count) >= 1
        frames = stack.split(";")
        # Root-first: the outer caller appears before the inner callee.
        outer = next(i for i, f in enumerate(frames) if "_spin_outer" in f)
        inner = next(i for i, f in enumerate(frames) if "_spin_inner" in f)
        assert outer < inner

    def test_self_vs_cumulative_counts(self):
        profiler = SamplingProfiler(hz=50)
        stop, thread = _spinner()
        try:
            for _ in range(8):
                profiler.sample_once()
        finally:
            stop.release()
            thread.join()
        rows = {row["function"]: row for row in profiler.top(100, sort="cumulative")}
        inner = rows["_spin_inner"]
        outer = rows["_spin_outer"]
        # The inner loop is the executing leaf; the outer frame only
        # accumulates through its callee.
        assert inner["self_samples"] >= 1
        assert outer["self_samples"] == 0
        assert outer["cum_samples"] >= inner["cum_samples"] >= inner["self_samples"]
        # Seconds are samples / hz.
        assert inner["cum_seconds"] == pytest.approx(inner["cum_samples"] / 50.0)

    def test_concurrent_threads_each_contribute_samples(self):
        profiler = SamplingProfiler(hz=50)
        spinners = [_spinner() for _ in range(3)]
        try:
            for _ in range(6):
                profiler.sample_once()
        finally:
            for stop, thread in spinners:
                stop.release()
            for stop, thread in spinners:
                thread.join()
        status = profiler.status()
        assert status["threads"] >= 3
        assert status["samples"] >= 6  # >= one stack per tick, usually 3x

    def test_top_sort_modes_and_bad_sort(self):
        profiler = SamplingProfiler(hz=50)
        stop, thread = _spinner()
        try:
            for _ in range(4):
                profiler.sample_once()
        finally:
            stop.release()
            thread.join()
        by_self = profiler.top(5, sort="self")
        assert by_self == sorted(by_self, key=lambda r: -r["self_samples"])
        with pytest.raises(ValueError):
            profiler.top(5, sort="calls")


class TestBounds:
    def test_max_stacks_bounds_the_fold_but_not_the_tallies(self):
        profiler = SamplingProfiler(hz=50, max_stacks=1)
        stop1, thread1 = _spinner()
        # A second, different stack shape.
        stop2 = threading.Event()

        def other():
            while not stop2.is_set():
                list(map(str, range(50)))

        thread2 = threading.Thread(target=other, daemon=True)
        thread2.start()
        try:
            for _ in range(6):
                profiler.sample_once()
        finally:
            stop1.release()
            stop2.set()
            thread1.join()
            thread2.join()
        status = profiler.status()
        assert status["stacks"] == 1
        assert status["stacks_dropped"] >= 1
        # Per-frame tallies still saw every sample.
        total_self = sum(r["self_samples"] for r in profiler.top(1000, sort="self"))
        assert total_self == status["samples"]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(max_stacks=0)


class TestLifecycle:
    def test_start_samples_in_background_and_stop_keeps_aggregate(self):
        profiler = SamplingProfiler(hz=200)
        stop, thread = _spinner()
        try:
            assert profiler.start() is True
            assert profiler.running
            assert profiler.start() is False  # redundant start is a no-op
            deadline = time.monotonic() + 5.0
            while profiler.status()["samples"] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            stop.release()
            thread.join()
        assert profiler.stop() is True
        assert not profiler.running
        assert profiler.stop() is False  # already stopped
        status = profiler.status()
        assert status["samples"] >= 1
        assert status["duration_seconds"] > 0
        assert profiler.folded()  # aggregate survives the stop

    def test_restart_resets_the_aggregate(self):
        profiler = SamplingProfiler(hz=100)
        stop, thread = _spinner()
        try:
            # One sample folds a stack per other live thread, and threads
            # other tests left running count too.
            taken = sum(profiler.sample_once() for _ in range(5))
            assert profiler.status()["samples"] == taken
            assert profiler.start(hz=100) is True
        finally:
            profiler.stop()
            stop.release()
            thread.join()
        # The five pre-start samples are gone; at most a couple of
        # background ticks landed before stop().
        status = profiler.status()
        assert status["hz"] == 100.0
        assert status["samples"] < taken

    def test_start_rejects_bad_hz(self):
        profiler = SamplingProfiler()
        with pytest.raises(ValueError):
            profiler.start(hz=-1)

    def test_snapshot_carries_status_folded_and_tops(self):
        profiler = SamplingProfiler(hz=50)
        stop, thread = _spinner()
        try:
            profiler.sample_once()
        finally:
            stop.release()
            thread.join()
        snapshot = profiler.snapshot(top=5)
        assert snapshot["samples"] >= 1
        assert isinstance(snapshot["folded"], str)
        assert len(snapshot["top_self"]) <= 5
        assert len(snapshot["top_cumulative"]) <= 5


class TestFrameLabel:
    def test_label_is_file_function_firstline(self):
        import sys

        frame = sys._getframe()
        label = _frame_label(frame)
        file, func, line = label.rsplit(":", 2)
        assert file == "test_obs_prof.py"
        assert func == "test_label_is_file_function_firstline"
        assert int(line) > 0


class TestAdminProfileOps:
    def test_profile_start_snapshot_stop_over_the_wire(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                status = client.profile_start(hz=251)
                assert status["running"] is True
                assert status["hz"] == 251.0
                # Redundant start reports the running session, not an error.
                again = client.profile_start()
                assert again["running"] is True
                # Generate some work for the sampler to see.
                for index in range(3):
                    client.query_scenario("smoke", index=0)
                snapshot = client.profile_snapshot()
                assert "folded" in snapshot and "top_cumulative" in snapshot
                stopped = client.profile_stop()
                assert stopped["running"] is False
                # Stats expose the profiler status alongside the tiers.
                stats = client.stats()
                assert stats["profiler"]["running"] is False
                assert stats["profiler"]["hz"] == 251.0

    def test_profile_start_with_bad_hz_is_a_protocol_error(self):
        from repro.service.client import ServiceError

        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.profile_start(hz=-5)
                assert excinfo.value.code == "bad-request"
