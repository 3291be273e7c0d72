"""End-to-end runs of the three workloads, with tracing off.

``sweep-cold`` drives ``repro.sweep.executor.run_instances`` in this
process; ``serve-hot`` and ``serve-store-rw`` drive ``python -m repro
serve`` as its own process over a UNIX socket with closed-loop clients
(each sends its next request only after the previous answer arrived).
Every answer is checked: reads against the pinned verdict table, mutates
by their applied count, session verdicts by replaying the session's
deltas locally after the timed window.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
from harness import (
    Daemon, EchoProbe, LineClient, percentile, python_env, run_clients, self_peak_rss_mb,
    speed_factor, tail_percentile,
)

#: Closed-loop clients of the serving workloads (never more than nproc).
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: Times each run sets the system up; ``setup_s`` is their median.
SETUPS = {"sweep-cold": 5, "serve-hot": 5, "serve-store-rw": 5}
#: ``--lru-size`` of the store workload's daemon: far below its working
#: set, so a key is always evicted before its client cycles back to it.
STORE_LRU_SIZE = 16


@dataclass
class Checker:
    """Counts operations attempted, failed (error or refused) and wrong."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def mismatch(self, message: str) -> None:
        self.wrong += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(message)

    def merge(self, other: "Checker") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        for message in other.problems:
            self._note(message)


@dataclass
class Outcome:
    """Metric values plus the counts and notes a run reports beside them."""

    metrics: Dict[str, float]
    checker: Checker
    notes: Dict[str, Any] = field(default_factory=dict)


#: A timed sample: seconds as measured, and the machine's speed factor
#: (``harness.speed_factor`` for the sweep, ``harness.EchoProbe`` for the
#: serving workloads) over the interval it was taken in.
Sample = Tuple[float, float]


def timed(samples: Sequence[Sample], scaled: bool) -> List[float]:
    """The seconds of *samples*, at reference speed or as measured."""
    if not samples:
        raise RuntimeError("a metric has no samples")
    return [seconds * factor if scaled else seconds for seconds, factor in samples]


@dataclass
class Samples:
    """Everything an end-to-end run timed, each sample with its speed factor."""

    setups: List[Sample] = field(default_factory=list)
    passes: List[Sample] = field(default_factory=list)
    reads: List[Sample] = field(default_factory=list)
    mutates: List[Sample] = field(default_factory=list)
    #: Measured intervals the operations were answered in.
    windows: List[Sample] = field(default_factory=list)
    operations: int = 0

    def metrics(self, peak_rss_mb: float, scaled: bool) -> Dict[str, float]:
        """The end-to-end metrics, at reference speed or (``scaled=False``)
        as measured."""
        return {
            "setup_s": statistics.median(timed(self.setups, scaled)),
            "peak_rss_mb": peak_rss_mb,
            "sweep_s": statistics.median(timed(self.passes, scaled)),
            "ops_per_s": self.operations / sum(timed(self.windows, scaled)),
            "p50_ms": percentile(timed(self.reads, scaled), 50) * 1000.0,
            "mutate_p50_ms": percentile(timed(self.mutates, scaled), 50) * 1000.0,
        }

    def tails(self, scaled: bool) -> Dict[str, float]:
        """The p99s beside their sample counts.  They are reported, not
        gated: about 1% of round trips meet a pause of the daemon or the
        host, so a run's p99 lands on either side of that gap."""
        return {
            "p99_ms": tail_percentile(timed(self.reads, scaled)) * 1000.0,
            "p99_samples": len(self.reads),
            "mutate_p99_ms": tail_percentile(timed(self.mutates, scaled)) * 1000.0,
            "mutate_p99_samples": len(self.mutates),
        }

    def outcome(self, peak_rss_mb: float, checker: "Checker", notes: Dict[str, Any]) -> "Outcome":
        factors = [factor for _, factor in self.windows]
        notes.update({
            "setups": len(self.setups), "passes": len(self.passes),
            "speed_factor_min": min(factors), "speed_factor_max": max(factors),
            "tails": self.tails(scaled=True),
            "as_measured": {**self.metrics(peak_rss_mb, scaled=False), **self.tails(scaled=False)},
        })
        return Outcome(self.metrics(peak_rss_mb, scaled=True), checker, notes)


# ----------------------------------------------------------------------
# In-process session probe (the sweep workload's mutate latency)
# ----------------------------------------------------------------------
def fresh_session():
    """A cold ``MutableInstance`` of :data:`inputs.SESSION_SPEC`."""
    from repro.engine.dynamic import MutableInstance
    from repro.service.protocol import QueryRequest
    from repro.service.resolver import Resolver

    resolved = Resolver().resolve(QueryRequest(spec=inputs.SESSION_SPEC))
    return MutableInstance.from_game_instance(resolved.instance)


def verify_session(
    session: inputs.Session, answers: Sequence[Tuple[int, bool]], checker: Checker
) -> None:
    """Replay *session*'s deltas locally and compare each answered verdict.

    *answers* holds ``(deltas applied when asked, verdict)`` pairs in the
    order they were answered.
    """
    from repro.engine.dynamic import delta_from_wire, recompute_verdict

    mutable = fresh_session()
    applied = 0
    for count, verdict in answers:
        while applied < count:
            mutable.apply_batch([delta_from_wire(session.deltas[applied], mutable.nodes)])
            applied += 1
        if recompute_verdict(mutable.as_game_instance()) != verdict:
            checker.mismatch(f"session {session.name} after {count} deltas answered {verdict}")


def mutate_probe(seed: int, pass_index: int, steps: int, checker: Checker) -> List[float]:
    """Seconds per ``apply_batch`` on a cold in-process session."""
    from repro.engine.dynamic import delta_from_wire, recompute_verdict

    mutable = fresh_session()
    deltas = inputs.session_trace(seed, 100 + pass_index, steps)
    seconds = []
    for body in deltas:
        delta = delta_from_wire(body, mutable.nodes)
        start = time.perf_counter()
        mutable.apply_batch([delta])
        seconds.append(time.perf_counter() - start)
    checker.attempted += len(deltas)
    if mutable.verdict() != recompute_verdict(mutable.as_game_instance()):
        checker.mismatch(f"in-process session repair disagrees after pass {pass_index}")
    return seconds


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
SWEEP_SETUP_CODE = (
    "from repro.sweep.executor import run_instances\n"
    "from repro.sweep.scenarios import build_instances\n"
    "for name in {names!r}:\n"
    "    build_instances(name)\n"
)


def sweep_setups(root: str, count: int, samples: Samples) -> None:
    """Launch-to-ready times of fresh interpreters: imports plus one build
    of every scenario (which finishes the builders' lazy imports)."""
    code = SWEEP_SETUP_CODE.format(names=inputs.SWEEP_SCENARIOS)
    before = speed_factor()
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=python_env(root),
                       check=True, timeout=120)
        spent = time.perf_counter() - start
        after = speed_factor()
        samples.setups.append((spent, (before + after) / 2))
        before = after


def sweep_pass_instances() -> List[Tuple[str, Any]]:
    """Fresh instances of every sweep scenario, labelled ``scenario#index``."""
    from repro.sweep.scenarios import build_instances

    return [
        (f"{name}#{index}", instance)
        for name in inputs.SWEEP_SCENARIOS
        for index, instance in enumerate(build_instances(name))
    ]


def sweep_pass(seed: int, pass_index: int, expected: Dict[str, bool], checker: Checker):
    """One cold pass: build, shuffle by seed, decide, check.  Returns the
    sweep result and the seconds it took."""
    from repro.sweep.executor import run_instances

    start = time.perf_counter()
    labelled = sweep_pass_instances()
    order = inputs.seeded_sweep_order(len(labelled), seed, pass_index)
    labelled = [labelled[i] for i in order]
    result = run_instances([instance for _, instance in labelled], jobs=0, store=None)
    spent = time.perf_counter() - start
    checker.attempted += len(labelled)
    for (label, _), verdict in zip(labelled, result.verdicts):
        if verdict != expected[label]:
            checker.mismatch(f"{label} answered {verdict}, pinned {expected[label]}")
    return result, spent


def sweep_cold(root: str, seed: int, seconds: float, size: str) -> Outcome:
    checker = Checker()
    samples = Samples()
    sweep_setups(root, SETUPS["sweep-cold"] if size == "full" else 1, samples)
    expected = inputs.load_expected()["sweep"]
    sweep_pass_instances()  # this process's own lazy imports, untimed
    steps = inputs.SIZES[size]["probe_deltas"]
    before = speed_factor()
    deadline = time.perf_counter() + seconds
    while not samples.passes or time.perf_counter() < deadline:
        index = len(samples.passes)
        result, spent = sweep_pass(seed, index, expected, checker)
        probe = mutate_probe(seed, index, steps, checker)
        after = speed_factor()
        factor = (before + after) / 2
        before = after
        samples.passes.append((spent, factor))
        samples.windows.append((spent, factor))
        samples.operations += len(result.results)
        samples.reads += [(item.seconds, factor) for item in result.results]
        samples.mutates += [(value, factor) for value in probe]
    return samples.outcome(self_peak_rss_mb(), checker, {})


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def fill(daemon: Daemon, requests: Sequence[Tuple[bytes, bool]], checker: Checker) -> None:
    """Send every set-up read once, split over the clients, checking verdicts."""
    checkers = [Checker() for _ in range(CLIENTS)]

    def body(index: int) -> None:
        mine = checkers[index]
        client = daemon.client()
        try:
            for line, verdict in requests[index::CLIENTS]:
                answer = client.call(line)
                mine.attempted += 1
                if not answer.get("ok"):
                    mine.fail(f"set-up read failed: {answer.get('error')}")
                elif answer["verdict"] != verdict:
                    mine.mismatch(f"set-up read {answer.get('name')} answered {answer['verdict']}")
        finally:
            client.close()

    run_clients([body] * CLIENTS)
    for mine in checkers:
        checker.merge(mine)


def open_sessions(daemon: Daemon, sessions: Sequence[inputs.Session], checker: Checker) -> None:
    client = daemon.client()
    try:
        for session in sessions:
            answer = client.call(inputs.open_session_line(session))
            checker.attempted += 1
            if not (answer.get("ok") and answer.get("opened")):
                checker.fail(f"opening {session.name} failed: {answer}")
    finally:
        client.close()


def start_daemon(
    root: str, workdir: str, plan: inputs.ServeInputs, store: bool, index: int,
    checker: Checker,
) -> Tuple[Daemon, float]:
    """Launch, warm or fill, open sessions; returns the daemon and the
    seconds from launch to ready for the first measured request."""
    path = os.path.join(workdir, f"setup{index}")
    os.makedirs(path)
    daemon = Daemon(
        root, path,
        store=f"sqlite://{os.path.join(path, 'store.sqlite')}" if store else None,
        lru_size=STORE_LRU_SIZE if store else None,
    )
    start = time.perf_counter()
    try:
        daemon.start()
        fill(daemon, plan.warm, checker)
        open_sessions(daemon, plan.sessions, checker)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


@dataclass
class ClientLog:
    """What one closed-loop client saw."""

    checker: Checker = field(default_factory=Checker)
    reads: List[float] = field(default_factory=list)
    mutates: List[float] = field(default_factory=list)
    answers: List[Tuple[int, bool]] = field(default_factory=list)
    sources: Dict[str, int] = field(default_factory=dict)
    applied: int = 0
    answered: int = 0


def closed_loop(
    client: LineClient, ops: Sequence[inputs.Op], session: inputs.Session,
    deadline: float, log: ClientLog,
) -> None:
    """Cycle through *ops* until *deadline*, timing and checking each answer."""
    checker = log.checker
    while True:
        for op in ops:
            if op.kind != "mutate":
                line = op.line
            elif log.applied < len(session.deltas):
                line = inputs.mutate_line(session, log.applied)
            else:
                continue
            start = time.perf_counter()
            answer = client.call(line)
            spent = time.perf_counter() - start
            checker.attempted += 1
            if not answer.get("ok"):
                checker.fail(f"{op.kind} failed: {answer.get('error')}")
                if op.kind == "mutate":
                    log.applied = len(session.deltas)  # the trace no longer fits
            else:
                log.answered += 1
                if op.kind == "read":
                    log.reads.append(spent)
                    source = answer.get("source", "?")
                    log.sources[source] = log.sources.get(source, 0) + 1
                    if answer["verdict"] != op.expected:
                        checker.mismatch(f"{answer.get('name')} answered {answer['verdict']}")
                elif op.kind == "mutate":
                    log.mutates.append(spent)
                    if answer.get("applied") != 1:
                        checker.fail(f"mutate applied {answer.get('applied')} deltas, sent 1")
                    log.applied += 1
                else:
                    log.answers.append((log.applied, answer["verdict"]))
            if start + spent >= deadline:
                return


#: The measured serving window is cut into this many parts; the machine's
#: speed is probed after each, while the daemon is idle.
PARTS = 10


def measure(
    daemon: Daemon, plan: inputs.ServeInputs, seconds: float, probe: Optional[EchoProbe] = None,
) -> Tuple[List[ClientLog], float, List[float]]:
    """Run the clients' closed loops for *seconds*.  Returns their logs,
    the wall seconds and, with *probe*, the speed factor after each part."""
    logs = [ClientLog() for _ in plan.clients]
    clients = [daemon.client() for _ in plan.clients]
    parts = PARTS if probe is not None else 1
    wall, factors = 0.0, []

    def body(index: int) -> None:
        closed_loop(clients[index], plan.clients[index], plan.sessions[index], deadline, logs[index])

    try:
        for _ in range(parts):
            # The clients allocate nothing cyclic; a collector pass in this process
            # would only add client-side pauses to the daemon's latencies.
            gc.disable()
            try:
                started = time.perf_counter()
                deadline = started + seconds / parts
                run_clients([body] * len(plan.clients))
                wall += time.perf_counter() - started
            finally:
                gc.enable()
            if probe is not None:
                factors.append(probe.factor())
    finally:
        for client in clients:
            client.close()
    return logs, wall, factors


def final_session_answers(daemon: Daemon, plan: inputs.ServeInputs, logs: List[ClientLog]) -> None:
    """One more query per session after the window: its final verdict."""
    client = daemon.client()
    try:
        for session, log in zip(plan.sessions, logs):
            answer = client.request({"op": "query", "session": session.name})
            log.checker.attempted += 1
            if not answer.get("ok"):
                log.checker.fail(f"final query of {session.name} failed: {answer.get('error')}")
            else:
                log.answers.append((log.applied, answer["verdict"]))
    finally:
        client.close()


def serve(
    name: str, root: str, workdir: str, seed: int, seconds: float, size: str,
) -> Outcome:
    store = name == "serve-store-rw"
    plan = inputs.serve_inputs(name, seed, size, CLIENTS, seconds)
    checker = Checker()
    samples = Samples()
    count = SETUPS[name] if size == "full" else 1
    daemon: Optional[Daemon] = None
    probe = EchoProbe()
    try:
        before = probe.factor()
        for index in range(count):
            daemon, spent = start_daemon(root, workdir, plan, store, index, checker)
            if index < count - 1:
                daemon.stop()
            after = probe.factor()
            samples.setups.append((spent, (before + after) / 2))
            before = after
        logs, wall, factors = measure(daemon, plan, seconds, probe)
        peak_rss = daemon.peak_rss_mb()
        final_session_answers(daemon, plan, logs)
    finally:
        if daemon is not None:
            daemon.stop()
        probe.close()
    # One factor for the whole window: the echo's speed flips within
    # seconds, so only its mean over the window follows the daemon's.
    factor = statistics.mean([before] + factors)
    samples.windows.append((wall, factor))
    for log, ops in zip(logs, plan.clients):
        samples.reads += [(value, factor) for value in log.reads]
        samples.mutates += [(value, factor) for value in log.mutates]
        samples.operations += log.answered
        if log.answered:
            # The client's mean time for one cycle through its op list.
            samples.passes.append((wall * len(ops) / log.answered, factor))
    sources: Dict[str, int] = {}
    for session, log in zip(plan.sessions, logs):
        verify_session(session, log.answers, log.checker)
        checker.merge(log.checker)
        for source, hits in log.sources.items():
            sources[source] = sources.get(source, 0) + hits
    notes: Dict[str, Any] = {
        "clients": CLIENTS, "read_sources": sources,
        "session_checks": sum(len(log.answers) for log in logs),
    }
    return samples.outcome(peak_rss, checker, notes)
