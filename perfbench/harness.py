"""Shared pieces of the benchmark: statistics, span tracing, run context,
the daemon process and a lean JSON-lines client.

Nothing here imports ``repro``: the harness must be importable (and its
helpers testable) before the package under test is on ``sys.path``.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values*, linearly interpolated.

    Matches ``numpy.percentile``'s default ("linear") method; an empty
    sequence is an error, a single value is every percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_percentile(values: Sequence[float], q: float = 99.0, group: int = 1000) -> float:
    """A tail percentile that one noisy stretch of a run cannot dominate.

    *values* are in time order.  They are cut into consecutive groups of
    *group* values (enough for ten beyond the 99th percentile); a short
    remainder joins the last group.  The result is the median over groups
    of each group's *q*-th percentile, and the plain percentile when there
    are too few values for two groups.
    """
    count = len(values) // group
    if count < 2:
        return percentile(values, q)
    starts = [index * group for index in range(count)]
    ends = starts[1:] + [len(values)]
    return statistics.median(
        percentile(values[begin:end], q) for begin, end in zip(starts, ends)
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sequence")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
#: Seconds :func:`reference_seconds` takes on the quiet 2-vCPU machine the
#: benchmark was built on.  End-to-end times are reported at this speed.
REFERENCE_SECONDS = 0.037


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python workload (dict, str and sort churn).

    The workload does not touch the program under test, so its time moves
    only with the machine: a host under contention slows it by the same
    factor it slows the interpreter running the benchmark.
    """
    start = time.perf_counter()
    table: Dict[int, str] = {}
    for i in range(60000):
        table[i % 977] = str(i)
        if len(table) > 500:
            table.pop(next(iter(table)))
    sorted(range(20000), key=lambda value: (value * 7919) % 10007)
    return time.perf_counter() - start


def speed_factor(repeats: int = 3) -> float:
    """How fast the machine runs now relative to the build machine.

    Multiplying a time measured now by this factor gives the time at the
    reference speed (the factor is below 1 while the host is slow).
    """
    return REFERENCE_SECONDS / statistics.median(reference_seconds() for _ in range(repeats))


#: Round trips one :meth:`EchoProbe.factor` times, and the seconds they
#: take on the quiet 2-vCPU machine the benchmark was built on.
ECHO_ROUND_TRIPS = 2000
ECHO_REFERENCE_SECONDS = 0.013
ECHO_CODE = (
    "import socket, sys\n"
    "peer = socket.socket(fileno=int(sys.argv[1]))\n"
    "while True:\n"
    "    data = peer.recv(64)\n"
    "    if not data:\n"
    "        break\n"
    "    peer.sendall(data)\n"
)


class EchoProbe:
    """The speed reference of the serving workloads: a second process
    echoing single bytes over a socket pair.

    A served round trip is two processes waking each other, and its speed
    does not follow :func:`reference_seconds` (one process computing).
    An echo round trip is the same shape of work without ``repro``, so it
    slows with the host the way the daemon's round trips do.
    """

    def __init__(self) -> None:
        self._socket, theirs = socket.socketpair()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", ECHO_CODE, str(theirs.fileno())],
                pass_fds=[theirs.fileno()], stdin=subprocess.DEVNULL,
            )
        except BaseException:
            self._socket.close()
            raise
        finally:
            theirs.close()
        self._socket.settimeout(30.0)
        self._socket.sendall(b"x")  # returns once the echo process runs
        self._socket.recv(64)

    def factor(self) -> float:
        """Like :func:`speed_factor`, for round trips between two processes."""
        start = time.perf_counter()
        for _ in range(ECHO_ROUND_TRIPS):
            self._socket.sendall(b"x")
            self._socket.recv(64)
        return ECHO_REFERENCE_SECONDS / (time.perf_counter() - start)

    def close(self) -> None:
        self._socket.close()  # the echo loop ends on end of file
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=15)


# ----------------------------------------------------------------------
# Span tracing with self time
# ----------------------------------------------------------------------
class Tracer:
    """Aggregates nested spans into per-name calls, total and self time.

    A span's self time is its duration minus the time its child spans
    cover, so the self times of all spans add up to exactly the time the
    outermost spans cover -- the numerator of ``layers.coverage``.  Spans
    nest per thread; the replays that use this run on one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: name -> summed count (hits, dirty nodes, ...)
        self.counts: Dict[str, float] = {}
        #: name -> objects a wrapper chose to keep (compiled instances, ...)
        self.kept: Dict[str, list] = {}
        self._stack: List[List[float]] = []

    def enter(self, name: str) -> None:
        # [start, seconds covered by children, name]; the clock is read
        # last here and first in exit(), so the bookkeeping stays outside.
        frame = [0.0, 0.0, name]
        self._stack.append(frame)
        frame[0] = self.clock()

    def exit(self) -> float:
        end = self.clock()
        start, children, name = self._stack.pop()
        duration = end - start
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration
        record[2] += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def keep(self, name: str, obj: object) -> None:
        self.kept.setdefault(name, []).append(obj)

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def mean_us(self, name: str) -> float:
        calls, total, _ = self.spans.get(name, (0, 0.0, 0.0))
        return total / calls * 1e6 if calls else 0.0

    def self_total(self) -> float:
        """Seconds covered by all spans (the sum of every span's self time)."""
        return sum(record[2] for record in self.spans.values())

    def wrap(
        self,
        function: Callable,
        name: Any,
        on_result: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """*function* timed as a span; *name* may be a callable of the args."""
        tracer, enter, leave = self, self.enter, self.exit
        named = callable(name)

        def traced(*args, **kwargs):
            enter(name(args) if named else name)
            try:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, args, result)
                return result
            finally:
                leave()

        traced.__wrapped__ = function
        return traced


def span_costs(samples: int = 20000) -> Tuple[float, float]:
    """What one span costs, in seconds: ``(recorded, wall)``.

    *recorded* is the time a span adds to what it records (the mean
    recorded duration of a traced function that does nothing); *wall* is
    the time the wrapper adds to the caller's wall clock.
    """
    def nothing(*args):
        return None

    tracer = Tracer()
    traced = tracer.wrap(nothing, "nothing")
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        nothing(1)
    plain = clock() - start
    start = clock()
    for _ in range(samples):
        traced(1)
    wrapped = clock() - start
    return tracer.total("nothing") / samples, max(0.0, wrapped - plain) / samples


def install(tracer: Tracer, patches: Sequence[tuple]) -> Callable[[], None]:
    """Replace each ``(owner, attribute, name[, on_result])`` with a traced
    wrapper; returns the function that restores the originals."""
    originals = []
    for patch in patches:
        owner, attribute, name = patch[:3]
        on_result = patch[3] if len(patch) > 3 else None
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        originals.append((owner, attribute, original))
        setattr(owner, attribute, tracer.wrap(original, name, on_result))

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
def git_sha(root: str) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return output or "unknown"


def src_loc(root: str) -> int:
    """Line count of ``src/repro/**/*.py``."""
    total = 0
    pattern = os.path.join(root, "src", "repro", "**", "*.py")
    for path in glob.glob(pattern, recursive=True):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def run_context(root: str) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(root),
        "python_version": platform.python_version(),
        "nproc": os.cpu_count() or 1,
        "src_loc": src_loc(root),
    }


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (``ru_maxrss`` is in KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# The daemon and its clients
# ----------------------------------------------------------------------
def python_env(root: str) -> Dict[str, str]:
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class LineClient:
    """One UNIX-socket connection speaking the daemon's JSON lines.

    Deliberately thinner than ``repro.service.client.ServiceClient``:
    request lines are pre-encoded by the caller, so the closed loop spends
    as little of each round trip as possible in the client.
    """

    def __init__(self, path: str, timeout: float = 60.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(path)
        except OSError:
            self._sock.close()
            raise
        self._reader = self._sock.makefile("rb")

    def call(self, line: bytes) -> Dict[str, Any]:
        self._sock.sendall(line)
        answer = self._reader.readline()
        if not answer:
            raise ConnectionError("daemon closed the connection")
        return json.loads(answer)

    def request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return self.call(encode_line(body))

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def encode_line(body: Dict[str, Any]) -> bytes:
    payload = {"v": 1, **body}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class Daemon:
    """``python -m repro serve`` on a UNIX socket, as its own process."""

    def __init__(
        self,
        root: str,
        workdir: str,
        store: Optional[str] = None,
        lru_size: Optional[int] = None,
    ) -> None:
        self.root = root
        self.workdir = workdir
        # Relative to the checkout root (the daemon's cwd and ours), which
        # keeps the path under the AF_UNIX length limit wherever the
        # checkout lives.
        self.socket_path = os.path.relpath(os.path.join(workdir, "daemon.sock"), root)
        args = [sys.executable, "-m", "repro", "serve", "--socket", self.socket_path,
                "--log-level", "warning", "--drain-seconds", "0"]
        if store is not None:
            args += ["--store", store]
        if lru_size is not None:
            args += ["--lru-size", str(lru_size)]
        self.args = args
        self.process: Optional[subprocess.Popen] = None
        self._log = None

    def start(self, timeout: float = 60.0) -> None:
        self._log = open(os.path.join(self.workdir, "daemon.log"), "ab")
        self.process = subprocess.Popen(
            self.args, cwd=self.root, env=python_env(self.root), stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.perf_counter() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}; see {self._log.name}")
            try:
                client = LineClient(self.socket_path, timeout=timeout)
            except OSError:
                if time.perf_counter() > deadline:
                    raise RuntimeError("daemon did not start listening in time")
                time.sleep(0.005)
                continue
            try:
                if client.request({"op": "ping"}).get("pong"):
                    return
            finally:
                client.close()

    def client(self) -> LineClient:
        return LineClient(self.socket_path)

    def peak_rss_mb(self) -> float:
        assert self.process is not None
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self._log is not None:
            self._log.close()
            self._log = None


def run_clients(bodies: Sequence[Callable[[int], None]]) -> None:
    """Run one closed-loop client body per thread and re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(index: int, body: Callable[[int], None]) -> None:
        try:
            body(index)
        except BaseException as error:  # noqa: BLE001 -- re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(index, body), daemon=True)
        for index, body in enumerate(bodies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("a benchmark client did not finish in time")
    if errors:
        raise errors[0]
