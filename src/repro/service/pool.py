"""Supervised multi-worker serving: a crash-recovering pool behind one router.

``repro serve --workers N`` turns the single-process daemon into a small
replicated deployment on one machine:

* The **supervisor** (this module) forks N worker processes, each running
  the existing :class:`~repro.service.server.VerdictServer` unchanged on
  its own UNIX socket, all sharing one WAL SQLite verdict store file (an
  in-memory store is refused: each worker would get a private one).
* A **front router** listens on the public address and forwards each
  request line to the worker that owns its *fingerprint routing key* --
  a stable hash of the request's addressing fields (scenario+instance,
  canonical spec, or session name).  Identical queries always land on the
  same worker, so in-flight coalescing keeps collapsing duplicates into
  one compute even though the pool has N processes.
* Dynamic **sessions are sticky**: a session lives in exactly one
  worker's memory (its journal is in the shared store), so session-
  addressed requests are never failed over to a sibling -- while the
  owner restarts they get the retryable ``unavailable`` error and the
  journal replay restores the session before the owner rejoins.

Robustness model (the reason this module exists):

* **Health probes**: the supervisor polls each worker's ``stats`` on an
  interval.  A worker that exits, stops answering, or goes stale is
  declared dead.
* **Crash restart**: dead workers are respawned with exponential backoff
  (capped), and the backoff resets once a worker stays up.
* **Failover**: while a worker is down, its key range is re-routed to
  the next live sibling in ring order (reads only -- any warm replica
  can serve reads because the store is shared).  A forward that fails
  mid-flight is retried on a sibling for idempotent queries; everything
  else gets a typed, *retryable* ``unavailable`` error so the retrying
  client rides out the restart without a visible failure.
* **Rejoin by read-through**: a restarted worker starts with a cold LRU
  and recovers its journaled sessions before it listens; the supervisor
  routes to it once its readiness probe succeeds.  Verdicts its siblings
  computed during the outage are already in the shared store, so the
  worker answers them with ``source: store``, the read any daemon does on
  an LRU miss.
* **Rolling drain**: SIGTERM and SIGINT both drain the pool one worker
  at a time (SIGTERM per worker, bounded wait, then SIGKILL stragglers),
  after the router has stopped accepting connections.
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.prof import SamplingProfiler
from repro.obs.trace import TraceLog
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode_response,
    error_response,
    pong_response,
    stats_response,
)
from repro.service.server import MAX_LINE_BYTES, Address, listen
from repro.sweep.store import SQLiteVerdictStore, open_store

_log = get_logger("repro.pool")


#: Per-probe timeout (ping or stats answer).
PROBE_TIMEOUT_SECONDS = 2.0
#: A worker whose last successful probe is older than this is dead.
STALE_SECONDS = 5.0
#: Cap of the exponential restart backoff.
RESTART_BACKOFF_CAP_SECONDS = 5.0
#: Seconds a restarting worker gets to become ready (session recovery
#: included).
READY_TIMEOUT_SECONDS = 30.0
#: Extra sibling attempts for an idempotent query whose forward failed.
FAILOVER_ATTEMPTS = 2


@dataclass
class PoolConfig:
    """Tuning knobs of the supervisor."""

    workers: int = 2
    #: Seconds between health probes of each worker.
    probe_interval: float = 0.5
    #: First restart backoff; doubles per consecutive crash, capped at
    #: :data:`RESTART_BACKOFF_CAP_SECONDS`.
    restart_backoff: float = 0.25
    #: Per-forward timeout (worker answer).
    forward_timeout: float = 30.0
    #: Per-worker graceful-drain budget during the rolling shutdown.
    drain_seconds: float = 5.0


def routing_key(body: Dict[str, Any]) -> str:
    """The fingerprint routing key of one request body.

    Derived from the request's *addressing* fields only -- the same fields
    the resolver digests into the content-addressed instance key -- so it
    is deterministic per logical query without compiling anything.  All
    requests for one key hash to one worker, which keeps the per-worker
    LRU and the coalescer as effective as in the single-process daemon.
    """
    session = body.get("session")
    if session:
        return f"session:{session}"
    spec = body.get("spec")
    if isinstance(spec, dict):
        return "spec:" + json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return "scenario:{}:{}:{}".format(
        body.get("scenario"), body.get("instance"), body.get("index")
    )


def _slot(key: str, size: int) -> int:
    """A stable hash slot (process-independent, unlike built-in ``hash``)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % size


class WorkerHandle:
    """One supervised worker process and the router's view of it."""

    def __init__(self, worker_id: int, socket_path: str) -> None:
        self.id = worker_id
        self.socket_path = socket_path
        self.process: Optional[subprocess.Popen] = None
        #: "starting" | "serving" | "restarting" | "stopped"
        self.state = "starting"
        self.restarts = 0
        #: Consecutive crashes since the worker last stayed up (backoff).
        self.crash_streak = 0
        #: The worker's last full ``stats`` body (probe-fed).
        self.last_stats: Dict[str, Any] = {}
        self.last_ok_monotonic: Optional[float] = None
        self.serving_since: Optional[float] = None
        #: Pooled idle upstream connections: [(reader, writer), ...].
        self.idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def summary(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "pid": self.pid,
            "state": self.state,
            "restarts": self.restarts,
            "address": self.socket_path,
        }

    def close_idle(self) -> None:
        for _reader, writer in self.idle:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 -- already broken is fine
                pass
        self.idle.clear()


#: Stats keys holding a per-worker setting or high-water mark, which the
#: pool reports as the largest worker value rather than the sum.
_MAX_MERGED = frozenset({"failure_threshold", "reset_seconds", "largest_batch"})


def _merge_values(a: Any, b: Any) -> Any:
    """Merge two stats values: dicts recurse, numbers add, bools OR.

    Keys in :data:`_MAX_MERGED` take the larger of the two values.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        merged = dict(a)
        for key, value in b.items():
            if key not in merged:
                merged[key] = value
            elif key in _MAX_MERGED:
                merged[key] = max(merged[key], value)
            else:
                merged[key] = _merge_values(merged[key], value)
        return merged
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) or bool(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    return a if a is not None else b


def _merge_latency(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-op histogram snapshots across workers.

    Counts, sums and buckets add exactly (all workers share the bucket
    bounds); percentiles cannot be added, so the pool reports the *worst*
    worker's percentile -- a conservative bound that is what an operator
    watching a pool wants anyway.
    """
    merged: Dict[str, Any] = {}
    ops = {op for snap in snapshots for op in snap}
    for op in sorted(ops):
        entries = [snap[op] for snap in snapshots if op in snap]
        mins = [e["min"] for e in entries if e.get("min") is not None]
        maxs = [e["max"] for e in entries if e.get("max") is not None]
        buckets: List[List[Any]] = []
        for entry in entries:
            for index, (bound, cumulative) in enumerate(entry.get("buckets", [])):
                if index < len(buckets):
                    buckets[index][1] += cumulative
                else:
                    buckets.append([bound, cumulative])
        merged[op] = {
            "count": sum(e.get("count", 0) for e in entries),
            "sum": round(sum(e.get("sum", 0.0) for e in entries), 6),
            "min": min(mins) if mins else None,
            "max": max(maxs) if maxs else None,
            "p50": max(e.get("p50", 0.0) for e in entries),
            "p95": max(e.get("p95", 0.0) for e in entries),
            "p99": max(e.get("p99", 0.0) for e in entries),
            "buckets": buckets,
        }
    return merged


class WorkerPool:
    """The supervisor: N worker daemons, one router, one health loop.

    Duck-types enough of :class:`VerdictService` (``stats``, ``healthz``,
    ``registry``, ``store``, ``sessions``, ``traces``, ``profiler``,
    ``resolver``) that the HTTP operations console serves a pool view
    unchanged.
    """

    def __init__(
        self,
        store: str,
        config: Optional[PoolConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        worker_args: Optional[List[str]] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self.config = config or PoolConfig()
        if self.config.workers < 1:
            raise ValueError("a pool needs at least one worker")
        self.store_path = store
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.worker_args = list(worker_args or [])
        self._owns_state_dir = state_dir is None
        self.state_dir = state_dir or tempfile.mkdtemp(prefix="repro-pool-")
        self.address: Optional[Address] = None
        self.draining = False
        self.started_at = time.time()
        self._monotonic_start = time.perf_counter()
        self.workers = [
            WorkerHandle(i, os.path.join(self.state_dir, f"worker-{i}.sock"))
            for i in range(self.config.workers)
        ]
        self._server: Optional[asyncio.AbstractServer] = None
        self._probe_task: Optional[asyncio.Task] = None
        self._restart_tasks: Dict[int, asyncio.Task] = {}
        self._connections: set = set()

        # -- console facade (the ops console binds to this object) -------
        self.registry = MetricsRegistry()
        self.traces = TraceLog(capacity=16)
        self.profiler = SamplingProfiler()
        self.sessions: Dict[str, Any] = {}
        self._resolver = None
        #: A read-only handle on the shared store for the console's browse
        #: pages (opened by :meth:`start`; workers own the write path).
        self.store: Optional[SQLiteVerdictStore] = None
        self._up_gauges = {
            w.id: self.registry.gauge(
                "repro_pool_worker_up",
                labels={"worker": str(w.id)},
                help="1 while the worker is serving",
            )
            for w in self.workers
        }
        self._restart_counters = {
            w.id: self.registry.counter(
                "repro_pool_restarts_total",
                labels={"worker": str(w.id)},
                help="times the supervisor restarted this worker",
            )
            for w in self.workers
        }
        self._forwarded = {
            w.id: self.registry.counter(
                "repro_pool_forwarded_total",
                labels={"worker": str(w.id)},
                help="requests the router forwarded to this worker",
            )
            for w in self.workers
        }
        self._forward_retries = self.registry.counter(
            "repro_pool_forward_retries_total",
            help="forwards retried on a sibling after a worker failure",
        )
        self._unrouted = self.registry.counter(
            "repro_pool_unavailable_total",
            help="requests answered 'unavailable' (no live worker for the key)",
        )
        self.events = self.registry.events(
            "repro_pool", capacity=256, help="supervisor events"
        )

    # -- console facade -------------------------------------------------
    @property
    def resolver(self):
        from repro.service.resolver import Resolver

        if self._resolver is None:
            self._resolver = Resolver()
        return self._resolver

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Address:
        """Open the shared store, launch every worker, then listen.

        Raises :class:`ValueError`, before any worker is spawned, when the
        store is in-memory: each worker would open a private database, and
        a session's journal would die with its worker.
        """
        self.store = open_store(self.store_path)
        if self.store.path == ":memory:":
            raise ValueError(
                "a worker pool needs a store file its workers can share; "
                f"{self.store_path!r} is a private in-memory database"
            )
        await asyncio.gather(*(self._launch(worker) for worker in self.workers))
        self._probe_task = asyncio.ensure_future(self._probe_loop())
        self._server, self.address = await listen(
            self._dispatch, self._connections, self.host, self.port, self.socket_path
        )
        _log.info(
            "pool-started",
            workers=len(self.workers),
            address=self.address,
            store=self.store_path,
        )
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Rolling graceful shutdown: stop accepting, drain worker by worker."""
        self.draining = True
        self.events.append("pool-drain-begin")
        _log.info("pool-drain-begin")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._probe_task is not None:
            self._probe_task.cancel()
            await asyncio.gather(self._probe_task, return_exceptions=True)
            self._probe_task = None
        for task in list(self._restart_tasks.values()):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(
                *self._restart_tasks.values(), return_exceptions=True
            )
            self._restart_tasks.clear()
        for worker in self.workers:
            await self._drain_worker(worker)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.store is not None:
            self.store.close()
            self.store = None
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)
        self.events.append("pool-drain-end")
        _log.info("pool-drain-end")

    async def _drain_worker(self, worker: WorkerHandle) -> None:
        """One step of the rolling drain: SIGTERM, bounded wait, SIGKILL."""
        worker.state = "stopped"
        self._up_gauges[worker.id].set(0)
        worker.close_idle()
        process = worker.process
        if process is None or process.poll() is not None:
            return
        try:
            process.terminate()
        except OSError:
            return
        deadline = time.monotonic() + max(0.1, self.config.drain_seconds)
        while process.poll() is None and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if process.poll() is None:
            _log.warning("pool-worker-kill", worker=worker.id, pid=process.pid)
            process.kill()
            while process.poll() is None:
                await asyncio.sleep(0.05)
        _log.info("pool-worker-stopped", worker=worker.id)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker: WorkerHandle) -> None:
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            worker.socket_path,
            "--store",
            self.store_path,
            *self.worker_args,
        ]
        env = dict(os.environ)
        # The workers must import this very package, wherever it lives.
        src_dir = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        worker.process = subprocess.Popen(cmd, env=env)
        worker.state = "starting"
        _log.info("pool-worker-spawned", worker=worker.id, pid=worker.process.pid)

    async def _launch(self, worker: WorkerHandle) -> None:
        """Spawn one worker and wait until it is ready (= sessions recovered)."""
        if os.path.exists(worker.socket_path):
            os.unlink(worker.socket_path)
        self._spawn(worker)
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        while time.monotonic() < deadline:
            process = worker.process
            if process is not None and process.poll() is not None:
                raise RuntimeError(
                    f"worker {worker.id} exited with {process.returncode} during startup"
                )
            if os.path.exists(worker.socket_path):
                try:
                    await self._probe_worker(worker)
                except Exception:  # noqa: BLE001 -- not ready yet
                    pass
                else:
                    worker.state = "serving"
                    worker.serving_since = time.monotonic()
                    self._up_gauges[worker.id].set(1)
                    self.events.append("pool-worker-ready", worker=worker.id)
                    _log.info("pool-worker-ready", worker=worker.id, pid=worker.pid)
                    return
            await asyncio.sleep(0.05)
        raise RuntimeError(f"worker {worker.id} not ready in {READY_TIMEOUT_SECONDS}s")

    async def _probe_worker(self, worker: WorkerHandle) -> None:
        """One health probe: fetch and keep the worker's stats."""
        request = json.dumps({"v": PROTOCOL_VERSION, "op": "stats", "id": "probe"})
        raw = await asyncio.wait_for(
            self._forward(worker, request.encode("utf-8") + b"\n", count=False),
            timeout=PROBE_TIMEOUT_SECONDS,
        )
        body = json.loads(raw)
        if not body.get("ok"):
            raise RuntimeError(f"stats probe failed: {body!r}")
        worker.last_stats = body.get("stats") or {}
        worker.last_ok_monotonic = time.monotonic()

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval)
            for worker in self.workers:
                if worker.state != "serving":
                    continue
                process = worker.process
                if process is not None and process.poll() is not None:
                    self._declare_dead(worker, f"exited with {process.returncode}")
                    continue
                try:
                    await self._probe_worker(worker)
                except asyncio.CancelledError:
                    raise
                except Exception as error:  # noqa: BLE001 -- probe judged below
                    last_ok = worker.last_ok_monotonic or 0.0
                    stale = time.monotonic() - last_ok
                    if stale >= STALE_SECONDS:
                        self._declare_dead(
                            worker, f"stats stale for {stale:.1f}s ({error!r})"
                        )
                else:
                    # A full probe interval without a crash resets the
                    # exponential backoff for the *next* incident.
                    worker.crash_streak = 0

    def _declare_dead(self, worker: WorkerHandle, reason: str) -> None:
        if worker.state != "serving":
            return
        worker.state = "restarting"
        worker.close_idle()
        self._up_gauges[worker.id].set(0)
        self.events.append("pool-worker-dead", worker=worker.id, reason=reason)
        _log.warning(
            "pool-worker-dead",
            worker=worker.id,
            pid=worker.pid,
            reason=reason,
        )
        if self.draining:
            return
        task = asyncio.ensure_future(self._restart(worker))
        self._restart_tasks[worker.id] = task
        task.add_done_callback(
            lambda _t, wid=worker.id: self._restart_tasks.pop(wid, None)
        )

    async def _restart(self, worker: WorkerHandle) -> None:
        """Exponential-backoff restart until the worker is serving again."""
        while not self.draining:
            backoff = min(
                RESTART_BACKOFF_CAP_SECONDS,
                self.config.restart_backoff * (2 ** worker.crash_streak),
            )
            worker.crash_streak += 1
            await asyncio.sleep(backoff)
            process = worker.process
            if process is not None and process.poll() is None:
                # Probe said dead but the process lingers (hung loop):
                # take it down before respawning on the same socket.
                process.kill()
                process.wait()
            try:
                # The worker's LRU died with it; what its siblings computed
                # meanwhile is in the shared store, read through on a miss.
                await self._launch(worker)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 -- keep trying
                _log.error(
                    "pool-worker-restart-failed", worker=worker.id, error=repr(error)
                )
                continue
            worker.restarts += 1
            self._restart_counters[worker.id].inc()
            self.events.append(
                "pool-worker-restarted", worker=worker.id, restarts=worker.restarts
            )
            return

    # ------------------------------------------------------------------
    # router
    # ------------------------------------------------------------------
    async def _dispatch(self, line: bytes) -> bytes:
        try:
            body = json.loads(line)
            if not isinstance(body, dict):
                raise ValueError("not an object")
        except ValueError:
            return encode_response(
                error_response(None, "bad-json", "request is not a JSON object")
            ).encode("utf-8")
        op = body.get("op")
        request_id = body.get("id")
        if op == "ping":
            return encode_response(pong_response(request_id)).encode("utf-8")
        if op == "stats":
            return encode_response(
                stats_response(request_id, self.stats())
            ).encode("utf-8")
        if op == "admin":
            return await self._broadcast_admin(line, request_id)
        return await self._route(body, line)

    async def _broadcast_admin(self, line: bytes, request_id: Any) -> bytes:
        """Admin ops (faults, profiling) fan out to every live worker."""
        serving = [w for w in self.workers if w.state == "serving"]
        if not serving:
            return encode_response(
                error_response(request_id, "unavailable", "no live workers")
            ).encode("utf-8")
        answers = await asyncio.gather(
            *(self._forward(worker, bytes(line)) for worker in serving),
            return_exceptions=True,
        )
        merged: Optional[Dict[str, Any]] = None
        for answer in answers:
            if isinstance(answer, BaseException):
                continue
            body = json.loads(answer)
            merged = body if merged is None else _merge_values(merged, body)
        if merged is None:
            return encode_response(
                error_response(request_id, "unavailable", "no worker answered")
            ).encode("utf-8")
        merged["id"] = request_id
        merged["v"] = PROTOCOL_VERSION
        return encode_response(merged).encode("utf-8")

    def _candidates(self, key: str, sticky: bool) -> List[WorkerHandle]:
        """Owner first, then live siblings in ring order (unless sticky)."""
        size = len(self.workers)
        slot = _slot(key, size)
        ring = [self.workers[(slot + k) % size] for k in range(size)]
        if sticky:
            owner = ring[0]
            return [owner] if owner.state == "serving" else []
        live = [w for w in ring if w.state == "serving"]
        return live[: 1 + FAILOVER_ATTEMPTS]

    async def _route(self, body: Dict[str, Any], line: bytes) -> bytes:
        key = routing_key(body)
        # Sessions are sticky: their mutable state lives in one worker.
        sticky = bool(body.get("session"))
        candidates = self._candidates(key, sticky)
        for attempt, worker in enumerate(candidates):
            if attempt > 0:
                self._forward_retries.inc()
            try:
                return await asyncio.wait_for(
                    self._forward(worker, bytes(line)),
                    timeout=self.config.forward_timeout,
                )
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 -- try a sibling
                self._note_forward_failure(worker, error)
                if body.get("op") == "mutate":
                    # A mutate may have half-applied; never replay it on a
                    # sibling.  The client's token makes *its* retry safe.
                    break
        self._unrouted.inc()
        return encode_response(
            error_response(
                body.get("id"),
                "unavailable",
                f"no live worker for key {key!r}; retry shortly",
            )
        ).encode("utf-8")

    def _note_forward_failure(self, worker: WorkerHandle, error: Exception) -> None:
        """A failed forward is a health signal; don't wait for the prober."""
        worker.close_idle()
        process = worker.process
        if process is not None and process.poll() is not None:
            self._declare_dead(worker, f"exited with {process.returncode}")
        else:
            _log.warning(
                "pool-forward-failed", worker=worker.id, error=repr(error)
            )

    async def _forward(
        self, worker: WorkerHandle, line: bytes, count: bool = True
    ) -> bytes:
        """Send one request line to *worker*, return its response line."""
        if worker.idle:
            reader, writer = worker.idle.pop()
        else:
            reader, writer = await asyncio.open_unix_connection(
                worker.socket_path, limit=MAX_LINE_BYTES
            )
        try:
            if not line.endswith(b"\n"):
                line += b"\n"
            writer.write(line)
            await writer.drain()
            answer = await reader.readline()
            if not answer:
                raise ConnectionResetError("worker closed the connection")
        except BaseException:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass
            raise
        if len(worker.idle) < 16:
            worker.idle.append((reader, writer))
        else:
            writer.close()
        if count:
            self._forwarded[worker.id].inc()
        return answer.rstrip(b"\n")

    # ------------------------------------------------------------------
    # observability (stats / healthz, consumed by console + repro top)
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregated pool stats: summed worker counters + a ``pool`` block.

        Worker bodies come from the health prober's last poll (at most one
        probe interval old), so this is cheap and safe to call from the
        synchronous console path.
        """
        bodies = [copy.deepcopy(w.last_stats) for w in self.workers if w.last_stats]
        latency = _merge_latency(
            [body.pop("latency", {}) or {} for body in bodies]
        )
        merged: Dict[str, Any] = {}
        for body in bodies:
            for field in (
                "since_monotonic",
                "uptime_seconds",
                "samples",
                "profiler",
                "traces",
            ):
                body.pop(field, None)
            merged = _merge_values(merged, body)
        # Summing is wrong for a shared resource reported N times.
        store_tier = merged.get("tiers", {}).get("store")
        if isinstance(store_tier, dict):
            sizes = [
                w.last_stats.get("tiers", {}).get("store", {}).get("size")
                for w in self.workers
                if w.last_stats
            ]
            sizes = [s for s in sizes if isinstance(s, int)]
            store_tier["size"] = max(sizes) if sizes else None
        now_monotonic = time.perf_counter()
        merged["latency"] = latency
        merged["uptime_seconds"] = round(now_monotonic - self._monotonic_start, 3)
        merged["since_monotonic"] = now_monotonic
        merged["pool"] = {
            "size": len(self.workers),
            "draining": self.draining,
            "live": sum(1 for w in self.workers if w.state == "serving"),
            "restarts": sum(w.restarts for w in self.workers),
            "forward_retries": int(self._forward_retries.value),
            "unavailable": int(self._unrouted.value),
            "forwarded": {
                str(w.id): int(self._forwarded[w.id].value) for w in self.workers
            },
            "workers": [w.summary() for w in self.workers],
        }
        merged["samples"] = self.registry.sample_stats()
        requests = merged.get("requests", {})
        self.registry.record_sample(
            {
                "since_monotonic": now_monotonic,
                "uptime_seconds": merged["uptime_seconds"],
                "queries": requests.get("query", 0),
                "mutates": requests.get("mutate", 0),
                "errors": merged.get("errors", 0),
                "pending": merged.get("pending", 0),
                "workers_live": merged["pool"]["live"],
                "restarts": merged["pool"]["restarts"],
            }
        )
        return merged

    def healthz(self) -> Tuple[bool, Dict[str, Any]]:
        live = sum(1 for w in self.workers if w.state == "serving")
        healthy = not self.draining and live > 0
        return healthy, {
            "healthy": healthy,
            "draining": self.draining,
            "workers": len(self.workers),
            "workers_live": live,
        }
