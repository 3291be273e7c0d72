"""The online verdict daemon: an asyncio JSON-lines server over the tiers.

:class:`VerdictService` is the transport-free core -- parse a request,
admit or reject it, walk the read path (LRU -> store -> coalesced
compute), answer.  :class:`VerdictServer` puts it behind an ``asyncio``
TCP or UNIX-socket listener, one JSON line per request, responses in
request order per connection.  :class:`ServerThread` runs the whole thing
on a background thread for tests, benchmarks and the load generator.

Backpressure is explicit and bounded: at most ``max_pending`` queries may
be past admission at once (queued behind the coalescer's running batch,
computing in it, or reading a tier).  The next query is answered
immediately with an ``overloaded`` error instead of being queued, so
memory stays bounded and clients learn to back off; cheap ``ping`` /
``stats`` requests are always admitted.  ``peak_pending`` in the stats
response lets tests assert the bound was honored under load.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from repro.engine.dynamic import DeltaError, MutableInstance, delta_from_wire
from repro.obs.log import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_SECONDS, MetricsRegistry
from repro.obs.prof import SamplingProfiler
from repro.obs.trace import RequestTrace, TraceLog, active
from repro.service.cache import ComputeTier, TieredVerdictCache
from repro.service.coalescer import RequestCoalescer
from repro.service.protocol import (
    AdminRequest,
    MutateRequest,
    PingRequest,
    ProtocolError,
    QueryRequest,
    StatsRequest,
    admin_response,
    encode_response,
    error_response,
    mutate_response,
    parse_request,
    pong_response,
    query_response,
    stats_response,
)
from repro.service.resilience import (
    CircuitBreaker,
    FaultInjector,
    FaultingStore,
    StoreUnavailable,
)
from repro.service.resolver import Resolver
from repro.sweep.store import VerdictStore, WouldBlock, open_store

#: A served endpoint: ("tcp", host, port) or ("unix", path).
Address = Tuple[Any, ...]

#: Longest accepted request line (64 KiB, the StreamReader default).
MAX_LINE_BYTES = 64 * 1024

#: The wire fields of a session's opening address.
_ADDRESS_FIELDS = ("scenario", "instance", "index", "spec")

#: Structured event log of the serving layer (JSON lines on stderr by
#: default; ``repro serve --log-level`` / REPRO_LOG_LEVEL tune it).
_log = get_logger("repro.service")


class _DynamicSession:
    """One named mutable game living in the daemon.

    Every access (mutate *and* query) holds ``lock``, so concurrent
    clients of the same session are serialized: a query observes either
    all or none of any delta batch, never a half-applied one.  A small
    mutate tries the lock on the event loop and waits for it only on a
    worker thread; larger mutates and session queries always run on a
    worker thread (see :meth:`VerdictService._mutate`).  A session's
    node verdicts live only in its private compiled instance's memo, where
    each repair drops exactly the dirty ones; its whole-game verdicts are
    kept under the current state's store key, in the LRU and the store.
    """

    #: Most idempotency tokens remembered per session (oldest evicted).
    MAX_TOKENS = 512

    def __init__(self, name: str, mutable: MutableInstance, opening: Dict[str, Any]) -> None:
        self.name = name
        #: A plain Lock, not an RLock: when a journal append hops, the
        #: worker thread that finishes it releases the lock the loop took.
        self.lock = threading.Lock()
        self.mutable = mutable
        self.created_at = time.time()
        self.mutate_batches = 0
        self.deltas_applied = 0
        self.queries = 0
        #: The wire-form address the opening mutate carried -- journaled as
        #: sequence 0 so recovery can reopen the same game.
        self.opening = opening
        self.recovered = False
        self.journaled_open = False
        #: Once an append fails the journal is a divergent prefix: stop
        #: writing to it rather than let recovery silently skip a batch.
        self.journal_broken = False
        self.journal_seq = 1
        #: token -> (applied, dirty) for mutate retries after a lost reply.
        self.token_results: "OrderedDict[str, Tuple[int, int]]" = OrderedDict()

    def apply(self, deltas, token: Optional[str]) -> Tuple[int, int]:
        """Apply one wire-form delta batch; returns ``(applied, dirty)``.

        All or nothing: a :class:`DeltaError` leaves the game untouched.
        The batch is counted, and its outcome remembered under *token* so
        a retried mutate is answered instead of applied twice.  Callers
        hold ``lock`` once the session is shared.
        """
        mutable = self.mutable
        reports = mutable.apply_batch(
            [delta_from_wire(body, mutable.nodes) for body in deltas]
        )
        applied = len(reports)
        dirty = sum(len(report.dirty) for report in reports)
        self.mutate_batches += 1
        self.deltas_applied += applied
        if token is not None:
            self.token_results[token] = (applied, dirty)
            self.token_results.move_to_end(token)
            while len(self.token_results) > self.MAX_TOKENS:
                self.token_results.popitem(last=False)
        return applied, dirty

    def info(self) -> Dict[str, Any]:
        return {
            "mutate_batches": self.mutate_batches,
            "deltas_applied": self.deltas_applied,
            "queries": self.queries,
            "recovered": self.recovered,
            **self.mutable.info(),
        }


@dataclass
class _Mutation:
    """One mutate's progress, so a worker thread can finish what the loop
    began (see :meth:`VerdictService._mutate_session`)."""

    request: MutateRequest
    started: float = field(default_factory=time.perf_counter)
    #: ``None`` until the batch applied (or was answered from its token).
    applied: Optional[int] = None
    dirty: int = 0
    deduped: bool = False
    #: ``None`` until the journal step ran.
    journaled: Optional[bool] = None


@dataclass
class ServiceConfig:
    """Tuning knobs of one daemon.

    Compute batching has no knob: the coalescer keeps one batch in flight
    and the misses queued behind it leave together as the next, so
    ``max_pending`` is the only bound on a batch's size.
    """

    lru_size: int = 4096
    max_pending: int = 64
    max_sessions: int = 32
    #: Consecutive store failures before the store tier's breaker opens.
    breaker_threshold: int = 5
    #: Seconds an open breaker waits before letting one probe through.
    breaker_reset_seconds: float = 5.0
    #: Server-side deadline applied when a request carries none (None = off).
    default_deadline_seconds: Optional[float] = None
    #: Start the continuous sampling profiler at this rate (None = attached
    #: but idle; start it later via the ``profile-start`` admin action).
    profile_hz: Optional[float] = None


class VerdictService:
    """The transport-free service core (owns resolver, tiers, coalescer)."""

    def __init__(
        self,
        store: Union[VerdictStore, str, None] = None,
        config: Optional[ServiceConfig] = None,
        resolver: Optional[Resolver] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        #: The daemon's private metrics registry (every tier's instruments
        #: live here; ``/metrics`` and ``stats`` both read it).
        self.registry = MetricsRegistry()
        #: Named failpoints (chaos testing): inert until configured via
        #: ``--faults`` or the ``admin`` op.
        self.faults = faults if faults is not None else FaultInjector(
            registry=self.registry
        )
        #: The store tier's circuit breaker.  Every store call goes through
        #: the :class:`FaultingStore` wrapper, which reports each outcome to
        #: it and, while it is open, sheds the call: reads degrade to LRU ->
        #: compute and writes are skipped.  Injected faults exercise the
        #: same paths real store trouble does.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_seconds=self.config.breaker_reset_seconds,
            on_transition=self._breaker_transition,
        )
        self._breaker_gauge = self.registry.gauge(
            "repro_breaker_state",
            help="store breaker state (0=closed, 1=half-open, 2=open)",
        )
        self._owns_store = isinstance(store, str) or store is None
        raw_store: Optional[VerdictStore] = (
            open_store(store) if isinstance(store, str) else store
        )
        self.store: Optional[FaultingStore] = (
            FaultingStore(raw_store, self.faults, self.breaker, self.registry)
            if raw_store is not None
            else None
        )
        #: Recent per-request traces (plus the compute tier's batch traces).
        self.traces = TraceLog(capacity=256)
        #: The continuous sampling profiler (``/profile``, admin actions).
        #: Always attached; only sampling when started.
        self.profiler = SamplingProfiler(hz=self.config.profile_hz or 97.0)
        if self.config.profile_hz is not None:
            self.profiler.start()
        #: Append-only (ring-buffered) record of notable service events.
        self.events = self.registry.events(
            "repro_service", capacity=512, help="notable daemon events"
        )
        self.resolver = resolver or Resolver()
        self.cache = TieredVerdictCache(
            self.store, lru_size=self.config.lru_size, registry=self.registry
        )
        self.compute = ComputeTier(
            registry=self.registry,
            trace_log=self.traces,
            faults=self.faults,
        )
        #: Scenarios whose bulk promotion from the store began (a failed
        #: one is unmarked): their reads take the single-key path.
        self._promoted_scenarios: set = set()
        self.coalescer = RequestCoalescer(
            self.compute.evaluate,
            on_computed=self._record_computed,
            registry=self.registry,
        )
        self.started_at = time.time()
        self._monotonic_start = time.perf_counter()
        #: Dynamic sessions by name, each serialized by its own lock (see
        #: :class:`_DynamicSession`).
        self.sessions: Dict[str, _DynamicSession] = {}
        self.sessions_opened = 0
        self._request_counters = {
            op: self.registry.counter(
                "repro_requests_total", labels={"op": op}, help="requests by op"
            )
            for op in ("query", "mutate", "stats", "ping", "admin")
        }
        self._latency = {
            op: self.registry.histogram(
                "repro_request_seconds",
                buckets=LATENCY_BUCKETS_SECONDS,
                labels={"op": op},
                help="request handling latency by op",
            )
            for op in ("query", "mutate")
        }
        self._errors = self.registry.counter(
            "repro_errors_total", help="requests answered with an error response"
        )
        self._overloaded = self.registry.counter(
            "repro_overloaded_total", help="requests rejected by admission control"
        )
        self._store_put_failures = self.registry.counter(
            "repro_store_put_failures_total",
            help="asynchronous store writes that failed (verdicts still answered)",
        )
        #: Per-error-code breakdown of the total above (stats + ``top``).
        self._put_failures_by_error: Dict[str, int] = {}
        self._degraded = self.registry.counter(
            "repro_degraded_total",
            help="responses answered without the store tier (breaker open or store error)",
        )
        self._deadline_exceeded = self.registry.counter(
            "repro_deadline_exceeded_total",
            help="requests abandoned at their server-side deadline",
        )
        self._store_writes_skipped = self.registry.counter(
            "repro_store_writes_skipped_total",
            help="store writes shed while the breaker was open",
        )
        self._journal_appends = self.registry.counter(
            "repro_journal_appends_total",
            help="session journal entries written",
        )
        self._journal_skipped = self.registry.counter(
            "repro_journal_skipped_total",
            help="session journal appends shed (breaker open or journal broken)",
        )
        self._pending_gauge = self.registry.gauge(
            "repro_pending", help="requests currently past admission"
        )
        self.pending = 0
        self.peak_pending = 0
        #: True once a graceful drain began: new queries/mutates are
        #: answered with a typed ``draining`` error, in-flight ones finish.
        self.draining = False
        self.sessions_recovered = 0
        #: Work handed to worker threads that must finish before the store
        #: closes: store writes, and mutates whose waiter may be gone.
        self._worker_futures: set = set()
        self._closed = False

    @property
    def overloaded_count(self) -> int:
        return self._overloaded.value

    # ------------------------------------------------------------------
    def _breaker_transition(self, old: str, new: str) -> None:
        """Surface every breaker state change: gauge, counter, event."""
        self._breaker_gauge.set(
            {"closed": 0, "half-open": 1, "open": 2}.get(new, -1)
        )
        self.registry.counter(
            "repro_breaker_transitions_total",
            labels={"to": new},
            help="store breaker transitions by target state",
        ).inc()
        self.events.append("breaker", old=old, new=new)
        _log.warning("breaker-transition", old=old, new=new)

    def _count_store_put_failure(self, error: BaseException) -> None:
        """One failed store write: total and per-error-code counters, event."""
        self._store_put_failures.inc()
        code = type(error).__name__
        self.registry.counter(
            "repro_store_put_failures_by_error_total",
            labels={"error": code},
            help="failed store writes by error type",
        ).inc()
        self._put_failures_by_error[code] = self._put_failures_by_error.get(code, 0) + 1
        self.events.append("store-put-failure", error=repr(error))
        _log.error("store-put-failure", error=repr(error), code=code)

    def _write(self, write: Callable[[], Any], skipped=None, count: int = 1) -> bool:
        """Run one store write; ``False`` when the breaker shed it or it failed.

        A shed write counts *count* in the *skipped* counter (if any), a
        failed one as a put failure.  Persistence is best-effort: the
        caller's verdicts stand either way.  A non-blocking write that
        would wait raises :class:`WouldBlock` for its caller to retry
        blocking.
        """
        try:
            write()
            return True
        except WouldBlock:
            raise
        except StoreUnavailable:
            if skipped is not None:
                skipped.inc(count)
        except Exception as error:  # noqa: BLE001 -- persistence is best-effort
            self._count_store_put_failure(error)
        return False

    def _off_loop(self, function: Callable[..., Any], *args: Any) -> "asyncio.Future[Any]":
        """``function(*args)`` on a worker thread; :meth:`close` waits for it."""
        future = asyncio.get_running_loop().run_in_executor(None, function, *args)
        self._worker_futures.add(future)
        future.add_done_callback(self._worker_futures.discard)
        return future

    def _record_computed(self, entries, verdicts, seconds) -> None:
        """Record a computed batch: LRU now, the store off the event loop."""
        records = []
        for (key, _instance, name), verdict, spent in zip(entries, verdicts, seconds):
            self.cache.insert(key, verdict, name=name, seconds=spent, persist=False)
            records.append((key, bool(verdict), name, spent))
        if self.store is not None and records:
            # A whole batch's put_many is left to a worker thread: it is
            # larger than a hop, and it may wait out another writer's lock.
            write = partial(self.store.put_many, records)
            self._off_loop(self._write, write, self._store_writes_skipped, len(records))

    # ------------------------------------------------------------------
    async def handle_line(self, line: str) -> str:
        """One request line in, one response line out (never raises)."""
        try:
            request = parse_request(line)
        except ProtocolError as error:
            self._errors.inc()
            return encode_response(
                error_response(error.request_id, error.code, str(error))
            )
        response = await self.handle_request(request)
        return encode_response(response)

    async def handle_request(self, request) -> Dict[str, Any]:
        if isinstance(request, PingRequest):
            self._request_counters["ping"].inc()
            return pong_response(request.id)
        if isinstance(request, StatsRequest):
            # Snapshot first, count after: a stats poll must not count
            # itself, or every qps derived from two polls is off by one
            # (the ``repro top`` client polls once per refresh).
            response = stats_response(request.id, self.stats())
            self._request_counters["stats"].inc()
            return response
        if isinstance(request, AdminRequest):
            return self._handle_admin(request)
        if isinstance(request, MutateRequest):
            return await self._admit(
                "mutate", request, None, lambda: self._mutate(request)
            )
        assert isinstance(request, QueryRequest)
        trace = RequestTrace(op="query", request_id=request.id)
        return await self._admit(
            "query", request, trace, lambda: self._query(request, trace)
        )

    def _handle_admin(self, request: AdminRequest) -> Dict[str, Any]:
        """Inspect or reconfigure faults / the profiler on a live daemon."""
        self._request_counters["admin"].inc()
        if request.action == "set-faults":
            try:
                self.faults.configure_spec(request.spec or "")
            except ValueError as error:
                self._errors.inc()
                return error_response(request.id, "bad-request", str(error))
            self.events.append("faults-set", spec=request.spec)
            _log.info("faults-set", spec=request.spec)
        elif request.action == "clear-faults":
            self.faults.clear()
            self.events.append("faults-cleared")
            _log.info("faults-cleared")
        elif request.action in ("profile-start", "profile-stop", "profile-snapshot"):
            return self._handle_admin_profile(request)
        return admin_response(request.id, self.faults.snapshot())

    def _handle_admin_profile(self, request: AdminRequest) -> Dict[str, Any]:
        if request.action == "profile-start":
            hz: Optional[float] = None
            if request.spec:
                try:
                    hz = float(request.spec)
                except ValueError:
                    self._errors.inc()
                    return error_response(
                        request.id,
                        "bad-request",
                        f"profile-start spec must be a sampling rate in hz, "
                        f"got {request.spec!r}",
                    )
            try:
                started = self.profiler.start(hz=hz)
            except ValueError as error:
                self._errors.inc()
                return error_response(request.id, "bad-request", str(error))
            event = "profile-started" if started else "profile-already-running"
            self.events.append(event, hz=self.profiler.hz)
            _log.info(event, hz=self.profiler.hz)
            profile: Dict[str, Any] = self.profiler.status()
        elif request.action == "profile-stop":
            stopped = self.profiler.stop()
            event = "profile-stopped" if stopped else "profile-not-running"
            self.events.append(event, samples=self.profiler.status()["samples"])
            _log.info(event)
            profile = self.profiler.status()
        else:  # profile-snapshot
            profile = self.profiler.snapshot()
        return admin_response(request.id, self.faults.snapshot(), profile=profile)

    async def _admit(
        self,
        op: str,
        request: Union[QueryRequest, MutateRequest],
        trace: Optional[RequestTrace],
        body: Callable[[], Awaitable[Dict[str, Any]]],
    ) -> Dict[str, Any]:
        """Admission, deadline and typed errors around one query or mutate.

        Refused while draining or at ``max_pending``; otherwise *body* runs
        counted as pending, under the request's deadline (the
        ``slow-response`` failpoint sleeps inside it, before *body* is
        called), and every failure is answered with a typed error.
        """
        self._request_counters[op].inc()
        started = time.perf_counter()
        if self.draining:
            self._errors.inc()
            return error_response(
                request.id, "draining", "daemon is draining; no new work accepted"
            )
        if self.pending >= self.config.max_pending:
            self._overloaded.inc()
            return error_response(
                request.id,
                "overloaded",
                f"{self.pending} requests already pending "
                f"(max_pending={self.config.max_pending}); retry later",
            )
        self.pending += 1
        self.peak_pending = max(self.peak_pending, self.pending)
        self._pending_gauge.set(self.pending)
        deadline = (
            request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else self.config.default_deadline_seconds
        )

        async def admitted() -> Dict[str, Any]:
            delay = self.faults.delay("slow-response")
            if delay > 0.0:
                await asyncio.sleep(delay)
            return await body()

        try:
            try:
                with active(trace):
                    if deadline is None:
                        return await admitted()
                    return await asyncio.wait_for(admitted(), timeout=deadline)
            except asyncio.TimeoutError:
                self._deadline_exceeded.inc()
                message = f"{op} abandoned at its {deadline:.3f}s deadline"
                if op == "mutate":
                    message += "; retry with the same token to learn its outcome"
                response = error_response(request.id, "deadline-exceeded", message)
            except ProtocolError as error:
                response = error_response(
                    error.request_id if error.request_id is not None else request.id,
                    error.code,
                    str(error),
                )
            except Exception as error:  # noqa: BLE001 -- the daemon must not die
                _log.error(f"{op}-internal-error", id=request.id, error=repr(error))
                response = error_response(request.id, "internal", repr(error))
            code = response["error"]["code"]
            self._errors.inc()
            self.events.append(f"{op}-error", code=code, id=request.id)
            _log.debug(f"{op}-error", code=code, id=request.id)
            if trace is not None:
                trace.annotate(error=code)
            return response
        finally:
            self.pending -= 1
            self._pending_gauge.set(self.pending)
            self._latency[op].observe(time.perf_counter() - started)
            if trace is not None:
                self.traces.record(trace)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    async def _query(self, request: QueryRequest, trace: RequestTrace) -> Dict[str, Any]:
        """The body of one query: a dynamic session's state or a static game."""
        loop = asyncio.get_running_loop()
        degraded = False
        if request.session is not None:
            session = self.sessions.get(request.session)
            if session is None:
                raise ProtocolError(
                    "unknown-session",
                    f"unknown session {request.session!r}; open it with a mutate "
                    "carrying 'scenario' or 'spec' addressing",
                    request.id,
                )
            trace.annotate(session=request.session)
            # A session query repairs on a miss: it runs on a worker thread.
            # contextvars do not cross run_in_executor: hand the trace object
            # to the worker explicitly so its spans land on this request.
            verdict, source, key, name, seconds, degraded = await loop.run_in_executor(
                None, self._query_session, session, trace
            )
        else:
            with trace.span("resolve"):
                resolved = self.resolver.resolve(request)
            key, name = resolved.key, resolved.name
            trace.name = name
            start = time.perf_counter()
            with trace.span("lru"):
                hit = self.cache.lookup_lru(key)
            if hit is None and self.store is not None:
                # Tier 2 is read on the loop unless the store would wait.
                # A scenario's first read (its bulk promotion) and a read
                # that would wait run on a worker thread; the span then
                # includes the executor's queueing.  A scenario is marked
                # before its bulk read, so concurrent queries of it read
                # one key each; _read_store unmarks it if that read fails.
                scenario = request.scenario
                if scenario in self._promoted_scenarios:
                    scenario = None
                elif scenario is not None:
                    self._promoted_scenarios.add(scenario)
                with trace.span("store"):
                    if scenario is not None:
                        hit, degraded = await loop.run_in_executor(
                            None, self._read_store, key, scenario
                        )
                    else:
                        try:
                            hit, degraded = self._read_store(key, wait=False)
                        except WouldBlock:
                            hit, degraded = await loop.run_in_executor(
                                None, self._read_store, key
                            )
            if hit is not None:
                verdict, source = hit
                seconds = time.perf_counter() - start
            else:
                with trace.span("coalesce"):
                    result = await self.coalescer.submit(key, resolved.instance, name)
                # The engine time inside the (shared) batch, attributed to this
                # request; the batch's own compile/engine spans live in the
                # compute tier's ``compute-batch`` trace.
                trace.add_span(
                    "engine",
                    result.seconds,
                    deduped=result.deduped,
                    batch=result.batch_size,
                )
                verdict, seconds = result.verdict, result.seconds
                source = "coalesced" if result.deduped else "compute"
        if degraded:
            self._degraded.inc()
            trace.annotate(degraded=True)
        trace.annotate(source=source, key=key)
        return query_response(
            request.id,
            verdict,
            source=source,
            key=key,
            name=name,
            seconds=seconds,
            trace=trace.breakdown(),
            degraded=degraded,
        )

    #: Scenarios larger than this are not bulk-promoted (the first query
    #: would pay fingerprinting for every sibling instance).
    SCENARIO_PROMOTE_LIMIT = 512

    def _read_store(
        self, key: str, scenario: Optional[str] = None, wait: bool = True
    ) -> Tuple[Optional[Tuple[bool, str]], bool]:
        """Tier 2 for *key*: ``(hit or None, degraded)``.

        Without *wait* (on the event loop) the read raises
        :class:`WouldBlock` where the store would wait, and the caller
        retries on a worker thread.  With *scenario* (its first store
        lookup, on a worker thread), one ``get_many`` round-trip pulls
        every stored sibling verdict into the LRU, so a warm-store client
        sweeping a scenario pays tier-2 latency once instead of once per
        instance.  A read the breaker shed, or one that failed, degrades
        the answer instead of failing it: LRU -> compute still yields a
        correct verdict.  Such a bulk read also unmarks its scenario, so
        the scenario's next query tries the promotion again.
        """
        try:
            if scenario is None:
                lookup = self.cache.lookup_store if wait else self.cache.lookup_store_nowait
                return lookup(key), False
            keys = self.resolver.scenario_keys(scenario)
            if len(keys) > self.SCENARIO_PROMOTE_LIMIT:
                return self.cache.lookup_store(key), False
            found = self.cache.lookup_store_many(keys)
            if key in found:
                self.cache.note_store_hit()
                return (found[key], "store"), False
            self.cache.note_store_miss()
            return None, False
        except WouldBlock:
            raise
        except StoreUnavailable:
            self.cache.note_store_skipped()
        except Exception as error:  # noqa: BLE001 -- degrade, not die
            self.cache.note_store_error("get", error)
            self.events.append("store-get-failure", error=repr(error))
        if scenario is not None:
            self._promoted_scenarios.discard(scenario)
        return None, True

    def _query_session(
        self, session: _DynamicSession, trace: RequestTrace
    ) -> Tuple[bool, str, str, str, float, bool]:
        """Worker-thread body of a session query: tiers first, then repair.

        Returns ``(verdict, source, key, name, seconds, degraded)``.  The
        session key is content-addressed over the *current* graph state,
        so the LRU/store tiers can never serve a pre-mutation verdict -- a
        mutated game has a fresh key, and a reverted game legitimately
        re-hits its old entry.
        """
        start = time.perf_counter()
        with session.lock:
            session.queries += 1
            mutable = session.mutable
            trace.name = mutable.name
            with trace.span("key"):
                key = mutable.key()
            with trace.span("lru"):
                hit = self.cache.lookup_lru(key)
            degraded = False
            if hit is None and self.store is not None:
                with trace.span("store"):
                    hit, degraded = self._read_store(key)
            if hit is not None:
                verdict, source = hit
                mutable.note_verdict(verdict)
                return verdict, source, key, mutable.name, time.perf_counter() - start, False
            with trace.span("repair"):
                verdict = mutable.verdict()
            seconds = time.perf_counter() - start
            stored = self._write(
                partial(self.cache.insert, key, verdict, name=mutable.name, seconds=seconds),
                self._store_writes_skipped,
            )
            return verdict, "dynamic", key, mutable.name, seconds, degraded or not stored

    # ------------------------------------------------------------------
    # Dynamic sessions
    # ------------------------------------------------------------------
    #: Largest graph, in nodes plus edges, on which the event loop applies
    #: a mutate itself, and then only a batch of at most one delta.  The
    #: repair grows with the delta's dirty set, plus a few C-speed copies
    #: that grow with the graph: on a 2-vCPU x86 box one delta takes
    #: 0.02-0.05 ms in-process on a 12-, 32- or 64-node cycle and 0.2 ms
    #: on K64, and 256 deltas on a 64-node cycle take ~10 ms (~25 ms in
    #: the daemon).  At this size a loop-side mutate spends 0.3-0.4 ms in
    #: the daemon at p50, most of it outside the repair; hopping to a worker
    #: thread made its p50 round trip 1.7-3x (0.14-0.33 ms) longer.
    LOOP_MUTATE_SIZE = 64

    async def _mutate(self, request: MutateRequest) -> Dict[str, Any]:
        """The body of one mutate: find or open the session, then apply and
        journal the batch on the loop unless it is large or would wait.

        A batch of more than one delta, or one on a session graph larger
        than :attr:`LOOP_MUTATE_SIZE`, runs whole on a worker thread: its
        apply would stall every client of the loop.  For a small batch the
        loop only tries the session lock.  While another mutate or a
        session query holds it, the whole mutate runs on a worker thread,
        which waits for the lock.  When the journal append would wait, only
        the append moves to a worker thread, and the session stays locked
        until it returns -- even if the request's deadline abandons this
        coroutine -- so the session's next mutate cannot overtake it.
        """
        session, opened = self._session_for_mutate(request)
        mutation = _Mutation(request)
        graph = session.mutable.graph
        small = len(request.deltas) <= 1 and (
            len(graph.nodes) + len(graph.edges) <= self.LOOP_MUTATE_SIZE
        )
        locked = small and session.lock.acquire(blocking=False)
        if locked:
            try:
                self._mutate_session(session, mutation, wait=False)
            except WouldBlock:
                pass  # the worker below journals the batch, then unlocks
            except BaseException:
                session.lock.release()
                raise
            else:
                session.lock.release()
        if mutation.journaled is None:
            # Shielded: a cancelled waiter must not cancel the worker's
            # call, which alone can release a lock the loop handed over.
            await asyncio.shield(
                self._off_loop(self._finish_mutate, session, mutation, locked)
            )
        return mutate_response(
            request.id,
            session=request.session,
            applied=mutation.applied,
            dirty=mutation.dirty,
            generation=session.mutable.compiled.generation,
            seconds=time.perf_counter() - mutation.started,
            opened=opened,
            deduped=mutation.deduped,
            journaled=mutation.journaled,
        )

    def _session_for_mutate(
        self, request: MutateRequest
    ) -> Tuple[_DynamicSession, bool]:
        """The (possibly freshly opened) session a mutate addresses.

        Runs on the event loop with no awaits between the lookup and the
        insertion, so two concurrent opens of the same name cannot both
        create it.  Opening resolves and compiles synchronously -- the same
        loop-side cost the static query path pays in ``resolver.resolve``.
        """
        addressed = request.scenario is not None or request.spec is not None
        session = self.sessions.get(request.session)
        if session is not None:
            if addressed:
                raise ProtocolError(
                    "bad-request",
                    f"session {request.session!r} is already open; "
                    "later mutates carry only deltas",
                    request.id,
                )
            return session, False
        if not addressed:
            raise ProtocolError(
                "unknown-session",
                f"unknown session {request.session!r}; the opening mutate "
                "must carry 'scenario' or 'spec' addressing",
                request.id,
            )
        if len(self.sessions) >= self.config.max_sessions:
            raise ProtocolError(
                "session-limit",
                f"{len(self.sessions)} dynamic sessions already open "
                f"(max_sessions={self.config.max_sessions})",
                request.id,
            )
        address = {
            field: value
            for field, value in request.payload().items()
            if field in _ADDRESS_FIELDS
        }
        session = self.sessions[request.session] = self._open_session(
            request.session, address
        )
        self.sessions_opened += 1
        return session, True

    def _open_session(self, name: str, address: Dict[str, Any]) -> _DynamicSession:
        """A new session *name* on the game its wire-form *address* names
        (the caller registers it in :attr:`sessions` once it may serve)."""
        resolved = self.resolver.resolve(
            QueryRequest(**{field: address.get(field) for field in _ADDRESS_FIELDS})
        )
        mutable = MutableInstance.from_game_instance(resolved.instance)
        return _DynamicSession(name, mutable, opening=address)

    def _finish_mutate(
        self, session: _DynamicSession, mutation: _Mutation, locked: bool
    ) -> None:
        """Worker-thread rest of a mutate: all of it, or (when the loop
        holds the lock for it, *locked*) its journal append.  Leaves the
        session unlocked."""
        if not locked:
            session.lock.acquire()
        try:
            self._mutate_session(session, mutation, wait=True)
        finally:
            session.lock.release()

    def _mutate_session(
        self, session: _DynamicSession, mutation: _Mutation, wait: bool
    ) -> None:
        """Dedup, apply and journal one mutate; the caller holds the lock.

        The one mutate body of the loop (``wait=False``) and of worker
        threads (``wait=True``).  On the loop, a journal append that would
        wait raises :class:`WouldBlock` with the batch applied and recorded
        in *mutation*; the worker's call then journals it without applying
        it again.
        """
        request = mutation.request
        if mutation.applied is None:
            # A retry of a batch that already applied (the first reply was
            # lost): report the remembered outcome, do not apply it twice.
            cached = session.token_results.get(request.token)
            if cached is not None:
                mutation.applied, mutation.dirty = cached
                mutation.deduped = mutation.journaled = True
                return
            try:
                mutation.applied, mutation.dirty = session.apply(
                    request.deltas, request.token
                )
            except DeltaError as error:
                raise ProtocolError("bad-delta", str(error), request.id) from error
        mutation.journaled = self._journal_mutation(session, mutation, wait)

    def _journal_mutation(
        self, session: _DynamicSession, mutation: _Mutation, wait: bool
    ) -> bool:
        """Append one applied batch to the session's write-ahead journal.

        Sequence 0 records the opening address; sequence n the n-th
        applied batch in wire form with its token and outcome (recovery
        re-applies it and rebuilds the idempotency-token memory).  Runs
        under the session lock, after the batch applied: every
        acknowledged mutation is either journaled or honestly reported
        ``journaled: false``.  Without *wait* it runs on the event loop and
        raises :class:`WouldBlock` before the first entry that would wait;
        the entries already written stay recorded in the session, so the
        retry with *wait* writes only the rest.  Once an append is shed or
        fails the journal is a divergent prefix -- later batches are not
        appended either, so recovery never silently skips a batch in the
        middle.
        """
        if self.store is None or session.journal_broken:
            if session.journal_broken:
                self._journal_skipped.inc()
            return False
        store = self.store
        request = mutation.request
        entries: List[Tuple[int, Dict[str, Any]]] = []
        if not session.journaled_open:
            entries.append((0, {"kind": "open", "address": dict(session.opening)}))
        batch_entry: Dict[str, Any] = {
            "kind": "deltas",
            "deltas": [dict(body) for body in request.deltas],
            "applied": mutation.applied,
            "dirty": mutation.dirty,
        }
        if request.token is not None:
            batch_entry["token"] = request.token
        entries.append((session.journal_seq, batch_entry))

        def append() -> None:
            for seq, entry in entries:
                if wait:
                    store.journal_append(session.name, seq, entry)
                elif store.journal_append_nowait(session.name, seq, entry):
                    # The loop's connection never checkpoints on commit.
                    self._off_loop(self._write, store.checkpoint)
                self._journal_appends.inc()
                if entry["kind"] == "open":
                    session.journaled_open = True
                else:
                    session.journal_seq = seq + 1

        if self._write(append, self._journal_skipped):
            return True
        session.journal_broken = True
        _log.error("journal-broken", session=session.name)
        return False

    def recover_sessions(self) -> int:
        """Replay journaled dynamic sessions from the store (post-crash).

        Called once at startup, before serving.  Each journaled session is
        reopened from its recorded address and every delta batch re-applied
        in sequence; the rebuilt graph is content-addressed, so a later
        ``query_session`` answers exactly what the pre-crash daemon would
        have.  A journal that cannot be replayed (store trouble, an address
        that no longer resolves) is skipped with an event -- recovery is
        best-effort and must never stop the daemon from starting.
        """
        if self.store is None:
            return 0
        try:
            names = self.store.journal_sessions()
        except Exception as error:  # noqa: BLE001 -- recovery is best-effort
            self.events.append("recover-failed", error=repr(error))
            _log.error("recover-failed", error=repr(error))
            return 0
        recovered = 0
        for name in names:
            if name in self.sessions:
                continue
            if len(self.sessions) >= self.config.max_sessions:
                self.events.append("session-recover-skipped", session=name)
                continue
            try:
                entries = self.store.journal_entries(name)
                if not entries or entries[0][1].get("kind") != "open":
                    continue
                session = self._open_session(name, entries[0][1].get("address") or {})
                session.recovered = session.journaled_open = True
                for seq, entry in entries[1:]:
                    if entry.get("kind") == "deltas":
                        session.apply(entry.get("deltas", ()), entry.get("token"))
                        session.journal_seq = max(session.journal_seq, seq + 1)
            except Exception as error:  # noqa: BLE001 -- skip the bad journal
                self.events.append(
                    "session-recover-failed", session=name, error=repr(error)
                )
                _log.error("session-recover-failed", session=name, error=repr(error))
                continue
            self.sessions[name] = session
            self.sessions_opened += 1
            recovered += 1
            self.events.append("session-recovered", session=name, entries=len(entries))
            _log.info("session-recovered", session=name, entries=len(entries))
        self.sessions_recovered += recovered
        return recovered

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Everything the ``stats`` request reports."""
        tiers = self.cache.stats()
        tiers["store"]["async_put_failures"] = self._store_put_failures.value
        tiers["store"]["put_failures_by_error"] = dict(self._put_failures_by_error)
        tiers["store"]["writes_skipped"] = int(self._store_writes_skipped.value)
        tiers["store"]["calls"] = self.store.calls() if self.store is not None else {}
        tiers["compute"] = self.compute.engine_stats()
        requests = {op: counter.value for op, counter in self._request_counters.items()}
        now_monotonic = time.perf_counter()
        # Every stats poll leaves a compact sample in the registry's ring:
        # the time series behind /stats/history and the top sparklines.
        self.registry.record_sample(
            {
                "since_monotonic": now_monotonic,
                "uptime_seconds": round(now_monotonic - self._monotonic_start, 3),
                "queries": requests["query"],
                "mutates": requests["mutate"],
                "errors": self._errors.value,
                "pending": self.pending,
                "lru_hits": tiers["lru"].get("hits", 0),
                "lru_misses": tiers["lru"].get("misses", 0),
                "store_hits": tiers["store"].get("hits", 0),
                "computed": tiers["compute"].get("computed", 0),
                "query_p50_ms": round(
                    self._latency["query"].percentile(0.50) * 1000.0, 4
                ),
                "query_p99_ms": round(
                    self._latency["query"].percentile(0.99) * 1000.0, 4
                ),
            }
        )
        return {
            "uptime_seconds": round(time.perf_counter() - self._monotonic_start, 3),
            # The raw monotonic reading behind uptime: two polls subtract
            # these to get the exact interval between them (``repro top``
            # derives true rates from it instead of trusting wall clocks).
            "since_monotonic": time.perf_counter(),
            "requests": requests,
            "errors": self._errors.value,
            "overloaded": self.overloaded_count,
            "pending": self.pending,
            "peak_pending": self.peak_pending,
            "max_pending": self.config.max_pending,
            "tiers": tiers,
            "coalescer": self.coalescer.stats(),
            "latency": {op: hist.snapshot() for op, hist in self._latency.items()},
            "traces": self.traces.stats(),
            "profiler": self.profiler.status(),
            "samples": self.registry.sample_stats(),
            "resilience": {
                "breaker": self.breaker.snapshot(),
                "faults": self.faults.snapshot(),
                "degraded": self._degraded.value,
                "deadline_exceeded": self._deadline_exceeded.value,
                "draining": self.draining,
                "sessions_recovered": self.sessions_recovered,
                "journal_appends": self._journal_appends.value,
                "journal_skipped": self._journal_skipped.value,
            },
            "dynamic": {
                "sessions": len(self.sessions),
                "max_sessions": self.config.max_sessions,
                "opened": self.sessions_opened,
                "recovered": self.sessions_recovered,
                "by_session": {
                    name: session.info() for name, session in self.sessions.items()
                },
            },
        }

    def healthz(self) -> Tuple[bool, Dict[str, Any]]:
        """One liveness predicate for every prober (LBs, the supervisor).

        Healthy means "send me traffic": not draining and the store
        breaker is not open.  A half-open breaker still reports healthy --
        the daemon is probing its own store and answering degraded, which
        beats ejecting it from rotation.
        """
        breaker_state = self.breaker.state
        healthy = not self.draining and breaker_state != "open"
        return healthy, {
            "healthy": healthy,
            "draining": self.draining,
            "breaker": breaker_state,
        }

    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting queries/mutates (stats and ping still answer)."""
        if not self.draining:
            self.draining = True
            self.events.append("drain-begin", pending=self.pending)
            _log.info("drain-begin", pending=self.pending)

    async def drain(self, timeout: float = 5.0) -> None:
        """Graceful drain: reject new work, finish everything in flight.

        Already-admitted requests complete normally (the coalescer's
        running and queued batches are awaited, not failed); once
        *timeout* passes, whatever is still pending is left to
        :meth:`close`'s fail-fast path.
        """
        self.begin_drain()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while self.pending > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await self.coalescer.drain()
        self.events.append("drain-end", pending=self.pending)
        _log.info("drain-end", pending=self.pending)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.profiler.stop()
        await self.coalescer.close()
        if self._worker_futures:
            # Verdicts already answered to clients must reach the store
            # before it is closed (daemon restarts start warm).
            await asyncio.gather(*list(self._worker_futures), return_exceptions=True)
        if self._owns_store and self.store is not None:
            self.store.close()


async def listen(
    answer: Callable[[bytes], Awaitable[Optional[bytes]]],
    connections: set,
    host: str,
    port: int,
    socket_path: Optional[str],
) -> Tuple[asyncio.AbstractServer, Address]:
    """Serve request lines on a UNIX socket at *socket_path*, else TCP.

    Each connection's lines are answered in order by :func:`serve_lines`;
    its task joins *connections* so a shutdown can cancel it.
    """
    handler = partial(serve_lines, answer=answer, connections=connections)
    if socket_path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(socket_path)), exist_ok=True)
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        server = await asyncio.start_unix_server(
            handler, path=socket_path, limit=MAX_LINE_BYTES
        )
        return server, ("unix", socket_path)
    server = await asyncio.start_server(handler, host, port, limit=MAX_LINE_BYTES)
    return server, ("tcp", host, server.sockets[0].getsockname()[1])


async def serve_lines(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    answer: Callable[[bytes], Awaitable[Optional[bytes]]],
    connections: set,
) -> None:
    """One connection: each non-blank request line in, *answer*'s line out.

    *answer* returning ``None`` hangs up without replying.  An oversized
    line is answered with a ``bad-request`` error and ends the connection.
    """
    task = asyncio.current_task()
    if task is not None:
        connections.add(task)
        task.add_done_callback(connections.discard)
    try:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                response = error_response(
                    None, "bad-request", f"request line exceeds {MAX_LINE_BYTES} bytes"
                )
                writer.write(encode_response(response).encode("utf-8") + b"\n")
                await writer.drain()
                break
            if not line:
                break
            if not line.strip():
                continue
            reply = await answer(line)
            if reply is None:
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                break
            writer.write(reply + b"\n")
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
        pass  # the peer hung up, or shutdown cancelled the connection
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError, OSError):
            pass


class VerdictServer:
    """The asyncio listener wrapping one :class:`VerdictService`."""

    def __init__(
        self,
        service: VerdictService,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.address: Optional[Address] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()

    async def start(self) -> Address:
        # Crash recovery first: journaled dynamic sessions must be live
        # again before the first client connects, so a restarted pool
        # worker's readiness probe also means its sessions are back.
        self.service.recover_sessions()
        self._server, self.address = await listen(
            self._answer_line, self._connections, self.host, self.port, self.socket_path
        )
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def stop(self, drain_seconds: float = 0.0) -> None:
        """Stop listening; optionally drain in-flight work first.

        With ``drain_seconds > 0`` this is the graceful-shutdown path
        (SIGTERM): the listener closes immediately so no new connections
        arrive, admitted requests get up to that long to finish (new ones
        are answered ``draining``), and only then are the remaining
        connections cancelled and the service closed -- which flushes
        pending persists to the store.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain_seconds > 0.0:
            await self.service.drain(timeout=drain_seconds)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self.service.close()
        if self.socket_path is not None and os.path.exists(self.socket_path):
            os.unlink(self.socket_path)

    # ------------------------------------------------------------------
    async def _answer_line(self, line: bytes) -> Optional[bytes]:
        """One request line's reply, or ``None`` when ``conn-drop`` eats it.

        The chaos failpoint hangs up without answering, as a crashed peer
        or cut network would (the request itself completed).  Only
        data-plane requests (query/mutate) are dropped: the control plane
        -- ``admin`` (to clear the faults!), ``stats``, ``ping`` -- stays
        reachable, so a chaos run can always observe and disarm.
        """
        text = line.decode("utf-8", "replace").strip()
        response = await self.service.handle_line(text)
        faults = self.service.faults
        if "conn-drop" in faults.active():
            try:
                op = json.loads(text).get("op")
            except (ValueError, AttributeError):
                op = None
            if op not in ("admin", "stats", "ping") and faults.should_fire("conn-drop"):
                return None
        return response.encode("utf-8")


class ServerThread:
    """A daemon on a background thread, for tests / benchmarks / the loadgen.

    Creates the event loop, service and listener on the thread, exposes the
    bound address (and the service object, for in-process assertions), and
    tears everything down in :meth:`stop`.  Also usable as a context
    manager.
    """

    def __init__(
        self,
        store: Union[VerdictStore, str, None] = None,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_path: Optional[str] = None,
        http_port: Optional[int] = None,
        http_host: str = "127.0.0.1",
    ) -> None:
        self._store = store
        self._config = config
        self._host = host
        self._port = port
        self._socket_path = socket_path
        self._http_port = http_port
        self._http_host = http_host
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[VerdictServer] = None
        self.service: Optional[VerdictService] = None
        self.console = None
        self.address: Optional[Address] = None
        #: ("host", port) of the HTTP console once started (None without one).
        self.http_address: Optional[Tuple[str, int]] = None

    def start(self) -> Address:
        self._thread = threading.Thread(
            target=self._run, name="verdict-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("verdict server failed to start") from self._startup_error
        assert self.address is not None
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            self.service = VerdictService(store=self._store, config=self._config)
            self.server = VerdictServer(
                self.service,
                host=self._host,
                port=self._port,
                socket_path=self._socket_path,
            )
            self.address = loop.run_until_complete(self.server.start())
            if self._http_port is not None:
                from repro.obs.http import ConsoleServer

                self.console = ConsoleServer(
                    self.service, host=self._http_host, port=self._http_port
                )
                self.http_address = loop.run_until_complete(self.console.start())
        except BaseException as error:  # noqa: BLE001 -- reported to starter
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            if self.console is not None:
                loop.run_until_complete(self.console.stop())
            loop.run_until_complete(self.server.stop())
            loop.close()

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
