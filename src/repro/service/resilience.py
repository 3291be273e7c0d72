"""Resilience primitives for the verdict daemon: faults, breaker, retries.

The serving stack's failure story is built from three small, independently
testable pieces:

* :class:`FaultInjector` -- named **failpoints** threaded through the
  store, compute and transport layers.  Chaos tests (and ``repro serve
  --faults`` / ``loadgen --chaos``) flip them on a live daemon; production
  runs pay one dict lookup per failpoint.  Faults are probabilistic
  (``rate``), bounded (``times=N`` / ``for=SECONDS``) and deterministic
  under a seeded RNG, so a chaos run is reproducible.
* :class:`CircuitBreaker` -- consecutive store failures open the store
  tier; while open, store calls are shed instead of paying a timeout per
  request (reads degrade to compute -- the ``degraded`` response flag --
  and writes are skipped).  After ``reset_seconds`` a single half-open
  probe is let through; success re-closes the breaker, failure re-opens
  it.
* :class:`RetryPolicy` -- client-side exponential backoff with jitter and
  an overall deadline, applied to ``overloaded`` responses and transport/
  timeout errors.  The clock, sleep and RNG are injectable so backoff
  schedules are unit-testable against a fake clock.

:class:`FaultingStore` wraps any :class:`~repro.sweep.store.VerdictStore`
and is where the first two meet: every verdict read or write and every
journal append asks the daemon's breaker first, raises
:class:`StoreUnavailable` when shed, and otherwise applies the store
failpoints, makes the call and reports its outcome to the breaker.  The
daemon always wraps its store, so every store interaction shares one
chaos surface and one breaker protocol, and every probe the breaker lets
through gets its outcome reported, whatever became of the request that
triggered it.  The non-blocking calls the event loop makes
(``get_nowait``, ``journal_append_nowait``) pass the same gate; one that
would wait raises :class:`~repro.sweep.store.WouldBlock` and hands its
probe back unmade.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.obs.log import get_logger
from repro.obs.metrics import Counter, MetricsRegistry
from repro.sweep.store import VerdictStore, WouldBlock

_log = get_logger("repro.resilience")

#: Every failpoint the serving stack consults, and where it bites:
#:
#: ==================== ====================================================
#: failpoint            effect when it fires
#: ==================== ====================================================
#: ``store-get-error``  store reads raise :class:`InjectedFault`
#: ``store-put-error``  store writes (verdicts, journal) raise
#: ``store-get-latency`` store reads sleep ``latency`` seconds first
#: ``store-put-latency`` store writes sleep ``latency`` seconds first
#: ``compute-error``    the compute tier raises before evaluating a batch
#: ``conn-drop``        the server aborts the connection instead of replying
#:                      (query/mutate only; admin, stats and ping stay up)
#: ``slow-response``    request handling sleeps ``latency`` seconds
#: ==================== ====================================================
FAILPOINTS: Tuple[str, ...] = (
    "store-get-error",
    "store-put-error",
    "store-get-latency",
    "store-put-latency",
    "compute-error",
    "conn-drop",
    "slow-response",
)


class InjectedFault(OSError):
    """The error a fired ``*-error`` failpoint raises (an ``OSError`` so
    real-store error handling paths treat it exactly like disk trouble)."""

    def __init__(self, failpoint: str) -> None:
        super().__init__(f"injected fault at failpoint {failpoint!r}")
        self.failpoint = failpoint


class StoreUnavailable(OSError):
    """The error a store call raises when the circuit breaker sheds it (an
    ``OSError``, like :class:`InjectedFault`, so best-effort store paths
    degrade the same way whether the store failed or was never asked)."""


class _Rule:
    """One armed failpoint (mutated only under the injector's lock)."""

    __slots__ = ("rate", "latency", "remaining", "until")

    def __init__(
        self,
        rate: float,
        latency: float,
        remaining: Optional[int],
        until: Optional[float],
    ) -> None:
        self.rate = rate
        self.latency = latency
        self.remaining = remaining
        self.until = until


def parse_fault_spec(spec: str) -> Dict[str, Dict[str, Any]]:
    """Parse a ``--faults`` / admin-op fault spec into configure kwargs.

    Grammar (comma-separated entries)::

        NAME[=RATE][:latency=SECONDS][:times=N][:for=SECONDS]
        NAME=off            -- disarm one failpoint

    Examples::

        store-get-error                      # always fail store reads
        store-put-error=0.5:times=20         # fail half of the next writes
        slow-response=1.0:latency=0.2:for=5  # 200ms stalls for 5 seconds
        store-get-error=off                  # disarm

    Raises ``ValueError`` on unknown failpoints or malformed entries, so
    both the CLI and the admin op reject bad specs up front.
    """
    parsed: Dict[str, Dict[str, Any]] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        head, *modifiers = entry.split(":")
        name, _, rate_text = head.partition("=")
        name = name.strip()
        if name not in FAILPOINTS:
            raise ValueError(
                f"unknown failpoint {name!r}; known: {', '.join(FAILPOINTS)}"
            )
        if rate_text.strip().lower() == "off":
            parsed[name] = {"off": True}
            continue
        kwargs: Dict[str, Any] = {}
        if rate_text:
            try:
                kwargs["rate"] = float(rate_text)
            except ValueError:
                raise ValueError(f"bad rate {rate_text!r} in {entry!r}") from None
        for modifier in modifiers:
            key, sep, value = modifier.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"bad modifier {modifier!r} in {entry!r}")
            try:
                if key == "latency":
                    kwargs["latency"] = float(value)
                elif key == "times":
                    kwargs["times"] = int(value)
                elif key == "for":
                    kwargs["for_seconds"] = float(value)
                else:
                    raise ValueError(
                        f"unknown modifier {key!r} in {entry!r} "
                        "(expected latency=, times= or for=)"
                    )
            except ValueError:
                raise
        parsed[name] = kwargs
    return parsed


class FaultInjector:
    """Named failpoints, armable at runtime (thread-safe, cheap when idle).

    ``check``/``delay``/``should_fire`` are the three probe spellings the
    serving stack uses; all of them consult the same rule table, decrement
    ``times`` budgets, honor ``for`` windows and count fires.  The RNG is
    seeded (default 0) so a given traffic order fires deterministically.
    """

    def __init__(self, registry=None, seed: int = 0, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._rules: Dict[str, _Rule] = {}
        self._rng = random.Random(seed)
        self._clock = clock
        self._registry = registry
        self.fired: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def configure(
        self,
        name: str,
        rate: float = 1.0,
        latency: float = 0.0,
        times: Optional[int] = None,
        for_seconds: Optional[float] = None,
        off: bool = False,
    ) -> None:
        """Arm (or, with ``off=True``, disarm) one failpoint."""
        if name not in FAILPOINTS:
            raise ValueError(
                f"unknown failpoint {name!r}; known: {', '.join(FAILPOINTS)}"
            )
        with self._lock:
            if off:
                self._rules.pop(name, None)
                disarmed = True
            else:
                disarmed = False
                until = None if for_seconds is None else self._clock() + for_seconds
                self._rules[name] = _Rule(
                    rate=max(0.0, min(1.0, rate)),
                    latency=max(0.0, latency),
                    remaining=times,
                    until=until,
                )
        if disarmed:
            _log.info("fault-disarmed", failpoint=name)
        else:
            _log.info(
                "fault-armed",
                failpoint=name,
                rate=rate,
                latency=latency,
                times=times,
                for_seconds=for_seconds,
            )

    def configure_spec(self, spec: str) -> None:
        """Arm every entry of a parsed ``--faults`` spec (atomic per entry)."""
        for name, kwargs in parse_fault_spec(spec).items():
            self.configure(name, **kwargs)

    def clear(self, name: Optional[str] = None) -> None:
        """Disarm one failpoint, or all of them."""
        with self._lock:
            if name is None:
                self._rules.clear()
            else:
                self._rules.pop(name, None)
        _log.info("faults-cleared", failpoint=name or "all")

    # ------------------------------------------------------------------
    def _fire(self, name: str) -> Optional[float]:
        """The armed latency when *name* fires now, else ``None``."""
        with self._lock:
            rule = self._rules.get(name)
            if rule is None:
                return None
            if rule.until is not None and self._clock() >= rule.until:
                del self._rules[name]
                return None
            if rule.rate < 1.0 and self._rng.random() >= rule.rate:
                return None
            if rule.remaining is not None:
                rule.remaining -= 1
                if rule.remaining <= 0:
                    del self._rules[name]
            latency = rule.latency
            self.fired[name] = self.fired.get(name, 0) + 1
        if self._registry is not None:
            self._registry.counter(
                "repro_faults_fired_total",
                labels={"failpoint": name},
                help="injected faults that fired",
            ).inc()
        # Debug level: firing is per-request-hot under chaos load, and a
        # suppressed debug line costs one comparison.
        _log.debug("fault-fired", failpoint=name, latency=latency)
        return latency

    def should_fire(self, name: str) -> bool:
        """Probe *name*; ``True`` exactly when the failpoint fires."""
        return self._fire(name) is not None

    def delay(self, name: str) -> float:
        """The sleep a latency failpoint demands now (0.0 when quiet)."""
        return self._fire(name) or 0.0

    def check(self, name: str) -> None:
        """Raise :class:`InjectedFault` when *name* fires (error failpoints)."""
        if self._fire(name) is not None:
            raise InjectedFault(name)

    def armed(self, name: str) -> bool:
        """Could *name* fire now?  Only looks: nothing fires, no ``times``
        budget is spent, whatever the rule's rate."""
        rule = self._rules.get(name)
        return rule is not None and (rule.until is None or self._clock() < rule.until)

    # ------------------------------------------------------------------
    def active(self) -> Dict[str, Dict[str, Any]]:
        """The currently armed rules (admin-op and ``stats`` view)."""
        now = self._clock()
        with self._lock:
            return {
                name: {
                    "rate": rule.rate,
                    "latency": rule.latency,
                    "times_left": rule.remaining,
                    "expires_in": (
                        None if rule.until is None else max(0.0, rule.until - now)
                    ),
                }
                for name, rule in self._rules.items()
            }

    def snapshot(self) -> Dict[str, Any]:
        return {"active": self.active(), "fired": dict(self.fired)}


class CircuitBreaker:
    """A consecutive-failure breaker over the store tier.

    States: ``closed`` (normal), ``open`` (shedding -- :meth:`admit`
    answers ``None``), ``half-open`` (one probe in flight).  The breaker
    opens after ``failure_threshold`` *consecutive* failures; after
    ``reset_seconds`` in the open state a single caller is allowed through
    as a probe, whose outcome re-closes or re-opens the breaker.  All
    transitions are reported to ``on_transition(old, new)`` (the daemon
    wires a gauge, a counter and an event there).  Thread-safe.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.opened = 0
        self.transitions = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, new_state: str) -> None:
        """Move to *new_state* (caller holds the lock)."""
        old_state, self._state = self._state, new_state
        if new_state == self.OPEN:
            self._opened_at = self._clock()
            self.opened += 1
        self.transitions += 1
        if self._on_transition is not None:
            self._on_transition(old_state, new_state)

    def admit(self) -> Optional[bool]:
        """May the caller touch the store now?  ``None`` when the call is
        shed, ``True`` when the caller is the half-open probe (one at a
        time), ``False`` when the breaker is closed."""
        with self._lock:
            if self._state == self.CLOSED:
                return False
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.reset_seconds:
                    return None
                self._transition(self.HALF_OPEN)
                self._probe_in_flight = False
            # half-open: admit exactly one probe at a time.
            if self._probe_in_flight:
                return None
            self._probe_in_flight = True
            self.probes += 1
            return True

    def release(self) -> None:
        """Hand back the probe :meth:`admit` gave out, unmade (the call
        would have blocked): the next caller probes instead."""
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._probe_in_flight = False
                self.probes -= 1

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_in_flight = False
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_in_flight = False
            if self._state == self.HALF_OPEN:
                self._transition(self.OPEN)
            elif (
                self._state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(self.OPEN)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_seconds": self.reset_seconds,
                "opened": self.opened,
                "transitions": self.transitions,
                "probes": self.probes,
            }


#: Error codes a :class:`RetryPolicy` treats as transient by default:
#: admission backpressure, connection-level failures, request timeouts, and
#: a pool router that momentarily has no live worker for the key.
RETRYABLE_CODES: FrozenSet[str] = frozenset(
    {"overloaded", "transport", "timeout", "unavailable"}
)


class RetryPolicy:
    """Exponential backoff with jitter and an overall deadline.

    ``backoff(attempt)`` is ``base_delay * multiplier**attempt`` capped at
    ``max_delay``, stretched by up to ``jitter`` (a fraction) of random
    extra so synchronized clients decorrelate.  ``deadline`` bounds the
    *total* time spent across attempts, measured from the first call's
    start.  Clock, sleep and RNG are injectable: unit tests drive the
    schedule with a fake clock and assert the exact delays.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        deadline: Optional[float] = None,
        retry_codes: Iterable[str] = RETRYABLE_CODES,
        rng: Optional[random.Random] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.deadline = deadline
        self.retry_codes = frozenset(retry_codes)
        self.clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()

    def retryable(self, code: str) -> bool:
        return code in self.retry_codes

    def backoff(self, attempt: int) -> float:
        """The delay before retry number *attempt* (0-based), jittered."""
        delay = min(self.max_delay, self.base_delay * (self.multiplier ** attempt))
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * self._rng.random()
        return delay

    def may_retry(self, attempt: int, started: float) -> bool:
        """Is retry number *attempt* (0-based) still within budget?"""
        if attempt + 1 >= self.max_attempts:
            return False
        if self.deadline is not None:
            if self.clock() - started >= self.deadline:
                return False
        return True

    def sleep_for(self, attempt: int, started: Optional[float] = None) -> float:
        """Back off before retry *attempt*; returns the seconds slept.

        The sleep is clamped to whatever remains of the overall deadline,
        so a policy never oversleeps its own budget.
        """
        delay = self.backoff(attempt)
        if self.deadline is not None and started is not None:
            remaining = self.deadline - (self.clock() - started)
            delay = max(0.0, min(delay, remaining))
        if delay > 0.0:
            self._sleep(delay)
        return delay


class FaultingStore(VerdictStore):
    """The daemon's store wrapper: the store breaker and the ``store-*``
    failpoints, applied on the way through.

    Verdict reads and writes and journal appends ask *breaker* first and
    raise :class:`StoreUnavailable` when shed; otherwise the failpoints
    apply, the call is made and its outcome is reported on the calling
    thread, so no caller can leave a probe unreported.  A non-blocking
    call treats an armed latency failpoint as
    :class:`~repro.sweep.store.WouldBlock` (it would sleep), and a probe
    whose call raises ``WouldBlock`` is handed back to the breaker.
    Every call the breaker admits is counted in *registry* by operation
    and path (unless it raised ``WouldBlock``): ``loop`` for the
    non-blocking calls, ``worker`` for the blocking ones.
    Structural calls (``__len__``, ``len_nowait``, ``items``, ``close``,
    ``checkpoint``) and journal *reads* pass through ungated -- stats must
    stay observable and startup recovery must be able to read what an
    earlier, healthy daemon journaled.  The daemon keeps no node
    verdicts, so the store's node-verdict calls are not wrapped.
    """

    _GET = ("store-get-latency", "store-get-error")
    _PUT = ("store-put-latency", "store-put-error")

    def __init__(
        self,
        inner: VerdictStore,
        faults: FaultInjector,
        breaker: CircuitBreaker,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.inner = inner
        self.faults = faults
        self.breaker = breaker
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters: Dict[Tuple[str, str], Counter] = {}

    def _count(self, op: str, path: str) -> None:
        counter = self._counters.get((op, path))
        if counter is None:
            counter = self._counters[(op, path)] = self.registry.counter(
                "repro_store_calls_total",
                labels={"op": op, "path": path},
                help="store calls by operation and by where they ran "
                "(loop: non-blocking, on the event loop; worker: blocking)",
            )
        counter.inc()

    def calls(self) -> Dict[str, Dict[str, int]]:
        """Store calls so far: ``{op: {"loop": n, "worker": n}}``."""
        calls: Dict[str, Dict[str, int]] = {}
        for (op, path), counter in sorted(self._counters.items()):
            calls.setdefault(op, {"loop": 0, "worker": 0})[path] = counter.value
        return calls

    def _call(self, failpoints: Tuple[str, str], op: str, *args: Any, wait: bool = True) -> Any:
        """``inner.<op>(*args)`` through the gate; without *wait*, the
        non-blocking ``inner.<op>_nowait``."""
        latency, error = failpoints
        if not wait and self.faults.armed(latency):
            raise WouldBlock(f"failpoint {latency!r} is armed")
        probe = self.breaker.admit()
        if probe is None:
            raise StoreUnavailable("store call shed: the store circuit breaker is open")
        path = "worker" if wait else "loop"
        try:
            if wait:
                delay = self.faults.delay(latency)
                if delay > 0.0:
                    time.sleep(delay)
            self.faults.check(error)
            result = getattr(self.inner, op if wait else op + "_nowait")(*args)
        except WouldBlock:
            if probe:
                self.breaker.release()
            raise
        except BaseException:
            self._count(op, path)
            self.breaker.record_failure()
            raise
        self._count(op, path)
        self.breaker.record_success()
        return result

    # -- verdicts ------------------------------------------------------
    def get(self, key):
        return self._call(self._GET, "get", key)

    def get_nowait(self, key):
        return self._call(self._GET, "get", key, wait=False)

    def get_many(self, keys):
        return self._call(self._GET, "get_many", keys)

    def put(self, key, verdict, name="", seconds=0.0):
        self._call(self._PUT, "put", key, verdict, name, seconds)

    def put_many(self, records):
        self._call(self._PUT, "put_many", records)

    # -- session journal -----------------------------------------------
    def journal_append(self, session, seq, entry):
        self._call(self._PUT, "journal_append", session, seq, entry)

    def journal_append_nowait(self, session, seq, entry):
        return self._call(self._PUT, "journal_append", session, seq, entry, wait=False)

    def journal_entries(self, session):
        return self.inner.journal_entries(session)

    def journal_sessions(self):
        return self.inner.journal_sessions()

    def journal_clear(self, session):
        self.inner.journal_clear(session)

    # -- structure -----------------------------------------------------
    def checkpoint(self):
        self.inner.checkpoint()

    def __len__(self):
        return len(self.inner)

    def len_nowait(self):
        return self.inner.len_nowait()

    def items(self):
        return self.inner.items()

    def close(self):
        self.inner.close()
