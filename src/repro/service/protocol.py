"""The verdict service's wire protocol: versioned JSON lines.

One request or response per line, each a JSON object carrying the protocol
version ``"v"``.  Keeping the framing this dumb buys three things: any
language (or ``nc``) can speak it, a malformed line poisons only itself
(the connection survives), and the version field lets the daemon serve old
clients after the protocol grows.

Requests
--------
Every request has an ``"op"`` and an optional ``"id"`` (string, int or
null) that the response echoes, so clients can pipeline.

``query`` asks *who wins this certificate game?* and names the game either
by **scenario instance** -- a registered sweep scenario plus an instance
name or index into its deterministic instance list::

    {"v": 1, "op": "query", "id": 7, "scenario": "separations", "index": 3}
    {"v": 1, "op": "query", "scenario": "smoke", "instance": "3-colorable|cycle4|small"}

or by **inline spec** -- an arbiter, a graph-family recipe, an identifier
scheme and (optionally) a quantifier prefix override, resolved by
:mod:`repro.service.resolver`::

    {"v": 1, "op": "query", "spec": {"arbiter": "3-colorable", "family": "cycle",
                                     "n": 9, "scheme": "sequential"}}

``mutate`` streams graph deltas into a **dynamic session** -- a named
mutable game living in the daemon.  The first mutate for a session name
must carry scenario/spec addressing (it opens the session from that game);
later mutates carry only deltas.  Each delta is a small object addressing
nodes by their index in the session's (fixed) node order::

    {"v": 1, "op": "mutate", "session": "s1",
     "spec": {"arbiter": "2-colorable", "family": "cycle", "n": 12, "scheme": "sequential"},
     "deltas": []}
    {"v": 1, "op": "mutate", "session": "s1",
     "deltas": [{"kind": "set-label", "node": 3, "label": "1"},
                {"kind": "edge-insert", "u": 0, "v": 6}]}

and ``query`` accepts ``{"session": "s1"}`` as a third addressing mode,
answering for the session's *current* state (source tier ``dynamic`` when
the verdict came from incremental repair).  Structurally malformed deltas
are rejected with the typed code ``bad-delta`` before any state changes;
a delta that does not fit the current graph (duplicate edge, bridge
deletion, identifier clash) rejects the whole batch the same way.

``stats`` returns the daemon's counters (tier hit rates, coalescer and
engine-cache telemetry); ``ping`` is a liveness probe.

Responses
---------
``{"v": 1, "ok": true, ...}`` on success -- for a query: the ``verdict``
boolean, the ``winner`` (``"eve"``/``"adam"``), the ``source`` tier that
answered (``lru`` / ``store`` / ``compute`` / ``coalesced``), the
content-addressed ``key`` and the time ``seconds`` spent.  Failures are
``{"v": 1, "ok": false, "error": {"code": ..., "message": ...}}``; the
code ``overloaded`` is the backpressure signal (the request was *not*
queued and may be retried).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

#: The protocol version this module speaks.
PROTOCOL_VERSION = 1

#: A request id: echoed verbatim; clients use it to match pipelined pairs.
RequestId = Union[str, int, None]

#: Error codes a conforming server may emit.
ERROR_CODES = (
    "bad-json",
    "bad-version",
    "bad-op",
    "bad-request",
    "bad-spec",
    "unknown-scenario",
    "unknown-instance",
    "unknown-arbiter",
    "unknown-family",
    "unknown-scheme",
    "unknown-session",
    "bad-delta",
    "session-limit",
    "overloaded",
    "deadline-exceeded",
    "draining",
    "unavailable",
    "internal",
)

#: Source tiers a query response may report.
SOURCES = ("lru", "store", "compute", "coalesced", "dynamic")

#: Hard cap on deltas per mutate request (a DoS guard, far above any
#: sensible batch).
MAX_DELTAS = 256

#: Structural schema of each wire delta kind: required (field, type) pairs.
_DELTA_FIELDS = {
    "edge-insert": (("u", int), ("v", int)),
    "edge-delete": (("u", int), ("v", int)),
    "set-label": (("node", int), ("label", str)),
    "set-id": (("node", int), ("id", str)),
}


class ProtocolError(Exception):
    """A request that cannot be served, with its wire-level error code."""

    def __init__(self, code: str, message: str, request_id: RequestId = None) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.request_id = request_id


@dataclass(frozen=True)
class QueryRequest:
    """A ``query`` op: exactly one of (*scenario*, *spec*, *session*) modes.

    ``deadline_ms``, when set, bounds the server-side handling time: a
    query still unanswered after that many milliseconds gets the typed
    ``deadline-exceeded`` error instead of hanging its client.
    """

    id: RequestId = None
    scenario: Optional[str] = None
    instance: Optional[str] = None
    index: Optional[int] = None
    spec: Optional[Mapping[str, Any]] = None
    session: Optional[str] = None
    deadline_ms: Optional[int] = None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"v": PROTOCOL_VERSION, "op": "query"}
        if self.id is not None:
            body["id"] = self.id
        if self.scenario is not None:
            body["scenario"] = self.scenario
            if self.instance is not None:
                body["instance"] = self.instance
            if self.index is not None:
                body["index"] = self.index
        if self.spec is not None:
            body["spec"] = dict(self.spec)
        if self.session is not None:
            body["session"] = self.session
        if self.deadline_ms is not None:
            body["deadline_ms"] = self.deadline_ms
        return body


@dataclass(frozen=True)
class MutateRequest:
    """A ``mutate`` op: deltas for a dynamic session (plus opening address).

    The scenario/spec fields are only legal on the request that *opens* the
    session; afterwards the session name alone addresses the mutable game.
    ``deltas`` holds structurally validated wire objects (see
    ``_DELTA_FIELDS``); semantic validation against the current graph
    happens server-side.

    ``token`` is a client-chosen idempotency key: the server remembers
    recently applied tokens per session and answers a retried mutate
    (``deduped: true``) without re-applying its deltas -- so a client may
    retry a mutate whose response was lost without double-mutating.
    """

    id: RequestId = None
    session: str = ""
    deltas: tuple = ()
    scenario: Optional[str] = None
    instance: Optional[str] = None
    index: Optional[int] = None
    spec: Optional[Mapping[str, Any]] = None
    token: Optional[str] = None
    deadline_ms: Optional[int] = None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "mutate",
            "session": self.session,
            "deltas": [dict(delta) for delta in self.deltas],
        }
        if self.id is not None:
            body["id"] = self.id
        if self.scenario is not None:
            body["scenario"] = self.scenario
            if self.instance is not None:
                body["instance"] = self.instance
            if self.index is not None:
                body["index"] = self.index
        if self.spec is not None:
            body["spec"] = dict(self.spec)
        if self.token is not None:
            body["token"] = self.token
        if self.deadline_ms is not None:
            body["deadline_ms"] = self.deadline_ms
        return body


@dataclass(frozen=True)
class StatsRequest:
    """A ``stats`` op: the daemon's counters."""

    id: RequestId = None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"v": PROTOCOL_VERSION, "op": "stats"}
        if self.id is not None:
            body["id"] = self.id
        return body


@dataclass(frozen=True)
class PingRequest:
    """A ``ping`` op: liveness probe."""

    id: RequestId = None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"v": PROTOCOL_VERSION, "op": "ping"}
        if self.id is not None:
            body["id"] = self.id
        return body


#: Actions the ``admin`` op accepts.
ADMIN_ACTIONS = (
    "faults",
    "set-faults",
    "clear-faults",
    "profile-start",
    "profile-stop",
    "profile-snapshot",
)


@dataclass(frozen=True)
class AdminRequest:
    """An ``admin`` op: runtime control of the daemon's fault injector
    and sampling profiler.

    ``set-faults`` arms the failpoints named by ``spec`` (the same grammar
    as ``repro serve --faults``); ``clear-faults`` disarms everything;
    ``faults`` just reports.  Every action answers with the injector's
    current snapshot, so chaos harnesses can flip faults on a live daemon
    and verify what is armed.

    ``profile-start`` begins continuous stack sampling (``spec``, when
    given, is the rate in hz); ``profile-stop`` halts it; both answer
    with the profiler's status and ``profile-snapshot`` with its full
    aggregate (folded stacks + top frames) in the additive ``profile``
    response field.
    """

    id: RequestId = None
    action: str = "faults"
    spec: Optional[str] = None

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "admin",
            "action": self.action,
        }
        if self.id is not None:
            body["id"] = self.id
        if self.spec is not None:
            body["spec"] = self.spec
        return body


Request = Union[QueryRequest, MutateRequest, StatsRequest, PingRequest, AdminRequest]


def encode_request(request: Request) -> str:
    """One JSON line (no trailing newline) for *request*."""
    return json.dumps(request.payload(), sort_keys=True, separators=(",", ":"))


def _request_id_of(body: Mapping[str, Any]) -> RequestId:
    request_id = body.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError("bad-request", "id must be a string, an integer or null")
    if isinstance(request_id, bool):
        raise ProtocolError("bad-request", "id must be a string, an integer or null")
    return request_id


def parse_request(line: str) -> Request:
    """Parse one request line, raising :class:`ProtocolError` on any defect.

    The error's ``request_id`` is recovered whenever the line was at least
    well-formed JSON with a usable ``id``, so the server can still address
    its error response.
    """
    try:
        body = json.loads(line)
    except ValueError as error:
        raise ProtocolError("bad-json", f"request is not valid JSON: {error}") from None
    if not isinstance(body, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")

    request_id: RequestId = None
    try:
        request_id = _request_id_of(body)
        version = body.get("v")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "bad-version",
                f"unsupported protocol version {version!r} (this server speaks v{PROTOCOL_VERSION})",
            )
        op = body.get("op")
        if op == "ping":
            return PingRequest(id=request_id)
        if op == "stats":
            return StatsRequest(id=request_id)
        if op == "query":
            return _parse_query(body, request_id)
        if op == "mutate":
            return _parse_mutate(body, request_id)
        if op == "admin":
            return _parse_admin(body, request_id)
        raise ProtocolError(
            "bad-op", f"unknown op {op!r}; expected query, mutate, stats, ping or admin"
        )
    except ProtocolError as error:
        if error.request_id is None:
            error.request_id = request_id
        raise


def _parse_deadline(body: Mapping[str, Any], request_id: RequestId) -> Optional[int]:
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is None:
        return None
    if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, int):
        raise ProtocolError(
            "bad-request", "deadline_ms must be a positive integer", request_id
        )
    if deadline_ms <= 0:
        raise ProtocolError(
            "bad-request", "deadline_ms must be a positive integer", request_id
        )
    return deadline_ms


def _parse_query(body: Mapping[str, Any], request_id: RequestId) -> QueryRequest:
    scenario = body.get("scenario")
    spec = body.get("spec")
    session = body.get("session")
    deadline_ms = _parse_deadline(body, request_id)
    modes = sum(value is not None for value in (scenario, spec, session))
    if modes != 1:
        raise ProtocolError(
            "bad-request",
            "a query names exactly one of 'scenario' (plus 'instance' or 'index'), "
            "'spec' or 'session'",
            request_id,
        )
    if session is not None:
        if not isinstance(session, str) or not session:
            raise ProtocolError(
                "bad-request", "session must be a nonempty string", request_id
            )
        return QueryRequest(id=request_id, session=session, deadline_ms=deadline_ms)
    if spec is not None:
        if not isinstance(spec, dict):
            raise ProtocolError("bad-spec", "spec must be a JSON object", request_id)
        return QueryRequest(id=request_id, spec=spec, deadline_ms=deadline_ms)
    scenario, instance, index = _parse_scenario_address(body, request_id)
    return QueryRequest(
        id=request_id,
        scenario=scenario,
        instance=instance,
        index=index,
        deadline_ms=deadline_ms,
    )


def _parse_scenario_address(
    body: Mapping[str, Any], request_id: RequestId
) -> Tuple[Optional[str], Optional[str], Optional[int]]:
    """``(scenario, instance, index)`` of a scenario-addressed query or
    opening mutate (all ``None`` without a ``scenario`` field)."""
    scenario = body.get("scenario")
    if scenario is None:
        return None, None, None
    if not isinstance(scenario, str):
        raise ProtocolError("bad-request", "scenario must be a string", request_id)
    instance = body.get("instance")
    index = body.get("index")
    if (instance is None) == (index is None):
        raise ProtocolError(
            "bad-request",
            "a scenario address names exactly one of 'instance' (name) or 'index'",
            request_id,
        )
    if instance is not None and not isinstance(instance, str):
        raise ProtocolError("bad-request", "instance must be a string", request_id)
    if index is not None and (isinstance(index, bool) or not isinstance(index, int)):
        raise ProtocolError("bad-request", "index must be an integer", request_id)
    return scenario, instance, index


def validate_wire_delta(delta: Any, request_id: RequestId = None) -> Dict[str, Any]:
    """Structurally validate one wire delta, raising ``bad-delta`` on defects.

    Checks shape only (known kind, required fields, correct JSON types);
    whether the delta *fits the session's current graph* is the server's
    semantic check.  Returns the delta as a plain dict.
    """
    if not isinstance(delta, dict):
        raise ProtocolError("bad-delta", "each delta must be a JSON object", request_id)
    kind = delta.get("kind")
    if kind not in _DELTA_FIELDS:
        raise ProtocolError(
            "bad-delta",
            f"unknown delta kind {kind!r}; known: {sorted(_DELTA_FIELDS)}",
            request_id,
        )
    for field, expected in _DELTA_FIELDS[kind]:
        value = delta.get(field)
        if expected is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ProtocolError(
                "bad-delta",
                f"delta field {field!r} of {kind!r} must be an integer node index",
                request_id,
            )
        if expected is str and not isinstance(value, str):
            raise ProtocolError(
                "bad-delta",
                f"delta field {field!r} of {kind!r} must be a string",
                request_id,
            )
        if expected is int and value < 0:
            raise ProtocolError(
                "bad-delta",
                f"delta field {field!r} of {kind!r} must be nonnegative",
                request_id,
            )
    return dict(delta)


def _parse_mutate(body: Mapping[str, Any], request_id: RequestId) -> MutateRequest:
    session = body.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError(
            "bad-request", "mutate requires a nonempty 'session' string", request_id
        )
    deltas = body.get("deltas")
    if not isinstance(deltas, list):
        raise ProtocolError("bad-request", "'deltas' must be a JSON array", request_id)
    if len(deltas) > MAX_DELTAS:
        raise ProtocolError(
            "bad-request",
            f"at most {MAX_DELTAS} deltas per mutate request (got {len(deltas)})",
            request_id,
        )
    validated = tuple(validate_wire_delta(delta, request_id) for delta in deltas)

    spec = body.get("spec")
    if body.get("scenario") is not None and spec is not None:
        raise ProtocolError(
            "bad-request",
            "a mutate opening address names at most one of 'scenario' or 'spec'",
            request_id,
        )
    if spec is not None and not isinstance(spec, dict):
        raise ProtocolError("bad-spec", "spec must be a JSON object", request_id)
    scenario, instance, index = _parse_scenario_address(body, request_id)
    token = body.get("token")
    if token is not None and (not isinstance(token, str) or not token):
        raise ProtocolError(
            "bad-request", "token must be a nonempty string", request_id
        )
    return MutateRequest(
        id=request_id,
        session=session,
        deltas=validated,
        scenario=scenario,
        instance=instance,
        index=index,
        spec=spec,
        token=token,
        deadline_ms=_parse_deadline(body, request_id),
    )


def _parse_admin(body: Mapping[str, Any], request_id: RequestId) -> AdminRequest:
    action = body.get("action")
    if action not in ADMIN_ACTIONS:
        raise ProtocolError(
            "bad-request",
            f"admin action must be one of {', '.join(ADMIN_ACTIONS)} (got {action!r})",
            request_id,
        )
    spec = body.get("spec")
    if spec is not None and not isinstance(spec, str):
        raise ProtocolError("bad-request", "spec must be a string", request_id)
    if action == "set-faults" and not spec:
        raise ProtocolError(
            "bad-request", "set-faults requires a nonempty 'spec' string", request_id
        )
    return AdminRequest(id=request_id, action=action, spec=spec)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def query_response(
    request_id: RequestId,
    verdict: bool,
    source: str,
    key: str,
    name: str = "",
    seconds: float = 0.0,
    trace: Optional[list] = None,
    degraded: bool = False,
) -> Dict[str, Any]:
    """A successful query answer (``winner`` is derived from ``verdict``).

    *trace*, when given, is the per-tier timing breakdown recorded while
    the request moved through the daemon -- a list of
    ``{"span": name, "ms": float, ...}`` objects in recording order.  The
    field is additive: v1 clients that do not know it simply ignore it.

    *degraded* marks an answer computed while the store tier was
    unavailable (circuit breaker open, or a store read failed): the
    verdict is still correct -- it came from the LRU or fresh compute --
    but persistence and store-warm reads were skipped.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown source tier {source!r}")
    body = {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "id": request_id,
        "verdict": bool(verdict),
        "winner": "eve" if verdict else "adam",
        "source": source,
        "key": key,
        "name": name,
        "seconds": round(seconds, 6),
        "degraded": bool(degraded),
    }
    if trace is not None:
        body["trace"] = trace
    return body


def mutate_response(
    request_id: RequestId,
    session: str,
    applied: int,
    dirty: int,
    generation: int,
    seconds: float = 0.0,
    opened: bool = False,
    deduped: bool = False,
    journaled: bool = False,
) -> Dict[str, Any]:
    """A successful mutate answer: what the delta batch touched.

    ``deduped`` marks a retried mutate answered from the session's
    idempotency-token memory without re-applying; ``journaled`` reports
    whether the batch reached the store's session journal (``false`` means
    the session will not survive a daemon crash from this point).
    """
    return {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "id": request_id,
        "session": session,
        "applied": int(applied),
        "dirty": int(dirty),
        "generation": int(generation),
        "opened": bool(opened),
        "seconds": round(seconds, 6),
        "deduped": bool(deduped),
        "journaled": bool(journaled),
    }


def admin_response(
    request_id: RequestId,
    faults: Mapping[str, Any],
    profile: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A successful admin answer: the fault injector's current snapshot.

    ``profile`` (additive, only on the ``profile-*`` actions) carries the
    sampling profiler's status or snapshot.
    """
    body: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "id": request_id,
        "faults": dict(faults),
    }
    if profile is not None:
        body["profile"] = dict(profile)
    return body


def stats_response(request_id: RequestId, stats: Mapping[str, Any]) -> Dict[str, Any]:
    """A successful stats answer (the stats body is additive by design).

    A pool supervisor's aggregated stats add a ``pool`` block with
    per-worker health, restarts, and routing state.
    """
    return {"v": PROTOCOL_VERSION, "ok": True, "id": request_id, "stats": dict(stats)}


def pong_response(request_id: RequestId) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "ok": True, "id": request_id, "pong": True}


def error_response(request_id: RequestId, code: str, message: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "id": request_id,
        "error": {"code": code, "message": message},
    }


def encode_response(response: Mapping[str, Any]) -> str:
    """One JSON line (no trailing newline) for a response object."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))


def parse_response(line: str) -> Dict[str, Any]:
    """Parse one response line (client side), validating version and shape."""
    try:
        body = json.loads(line)
    except ValueError as error:
        raise ProtocolError("bad-json", f"response is not valid JSON: {error}") from None
    if not isinstance(body, dict):
        raise ProtocolError("bad-request", "response must be a JSON object")
    if body.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad-version", f"unsupported response version {body.get('v')!r}"
        )
    if "ok" not in body:
        raise ProtocolError("bad-request", "response is missing the 'ok' field")
    return body
