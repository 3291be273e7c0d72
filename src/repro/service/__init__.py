"""The online verdict service: query the decision procedure as a daemon.

Where :mod:`repro.sweep` is batch-shaped (run a whole scenario, keep the
verdicts), this package serves *single* ``who wins?`` questions at low
latency from a long-lived process:

* :mod:`repro.service.protocol` -- the versioned JSON-lines wire protocol;
* :mod:`repro.service.resolver` -- wire queries (scenario instance or
  inline spec) lowered to game instances and content-addressed store keys;
* :mod:`repro.service.cache` -- the tiered read path: per-process LRU ->
  shared persistent verdict store -> compiled engine, with per-tier
  counters;
* :mod:`repro.service.coalescer` -- in-flight request dedup and a
  micro-batching window grouping compatible misses onto one compiled
  instance;
* :mod:`repro.service.server` -- the asyncio TCP/UNIX daemon with bounded
  admission and explicit ``overloaded`` backpressure;
* :mod:`repro.service.client` -- a small synchronous client with typed
  timeout/transport errors and optional retry with backoff;
* :mod:`repro.service.resilience` -- fault injection (named failpoints),
  the store tier's circuit breaker, and client retry policies;
* :mod:`repro.service.loadgen` -- closed-loop load generation and latency
  percentiles (the source of ``BENCH_service.json``), with a ``--chaos``
  mode that arms failpoints on the daemon for the run.

CLI: ``python -m repro serve`` / ``query`` / ``loadgen``.
"""

from repro.service.cache import ComputeTier, TieredVerdictCache
from repro.service.client import ServiceClient, ServiceError, format_address, parse_address
from repro.service.coalescer import CoalescedResult, CoalescerClosed, RequestCoalescer
from repro.service.loadgen import (
    LoadReport,
    inline_cycle_payloads,
    interleave,
    run_load,
    scenario_payloads,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    AdminRequest,
    MutateRequest,
    PingRequest,
    ProtocolError,
    QueryRequest,
    StatsRequest,
    admin_response,
    encode_request,
    encode_response,
    error_response,
    mutate_response,
    parse_request,
    parse_response,
    pong_response,
    query_response,
    stats_response,
)
from repro.service.resilience import (
    FAILPOINTS,
    RETRYABLE_CODES,
    CircuitBreaker,
    FaultInjector,
    FaultingStore,
    InjectedFault,
    RetryPolicy,
    StoreUnavailable,
    parse_fault_spec,
)
from repro.service.resolver import ResolvedQuery, Resolver
from repro.service.server import (
    ServerThread,
    ServiceConfig,
    VerdictServer,
    VerdictService,
)

__all__ = [
    "ComputeTier",
    "TieredVerdictCache",
    "ServiceClient",
    "ServiceError",
    "format_address",
    "parse_address",
    "CoalescedResult",
    "CoalescerClosed",
    "RequestCoalescer",
    "LoadReport",
    "inline_cycle_payloads",
    "interleave",
    "run_load",
    "scenario_payloads",
    "PROTOCOL_VERSION",
    "AdminRequest",
    "MutateRequest",
    "PingRequest",
    "ProtocolError",
    "QueryRequest",
    "StatsRequest",
    "admin_response",
    "encode_request",
    "encode_response",
    "error_response",
    "mutate_response",
    "parse_request",
    "parse_response",
    "pong_response",
    "query_response",
    "stats_response",
    "FAILPOINTS",
    "RETRYABLE_CODES",
    "CircuitBreaker",
    "FaultInjector",
    "FaultingStore",
    "InjectedFault",
    "RetryPolicy",
    "StoreUnavailable",
    "parse_fault_spec",
    "ResolvedQuery",
    "Resolver",
    "ServerThread",
    "ServiceConfig",
    "VerdictServer",
    "VerdictService",
]
