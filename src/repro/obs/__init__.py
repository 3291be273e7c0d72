"""Observability for the verdict service: the performance observatory.

* :mod:`repro.obs.metrics` -- the instrument registry (counters, gauges,
  fixed-bucket histograms, bounded event logs, snapshot sample ring)
  with Prometheus text exposition.
* :mod:`repro.obs.trace` -- per-request trace spans carried in a context
  variable, plus the bounded ring of recent traces.
* :mod:`repro.obs.export` -- the TraceLog rendered as Chrome trace-event
  JSON (Perfetto-loadable timelines).
* :mod:`repro.obs.prof` -- the continuous sampling profiler (folded
  stacks + top-N frames from ``sys._current_frames()``).
* :mod:`repro.obs.log` -- structured JSON-lines logging with request-id
  correlation off the ambient trace.
* :mod:`repro.obs.history` -- the append-only benchmark history
  (``BENCH_history.jsonl`` of perfbench records) and its gate at the
  ``BENCHMARK.json`` bounds.
* :mod:`repro.obs.http` -- the stdlib-only asyncio HTTP console
  (``/stats``, ``/metrics``, ``/profile``, browse pages) served next to
  the daemon's TCP protocol by ``repro serve --http``.
* :mod:`repro.obs.top` -- ``python -m repro top``, the live-refresh
  terminal client of the console's ``/stats`` endpoint.
"""

from repro.obs.export import chrome_trace, render_chrome_trace, trace_events
from repro.obs.history import (
    DEFAULT_HISTORY_FILENAME,
    check,
    default_history_path,
    read_history,
    sparkline,
)
from repro.obs.log import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    LATENCY_BUCKETS_SECONDS,
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.prof import SamplingProfiler
from repro.obs.trace import (
    RequestTrace,
    SpanRecord,
    TraceLog,
    activate,
    active,
    current_trace,
    deactivate,
    span,
)

__all__ = [
    "LATENCY_BUCKETS_MS",
    "LATENCY_BUCKETS_SECONDS",
    "Counter",
    "DEFAULT_HISTORY_FILENAME",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SamplingProfiler",
    "StructuredLogger",
    "RequestTrace",
    "SpanRecord",
    "TraceLog",
    "activate",
    "active",
    "check",
    "chrome_trace",
    "configure",
    "current_trace",
    "deactivate",
    "default_history_path",
    "get_logger",
    "read_history",
    "render_chrome_trace",
    "span",
    "sparkline",
    "trace_events",
]
