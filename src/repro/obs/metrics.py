"""The telemetry core: counters, gauges, histograms, event logs, one registry.

Every layer of the serving stack used to keep its own hand-rolled counter
dicts (``request_counts`` in the daemon, ``store_hits`` ints in the tiered
cache, ``memo_hits`` in the compiled core) that only the ``stats`` request
could see.  This module is the shared replacement: a
:class:`MetricsRegistry` of named, optionally labelled instruments that
any layer can create cheaply and any surface -- the ``stats`` wire
response, the HTTP console's ``/metrics`` page, ``python -m repro top`` --
can read uniformly.  There is no process-wide registry: each daemon, pool
and tier owns the registry it is given or creates.

Four instrument kinds, all thread-safe:

* :class:`Counter` -- a monotonic count (requests served, cache hits).
* :class:`Gauge` -- a point-in-time value (pending queries, cache size).
* :class:`Histogram` -- fixed-bucket latency/size distribution with
  estimated percentiles (p50/p95/p99 by linear interpolation inside the
  bucket that crosses the rank; exact min/max/sum/count are tracked on
  the side).  Buckets are cumulative-``le`` style, so the exposition
  matches Prometheus histogram semantics bit for bit.
* :class:`EventLog` -- a bounded ring buffer of timestamped events (the
  accountability angle: an append-only record of what the service did,
  with the oldest entries evicted once the capacity is reached).

Instruments are get-or-create: asking the registry twice for the same
``(name, labels)`` returns the same object, so modules can declare their
instruments where they use them without an initialization order.
:meth:`MetricsRegistry.render_prometheus` serializes everything in the
Prometheus text exposition format (version 0.0.4).
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets in **seconds** (100us .. 10s), for server-side
#: request/solve timings.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default latency buckets in **milliseconds** (50us .. 10s), for
#: client-side measurements (the load generator records ms).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

#: Label sets are stored as a sorted tuple of (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _label_set(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelSet, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    escaped = ",".join(
        '{}="{}"'.format(
            key, value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        for key, value in pairs
    )
    return "{" + escaped + "}"


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways (thread-safe)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = (), help: str = "") -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket distribution with estimated percentiles (thread-safe).

    ``bounds`` are the inclusive upper edges (``le``) of the finite
    buckets, ascending; everything larger lands in the implicit ``+Inf``
    overflow bucket.  :meth:`percentile` walks the cumulative counts to
    the bucket containing the requested rank and interpolates linearly
    inside it, clamping to the exact observed min/max -- within one bucket
    width of the truth by construction, which is all an operator's
    p50/p95/p99 needs.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "help", "bounds",
        "_lock", "_counts", "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
        labels: LabelSet = (),
        help: str = "",
    ) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.labels = labels
        self.help = help
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentile(self, fraction: float) -> float:
        """The estimated *fraction*-quantile (0.0 on an empty histogram)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            target = fraction * total
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    cumulative += bucket_count
                    continue
                if cumulative + bucket_count >= target:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else (self._max if self._max is not None else lower)
                    )
                    inside = max(0.0, target - cumulative) / bucket_count
                    estimate = lower + (upper - lower) * inside
                    if self._min is not None:
                        estimate = max(estimate, self._min)
                    if self._max is not None:
                        estimate = min(estimate, self._max)
                    return estimate
                cumulative += bucket_count
            return self._max if self._max is not None else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``."""
        with self._lock:
            pairs: List[Tuple[float, int]] = []
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, self._counts):
                cumulative += bucket_count
                pairs.append((bound, cumulative))
            pairs.append((float("inf"), self._count))
            return pairs

    def snapshot(self) -> Dict[str, Any]:
        buckets = self.cumulative_buckets()
        with self._lock:
            count, total = self._count, self._sum
            minimum, maximum = self._min, self._max
        return {
            "count": count,
            "sum": round(total, 6),
            "min": round(minimum, 6) if minimum is not None else None,
            "max": round(maximum, 6) if maximum is not None else None,
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "p99": round(self.percentile(0.99), 6),
            "buckets": [
                [bound if bound != float("inf") else "+Inf", cumulative]
                for bound, cumulative in buckets
            ],
        }


class EventLog:
    """A bounded ring buffer of timestamped events (thread-safe).

    Appending past the capacity evicts the oldest entry; ``dropped``
    counts how many were lost that way, so a reader can tell a quiet
    service from one whose history outran the buffer.
    """

    kind = "events"
    __slots__ = ("name", "labels", "help", "capacity", "_lock", "_events", "_total")

    def __init__(
        self, name: str, capacity: int = 256, labels: LabelSet = (), help: str = ""
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.name = name
        self.labels = labels
        self.help = help
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._total = 0

    def append(self, kind: str, **fields: Any) -> None:
        event = {"time": time.time(), "kind": kind, **fields}
        with self._lock:
            self._events.append(event)
            self._total += 1

    @property
    def total(self) -> int:
        return self._total

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._total - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def snapshot(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """The retained events, newest first (all of them by default)."""
        with self._lock:
            events = list(self._events)
        events.reverse()
        return events[:limit] if limit is not None else events


class MetricsRegistry:
    """Named instruments, get-or-create, one exposition surface.

    Each :class:`~repro.service.server.VerdictService` owns a private
    registry and hands it to its tiers, so several daemons in one test
    process never share counters.
    """

    def __init__(self, sample_capacity: int = 256) -> None:
        if sample_capacity < 1:
            raise ValueError("sample_capacity must be positive")
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelSet], Any] = {}
        self.sample_capacity = sample_capacity
        self._samples: deque = deque(maxlen=sample_capacity)
        self._samples_total = 0

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, labels, help: str, **kwargs):
        key = (name, _label_set(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, labels=key[1], help=help, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None, help: str = ""
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_SECONDS,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, help, buckets=buckets)

    def events(
        self,
        name: str,
        capacity: int = 256,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> EventLog:
        return self._get_or_create(EventLog, name, labels, help, capacity=capacity)

    # ------------------------------------------------------------------
    # Snapshot sample ring: the time dimension of the registry.  Each
    # stats poll records a compact sample; the bounded ring powers the
    # console's /stats/history page and the sparklines in ``repro top``.
    # ------------------------------------------------------------------
    def record_sample(self, sample: Mapping[str, Any]) -> Dict[str, Any]:
        """Append a timestamped snapshot sample (evicting the oldest)."""
        entry = {"time": time.time(), **sample}
        with self._lock:
            self._samples.append(entry)
            self._samples_total += 1
        return entry

    @property
    def samples_total(self) -> int:
        return self._samples_total

    @property
    def samples_dropped(self) -> int:
        """How many samples the ring evicted (EventLog-style accounting)."""
        with self._lock:
            return self._samples_total - len(self._samples)

    def samples(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Retained samples, oldest first (``limit`` keeps the newest tail)."""
        with self._lock:
            entries = list(self._samples)
        if limit is not None and limit >= 0:
            entries = entries[-limit:] if limit else []
        return entries

    def sample_stats(self) -> Dict[str, Any]:
        with self._lock:
            retained = len(self._samples)
            recorded = self._samples_total
        return {
            "capacity": self.sample_capacity,
            "retained": retained,
            "recorded": recorded,
            "dropped": recorded - retained,
        }

    # ------------------------------------------------------------------
    def collect(self) -> List[Any]:
        """Every registered instrument, sorted by (name, labels)."""
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _key, instrument in items]

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump: ``name{labels} -> value`` for every instrument."""
        dump: Dict[str, Any] = {}
        for instrument in self.collect():
            key = instrument.name + _render_labels(instrument.labels)
            if isinstance(instrument, EventLog):
                dump[key] = {"events": len(instrument), "dropped": instrument.dropped}
            else:
                dump[key] = instrument.snapshot()
        return dump

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (version 0.0.4) of every metric.

        Event logs are exposed as two synthetic counters
        (``<name>_events_total`` and ``<name>_dropped_total``) -- the
        events themselves are browse-surface data, not time series.
        """
        lines: List[str] = []
        seen_header: set = set()

        def header(name: str, kind: str, help_text: str) -> None:
            if name in seen_header:
                return
            seen_header.add(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for instrument in self.collect():
            if isinstance(instrument, Counter):
                header(instrument.name, "counter", instrument.help)
                lines.append(
                    f"{instrument.name}{_render_labels(instrument.labels)} "
                    f"{instrument.value}"
                )
            elif isinstance(instrument, Gauge):
                header(instrument.name, "gauge", instrument.help)
                value = instrument.value
                rendered = repr(value) if isinstance(value, float) else str(value)
                lines.append(
                    f"{instrument.name}{_render_labels(instrument.labels)} {rendered}"
                )
            elif isinstance(instrument, Histogram):
                header(instrument.name, "histogram", instrument.help)
                for bound, cumulative in instrument.cumulative_buckets():
                    le = "+Inf" if bound == float("inf") else repr(bound)
                    lines.append(
                        f"{instrument.name}_bucket"
                        f"{_render_labels(instrument.labels, ('le', le))} {cumulative}"
                    )
                lines.append(
                    f"{instrument.name}_sum{_render_labels(instrument.labels)} "
                    f"{repr(instrument.sum)}"
                )
                lines.append(
                    f"{instrument.name}_count{_render_labels(instrument.labels)} "
                    f"{instrument.count}"
                )
            elif isinstance(instrument, EventLog):
                header(instrument.name + "_events_total", "counter", instrument.help)
                lines.append(
                    f"{instrument.name}_events_total"
                    f"{_render_labels(instrument.labels)} {instrument.total}"
                )
                header(instrument.name + "_dropped_total", "counter", "")
                lines.append(
                    f"{instrument.name}_dropped_total"
                    f"{_render_labels(instrument.labels)} {instrument.dropped}"
                )
        return "\n".join(lines) + "\n"
