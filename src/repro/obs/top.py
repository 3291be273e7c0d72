"""``python -m repro top``: a live terminal dashboard over one daemon.

Polls the HTTP console's ``/stats`` page (:mod:`repro.obs.http`) on an
interval and redraws an ANSI full-screen summary: request rates, the
tier-by-tier hit breakdown, coalescer batching effectiveness, latency
percentiles, dynamic sessions.  Rates are computed from consecutive
snapshots using the server's own ``since_monotonic`` clock -- the
interval between two polls as the *server* measured it -- so a slow
client or a paused terminal never distorts qps.

Everything is stdlib: ``urllib.request`` to fetch, ANSI escapes to
redraw.  ``--once`` prints a single snapshot without screen control
(usable in scripts and CI logs); ``--count N`` exits after N refreshes.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.obs.history import sparkline
from repro.obs.http import DEFAULT_HTTP_PORT

#: Clear screen + home: the whole frame is rewritten every refresh.
_CLEAR = "\x1b[2J\x1b[H"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RESET = "\x1b[0m"


def fetch_stats(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """One ``/stats`` snapshot from the console at *url*."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def restarted(now: Dict[str, Any], prev: Optional[Dict[str, Any]]) -> bool:
    """Did the daemon restart between these two snapshots?

    ``since_monotonic`` is ``time.perf_counter()`` -- machine-wide
    monotonic on Linux, so it usually *survives* a daemon restart; the
    reliable restart tell is ``uptime_seconds`` going backwards.  Both
    are checked: either signal means every counter reset to zero, and
    rates computed across the boundary would come out negative (clamped
    to a misleading 0.0 before this check existed).
    """
    if prev is None:
        return False
    if float(now.get("since_monotonic", 0.0)) < float(prev.get("since_monotonic", 0.0)):
        return True
    return float(now.get("uptime_seconds", 0.0)) < float(prev.get("uptime_seconds", 0.0))


def _rate(now: Dict[str, Any], prev: Optional[Dict[str, Any]], *path: str) -> float:
    """Per-second rate of a counter between two snapshots (0.0 on the first)."""
    if prev is None or restarted(now, prev):
        return 0.0
    dt = float(now.get("since_monotonic", 0.0)) - float(prev.get("since_monotonic", 0.0))
    if dt <= 0.0:
        return 0.0

    def dig(stats: Dict[str, Any]) -> float:
        value: Any = stats
        for part in path:
            if not isinstance(value, dict):
                return 0.0
            value = value.get(part, 0)
        return float(value or 0)

    return max(0.0, (dig(now) - dig(prev)) / dt)


def _ratio(hits: int, misses: int) -> str:
    total = hits + misses
    return f"{100.0 * hits / total:5.1f}%" if total else "    -"


def _ms(seconds: Any) -> str:
    return f"{float(seconds) * 1000.0:8.2f}ms" if seconds is not None else "       -"


def qps_series(samples: List[Dict[str, Any]]) -> List[float]:
    """Query rates between consecutive history samples (oldest first).

    Pairs that straddle a daemon restart (non-positive server-clock
    delta or a counter going backwards) are skipped, not emitted as
    zeros -- a restart is a gap in the series, not a stall.
    """
    rates: List[float] = []
    for older, newer in zip(samples, samples[1:]):
        dt = float(newer.get("since_monotonic", 0.0)) - float(
            older.get("since_monotonic", 0.0)
        )
        delta = float(newer.get("queries", 0)) - float(older.get("queries", 0))
        if dt <= 0.0 or delta < 0:
            continue
        rates.append(delta / dt)
    return rates


def _history_lines(history: Optional[Dict[str, Any]]) -> List[str]:
    """Sparkline rows from a ``/stats/history`` payload (empty if absent)."""
    if not history:
        return []
    samples = history.get("samples") or []
    if len(samples) < 2:
        return []
    lines: List[str] = []
    rates = qps_series(samples)
    if rates:
        lines.append(
            f"{_DIM}history   qps  {sparkline(rates, width=48)}  "
            f"now {rates[-1]:7.1f}/s{_RESET}"
        )
    p99s = [
        float(sample["query_p99_ms"])
        for sample in samples
        if sample.get("query_p99_ms") is not None
    ]
    if p99s:
        lines.append(
            f"{_DIM}          p99  {sparkline(p99s, width=48)}  "
            f"now {p99s[-1]:6.2f}ms{_RESET}"
        )
    return lines


def render(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    history: Optional[Dict[str, Any]] = None,
) -> str:
    """The dashboard frame for one snapshot (pure; no I/O, no ANSI clear)."""
    lines: List[str] = []
    was_restarted = restarted(stats, prev)
    if was_restarted:
        prev = None  # counters reset: this poll is a fresh baseline
    requests = stats.get("requests", {})
    tiers = stats.get("tiers", {})
    lru = tiers.get("lru", {})
    store = tiers.get("store", {})
    compute = tiers.get("compute", {})
    coalescer = stats.get("coalescer", {})
    latency = stats.get("latency", {})
    dynamic = stats.get("dynamic", {})

    qps = _rate(stats, prev, "requests", "query")
    mps = _rate(stats, prev, "requests", "mutate")
    lines.append(
        f"{_BOLD}repro verdict daemon{_RESET}  "
        f"up {stats.get('uptime_seconds', 0.0):10.1f}s  "
        f"pending {stats.get('pending', 0)}/{stats.get('max_pending', '?')} "
        f"(peak {stats.get('peak_pending', 0)})"
    )
    lines.append(
        f"requests  query {requests.get('query', 0):>8} ({qps:7.1f}/s)   "
        f"mutate {requests.get('mutate', 0):>6} ({mps:6.1f}/s)   "
        f"stats {requests.get('stats', 0):>5}   ping {requests.get('ping', 0):>5}"
    )
    lines.append(
        f"errors    {stats.get('errors', 0):>6}   overloaded {stats.get('overloaded', 0):>6}"
    )
    resilience = stats.get("resilience", {})
    breaker = resilience.get("breaker", {})
    if resilience:
        state = breaker.get("state", "?")
        draining = "  DRAINING" if resilience.get("draining") else ""
        lines.append(
            f"breaker   {state:>6}   opened {breaker.get('opened', 0):>3}   "
            f"degraded {resilience.get('degraded', 0):>6}   "
            f"put-fail {store.get('async_put_failures', 0):>5}   "
            f"deadline-exceeded {resilience.get('deadline_exceeded', 0):>4}"
            f"{draining}"
        )
        by_error = store.get("put_failures_by_error") or {}
        if by_error:
            breakdown = "  ".join(
                f"{code}={count}" for code, count in sorted(by_error.items())
            )
            lines.append(f"{_DIM}          put failures: {breakdown}{_RESET}")
        active_faults = (resilience.get("faults") or {}).get("active") or {}
        if active_faults:
            armed = "  ".join(
                f"{name}(rate={rule.get('rate', 1.0):g})"
                for name, rule in sorted(active_faults.items())
            )
            lines.append(f"{_DIM}          faults armed: {armed}{_RESET}")
        if resilience.get("sessions_recovered"):
            lines.append(
                f"{_DIM}          {resilience['sessions_recovered']} session(s) "
                f"recovered from journal{_RESET}"
            )
    lines.append("")
    lines.append(f"{_BOLD}tiers{_RESET}        hits    misses   hit-rate     rate/s")
    lru_hits, lru_misses = int(lru.get("hits", 0)), int(lru.get("misses", 0))
    store_hits, store_misses = int(store.get("hits", 0)), int(store.get("misses", 0))
    lines.append(
        f"  lru     {lru_hits:>8} {lru_misses:>9}   {_ratio(lru_hits, lru_misses)}"
        f"   {_rate(stats, prev, 'tiers', 'lru', 'hits'):8.1f}"
        f"   ({lru.get('size', 0)}/{lru.get('maxsize', '?')} entries)"
    )
    lines.append(
        f"  store   {store_hits:>8} {store_misses:>9}   {_ratio(store_hits, store_misses)}"
        f"   {_rate(stats, prev, 'tiers', 'store', 'hits'):8.1f}"
        f"   ({store.get('size', '-')} stored, {store.get('promotions', 0)} promoted)"
    )
    calls = store.get("calls") or {}
    if calls:
        # Where store calls ran: on the event loop, or hopped to a worker.
        loop = sum(int(paths.get("loop", 0)) for paths in calls.values())
        worker = sum(int(paths.get("worker", 0)) for paths in calls.values())
        detail = "  ".join(
            f"{op} {paths.get('loop', 0)}/{paths.get('worker', 0)}"
            for op, paths in sorted(calls.items())
        )
        lines.append(
            f"{_DIM}          store calls: loop {loop}  worker {worker}"
            f"   (loop/worker: {detail}){_RESET}"
        )
    lines.append(
        f"  compute {int(compute.get('computed', 0)):>8} {'':>9}   {'':>6}"
        f"   {_rate(stats, prev, 'tiers', 'compute', 'computed'):8.1f}"
        f"   ({compute.get('batches', 0)} batches, "
        f"{float(compute.get('seconds', 0.0)):.3f}s engine)"
    )
    lines.append("")
    submitted = int(coalescer.get("submitted", 0))
    batches = int(coalescer.get("batches", 0))
    mean_batch = (int(coalescer.get("batched", 0)) / batches) if batches else 0.0
    lines.append(
        f"{_BOLD}coalescer{_RESET}  submitted {submitted:>7}   "
        f"deduped {coalescer.get('deduped', 0):>6}   "
        f"batches {batches:>5} (mean {mean_batch:4.1f}, "
        f"largest {coalescer.get('largest_batch', 0)})   "
        f"inflight {coalescer.get('inflight', 0)}"
    )
    lines.append("")
    lines.append(f"{_BOLD}latency{_RESET}        count        p50        p95        p99        max")
    for op in ("query", "mutate"):
        snap = latency.get(op, {})
        lines.append(
            f"  {op:<8} {snap.get('count', 0):>9} "
            f" {_ms(snap.get('p50'))} {_ms(snap.get('p95'))}"
            f" {_ms(snap.get('p99'))} {_ms(snap.get('max'))}"
        )
    pool = stats.get("pool")
    if pool:
        lines.append("")
        drain = "  DRAINING" if pool.get("draining") else ""
        lines.append(
            f"{_BOLD}pool{_RESET}      {pool.get('live', 0)}/{pool.get('size', 0)} "
            f"workers serving   restarts {pool.get('restarts', 0):>3}   "
            f"failovers {pool.get('forward_retries', 0):>4}   "
            f"unavailable {pool.get('unavailable', 0):>4}{drain}"
        )
        forwarded = pool.get("forwarded", {}) or {}
        for worker in pool.get("workers", []):
            wid = worker.get("id")
            lines.append(
                f"  w{wid:<3} {worker.get('state', '?'):<10} "
                f"pid {worker.get('pid') or '-':>7}   "
                f"restarts {worker.get('restarts', 0):>3}   "
                f"fwd {int(forwarded.get(str(wid), 0)):>7}"
            )
    sessions = dynamic.get("sessions", 0)
    if sessions:
        lines.append("")
        lines.append(
            f"{_BOLD}dynamic{_RESET}  {sessions} session(s) open "
            f"({dynamic.get('opened', 0)} opened total)"
        )
        for name, info in sorted(dynamic.get("by_session", {}).items()):
            lines.append(
                f"  {name:<16} {info.get('queries', 0):>6} queries  "
                f"{info.get('mutate_batches', 0):>5} mutate batches  "
                f"{info.get('deltas_applied', 0):>6} deltas"
            )
    history_rows = _history_lines(history)
    if history_rows:
        lines.append("")
        lines.extend(history_rows)
    traces = stats.get("traces", {})
    lines.append("")
    profiler = stats.get("profiler") or {}
    trace_line = (
        f"{_DIM}traces retained {traces.get('retained', 0)}/{traces.get('capacity', 0)} "
        f"({traces.get('recorded', 0)} recorded)"
    )
    if profiler.get("running"):
        trace_line += (
            f"   profiler {profiler.get('hz', 0):g}hz "
            f"{profiler.get('samples', 0)} samples"
        )
    lines.append(trace_line + _RESET)
    if was_restarted:
        lines.append(f"{_DIM}(daemon restarted -- rates reset){_RESET}")
    return "\n".join(lines)


def run_top(
    connect: Optional[str] = None,
    interval: float = 1.0,
    once: bool = False,
    count: Optional[int] = None,
    out=None,
) -> int:
    """The ``repro top`` loop: poll, render, redraw until interrupted."""
    out = out if out is not None else sys.stdout
    address = connect or f"127.0.0.1:{DEFAULT_HTTP_PORT}"
    if "://" not in address:
        address = f"http://{address}"
    base = address.rstrip("/")
    url = base + "/stats"
    history_url = base + "/stats/history?limit=120"
    prev: Optional[Dict[str, Any]] = None
    refreshes = 0
    try:
        while True:
            try:
                stats = fetch_stats(url)
            except (urllib.error.URLError, OSError, ValueError) as error:
                print(f"cannot fetch {url}: {error}", file=sys.stderr)
                return 1
            try:
                history = fetch_stats(history_url)
            except (urllib.error.URLError, OSError, ValueError):
                history = None  # older daemon without the endpoint
            frame = render(stats, prev, history=history)
            if once or count is not None:
                print(frame, file=out)
            else:
                print(_CLEAR + frame, file=out, flush=True)
            # A restart frame rendered with a fresh baseline; either way
            # this snapshot is the baseline for the next poll.
            prev = stats
            refreshes += 1
            if once or (count is not None and refreshes >= count):
                return 0
            time.sleep(max(0.05, interval))
    except KeyboardInterrupt:
        print("", file=out)
        return 0
