"""Benchmark history: an append-only perf record with a regression gate.

The ``BENCH_*.json`` artifacts are point-in-time snapshots that each
benchmark run clobbers -- fine for "what did this commit measure", useless
for "is the repo getting slower".  Following the accountable append-only
log ethos of the pod abstraction (Alpos et al.), this module turns them
into an auditable trajectory: ``repro bench`` collects the tracked
metrics out of the fresh snapshots and *appends* one record (git sha,
timestamp, python/cpu, metrics) to ``BENCH_history.jsonl``.  Records are
never rewritten; the file replays into the full perf history of the
branch.

``repro bench --check`` is the gate.  For each tracked metric it
enforces two things against the newest record:

* an **absolute floor/ceiling** where one exists (the hard invariants CI
  used to check with inline python snippets -- e.g. the engine must
  beat the exhaustive solver by >= 5x, dynamic repair must do zero full
  rebuilds), and
* **drift** against the median of a window of previous records: with the
  default threshold factor of 1.5, a genuine 2x slowdown trips the gate
  while the +/-10% noise of a shared CI runner does not.  The median
  baseline means one historical outlier cannot poison the gate either
  way.

The same history feeds the console's ``/bench`` page and the sparklines
in ``repro top`` (via :func:`sparkline`).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The history file name, created next to the ``BENCH_*.json`` snapshots.
DEFAULT_HISTORY_FILENAME = "BENCH_history.jsonl"

#: Benchmark suites runnable via ``repro bench`` (name -> pytest file).
SUITES: Dict[str, str] = {
    "fig02": "bench_fig02_hierarchy.py",
    "fig07": "bench_fig07_locality_comparison.py",
    "canonical": "bench_canonical.py",
    "service": "bench_service.py",
    "dynamic": "bench_dynamic.py",
}


class MetricSpec:
    """One tracked number: where it lives, which way is better, hard bounds."""

    __slots__ = ("name", "source", "path", "direction", "floor", "ceiling")

    def __init__(
        self,
        name: str,
        source: str,
        path: Sequence[str],
        direction: str = "higher",
        floor: Optional[float] = None,
        ceiling: Optional[float] = None,
    ) -> None:
        if direction not in ("higher", "lower"):
            raise ValueError("direction must be 'higher' or 'lower'")
        self.name = name
        self.source = source  # BENCH_<source>.json
        self.path = tuple(path)
        self.direction = direction
        self.floor = floor
        self.ceiling = ceiling


#: Every metric the gate watches.  Floors/ceilings mirror the invariants
#: CI previously enforced with inline snippets; ratio metrics also get
#: drift checking against the history window.  Ratios over the engine's
#: cold path (``*_vs_cold``, ``repair_vs_recompute``) have no floor: they
#: fall whenever that path gets faster, and the benchmarks' own asserts
#: gate the mechanism behind them.
TRACKED_METRICS: List[MetricSpec] = [
    MetricSpec("fig02.engine_vs_naive", "fig02",
               ("engine_vs_naive", "speedup_median"), "higher", floor=5.0),
    MetricSpec("fig02.figure2_cold_seconds", "fig02",
               ("figure2_cold_median_seconds",), "lower"),
    MetricSpec("fig07.sweep_locality_seconds", "fig07",
               ("sweep_locality_median_seconds",), "lower"),
    MetricSpec("service.hot_vs_cold", "service",
               ("speedup_hot_vs_cold",), "higher"),
    MetricSpec("service.warm_vs_cold", "service",
               ("speedup_warm_vs_cold",), "higher"),
    MetricSpec("service.hot_qps", "service",
               ("hot_cache", "requests_per_second"), "higher"),
    MetricSpec("service.hot_p99_ms", "service",
               ("hot_cache", "latency_ms", "p99"), "lower"),
    MetricSpec("service.hot_hit_rate", "service",
               ("hot_cache", "cache_hit_rate"), "higher", floor=0.5),
    MetricSpec("dynamic.repair_vs_recompute", "dynamic",
               ("repair_vs_recompute", "speedup_median"), "higher"),
    MetricSpec("dynamic.repair_seconds", "dynamic",
               ("repair_vs_recompute", "repair_median_seconds"), "lower"),
    MetricSpec("dynamic.full_rebuilds", "dynamic",
               ("trace", "full_rebuilds"), "lower", ceiling=0.0),
    MetricSpec("canonical.cold_hits", "canonical",
               ("cold", "hits"), "higher", floor=1.0),
    MetricSpec("canonical.cold_hit_rate", "canonical",
               ("cold", "hit_rate"), "higher", floor=1e-9),
    MetricSpec("canonical.store_hits", "canonical",
               ("store_backed", "store_hits"), "higher", floor=1.0),
    MetricSpec("canonical.sweep_hit_rate", "canonical",
               ("sweep", "hit_rate"), "higher", floor=1e-9),
]


def _dig(payload: Dict[str, Any], path: Sequence[str]) -> Optional[float]:
    node: Any = payload
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def collect_metrics(bench_dir: Path) -> Dict[str, float]:
    """Read every tracked metric out of the ``BENCH_*.json`` snapshots.

    Missing snapshot files or paths are simply absent from the result --
    a partial benchmark run records what it measured.
    """
    metrics: Dict[str, float] = {}
    payloads: Dict[str, Optional[Dict[str, Any]]] = {}
    for spec in TRACKED_METRICS:
        if spec.source not in payloads:
            path = bench_dir / f"BENCH_{spec.source}.json"
            try:
                payloads[spec.source] = json.loads(path.read_text())
            except (OSError, ValueError):
                payloads[spec.source] = None
        payload = payloads[spec.source]
        if payload is None:
            continue
        value = _dig(payload, spec.path)
        if value is not None:
            metrics[spec.name] = value
    return metrics


def git_sha(repo_dir: Optional[Path] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=10,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_record(
    metrics: Dict[str, float], repo_dir: Optional[Path] = None
) -> Dict[str, Any]:
    return {
        "ts": round(time.time(), 3),
        "git_sha": git_sha(repo_dir),
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "metrics": dict(metrics),
    }


def append_record(history_path: Path, record: Dict[str, Any]) -> None:
    """Append one record; the file is never rewritten."""
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_history(history_path: Path) -> List[Dict[str, Any]]:
    """All records, oldest first; malformed lines are skipped, not fatal."""
    records: List[Dict[str, Any]] = []
    try:
        text = Path(history_path).read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and isinstance(record.get("metrics"), dict):
            records.append(record)
    return records


class CheckResult:
    """The regression gate's verdict: per-metric rows plus pass/fail."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []

    @property
    def failures(self) -> List[Dict[str, Any]]:
        return [row for row in self.rows if not row["ok"]]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {"ok": self.ok, "rows": self.rows}


def check(
    records: List[Dict[str, Any]],
    window: int = 5,
    threshold: float = 1.5,
) -> CheckResult:
    """Gate the newest record against floors/ceilings and windowed drift.

    ``threshold`` is a *factor*: a metric fails drift when it is worse
    than the baseline (median of up to ``window`` prior records) by more
    than that factor.  1.5 means a 2x slowdown trips, +/-10% noise never
    does.  Metrics with fewer than one prior observation skip drift and
    only face their absolute bounds.
    """
    if threshold <= 1.0:
        raise ValueError("threshold factor must be > 1.0")
    result = CheckResult()
    if not records:
        result.rows.append(
            {
                "metric": "(history)",
                "ok": False,
                "reason": "no records in history",
                "value": None,
                "baseline": None,
            }
        )
        return result
    newest = records[-1]
    prior = records[:-1]
    for spec in TRACKED_METRICS:
        value = newest.get("metrics", {}).get(spec.name)
        if value is None:
            continue  # not measured this run
        value = float(value)
        row: Dict[str, Any] = {
            "metric": spec.name,
            "direction": spec.direction,
            "value": value,
            "baseline": None,
            "ok": True,
            "reason": "ok",
        }
        if spec.floor is not None and value < spec.floor:
            row["ok"] = False
            row["reason"] = f"below floor {spec.floor:g}"
        if spec.ceiling is not None and value > spec.ceiling:
            row["ok"] = False
            row["reason"] = f"above ceiling {spec.ceiling:g}"
        history_values = [
            float(record["metrics"][spec.name])
            for record in prior[-window:]
            if spec.name in record.get("metrics", {})
        ]
        if row["ok"] and history_values:
            baseline = statistics.median(history_values)
            row["baseline"] = round(baseline, 6)
            if baseline > 0 and value > 0:
                ratio = (
                    baseline / value if spec.direction == "higher" else value / baseline
                )
                if ratio > threshold:
                    row["ok"] = False
                    row["reason"] = (
                        f"regressed {ratio:.2f}x vs window median "
                        f"{baseline:g} (threshold {threshold:g}x)"
                    )
        result.rows.append(row)
    if not result.rows:
        result.rows.append(
            {
                "metric": "(metrics)",
                "ok": False,
                "reason": "newest record tracks no known metrics",
                "value": None,
                "baseline": None,
            }
        )
    return result


# ----------------------------------------------------------------------
# Rendering helpers (console /bench page, repro top)
# ----------------------------------------------------------------------
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Iterable[float], width: Optional[int] = None) -> str:
    """A unicode sparkline of *values* (empty string for no data)."""
    series = [float(v) for v in values]
    if width is not None and width > 0:
        series = series[-width:]
    if not series:
        return ""
    low = min(series)
    high = max(series)
    if high <= low:
        return _SPARK_BLOCKS[0] * len(series)
    scale = (len(_SPARK_BLOCKS) - 1) / (high - low)
    return "".join(
        _SPARK_BLOCKS[int(round((value - low) * scale))] for value in series
    )


def metric_series(
    records: List[Dict[str, Any]], name: str, limit: Optional[int] = None
) -> List[float]:
    """One metric's trajectory across *records* (oldest first)."""
    series = [
        float(record["metrics"][name])
        for record in records
        if name in record.get("metrics", {})
    ]
    return series[-limit:] if limit is not None else series
