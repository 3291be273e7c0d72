"""Benchmark history: perfbench's records, append-only, and their gate.

``repro bench`` runs ``perfbench/run.py`` for each workload of
``BENCHMARK.json``, end to end (``--trace 0``) and then layer by layer
(``--trace 1``), and each run *appends* its full record -- workload,
seed, seconds, size, run context with ``src_loc``, metrics -- as one
line of ``BENCH_history.jsonl``.  Following the accountable append-only
log ethos of the pod abstraction (Alpos et al.), records are never
rewritten; the file replays into the full perf history of the branch.

``repro bench --check`` is the gate, and it applies the merge gate's
rule: for each end-to-end metric of ``BENCHMARK.json``, the end-to-end
record just appended is compared with the median of a window of earlier
end-to-end records of the same workload, ``seconds`` and ``size``
(:func:`baseline`), and the metric fails when its change in its worse
direction exceeds its ``bound`` (:func:`check`, the rule of
``perfbench/compare.py:change``).  The median means one historical
outlier cannot poison the gate either way.

The same history feeds the console's ``/bench`` page (via
:func:`metric_series` and :func:`sparkline`); ``repro top`` draws its
sparklines with :func:`sparkline` too.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: The history file name.
DEFAULT_HISTORY_FILENAME = "BENCH_history.jsonl"

#: The checkout this package runs from: ``BENCHMARK.json`` and
#: ``perfbench/`` live here.
REPO_ROOT = Path(__file__).resolve().parents[3]


def default_history_path() -> Path:
    """``BENCH_history.jsonl`` in ``$BENCH_OUTPUT_DIR``, else the repo root.

    Absolute, because ``perfbench/run.py`` changes to the repo root before
    it appends.
    """
    return Path(os.environ.get("BENCH_OUTPUT_DIR") or REPO_ROOT).resolve() / (
        DEFAULT_HISTORY_FILENAME
    )


def _is_record(record: Any) -> bool:
    """A perfbench record: a workload, a trace and ``{name: {"value": v}}``."""
    if not isinstance(record, dict) or not isinstance(record.get("workload"), str):
        return False
    if not isinstance(record.get("trace"), int):
        return False
    metrics = record.get("metrics")
    return isinstance(metrics, dict) and all(
        isinstance(entry, dict) and isinstance(entry.get("value"), (int, float))
        for entry in metrics.values()
    )


def read_history(history_path: Path) -> List[Dict[str, Any]]:
    """Every perfbench record, oldest first.

    Malformed lines and lines that are not perfbench records are skipped,
    not fatal; a missing file reads as empty.
    """
    records: List[Dict[str, Any]] = []
    try:
        text = Path(history_path).read_text(encoding="utf-8")
    except OSError:
        return records
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if _is_record(record):
            records.append(record)
    return records


def baseline(
    records: List[Dict[str, Any]], workload: str, trace: int, window: int
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """The newest record of *workload* at *trace*, and up to *window*
    records before it at its ``seconds`` and ``size`` (``(None, [])`` when
    the workload has no such record)."""
    runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
    if not runs:
        return None, []
    newest = runs[-1]
    earlier = [
        r
        for r in runs[:-1]
        if r.get("seconds") == newest.get("seconds") and r.get("size") == newest.get("size")
    ]
    return newest, earlier[-window:]


def check(
    newest: Dict[str, Any],
    earlier: List[Dict[str, Any]],
    end_to_end: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """One row per end-to-end metric: *newest*'s value, the median of
    *earlier*, the relative change and whether it stays within ``bound``.

    *end_to_end* is ``BENCHMARK.json``'s list of ``{"name", "better",
    "bound"}``.  A metric fails when *newest* lacks it, or when it changed
    in its worse direction by more than its bound; with no earlier record
    it passes with "no baseline", and a zero baseline median gives no
    change to gate.
    """
    rows: List[Dict[str, Any]] = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        entry = newest["metrics"].get(name)
        value = None if entry is None else float(entry["value"])
        values = [float(r["metrics"][name]["value"]) for r in earlier if name in r["metrics"]]
        median = statistics.median(values) if values else None
        change = None
        if value is None:
            ok, reason = False, "missing from this run"
        elif median is None:
            ok, reason = True, "no baseline"
        elif median == 0:
            ok, reason = True, f"zero baseline over {len(values)} runs"
        else:
            change = (value - median) / abs(median)
            worse = change > 0 if spec["better"] == "lower" else change < 0
            ok = not (worse and abs(change) > bound)
            reason = f"{change * 100:+.1f}% vs median of {len(values)} (bound {bound * 100:g}%)"
        rows.append(
            {
                "workload": newest["workload"],
                "metric": name,
                "better": spec["better"],
                "bound": bound,
                "value": value,
                "baseline": median,
                "change": change,
                "ok": ok,
                "reason": reason,
            }
        )
    return rows


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
    records: List[Dict[str, Any]]
) -> Dict[Tuple[str, str], Tuple[str, List[float]]]:
    """``(workload, metric) -> (unit, values)`` of every end-to-end metric
    in *records*, oldest first, then ``("", "context.src_loc")``: the
    ``src/`` line count each end-to-end run recorded beside them."""
    series: Dict[Tuple[str, str], Tuple[str, List[float]]] = {}
    src_loc: List[float] = []
    for record in records:
        if record["trace"] != 0:
            continue
        for name, entry in record["metrics"].items():
            unit = str(entry.get("unit", ""))
            series.setdefault((record["workload"], name), (unit, []))[1].append(
                float(entry["value"])
            )
        context = record.get("context")
        if isinstance(context, dict) and isinstance(context.get("src_loc"), int):
            src_loc.append(float(context["src_loc"]))
    if src_loc:
        series[("", "context.src_loc")] = ("lines", src_loc)
    return series
