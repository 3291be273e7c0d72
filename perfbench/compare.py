"""Compare two benchmark result sets and explain the change by layer.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds records appended by ``run.py --out``: end-to-end runs
(``--trace 0``) and traced runs (``--trace 1``), any seeds.  For every
workload the command prints each metric's median and quartiles on both
sides and the change of the medians; an end-to-end change beyond its bound
in ``BENCHMARK.json`` is followed by the per-layer metrics that move it on
that workload.  It exits non-zero when a traced workload's
``layers.coverage`` median is below 0.9 on either side, because the
layers then do not account for the time they are asked to explain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import quartiles  # noqa: E402

COVERAGE_FLOOR = 0.9

_SERVING_READ = ["wire.decode.us", "resolve.us", "lru.us", "wire.encode.us", "transport.us"]
#: workload -> end-to-end metric -> the per-layer metrics that move it.
MOVES: Dict[str, Dict[str, List[str]]] = {
    "sweep-cold": {
        name: ["engine.simulate.ms", "simulator.execute.ms", "engine.direct.ms",
               "engine.kernel.ms", "compile.ms", "canonical.hit_rate", "memo.hit_rate"]
        for name in ("sweep_s", "ops_per_s", "p50_ms")
    },
    "serve-hot": {
        **{name: _SERVING_READ for name in ("sweep_s", "ops_per_s", "p50_ms")},
    },
    "serve-store-rw": {
        **{name: ["store.get.us", "store.hit_rate", *_SERVING_READ]
           for name in ("sweep_s", "p50_ms")},
        "ops_per_s": ["store.get.us", "session.verdict.us", "repair.us",
                      "journal.append.us", *_SERVING_READ],
        "setup_s": ["fill.compute.ms", "fill.put_many.us", "fingerprint.us",
                    "coalesce.batch_size"],
    },
}
for _workload in MOVES:
    MOVES[_workload].setdefault("mutate_p50_ms", ["repair.us", "repair.dirty_nodes", "journal.append.us"])


def load(path: str) -> Dict[Tuple[str, int], Dict[str, List[float]]]:
    """``(workload, trace) -> metric -> values`` from a JSON-lines result file."""
    grouped: Dict[Tuple[str, int], Dict[str, List[float]]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = grouped.setdefault((record["workload"], int(record["trace"])), {})
            for name, entry in record["metrics"].items():
                metrics.setdefault(name, []).append(float(entry["value"]))
            # The ungated p99s, compared like the rest but never flagged.
            tails = record.get("notes", {}).get("tails", {})
            for name in ("p99_ms", "mutate_p99_ms"):
                if name in tails:
                    metrics.setdefault(name, []).append(float(tails[name]))
    return grouped


def load_bounds(path: Optional[str]) -> Dict[str, Tuple[str, float]]:
    """``metric -> (better, bound)`` of the end-to-end metrics."""
    if path is None or not os.path.isfile(path):
        return {}
    with open(path) as handle:
        spec = json.load(handle)
    return {entry["name"]: (entry["better"], entry["bound"]) for entry in spec["end_to_end"]}


def change(base: List[float], head: List[float]) -> Optional[float]:
    """Relative change of the medians (None when the base median is 0)."""
    base_median, head_median = quartiles(base)[1], quartiles(head)[1]
    if base_median == 0:
        return None
    return (head_median - base_median) / abs(base_median)


def _fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"


def _fmt_change(relative: Optional[float]) -> str:
    return "       n/a" if relative is None else f"{relative * 100:+9.1f}%"


def report(base_path: str, head_path: str, bounds_path: Optional[str]) -> Tuple[str, bool]:
    """The comparison text and whether every coverage check passed."""
    base, head = load(base_path), load(head_path)
    bounds = load_bounds(bounds_path)
    lines: List[str] = []
    covered = True
    workloads = sorted({workload for workload, _ in base} | {workload for workload, _ in head})
    for workload in workloads:
        lines.append(f"== {workload}")
        e2e_base, e2e_head = base.get((workload, 0), {}), head.get((workload, 0), {})
        layer_base, layer_head = base.get((workload, 1), {}), head.get((workload, 1), {})
        for name in sorted(set(e2e_base) & set(e2e_head)):
            relative = change(e2e_base[name], e2e_head[name])
            verdict = ""
            if name in bounds and relative is not None:
                better, bound = bounds[name]
                worse = relative > 0 if better == "lower" else relative < 0
                if abs(relative) > bound:
                    verdict = "WORSE" if worse else "better"
            lines.append(f"  {name:<26} base {_fmt(e2e_base[name])}  head {_fmt(e2e_head[name])}"
                         f"  {_fmt_change(relative)}  {verdict}")
            if verdict:
                for layer in MOVES.get(workload, {}).get(name, []):
                    if layer in layer_base and layer in layer_head:
                        lines.append(
                            f"      <- {layer:<24} {quartiles(layer_base[layer])[1]:12.4f}"
                            f" -> {quartiles(layer_head[layer])[1]:12.4f}"
                            f"  {_fmt_change(change(layer_base[layer], layer_head[layer]))}")
        if layer_base and layer_head:
            lines.append("  per layer:")
            for name in sorted(set(layer_base) & set(layer_head)):
                lines.append(f"    {name:<26} base {_fmt(layer_base[name])}  head {_fmt(layer_head[name])}"
                             f"  {_fmt_change(change(layer_base[name], layer_head[name]))}")
        for side, layers in (("base", layer_base), ("head", layer_head)):
            values = layers.get("layers.coverage")
            if values and quartiles(values)[1] < COVERAGE_FLOOR:
                covered = False
                lines.append(f"  FLAG: {side} layers cover only {quartiles(values)[1]:.2f} "
                             f"of the replay (floor {COVERAGE_FLOOR})")
    return "\n".join(lines), covered


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="result records of the parent (run.py --out)")
    parser.add_argument("head", help="result records of the change")
    parser.add_argument("--bounds", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                        help="BENCHMARK.json with the end-to-end bounds")
    args = parser.parse_args(argv)
    text, covered = report(args.base, args.head, args.bounds)
    print(text)
    return 0 if covered else 1


if __name__ == "__main__":
    sys.exit(main())
