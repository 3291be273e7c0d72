"""The repository's benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays the same seeded inputs in-process with a timer
around the public function of every layer and reports the per-layer
metrics instead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` also appends the full record
(seed, run context, notes) as one JSON line, the input of ``compare.py``.
The exit code is non-zero when any answer was wrong or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import run_context  # noqa: E402

WORKLOADS = ("sweep-cold", "serve-hot", "serve-store-rw")


def metric_units(trace: int) -> dict:
    """``name -> unit`` of the metrics a run reports, from ``BENCHMARK.json``:
    the end-to-end ones untraced, the per-layer ones traced (every workload
    reports all of them, 0 for a layer it never enters)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="working-set scale (tiny: the harness self-tests)")
    parser.add_argument("--out", default=None, help="append the full result record to this JSON-lines file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro package under {ROOT}/src: nothing to benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    started = time.time()
    units = metric_units(args.trace)
    try:
        if args.trace:
            import layers

            outcome = layers.traced(args.workload, ROOT, workdir, args.seed, args.seconds, args.size)
        elif args.workload == "sweep-cold":
            outcome = workloads.sweep_cold(ROOT, args.seed, args.seconds, args.size)
        else:
            outcome = workloads.serve(args.workload, ROOT, workdir, args.seed, args.seconds, args.size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it

    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    checker = outcome.checker
    failed = checker.failed + checker.wrong
    context = run_context(ROOT)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "started": started,
        "context": context,
        "notes": outcome.notes,
        "error_rate": failed / max(1, checker.attempted),
        "correct": failed == 0,
        "attempted": max(1, checker.attempted),
        "failed": failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": units[name]} for name in units},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"context {json.dumps(context, sort_keys=True)}")
    print(f"notes {json.dumps(outcome.notes, sort_keys=True)}")
    for problem in checker.problems:
        print(f"problem: {problem}")
    print(f"attempted {record['attempted']}  failed {checker.failed}  wrong {checker.wrong}  "
          f"error_rate {record['error_rate']:.6f}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<28} {entry['value']:>14.6f} {entry['unit']}")
    tails = outcome.notes.get("tails", {})
    for name in ("p99_ms", "mutate_p99_ms"):
        if name in tails:
            print(f"  {name:<28} {tails[name]:>14.6f} ms  "
                  f"({tails[name[:-3] + '_samples']} samples; reported, not gated)")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
