"""Command-line front end: sweeps, and the online verdict service.

Examples
--------
List what can be swept::

    python -m repro scenarios

Run the CI smoke scenario on two processes against a persistent store,
also dumping machine-readable results::

    python -m repro sweep smoke --jobs 2 --store verdicts.sqlite --json out.json

A second run against the same store answers everything from cache.

Serve single-verdict queries online from the same store (see
:mod:`repro.service.cli` for ``serve`` / ``query`` / ``loadgen``)::

    python -m repro serve --store sqlite://verdicts.sqlite
    python -m repro query --scenario separations --index 3
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import history as bench_history
from repro.service.cli import add_service_commands
from repro.sweep.executor import run_scenario
from repro.sweep.scenarios import all_scenarios, get_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sweep orchestrator and online verdict service "
        "for the certificate-game engine.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep", help="run a registered sweep scenario")
    sweep.add_argument("scenario", help="scenario name (see `python -m repro scenarios`)")
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="number of parallel worker processes (<= 1: in-process)",
    )
    sweep.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent SQLite verdict store (sqlite:// scheme or a bare path)",
    )
    sweep.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="write the machine-readable sweep result to this file ('-' for stdout)",
    )
    sweep.add_argument(
        "--limit", type=int, default=None, help="run only the first N instances"
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress the result table (summary only)"
    )

    commands.add_parser("scenarios", help="list the registered sweep scenarios")

    dynamic = commands.add_parser(
        "dynamic",
        help="replay a dynamic scenario's mutation trace with verdict repair",
    )
    dynamic.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="dynamic scenario name (omit to list the dynamic-* family)",
    )
    dynamic.add_argument(
        "--verify",
        action="store_true",
        help="differentially check every repaired verdict against a full recompute",
    )
    dynamic.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="write the machine-readable replay result to this file ('-' for stdout)",
    )
    dynamic.set_defaults(handler=_command_dynamic)

    profile = commands.add_parser(
        "profile",
        help="run a scenario under cProfile, or read a live daemon's sampling profiler",
    )
    profile.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="scenario name (see `python -m repro scenarios`); omit with --live",
    )
    profile.add_argument(
        "--live",
        default=None,
        metavar="ADDR",
        help="read the continuous sampling profiler of a running daemon's "
        "HTTP console (host:port; start sampling with `serve --profile-hz` "
        "or the profile-start admin action)",
    )
    profile.add_argument(
        "--top", type=int, default=25, help="how many call sites to print"
    )
    profile.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "ncalls"),
        default="cumulative",
        help="pstats sort order (--live maps tottime to self samples)",
    )
    profile.add_argument(
        "--limit", type=int, default=None, help="profile only the first N instances"
    )
    profile.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="run against a persistent verdict store (profiles the warm path)",
    )
    profile.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write the top call sites as structured JSON ('-' for stdout)",
    )
    profile.set_defaults(handler=_command_profile)

    bench = commands.add_parser(
        "bench",
        help="run perfbench's workloads, append their records to "
        "BENCH_history.jsonl, gate at the BENCHMARK.json bounds",
    )
    bench.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="workloads of BENCHMARK.json to run (default: all of them)",
    )
    bench.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured window of each run (default: BENCHMARK.json's run_seconds)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="gate: fail if an end-to-end metric of this run got worse than "
        "the median of the --window earlier runs by more than its bound",
    )
    bench.add_argument(
        "--window",
        type=int,
        default=5,
        help="baseline: the median of this many earlier runs of the workload "
        "at the same --seconds",
    )
    bench.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help="history file (default: BENCH_history.jsonl in $BENCH_OUTPUT_DIR, "
        "else the repo root)",
    )
    bench.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="with --check, write its rows as JSON ('-' for stdout)",
    )
    bench.set_defaults(handler=_command_bench)

    add_service_commands(commands)
    return parser


def _command_scenarios() -> int:
    for scenario in all_scenarios():
        count = len(scenario.instances())
        tags = f" [{', '.join(scenario.tags)}]" if scenario.tags else ""
        print(f"{scenario.name:<18} {count:>3} instances{tags}  {scenario.description}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    try:
        get_scenario(args.scenario)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    result = run_scenario(
        args.scenario, jobs=args.jobs, store=args.store, limit=args.limit
    )
    if args.json == "-":
        print(result.to_json())
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
    if not args.quiet and args.json != "-":
        print(result.table())
    elif not args.quiet:
        print(
            f"{len(result.results)} instances: {result.cold_count} solved, "
            f"{result.cached_count} from store, {result.total_seconds:.3f}s total",
            file=sys.stderr,
        )
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    """``python -m repro profile <scenario>``: cProfile over one sweep.

    Used to validate engine optimizations: the printout shows where a cold
    (or warm, with ``--store``) scenario run actually spends its time, the
    top call sites first.  Profiling always runs in-process (``jobs=1``) --
    a fork pool would hide the workers from the profiler.
    """
    import cProfile
    import pstats

    if args.live is not None:
        return _command_profile_live(args)
    if args.scenario is None:
        print("profile needs a scenario name (or --live ADDR)", file=sys.stderr)
        return 2
    try:
        get_scenario(args.scenario)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_scenario(
        args.scenario, jobs=1, store=args.store, limit=args.limit
    )
    profiler.disable()
    summary = (
        f"profiled scenario {args.scenario!r}: {len(result.results)} instances, "
        f"{result.cold_count} solved, {result.cached_count} from store, "
        f"{result.total_seconds:.3f}s total"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort)
    if args.json is not None:
        payload = _profile_json(stats, args)
        payload["summary"] = {
            "scenario": args.scenario,
            "instances": len(result.results),
            "solved": result.cold_count,
            "cached": result.cached_count,
            "seconds": round(result.total_seconds, 6),
        }
        if args.json == "-":
            print(json.dumps(payload, indent=2))
            return 0
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print(summary)
    stats.print_stats(args.top)
    return 0


def _command_profile_live(args: argparse.Namespace) -> int:
    """``repro profile --live HOST:PORT``: the daemon's sampling profiler.

    Reads ``/profile?format=json`` off the HTTP console and prints the
    hottest frames in the same table shape as the cProfile report --
    ``tottime`` maps to self samples (the frame was executing),
    ``cumtime`` to cumulative samples (it or a callee was), and sample
    counts divide by the sampling rate into estimated seconds.
    """
    import urllib.error
    import urllib.request

    from repro.obs.http import DEFAULT_HTTP_PORT

    address = args.live
    if "://" not in address:
        address = f"http://{address}"
    top = max(1, args.top)
    url = f"{address.rstrip('/')}/profile?format=json&top={min(top, 200)}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        print(f"cannot fetch {url}: {error}", file=sys.stderr)
        return 1
    sort = "self" if args.sort in ("tottime", "ncalls") else "cumulative"
    rows = snapshot.get("top_self" if sort == "self" else "top_cumulative") or []
    if args.json is not None:
        payload = {
            "sort": sort,
            "top": top,
            "rows": rows[:top],
            "profiler": {
                key: snapshot.get(key)
                for key in (
                    "running", "hz", "samples", "threads",
                    "duration_seconds", "stacks_dropped",
                )
            },
        }
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
            return 0
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    running = "running" if snapshot.get("running") else "stopped"
    print(
        f"sampling profiler {running}: {snapshot.get('samples', 0)} samples "
        f"at {snapshot.get('hz', 0):g}hz over {snapshot.get('threads', 0)} threads "
        f"({snapshot.get('duration_seconds', 0)}s)"
    )
    if not rows:
        print(
            "no samples yet -- start sampling with `repro serve --profile-hz N` "
            "or the profile-start admin action",
            file=sys.stderr,
        )
        return 0
    print(f"{'self':>8} {'self-s':>8} {'cum':>8} {'cum-s':>8}  function (file:line)")
    for row in rows[:top]:
        print(
            f"{row.get('self_samples', 0):>8} {row.get('self_seconds', 0.0):>8.3f} "
            f"{row.get('cum_samples', 0):>8} {row.get('cum_seconds', 0.0):>8.3f}  "
            f"{row.get('function')} ({row.get('file')}:{row.get('line')})"
        )
    return 0


def _profile_json(stats: "pstats.Stats", args: argparse.Namespace) -> Dict[str, Any]:
    """The hottest call sites as records (the ``--json`` half of profile).

    ``pstats.Stats.stats`` maps ``(file, line, function)`` to
    ``(primitive_calls, total_calls, tottime, cumtime, callers)``; the
    rows are re-sorted here with the same key the text printout used.
    """
    sort_index = {"cumulative": 3, "tottime": 2, "ncalls": 1}[args.sort]
    entries = [
        (func, values) for func, values in stats.stats.items()  # type: ignore[attr-defined]
    ]
    entries.sort(key=lambda item: item[1][sort_index], reverse=True)
    rows = [
        {
            "file": func[0],
            "line": func[1],
            "function": func[2],
            "primitive_calls": values[0],
            "ncalls": values[1],
            "tottime": round(values[2], 6),
            "cumtime": round(values[3], 6),
        }
        for func, values in entries[: args.top]
    ]
    return {"sort": args.sort, "top": args.top, "rows": rows}


def _run_perfbench(workload: str, seconds: float, trace: int, history: Path) -> int:
    """One seed-1 ``perfbench/run.py`` run appending its record to *history*.

    Its output goes to stderr; returns its exit code (non-zero on any wrong
    or failed answer).
    """
    command = [
        sys.executable, str(bench_history.REPO_ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(history),
    ]
    print(f"running: {' '.join(command)}", file=sys.stderr)
    completed = subprocess.run(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    sys.stderr.write(completed.stdout)
    return completed.returncode


def _layer_report(
    earlier: List[Dict[str, Any]], latest: List[Dict[str, Any]]
) -> str:
    """``perfbench/compare.py``'s report of the *earlier* records against
    the *latest* ones: medians, changes and, for each end-to-end change
    past its bound, the per-layer metrics that move it."""
    import tempfile

    root = bench_history.REPO_ROOT
    with tempfile.TemporaryDirectory() as scratch:
        paths = []
        for name, records in (("base", earlier), ("head", latest)):
            path = Path(scratch) / f"{name}.jsonl"
            path.write_text("".join(json.dumps(record) + "\n" for record in records))
            paths.append(str(path))
        completed = subprocess.run(
            [sys.executable, str(root / "perfbench" / "compare.py"), *paths,
             "--bounds", str(root / "BENCHMARK.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    return completed.stdout


def _command_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run perfbench, append its records, gate at the bounds.

    Runs ``perfbench/run.py`` on each named workload of ``BENCHMARK.json``
    (all of them when none is named), end to end (``--trace 0``) and then
    traced (``--trace 1``); each run appends its record to the history
    file.  A run with a wrong or failed answer stops the command with its
    exit code before anything is checked.  With ``--check``, each
    end-to-end metric of a workload's new end-to-end record is gated
    against the median of the ``--window`` earlier ones at its bound
    (:func:`repro.obs.history.check`), and every failing workload is
    explained by ``perfbench/compare.py``'s layer report.
    """
    spec = json.loads((bench_history.REPO_ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in spec["workloads"]]
    names = args.workloads or known
    unknown = [name for name in names if name not in known]
    if unknown:
        print(
            f"unknown workload(s): {', '.join(unknown)} (known: {', '.join(known)})",
            file=sys.stderr,
        )
        return 2
    if args.window < 1:
        print("--window must be at least 1", file=sys.stderr)
        return 2
    seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
    history = (
        Path(args.history).resolve()
        if args.history
        else bench_history.default_history_path()
    )
    for workload in names:
        for trace in (0, 1):
            code = _run_perfbench(workload, seconds, trace, history)
            if code != 0:
                print(
                    f"perfbench {workload} --trace {trace} exited {code}; "
                    "nothing checked",
                    file=sys.stderr,
                )
                return code
    print(f"appended {2 * len(names)} records to {history}", file=sys.stderr)
    if not args.check:
        return 0
    out = sys.stderr if args.json == "-" else sys.stdout
    records = bench_history.read_history(history)
    rows: List[Dict[str, Any]] = []
    reports: Dict[str, str] = {}
    for workload in names:
        newest, earlier = bench_history.baseline(records, workload, 0, args.window)
        workload_rows = bench_history.check(newest, earlier, spec["end_to_end"])
        rows.extend(workload_rows)
        for row in workload_rows:
            marker = "ok  " if row["ok"] else "FAIL"
            value, baseline = (
                "-" if row[key] is None else f"{row[key]:.4g}" for key in ("value", "baseline")
            )
            print(
                f"  {marker} {workload:<15} {row['metric']:<14} {value:>10}"
                f"  baseline {baseline:>10}  {row['reason']}",
                file=out,
            )
        if not all(row["ok"] for row in workload_rows):
            traced, traced_earlier = bench_history.baseline(
                records, workload, 1, args.window
            )
            reports[workload] = _layer_report(earlier + traced_earlier, [newest, traced])
            print(f"compare.py, {workload}: the window's runs -> this run", file=out)
            print(reports[workload], end="", file=out)
    failures = [row for row in rows if not row["ok"]]
    if failures:
        print(
            f"bench check FAILED: {len(failures)} of {len(rows)} rows out of bounds",
            file=sys.stderr,
        )
    else:
        print(f"bench check passed: {len(rows)} rows within their bounds", file=out)
    if args.json:
        text = json.dumps(
            {
                "history": str(history),
                "seconds": seconds,
                "window": args.window,
                "ok": not failures,
                "rows": rows,
                "reports": reports,
            },
            indent=2,
            sort_keys=True,
        )
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    return 1 if failures else 0


def _command_dynamic(args: argparse.Namespace) -> int:
    """``python -m repro dynamic <scenario>``: replay a mutation trace.

    Applies the scenario's seeded deltas through
    :class:`~repro.engine.dynamic.MutableInstance`, printing per-step dirty
    sets and verdicts.  With ``--verify``, every repaired verdict is
    differentially checked against a from-scratch recompute of the mutated
    state; the first mismatch is a hard failure, mirroring the test
    harness's repair == recompute claim.
    """
    import json as json_module
    import time

    from repro.engine.dynamic import MutableInstance, recompute_verdict
    from repro.sweep.scenarios import dynamic_scenario_names, get_dynamic_scenario

    if args.scenario is None:
        for name in dynamic_scenario_names():
            scenario = get_dynamic_scenario(name)
            tags = f" [{', '.join(scenario.tags)}]" if scenario.tags else ""
            print(f"{name:<18}{tags}  {scenario.description}")
        return 0
    try:
        scenario = get_dynamic_scenario(args.scenario)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2

    trace = scenario.trace()
    mutable = MutableInstance.from_game_instance(trace.base)
    steps = []
    start = time.perf_counter()
    for index, delta in enumerate(trace.deltas):
        report = mutable.apply(delta)
        step_start = time.perf_counter()
        verdict = mutable.verdict()
        repair_seconds = report.seconds + (time.perf_counter() - step_start)
        steps.append(
            {
                "step": index,
                "delta": delta.kind,
                "dirty": len(report.dirty),
                "verdict": verdict,
                "repair_seconds": round(repair_seconds, 6),
            }
        )
        if args.verify:
            recomputed = recompute_verdict(mutable.as_game_instance())
            if recomputed != verdict:
                print(
                    f"MISMATCH at step {index}: repair={verdict} "
                    f"recompute={recomputed}",
                    file=sys.stderr,
                )
                return 1
    total_seconds = time.perf_counter() - start

    payload = {
        "scenario": scenario.name,
        "base": trace.base.name,
        "steps": steps,
        "verified": bool(args.verify),
        "total_seconds": round(total_seconds, 6),
        "info": mutable.info(),
    }
    text = json_module.dumps(payload, indent=2, sort_keys=True)
    if args.json == "-":
        print(text)
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.json != "-":
        dirty_total = sum(step["dirty"] for step in steps)
        verified = " (all steps verified against recompute)" if args.verify else ""
        print(
            f"{scenario.name}: {len(steps)} deltas over {trace.base.name}, "
            f"{dirty_total} dirty node repairs, {payload['total_seconds']:.3f}s"
            f"{verified}"
        )
        for step in steps:
            print(
                f"  step {step['step']:>2}  {step['delta']:<12} "
                f"dirty={step['dirty']:<3} verdict={'eve' if step['verdict'] else 'adam'} "
                f"{step['repair_seconds'] * 1e3:8.2f}ms"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scenarios":
            return _command_scenarios()
        handler = getattr(args, "handler", None)
        if handler is not None:  # service subcommands register their own
            return handler(args)
        return _command_sweep(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
