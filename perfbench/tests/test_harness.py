"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Unit tests of the statistics, span-tracing and comparison helpers, plus a
tiny-size smoke run of every workload in both modes that checks each
metric named in ``BENCHMARK.json`` is emitted with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
from harness import (  # noqa: E402
    EchoProbe, Tracer, install, percentile, quartiles, span_costs, tail_percentile,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_percentile_takes_the_median_over_groups():
    calm = [1.0] * 1000
    burst = [1.0] * 900 + [50.0] * 100
    values = calm + burst + calm
    # Three groups of 1000: the burst only moves its own group's p99.
    assert tail_percentile(values, group=1000) == 1.0
    assert percentile(values, 99) == 50.0
    # Too few values for two groups: the plain percentile.
    assert tail_percentile(burst, group=1000) == percentile(burst, 99)
    # A short remainder joins the last group instead of forming its own.
    assert tail_percentile(calm + calm + [50.0] * 5) == 1.0


def test_quartiles_match_statistics_quantiles():
    values = [0.9, 1.4, 1.1, 1.0, 1.3, 1.2, 0.8, 1.05, 1.15, 0.95]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("inner")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.enter("inner")
    clock.now = 4.5
    tracer.exit()
    clock.now = 5.0
    tracer.exit()
    assert tracer.spans["outer"] == [1, 5.0, 2.5]
    assert tracer.spans["inner"] == [2, 2.5, 2.5]
    # Self times add up to the time the outermost span covers.
    assert tracer.self_total() == 5.0
    assert tracer.mean_us("inner") == pytest.approx(1.25e6)
    assert tracer.mean_us("missing") == 0.0


def test_wrap_names_counts_and_survives_errors():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(amount):
        clock.now += amount
        if amount < 0:
            raise ValueError("negative")
        return amount

    counted = tracer.wrap(work, lambda args: f"work.{args[0] > 1}",
                          on_result=lambda t, args, result: t.count("units", result))
    assert counted(2) == 2
    assert counted(1) == 1
    with pytest.raises(ValueError):
        counted(-1)
    assert tracer.calls("work.True") == 1
    assert tracer.calls("work.False") == 2
    assert tracer.counts["units"] == 3
    assert tracer._stack == []


def test_install_patches_and_restores():
    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x

    class Thing:
        def value(self):
            return 7

    original_double, original_value = module.double, Thing.__dict__["value"]
    tracer = Tracer()
    restore = install(tracer, [(module, "double", "double"), (Thing, "value", "value")])
    assert module.double(3) == 6
    assert Thing().value() == 7
    assert tracer.calls("double") == 1 and tracer.calls("value") == 1
    restore()
    assert module.double is original_double
    assert Thing.__dict__["value"] is original_value


def test_span_costs_are_small_and_ordered():
    recorded, wall = span_costs(samples=2000)
    assert 0.0 <= recorded < 1e-4
    assert 0.0 <= wall < 1e-4


def test_echo_probe_measures_and_stops_its_process():
    probe = EchoProbe()
    try:
        assert 0.0 < probe.factor() < 100.0
    finally:
        probe.close()
    assert probe.process.returncode == 0


# ----------------------------------------------------------------------
# Inputs and comparison
# ----------------------------------------------------------------------
def test_inputs_follow_the_seed():
    first = inputs.serve_store_inputs(3, "tiny", 2, 16)
    again = inputs.serve_store_inputs(3, "tiny", 2, 16)
    other = inputs.serve_store_inputs(4, "tiny", 2, 16)
    assert [op.line for op in first.clients[0]] == [op.line for op in again.clients[0]]
    assert first.sessions[0].deltas == again.sessions[0].deltas
    assert [line for line, _ in first.warm] != [line for line, _ in other.warm]
    assert first.sessions[0].deltas != other.sessions[0].deltas


def test_expected_table_covers_both_universes():
    expected = inputs.load_expected()
    assert inputs.pinned(inputs.hot_spec_universe(), expected)
    assert len(inputs.pinned(inputs.store_spec_universe(), expected)) >= inputs.SIZES["full"]["store_specs"]


def _record(workload, trace, metrics):
    return json.dumps({"workload": workload, "trace": trace, "metrics": {
        name: {"value": value, "unit": "x"} for name, value in metrics.items()}})


def test_compare_flags_regressions_and_low_coverage(tmp_path):
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    base.write_text("\n".join([
        _record("serve-hot", 0, {"p50_ms": value}) for value in (0.20, 0.21, 0.19)
    ] + [_record("serve-hot", 1, {"lru.us": 3.0, "layers.coverage": 0.95})] * 2) + "\n")
    head.write_text("\n".join([
        _record("serve-hot", 0, {"p50_ms": value}) for value in (0.30, 0.31, 0.29)
    ] + [_record("serve-hot", 1, {"lru.us": 9.0, "layers.coverage": 0.5})] * 2) + "\n")
    text, covered = compare.report(str(base), str(head), os.path.join(ROOT, "BENCHMARK.json"))
    assert "WORSE" in text
    assert "<- lru.us" in text
    assert not covered and "FLAG: head" in text


def test_compare_prints_tails_but_never_flags_them(tmp_path):
    def record(p99):
        return json.dumps({"workload": "serve-hot", "trace": 0, "metrics": {},
                           "notes": {"tails": {"p99_ms": p99, "p99_samples": 5000}}})

    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    base.write_text("\n".join(record(value) for value in (0.4, 0.5, 0.6)) + "\n")
    head.write_text("\n".join(record(value) for value in (1.4, 1.5, 1.6)) + "\n")
    text, covered = compare.report(str(base), str(head), os.path.join(ROOT, "BENCHMARK.json"))
    assert "p99_ms" in text and "p99_samples" not in text
    assert "WORSE" not in text and covered


# ----------------------------------------------------------------------
# Tiny smoke of every workload
# ----------------------------------------------------------------------
def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in _spec()["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    spec = _spec()
    command = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--size", "tiny"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
