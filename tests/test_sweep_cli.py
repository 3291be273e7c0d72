"""CLI smoke tests for ``python -m repro sweep``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.sweep import cli
from repro.sweep.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestInProcess:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "separations" in out

    def test_sweep_smoke_with_store_and_json(self, tmp_path, capsys):
        store = str(tmp_path / "verdicts.sqlite")
        out_json = str(tmp_path / "result.json")
        assert main(["sweep", "smoke", "--store", store, "--json", out_json]) == 0
        table = capsys.readouterr().out
        assert "instances:" in table.splitlines()[-1]
        payload = json.loads(open(out_json).read())
        assert payload["scenario"] == "smoke"
        assert payload["summary"]["instances"] == len(payload["instances"])
        assert payload["summary"]["cold"] == payload["summary"]["instances"]
        assert all(isinstance(i["verdict"], bool) for i in payload["instances"])
        assert all(i["key"] for i in payload["instances"])

        # Second run: everything answered from the store.
        assert main(["sweep", "smoke", "--store", store, "--json", out_json]) == 0
        capsys.readouterr()
        warm = json.loads(open(out_json).read())
        assert warm["summary"]["cached"] == warm["summary"]["instances"]
        assert [i["verdict"] for i in warm["instances"]] == [
            i["verdict"] for i in payload["instances"]
        ]

    def test_limit(self, tmp_path, capsys):
        assert main(["sweep", "smoke", "--limit", "3", "--quiet"]) == 0
        assert main(["sweep", "smoke", "--limit", "0", "--quiet"]) == 0

    @pytest.mark.parametrize("command", ["sweep", "profile"])
    def test_negative_limit_fails(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "smoke", "--limit", "-1"])
        assert exited.value.code == 2
        assert "--limit: expected a number >= 0, got '-1'" in capsys.readouterr().err

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "smoke", "--jobs", "2"])
        assert exited.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_unknown_scenario_fails(self, capsys):
        assert main(["sweep", "definitely-not-registered"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_prints_hot_spots(self, capsys):
        assert main(["profile", "smoke", "--limit", "3", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profiled scenario 'smoke': 3 instances" in out
        assert "cumulative" in out  # pstats sort header
        assert "ncalls" in out

    def test_profile_sort_and_store(self, tmp_path, capsys):
        store = str(tmp_path / "profile.sqlite")
        assert main(["profile", "smoke", "--limit", "2", "--store", store,
                     "--sort", "tottime", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 solved, 0 from store" in out
        # Warm profile: the store answers everything.
        assert main(["profile", "smoke", "--limit", "2", "--store", store]) == 0
        assert "0 solved, 2 from store" in capsys.readouterr().out

    def test_profile_unknown_scenario_fails(self, capsys):
        assert main(["profile", "nope-not-registered"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_json_to_stdout(self, capsys):
        assert main(["sweep", "smoke", "--limit", "2", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["instances"] == 2


@pytest.mark.slow
class TestSubprocess:
    def test_python_dash_m_repro(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out_json = str(tmp_path / "out.json")
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "sweep",
                "smoke",
                "--store",
                str(tmp_path / "store.sqlite"),
                "--json",
                out_json,
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(open(out_json).read())
        assert payload["summary"]["instances"] > 10


class FakePerfbench:
    """Stands in for ``perfbench/run.py``: each run appends a canned record."""

    def __init__(self):
        self.calls = []
        self.p50_ms = 0.1  # of the next end-to-end record
        self.exit_codes = {}  # (workload, trace) -> exit code

    def __call__(self, workload, seconds, trace, history):
        self.calls.append((workload, seconds, trace))
        code = self.exit_codes.get((workload, trace), 0)
        if code:
            return code
        if trace == 0:
            metrics = {"setup_s": 0.5, "peak_rss_mb": 50.0, "sweep_s": 0.1,
                       "ops_per_s": 1000.0, "p50_ms": self.p50_ms, "mutate_p50_ms": 0.2}
        else:
            metrics = {"transport.us": 3000.0 * self.p50_ms, "wire.decode.us": 8.0,
                       "layers.coverage": 0.95}
        record = {
            "workload": workload, "seed": 1, "seconds": seconds, "trace": trace,
            "size": "full", "context": {"git_sha": "cafe", "src_loc": 100}, "notes": {},
            "correct": True, "metrics": {
                name: {"value": value, "unit": "u"} for name, value in metrics.items()
            },
        }
        with open(history, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        return 0


class TestBenchCommand:
    @pytest.fixture
    def perfbench(self, tmp_path, monkeypatch):
        fake = FakePerfbench()
        monkeypatch.setattr(cli, "_run_perfbench", fake)
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        return fake

    def test_bench_unknown_workload_fails(self, perfbench, capsys):
        assert main(["bench", "sweep-cold", "nope"]) == 2
        assert "unknown workload(s): nope" in capsys.readouterr().err
        assert main(["bench", "--window", "0"]) == 2
        assert "--window" in capsys.readouterr().err
        assert perfbench.calls == []

    def test_bench_runs_every_workload_end_to_end_then_traced(self, perfbench, tmp_path, capsys):
        assert main(["bench"]) == 0
        assert perfbench.calls == [
            (workload, 20.0, trace)
            for workload in ("sweep-cold", "serve-hot", "serve-store-rw")
            for trace in (0, 1)
        ]
        history = (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
        assert len(history) == 6
        assert "bench check" not in capsys.readouterr().out

    def test_bench_failed_run_stops_with_its_code_and_checks_nothing(
        self, perfbench, tmp_path, capsys
    ):
        perfbench.exit_codes[("serve-hot", 1)] = 3
        out = tmp_path / "bench.json"
        assert main(["bench", "--check", "--json", str(out)]) == 3
        assert perfbench.calls[-1] == ("serve-hot", 20.0, 1)
        assert len(perfbench.calls) == 4  # serve-store-rw never ran
        captured = capsys.readouterr()
        assert "nothing checked" in captured.err
        assert "bench check" not in captured.out + captured.err
        assert not out.exists()

    def test_bench_check_trips_on_a_2x_regression(
        self, perfbench, capsys
    ):
        for _ in range(3):
            assert main(["bench", "serve-hot", "--seconds", "5", "--check"]) == 0
        capsys.readouterr()
        perfbench.p50_ms = 0.2  # twice the window's median
        argv = ["bench", "serve-hot", "--seconds", "5", "--check", "--window", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        rows = [line.split() for line in captured.out.splitlines() if "baseline" in line]
        assert [row[:3] for row in rows] == [
            ["ok", "serve-hot", name] for name in ("setup_s", "peak_rss_mb", "sweep_s",
                                                  "ops_per_s")
        ] + [["FAIL", "serve-hot", "p50_ms"], ["ok", "serve-hot", "mutate_p50_ms"]]
        assert "+100.0% vs median of 3 (bound 25%)" in captured.out
        # compare.py's report: the medians, the verdict, the moving layer.
        report = captured.out[captured.out.index("== serve-hot"):]
        assert "WORSE" in report
        assert "<- transport.us" in report and "+100.0%" in report
        assert "bench check FAILED: 1 of 6 rows" in captured.err

    def test_bench_json_carries_the_rows(self, perfbench, capsys):
        assert main(["bench", "serve-hot", "--seconds", "5", "--check"]) == 0
        capsys.readouterr()
        assert main(["bench", "serve-hot", "--seconds", "5", "--check", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["seconds"] == 5.0
        assert [row["metric"] for row in payload["rows"]] == [
            "setup_s", "peak_rss_mb", "sweep_s", "ops_per_s", "p50_ms", "mutate_p50_ms",
        ]
        p50 = payload["rows"][4]
        assert (p50["workload"], p50["value"], p50["baseline"], p50["change"]) == (
            "serve-hot", 0.1, 0.1, 0.0,
        )

    @pytest.mark.slow
    def test_bench_real_run_appends_correct_records_of_both_traces(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(REPO_ROOT, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        history = tmp_path / "history.jsonl"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "sweep-cold", "--seconds", "1",
             "--history", str(history)],
            env=env, capture_output=True, text=True, timeout=300, cwd=str(tmp_path),
        )
        assert completed.returncode == 0, completed.stderr
        records = [json.loads(line) for line in history.read_text().splitlines()]
        assert [(r["workload"], r["trace"], r["seconds"]) for r in records] == [
            ("sweep-cold", 0, 1.0), ("sweep-cold", 1, 1.0),
        ]
        assert all(r["correct"] and r["failed"] == 0 for r in records)
        assert "p50_ms" in records[0]["metrics"]
        assert "engine.kernel.ms" in records[1]["metrics"]
        assert records[0]["context"]["src_loc"] > 0


class TestProfileLive:
    def test_profile_without_scenario_or_live_fails(self, capsys):
        assert main(["profile"]) == 2
        assert "--live" in capsys.readouterr().err

    def test_profile_live_unreachable_returns_one(self, capsys):
        assert main(["profile", "--live", "127.0.0.1:1"]) == 1
        assert "cannot fetch" in capsys.readouterr().err

    def test_profile_live_reads_a_real_daemon(self, tmp_path, capsys):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread
        from repro.sweep.store import SQLiteVerdictStore

        with ServerThread(store=SQLiteVerdictStore(":memory:"), http_port=0) as server:
            host, port = server.http_address
            with ServiceClient(server.address) as client:
                client.profile_start(hz=397)
                try:
                    import time as _time

                    deadline = _time.monotonic() + 5.0
                    while _time.monotonic() < deadline:
                        client.query_scenario("smoke", index=0)
                        if client.profile_snapshot()["samples"]:
                            break
                finally:
                    client.profile_stop()
            out_json = tmp_path / "live.json"
            assert main([
                "profile", "--live", f"{host}:{port}",
                "--top", "5", "--json", str(out_json),
            ]) == 0
        captured = capsys.readouterr()
        assert "sampling profiler stopped" in captured.out
        payload = json.loads(out_json.read_text())
        assert payload["profiler"]["hz"] == 397.0
        assert payload["profiler"]["samples"] >= 1
        assert len(payload["rows"]) <= 5


class TestTraceExportCommand:
    def test_trace_export_writes_a_loadable_document(self, tmp_path, capsys):
        from repro.service.client import ServiceClient
        from repro.service.server import ServerThread
        from repro.sweep.store import SQLiteVerdictStore

        with ServerThread(store=SQLiteVerdictStore(":memory:"), http_port=0) as server:
            with ServiceClient(server.address) as client:
                client.query_scenario("smoke", index=0)
                client.query_scenario("smoke", index=0)
            host, port = server.http_address
            out = tmp_path / "trace.json"
            assert main([
                "trace", "--connect", f"{host}:{port}", "--export", str(out),
            ]) == 0
        assert "trace events" in capsys.readouterr().err
        document = json.loads(out.read_text())
        assert document["traceEvents"][0]["ph"] == "M"
        assert any(event["ph"] == "X" for event in document["traceEvents"])

    def test_trace_export_to_stdout(self, capsys):
        from repro.service.server import ServerThread
        from repro.sweep.store import SQLiteVerdictStore

        with ServerThread(store=SQLiteVerdictStore(":memory:"), http_port=0) as server:
            host, port = server.http_address
            assert main(["trace", "--connect", f"{host}:{port}"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert "traceEvents" in document

    def test_trace_unreachable_returns_one(self, capsys):
        assert main(["trace", "--connect", "127.0.0.1:1"]) == 1
        assert "cannot fetch" in capsys.readouterr().err
