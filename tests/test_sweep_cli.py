"""CLI smoke tests for ``python -m repro sweep``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

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
        assert main(["sweep", "smoke", "--jobs", "2", "--store", store, "--json", out_json]) == 0
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
                "--jobs",
                "2",
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


class TestBenchCommand:
    def _snapshots(self, tmp_path, qps=500.0):
        (tmp_path / "BENCH_fig02.json").write_text(json.dumps({
            "engine_vs_naive": {"speedup_median": 50.0},
            "figure2_cold_median_seconds": 0.004,
        }))
        (tmp_path / "BENCH_service.json").write_text(json.dumps({
            "speedup_hot_vs_cold": 80.0,
            "speedup_warm_vs_cold": 40.0,
            "hot_cache": {
                "requests_per_second": qps,
                "latency_ms": {"p99": 2.0},
                "cache_hit_rate": 0.99,
            },
        }))

    def test_bench_list_names_every_suite(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig07", "canonical", "service", "dynamic"):
            assert name in out

    def test_bench_unknown_suite_fails(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_bench_collect_appends_a_record_and_checks(
        self, tmp_path, monkeypatch, capsys
    ):
        self._snapshots(tmp_path)
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        out_json = tmp_path / "bench.json"
        assert main(["bench", "--collect", "--check", "--json", str(out_json)]) == 0
        captured = capsys.readouterr()
        assert "appended record 1" in captured.err
        assert "bench check passed" in captured.out
        history = (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
        assert len(history) == 1
        record = json.loads(history[0])
        assert record["metrics"]["service.hot_qps"] == 500.0
        assert record["git_sha"] and record["git_sha"] != ""
        payload = json.loads(out_json.read_text())
        assert payload["check"]["ok"] is True

    def test_bench_check_trips_on_a_2x_regression(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        for qps in (500.0, 510.0, 490.0):
            self._snapshots(tmp_path, qps=qps)
            assert main(["bench", "--collect", "--check"]) == 0
            capsys.readouterr()
        self._snapshots(tmp_path, qps=200.0)  # > 2x below the ~500 median
        assert main(["bench", "--collect", "--check"]) == 1
        captured = capsys.readouterr()
        assert "FAIL service.hot_qps" in captured.out.replace("  ", " ")
        assert "bench check FAILED" in captured.err

    def test_bench_no_append_checks_without_writing(
        self, tmp_path, monkeypatch, capsys
    ):
        self._snapshots(tmp_path)
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        assert main(["bench", "--collect", "--check", "--no-append"]) == 0
        assert not (tmp_path / "BENCH_history.jsonl").exists()

    def test_bench_collect_with_no_snapshots_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        assert main(["bench", "--collect"]) == 1
        assert "no tracked metrics" in capsys.readouterr().err


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
