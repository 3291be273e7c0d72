"""The HTTP operations console, served next to a live daemon."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.top import render, run_top
from repro.service.client import ServiceClient
from repro.service.server import ServerThread
from repro.sweep.store import SQLiteVerdictStore


@pytest.fixture(scope="module")
def console_server():
    """One daemon + console shared by the module (read-mostly assertions)."""
    with ServerThread(store=SQLiteVerdictStore(":memory:"), http_port=0) as server:
        yield server


def _get(server, path: str):
    host, port = server.http_address
    return urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10)


def _get_json(server, path: str):
    with _get(server, path) as response:
        return json.loads(response.read().decode("utf-8"))


def _warm_query(server):
    with ServiceClient(server.address) as client:
        cold = client.query_scenario("smoke", index=0)
        warm = client.query_scenario("smoke", index=0)
    return cold, warm


class TestStatsEndpoint:
    def test_stats_page_is_the_wire_stats_payload(self, console_server):
        _warm_query(console_server)
        stats = _get_json(console_server, "/stats")
        assert stats["requests"]["query"] >= 2
        assert "tiers" in stats and "coalescer" in stats
        assert stats["tiers"]["lru"]["hits"] >= 1

    def test_stats_carries_the_monotonic_clock(self, console_server):
        first = _get_json(console_server, "/stats")
        second = _get_json(console_server, "/stats")
        assert second["since_monotonic"] > first["since_monotonic"]

    def test_stats_reports_latency_percentiles(self, console_server):
        _warm_query(console_server)
        stats = _get_json(console_server, "/stats")
        latency = stats["latency"]["query"]
        assert latency["count"] >= 1
        assert latency["p50"] >= 0
        assert latency["buckets"][-1][0] == "+Inf"


class TestStatsSelfCounting:
    def test_first_stats_poll_does_not_count_itself(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                stats = client.stats()
        assert stats["requests"]["stats"] == 0

    def test_later_polls_count_only_earlier_polls(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:")) as server:
            with ServiceClient(server.address) as client:
                client.stats()
                client.stats()
                stats = client.stats()
        assert stats["requests"]["stats"] == 2


class TestMetricsEndpoint:
    def test_metrics_parse_as_prometheus_exposition(self, console_server):
        _warm_query(console_server)
        with _get(console_server, "/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        samples = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                _hash, directive, _rest = line.split(None, 2)
                assert directive in ("HELP", "TYPE")
                continue
            name_and_labels, value = line.rsplit(None, 1)
            float(value)  # every sample value is a number
            samples[name_and_labels] = value
        assert any(key.startswith("repro_requests_total") for key in samples)
        assert any(key.startswith("repro_tier_lru_hits_total") for key in samples)
        assert any('le="+Inf"' in key for key in samples)

    def test_warm_query_moves_the_tier_counters(self, console_server):
        _warm_query(console_server)
        with _get(console_server, "/metrics") as response:
            text = response.read().decode("utf-8")
        for line in text.splitlines():
            if line.startswith("repro_tier_lru_hits_total"):
                assert int(line.rsplit(None, 1)[1]) >= 1
                break
        else:
            pytest.fail("repro_tier_lru_hits_total not exposed")


class TestBrowsePages:
    def test_overview_links_the_surfaces(self, console_server):
        with _get(console_server, "/") as response:
            page = response.read().decode("utf-8")
        for href in ("/stats", "/metrics", "/scenarios", "/verdicts", "/traces"):
            assert href in page

    def test_scenarios_page_lists_the_registry(self, console_server):
        body = _get_json(console_server, "/scenarios?format=json")
        names = [entry["name"] for entry in body["scenarios"]]
        assert "smoke" in names

    def test_scenario_detail_reports_stored_verdicts(self, console_server):
        _warm_query(console_server)
        body = _get_json(console_server, "/scenarios/smoke?format=json")
        assert body["scenario"] == "smoke"
        assert body["instances"] >= 1
        assert body["entries"][0]["verdict"] in (True, False)

    def test_scenario_pagination_windows_the_keys(self, console_server):
        page1 = _get_json(
            console_server, "/scenarios/smoke?format=json&page=1&per_page=2"
        )
        page2 = _get_json(
            console_server, "/scenarios/smoke?format=json&page=2&per_page=2"
        )
        assert len(page1["entries"]) == 2
        assert page1["entries"][0]["index"] == 0
        assert page2["entries"][0]["index"] == 2
        keys1 = {entry["key"] for entry in page1["entries"]}
        keys2 = {entry["key"] for entry in page2["entries"]}
        assert not keys1 & keys2

    def test_verdicts_page_paginates_the_store(self, console_server):
        _warm_query(console_server)
        body = _get_json(console_server, "/verdicts?format=json&per_page=1")
        assert body["total"] >= 1
        assert len(body["entries"]) == 1
        entry = body["entries"][0]
        assert set(entry) == {"key", "verdict", "name", "seconds"}

    def test_sessions_page_lists_open_sessions(self, console_server):
        with ServiceClient(console_server.address) as client:
            client.mutate(
                "http-console-session",
                scenario="separations",
                instance="2-colorable|cycle6|sequential",
            )
            body = _get_json(console_server, "/sessions?format=json")
        assert "http-console-session" in body["sessions"]

    def test_traces_page_shows_recent_spans(self, console_server):
        _warm_query(console_server)
        body = _get_json(console_server, "/traces?format=json")
        assert body["recorded"] >= 1
        query_traces = [t for t in body["traces"] if t["op"] == "query"]
        assert query_traces
        assert any(span["span"] == "lru" for span in query_traces[0]["spans"])

    def test_unknown_page_is_404(self, console_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(console_server, "/nothing-here")
        assert excinfo.value.code == 404

    def test_unknown_scenario_is_404(self, console_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(console_server, "/scenarios/no-such-scenario")
        assert excinfo.value.code == 404

    def test_bad_pagination_is_400(self, console_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(console_server, "/verdicts?page=zero")
        assert excinfo.value.code == 400


class TestHealthz:
    def test_serving_daemon_is_200_with_detail(self, console_server):
        with _get(console_server, "/healthz") as response:
            assert response.status == 200
            body = json.loads(response.read().decode("utf-8"))
        assert body["healthy"] is True
        assert body["draining"] is False
        assert body["breaker"] == "closed"

    def test_draining_daemon_is_503(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:"), http_port=0) as server:
            server.service.draining = True
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/healthz")
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read().decode("utf-8"))
            assert body["healthy"] is False and body["draining"] is True

    def test_open_breaker_is_503(self):
        with ServerThread(store=SQLiteVerdictStore(":memory:"), http_port=0) as server:
            breaker = server.service.breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.state == "open"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/healthz")
            assert excinfo.value.code == 503


class TestQueryTraceBreakdown:
    def test_warm_query_response_carries_tier_timings(self, console_server):
        cold, warm = _warm_query(console_server)
        cold_spans = [entry["span"] for entry in cold["trace"]]
        warm_spans = [entry["span"] for entry in warm["trace"]]
        assert "lru" in cold_spans
        assert warm_spans[-1] == "lru"  # warm answer came straight from tier 1
        assert all(entry["ms"] >= 0 for entry in warm["trace"])


class TestTop:
    def test_render_is_pure_and_reports_rates(self, console_server):
        _warm_query(console_server)
        first = _get_json(console_server, "/stats")
        _warm_query(console_server)
        second = _get_json(console_server, "/stats")
        frame = render(second, first)
        assert "repro verdict daemon" in frame
        assert "lru" in frame and "coalescer" in frame

    def test_render_shows_where_store_calls_ran(self):
        stats = {
            "tiers": {"store": {"calls": {
                "get": {"loop": 40, "worker": 2},
                "journal_append": {"loop": 7, "worker": 0},
            }}},
        }
        frame = render(stats)
        assert "store calls: loop 47  worker 2" in frame
        assert "get 40/2" in frame and "journal_append 7/0" in frame

    def test_run_top_once_renders_and_exits_zero(self, console_server, capsys):
        host, port = console_server.http_address
        assert run_top(connect=f"{host}:{port}", once=True) == 0
        out = capsys.readouterr().out
        assert "repro verdict daemon" in out

    def test_run_top_unreachable_returns_one(self):
        assert run_top(connect="127.0.0.1:1", once=True) == 1


class TestTopRestartDetection:
    def _snap(self, monotonic, uptime, queries, p99=None):
        return {
            "since_monotonic": monotonic,
            "uptime_seconds": uptime,
            "requests": {"query": queries},
            "queries": queries,
            "query_p99_ms": p99,
        }

    def test_restarted_on_monotonic_going_backwards(self):
        from repro.obs.top import restarted

        prev = self._snap(100.0, 100.0, 50)
        now = self._snap(3.0, 3.0, 2)
        assert restarted(now, prev)

    def test_restarted_on_uptime_reset_even_when_monotonic_advances(self):
        from repro.obs.top import restarted

        # perf_counter is machine-wide on Linux: it keeps climbing across
        # a daemon restart, so uptime is the reliable tell.
        prev = self._snap(100.0, 90.0, 50)
        now = self._snap(105.0, 2.0, 1)
        assert restarted(now, prev)

    def test_not_restarted_on_normal_progress(self):
        from repro.obs.top import restarted

        prev = self._snap(100.0, 90.0, 50)
        now = self._snap(101.0, 91.0, 60)
        assert not restarted(now, prev)
        assert not restarted(now, None)

    def test_rate_resets_to_zero_across_a_restart(self):
        from repro.obs.top import _rate

        prev = self._snap(100.0, 90.0, 5000)
        now = self._snap(105.0, 2.0, 10)  # restarted: counters reset
        assert _rate(now, prev, "requests", "query") == 0.0
        steady = self._snap(106.0, 3.0, 30)
        assert _rate(steady, now, "requests", "query") == 20.0

    def test_render_notes_the_restart_and_shows_no_negative_rates(self):
        from repro.obs.top import render

        prev = self._snap(100.0, 90.0, 5000)
        prev.update({"tiers": {}, "coalescer": {}, "latency": {}, "dynamic": {}})
        now = self._snap(105.0, 2.0, 10)
        now.update({"tiers": {}, "coalescer": {}, "latency": {}, "dynamic": {}})
        frame = render(now, prev)
        assert "daemon restarted" in frame
        assert "-1" not in frame.split("latency")[0]  # no negative rates anywhere

    def test_qps_series_skips_restart_pairs(self):
        from repro.obs.top import qps_series

        samples = [
            self._snap(10.0, 10.0, 100),
            self._snap(11.0, 11.0, 200),  # 100 qps
            self._snap(12.0, 1.0, 5),     # restart: counter went backwards
            self._snap(13.0, 2.0, 55),    # 50 qps
        ]
        assert qps_series(samples) == [100.0, 50.0]


class TestStatsHistoryEndpoint:
    def test_history_accumulates_timestamped_samples(self, console_server):
        _get_json(console_server, "/stats")
        _get_json(console_server, "/stats")
        history = _get_json(console_server, "/stats/history")
        samples = history["samples"]
        assert len(samples) >= 2
        assert history["recorded"] >= len(samples)
        assert history["capacity"] >= len(samples)
        newest = samples[-1]
        assert {"time", "since_monotonic", "uptime_seconds", "queries"} <= set(newest)
        # Oldest first: the server clock climbs along the ring.
        clocks = [sample["since_monotonic"] for sample in samples]
        assert clocks == sorted(clocks)

    def test_history_limit_windows_the_newest(self, console_server):
        for _ in range(3):
            _get_json(console_server, "/stats")
        full = _get_json(console_server, "/stats/history")["samples"]
        tail = _get_json(console_server, "/stats/history?limit=2")["samples"]
        assert len(tail) == 2
        assert tail == full[-2:]

    def test_bad_limit_is_400(self, console_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(console_server, "/stats/history?limit=zero")
        assert excinfo.value.code == 400


class TestTraceExportEndpoint:
    def test_export_is_a_loadable_chrome_trace(self, console_server):
        _warm_query(console_server)
        document = _get_json(console_server, "/traces/export.json")
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [event for event in events if event["ph"] == "X"]
        assert complete, "expected span events after a warm query"
        for event in complete:
            assert {"name", "pid", "tid", "ts", "dur"} <= set(event)
        assert document["displayTimeUnit"] == "ms"

    def test_export_respects_the_limit_parameter(self, console_server):
        for _ in range(3):
            _warm_query(console_server)
        document = _get_json(console_server, "/traces/export.json?limit=1")
        tids = {e["tid"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert len(tids) == 1


class TestProfileEndpoint:
    def test_idle_profiler_serves_a_hint(self, console_server):
        with _get(console_server, "/profile") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        if "# profiler not running" in text:
            assert "profile-start" in text

    def test_running_profiler_serves_folded_stacks_and_json(self, console_server):
        from repro.service.client import ServiceClient

        with ServiceClient(console_server.address) as client:
            client.profile_start(hz=397)
            try:
                deadline = time.monotonic() + 5.0
                snapshot = {}
                while time.monotonic() < deadline:
                    _warm_query(console_server)
                    snapshot = _get_json(console_server, "/profile?format=json")
                    if snapshot.get("samples"):
                        break
                assert snapshot.get("samples"), "profiler collected no samples"
                assert snapshot["running"] is True
                assert snapshot["hz"] == 397.0
                with _get(console_server, "/profile") as response:
                    folded = response.read().decode("utf-8")
                assert folded.strip(), "folded output empty while sampling"
                line = folded.strip().splitlines()[0]
                stack, count = line.rsplit(" ", 1)
                assert int(count) >= 1 and ";" in stack or ":" in stack
            finally:
                client.profile_stop()

    def test_profile_top_parameter_bounds_the_rows(self, console_server):
        snapshot = _get_json(console_server, "/profile?format=json&top=1")
        assert len(snapshot["top_self"]) <= 1
        assert len(snapshot["top_cumulative"]) <= 1


class TestBenchEndpoint:
    def test_bench_page_without_history_offers_guidance(
        self, console_server, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        with _get(console_server, "/bench") as response:
            text = response.read().decode("utf-8")
        assert "repro bench --collect" in text

    def test_bench_page_renders_history_with_sparklines(
        self, console_server, tmp_path, monkeypatch
    ):
        from repro.obs import history as bench_history

        monkeypatch.setenv("BENCH_OUTPUT_DIR", str(tmp_path))
        path = tmp_path / bench_history.DEFAULT_HISTORY_FILENAME
        for qps in (100.0, 120.0, 90.0):
            bench_history.append_record(
                path,
                {"ts": 1.0, "git_sha": "cafe1234", "metrics": {"service.hot_qps": qps}},
            )
        payload = _get_json(console_server, "/bench?format=json")
        assert len(payload["records"]) == 3
        assert payload["path"].endswith(bench_history.DEFAULT_HISTORY_FILENAME)
        with _get(console_server, "/bench") as response:
            page = response.read().decode("utf-8")
        assert "service.hot_qps" in page
        assert "cafe1234" in page
