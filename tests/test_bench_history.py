"""The benchmark history record and its noise-tolerant regression gate."""

import json

import pytest

from repro.obs import history as bh


def _record(**metrics):
    return {"ts": 1.0, "git_sha": "cafe", "metrics": metrics}


def _history(values, name="service.hot_qps"):
    return [_record(**{name: value}) for value in values]


class TestCheckDrift:
    def test_two_x_slowdown_trips_higher_is_better(self):
        records = _history([100.0, 102.0, 98.0, 101.0, 50.0])
        result = bh.check(records)
        (failure,) = result.failures
        assert failure["metric"] == "service.hot_qps"
        assert "regressed" in failure["reason"]
        assert failure["baseline"] == pytest.approx(100.5)

    def test_ten_percent_noise_passes_higher_is_better(self):
        records = _history([100.0, 102.0, 98.0, 101.0, 90.0])
        assert bh.check(records).ok

    def test_two_x_slowdown_trips_lower_is_better(self):
        records = _history([10.0, 11.0, 9.0, 10.0, 21.0], name="service.hot_p99_ms")
        result = bh.check(records)
        (failure,) = result.failures
        assert failure["metric"] == "service.hot_p99_ms"
        assert "regressed" in failure["reason"]

    def test_ten_percent_noise_passes_lower_is_better(self):
        records = _history([10.0, 11.0, 9.0, 10.0, 11.0], name="service.hot_p99_ms")
        assert bh.check(records).ok

    def test_improvement_never_trips(self):
        faster = _history([100.0, 100.0, 400.0])  # higher-is-better got 4x better
        assert bh.check(faster).ok
        quicker = _history([10.0, 10.0, 1.0], name="service.hot_p99_ms")
        assert bh.check(quicker).ok

    def test_median_baseline_shrugs_off_one_outlier(self):
        # One historic glitch at 5 qps must not drag the baseline down.
        records = _history([100.0, 5.0, 101.0, 99.0, 95.0])
        assert bh.check(records).ok

    def test_window_limits_how_far_back_the_baseline_looks(self):
        # Ancient fast records fall outside window=2; recent slow ones rule.
        records = _history([400.0, 400.0, 100.0, 100.0, 95.0])
        assert bh.check(records, window=2).ok
        assert not bh.check(records, window=5).ok

    def test_first_record_skips_drift(self):
        assert bh.check(_history([100.0])).ok

    def test_threshold_factor_must_exceed_one(self):
        with pytest.raises(ValueError):
            bh.check(_history([1.0]), threshold=1.0)


class TestCheckBounds:
    def test_floor_violation_fails_even_with_no_history(self):
        records = [_record(**{"fig02.engine_vs_naive": 2.0})]  # floor is 5.0
        result = bh.check(records)
        (failure,) = result.failures
        assert "below floor" in failure["reason"]

    def test_ceiling_violation_fails(self):
        records = [_record(**{"dynamic.full_rebuilds": 3.0})]  # ceiling is 0
        result = bh.check(records)
        (failure,) = result.failures
        assert "above ceiling" in failure["reason"]

    def test_empty_history_fails_loudly(self):
        result = bh.check([])
        assert not result.ok
        assert result.failures[0]["reason"] == "no records in history"

    def test_record_with_no_known_metrics_fails(self):
        result = bh.check([_record(mystery=1.0)])
        assert not result.ok
        assert "no known metrics" in result.failures[0]["reason"]

    def test_as_dict_mirrors_rows(self):
        result = bh.check(_history([100.0, 100.0]))
        payload = result.as_dict()
        assert payload["ok"] is True
        assert payload["rows"] == result.rows


class TestPersistence:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        bh.append_record(path, _record(**{"service.hot_qps": 10.0}))
        bh.append_record(path, _record(**{"service.hot_qps": 11.0}))
        records = bh.read_history(path)
        assert [r["metrics"]["service.hot_qps"] for r in records] == [10.0, 11.0]

    def test_malformed_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text(
            "not json\n"
            + json.dumps(["a", "list"]) + "\n"
            + json.dumps({"metrics": "not-a-dict"}) + "\n"
            + json.dumps(_record(**{"service.hot_qps": 5.0})) + "\n"
        )
        records = bh.read_history(path)
        assert len(records) == 1

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert bh.read_history(tmp_path / "absent.jsonl") == []


class TestCollect:
    def test_collect_digs_tracked_paths_out_of_snapshots(self, tmp_path):
        (tmp_path / "BENCH_fig02.json").write_text(
            json.dumps(
                {
                    "engine_vs_naive": {"speedup_median": 40.0},
                    "figure2_cold_median_seconds": 0.0125,
                }
            )
        )
        (tmp_path / "BENCH_service.json").write_text(
            json.dumps({"hot_cache": {"requests_per_second": 999.0}})
        )
        metrics = bh.collect_metrics(tmp_path)
        assert metrics["fig02.figure2_cold_seconds"] == 0.0125
        assert metrics["fig02.engine_vs_naive"] == 40.0
        assert metrics["service.hot_qps"] == 999.0
        # Sources with no snapshot are simply absent.
        assert "dynamic.full_rebuilds" not in metrics

    def test_collect_survives_broken_snapshots(self, tmp_path):
        (tmp_path / "BENCH_fig02.json").write_text("{broken")
        assert bh.collect_metrics(tmp_path) == {}

    def test_build_record_stamps_provenance(self, tmp_path):
        record = bh.build_record({"service.hot_qps": 1.0})
        assert record["metrics"] == {"service.hot_qps": 1.0}
        assert isinstance(record["git_sha"], str) and record["git_sha"]
        assert record["python_version"].count(".") == 2
        assert record["cpu_count"] >= 1

    def test_git_sha_unknown_outside_a_repo(self, tmp_path):
        assert bh.git_sha(tmp_path) == "unknown"


class TestRendering:
    def test_sparkline_spans_the_block_range(self):
        line = bh.sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 8

    def test_sparkline_flat_series_and_width(self):
        assert bh.sparkline([5, 5, 5]) == "▁▁▁"
        assert bh.sparkline([], width=10) == ""
        assert len(bh.sparkline(range(100), width=12)) == 12

    def test_metric_series_extracts_one_trajectory(self):
        records = _history([1.0, 2.0, 3.0]) + [_record(other=9.0)]
        assert bh.metric_series(records, "service.hot_qps") == [1.0, 2.0, 3.0]
        assert bh.metric_series(records, "service.hot_qps", limit=2) == [2.0, 3.0]


class TestMetricSpec:
    def test_direction_is_validated(self):
        with pytest.raises(ValueError):
            bh.MetricSpec("x", "fig02", ("a",), direction="sideways")

    def test_tracked_metrics_have_unique_names(self):
        names = [spec.name for spec in bh.TRACKED_METRICS]
        assert len(names) == len(set(names))
