"""The benchmark history of perfbench records and its gate at the bounds."""

import json

import pytest

from repro.obs import history as bh

#: BENCHMARK.json's end-to-end entries for the metrics these tests use.
END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "p50_ms", "better": "lower", "bound": 0.25},
]


def _record(workload="serve-hot", trace=0, seconds=5.0, size="full", src_loc=100, **metrics):
    return {
        "workload": workload,
        "seed": 1,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "context": {"git_sha": "cafe", "src_loc": src_loc},
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
    }


#: The metric values that no test varies.
STEADY = {"ops_per_s": 1000.0, "p50_ms": 0.1}


def _history(values, name="ops_per_s", **fields):
    return [_record(**fields, **{**STEADY, name: value}) for value in values]


def _gate(records, workload="serve-hot", window=5):
    newest, earlier = bh.baseline(records, workload, 0, window)
    return bh.check(newest, earlier, END_TO_END)


def _failures(rows):
    return [row for row in rows if not row["ok"]]


class TestCheckDrift:
    def test_two_x_slowdown_trips_higher_is_better(self):
        rows = _gate(_history([100.0, 102.0, 98.0, 101.0, 50.0]))
        (failure,) = _failures(rows)
        assert (failure["workload"], failure["metric"]) == ("serve-hot", "ops_per_s")
        assert failure["baseline"] == pytest.approx(100.5)
        assert failure["change"] == pytest.approx(50.0 / 100.5 - 1)

    def test_ten_percent_noise_passes_higher_is_better(self):
        assert not _failures(_gate(_history([100.0, 102.0, 98.0, 101.0, 90.0])))

    def test_two_x_slowdown_trips_lower_is_better(self):
        rows = _gate(_history([10.0, 11.0, 9.0, 10.0, 21.0], name="p50_ms"))
        (failure,) = _failures(rows)
        assert failure["metric"] == "p50_ms"
        assert failure["reason"] == "+110.0% vs median of 4 (bound 25%)"

    def test_ten_percent_noise_passes_lower_is_better(self):
        assert not _failures(_gate(_history([10.0, 11.0, 9.0, 10.0, 11.0], name="p50_ms")))

    def test_just_past_the_bound_trips_and_just_within_passes(self):
        assert _failures(_gate(_history([100.0, 74.0])))
        assert not _failures(_gate(_history([100.0, 76.0])))
        assert _failures(_gate(_history([10.0, 12.6], name="p50_ms")))
        assert not _failures(_gate(_history([10.0, 12.4], name="p50_ms")))

    def test_improvement_never_trips(self):
        assert not _failures(_gate(_history([100.0, 100.0, 400.0])))
        assert not _failures(_gate(_history([10.0, 10.0, 1.0], name="p50_ms")))

    def test_median_baseline_shrugs_off_one_outlier(self):
        # One historic glitch at 5 ops/s must not drag the baseline down.
        assert not _failures(_gate(_history([100.0, 5.0, 101.0, 99.0, 95.0])))

    def test_window_limits_how_far_back_the_baseline_looks(self):
        # Ancient fast records fall outside window=2; recent slow ones rule.
        records = _history([400.0, 400.0, 100.0, 100.0, 95.0])
        assert not _failures(_gate(records, window=2))
        assert _failures(_gate(records, window=5))

    @pytest.mark.parametrize(
        "other",
        [{"workload": "serve-store-rw"}, {"trace": 1}, {"seconds": 20.0}, {"size": "tiny"}],
        ids=["workload", "trace", "seconds", "size"],
    )
    def test_other_runs_never_enter_the_baseline(self, other):
        records = _history([400.0, 400.0], **other) + _history([100.0, 95.0])
        (row,) = [row for row in _gate(records) if row["metric"] == "ops_per_s"]
        assert row["ok"] and row["baseline"] == 100.0

    def test_first_record_skips_drift(self):
        rows = _gate([_record(ops_per_s=100.0, p50_ms=0.1)])
        assert [(row["metric"], row["ok"], row["reason"]) for row in rows] == [
            ("ops_per_s", True, "no baseline"),
            ("p50_ms", True, "no baseline"),
        ]
        assert rows[0]["baseline"] is None and rows[0]["change"] is None


class TestCheckBounds:
    def test_one_row_per_end_to_end_metric_with_its_bound(self):
        rows = _gate(_history([100.0, 100.0]))
        assert [(row["metric"], row["better"], row["bound"]) for row in rows] == [
            ("ops_per_s", "higher", 0.25),
            ("p50_ms", "lower", 0.25),
        ]

    def test_record_with_no_known_metrics_fails(self):
        rows = _gate([_record(mystery=1.0)])
        assert [(row["ok"], row["reason"]) for row in rows] == [
            (False, "missing from this run")
        ] * 2

    def test_baseline_of_an_unknown_workload_is_empty(self):
        assert bh.baseline(_history([1.0]), "sweep-cold", 0, 5) == (None, [])


class TestPersistence:
    def test_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        for record in _history([10.0, 11.0]):
            with open(path, "a") as handle:  # as perfbench/run.py --out appends
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        records = bh.read_history(path)
        assert records == _history([10.0, 11.0])

    def test_malformed_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        path.write_text(
            "not json\n"
            + json.dumps(["a", "list"]) + "\n"
            + json.dumps({"workload": "serve-hot", "trace": 0, "metrics": "not-a-dict"}) + "\n"
            # What the BENCH_*.json scraper used to append.
            + json.dumps({"ts": 1.0, "git_sha": "cafe", "metrics": {"service.hot_qps": 5.0}})
            + "\n"
            + json.dumps(_record(ops_per_s=5.0)) + "\n"
        )
        assert bh.read_history(path) == [_record(ops_per_s=5.0)]

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert bh.read_history(tmp_path / "absent.jsonl") == []

    def test_default_history_path_is_the_repo_roots_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BENCH_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        path = bh.default_history_path()
        assert path == bh.REPO_ROOT / bh.DEFAULT_HISTORY_FILENAME
        assert (bh.REPO_ROOT / "BENCHMARK.json").is_file()
        monkeypatch.setenv("BENCH_OUTPUT_DIR", "out")
        assert bh.default_history_path() == tmp_path / "out" / bh.DEFAULT_HISTORY_FILENAME


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
        records = (
            _history([1.0, 2.0], src_loc=100)
            + _history([9.0], trace=1, src_loc=999)
            + _history([3.0], workload="sweep-cold", src_loc=90)
        )
        assert bh.metric_series(records) == {
            ("serve-hot", "ops_per_s"): ("u", [1.0, 2.0]),
            ("serve-hot", "p50_ms"): ("u", [0.1, 0.1]),
            ("sweep-cold", "ops_per_s"): ("u", [3.0]),
            ("sweep-cold", "p50_ms"): ("u", [0.1]),
            ("", "context.src_loc"): ("lines", [100.0, 100.0, 90.0]),
        }
