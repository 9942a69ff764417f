"""The perf-regression sentinel: suite, durable history, rolling compare."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import PerfRegressionError
from repro.obs import bench
from repro.obs.bench import (
    BENCH_SCHEMA,
    BENCHES,
    BenchResult,
    compare,
    load_history,
    record,
    run_suite,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def history_entry(name: str, wall: float, counters=None) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "benches": {name: {"wall_time_s": wall, "counters": counters or {}}},
    }


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

class TestRunSuite:
    def test_measures_every_bench_with_counter_deltas(self):
        results = run_suite(repeats=1)
        assert [result.name for result in results] == list(BENCHES)
        for result in results:
            assert result.wall_time_s > 0
            assert result.counters, f"{result.name} moved no counters"
            assert result.counters.get("sim.cycles", 0) > 0

    def test_counters_are_deterministic_across_runs(self):
        first = run_suite(["gemm_256"], repeats=1)[0]
        second = run_suite(["gemm_256"], repeats=1)[0]
        assert first.counters == second.counters

    def test_leaves_disabled_registry_disabled(self):
        assert not obs.metrics.enabled
        run_suite(["gemm_256"], repeats=1)
        assert not obs.metrics.enabled

    def test_unknown_bench_and_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="unknown bench"):
            run_suite(["nope"])
        with pytest.raises(ValueError, match="repeats"):
            run_suite(["gemm_256"], repeats=0)


# ----------------------------------------------------------------------
# Durable history
# ----------------------------------------------------------------------

class TestHistory:
    def test_record_appends_schema_tagged_jsonl(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        results = [BenchResult("gemm_256", 0.01, {"sim.cycles": 100})]
        record(path, results, note="first")
        record(path, results)
        entries = load_history(path)
        assert len(entries) == 2
        assert entries[0]["schema"] == BENCH_SCHEMA
        assert entries[0]["note"] == "first"
        assert entries[0]["benches"]["gemm_256"]["wall_time_s"] == 0.01
        assert entries[0]["benches"]["gemm_256"]["counters"] == {"sim.cycles": 100}

    def test_record_fsyncs_the_history_file(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "history.jsonl"
        synced = []
        real = os.fsync

        def counting(fd):
            synced.append(os.fstat(fd).st_ino)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        record(path, [BenchResult("gemm_256", 0.01, {})])
        assert path.stat().st_ino in synced  # the line, not just the directory

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_malformed_line_raises_foreign_schema_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps({"schema": "other/1"}) + "\n")
        assert load_history(path) == []
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="malformed"):
            load_history(path)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

class TestCompare:
    def test_no_history_passes(self):
        report = compare([], [BenchResult("gemm_256", 0.5)])
        assert report.ok
        assert report.verdicts[0].baseline_s is None
        report.raise_on_regression()  # no-op

    def test_within_threshold_passes(self):
        history = [history_entry("gemm_256", 1.0)]
        report = compare(history, [BenchResult("gemm_256", 1.2)], threshold=0.25)
        assert report.ok
        assert report.verdicts[0].ratio == pytest.approx(1.2)

    def test_regression_beyond_threshold_trips(self):
        history = [history_entry("gemm_256", 1.0)]
        report = compare(history, [BenchResult("gemm_256", 1.5)], threshold=0.25)
        assert not report.ok
        with pytest.raises(PerfRegressionError, match="gemm_256"):
            report.raise_on_regression()

    def test_baseline_is_rolling_median_of_window(self):
        history = [history_entry("gemm_256", wall) for wall in
                   (9.0, 1.0, 1.2, 1.0, 1.1, 1.0)]
        report = compare(history, [BenchResult("gemm_256", 1.05)], window=5)
        # the ancient 9.0 outlier fell out of the window; median of the
        # last five is 1.0
        assert report.verdicts[0].baseline_s == pytest.approx(1.0)

    def test_noise_floor_guards_micro_benches(self):
        history = [history_entry("gemm_256", 0.001)]
        # +300% relative, but only 3ms absolute: below the floor
        report = compare(
            history, [BenchResult("gemm_256", 0.004)],
            threshold=0.25, noise_floor_s=0.010,
        )
        assert report.ok
        report = compare(
            history, [BenchResult("gemm_256", 0.004)],
            threshold=0.25, noise_floor_s=0.0,
        )
        assert not report.ok

    def test_counter_growth_trips_shrink_does_not(self):
        history = [history_entry("gemm_256", 1.0, {"sim.cycles": 1000})]
        grown = compare(history, [BenchResult("gemm_256", 1.0,
                                              {"sim.cycles": 1100})])
        assert not grown.ok
        assert "sim.cycles" in grown.verdicts[0].counter_regressions
        shrunk = compare(history, [BenchResult("gemm_256", 1.0,
                                               {"sim.cycles": 900})])
        assert shrunk.ok

    def test_inject_slowdown_self_test(self):
        history = [history_entry("gemm_256", 1.0)]
        report = compare(
            history, [BenchResult("gemm_256", 1.0)],
            threshold=0.25, inject_slowdown=0.5,
        )
        assert not report.ok
        assert report.verdicts[0].wall_time_s == pytest.approx(1.5)

    def test_render_names_the_culprit(self):
        history = [history_entry("gemm_256", 1.0)]
        report = compare(history, [BenchResult("gemm_256", 2.0)])
        text = report.render()
        assert "REGRESSED" in text and "wall +100%" in text

    def test_real_suite_against_its_own_recording(self, tmp_path):
        # end to end: record a run, then compare an identical run
        path = tmp_path / "history.jsonl"
        results = bench.run_suite(["gemm_256"], repeats=1)
        bench.record(path, results)
        report = bench.compare(bench.load_history(path),
                               bench.run_suite(["gemm_256"], repeats=1))
        assert report.ok, report.render()
