"""CLI observability: --version, --trace/--metrics, stats, flight, bench."""

import json
import logging

import pytest

from repro import obs
from repro._version import __version__
from repro.cli import (
    EXIT_CODES,
    EXIT_FAILURE,
    EXIT_INCOMPLETE,
    EXIT_PERF_REGRESSION,
    main,
)
from repro.config.presets import paper_scaling_config
from repro.engine.simulator import Simulator
from repro.engine.tracefiles import dram_request_stream
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.obs import flight
from repro.perf.cache import cache
from repro.workloads.language import language_layer

#: The retired result store's environment variable; setting it only warns.
STORE_ENV_VAR = "REPRO_RESULT_STORE"


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    flight.disarm()
    yield
    obs.reset()
    flight.disarm()
    logging.getLogger("repro").setLevel(logging.WARNING)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_dunder_version(self):
        import repro

        assert repro.__version__ == __version__


class TestTraceAndMetricsFlags:
    def test_run_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        code = main([
            "--trace", str(trace_path),
            "run", "--workload", "NCF0", "--array", "8x8",
        ])
        assert code == 0
        doc = json.loads(trace_path.read_text())
        assert "traceEvents" in doc
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans, "trace must contain at least one complete event"
        for event in spans:
            assert {"name", "ph", "ts", "dur"} <= set(event)
        names = {e["name"] for e in spans}
        assert "engine.run_layer" in names
        # header attributes the run
        assert doc["metadata"]["version"] == __version__
        assert doc["metadata"]["config_hash"]
        assert doc["metadata"]["command"] == "run"

    def test_dram_replay_traces_stream_and_run(self, tmp_path, capsys):
        trace_path = tmp_path / "dram.trace.json"
        code = main([
            "--trace", str(trace_path),
            "dram", "--workload", "NCF0", "--array", "64x64",
        ])
        assert code == 0
        requests = {}
        for event in json.loads(trace_path.read_text())["traceEvents"]:
            if event["ph"] == "X" and event["name"] in ("dram.stream", "dram.run"):
                requests.setdefault(event["name"], []).append(event["args"]["requests"])
        config = paper_scaling_config(32, 32).with_array(64, 64)
        simulator = Simulator(config)
        layer = language_layer("NCF0")
        traffic = compute_dram_traffic(
            simulator.engine(layer), BufferSet.from_config(config), config.word_bytes
        )
        replayed = len(list(dram_request_stream(traffic, simulator.address_layout(layer))))
        assert requests == {"dram.stream": [replayed], "dram.run": [replayed]}

    def test_run_writes_metrics_snapshot(self, tmp_path, capsys):
        metrics_path = tmp_path / "run.metrics.json"
        code = main([
            "--metrics", str(metrics_path),
            "run", "--workload", "NCF0", "--array", "8x8",
        ])
        assert code == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["counters"]["sim.layers"] == 1
        assert doc["counters"]["sim.cycles"] > 0
        assert doc["metadata"]["config_hash"]

    def test_events_jsonl(self, tmp_path, capsys):
        events_path = tmp_path / "run.events.jsonl"
        code = main([
            "--events", str(events_path),
            "run", "--workload", "NCF0", "--array", "8x8",
        ])
        assert code == 0
        lines = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert any(line["type"] == "span" for line in lines[1:])

    def test_flags_off_leaves_singletons_disabled(self, capsys):
        assert main(["run", "--workload", "NCF0", "--array", "8x8"]) == 0
        assert not obs.trace.enabled
        assert not obs.metrics.enabled
        assert len(obs.trace.records()) == 0

    def test_trace_written_even_when_command_fails(self, tmp_path, capsys):
        trace_path = tmp_path / "fail.trace.json"
        code = main([
            "--trace", str(trace_path),
            "run", "--workload", "NCF0", "--array", "8x8",
            "--faults", "partition:0",  # 1x1 grid: killing it is fatal
        ])
        assert code != 0
        assert trace_path.exists()
        json.loads(trace_path.read_text())


class TestCacheAndStoreFlags:
    """The global --no-cache flag reaches the engine; the retired
    --store/--no-store flags and REPRO_RESULT_STORE only warn."""

    RUN = ["run", "--workload", "resnet50", "--array", "32x32"]

    @pytest.fixture(autouse=True)
    def _pristine_memo(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        cache.reset()
        yield
        cache.reset()

    def _run(self, capsys, *flags):
        cache.reset()
        assert main([*flags, *self.RUN]) == 0
        out, err = capsys.readouterr()
        warnings = [line for line in err.splitlines() if line.startswith("WARNING")]
        return out, warnings

    def _counters(self, path, *flags):
        obs.reset()
        assert main([*flags, "--metrics", str(path), *self.RUN]) == 0
        return json.loads(path.read_text())["counters"]

    def test_no_cache_skips_the_lru(self, tmp_path, capsys):
        counters = self._counters(tmp_path / "off.json", "--no-cache")
        assert counters.get("perf.cache.hits", 0) == 0
        cache.reset()
        counters = self._counters(tmp_path / "on.json")
        assert counters["perf.cache.hits"] > 0

    @pytest.mark.parametrize("flag", ["--store", "--no-store"])
    def test_store_flags_only_warn(self, flag, tmp_path, capsys):
        plain, quiet = self._run(capsys)
        assert quiet == []
        store = tmp_path / "store"
        flags = [flag, str(store)] if flag == "--store" else [flag]
        out, warnings = self._run(capsys, *flags)
        assert out == plain
        assert len(warnings) == 1 and "ignored" in warnings[0]
        assert not store.exists()

    def test_store_environment_only_warns(self, tmp_path, capsys, monkeypatch):
        plain, _ = self._run(capsys)
        store = tmp_path / "store"
        store.mkdir()
        monkeypatch.setenv(STORE_ENV_VAR, str(store))
        out, warnings = self._run(capsys)
        assert out == plain
        assert len(warnings) == 1 and STORE_ENV_VAR in warnings[0]
        assert list(store.iterdir()) == []


class TestStatsCommand:
    def test_stats_on_recorded_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main([
            "--trace", str(trace_path),
            "run", "--workload", "NCF0", "--array", "8x8",
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "engine.run_layer" in out
        assert "self" in out  # ranked by self-time

    def test_stats_on_recorded_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        assert main([
            "--metrics", str(metrics_path),
            "run", "--workload", "NCF0", "--array", "8x8",
        ]) == 0
        capsys.readouterr()
        assert main(["stats", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "sim.cycles" in out

    def test_stats_missing_file_is_config_error(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.json")])
        assert code == 2  # ConfigError
        assert "error:" in capsys.readouterr().err

    def test_stats_wrong_format_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"rows": []}))
        assert main(["stats", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFlightFlag:
    def test_failure_with_flight_leaves_a_dump(self, tmp_path, capsys):
        flight_dir = tmp_path / "flight"
        code = main([
            "--flight", str(flight_dir),
            "run", "--workload", "NCF0", "--array", "8x8",
            "--faults", "partition:0",  # ResilienceError, exit 11
        ])
        assert code >= 10
        dumps = list(flight_dir.glob("flight-*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert doc["exit_code"] == code
        assert "flight recorder dump" in capsys.readouterr().err

    def test_success_with_flight_leaves_nothing(self, tmp_path, capsys):
        flight_dir = tmp_path / "flight"
        assert main([
            "--flight", str(flight_dir),
            "run", "--workload", "NCF0", "--array", "8x8",
        ]) == 0
        assert not list(flight_dir.glob("flight-*.json")) if flight_dir.exists() else True

    def test_low_exit_codes_do_not_dump(self, tmp_path, capsys):
        # ConfigError (2) is a user mistake, not an infrastructure crash
        flight_dir = tmp_path / "flight"
        assert main([
            "--flight", str(flight_dir), "stats", str(tmp_path / "nope.json"),
        ]) == 2
        assert not flight_dir.exists() or not list(flight_dir.glob("flight-*.json"))

    def test_env_var_arms_the_recorder(self, tmp_path, capsys, monkeypatch):
        flight_dir = tmp_path / "from-env"
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, str(flight_dir))
        code = main([
            "run", "--workload", "NCF0", "--array", "8x8",
            "--faults", "partition:0",
        ])
        assert code >= 10
        assert list(flight_dir.glob("flight-*.json"))

    def test_stats_renders_a_flight_dump(self, tmp_path, capsys):
        # an incomplete sweep (exit 12) executes real points before
        # failing, so the dump carries engine spans worth rendering
        from repro.perf.cache import cache

        cache.reset()  # a warm layer cache would skip the engine spans
        flight_dir = tmp_path / "flight"
        code = main([
            "--flight", str(flight_dir),
            "resilience", "--layer", "TF0", "--macs", "1024",
            "--partitions", "4", "--dead", "0,99", "--max-failures", "2",
        ])
        assert code == EXIT_INCOMPLETE
        dump = next(flight_dir.glob("flight-*.json"))
        capsys.readouterr()
        flight.disarm()  # the reader must not depend on the armed writer
        assert main(["stats", "--from-flight", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder dump" in out
        assert "robust.grid_point" in out
        assert "sweep incomplete" in out  # the log tail tells the story

    def test_stats_rejects_both_or_neither_input(self, tmp_path, capsys):
        assert main(["stats"]) == 2
        assert "exactly one" in capsys.readouterr().err
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["stats", str(path), "--from-flight", str(path)]) == 2

    def test_stats_rejects_non_flight_file(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "else/1"}))
        assert main(["stats", "--from-flight", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchCommand:
    def test_record_then_clean_compare_exits_zero(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        argv_tail = ["--history", str(history), "--benches", "gemm_256",
                     "--repeats", "1"]
        assert main(["bench", "record"] + argv_tail + ["--note", "seed"]) == 0
        assert "recorded" in capsys.readouterr().out
        assert main(["bench", "compare"] + argv_tail) == 0
        assert "ok" in capsys.readouterr().out

    @staticmethod
    def _tiny_baseline(path):
        # a synthetic near-zero baseline: any real measurement regresses
        # against it, so the verdict never depends on wall-clock noise
        entry = {"schema": "repro.bench/1",
                 "benches": {"gemm_256": {"wall_time_s": 1e-9, "counters": {}}}}
        path.write_text(json.dumps(entry) + "\n")

    @staticmethod
    def _generous_baseline(path):
        # a synthetic one-second baseline: no real measurement regresses
        # against it, so the verdict never depends on wall-clock noise
        entry = {"schema": "repro.bench/1",
                 "benches": {"gemm_256": {"wall_time_s": 1.0, "counters": {}}}}
        path.write_text(json.dumps(entry) + "\n")

    def test_injected_regression_exits_17(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        self._tiny_baseline(history)
        code = main(
            ["bench", "compare", "--history", str(history),
             "--benches", "gemm_256", "--repeats", "1",
             "--threshold", "0.5", "--inject-slowdown", "5.0",
             "--noise-floor", "0"]
        )
        assert code == EXIT_PERF_REGRESSION == 17
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "performance regression" in captured.err

    def test_compare_record_appends_only_passing_runs(self, tmp_path, capsys):
        assert main(["bench", "record", "--history", str(tmp_path / "recorded.jsonl"),
                     "--benches", "gemm_256", "--repeats", "1"]) == 0
        history = tmp_path / "history.jsonl"
        self._generous_baseline(history)
        argv_tail = ["--history", str(history), "--benches", "gemm_256",
                     "--repeats", "1"]
        assert main(["bench", "compare", "--record"] + argv_tail) == 0
        assert len(history.read_text().splitlines()) == 2

        poisoned = tmp_path / "tiny.jsonl"
        self._tiny_baseline(poisoned)
        code = main(["bench", "compare", "--record",
                     "--history", str(poisoned),
                     "--benches", "gemm_256", "--repeats", "1",
                     "--noise-floor", "0"])
        assert code == EXIT_PERF_REGRESSION
        assert len(poisoned.read_text().splitlines()) == 1  # not recorded

    def test_unknown_bench_is_config_error(self, tmp_path, capsys):
        code = main(["bench", "record", "--history",
                     str(tmp_path / "h.jsonl"), "--benches", "nope"])
        assert code == 2
        assert "unknown bench" in capsys.readouterr().err


class TestIncompleteExit:
    def test_incomplete_sweep_returns_distinct_code(self, capsys):
        code = main([
            "resilience", "--layer", "TF0", "--macs", "1024",
            "--partitions", "4", "--dead", "0,99", "--max-failures", "2",
        ])
        assert code == EXIT_INCOMPLETE
        assert EXIT_INCOMPLETE not in (0, EXIT_FAILURE)
        # 12 means "the sweep ran but is incomplete" (breaker trip,
        # skips, Ctrl-C); no error class may claim it.
        claimants = {exc for exc, c in EXIT_CODES if c == EXIT_INCOMPLETE}
        assert claimants == set()

    def test_complete_sweep_returns_zero(self, capsys):
        assert main([
            "resilience", "--layer", "TF0", "--macs", "1024",
            "--partitions", "4", "--dead", "0,1",
        ]) == 0


class TestLoggingFlags:
    def test_warning_is_default_threshold(self, capsys):
        assert main(["workloads"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING

    def test_verbose_enables_progress_logs(self, capsys):
        code = main([
            "-v", "resilience", "--layer", "TF0", "--macs", "1024",
            "--partitions", "4", "--dead", "0,1",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "sweep 1/2" in err
        assert "sweep 2/2" in err

    def test_log_level_flag_overrides(self, capsys):
        assert main(["--log-level", "debug", "workloads"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_tables_stay_on_stdout(self, capsys):
        assert main([
            "-v", "resilience", "--layer", "TF0", "--macs", "1024",
            "--partitions", "4", "--dead", "0",
        ]) == 0
        captured = capsys.readouterr()
        assert "slowdown" in captured.out
        assert "slowdown" not in captured.err

    def test_validate_keeps_its_own_verbose_flag(self, capsys):
        assert main(["validate", "--trials", "1", "-v"]) == 0
        # the subcommand's own -v (print every comparison) still works
        assert "[PASS]" in capsys.readouterr().out
