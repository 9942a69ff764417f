"""CLI exit-code hygiene and the robust batch flags."""

import json

import pytest

import repro.cli
from repro.cli import EXIT_CODES, EXIT_INCOMPLETE, exit_code_for, main
from repro.errors import (
    CheckpointError,
    ConfigError,
    InvariantError,
    PerfRegressionError,
    PointTimeoutError,
    ReproError,
    ResilienceError,
    SimulationError,
    TopologyError,
    VerificationError,
)


class TestExitCodeMapping:
    def test_codes_are_distinct_and_nonzero(self):
        codes = [code for _, code in EXIT_CODES]
        assert len(set(codes)) == len(codes)
        assert all(code not in (0, 1) for code in codes)

    @pytest.mark.parametrize(
        "exc, code",
        [
            (ConfigError("x"), 2),
            (TopologyError("x"), 3),
            (SimulationError("x"), 4),
            (CheckpointError("x"), 8),
            (InvariantError("x"), 9),
            (PointTimeoutError("x"), 10),  # via the ExecutionError base
            (ResilienceError("x"), 11),
            (VerificationError("x"), 16),
            (PerfRegressionError("x"), 17),
            (ReproError("x"), 1),  # no dedicated code -> generic failure
        ],
    )
    def test_mapping(self, exc, code):
        assert exit_code_for(exc) == code

    def test_verification_error_uses_documented_constant(self):
        from repro.cli import EXIT_VERIFICATION

        assert EXIT_VERIFICATION == 16
        assert exit_code_for(VerificationError("x")) == EXIT_VERIFICATION

    def test_perf_regression_uses_documented_constant(self):
        from repro.cli import EXIT_PERF_REGRESSION

        assert EXIT_PERF_REGRESSION == 17
        assert exit_code_for(PerfRegressionError("x")) == EXIT_PERF_REGRESSION


class TestCliErrorPaths:
    def test_topology_error_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(["run", "--topology", str(missing)])
        captured = capsys.readouterr()
        assert code == 3
        assert "error:" in captured.err
        assert "error:" not in captured.out

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[general]\nrun_name = x\n\n[architecture_presets\n")
        code = main(["run", "--config", str(bad), "--workload", "TF0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_8(self, capsys):
        code = main(["sweep", "--layer", "TF0", "--macs", "1024", "--resume"])
        assert code == 8
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_existing_checkpoint_without_resume_exits_8(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text("")
        code = main(
            ["sweep", "--layer", "TF0", "--macs", "1024",
             "--checkpoint", str(journal)]
        )
        assert code == 8
        assert "already exists" in capsys.readouterr().err


class TestResilienceCli:
    def test_bad_fault_spec_exits_11(self, capsys):
        code = main(["run", "--workload", "TF0", "--faults", "partition:zzz"])
        assert code == 11
        assert "error:" in capsys.readouterr().err

    def test_faults_and_fault_map_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"partitions": [[0, 0]]}))
        code = main(
            ["run", "--workload", "TF0",
             "--faults", "partition:0,0", "--fault-map", str(path)]
        )
        assert code == 11
        assert "mutually exclusive" in capsys.readouterr().err

    def test_run_with_faults_shows_degraded_columns(self, capsys):
        assert main(
            ["run", "--workload", "TF0", "--partitions", "2x2",
             "--faults", "partition:1,1"]
        ) == 0
        out = capsys.readouterr().out
        assert "failed_parts" in out
        assert "remapped_tiles" in out

    def test_resilience_happy_path(self, capsys):
        code = main(
            ["resilience", "--layer", "TF0", "--macs", "16384",
             "--dead", "0,1,2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "slowdown" in out
        assert "bound" in out

    def test_resilience_with_explicit_fault_map(self, tmp_path, capsys):
        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"partitions": [[0, 0], [1, 1]]}))
        code = main(
            ["resilience", "--layer", "TF0", "--macs", "16384",
             "--fault-map", str(path)]
        )
        assert code == 0
        assert "slowdown" in capsys.readouterr().out

    def test_resilience_checkpoint_resume(self, tmp_path, capsys):
        journal = tmp_path / "res.jsonl"
        argv = ["resilience", "--layer", "TF0", "--macs", "16384",
                "--dead", "0,1", "--checkpoint", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestDeprecatedWorkers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--layer", "TF0", "--macs", "16384"],
            ["resilience", "--layer", "TF0", "--macs", "16384", "--dead", "0,1"],
            ["reproduce", "table4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_workers_is_a_warned_no_op(self, argv, capsys):
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--workers", "2"]) == 0
        flagged = capsys.readouterr()
        assert flagged.out == plain.out
        warnings = [
            line for line in flagged.err.splitlines() if line.startswith("WARNING")
        ]
        assert len(warnings) == 1
        assert "--workers" in warnings[0]


class TestInterruptExit:
    ARGV = ["sweep", "--layer", "TF0", "--macs", "16384"]  # 1,4,16,64,256 partitions

    def test_ctrl_c_flushes_journal_exits_12_and_resumes_exactly(
        self, tmp_path, capsys, monkeypatch
    ):
        assert main(self.ARGV) == 0
        uninterrupted = capsys.readouterr().out

        real = repro.cli.sweep_measure
        calls = []

        def interrupt_at_16(partitions, **kwargs):
            if partitions == 16:
                raise KeyboardInterrupt
            return real(partitions, **kwargs)

        def counting(partitions, **kwargs):
            calls.append(partitions)
            return real(partitions, **kwargs)

        journal = tmp_path / "sweep.jsonl"
        argv = self.ARGV + ["--checkpoint", str(journal)]
        monkeypatch.setattr(repro.cli, "sweep_measure", interrupt_at_16)
        assert main(argv) == EXIT_INCOMPLETE == 12
        assert "error: interrupted" in capsys.readouterr().err
        entries = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [entry["status"] for entry in entries] == ["ok", "ok"]

        monkeypatch.setattr(repro.cli, "sweep_measure", counting)
        assert main(argv + ["--resume"]) == 0
        assert calls == [16, 64, 256]
        assert capsys.readouterr().out == uninterrupted


class TestSweepRobustFlags:
    def test_checkpoint_written_and_resumed(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--layer", "TF0", "--macs", "1024",
                "--checkpoint", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        entries = [json.loads(line) for line in journal.read_text().splitlines()]
        assert entries and all(entry["status"] == "ok" for entry in entries)

        # Resuming replays the journal: identical table, same journal size.
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(journal.read_text().splitlines()) == len(entries)

    def test_sweep_output_format_unchanged(self, capsys):
        assert main(["sweep", "--layer", "TF0", "--macs", "1024"]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out
        assert "avg_bw" in out


class TestReproduceRobustFlags:
    def test_reproduce_with_checkpoint_resumes(self, tmp_path, capsys):
        journal = tmp_path / "exp.jsonl"
        argv = ["reproduce", "table4", "--checkpoint", str(journal)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "TF0" in first

        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_unknown_experiment_still_systemexits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["reproduce", "fig99"])


class TestValidateExitCode:
    def test_validate_passing_run_exits_zero(self, capsys):
        assert main(["validate", "--trials", "2"]) == 0
