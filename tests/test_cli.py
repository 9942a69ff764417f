"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.config.parser import dump_config
from repro.config.presets import SMALL_TEST
from repro.topology.parser import dump_topology
from repro.workloads.alexnet import alexnet


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_flags(self):
        args = build_parser().parse_args(["run", "--workload", "alexnet", "--array", "8x8"])
        assert args.workload == "alexnet"


class TestWorkloadsCommand:
    def test_lists_builtin(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "TF0" in out


class TestRunCommand:
    def test_run_builtin_layer(self, capsys):
        assert main(["run", "--workload", "TF1", "--array", "32x32"]) == 0
        out = capsys.readouterr().out
        assert "TF1" in out and "cycles" in out

    def test_run_with_partitions(self, capsys):
        assert main(["run", "--workload", "NCF0", "--array", "8x8", "--partitions", "2x2"]) == 0
        assert "2x2" in capsys.readouterr().out

    def test_run_with_files(self, tmp_path, capsys):
        config_path = dump_config(SMALL_TEST, tmp_path / "config.cfg")
        topo_path = dump_topology(alexnet(), tmp_path / "alexnet.csv")
        code = main([
            "run", "-c", str(config_path), "-t", str(topo_path),
            "-o", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "alexnet_report.csv").exists()

    def test_run_requires_workload_or_topology(self):
        with pytest.raises(SystemExit):
            main(["run", "--array", "8x8"])

    def test_bad_array_shape(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "TF1", "--array", "32by32"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--workload", "NCF0", "--array", "0x64"], "--array"),
            (["run", "--workload", "NCF0", "--partitions", "0x2"], "--partitions"),
            (["dram", "--workload", "NCF0", "--array", "64x64", "--channels", "0"], "--channels"),
            (["sweep", "--layer", "TF0", "--macs", "65536", "--partitions", "0,4"],
             "--partitions"),
            (["sweep", "--layer", "TF0", "--macs", "65536", "--partitions", "x,4"],
             "--partitions"),
            (["resilience", "--layer", "TF0", "--macs", "16384", "--partitions", "0"],
             "--partitions"),
            (["search", "--workload", "language-models", "--macs", "0"], "--macs"),
            (["search", "--workload", "language-models", "--macs", "-4"], "--macs"),
            (["recommend", "--workload", "NCF0", "--macs", "0"], "--macs"),
            (["recommend", "--workload", "NCF0", "--macs", "-4"], "--macs"),
            (["run", "--workload", "NCF0", "--array", "32x32", "--batch", "-2"], "--batch"),
            (["run", "--workload", "NCF0", "--array", "32x32", "--batch", "0"], "--batch"),
        ],
    )
    def test_zero_size_is_a_usage_error(self, argv, flag):
        with pytest.raises(SystemExit, match=flag):
            main(argv)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["run", "--workload", "mobilenet", "--array", "32x32"],
             ["--workload 'mobilenet'", "available:", "mobilenet-v1", "TF0"]),
            (["dram", "--workload", "mobilenet", "--array", "32x32"],
             ["--workload 'mobilenet'", "available:", "mobilenet-v1"]),
            (["recommend", "--workload", "mobilenet", "--macs", "4096"],
             ["--workload 'mobilenet'", "available:", "mobilenet-v1"]),
            (["sweep", "--layer", "CB2a_3", "--workload", "mobilenet", "--macs", "65536"],
             ["--workload 'mobilenet'", "available:", "mobilenet-v1"]),
            (["sweep", "--layer", "TF0", "--macs", "65536", "--top-k", "-1"],
             ["invalid --top-k -1"]),
            (["sweep", "--layer", "TF0", "--macs", "65536", "--prune-band", "-0.5"],
             ["invalid --prune-band -0.5"]),
        ],
    )
    def test_bad_value_is_a_one_line_usage_error(self, argv, expected):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = str(excinfo.value.code)
        assert "\n" not in message
        for part in expected:
            assert part in message

    @pytest.mark.parametrize(
        "command, scope",
        [("dram", "dram replays single-array traces"),
         ("analyze", "analyze estimates single arrays")],
    )
    def test_partitioned_config_names_the_config_grid(self, tmp_path, command, scope):
        config_path = dump_config(SMALL_TEST.with_partitions(2, 2), tmp_path / "grid.cfg")
        assert "PartitionRows = 2" in config_path.read_text()
        with pytest.raises(SystemExit) as excinfo:
            main([command, "-c", str(config_path), "--workload", "NCF0"])
        assert str(excinfo.value.code) == (
            f"{scope}; the config's 2x2 partition grid must be 1x1"
        )

    def test_dataflow_override(self, capsys):
        assert main(["run", "--workload", "TF1", "--array", "16x16", "--dataflow", "ws"]) == 0
        assert "ws" in capsys.readouterr().out


class TestSearchCommand:
    def test_scaleup_search(self, capsys):
        assert main(["search", "--workload", "language-models", "--macs", "1024"]) == 0
        out = capsys.readouterr().out
        assert "optimal scale-up" in out and "best:" in out

    def test_scaleout_search(self, capsys):
        code = main(["search", "--workload", "language-models", "--macs", "4096", "--scaleout"])
        assert code == 0
        assert "scale-out" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_language_layer(self, capsys):
        assert main(["sweep", "--layer", "TF1", "--macs", "1024"]) == 0
        out = capsys.readouterr().out
        assert "partitions" in out

    def test_sweep_resnet_layer(self, capsys):
        code = main(["sweep", "--layer", "CB2a_3", "--macs", "1024", "--partitions", "1,4"])
        assert code == 0

    def test_sweep_rejects_non_pow2(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--layer", "TF1", "--macs", "1000"])

    def test_sweep_unknown_layer(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--layer", "Nope", "--macs", "1024"])
