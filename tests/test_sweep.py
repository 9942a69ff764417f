"""Tests for the parameter-sweep runner."""

import csv

import pytest

from repro.errors import ExecutionError, SweepError
from repro.sweep import (
    grid_points,
    pivot,
    pivot_to_csv,
    run_sweep,
    run_sweep_report,
    sweep_to_csv,
)


def ledger_measure(partitions: int) -> dict:
    return {"cycles": 1000 * partitions, "avg_bw": round(partitions / 3.0, 3)}


def ledger_estimate(partitions: int) -> tuple:
    row = ledger_measure(partitions)
    return row, float(row["cycles"])


class TestRunSweep:
    def test_cartesian_product(self):
        rows = run_sweep(lambda a, b: {"sum": a + b}, a=[1, 2], b=[10, 20])
        assert len(rows) == 4
        assert {"a": 1, "b": 10, "sum": 11} in rows
        assert {"a": 2, "b": 20, "sum": 22} in rows

    def test_axis_order_is_keyword_order(self):
        rows = run_sweep(lambda a, b: {"x": 0}, a=[1, 2], b=[1, 2])
        assert [(row["a"], row["b"]) for row in rows] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_list_results_flatten(self):
        rows = run_sweep(lambda a: [{"i": i} for i in range(a)], a=[2, 3])
        assert len(rows) == 5

    def test_key_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            run_sweep(lambda a: {"a": 1}, a=[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(lambda: {})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_sweep(lambda a: {"x": a}, a=[])

    def test_errors_propagate_by_default(self):
        def boom(a):
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            run_sweep(boom, a=[1])

    def test_skip_errors_collects(self):
        def sometimes(a):
            if a == 2:
                raise RuntimeError("nope")
            return {"ok": True}

        rows = run_sweep(sometimes, skip_errors=True, a=[1, 2, 3])
        assert len(rows) == 3
        assert "RuntimeError" in rows[1]["error"]

    def test_with_real_simulator(self, small_config):
        from repro.engine.simulator import Simulator
        from repro.topology.layer import GemmLayer

        def measure(m):
            result = Simulator(small_config).run_layer(GemmLayer("g", m=m, k=8, n=8))
            return {"cycles": result.total_cycles}

        rows = run_sweep(measure, m=[8, 16, 32])
        cycles = [row["cycles"] for row in rows]
        assert cycles == sorted(cycles)


class TestCsvAndPivot:
    def test_csv_roundtrip(self, tmp_path):
        rows = run_sweep(lambda a, b: {"sum": a + b}, a=[1, 2], b=[3])
        path = sweep_to_csv(rows, tmp_path / "sweep.csv")
        with path.open() as handle:
            loaded = list(csv.DictReader(handle))
        assert len(loaded) == 2
        assert loaded[0]["sum"] == "4"

    def test_csv_union_header(self, tmp_path):
        rows = [{"a": 1, "x": 2}, {"a": 2, "y": 3}]
        path = sweep_to_csv(rows, tmp_path / "ragged.csv")
        with path.open() as handle:
            header = handle.readline().strip().split(",")
        assert header == ["a", "x", "y"]

    def test_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_to_csv([], tmp_path / "empty.csv")

    def test_pivot(self):
        rows = run_sweep(lambda a, b: {"sum": a + b}, a=[1, 2], b=[10, 20])
        table = pivot(rows, index="a", column="b", value="sum")
        assert table == {1: {10: 11, 20: 21}, 2: {10: 12, 20: 22}}

    def test_pivot_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            pivot([{"a": 1}], index="a", column="b", value="c")

    def test_pivot_to_csv_round_trip(self, tmp_path):
        rows = run_sweep(lambda a, b: {"sum": a + b}, a=[1, 2], b=[10, 20])
        table = pivot(rows, index="a", column="b", value="sum")
        path = pivot_to_csv(table, tmp_path / "pivot.csv", index_name="a")
        with path.open() as handle:
            loaded = list(csv.reader(handle))
        assert loaded == [["a", "10", "20"], ["1", "11", "21"], ["2", "12", "22"]]

    def test_pivot_to_csv_missing_cells_empty(self, tmp_path):
        table = {1: {10: 5}, 2: {20: 6}}
        path = pivot_to_csv(table, tmp_path / "ragged.csv")
        with path.open() as handle:
            loaded = list(csv.reader(handle))
        assert loaded == [["index", "10", "20"], ["1", "5", ""], ["2", "", "6"]]

    def test_pivot_to_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            pivot_to_csv({}, tmp_path / "empty.csv")

    def test_exports_leave_no_temp_residue(self, tmp_path):
        # Both exporters publish via atomic temp-file + rename; nothing
        # else may linger next to the result.
        rows = [{"a": 1, "b": 2}]
        sweep_to_csv(rows, tmp_path / "sweep.csv")
        pivot_to_csv({1: {2: 3}}, tmp_path / "pivot.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pivot.csv", "sweep.csv",
        ]

    def test_csv_export_failure_preserves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.csv"
        sweep_to_csv([{"a": 1}], path)
        before = path.read_bytes()

        def explode(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.utils.atomicio.os.replace", explode)
        with pytest.raises(OSError):
            sweep_to_csv([{"a": 2}], path)
        assert path.read_bytes() == before  # never a torn/partial CSV


class TestGridValidation:
    """grid_points raises typed SweepErrors naming the offending axis."""

    def test_sweep_error_is_typed(self):
        assert issubclass(SweepError, ExecutionError)
        assert issubclass(SweepError, ValueError)

    def test_no_axes_raises_sweep_error(self):
        with pytest.raises(SweepError, match="at least one"):
            grid_points()

    def test_empty_axis_names_the_key(self):
        with pytest.raises(SweepError, match="'macs'.*empty"):
            grid_points(array=[1], macs=[])

    def test_string_axis_rejected_with_key(self):
        # A bare string would silently sweep per character.
        with pytest.raises(SweepError, match="'layer'.*sequence"):
            grid_points(layer="TF0")

    def test_non_sequence_axis_rejected_with_key(self):
        with pytest.raises(SweepError, match="'macs'.*int"):
            grid_points(macs=4096)

    def test_generator_axis_rejected(self):
        with pytest.raises(SweepError, match="'a'"):
            grid_points(a=(x for x in range(3)))

    def test_run_sweep_propagates_sweep_error(self):
        with pytest.raises(SweepError):
            run_sweep(lambda macs: {"x": macs}, macs=2048)


class TestLedgerSweep:
    """run_sweep's ledger/incremental contract (details in
    tests/test_ledger_crash.py; this pins the sweep-facing API)."""

    def test_ledger_path_is_opened_and_journalled(self, tmp_path):
        from repro.sweep import SweepLedger

        rows = run_sweep(
            ledger_measure, ledger=tmp_path / "led", partitions=[1, 2, 4]
        )
        assert len(rows) == 3
        reopened = SweepLedger(tmp_path / "led")
        assert reopened.completed_count == 3
        assert len((tmp_path / "led" / "journal.jsonl").read_text().splitlines()) == 3

    def test_checkpoint_and_ledger_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            run_sweep(
                ledger_measure,
                checkpoint=tmp_path / "ck.jsonl",
                ledger=tmp_path / "led",
                partitions=[1],
            )

    def test_incremental_needs_a_ledger(self):
        with pytest.raises(ValueError, match="ledger"):
            run_sweep(ledger_measure, incremental=True, partitions=[1])

    def test_incremental_simulates_only_new_points(self, tmp_path):
        run_sweep(ledger_measure, ledger=tmp_path / "led",
                  incremental=True, partitions=[1, 2])
        calls = []

        def counting(partitions):
            calls.append(partitions)
            return ledger_measure(partitions)

        rows = run_sweep(counting, ledger=tmp_path / "led",
                         incremental=True, partitions=[1, 2, 4, 8])
        assert calls == [4, 8]
        assert [row["cycles"] for row in rows] == [1000, 2000, 4000, 8000]

    def test_compiler_reused_counter_accounts_replays(self, tmp_path):
        from repro import obs

        obs.metrics.enable()
        run_sweep_report(
            ledger_measure, estimator=ledger_estimate, top_k=2,
            ledger=tmp_path / "led", incremental=True,
            partitions=[1, 2, 4, 8, 16, 32],
        )
        before = dict(obs.metrics.snapshot()["counters"])
        run_sweep_report(
            ledger_measure, estimator=ledger_estimate, top_k=2,
            ledger=tmp_path / "led", incremental=True,
            partitions=[1, 2, 4, 8, 16, 32],
        )
        after = obs.metrics.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        # Second run: the whole frontier replays from the ledger.
        assert delta("perf.compiler.simulated") == 0
        assert delta("perf.compiler.reused") == delta("perf.compiler.points") - delta(
            "perf.compiler.pruned"
        ) > 0
