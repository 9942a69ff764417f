"""End-to-end tests for fault-tolerant sweeps (the ISSUE acceptance
scenarios): checkpoint resume after an interrupt, retried transients
with full per-point accounting, and invariant guards catching corrupted
simulation results inside a sweep."""

import pytest

from repro.config.presets import paper_scaling_config
from repro.engine.scaleout import simulate
from repro.errors import InvariantError
from repro.robust.checkpoint import CheckpointStore
from repro.robust.faults import Fault, InjectedFault, inject_faults
from repro.robust.invariants import check_layer_result
from repro.robust.policy import ExecutionPolicy
from repro.sweep import run_sweep, run_sweep_report
from repro.topology.layer import GemmLayer

LAYER = GemmLayer("tf", m=64, k=32, n=64)


def measure(macs: int) -> dict:
    """One real grid point: simulate LAYER on a square array of ``macs``."""
    side = 1
    while side * side < macs:
        side <<= 1
    config = paper_scaling_config(side, macs // side)
    result = simulate(config, LAYER)
    return {"cycles": result.total_cycles, "dram_rd": result.dram_read_bytes}


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_without_reexecution(self, tmp_path):
        """A sweep killed mid-run resumes from its journal: completed
        points are replayed as ``cached``, only the rest execute."""
        journal = tmp_path / "sweep.jsonl"
        grid = [64, 256, 1024, 4096]

        # First run: an injected operator interrupt lands on the third point.
        interrupted = inject_faults(
            measure, Fault(kind="interrupt", when={"macs": 1024})
        )
        with pytest.raises(KeyboardInterrupt):
            run_sweep(interrupted, checkpoint=CheckpointStore(journal), macs=grid)

        # The journal holds exactly the points that finished.
        store = CheckpointStore(journal)
        assert store.completed_count == 2

        # Resume: finished points come from the journal, not the callable.
        executed = []

        def counting(macs):
            executed.append(macs)
            return measure(macs)

        rows, report = run_sweep_report(
            counting, checkpoint=CheckpointStore(journal), macs=grid
        )
        assert executed == [1024, 4096]
        assert report.cached == 2
        assert report.ok == 2
        assert len(rows) == len(grid)
        # Cached rows carry the original measurements.
        by_macs = {row["macs"]: row for row in rows}
        assert by_macs[64]["cycles"] == measure(64)["cycles"]

    def test_resumed_rows_match_uninterrupted_run(self, tmp_path):
        grid = [64, 256]
        direct = run_sweep(measure, macs=grid)
        journal = tmp_path / "sweep.jsonl"
        run_sweep(measure, checkpoint=CheckpointStore(journal), macs=grid)
        resumed = run_sweep(measure, checkpoint=CheckpointStore(journal), macs=grid)
        assert resumed == direct


class TestTransientRetries:
    def test_injected_transients_retried_to_success(self):
        """Transient failures succeed on retry and the report accounts
        for every grid point, attempts included."""
        grid = [64, 256, 1024]
        flaky = inject_faults(
            measure,
            Fault(kind="transient", when={"macs": 256}, times=2),
            Fault(kind="timeout", when={"macs": 1024}, times=1),
        )
        policy = ExecutionPolicy(max_retries=3, backoff_base=0.0, mode="collect")
        rows, report = run_sweep_report(flaky, policy=policy, macs=grid)

        assert len(report) == len(grid)
        assert report.ok == 3
        attempts = {record.params["macs"]: record.attempts for record in report}
        assert attempts == {64: 1, 256: 3, 1024: 2}
        assert all("cycles" in row for row in rows)

    def test_exhausted_point_reported_not_raised(self):
        grid = [64, 256]
        broken = inject_faults(
            measure, Fault(kind="transient", when={"macs": 256}, times=None)
        )
        policy = ExecutionPolicy(max_retries=1, backoff_base=0.0, mode="collect")
        rows, report = run_sweep_report(broken, policy=policy, macs=grid)
        assert report.ok == 1 and report.failed == 1
        (failure,) = report.failures()
        assert failure.attempts == 2
        assert "InjectedFault" in failure.error
        failed_row = [row for row in rows if row.get("status") == "failed"][0]
        assert failed_row["macs"] == 256


class TestInvariantGuardInSweep:
    def test_corrupted_cycle_count_caught(self, small_config):
        """A fault-injected cycle count is surfaced as InvariantError
        carrying both the corrupted and the analytical value."""
        layer = GemmLayer("g", m=32, k=16, n=24)
        honest = simulate(small_config, layer)

        def guarded(bump: int) -> dict:
            result = simulate(small_config, layer)
            if bump:  # fault injection: corrupt the measurement
                import dataclasses

                result = dataclasses.replace(
                    result, total_cycles=result.total_cycles + bump
                )
            check_layer_result(result, layer, small_config)
            return {"cycles": result.total_cycles}

        rows, report = run_sweep_report(
            guarded, skip_errors=True, bump=[0, 5000]
        )
        assert report.ok == 1 and report.failed == 1
        (failure,) = report.failures()
        assert failure.error.startswith("InvariantError")
        assert str(honest.total_cycles + 5000) in failure.error
        assert str(honest.total_cycles) in failure.error

    def test_fail_fast_raises_invariant_error(self, small_config):
        layer = GemmLayer("g", m=32, k=16, n=24)

        def corrupted(_point: int) -> dict:
            import dataclasses

            result = simulate(small_config, layer)
            result = dataclasses.replace(result, total_cycles=result.total_cycles * 3)
            check_layer_result(result, layer, small_config)
            return {"cycles": result.total_cycles}

        with pytest.raises(InvariantError, match="analytical"):
            run_sweep(corrupted, _point=[1])
