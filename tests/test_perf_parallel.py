"""Multiprocess sweeps must be indistinguishable from serial ones.

``workers > 1`` routes grid points through a process pool; everything
observable — row values and order, CSV bytes, per-point statuses,
checkpoint journals, circuit-breaker skip patterns — must match a
``workers=1`` run exactly.  These tests pin that contract, plus the
safety fallbacks (non-picklable work, injected clocks) that quietly
drop back to the serial path.

All point callables live at module level so they pickle by reference.
"""

from __future__ import annotations

import contextlib
import logging
import time

import pytest

from repro.robust.checkpoint import CheckpointStore
from repro.robust.executor import execute_grid, pickle_problem
from repro.robust.policy import ExecutionPolicy
from repro.robust.report import STATUS_CACHED, STATUS_FAILED, STATUS_OK, STATUS_SKIPPED
from repro.sweep import _CheckedCallable, run_sweep, run_sweep_report, sweep_to_csv

WORKERS = 2


def square(x: int) -> dict:
    return {"sq": x * x}


def square_rows(x: int) -> dict:
    return {"sq": x * x, "cube": x * x * x}


def fails_on_three(x: int) -> dict:
    if x == 3:
        raise ValueError(f"bad point {x}")
    return {"sq": x * x}


def fails_when_even(x: int) -> dict:
    if x % 2 == 0:
        raise ValueError(f"even point {x}")
    return {"sq": x * x}


def _statuses(report) -> list:
    return [record.status for record in report.records]


# ----------------------------------------------------------------------
# Serial/parallel equivalence
# ----------------------------------------------------------------------

def test_parallel_rows_and_csv_identical_to_serial(tmp_path):
    xs = list(range(12))
    serial = run_sweep(square_rows, x=xs)
    parallel = run_sweep(square_rows, x=xs, workers=WORKERS)
    assert parallel == serial
    serial_csv = sweep_to_csv(serial, tmp_path / "serial.csv")
    parallel_csv = sweep_to_csv(parallel, tmp_path / "parallel.csv")
    assert parallel_csv.read_bytes() == serial_csv.read_bytes()


def test_parallel_report_statuses_match_serial():
    xs = list(range(8))
    _, serial = run_sweep_report(square, x=xs)
    _, parallel = run_sweep_report(square, x=xs, workers=WORKERS)
    assert _statuses(parallel) == _statuses(serial)
    assert [r.params for r in parallel.records] == [r.params for r in serial.records]


def test_collect_mode_error_rows_identical_to_serial():
    xs = [1, 2, 3, 4, 5]
    serial = run_sweep(fails_on_three, skip_errors=True, x=xs)
    parallel = run_sweep(fails_on_three, skip_errors=True, x=xs, workers=WORKERS)
    assert parallel == serial
    bad = [row for row in parallel if row.get("status") == STATUS_FAILED]
    assert len(bad) == 1 and bad[0]["x"] == 3
    assert "bad point 3" in bad[0]["error"]


def test_circuit_breaker_trips_at_the_same_point_as_serial():
    xs = list(range(1, 11))  # evens 2,4 fail -> breaker trips after x=4
    policy = ExecutionPolicy(mode="collect", max_failures=2)
    _, serial = run_sweep_report(fails_when_even, policy=policy, x=xs)
    _, parallel = run_sweep_report(
        fails_when_even, policy=policy, x=xs, workers=WORKERS
    )
    assert _statuses(parallel) == _statuses(serial)
    assert _statuses(parallel) == [
        STATUS_OK, STATUS_FAILED, STATUS_OK, STATUS_FAILED,
        STATUS_SKIPPED, STATUS_SKIPPED, STATUS_SKIPPED,
        STATUS_SKIPPED, STATUS_SKIPPED, STATUS_SKIPPED,
    ]
    assert parallel.rows() == serial.rows()


def test_fail_fast_reraises_the_original_exception():
    with pytest.raises(ValueError, match="bad point 3"):
        run_sweep(
            fails_on_three,
            policy=ExecutionPolicy(mode="fail_fast"),
            x=[1, 2, 3, 4],
            workers=WORKERS,
        )


def test_parallel_resume_from_mid_sweep_checkpoint(tmp_path):
    xs = list(range(10))
    serial_journal = tmp_path / "serial.jsonl"
    parallel_journal = tmp_path / "parallel.jsonl"
    # Interrupt a serial sweep halfway: journal only the first 5 points.
    half = CheckpointStore(serial_journal)
    execute_grid(_CheckedCallable(square), [{"x": x} for x in xs[:5]], checkpoint=half)
    (tmp_path / "parallel.jsonl").write_bytes(serial_journal.read_bytes())

    _, serial = run_sweep_report(square, checkpoint=serial_journal, x=xs)
    _, parallel = run_sweep_report(
        square, checkpoint=parallel_journal, x=xs, workers=WORKERS
    )
    assert _statuses(serial) == [STATUS_CACHED] * 5 + [STATUS_OK] * 5
    assert _statuses(parallel) == _statuses(serial)
    assert parallel.rows() == serial.rows()
    # Both journals now hold all ten points, identically keyed.
    assert {e["key"] for e in CheckpointStore(parallel_journal)} == {
        e["key"] for e in CheckpointStore(serial_journal)
    }


def test_parallel_journal_replays_on_next_run(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    xs = [1, 2, 3, 4]
    first = run_sweep(square, checkpoint=journal, x=xs, workers=WORKERS)
    _, resumed = run_sweep_report(square, checkpoint=journal, x=xs, workers=WORKERS)
    assert _statuses(resumed) == [STATUS_CACHED] * len(xs)
    assert resumed.rows() == first


def test_retry_policy_applies_inside_workers(tmp_path):
    # A function that fails once per x, persisting state via the
    # filesystem so retries are observable across process boundaries.
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    policy = ExecutionPolicy(max_retries=2, backoff_base=0.0, jitter=0.0)
    rows, report = run_sweep_report(
        _FlakyOnce(str(marker_dir)), policy=policy, x=[1, 2, 3], workers=WORKERS
    )
    assert [r.status for r in report.records] == [STATUS_OK] * 3
    assert [r.attempts for r in report.records] == [2, 2, 2]
    assert rows == [{"x": x, "sq": x * x} for x in [1, 2, 3]]


class _FlakyOnce:
    """Fails the first time each point is tried, in any process."""

    def __init__(self, marker_dir: str):
        self.marker_dir = marker_dir

    def __call__(self, x: int) -> dict:
        import os

        marker = os.path.join(self.marker_dir, f"tried-{x}")
        if not os.path.exists(marker):
            with open(marker, "w") as handle:
                handle.write("1")
            raise RuntimeError(f"transient failure for {x}")
        return {"sq": x * x}


# ----------------------------------------------------------------------
# Fallback behaviour
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _capture_executor_warnings(caplog):
    """Capture executor warnings even when ``configure_logging`` has
    already turned off propagation on the ``repro`` logger hierarchy."""
    executor_logger = logging.getLogger("repro.robust.executor")
    executor_logger.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.robust.executor"):
            yield
    finally:
        executor_logger.removeHandler(caplog.handler)


def test_unpicklable_callable_falls_back_to_serial(caplog):
    with _capture_executor_warnings(caplog):
        rows = run_sweep(lambda x: {"sq": x * x}, x=[1, 2, 3], workers=WORKERS)
    assert rows == [{"x": x, "sq": x * x} for x in [1, 2, 3]]
    assert any("executing serially instead" in r.message for r in caplog.records)


def test_injected_clock_falls_back_to_serial(caplog):
    ticks = iter(range(1000))
    with _capture_executor_warnings(caplog):
        report = execute_grid(
            _CheckedCallable(square),
            [{"x": 1}, {"x": 2}],
            clock=lambda: float(next(ticks)),
            workers=WORKERS,
        )
    assert _statuses(report) == [STATUS_OK, STATUS_OK]
    assert any("injected sleep/clock" in r.message for r in caplog.records)


def test_workers_below_one_rejected():
    with pytest.raises(ValueError, match="workers"):
        execute_grid(_CheckedCallable(square), [{"x": 1}], workers=0)


def test_pickle_problem_diagnoses_each_ingredient():
    policy = ExecutionPolicy()
    assert pickle_problem(square, [{"x": 1}], policy) is None
    assert "callable" in pickle_problem(lambda x: x, [{"x": 1}], policy)
    assert "grid points" in pickle_problem(
        square, [{"x": lambda: None}], policy
    )


def test_checked_callable_pickles_when_wrapped_fn_does():
    import pickle

    wrapped = _CheckedCallable(square)
    clone = pickle.loads(pickle.dumps(wrapped))
    assert clone(x=3) == [{"x": 3, "sq": 9}]
    with pytest.raises(Exception):
        pickle.dumps(_CheckedCallable(lambda x: {"sq": x}))


def test_parallel_timeout_policy_still_enforced():
    policy = ExecutionPolicy(mode="collect", timeout=0.2, retry_on=())
    _, report = run_sweep_report(
        _SlowOnTwo(), policy=policy, x=[1, 2, 3], workers=WORKERS
    )
    assert _statuses(report) == [STATUS_OK, STATUS_FAILED, STATUS_OK]
    assert "PointTimeoutError" in report.records[1].error


class _SlowOnTwo:
    def __call__(self, x: int) -> dict:
        if x == 2:
            time.sleep(2.0)
        return {"sq": x * x}
