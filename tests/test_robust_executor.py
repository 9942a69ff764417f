"""Unit tests for the fault-tolerant point/batch executor."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import CircuitOpenError, PointTimeoutError
from repro.robust.executor import execute_grid, execute_point
from repro.robust.policy import ExecutionPolicy
from repro.robust.report import exception_chain

SRC = str(Path(__file__).resolve().parents[1] / "src")
NO_SLEEP = lambda _delay: None  # noqa: E731 - keep retry tests instant


class TestExecutePoint:
    def test_success_first_try(self):
        record = execute_point(lambda a: {"x": a + 1}, {"a": 1})
        assert record.status == "ok"
        assert record.attempts == 1
        assert record.rows == ({"x": 2},)

    def test_failure_records_error_chain(self):
        def boom(a):
            try:
                raise KeyError("inner")
            except KeyError as exc:
                raise RuntimeError("outer") from exc

        record = execute_point(boom, {"a": 1})
        assert record.status == "failed"
        assert record.error == "RuntimeError: outer"
        assert record.error_chain == ("RuntimeError: outer", "KeyError: 'inner'")
        assert isinstance(record.exception, RuntimeError)

    def test_retries_until_success(self):
        calls = []

        def flaky(a):
            calls.append(a)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return {"ok": True}

        policy = ExecutionPolicy(max_retries=5)
        record = execute_point(flaky, {"a": 1}, policy=policy, sleep=NO_SLEEP)
        assert record.status == "ok"
        assert record.attempts == 3
        assert len(calls) == 3

    def test_retries_exhausted(self):
        def always(a):
            raise RuntimeError("still broken")

        policy = ExecutionPolicy(max_retries=2)
        record = execute_point(always, {"a": 1}, policy=policy, sleep=NO_SLEEP)
        assert record.status == "failed"
        assert record.attempts == 3

    def test_backoff_schedule_is_deterministic(self):
        slept = []

        def always(a):
            raise RuntimeError("nope")

        policy = ExecutionPolicy(max_retries=2, backoff_base=1.0, jitter=0.5)
        execute_point(always, {"a": 1}, policy=policy, key="k", sleep=slept.append)
        again = []
        execute_point(always, {"a": 1}, policy=policy, key="k", sleep=again.append)
        assert slept == again
        assert len(slept) == 2

    def test_non_retryable_exception_fails_immediately(self):
        calls = []

        def bad(a):
            calls.append(a)
            raise ValueError("config bug")

        policy = ExecutionPolicy(max_retries=5, retry_on=(TimeoutError,))
        record = execute_point(bad, {"a": 1}, policy=policy, sleep=NO_SLEEP)
        assert record.status == "failed"
        assert len(calls) == 1

    def test_wallclock_timeout(self):
        def hang(a):
            time.sleep(0.8)
            return {"x": a}

        policy = ExecutionPolicy(timeout=0.05)
        record = execute_point(hang, {"a": 1}, policy=policy)
        assert record.status == "failed"
        assert "PointTimeoutError" in record.error
        assert isinstance(record.exception, PointTimeoutError)

    def test_timed_out_attempt_does_not_delay_process_exit(self):
        # The abandoned attempt still sleeps when the child's main thread
        # returns; exit must not wait for it.
        child = (
            "import time\n"
            "from repro.robust.executor import execute_point\n"
            "from repro.robust.policy import ExecutionPolicy\n"
            "record = execute_point(lambda a: time.sleep(a), {'a': 10.0},\n"
            "                       policy=ExecutionPolicy(timeout=0.2))\n"
            "print(record.error)\n"
        )
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", child], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert "PointTimeoutError" in done.stdout
        assert elapsed < 5.0

    def test_keyboard_interrupt_propagates(self):
        def interrupted(a):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_point(interrupted, {"a": 1})

    def test_keyboard_interrupt_propagates_from_a_timed_attempt(self):
        def interrupted(a):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_point(interrupted, {"a": 1}, policy=ExecutionPolicy(timeout=5.0))

    def test_non_dict_result_rejected(self):
        record = execute_point(lambda a: 42, {"a": 1})
        assert record.status == "failed"
        assert "TypeError" in record.error


class TestExecuteGrid:
    def test_all_points_accounted(self):
        points = [{"a": i} for i in range(5)]
        report = execute_grid(lambda a: {"sq": a * a}, points)
        assert len(report) == 5
        assert report.ok == 5
        assert [record.params for record in report] == points

    def test_collect_mode_keeps_going(self):
        def sometimes(a):
            if a % 2:
                raise RuntimeError("odd")
            return {"a2": a * 2}

        report = execute_grid(
            sometimes, [{"a": i} for i in range(4)],
            policy=ExecutionPolicy(mode="collect"),
        )
        assert report.ok == 2
        assert report.failed == 2
        assert report.summary() == "2 ok, 2 failed"

    def test_fail_fast_reraises_original(self):
        def boom(a):
            raise ZeroDivisionError("bang")

        with pytest.raises(ZeroDivisionError):
            execute_grid(
                boom, [{"a": 1}], policy=ExecutionPolicy(mode="fail_fast")
            )

    def test_circuit_breaker_skips_remainder(self):
        def always(a):
            raise RuntimeError("down")

        report = execute_grid(
            always,
            [{"a": i} for i in range(6)],
            policy=ExecutionPolicy(mode="collect", max_failures=2),
        )
        assert report.failed == 2
        assert report.skipped == 4
        assert all(r.status == "skipped" for r in list(report)[2:])
        with pytest.raises(CircuitOpenError, match="circuit"):
            report.ensure_complete()

    def test_rows_give_failed_points_status_column(self):
        def sometimes(a):
            if a == 2:
                raise RuntimeError("nope")
            return {"x": a}

        report = execute_grid(
            sometimes, [{"a": i} for i in (1, 2, 3)],
            policy=ExecutionPolicy(mode="collect"),
        )
        rows = report.rows()
        assert rows[0] == {"x": 1}
        assert rows[1]["status"] == "failed"
        assert "RuntimeError" in rows[1]["error"]


class TestExceptionChain:
    def test_implicit_context(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError:
                raise ValueError("outer")
        except ValueError as exc:
            chain = exception_chain(exc)
        assert chain == ["ValueError: outer", "KeyError: 'inner'"]

    def test_cycle_safe(self):
        exc = ValueError("self")
        exc.__cause__ = exc
        assert exception_chain(exc) == ["ValueError: self"]
