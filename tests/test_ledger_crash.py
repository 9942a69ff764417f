"""Crash drills for the sweep ledger and the checkpoint journal.

Four families of drills pin the durability contract:

* **kill -9 mid-sweep.**  A child ``repro sweep --ledger`` dies with
  ``os._exit(137)`` at its third point; ``resweep`` reuses the two
  fsynced points and simulates the rest, printing the clean rows.
  A child recording straight into a ``SweepLedger`` and killed right
  after a journal append returns keeps exactly that point, served
  byte-for-byte, and a re-record completes the grid.
* **Single-bit flip in a journal line.**  The line fails its checksum,
  is dropped with one warning, and exactly its point re-simulates
  byte-identically — through the library, ``--checkpoint --resume``
  and ``resweep`` alike.
* **ENOSPC.**  A journal append that cannot land fails the sweep with
  ``CheckpointError`` (exit 8); the lines appended before it load.
* **Ledger-vs-JSONL byte identity.**  As an ``execute_grid`` sink the
  ledger must be indistinguishable from the checkpoint journal —
  serial, analytically pruned, and across a mid-sweep interruption +
  incremental resume.
"""

from __future__ import annotations

import contextlib
import errno
import io
import json
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.robust import checkpoint as checkpoint_module
from repro.robust.checkpoint import CheckpointStore
from repro.sweep import SweepLedger, run_sweep_report, sweep_ledger_version

SRC = str(Path(__file__).resolve().parent.parent / "src")
VERSION = "crash-test"
SWEEP = ["--layer", "TF0", "--macs", "65536"]


def measure(partitions: int) -> dict:
    return {
        "array": f"{partitions}x{partitions}",
        "cycles": 1000 * partitions + 17,
        "avg_bw": round(partitions / 3.0, 3),
    }


def estimate(partitions: int) -> tuple:
    row = measure(partitions)
    return row, float(row["cycles"])


def entries_json(journal, points):
    """Entry bytes with the one nondeterministic field (wall-clock
    ``duration``) pinned; key order is otherwise preserved exactly."""
    out = []
    for params in points:
        entry = dict(journal.get(params))
        entry["duration"] = 0.0
        out.append(json.dumps(entry, default=repr))
    return out


def flip_low_bit(path, needle):
    """Flip the low bit of the last byte of ``needle``'s first match."""
    raw = bytearray(path.read_bytes())
    raw[raw.index(needle) + len(needle) - 1] ^= 0x01
    path.write_bytes(bytes(raw))


def rows_of(text):
    """The table rows of ``repro sweep`` stdout."""
    return [line for line in text.splitlines() if not line.startswith(("#", "part"))]


@pytest.fixture
def journal_warnings(caplog):
    """Warnings of ``repro.robust.checkpoint``, even once the CLI has
    stopped repro's loggers from propagating."""
    source = logging.getLogger("repro.robust.checkpoint")
    source.addHandler(caplog.handler)
    with caplog.at_level(logging.WARNING, logger="repro.robust.checkpoint"):
        yield lambda: list({
            id(record): record.getMessage() for record in caplog.records
        }.values())
    source.removeHandler(caplog.handler)


def run_cli(argv):
    """``repro`` in this process: (exit code, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture(scope="module")
def clean_sweep():
    """stdout of an uninterrupted ``repro sweep`` of TF0 at 2^16 MACs."""
    code, out = run_cli(["sweep", *SWEEP])
    assert code == 0
    return out


# ----------------------------------------------------------------------
# kill -9 mid-sweep
# ----------------------------------------------------------------------

KILLED_CHILD = textwrap.dedent(
    """
    import os, sys
    import repro.cli

    measured = []
    real = repro.cli.sweep_measure

    def dies_at_the_third_point(*args, **kwargs):
        measured.append(1)
        if len(measured) == 3:
            os._exit(137)
        return real(*args, **kwargs)

    repro.cli.sweep_measure = dies_at_the_third_point
    sys.exit(repro.cli.main(sys.argv[1:]))
    """
)


def test_kill9_mid_sweep_resweep_reuses_the_survivors(tmp_path, clean_sweep):
    ledger_dir = tmp_path / "led"
    child = subprocess.run(
        [sys.executable, "-c", KILLED_CHILD, "sweep", *SWEEP, "--ledger", str(ledger_dir)],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=300,
    )
    assert child.returncode == 137, child.stderr

    code, out = run_cli(["resweep", *SWEEP, "--ledger", str(ledger_dir)])
    assert code == 0
    assert "# incremental re-sweep: 2/6 point(s) reused from the ledger, " \
        "4 to simulate" in out
    assert rows_of(out) == rows_of(clean_sweep)


CHILD = textwrap.dedent(
    """
    import os, sys
    from repro.robust import checkpoint
    from repro.sweep import SweepLedger

    real = checkpoint.append_line

    def append_then_die(path, line):
        real(path, line)
        os._exit(137)

    if len(sys.argv) > 2 and sys.argv[2] == "after-record":
        checkpoint.append_line = append_then_die

    ledger = SweepLedger(sys.argv[1], version="crash-test")
    for i in range(3):
        ledger.record(
            {"partitions": i}, "ok",
            rows=[{"partitions": i, "cycles": 100 + i}],
        )
    print("survived")
    """
)

#: crash point -> completed points guaranteed durable
CRASH_POINTS = {
    "after-record": 1,
}


def run_crashing_child(root, *point):
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(root), *point],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_kill9_at_publish_point_loses_nothing(tmp_path, point):
    completed = CRASH_POINTS[point]
    result = run_crashing_child(tmp_path / "led", point)
    assert result.returncode == 137, result.stderr
    assert "survived" not in result.stdout

    recovered = SweepLedger(tmp_path / "led", version=VERSION)
    assert recovered.completed_count == completed
    # Zero corrupt rows served: every surviving entry is exactly what
    # the child recorded.
    for index in range(completed):
        entry = recovered.get({"partitions": index})
        assert entry["status"] == "ok"
        assert entry["rows"] == [{"partitions": index, "cycles": 100 + index}]


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_resweep_after_crash_completes_the_grid(tmp_path, point):
    run_crashing_child(tmp_path / "led", point)
    ledger = SweepLedger(tmp_path / "led", version=VERSION)
    survivors = [i for i in range(3) if ledger.completed({"partitions": i})]
    diff = ledger.diff_grid([{"partitions": i} for i in range(3)])
    assert [p["partitions"] for p in diff.reused] == survivors
    for i in range(3):
        if i not in survivors:
            ledger.record(
                {"partitions": i}, "ok",
                rows=[{"partitions": i, "cycles": 100 + i}],
            )
    assert ledger.completed_count == 3
    assert SweepLedger(tmp_path / "led", version=VERSION).completed_count == 3


def test_unarmed_child_survives(tmp_path):
    result = run_crashing_child(tmp_path / "led")
    assert result.returncode == 0
    assert "survived" in result.stdout
    assert SweepLedger(tmp_path / "led", version=VERSION).completed_count == 3


# ----------------------------------------------------------------------
# Bit flip in a journal line: one warning, one re-simulated point
# ----------------------------------------------------------------------

def test_checkpoint_bit_flip_resumes_like_a_clean_run(
    tmp_path, clean_sweep, journal_warnings
):
    journal = tmp_path / "J"
    assert run_cli(["sweep", *SWEEP, "--checkpoint", str(journal)]) == (0, clean_sweep)
    flip_low_bit(journal, b'"cycles": 4')  # 424992 -> 524992, point 1

    code, out = run_cli(["sweep", *SWEEP, "--checkpoint", str(journal), "--resume"])
    assert code == 0
    assert out == clean_sweep
    dropped = [message for message in journal_warnings() if "re-simulated" in message]
    assert len(dropped) == 1
    assert "line 1/6" in dropped[0]


def test_ledger_bit_flip_resweep_re_simulates_one_point(tmp_path, clean_sweep):
    ledger_dir = tmp_path / "led"
    code, _ = run_cli(["sweep", *SWEEP, "--ledger", str(ledger_dir)])
    assert code == 0
    flip_low_bit(ledger_dir / "journal.jsonl", b'"cycles": 4')

    code, out = run_cli(["resweep", *SWEEP, "--ledger", str(ledger_dir)])
    assert code == 0
    assert "5/6 point(s) reused from the ledger, 1 to simulate" in out
    assert rows_of(out) == rows_of(clean_sweep)


def test_bit_flip_recovery_recomputes_byte_identically(tmp_path):
    grid = list(range(1, 7))
    ledger = SweepLedger(tmp_path / "led", version=VERSION)
    rows_before, _ = run_sweep_report(
        measure, ledger=ledger, incremental=True, partitions=grid
    )
    baseline = entries_json(ledger, [{"partitions": p} for p in grid])

    flip_low_bit(ledger.path, b'"cycles": 4017')  # point 4's row

    ledger = SweepLedger(tmp_path / "led", version=VERSION)
    lost = [p for p in grid if not ledger.completed({"partitions": p})]
    assert lost == [4]  # exactly the flipped line's point

    calls = []

    def counting_measure(partitions):
        calls.append(partitions)
        return measure(partitions)

    rows_after, _ = run_sweep_report(
        counting_measure, ledger=ledger, incremental=True, partitions=grid
    )
    assert calls == lost  # only the dropped point re-simulated
    assert rows_after == rows_before
    assert entries_json(ledger, [{"partitions": p} for p in grid]) == baseline


# ----------------------------------------------------------------------
# ENOSPC: the sweep fails loudly, earlier lines survive
# ----------------------------------------------------------------------

def test_enospc_fails_the_sweep_and_keeps_earlier_lines(
    tmp_path, monkeypatch, capsys
):
    appended = []
    real_append = checkpoint_module.append_line

    def fills_up_at_the_third_line(path, line):
        appended.append(line)
        if len(appended) == 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_append(path, line)

    monkeypatch.setattr(checkpoint_module, "append_line", fills_up_at_the_third_line)
    code = main(["sweep", *SWEEP, "--ledger", str(tmp_path / "led")])
    assert code == 8
    assert "cannot append to checkpoint" in capsys.readouterr().err

    monkeypatch.undo()
    ledger = SweepLedger(
        tmp_path / "led", version=sweep_ledger_version("TF0", "resnet50", 65536)
    )
    assert ledger.completed_count == 2
    assert [p["partitions"] for p in ledger.diff_grid(
        [{"partitions": 4**i} for i in range(6)]
    ).reused] == [1, 4]


# ----------------------------------------------------------------------
# Ledger-vs-JSONL byte identity as an execute_grid sink
# ----------------------------------------------------------------------

GRID = list(range(1, 9))


def paired_run(tmp_path, name, **kwargs):
    """The same sweep through a checkpoint and through a ledger."""
    checkpoint = CheckpointStore(tmp_path / f"{name}.jsonl", version=VERSION)
    rows_ck, report_ck = run_sweep_report(
        measure, checkpoint=checkpoint, partitions=GRID, **kwargs
    )
    ledger = SweepLedger(tmp_path / f"{name}-ledger", version=VERSION)
    rows_led, report_led = run_sweep_report(
        measure, ledger=ledger, partitions=GRID, **kwargs
    )
    return checkpoint, rows_ck, report_ck, ledger, rows_led, report_led


def assert_identical(checkpoint, rows_ck, ledger, rows_led):
    assert rows_led == rows_ck
    points = [{"partitions": p} for p in GRID]
    assert entries_json(ledger, points) == entries_json(checkpoint, points)


def test_serial_ledger_matches_checkpoint(tmp_path):
    checkpoint, rows_ck, _, ledger, rows_led, _ = paired_run(tmp_path, "serial")
    assert_identical(checkpoint, rows_ck, ledger, rows_led)


def test_pruned_ledger_matches_checkpoint(tmp_path):
    checkpoint, rows_ck, report_ck, ledger, rows_led, report_led = paired_run(
        tmp_path, "pruned", estimator=estimate, top_k=3
    )
    assert_identical(checkpoint, rows_ck, ledger, rows_led)
    assert report_led.estimated == report_ck.estimated > 0


def test_midsweep_resume_is_byte_identical(tmp_path):
    # The reference: one uninterrupted run.
    rows_full, _ = run_sweep_report(measure, partitions=GRID)

    # The drill: half the grid lands, then the "interrupted" sweep
    # resumes incrementally over the full grid.
    ledger = SweepLedger(tmp_path / "led", version=VERSION)
    run_sweep_report(measure, ledger=ledger, incremental=True,
                     partitions=GRID[: len(GRID) // 2])
    calls = []

    def counting_measure(partitions):
        calls.append(partitions)
        return measure(partitions)

    rows_resumed, report = run_sweep_report(
        counting_measure, ledger=ledger, incremental=True, partitions=GRID
    )
    assert calls == GRID[len(GRID) // 2:]  # first half replayed, not re-run
    assert rows_resumed == rows_full


def test_midsweep_resume_pruned_plan_is_stable(tmp_path):
    # Journal-aware planning must not move the frontier: a resumed
    # pruned sweep returns the same rows as an uninterrupted one.
    rows_full, _ = run_sweep_report(
        measure, estimator=estimate, top_k=2, partitions=GRID
    )
    ledger = SweepLedger(tmp_path / "led", version=VERSION)
    run_sweep_report(measure, estimator=estimate, top_k=2,
                     ledger=ledger, incremental=True,
                     partitions=GRID[: len(GRID) // 2])
    rows_resumed, _ = run_sweep_report(
        measure, estimator=estimate, top_k=2,
        ledger=ledger, incremental=True, partitions=GRID,
    )
    assert rows_resumed == rows_full


def test_fresh_ledger_view_resimulates_everything(tmp_path):
    # ledger= without incremental=True refreshes every point but still
    # sinks durably.
    ledger = SweepLedger(tmp_path / "led", version=VERSION)
    run_sweep_report(measure, ledger=ledger, partitions=GRID)
    calls = []

    def counting_measure(partitions):
        calls.append(partitions)
        return measure(partitions)

    rows, _ = run_sweep_report(
        counting_measure, ledger=ledger, partitions=GRID
    )
    assert calls == GRID  # nothing replayed
    assert ledger.completed_count == len(GRID)
