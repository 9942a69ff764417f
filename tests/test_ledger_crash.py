"""Crash drills for the sweep ledger: the robustness acceptance bar.

Three families of drills pin the PR's contract:

* **kill -9 at every injected publish point.**  A child process records
  points with ``REPRO_LEDGER_CRASH_POINT`` armed and dies with
  ``os._exit(137)`` mid-pipeline; the parent reopens the ledger and
  must find zero lost completed points and zero corrupt rows served —
  including the ``mid-segment-publish`` drill, which plants a torn
  half-written segment at the final path.
* **Single-bit flip in a sealed segment.**  Reopen quarantines exactly
  that segment, only its points re-simulate, and the recomputed
  entries are byte-identical to the originals.
* **Ledger-vs-JSONL byte identity.**  As an ``execute_grid`` sink the
  ledger must be indistinguishable from the checkpoint journal —
  serial, analytically pruned, and across a mid-sweep interruption +
  incremental resume.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.robust.checkpoint import CheckpointStore
from repro.store.ledger import CRASH_POINT_ENV, SweepLedger
from repro.sweep import run_sweep_report

SRC = str(Path(__file__).resolve().parent.parent / "src")
VERSION = "crash-test"


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


# ----------------------------------------------------------------------
# kill -9 at every injected publish point
# ----------------------------------------------------------------------

CHILD = textwrap.dedent(
    """
    import sys
    from repro.store.ledger import SweepLedger

    ledger = SweepLedger(sys.argv[1], version="crash-test", segment_entries=3)
    for i in range(3):
        ledger.record(
            {"partitions": i}, "ok",
            rows=[{"partitions": i, "cycles": 100 + i}],
        )
    print("survived")
    """
)

#: crash point -> (completed points guaranteed durable, sealed segments)
CRASH_POINTS = {
    "after-record": (1, 0),
    "before-segment-publish": (3, 0),
    "mid-segment-publish": (3, 0),
    "after-segment-before-manifest": (3, 1),
    "after-manifest-before-truncate": (3, 1),
}


def run_crashing_child(root, point):
    env = {**os.environ, CRASH_POINT_ENV: point, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, "-c", CHILD, str(root)],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_kill9_at_publish_point_loses_nothing(tmp_path, point):
    completed, segments = CRASH_POINTS[point]
    result = run_crashing_child(tmp_path / "led", point)
    assert result.returncode == 137, result.stderr
    assert "survived" not in result.stdout

    recovered = SweepLedger(tmp_path / "led", version=VERSION)
    assert recovered.completed_count == completed
    assert len(recovered.segments()) == segments
    # Zero corrupt rows served: every surviving entry is exactly what
    # the child recorded.
    for index in range(completed):
        entry = recovered.get({"partitions": index})
        assert entry["status"] == "ok"
        assert entry["rows"] == [{"partitions": index, "cycles": 100 + index}]
    if point == "mid-segment-publish":
        # The torn half-segment was quarantined, not parsed.
        assert len(recovered.quarantined()) == 1
    recovered.close()


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_resweep_after_crash_completes_the_grid(tmp_path, point):
    run_crashing_child(tmp_path / "led", point)
    ledger = SweepLedger(tmp_path / "led", version=VERSION, segment_entries=3)
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
    ledger.close()


def test_unarmed_child_survives(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(CRASH_POINT_ENV, None)
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "led")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert "survived" in result.stdout


# ----------------------------------------------------------------------
# Bit flip in a sealed segment: quarantine + byte-identical recompute
# ----------------------------------------------------------------------

def test_bit_flip_recovery_recomputes_byte_identically(tmp_path):
    grid = list(range(1, 7))
    ledger = SweepLedger(tmp_path / "led", version=VERSION, segment_entries=3)
    rows_before, _ = run_sweep_report(
        measure, ledger=ledger, incremental=True, partitions=grid
    )
    baseline = entries_json(ledger, [{"partitions": p} for p in grid])
    ledger.close()

    victim = sorted((tmp_path / "led" / "segments").glob("seg-*.seg"))[1]
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 3] ^= 0x40
    victim.write_bytes(bytes(raw))

    ledger = SweepLedger(tmp_path / "led", version=VERSION, segment_entries=3)
    assert len(ledger.quarantined()) == 1
    lost = [p for p in grid if not ledger.completed({"partitions": p})]
    assert lost == grid[3:]  # exactly the flipped segment's points

    calls = []

    def counting_measure(partitions):
        calls.append(partitions)
        return measure(partitions)

    rows_after, _ = run_sweep_report(
        counting_measure, ledger=ledger, incremental=True, partitions=grid
    )
    assert calls == lost  # only the quarantined points re-simulated
    assert rows_after == rows_before
    assert entries_json(ledger, [{"partitions": p} for p in grid]) == baseline
    ledger.close()


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
    ledger.close()


def test_pruned_ledger_matches_checkpoint(tmp_path):
    checkpoint, rows_ck, report_ck, ledger, rows_led, report_led = paired_run(
        tmp_path, "pruned", estimator=estimate, top_k=3
    )
    assert_identical(checkpoint, rows_ck, ledger, rows_led)
    assert report_led.estimated == report_ck.estimated > 0
    ledger.close()


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
    ledger.close()


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
    ledger.close()


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
    ledger.close()
