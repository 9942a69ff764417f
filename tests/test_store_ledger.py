"""The columnar sweep ledger: durability, recovery, queries, degradation.

The contract under test: a recorded point survives any crash once
``record`` returns; reopening recovers sealed segments, quarantines
corrupt ones (their points re-simulate) and dedups the unsealed tail;
storage failures degrade the ledger instead of failing the sweep; and
the ledger is byte-for-byte interchangeable with the JSONL checkpoint
journal as an ``execute_grid`` sink.
"""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest

from repro.errors import StorageError, StoreCorruptionError
from repro.robust.checkpoint import CheckpointStore, point_key
from repro.store.ledger import MODE_JOURNAL, MODE_MEMORY, LedgerDiff, SweepLedger


def fill(ledger, count, start=0):
    for index in range(start, start + count):
        ledger.record(
            {"partitions": index},
            "ok",
            rows=[{"partitions": index, "cycles": 1000 - index,
                   "avg_bw": float(index % 3)}],
        )


@pytest.fixture
def ledger(tmp_path):
    led = SweepLedger(tmp_path / "ledger", version="test", segment_entries=4)
    yield led
    led.close()


# ----------------------------------------------------------------------
# PointJournal contract
# ----------------------------------------------------------------------

def test_record_get_completed(ledger):
    entry = ledger.record({"partitions": 1}, "ok", rows=[{"cycles": 5}])
    assert ledger.key({"partitions": 1}) == point_key({"partitions": 1}, "test")
    assert ledger.get({"partitions": 1}) == entry
    assert ledger.completed({"partitions": 1})
    assert not ledger.completed({"partitions": 2})
    assert len(ledger) == 1


def test_failed_entries_are_not_completed(ledger):
    ledger.record({"partitions": 1}, "failed", error="boom")
    assert ledger.get({"partitions": 1})["error"] == "boom"
    assert not ledger.completed({"partitions": 1})
    assert ledger.completed_count == 0


def test_estimated_entries_are_not_completed(ledger):
    # --exact resume must re-simulate analytically settled points.
    ledger.record({"partitions": 1}, "estimated", rows=[{"cycles": 5}])
    assert not ledger.completed({"partitions": 1})


def test_entry_matches_checkpoint_journal_bytes(ledger, tmp_path):
    checkpoint = CheckpointStore(tmp_path / "ck.jsonl", version="test")
    for journal in (ledger, checkpoint):
        journal.record(
            {"partitions": 4}, "ok",
            rows=[{"partitions": 4, "cycles": 7, "array": "2x2"}],
            attempts=2, duration=0.5,
        )
    assert json.dumps(ledger.get({"partitions": 4}), default=repr) == json.dumps(
        checkpoint.get({"partitions": 4}), default=repr
    )


# ----------------------------------------------------------------------
# Sealing + reopen
# ----------------------------------------------------------------------

def test_seals_at_threshold(ledger):
    fill(ledger, 3)
    assert ledger.segments() == []  # below threshold: journalled only
    fill(ledger, 1, start=3)
    assert len(ledger.segments()) == 1
    assert ledger.active_path.read_text() == ""  # tail truncated


def test_reopen_replays_sealed_and_unsealed(ledger, tmp_path):
    fill(ledger, 6)  # one sealed segment + 2 unsealed entries
    reopened = SweepLedger(tmp_path / "ledger", version="test")
    assert reopened.completed_count == 6
    for index in range(6):
        assert reopened.completed({"partitions": index})
    # Reconstructed entries are byte-identical to the originals.
    original = ledger.get({"partitions": 0})
    assert json.dumps(reopened.get({"partitions": 0}), default=repr) == (
        json.dumps(original, default=repr)
    )
    reopened.close()


def test_close_seals_the_tail(tmp_path):
    with SweepLedger(tmp_path / "led", version="test") as led:
        fill(led, 3)
    reopened = SweepLedger(tmp_path / "led", version="test")
    assert len(reopened.segments()) == 1
    assert reopened.completed_count == 3
    reopened.close()


def test_version_change_invalidates_points(tmp_path):
    with SweepLedger(tmp_path / "led", version="v1") as led:
        fill(led, 2)
    upgraded = SweepLedger(tmp_path / "led", version="v2")
    assert not upgraded.completed({"partitions": 0})
    assert upgraded.diff_grid([{"partitions": 0}]).pending
    upgraded.close()


def test_read_only_open_rejects_writes(ledger, tmp_path):
    fill(ledger, 4)
    view = SweepLedger(tmp_path / "ledger", version="test", writable=False)
    assert view.completed_count == 4
    with pytest.raises(StoreCorruptionError, match="read-only"):
        view.record({"partitions": 9}, "ok")
    view.close()


def test_root_must_be_directory(tmp_path):
    (tmp_path / "file").write_text("x")
    with pytest.raises(StoreCorruptionError):
        SweepLedger(tmp_path / "file")


def test_reused_counter_counts_cross_run_replays(ledger, tmp_path):
    fill(ledger, 2)
    assert ledger.status()["counters"]["reused"] == 0  # same-run gets
    reopened = SweepLedger(tmp_path / "ledger", version="test")
    assert reopened.get({"partitions": 0}) is not None
    assert reopened.status()["counters"]["reused"] == 1
    reopened.close()


# ----------------------------------------------------------------------
# Incremental diff
# ----------------------------------------------------------------------

def test_diff_grid_partitions_reused_and_pending(ledger):
    fill(ledger, 3)
    diff = ledger.diff_grid([{"partitions": i} for i in range(5)])
    assert [p["partitions"] for p in diff.reused] == [0, 1, 2]
    assert [p["partitions"] for p in diff.pending] == [3, 4]
    assert diff.total == 5
    assert "3/5" in diff.describe()


def test_diff_grid_empty():
    diff = LedgerDiff()
    assert diff.total == 0


# ----------------------------------------------------------------------
# Corruption recovery
# ----------------------------------------------------------------------

def test_bit_flip_quarantines_exactly_that_segment(tmp_path):
    with SweepLedger(tmp_path / "led", version="test", segment_entries=4) as led:
        fill(led, 8)  # two sealed segments
    victim = sorted((tmp_path / "led" / "segments").glob("seg-*.seg"))[0]
    raw = bytearray(victim.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    victim.write_bytes(bytes(raw))

    recovered = SweepLedger(tmp_path / "led", version="test")
    assert recovered.completed_count == 4  # only the torn segment's points lost
    assert len(recovered.quarantined()) == 1
    assert recovered.status()["counters"]["quarantined"] == 1
    # The surviving points are exactly segment 2's.
    pending = recovered.diff_grid([{"partitions": i} for i in range(8)]).pending
    assert [p["partitions"] for p in pending] == [0, 1, 2, 3]
    recovered.close()


def test_quarantined_points_recompute_byte_identically(tmp_path):
    with SweepLedger(tmp_path / "led", version="test", segment_entries=4) as led:
        fill(led, 4)
        before = json.dumps(led.get({"partitions": 2}), default=repr)
    victim = next((tmp_path / "led" / "segments").glob("seg-*.seg"))
    raw = bytearray(victim.read_bytes())
    raw[-40] ^= 0x10
    victim.write_bytes(bytes(raw))

    with SweepLedger(tmp_path / "led", version="test", segment_entries=4) as led:
        assert not led.completed({"partitions": 2})
        fill(led, 4)  # re-simulate the lost points
        assert json.dumps(led.get({"partitions": 2}), default=repr) == before


def test_orphan_temp_files_are_removed(tmp_path):
    with SweepLedger(tmp_path / "led", version="test") as led:
        fill(led, 1)
    orphan = tmp_path / "led" / "segments" / ".seg-000007.seg.abc.tmp"
    orphan.write_bytes(b"half a segment")
    SweepLedger(tmp_path / "led", version="test").close()
    assert not orphan.exists()


def test_unjournalled_segment_is_rejournalled(tmp_path):
    with SweepLedger(tmp_path / "led", version="test", segment_entries=2) as led:
        fill(led, 2)
    (tmp_path / "led" / "manifest.wal").unlink()
    reopened = SweepLedger(tmp_path / "led", version="test")
    assert reopened.completed_count == 2
    ops = reopened._durable.manifest_ops()
    assert ops == {"seg-000000.seg": "seal"}
    reopened.close()


def test_manifest_tolerates_torn_final_line(tmp_path):
    with SweepLedger(tmp_path / "led", version="test", segment_entries=2) as led:
        fill(led, 2)
        with led.manifest_path.open("a") as handle:
            handle.write('{"op": "seal", "segment": "seg-trunc')
    reopened = SweepLedger(tmp_path / "led", version="test")
    assert reopened.completed_count == 2
    reopened.close()


def test_stale_tail_dedups_against_sealed_copy(tmp_path):
    # Crash between manifest append and active truncate: the sealed
    # entries linger in active.jsonl; reopen must not double-count.
    with SweepLedger(tmp_path / "led", version="test", segment_entries=2) as led:
        fill(led, 2)
        sealed_lines = [
            json.dumps(led.get({"partitions": i}), default=repr) for i in range(2)
        ]
    active = tmp_path / "led" / "active.jsonl"
    active.write_text("".join(line + "\n" for line in sealed_lines))
    reopened = SweepLedger(tmp_path / "led", version="test")
    assert reopened.completed_count == 2
    assert reopened.status()["pending"] == 0  # nothing re-buffered
    reopened.close()


def test_quarantine_names_never_collide(tmp_path):
    for _round in range(2):
        with SweepLedger(tmp_path / "led", version="test",
                         segment_entries=2) as led:
            fill(led, 2)
        victim = next((tmp_path / "led" / "segments").glob("seg-*.seg"))
        victim.write_bytes(b"garbage")
        SweepLedger(tmp_path / "led", version="test").close()
    quarantined = SweepLedger(tmp_path / "led", version="test").quarantined()
    assert len(quarantined) == 2
    assert len({p.name for p in quarantined}) == 2


# ----------------------------------------------------------------------
# Writers sharing one root
# ----------------------------------------------------------------------

def test_two_writers_never_seal_over_each_other(tmp_path):
    first = SweepLedger(tmp_path / "led", version="v", segment_entries=4)
    second = SweepLedger(tmp_path / "led", version="v", segment_entries=4)
    fill(first, 4)  # seals seg-000000
    fill(second, 4, start=4)  # must pick the next free name, not overwrite
    first.close()
    second.close()
    reopened = SweepLedger(tmp_path / "led", version="v")
    assert len(reopened.segments()) == 2
    assert reopened.completed_count == 8
    reopened.close()


def test_seal_keeps_other_writers_tail_lines(tmp_path):
    sealer = SweepLedger(tmp_path / "led", version="v", segment_entries=4)
    other = SweepLedger(tmp_path / "led", version="v", segment_entries=4)
    fill(other, 1, start=9)  # fsynced into the shared tail, not sealed
    fill(sealer, 4)  # seals and cuts the tail
    # The other writer dies before sealing (no close): its point must
    # still be durable in the tail.
    reopened = SweepLedger(tmp_path / "led", version="v")
    assert reopened.completed({"partitions": 9})
    assert reopened.completed_count == 5
    reopened.close()
    sealer.close()


def test_concurrent_writers_lose_no_point(tmp_path):
    writers, points = 4, 10  # more writers than cores, seals interleaved
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ledgers = [
            SweepLedger(tmp_path / "led", version="v", segment_entries=3)
            for _ in range(writers)
        ]
        threads = [
            threading.Thread(target=fill, args=(led, points, n * points))
            for n, led in enumerate(ledgers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for led in ledgers[::2]:
            led.close()  # the others die unsealed; their tails must survive
    finally:
        sys.setswitchinterval(interval)
    reopened = SweepLedger(tmp_path / "led", version="v")
    assert reopened.completed_count == writers * points
    reopened.close()


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

def test_seal_failure_degrades_to_journal_only(ledger, monkeypatch):
    def explode(path, payload):
        error = StorageError(f"cannot write {path}: no space left on device")
        error.errno = 28  # ENOSPC
        raise error

    monkeypatch.setattr("repro.store.ledger.atomic_write_bytes", explode)
    fill(ledger, 4)  # crosses the threshold -> seal fails
    assert ledger.mode == MODE_JOURNAL
    assert "no space left" in ledger.degraded_reason
    assert ledger.segments() == []
    assert ledger.completed_count == 4  # sweep data intact
    monkeypatch.undo()
    fill(ledger, 4, start=4)  # degraded mode sticks; no seal attempts
    assert ledger.mode == MODE_JOURNAL

    # Every entry stayed durable in the fsynced active journal.
    reopened = SweepLedger(ledger.root, version="test")
    assert reopened.completed_count == 8
    reopened.close()


def test_active_append_failure_degrades_to_memory(ledger, monkeypatch):
    def explode(self, entry):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(CheckpointStore, "append", explode)
    # record() still succeeds: the sweep completes, durability is gone.
    monkeypatch.undo()
    real_open = ledger.active_path.open

    def no_space(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(type(ledger.active_path), "open", no_space)
    entry = ledger.record({"partitions": 0}, "ok", rows=[{"cycles": 1}])
    monkeypatch.undo()
    assert entry["status"] == "ok"
    assert ledger.mode == MODE_MEMORY
    assert ledger.completed({"partitions": 0})


def test_degraded_gauge_and_errors_counter(ledger, monkeypatch):
    monkeypatch.setattr(
        "repro.store.ledger.atomic_write_bytes",
        lambda path, payload: (_ for _ in ()).throw(StorageError("disk gone")),
    )
    fill(ledger, 4)
    status = ledger.status()
    assert status["mode"] == MODE_JOURNAL
    assert status["counters"]["errors"] == 1


# ----------------------------------------------------------------------
# Column queries
# ----------------------------------------------------------------------

def test_numeric_column_spans_sealed_and_tail(ledger):
    fill(ledger, 6)  # 4 sealed + 2 in the tail
    cycles = ledger.numeric_column("cycles")
    assert cycles.dtype == np.dtype("<f8")
    assert list(cycles) == [1000.0, 999.0, 998.0, 997.0, 996.0, 995.0]


def test_numeric_column_nan_for_missing(ledger):
    ledger.record({"partitions": 0}, "ok", rows=[{"cycles": 10}])
    ledger.record({"partitions": 1}, "ok", rows=[{"other": 3}])
    column = ledger.numeric_column("cycles")
    assert column[0] == 10.0
    assert np.isnan(column[1])


def test_rows_align_with_columns(ledger):
    fill(ledger, 5)
    rows = ledger.rows()
    cycles = ledger.numeric_column("cycles")
    assert [row["cycles"] for row in rows] == list(cycles.astype(int))


def test_failed_rows_are_excluded_by_default(ledger):
    fill(ledger, 2)
    ledger.record({"partitions": 99}, "failed", error="boom")
    assert len(ledger.rows()) == 2
    assert len(ledger.numeric_column("cycles")) == 2


def test_pareto_front_query(ledger):
    for partitions, cycles, avg_bw in ((0, 10, 5.0), (1, 20, 1.0), (2, 30, 6.0)):
        ledger.record(
            {"partitions": partitions}, "ok",
            rows=[{"partitions": partitions, "cycles": cycles, "avg_bw": avg_bw}],
        )
    front = ledger.pareto(minimize=("cycles", "avg_bw"))
    assert [row["partitions"] for row in front] == [0, 1]  # row 2 dominated


def test_pareto_needs_objectives(ledger):
    with pytest.raises(ValueError, match="objective"):
        ledger.pareto()


def test_group_by(ledger):
    fill(ledger, 6)
    groups = ledger.group_by("avg_bw", "cycles", agg="min")
    # avg_bw cycles index % 3; min cycles in each class is the last.
    assert groups == {0.0: 997.0, 1.0: 996.0, 2.0: 995.0}
    counts = ledger.group_by("avg_bw", "cycles", agg="count")
    assert counts == {0.0: 2, 1.0: 2, 2.0: 2}


def test_group_by_rejects_unknown_aggregate(ledger):
    with pytest.raises(ValueError, match="aggregate"):
        ledger.group_by("a", "b", agg="median")


def test_queries_work_after_reopen_zero_copy(tmp_path):
    with SweepLedger(tmp_path / "led", version="test", segment_entries=4) as led:
        fill(led, 8)
    reopened = SweepLedger(tmp_path / "led", version="test")
    assert list(reopened.numeric_column("cycles").astype(int)) == [
        1000 - i for i in range(8)
    ]
    reopened.close()


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def test_segment_entries_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="segment_entries"):
        SweepLedger(tmp_path / "led", segment_entries=0)


def test_status_snapshot_shape(ledger):
    fill(ledger, 4)
    status = ledger.status()
    assert status["entries"] == 4
    assert status["completed"] == 4
    assert status["segments"] == 1
    assert status["corrupt"] == 0
    assert status["pending"] == 0
    assert status["mode"] == "columnar"
    assert status["counters"]["sealed"] == 1
    assert status["counters"]["rows"] == 4
