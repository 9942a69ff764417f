"""The sweep ledger: a directory holding one checksummed checkpoint journal.

The contract under test: a ledger is a :class:`CheckpointStore` over
``<root>/journal.jsonl``, so a recorded point survives any crash once
``record`` returns and its entry is byte-for-byte the checkpoint
journal's; keys are version-scoped, so ``diff_grid`` splits a grid into
reused and pending points; a damaged line (torn or failing its
checksum) drops exactly its point, which re-simulates; and ``repro
stats --ledger`` groups and pareto-filters the completed rows.
"""

from __future__ import annotations

import json

import pytest

from repro._version import __version__
from repro.cli import main
from repro.errors import CheckpointError
from repro.robust.checkpoint import CheckpointStore, point_key
from repro.sweep import LedgerDiff, SweepLedger


def fill(ledger, count, start=0):
    for index in range(start, start + count):
        ledger.record(
            {"partitions": index},
            "ok",
            rows=[{"partitions": index, "cycles": 1000 - index,
                   "avg_bw": float(index % 3)}],
        )


def flip_low_bit(path, needle):
    """Flip the low bit of the last byte of ``needle``'s first match."""
    raw = bytearray(path.read_bytes())
    raw[raw.index(needle) + len(needle) - 1] ^= 0x01
    path.write_bytes(bytes(raw))


@pytest.fixture
def ledger(tmp_path):
    return SweepLedger(tmp_path / "ledger", version="test")


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
    assert ledger.path == ledger.root / "journal.jsonl"


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
    assert ledger.path.read_bytes() == checkpoint.path.read_bytes()


# ----------------------------------------------------------------------
# Reopen
# ----------------------------------------------------------------------

def test_reopen_replays_every_entry(ledger, tmp_path):
    fill(ledger, 6)
    reopened = SweepLedger(tmp_path / "ledger", version="test")
    assert reopened.completed_count == 6
    for index in range(6):
        assert reopened.completed({"partitions": index})
    # Reloaded entries are byte-identical to the originals.
    original = ledger.get({"partitions": 0})
    assert json.dumps(reopened.get({"partitions": 0}), default=repr) == (
        json.dumps(original, default=repr)
    )


def test_version_change_invalidates_points(tmp_path):
    fill(SweepLedger(tmp_path / "led", version="v1"), 2)
    upgraded = SweepLedger(tmp_path / "led", version="v2")
    assert not upgraded.completed({"partitions": 0})
    assert upgraded.diff_grid([{"partitions": 0}]).pending


def test_root_must_be_directory(tmp_path):
    (tmp_path / "file").write_text("x")
    with pytest.raises(CheckpointError):
        SweepLedger(tmp_path / "file")


def test_root_that_is_a_file_exits_8(tmp_path, capsys):
    (tmp_path / "file").write_text("x")
    code = main([
        "sweep", "--layer", "TF0", "--macs", "65536", "--partitions", "1",
        "--ledger", str(tmp_path / "file"),
    ])
    assert code == 8
    assert "cannot create sweep ledger" in capsys.readouterr().err


def test_old_ledger_layout_reads_as_empty(tmp_path):
    # A columnar ledger directory from before the journal holds no
    # journal.jsonl: its points re-simulate and its files stay put.
    root = tmp_path / "led"
    (root / "segments").mkdir(parents=True)
    (root / "segments" / "seg-000000.seg").write_bytes(b"RSG1 old segment")
    (root / "active.jsonl").write_text('{"key": "k", "status": "ok"}\n')
    ledger = SweepLedger(root, version="test")
    assert len(ledger) == 0
    fill(ledger, 1)
    assert (root / "segments" / "seg-000000.seg").read_bytes() == b"RSG1 old segment"
    assert (root / "active.jsonl").read_text() == '{"key": "k", "status": "ok"}\n'


# ----------------------------------------------------------------------
# Incremental diff
# ----------------------------------------------------------------------

def test_diff_grid_partitions_reused_and_pending(ledger):
    fill(ledger, 3)
    diff = ledger.diff_grid([{"partitions": i} for i in range(5)])
    assert [p["partitions"] for p in diff.reused] == [0, 1, 2]
    assert [p["partitions"] for p in diff.pending] == [3, 4]
    assert diff.total == 5
    assert diff.describe() == (
        "3/5 point(s) reused from the ledger, 2 to simulate"
    )


def test_diff_grid_empty():
    diff = LedgerDiff()
    assert diff.total == 0


# ----------------------------------------------------------------------
# Damaged lines
# ----------------------------------------------------------------------

def test_bit_flip_drops_exactly_that_line(tmp_path):
    fill(SweepLedger(tmp_path / "led", version="test"), 8)
    flip_low_bit(tmp_path / "led" / "journal.jsonl", b'"cycles": 995')  # point 5

    recovered = SweepLedger(tmp_path / "led", version="test")
    assert recovered.completed_count == 7  # only the flipped line's point lost
    pending = recovered.diff_grid([{"partitions": i} for i in range(8)]).pending
    assert [p["partitions"] for p in pending] == [5]


def test_dropped_points_recompute_byte_identically(tmp_path):
    led = SweepLedger(tmp_path / "led", version="test")
    fill(led, 4)
    before = json.dumps(led.get({"partitions": 2}), default=repr)
    flip_low_bit(tmp_path / "led" / "journal.jsonl", b'"cycles": 998')  # point 2

    led = SweepLedger(tmp_path / "led", version="test")
    assert not led.completed({"partitions": 2})
    fill(led, 4)  # re-simulate the lost point
    assert json.dumps(led.get({"partitions": 2}), default=repr) == before
    assert SweepLedger(tmp_path / "led", version="test").completed_count == 4


def test_journal_tolerates_torn_final_line(tmp_path):
    fill(SweepLedger(tmp_path / "led", version="test"), 2)
    with (tmp_path / "led" / "journal.jsonl").open("a") as handle:
        handle.write('{"key": "trunc')  # crash mid-append
    reopened = SweepLedger(tmp_path / "led", version="test")
    assert reopened.completed_count == 2
    fill(reopened, 1, start=2)  # the next append is not glued to the tear
    assert SweepLedger(tmp_path / "led", version="test").completed_count == 3


# ----------------------------------------------------------------------
# Rows and ``repro stats --ledger``
# ----------------------------------------------------------------------

def test_failed_rows_are_excluded_by_default(ledger):
    fill(ledger, 2)
    ledger.record({"partitions": 99}, "failed", error="boom")
    assert len(ledger.rows()) == 2
    assert [row["cycles"] for row in ledger.rows()] == [1000, 999]


def stats(root, *flags):
    return main(["stats", "--ledger", str(root), *flags])


def test_group_by(ledger, capsys):
    fill(ledger, 6)
    assert stats(ledger.root, "--group-by", "avg_bw,cycles,min") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        f"# ledger {ledger.root} (version {__version__})",
        "entries    6 (6 completed)",
    ]
    # avg_bw cycles index % 3; min cycles in each class is the last.
    assert out[2:] == [
        "# min(cycles) by avg_bw",
        "  0.0               997.0",
        "  1.0               996.0",
        "  2.0               995.0",
    ]
    assert stats(ledger.root, "--group-by", "avg_bw,cycles,count") == 0
    assert capsys.readouterr().out.splitlines()[3:] == [
        "  0.0               2",
        "  1.0               2",
        "  2.0               2",
    ]


def test_group_by_skips_rows_missing_a_column(ledger, capsys):
    ledger.record({"partitions": 0}, "ok", rows=[{"array": "a", "cycles": 10}])
    ledger.record({"partitions": 1}, "ok", rows=[{"array": "a", "other": 3}])
    ledger.record({"partitions": 2}, "ok", rows=[{"array": "b", "cycles": True}])
    assert stats(ledger.root, "--group-by", "array,cycles,count") == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "# count(cycles) by array",
        "  'a'               1",
    ]


def test_group_by_rejects_unknown_aggregate(ledger, capsys):
    assert stats(ledger.root, "--group-by", "a,b,median") == 2
    assert "unknown aggregate 'median'" in capsys.readouterr().err


def test_pareto_front_query(ledger, capsys):
    for partitions, cycles, avg_bw in ((0, 10, 5.0), (1, 20, 1.0), (2, 30, 6.0)):
        ledger.record(
            {"partitions": partitions}, "ok",
            rows=[{"partitions": partitions, "cycles": cycles, "avg_bw": avg_bw}],
        )
    assert stats(ledger.root, "--pareto", "cycles,avg_bw") == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "# pareto front minimizing (cycles, avg_bw): 2 row(s)",
        "  cycles=10, avg_bw=5.0",
        "  cycles=20, avg_bw=1.0",  # row 2 dominated
    ]


def test_pareto_needs_objectives(ledger, capsys):
    assert stats(ledger.root, "--pareto", ",") == 2
    assert "objective" in capsys.readouterr().err
