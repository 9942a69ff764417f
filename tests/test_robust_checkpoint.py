"""Unit tests for the JSONL checkpoint journal."""

import contextlib
import hashlib
import json
import logging
import os

import pytest

from repro.errors import CheckpointError
from repro.robust.checkpoint import CheckpointStore, point_key
from repro.sweep import SweepLedger


@contextlib.contextmanager
def _capture_checkpoint_warnings(caplog):
    """Yield a list that receives each distinct record logged inside.

    The CLI may set repro's logger to propagate=False; attach the
    capture handler to the source logger directly (same idiom as
    tests/test_perf_parallel.py).  While the logger still propagates,
    caplog's root handler receives the same record a second time, so
    records are kept once per object: a program that warned twice
    still shows two.
    """
    checkpoint_logger = logging.getLogger("repro.robust.checkpoint")
    checkpoint_logger.addHandler(caplog.handler)
    records = []
    try:
        with caplog.at_level(logging.WARNING, logger="repro.robust.checkpoint"):
            yield records
    finally:
        checkpoint_logger.removeHandler(caplog.handler)
    records.extend({id(record): record for record in caplog.records}.values())


class TestPointKey:
    def test_stable_across_ordering(self):
        assert point_key({"a": 1, "b": 2}, "v1") == point_key({"b": 2, "a": 1}, "v1")

    def test_version_invalidates(self):
        assert point_key({"a": 1}, "v1") != point_key({"a": 1}, "v2")

    def test_distinct_params_distinct_keys(self):
        assert point_key({"a": 1}, "v1") != point_key({"a": 2}, "v1")


class TestStore:
    def test_record_and_reload(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok", rows=[{"a": 1, "x": 2}])
        store.record({"a": 2}, status="failed", error="RuntimeError: nope")

        reloaded = CheckpointStore(path, version="v1")
        assert len(reloaded) == 2
        assert reloaded.completed({"a": 1})
        assert not reloaded.completed({"a": 2})  # failed points re-run on resume
        assert reloaded.get({"a": 1})["rows"] == [{"a": 1, "x": 2}]
        assert reloaded.completed_count == 1

    def test_version_mismatch_misses(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CheckpointStore(path, version="v1").record({"a": 1}, status="ok")
        stale = CheckpointStore(path, version="v2")
        assert not stale.completed({"a": 1})

    def test_truncated_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok", rows=[{"y": 9}])
        with path.open("a") as handle:
            handle.write('{"key": "deadbeef", "status"')  # crash mid-write

        reloaded = CheckpointStore(path, version="v1")
        assert len(reloaded) == 1
        assert reloaded.completed({"a": 1})

    def test_truncated_trailing_line_warns(self, tmp_path, caplog):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok")
        with path.open("a") as handle:
            handle.write('{"key": "deadbeef", "status"')  # crash mid-write

        with _capture_checkpoint_warnings(caplog) as records:
            CheckpointStore(path, version="v1")
        dropped = [r for r in records if "re-simulated" in r.getMessage()]
        assert len(dropped) == 1
        assert "line 2/2" in dropped[0].getMessage()

    def test_append_after_torn_tail_stays_readable(self, tmp_path):
        """A crash mid-append must not swallow the next acknowledged point."""
        path = tmp_path / "run.jsonl"
        CheckpointStore(path, version="v1").record({"a": 1}, status="ok")
        with path.open("a") as handle:
            handle.write('{"key": "deadbeef", "status"')  # crash mid-write

        CheckpointStore(path, version="v1").record({"c": 3}, status="ok")
        reloaded = CheckpointStore(path, version="v1")
        assert reloaded.completed({"a": 1})
        assert reloaded.completed({"c": 3})
        assert len(reloaded) == 2

    def test_clean_journal_loads_without_warnings(self, tmp_path, caplog):
        path = tmp_path / "run.jsonl"
        CheckpointStore(path, version="v1").record({"a": 1}, status="ok")
        with _capture_checkpoint_warnings(caplog) as records:
            CheckpointStore(path, version="v1")
        assert not [r for r in records if r.levelname == "WARNING"]

    def test_resume_false_refuses_existing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        CheckpointStore(path, version="v1").record({"a": 1}, status="ok")
        with pytest.raises(CheckpointError, match="already exists"):
            CheckpointStore(path, version="v1", resume=False)

    def test_resume_false_fresh_path_ok(self, tmp_path):
        CheckpointStore(tmp_path / "new.jsonl", resume=False)

    def test_directory_path_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="directory"):
            CheckpointStore(tmp_path)

    def test_journal_lines_are_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok", attempts=2, duration=0.5)
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["params"] == {"a": 1}
        assert entry["attempts"] == 2
        assert entry["version"] == "v1"
        assert entry["key"] == point_key({"a": 1}, "v1")

    def test_default_version_is_package_version(self, tmp_path):
        from repro import __version__

        store = CheckpointStore(tmp_path / "run.jsonl")
        assert store.version == __version__


class TestCompact:
    def test_drops_failed_and_superseded_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="failed", error="boom")
        store.record({"a": 1}, status="ok", rows=[{"x": 1}])  # supersedes
        store.record({"a": 2}, status="ok", rows=[{"x": 2}])
        store.record({"a": 3}, status="failed", error="boom")
        assert len(path.read_text().splitlines()) == 4

        dropped = store.compact()
        assert dropped == 2  # the superseded {"a": 1} line and the failed {"a": 3}

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # file stays valid JSONL

        reloaded = CheckpointStore(path, version="v1")
        assert reloaded.completed({"a": 1})
        assert reloaded.completed({"a": 2})
        assert not reloaded.completed({"a": 3})
        assert reloaded.get({"a": 1})["rows"] == [{"x": 1}]

    def test_keep_failed_entries(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="failed", error="boom")
        assert store.compact(drop_failed=False) == 0
        assert len(path.read_text().splitlines()) == 1

    def test_compact_empty_journal(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.jsonl", version="v1")
        assert store.compact() == 0

    def test_compact_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok")
        store.compact()
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]

    def test_store_usable_after_compact(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="failed", error="boom")
        store.compact()
        store.record({"a": 1}, status="ok")
        assert CheckpointStore(path, version="v1").completed({"a": 1})


class TestChecksum:
    def test_each_line_ends_with_the_sha256_of_its_text(self, tmp_path):
        path = tmp_path / "run.jsonl"
        entry = CheckpointStore(path, version="v1").record(
            {"a": 1}, status="ok", rows=[{"b": 2, "a": 1}]
        )
        line = path.read_text().splitlines()[0]
        text = json.dumps(entry)
        assert line == (
            text[:-1] + f', "sha256": "{hashlib.sha256(text.encode()).hexdigest()}"}}'
        )
        assert list(json.loads(line)) == [*entry, "sha256"]  # key order kept

    def test_flipped_bit_drops_the_line_with_a_warning(self, tmp_path, caplog):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok", rows=[{"x": 424992}])
        store.record({"a": 2}, status="ok", rows=[{"x": 7}])
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"424992")] ^= 0x01  # still valid JSON: 524992
        path.write_bytes(bytes(raw))

        with _capture_checkpoint_warnings(caplog) as records:
            reloaded = CheckpointStore(path, version="v1")
        assert not reloaded.completed({"a": 1})
        assert reloaded.get({"a": 2})["rows"] == [{"x": 7}]
        dropped = [r for r in records if "re-simulated" in r.getMessage()]
        assert len(dropped) == 1
        assert "line 1/2" in dropped[0].getMessage()

    def test_line_without_a_checksum_is_dropped(self, tmp_path, caplog):
        # A journal written before lines carried checksums re-simulates.
        path = tmp_path / "run.jsonl"
        entry = {"key": point_key({"a": 1}, "v1"), "version": "v1",
                 "params": {"a": 1}, "status": "ok", "rows": [], "attempts": 1,
                 "duration": 0.0, "error": None}
        path.write_text(json.dumps(entry) + "\n")
        with _capture_checkpoint_warnings(caplog) as records:
            reloaded = CheckpointStore(path, version="v1")
        assert len(reloaded) == 0
        assert len([r for r in records if "re-simulated" in r.getMessage()]) == 1

    def test_non_utf8_damage_is_dropped_not_raised(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok")
        store.record({"a": 2}, status="ok")
        raw = bytearray(path.read_bytes())
        raw[raw.index(b'"status"')] ^= 0x80
        path.write_bytes(bytes(raw))
        reloaded = CheckpointStore(path, version="v1")
        assert not reloaded.completed({"a": 1})
        assert reloaded.completed({"a": 2})

    def test_compact_writes_checksummed_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = CheckpointStore(path, version="v1")
        store.record({"a": 1}, status="ok", rows=[{"x": 1}])
        before = path.read_bytes()
        store.record({"a": 2}, status="failed", error="boom")
        store.compact()
        assert path.read_bytes() == before
        assert CheckpointStore(path, version="v1").completed({"a": 1})


@pytest.fixture
def fsyncs(monkeypatch):
    """Count ``os.fsync`` calls (file and directory fsyncs alike)."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


class TestFsyncBudget:
    """fsync is a leading cost of every durable write, so no count may
    grow; and each journal fsync is what makes a returned call durable,
    so none may shrink."""

    @staticmethod
    def record(journal, index):
        return journal.record(
            {"partitions": index}, "ok", rows=[{"partitions": index, "cycles": index}]
        )

    def test_ledger_open_and_record(self, tmp_path, fsyncs):
        ledger = SweepLedger(tmp_path / "led", version="v")
        assert fsyncs == []
        self.record(ledger, 0)
        assert len(fsyncs) == 1  # the journal line
        del fsyncs[:]
        SweepLedger(tmp_path / "led", version="v")  # reopen
        assert fsyncs == []

    def test_checkpoint_record(self, tmp_path, fsyncs):
        journal = CheckpointStore(tmp_path / "run.jsonl", version="v")
        self.record(journal, 0)
        assert len(fsyncs) == 1
