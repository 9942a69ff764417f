"""Unit tests for the JSONL checkpoint journal."""

import contextlib
import json
import logging

import pytest

from repro.errors import CheckpointError
from repro.robust.checkpoint import CheckpointStore, point_key


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
