"""Atomic writes under filesystem failure: typed errors, no orphans."""

from __future__ import annotations

import errno
import json

import pytest

from repro.errors import ReproError, StorageError
from repro.utils.atomicio import (
    append_line,
    atomic_write_json,
    atomic_write_text,
    fsync_directory,
)


def _tmp_files(directory):
    return [p for p in directory.iterdir() if p.name.endswith(".tmp")]


def test_atomic_write_replaces_contents(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert _tmp_files(tmp_path) == []


def test_atomic_write_json_round_trips(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"a": [1, 2.5, "x"]})
    assert json.loads(target.read_text()) == {"a": [1, 2.5, "x"]}


def test_append_line_bytes_unchanged_on_a_clean_file(tmp_path):
    target = tmp_path / "journal.jsonl"
    append_line(target, '{"key": "a"}')
    append_line(target, '{"key": "b"}')
    assert target.read_bytes() == b'{"key": "a"}\n{"key": "b"}\n'


def test_append_line_terminates_a_torn_tail_first(tmp_path):
    target = tmp_path / "journal.jsonl"
    append_line(target, '{"key": "a"}')
    with target.open("a") as handle:
        handle.write('{"key": "b", "sta')  # crash mid-append
    append_line(target, '{"key": "c"}')
    assert target.read_bytes() == b'{"key": "a"}\n{"key": "b", "sta\n{"key": "c"}\n'
    keys = []
    for line in target.read_text().splitlines():
        try:
            keys.append(json.loads(line)["key"])
        except json.JSONDecodeError:
            pass  # the torn line stays isolated on a line of its own
    assert keys == ["a", "c"]


def test_missing_directory_raises_typed_storage_error(tmp_path):
    target = tmp_path / "nope" / "out.json"
    with pytest.raises(StorageError) as excinfo:
        atomic_write_text(target, "data")
    # StorageError is both a ReproError (exit-code table) and an OSError
    # (existing `except OSError` guards keep working).
    assert isinstance(excinfo.value, ReproError)
    assert isinstance(excinfo.value, OSError)
    assert _tmp_files(tmp_path) == []


def test_write_failure_unlinks_temp_and_keeps_original(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    atomic_write_text(target, "precious")

    def enospc(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.utils.atomicio.os.replace", enospc)
    with pytest.raises(StorageError) as excinfo:
        atomic_write_text(target, "overwrite attempt")
    assert excinfo.value.errno == errno.ENOSPC
    assert "no space left" in str(excinfo.value).lower()
    monkeypatch.undo()

    assert target.read_text() == "precious"  # original untouched
    assert _tmp_files(tmp_path) == []  # orphan swept


def test_eio_is_named_in_the_error(tmp_path, monkeypatch):
    def eio(src, dst):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr("repro.utils.atomicio.os.replace", eio)
    with pytest.raises(StorageError, match="I/O error"):
        atomic_write_text(tmp_path / "out", "data")


def test_fsync_directory_tolerates_anything(tmp_path):
    fsync_directory(tmp_path)  # a real directory
    fsync_directory(tmp_path / "does-not-exist")  # silently ignored


def test_storage_error_preserves_errno_and_filename(tmp_path, monkeypatch):
    def enospc(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.utils.atomicio.os.replace", enospc)
    target = tmp_path / "out.json"
    with pytest.raises(StorageError) as excinfo:
        atomic_write_text(target, "data")
    assert excinfo.value.errno == errno.ENOSPC
    assert excinfo.value.filename == str(target)
