"""fsync budget of every durable write path.

The sweep ledger and the checkpoint journal share one set of file
primitives (``repro.utils.atomicio``); the ledger also keeps its
bookkeeping in ``repro.store.durable``.  fsync is a leading cost of
every durable write, so no count may grow; and each journal fsync is
what makes a returned call durable, so none of those may shrink.
"""

from __future__ import annotations

import os

import pytest

from repro.robust.checkpoint import CheckpointStore
from repro.store.ledger import SweepLedger


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


def record(journal, index):
    return journal.record(
        {"partitions": index}, "ok", rows=[{"partitions": index, "cycles": index}]
    )


def test_ledger_open_record_and_seal(tmp_path, fsyncs):
    ledger = SweepLedger(tmp_path / "led", version="v", segment_entries=2)
    assert fsyncs == []
    record(ledger, 0)
    assert len(fsyncs) == 1  # the tail line
    del fsyncs[:]
    record(ledger, 1)  # reaches segment_entries: seals
    # tail line + segment file + segments directory + manifest line + tail cut
    assert len(fsyncs) == 5
    ledger.close()
    del fsyncs[:]
    SweepLedger(tmp_path / "led", version="v").close()  # clean reopen
    assert fsyncs == []


def test_checkpoint_record(tmp_path, fsyncs):
    journal = CheckpointStore(tmp_path / "run.jsonl", version="v")
    record(journal, 0)
    assert len(fsyncs) == 1
