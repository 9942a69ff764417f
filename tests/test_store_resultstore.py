"""The content-addressed result store: durability, corruption, recovery.

The contract under test: a ``kill -9`` at any instant leaves the store
readable with the interrupted entry either absent or complete; a
bit-flipped record, or what a power loss leaves of an unsynced put, is
detected, quarantined and recomputed; two processes racing the same key
both succeed and leave one valid record; puts never wait for each other
and an opening writer never reaps a live put's temp file; and storage
failures degrade the store to compute-only mode instead of failing the
simulation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.errors import StorageError, StoreCorruptionError
from repro.store.result_store import (
    SCHEMA_VERSION,
    ResultStore,
    payload_checksum,
    valid_key,
)

KEY = "0123456789abcdef"
OTHER = "fedcba9876543210"
PAYLOAD = {"kind": "test", "cycles": 123, "bw": 1.5, "rows": [1, 2, 3]}


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


# ----------------------------------------------------------------------
# Basic contract
# ----------------------------------------------------------------------

def test_put_get_round_trip(store):
    assert store.put(KEY, PAYLOAD)
    assert store.get(KEY) == PAYLOAD
    assert KEY in store
    assert list(store.keys()) == [KEY]


def test_miss_returns_none_and_counts(store):
    assert store.get(KEY) is None
    assert store.status()["misses"] == 1
    assert store.status()["hits"] == 0


def test_entries_are_sharded_by_key_prefix(store):
    store.put(KEY, PAYLOAD)
    assert store.entry_path(KEY).parent.name == KEY[:2]


def test_put_rejects_invalid_keys(store):
    for bad in ("", "xyz", "UPPERCASE12345678", "short", 42):
        with pytest.raises(StoreCorruptionError):
            store.put(bad, PAYLOAD)


def test_valid_key_accepts_config_hashes():
    assert valid_key("0123456789abcdef")
    assert valid_key("a" * 64)
    assert not valid_key("a" * 65)
    assert not valid_key("g" * 16)


def test_checksum_is_order_insensitive():
    assert payload_checksum({"a": 1, "b": 2}) == payload_checksum({"b": 2, "a": 1})
    assert payload_checksum({"a": 1}) != payload_checksum({"a": 2})


def test_reopened_store_still_hits(tmp_path):
    ResultStore(tmp_path / "s").put(KEY, PAYLOAD)
    assert ResultStore(tmp_path / "s").get(KEY) == PAYLOAD


def _tree(root):
    return {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in sorted(root.rglob("*"))
    }


def test_read_only_view_never_writes(tmp_path):
    writer = ResultStore(tmp_path / "s")
    writer.put(KEY, PAYLOAD)
    corrupt = "00112233aabbccdd"
    writer.put(corrupt, PAYLOAD)
    path = writer.entry_path(corrupt)
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"123", raw.index(b'"payload"'))] ^= 0x01
    path.write_bytes(bytes(raw))
    before = _tree(tmp_path / "s")

    view = ResultStore(tmp_path / "s", writable=False)
    assert view.get(KEY) == PAYLOAD
    assert not view.put(OTHER, PAYLOAD)
    assert view.get(OTHER) is None
    assert view.get(corrupt) is None  # detected, reported as a miss
    assert view.status()["quarantined"] == 1
    assert _tree(tmp_path / "s") == before  # but nothing moved


# ----------------------------------------------------------------------
# Corruption: detected on read, quarantined, recomputed
# ----------------------------------------------------------------------

def test_bit_flip_is_quarantined_and_healed(store):
    store.put(KEY, PAYLOAD)
    path = store.entry_path(KEY)
    raw = bytearray(path.read_bytes())
    flip = raw.index(b"123")  # flip inside the payload, not the framing
    raw[flip] ^= 0x01
    path.write_bytes(bytes(raw))

    assert store.get(KEY) is None  # detected -> miss
    assert not path.exists()  # evidence moved aside
    assert len(store.quarantined()) == 1
    assert store.status()["quarantined"] == 1

    assert store.put(KEY, PAYLOAD)  # recompute heals the entry
    assert store.get(KEY) == PAYLOAD


@pytest.mark.parametrize(
    "damage",
    [
        lambda raw: b"",
        lambda raw: raw[:1],
        lambda raw: raw[: len(raw) // 2],
        lambda raw: raw[:-1],
        lambda raw: bytes(len(raw)),  # what ext4 can leave of unsynced data
        lambda raw: bytes(range(128, 256)) * (len(raw) // 128 + 1),  # not UTF-8
    ],
    ids=["empty", "one-byte", "half", "all-but-last", "zero-filled", "stale-blocks"],
)
def test_truncated_record_is_quarantined(store, damage):
    """Puts do not fsync, so a power loss can leave any of these shapes."""
    store.put(KEY, PAYLOAD)
    path = store.entry_path(KEY)
    path.write_bytes(damage(path.read_bytes()))
    assert store.get(KEY) is None  # detected -> miss
    assert not path.exists()
    assert len(store.quarantined()) == 1
    assert store.put(KEY, PAYLOAD)  # recompute heals the entry
    assert store.get(KEY) == PAYLOAD


def test_records_framed_either_way_hit(store):
    """A record with its payload keys in insertion order, as older puts
    wrote it, still hits; a new put writes the canonical payload text
    its checksum was taken over."""
    store.put(KEY, PAYLOAD)
    record = json.loads(store.entry_path(KEY).read_text())
    assert record["checksum"] == payload_checksum(record["payload"])
    assert list(record["payload"]) == sorted(PAYLOAD)

    older = {
        "schema": SCHEMA_VERSION,
        "key": OTHER,
        "version": store.version,
        "created_unix": time.time(),
        "checksum": payload_checksum(PAYLOAD),
        "payload": PAYLOAD,
    }
    path = store.entry_path(OTHER)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(older, separators=(",", ":")))
    assert '"payload":{"kind"' in path.read_text()
    assert store.get(OTHER) == PAYLOAD


def test_stale_schema_is_quarantined(store):
    store.put(KEY, PAYLOAD)
    path = store.entry_path(KEY)
    record = json.loads(path.read_text())
    record["schema"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(record))
    assert store.get(KEY) is None
    assert len(store.quarantined()) == 1


def test_key_mismatch_is_quarantined(store):
    store.put(KEY, PAYLOAD)
    record = store.entry_path(KEY).read_text()
    shard = store.entry_path(OTHER)
    shard.parent.mkdir(parents=True, exist_ok=True)
    shard.write_text(record)  # a record copied to the wrong address
    assert store.get(OTHER) is None
    assert len(store.quarantined()) == 1


def test_quarantine_preserves_every_generation(store):
    for flip in range(3):
        store.put(KEY, PAYLOAD)
        store.entry_path(KEY).write_text("not json at all")
        assert store.get(KEY) is None
    assert len(store.quarantined()) == 3  # .0 .1 .2 sidecars


def test_verify_sweeps_all_entries(store):
    store.put(KEY, PAYLOAD)
    store.put(OTHER, PAYLOAD)
    store.entry_path(OTHER).write_text("garbage")
    summary = store.verify()
    assert summary == {"checked": 2, "ok": 1, "quarantined": 1}
    assert store.get(KEY) == PAYLOAD
    assert store.get(OTHER) is None
    assert store.status()["misses"] == 1  # miss counted once, post-quarantine


# ----------------------------------------------------------------------
# Recovery (orphan temp files) and the writer lock
# ----------------------------------------------------------------------

def test_recover_unlinks_orphan_temp_files(store):
    store.put(KEY, PAYLOAD)
    shard = store.entry_path(KEY).parent
    orphan = shard / f".{KEY}.json.abc123.tmp"
    orphan.write_text("half a record")
    ResultStore(store.root)  # recover() runs at every writable open
    assert not orphan.exists()
    orphan.write_text("half a record")
    assert store.recover()["orphan_tmp"] == 1


def test_puts_never_wait_and_an_open_spares_a_live_temp_file(store, monkeypatch):
    """Put A pauses with its temp file written; put B completes meanwhile,
    and a writable open reaps a dead writer's orphan but not A's temp."""
    orphan = store.entry_path(OTHER).parent / f".{OTHER}.json.dead00.tmp"
    orphan.parent.mkdir(parents=True, exist_ok=True)
    orphan.write_text("half a record")
    paused, release = threading.Event(), threading.Event()
    real_replace = os.replace

    def replace(src, dst):
        if threading.current_thread().name == "put-a":
            paused.set()
            release.wait(timeout=60)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    results, threads = {}, []

    def run(name, call):
        thread = threading.Thread(
            target=lambda: results.__setitem__(name, call()), name=name
        )
        thread.start()
        threads.append(thread)
        return thread

    run("put-a", lambda: store.put(KEY, PAYLOAD))
    try:
        assert paused.wait(timeout=30)
        (temp,) = [path for path in store.root.glob("entries/*/.*.tmp") if path != orphan]
        put_b = run("put-b", lambda: store.put("00112233aabbccdd", PAYLOAD))
        put_b.join(timeout=10)
        assert not put_b.is_alive(), "put B waited for put A"
        assert results["put-b"] is True
        run("open", lambda: ResultStore(store.root)).join(timeout=1)
        assert temp.exists(), "a writable open reaped a live put's temp file"
    finally:
        release.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert results["put-a"] is True
    assert store.get(KEY) == PAYLOAD
    assert results["open"].get(KEY) == PAYLOAD
    assert not orphan.exists()


def test_concurrent_puts_opens_and_reads_stay_consistent(tmp_path):
    """More threads than cores, with a short switch interval: every put
    lands, every read is the whole payload or a miss, no record tears and
    no count is lost."""
    store = ResultStore(tmp_path / "store")
    keys = [f"{index:02x}{'0' * 14}" for index in range(8)]
    puts, failures = 40, []

    def writer(offset):
        for step in range(puts):
            key = keys[(offset + step) % len(keys)]
            if not store.put(key, {"key": key, "rows": list(range(64))}):
                failures.append(f"put {key} failed")
            payload = store.get(keys[(offset + step + 1) % len(keys)])
            if payload is not None and payload["rows"] != list(range(64)):
                failures.append(f"torn read {payload}")

    def opener():
        for _ in range(10):
            ResultStore(store.root)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
        threads.append(threading.Thread(target=opener))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert store.status()["writes"] == 6 * puts
    assert store.status()["quarantined"] == 0
    assert sorted(store.keys()) == keys
    assert not list(store.root.glob("entries/*/.*.tmp"))


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------

def test_put_failure_degrades_to_compute_only(store, monkeypatch):
    def explode(path, payload, fsync=True):
        error = StorageError(f"cannot write {path}: no space left on device")
        error.errno = 28  # ENOSPC
        raise error

    monkeypatch.setattr("repro.store.result_store.atomic_write_bytes", explode)
    assert not store.put(KEY, PAYLOAD)  # degraded, not raised
    assert not store.writable
    assert "no space left" in store.degraded_reason
    assert store.status()["mode"] == "compute-only"

    monkeypatch.undo()
    assert not store.put(KEY, PAYLOAD)  # stays compute-only once degraded
    assert store.get(KEY) is None  # reads keep working


def test_status_snapshot_shape(store):
    store.put(KEY, PAYLOAD)
    store.get(KEY)
    status = store.status()
    assert status["entries"] == 1
    assert status["schema"] == SCHEMA_VERSION
    assert status["mode"] == "readwrite"
    assert status["hits"] == 1 and status["writes"] == 1


# ----------------------------------------------------------------------
# Crash safety and concurrency (real processes)
# ----------------------------------------------------------------------

def _spawn(code: str, *args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


WRITER = """
    import sys
    from repro.store.result_store import ResultStore

    store = ResultStore(sys.argv[1])
    payload = {"kind": "test", "blob": "x" * 4096}
    i = 0
    while True:
        store.put(f"{i % 256:02x}{'0' * 14}", {**payload, "i": i})
        i += 1
"""


def test_kill_dash_nine_mid_write_leaves_store_consistent(tmp_path):
    """SIGKILL a busy writer at a random instant; the store must reopen
    clean: every surviving entry validates, nothing is quarantined."""
    root = tmp_path / "store"
    writer = _spawn(WRITER, str(root))
    try:
        deadline = time.time() + 10
        while not (root / "entries").exists() and time.time() < deadline:
            time.sleep(0.01)
        time.sleep(0.3)  # let it publish mid-flight
    finally:
        writer.kill()
        writer.wait(timeout=10)

    survivor = ResultStore(root)
    summary = survivor.verify()
    assert summary["checked"] > 0, "writer never published anything"
    assert summary["quarantined"] == 0, "kill -9 must not leave torn entries"
    assert not list(root.glob("entries/*/.*.tmp"))  # recover() swept orphans


def test_two_processes_racing_same_key(tmp_path):
    """Two writers hammering the same key must both succeed and leave
    exactly one valid record (last complete write wins)."""
    root = tmp_path / "store"
    code = """
        import sys
        from repro.store.result_store import ResultStore

        store = ResultStore(sys.argv[1])
        ok = all(
            store.put("00" + "0" * 14, {"kind": "test", "writer": sys.argv[2]})
            for _ in range(200)
        )
        sys.exit(0 if ok else 1)
    """
    racers = [_spawn(code, str(root), name) for name in ("a", "b")]
    for racer in racers:
        _out, err = racer.communicate(timeout=60)
        assert racer.returncode == 0, err
    store = ResultStore(root)
    payload = store.get("00" + "0" * 14)
    assert payload is not None and payload["writer"] in ("a", "b")
    assert store.verify()["quarantined"] == 0


def test_reader_sees_complete_or_miss_during_writes(tmp_path):
    """A reader polling while a writer churns must only ever observe a
    verified payload or a miss — never a partial record."""
    root = tmp_path / "store"
    writer = _spawn(WRITER, str(root))
    try:
        deadline = time.time() + 10
        while not (root / "entries").exists() and time.time() < deadline:
            time.sleep(0.01)
        reader = ResultStore(root, writable=False)
        observations = 0
        finish = time.time() + 1.0
        while time.time() < finish:
            payload = reader.get(f"{observations % 4:02x}{'0' * 14}")
            if payload is not None:
                assert payload["kind"] == "test"
                assert len(payload["blob"]) == 4096
            observations += 1
        assert reader.status()["quarantined"] == 0
    finally:
        writer.send_signal(signal.SIGKILL)
        writer.wait(timeout=10)
