"""Disk-backed, content-addressed, crash-safe simulation result store.

This is the cross-run promotion of :mod:`repro.perf.cache`'s in-process
LRU: one JSON record per simulation key, so identical grid points —
across sweeps, processes, clients and machines sharing a filesystem —
simulate **once, ever**.

Layout (one directory per store)::

    <root>/
      lock                  flock target: puts share it, reap and quarantine exclusive
      entries/<k0k1>/<key>.json
      corrupt/<key>.<n>.json   quarantined records (never re-read)

The store is a cache — any record can be recomputed — so a put
publishes by temp file + ``os.replace`` and never fsyncs.  Records are
self-verifying (schema version + SHA-256 of the canonical payload): a
corrupt one, including what a power loss leaves of a recent put, is
quarantined and reported as a miss, so the caller recomputes and the
next put heals it.  The durability contract, shared with the sweep
ledger and the checkpoint journal, is in ``docs/robustness.md``.

Observability: ``store.hits`` / ``store.misses`` / ``store.writes`` /
``store.quarantined`` / ``store.errors`` / ``store.recovered`` counters
mirror into :mod:`repro.obs.metrics` and are always available locally
via :meth:`ResultStore.status`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro._version import __version__
from repro.errors import StorageError, StoreCorruptionError
from repro.store.durable import DurableRoot
from repro.utils.atomicio import atomic_write_bytes

logger = logging.getLogger("repro.store")

#: Wire-format version of entry records; readers quarantine any other.
SCHEMA_VERSION = 1

#: A key is a content hash: lowercase hex, as produced by
#: :func:`repro.obs.config_hash` (16 chars) or any sha256 prefix.
_KEY_CHARS = set("0123456789abcdef")

MODE_READWRITE = "readwrite"
MODE_COMPUTE_ONLY = "compute-only"


def _canonical(payload: Dict) -> Tuple[str, str]:
    """``payload`` as JSON text with sorted keys and no spaces, and its SHA-256."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return text, hashlib.sha256(text.encode()).hexdigest()


def payload_checksum(payload: Dict) -> str:
    """Canonical SHA-256 of a JSON payload (order-insensitive)."""
    return _canonical(payload)[1]


def valid_key(key: str) -> bool:
    return (
        isinstance(key, str)
        and 8 <= len(key) <= 64
        and all(ch in _KEY_CHARS for ch in key)
    )


class ResultStore:
    """One content-addressed store rooted at a directory.

    Thread-safe; multiple processes may share the same root (see
    ``docs/robustness.md`` for the durability contract).
    ``writable=False`` opens a read-only view that never mutates the
    directory — useful for inspection tooling.
    """

    def __init__(
        self,
        root: Union[str, Path],
        writable: bool = True,
        version: Optional[str] = None,
    ):
        self.root = Path(root)
        self.version = version if version is not None else __version__
        self.entries_dir = self.root / "entries"
        self._durable = DurableRoot(
            self.root,
            kind="result store",
            prefix="store",
            field="key",
            modes=(MODE_READWRITE, MODE_COMPUTE_ONLY),
            counters=("hits", "misses", "writes"),
            writable=writable,
            logger=logger,
        )
        self.corrupt_dir = self._durable.corrupt_dir
        if writable:
            self._durable.create(self.entries_dir)
            self.recover()

    def entry_path(self, key: str) -> Path:
        return self.entries_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """The verified payload stored under ``key``, or ``None``.

        Any record that fails validation — unparsable JSON, wrong key,
        stale schema, checksum mismatch — is quarantined and reported
        as a miss so the caller recomputes.
        """
        try:
            payload, problem = self._check(key)
        except FileNotFoundError:
            payload, problem = None, None
        except OSError as exc:
            self._durable.count("errors")
            logger.warning("store read failed for %s: %s", key, exc)
            payload, problem = None, None
        if problem is not None:
            self.quarantine(key, problem)
        self._durable.count("misses" if payload is None else "hits")
        return payload

    def _check(self, key: str) -> Tuple[Optional[Dict], Optional[str]]:
        """``(payload, None)`` for a sound record, else ``(None, why)``.

        Raises ``OSError`` when the record cannot be read at all.
        """
        raw = self.entry_path(key).read_bytes()
        try:
            record = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            return None, f"unparsable JSON ({exc})"
        if not isinstance(record, dict):
            return None, "record is not a JSON object"
        if record.get("schema") != SCHEMA_VERSION:
            return None, f"stale schema {record.get('schema')!r} (want {SCHEMA_VERSION})"
        if record.get("key") != key:
            return None, f"key mismatch (record says {record.get('key')!r})"
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return None, "missing payload"
        checksum = payload_checksum(payload)
        if record.get("checksum") != checksum:
            return None, (
                f"checksum mismatch (recorded {record.get('checksum')!r}, "
                f"computed {checksum!r})"
            )
        return payload, None

    def __contains__(self, key: str) -> bool:
        return self.entry_path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        if not self.entries_dir.is_dir():
            return
        for shard in sorted(self.entries_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, payload: Dict, meta: Optional[Dict] = None) -> bool:
        """Atomically publish ``payload`` under ``key`` (no fsync).

        Returns ``True`` when the entry landed, ``False`` when the
        store is read-only or (just became) compute-only.  Storage
        failures degrade the store instead of raising; programming
        errors (invalid key, unserializable payload) still raise.
        Puts hold the lock shared, so they never wait for each other.
        """
        if not valid_key(key):
            raise StoreCorruptionError(f"invalid store key {key!r}")
        if not self.writable:
            return False
        body, checksum = _canonical(payload)
        frame = json.dumps({
            "schema": SCHEMA_VERSION,
            "key": key,
            "version": self.version,
            "created_unix": time.time(),
            "checksum": checksum,
        }, separators=(",", ":"))
        # One serialization feeds the checksum and the record: the
        # canonical payload text is spliced in after the frame's fields.
        tail = f',"meta":{json.dumps(meta, separators=(",", ":"))}' if meta else ""
        text = f'{frame[:-1]},"payload":{body}{tail}}}'
        path = self.entry_path(key)
        try:
            with self._durable.lock(shared=True):
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(path, text.encode("utf-8"), fsync=False)
        except (StorageError, OSError) as exc:
            self._durable.degrade(MODE_COMPUTE_ONLY, f"put {key} failed: {exc}")
            return False
        self._durable.count("writes")
        return True

    # ------------------------------------------------------------------
    # Quarantine, recovery and verification
    # ------------------------------------------------------------------
    def quarantine(self, key: str, reason: str) -> Optional[Path]:
        """Move ``key``'s record into ``corrupt/`` (evidence preserved).

        Never raises; a read-only view only logs the corruption.
        """
        with self._durable.lock():
            return self._durable.quarantine(
                self.entry_path(key), key, reason, suffix=".json"
            )

    def quarantined(self) -> List[Path]:
        return sorted(self.corrupt_dir.glob("*.json"))

    def recover(self) -> Dict[str, int]:
        """Repair after a crash: unlink orphan temp files.

        Returns counts of what was repaired.  Safe to run at every
        open; a clean store is a no-op.
        """
        return self._durable.reconcile(self.entries_dir.glob("*/.*.tmp"))

    def verify(self) -> Dict[str, int]:
        """Deep-check every entry; quarantine the ones that fail.

        Reuses the read-path validation, so ``verify`` + retry is
        exactly equivalent to hitting each key once.
        """
        summary = {"checked": 0, "ok": 0, "quarantined": 0}
        for key in list(self.keys()):
            summary["checked"] += 1
            try:
                _, problem = self._check(key)
            except OSError as exc:
                problem = f"unreadable ({exc})"
            if problem is None:
                summary["ok"] += 1
            else:
                self.quarantine(key, problem)
                summary["quarantined"] += 1
        return summary

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def writable(self) -> bool:
        """Opened writable and not degraded to compute-only."""
        return self._durable.durable

    @property
    def degraded_reason(self) -> Optional[str]:
        return self._durable.degraded_reason

    @degraded_reason.setter
    def degraded_reason(self, reason: Optional[str]) -> None:
        self._durable.degraded_reason = reason

    def status(self) -> Dict:
        """Health snapshot for ``/health`` and the CLI."""
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "entries": len(self),
            "corrupt": len(self.quarantined()),
            "mode": MODE_READWRITE if self.writable else MODE_COMPUTE_ONLY,
            "degraded_reason": self.degraded_reason,
            **self._durable.counts(),
        }
