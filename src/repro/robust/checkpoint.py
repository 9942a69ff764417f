"""Append-only checkpoint journal for resumable batch runs.

Every completed grid point is journalled as one JSON line, so an
interrupted sweep resumes exactly where it stopped: points whose key is
already present with status ``"ok"`` are replayed from the journal
instead of re-executed.

Keys are a stable SHA-256 of the point's parameters *and* a version
string (defaulting to the package version), so a code upgrade silently
invalidates stale checkpoints instead of resuming with mismatched
results.  Each line is fsynced before :meth:`~CheckpointStore.record`
returns and a torn final line is dropped on load (the durability
contract is in ``docs/robustness.md``); :meth:`~CheckpointStore.compact`
atomically rewrites a long-lived journal to its latest useful record
per key.  The sweep ledger's unsealed tail is a :class:`CheckpointStore`
too, which makes this class the one writer of point entries.

Journal line schema::

    {"key": "...", "version": "...", "params": {...},
     "status": "ok" | "failed", "rows": [...], "attempts": N,
     "duration": seconds, "error": "..." | null}
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Protocol, Union

from repro._version import __version__
from repro.errors import CheckpointError
from repro.utils.atomicio import append_line, atomic_write_text, iter_json_lines

logger = logging.getLogger("repro.robust.checkpoint")


class PointJournal(Protocol):
    """What the executor needs from a journal of completed grid points.

    :class:`CheckpointStore` is the JSONL reference implementation;
    :class:`repro.store.ledger.SweepLedger` is the durable columnar
    one.  Anything satisfying this protocol can be passed wherever a
    ``checkpoint=`` is accepted (``execute_grid``, ``run_sweep``) — the
    executor only ever keys, reads, tests and records points.
    """

    version: str

    def key(self, params: Dict) -> str: ...

    def get(self, params: Dict) -> Optional[Dict]: ...

    def completed(self, params: Dict) -> bool: ...

    def record(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict: ...


def point_key(params: Dict, version: str) -> str:
    """Stable content hash of one grid point under one code version."""
    try:
        canonical = json.dumps(
            {"params": params, "version": version},
            sort_keys=True,
            default=repr,
        )
    except TypeError as exc:  # pragma: no cover - default=repr is total
        raise CheckpointError(f"unhashable sweep parameters {params!r}") from exc
    import hashlib

    return hashlib.sha256(canonical.encode()).hexdigest()


class CheckpointStore:
    """JSONL journal of completed grid points, keyed by params + version."""

    def __init__(
        self,
        path: Union[str, Path],
        version: Optional[str] = None,
        resume: bool = True,
    ):
        self.path = Path(path)
        self.version = version if version is not None else __version__
        self._entries: Dict[str, Dict] = {}
        #: Every line this instance loaded or appended, in journal order.
        self._lines: List[Dict] = []
        if self.path.exists():
            if self.path.is_dir():
                raise CheckpointError(f"checkpoint path is a directory: {self.path}")
            if not resume:
                raise CheckpointError(
                    f"checkpoint {self.path} already exists; pass resume=True "
                    "(CLI: --resume) to continue it, or remove the file"
                )
            self._lines = self._read()
            self._entries = {entry["key"]: entry for entry in self._lines}
            logger.info(
                "resuming checkpoint %s: %d completed point(s)",
                self.path, len(self._entries),
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read(self) -> List[Dict]:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        return list(iter_json_lines(text, self.path, logger=logger))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self._entries.values())

    @property
    def lines(self) -> List[Dict]:
        """Entries in journal order, superseded ones included."""
        return list(self._lines)

    def key(self, params: Dict) -> str:
        return point_key(params, self.version)

    def get(self, params: Dict) -> Optional[Dict]:
        """The journal entry for ``params``, or ``None`` if never recorded."""
        return self._entries.get(self.key(params))

    def completed(self, params: Dict) -> bool:
        """True when ``params`` already finished successfully."""
        entry = self.get(params)
        return entry is not None and entry.get("status") == "ok"

    @property
    def completed_count(self) -> int:
        return sum(1 for e in self._entries.values() if e.get("status") == "ok")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def entry(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict:
        """The journal entry for one finished point (not yet written)."""
        return {
            "key": self.key(params),
            "version": self.version,
            "params": params,
            "status": status,
            "rows": rows if rows is not None else [],
            "attempts": attempts,
            "duration": duration,
            "error": error,
        }

    def record(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict:
        """Journal one finished point (successful or exhausted)."""
        return self.append(self.entry(params, status, rows, attempts, duration, error))

    def append(self, entry: Dict) -> Dict:
        """Durably append one :meth:`entry` (fsynced before returning)."""
        try:
            # No sort_keys: row dicts must round-trip with their column
            # order intact so resumed output matches a fresh run.
            line = json.dumps(entry, default=repr)
        except TypeError as exc:  # pragma: no cover - default=repr is total
            raise CheckpointError(f"unserializable checkpoint entry: {exc}") from exc
        try:
            append_line(self.path, line)
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to checkpoint {self.path}: {exc}"
            ) from exc
        self._lines.append(entry)
        self._entries[entry["key"]] = entry
        return entry

    def _rewrite(self, entries: List[Dict]) -> None:
        text = "".join(json.dumps(entry, default=repr) + "\n" for entry in entries)
        try:
            atomic_write_text(self.path, text)
        except OSError as exc:
            raise CheckpointError(
                f"cannot rewrite checkpoint {self.path}: {exc}"
            ) from exc

    def compact(self, drop_failed: bool = True) -> int:
        """Rewrite the journal with only the latest record per key.

        Re-recorded points leave superseded lines behind, and failed
        points (``drop_failed``) are worth retrying on the next resume
        rather than replaying as failures.  The rewrite is atomic, so a
        crash at any instant leaves either the old complete journal or
        the new one.  Returns the number of journal lines dropped.
        """
        if not self.path.exists():
            return 0
        try:
            raw_lines = [
                line for line in self.path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc

        keep = {
            key: entry
            for key, entry in self._entries.items()
            if not (drop_failed and entry.get("status") != "ok")
        }
        self._rewrite(list(keep.values()))
        self._entries = keep
        self._lines = list(keep.values())
        return len(raw_lines) - len(keep)

    def release(self) -> None:
        """Drop this instance's lines from the journal and forget them.

        Lines other writers appended since this instance read the file
        stay, so a journal shared under an external lock (the sweep
        ledger's tail) loses nothing another process has not sealed.
        Call under that lock; the rewrite is atomic.
        """
        mine = {json.dumps(entry, default=repr) for entry in self._lines}
        others = [
            entry for entry in self._read()
            if json.dumps(entry, default=repr) not in mine
        ]
        self._rewrite(others)
        self._entries = {}
        self._lines = []
