"""Append-only checkpoint journal for resumable batch runs.

Every completed grid point is journalled as one JSON line, so an
interrupted sweep resumes exactly where it stopped: points whose key is
already present with status ``"ok"`` are replayed from the journal
instead of re-executed.

Keys are a stable SHA-256 of the point's parameters *and* a version
string (defaulting to the package version), so a code upgrade silently
invalidates stale checkpoints instead of resuming with mismatched
results.  Each line is fsynced before :meth:`~CheckpointStore.record`
returns and ends with a SHA-256 of its own text, so a torn final line
or a flipped bit is dropped on load and its point re-simulates (the
durability contract is in ``docs/robustness.md``);
:meth:`~CheckpointStore.compact` atomically rewrites a long-lived
journal to its latest useful record per key.  A sweep ledger
(:class:`repro.sweep.SweepLedger`) is this journal in a directory of
its own.

Journal line schema (``sha256`` covers the line's text before it)::

    {"key": "...", "version": "...", "params": {...},
     "status": "ok" | "failed", "rows": [...], "attempts": N,
     "duration": seconds, "error": "..." | null, "sha256": "..."}
"""

from __future__ import annotations

import hashlib
import json
import logging
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Protocol, Union

from repro._version import __version__
from repro.errors import CheckpointError
from repro.utils.atomicio import append_line, atomic_write_text

logger = logging.getLogger("repro.robust.checkpoint")

#: The last field of every journal line: a SHA-256 of the text before it.
_CHECKSUM = b', "sha256": "'
#: Where that hex digest sits in a line: before the closing ``"}``.
_DIGEST = slice(-66, -2)
#: Where the checksum field starts, counted from the end of a line.
_FIELD_START = _DIGEST.start - len(_CHECKSUM)


class PointJournal(Protocol):
    """What the executor needs from a journal of completed grid points.

    :class:`CheckpointStore` implements it, and so does its subclass
    :class:`repro.sweep.SweepLedger`.  Anything satisfying this protocol
    can be passed wherever a ``checkpoint=`` is accepted
    (``execute_grid``, ``run_sweep``) — the executor only ever keys,
    reads, tests and records points.
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
    return hashlib.sha256(canonical.encode()).hexdigest()


def _journal_line(entry: Dict) -> str:
    """``entry`` as one journal line, its checksum the last field."""
    try:
        # No sort_keys: row dicts must round-trip with their column
        # order intact so resumed output matches a fresh run.
        text = json.dumps(entry, default=repr)
    except TypeError as exc:  # pragma: no cover - default=repr is total
        raise CheckpointError(f"unserializable checkpoint entry: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f'{text[:-1]}{_CHECKSUM.decode()}{digest}"}}'


def _parse_line(line: bytes) -> Optional[Dict]:
    """The entry one journal line holds, or ``None`` if the line is
    torn, not JSON, lacks the checksum or fails it.

    The raw text before the checksum field is hashed as it stands;
    the entry is never re-serialized to check it.
    """
    if not line.endswith(b'"}') or line[_FIELD_START:_DIGEST.start] != _CHECKSUM:
        return None
    body = line[:_FIELD_START] + b"}"
    if hashlib.sha256(body).hexdigest().encode() != line[_DIGEST]:
        return None
    try:
        entry = json.loads(body)
    except ValueError:
        return None
    if not isinstance(entry, dict) or not isinstance(entry.get("key"), str):
        return None
    return entry


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
        if self.path.exists():
            if self.path.is_dir():
                raise CheckpointError(f"checkpoint path is a directory: {self.path}")
            if not resume:
                raise CheckpointError(
                    f"checkpoint {self.path} already exists; pass resume=True "
                    "(CLI: --resume) to continue it, or remove the file"
                )
            self._entries = self._read()
            logger.info(
                "resuming checkpoint %s: %d completed point(s)",
                self.path, len(self._entries),
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _read(self) -> Dict[str, Dict]:
        """The journal's latest entry per key.

        A crash mid-append at worst tears the final line, and a flipped
        bit fails a line's checksum; either way that line is dropped
        with a warning and its point re-simulates.
        """
        try:
            lines = self.path.read_bytes().splitlines()
        except FileNotFoundError:
            return {}
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        entries: Dict[str, Dict] = {}
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            entry = _parse_line(line)
            if entry is None:
                logger.warning(
                    "journal %s line %d/%d is not an intact journal entry (a "
                    "crash mid-write truncates the last line, a flipped bit "
                    "fails its checksum); dropping it, the point will be "
                    "re-simulated", self.path, number, len(lines),
                )
                continue
            entries[entry["key"]] = entry
        return entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self._entries.values())

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
    def record(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict:
        """Journal one finished point (successful or exhausted).

        The line is fsynced before this returns; a storage failure
        (``ENOSPC``, ``EIO``) raises :class:`CheckpointError`.
        """
        entry = {
            "key": self.key(params),
            "version": self.version,
            "params": params,
            "status": status,
            "rows": rows if rows is not None else [],
            "attempts": attempts,
            "duration": duration,
            "error": error,
        }
        try:
            append_line(self.path, _journal_line(entry))
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to checkpoint {self.path}: {exc}"
            ) from exc
        self._entries[entry["key"]] = entry
        return entry

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
                line for line in self.path.read_bytes().splitlines() if line.strip()
            ]
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc

        keep = {
            key: entry
            for key, entry in self._entries.items()
            if not (drop_failed and entry.get("status") != "ok")
        }
        text = "".join(_journal_line(entry) + "\n" for entry in keep.values())
        try:
            atomic_write_text(self.path, text)
        except OSError as exc:
            raise CheckpointError(
                f"cannot rewrite checkpoint {self.path}: {exc}"
            ) from exc
        self._entries = keep
        return len(raw_lines) - len(keep)
