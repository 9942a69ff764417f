"""Crash-safe columnar sweep ledger with incremental re-sweep.

The checkpoint journal (:mod:`repro.robust.checkpoint`) made sweeps
resumable; this module makes their results *durable at scale*.  A
:class:`SweepLedger` is a drop-in journal for
:func:`repro.robust.executor.execute_grid` — same ``key`` / ``get`` /
``completed`` / ``record`` protocol, same :func:`~repro.robust
.checkpoint.point_key` content hash — that batches completed grid
points into sealed, checksummed columnar segments
(:mod:`repro.store.segment`) instead of keeping everything as one
ever-growing JSONL file.

Layout (one directory per ledger)::

    <root>/
      manifest.wal            append-only JSONL WAL of seals/quarantines
      active.jsonl            fsynced journal of not-yet-sealed entries
      lock                    flock target serializing writers
      segments/seg-NNNNNN.seg sealed columnar segments
      corrupt/                quarantined segments (evidence preserved)

Every :meth:`~SweepLedger.record` is fsynced into ``active.jsonl``
through a :class:`~repro.robust.checkpoint.CheckpointStore` — that file
*is* the checkpoint journal, scoped to the unsealed tail — and every
``segment_entries`` records the tail seals into a segment.  The
durability contract (shared with the checkpoint journal) and the writer
model for ledgers sharing a root are in ``docs/robustness.md``.

Incremental re-sweep
--------------------
Entries are keyed by the SHA-256 of their full parameter dict plus the
package version (:func:`~repro.robust.checkpoint.point_key`), so a
re-opened ledger knows exactly which points of a requested grid are
already priced under the current code: :meth:`~SweepLedger.diff_grid`
partitions a grid into reused and pending points, and passing the
ledger to ``run_sweep(ledger=..., incremental=True)`` (CLI: ``repro
sweep --ledger ... --incremental`` or ``repro resweep``) simulates only
the new / invalidated / quarantined points.  Changing an axis value or
upgrading the package changes the key, which invalidates exactly the
affected points.

Reads are cheap: sealed segments are memory-mapped and column queries
(:meth:`numeric_column`, :meth:`pareto`, :meth:`group_by`) slice
zero-copy numpy views per segment, which is what lets ``repro stats``
and :func:`repro.analytical.search.pareto_front` chew through large
ledgers without materializing rows.

Observability: ``ledger.entries`` / ``ledger.rows`` / ``ledger.sealed``
/ ``ledger.reused`` / ``ledger.quarantined`` / ``ledger.recovered`` /
``ledger.errors`` counters and the ``ledger.degraded`` gauge mirror
into :mod:`repro.obs.metrics`; local counts are always in
:meth:`SweepLedger.status`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import threading
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.errors import (
    CheckpointError,
    LedgerCorruptionError,
    StorageError,
    StoreCorruptionError,
)
from repro.robust.checkpoint import CheckpointStore, point_key
from repro.store.durable import DurableRoot
from repro.store.segment import Segment, encode_segment
from repro.utils.atomicio import atomic_write_bytes, fsync_directory

logger = logging.getLogger("repro.store.ledger")

#: Entries buffered in ``active.jsonl`` before sealing a segment.
DEFAULT_SEGMENT_ENTRIES = 256

#: Test-only fault hook: when this environment variable names one of
#: the publish pipeline's crash points (``after-record``,
#: ``before-segment-publish``, ``mid-segment-publish``,
#: ``after-segment-before-manifest``, ``after-manifest-before-
#: truncate``), the process dies with ``os._exit(137)`` at that point —
#: ``mid-segment-publish`` first plants a torn half-written segment at
#: the final path, simulating a filesystem that lost the tail.  The
#: crash-drill tests and ``examples/ledger_smoke.py`` drive recovery
#: through every one of these.
CRASH_POINT_ENV = "REPRO_LEDGER_CRASH_POINT"

MODE_COLUMNAR = "columnar"
MODE_JOURNAL = "journal-only"
MODE_MEMORY = "memory-only"
_MODES = (MODE_COLUMNAR, MODE_JOURNAL, MODE_MEMORY)

_SEGMENT_NAME = re.compile(r"seg-(\d+)\.seg")

_AGGREGATES = {
    "min": min,
    "max": max,
    "sum": sum,
    "mean": lambda values: sum(values) / len(values),
    "count": len,
}


class _SegmentEntry:
    """Lazy reference to one entry living in a sealed segment."""

    __slots__ = ("segment", "meta")

    def __init__(self, segment: Segment, meta: Dict):
        self.segment = segment
        self.meta = meta

    def get(self, name: str, default: object = None) -> object:
        """Header fields (``status``, ``key``, ...) without decoding rows."""
        return self.meta.get(name, default)


@dataclass(frozen=True)
class LedgerDiff:
    """A requested grid split against the ledger's completed set."""

    reused: List[Dict] = field(default_factory=list)
    pending: List[Dict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.reused) + len(self.pending)

    def describe(self) -> str:
        return (
            f"{len(self.reused)}/{self.total} point(s) reused from the "
            f"ledger, {len(self.pending)} to simulate"
        )


class SweepLedger:
    """Durable columnar sink for sweep results, rooted at a directory.

    Satisfies the :class:`~repro.robust.checkpoint.PointJournal`
    protocol, so any ``checkpoint=`` site (``execute_grid``,
    ``run_sweep``) accepts a ledger unchanged.
    Thread-safe; ``docs/robustness.md`` has the writer model.
    """

    def __init__(
        self,
        root: Union[str, Path],
        version: Optional[str] = None,
        segment_entries: int = DEFAULT_SEGMENT_ENTRIES,
        writable: bool = True,
    ):
        if segment_entries < 1:
            raise ValueError(f"segment_entries must be >= 1, got {segment_entries}")
        self.root = Path(root)
        self.version = version if version is not None else __version__
        self.segment_entries = segment_entries
        self.segments_dir = self.root / "segments"
        self.active_path = self.root / "active.jsonl"
        self._durable = DurableRoot(
            self.root,
            kind="sweep ledger",
            prefix="ledger",
            field="segment",
            modes=_MODES,
            counters=("entries", "rows", "sealed", "reused"),
            writable=writable,
            logger=logger,
        )
        self.corrupt_dir = self._durable.corrupt_dir
        self.manifest_path = self._durable.manifest_path
        self._mutex = threading.RLock()
        self._entries: Dict[str, Union[Dict, _SegmentEntry]] = {}
        self._active: List[Dict] = []
        self._segments: Dict[str, Segment] = {}
        self._next_segment = 0
        if writable:
            self._durable.create(self.segments_dir)
        self._recover()
        #: Keys that were already durable when this process opened the
        #: ledger — a ``get`` hit on one of them is a cross-run reuse.
        self._loaded_keys = frozenset(self._entries)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _maybe_crash(
        self, point: str, torn: Optional[Tuple[Path, bytes]] = None
    ) -> None:
        """Die mid-pipeline when the crash-drill env hook names ``point``."""
        if os.environ.get(CRASH_POINT_ENV) != point:
            return
        if torn is not None:
            path, payload = torn
            try:
                with open(path, "wb") as handle:
                    handle.write(payload[: max(1, len(payload) // 2)])
            except OSError:  # pragma: no cover - the drill still crashes
                pass
        os._exit(137)

    def _note_segment_name(self, name: str) -> None:
        match = _SEGMENT_NAME.fullmatch(name)
        if match:
            self._next_segment = max(self._next_segment, int(match.group(1)) + 1)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Repair after a crash (run at every open): reconcile the sealed
        segments against the manifest, then re-buffer the unsealed tail
        with already-sealed duplicates dropped."""
        for path in self.quarantined():
            self._note_segment_name(path.name.split(".seg")[0] + ".seg")
        self._durable.reconcile(
            # Segment temps, plus the temp of an interrupted tail cut.
            chain(self.segments_dir.glob(".*.tmp"), self.root.glob(".*.tmp")),
            self._load_segments(),
            op="seal",
        )
        try:
            self._tail = CheckpointStore(self.active_path, version=self.version)
        except CheckpointError as exc:
            raise StoreCorruptionError(
                f"cannot read the journal of sweep ledger {self.root}: {exc}"
            ) from exc
        for entry in self._tail.lines:
            sealed = self._entries.get(entry["key"])
            if isinstance(sealed, _SegmentEntry) and self._same_entry(sealed, entry):
                # A crash between the manifest append and the tail cut
                # leaves sealed entries behind in the tail; the sealed
                # copy is durable, skip the duplicate.
                continue
            self._entries[entry["key"]] = entry
            self._active.append(entry)

    def _load_segments(self) -> Iterator[Tuple[str, Dict]]:
        """Verify and index every sealed segment, quarantining corrupt
        ones; yields the sound ones for the manifest reconcile."""
        for path in self.segments():
            self._note_segment_name(path.name)
            try:
                segment = Segment(path)
            except LedgerCorruptionError as exc:
                self._durable.quarantine(path, path.name, str(exc))
                continue
            self._segments[path.name] = segment
            for meta in segment.entry_metas():
                self._entries[meta["key"]] = _SegmentEntry(segment, meta)
            yield path.name, {"sha256": segment.sha256}

    @staticmethod
    def _same_entry(sealed: _SegmentEntry, entry: Dict) -> bool:
        try:
            return sealed.segment.entry(sealed.meta) == entry
        except Exception:  # pragma: no cover - defensive: prefer re-seal
            return False

    # ------------------------------------------------------------------
    # PointJournal protocol (checkpoint-compatible)
    # ------------------------------------------------------------------
    def key(self, params: Dict) -> str:
        return point_key(params, self.version)

    def _materialize(self, key: str) -> Optional[Dict]:
        entry = self._entries.get(key)
        if isinstance(entry, _SegmentEntry):
            entry = entry.segment.entry(entry.meta)
            self._entries[key] = entry
        return entry

    def get(self, params: Dict) -> Optional[Dict]:
        """The ledger entry for ``params``, or ``None`` if never recorded."""
        key = self.key(params)
        with self._mutex:
            entry = self._materialize(key)
        if entry is not None and key in self._loaded_keys:
            self._durable.count("reused")
        return entry

    def completed(self, params: Dict) -> bool:
        """True when ``params`` already finished successfully (status ok)."""
        entry = self._entries.get(self.key(params))
        return entry is not None and entry.get("status") == "ok"

    @property
    def completed_count(self) -> int:
        return sum(entry.get("status") == "ok" for entry in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Dict]:
        for key in list(self._entries):
            entry = self._materialize(key)
            if entry is not None:
                yield entry

    def record(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict:
        """Durably journal one finished point (successful or exhausted).

        The entry is fsynced into ``active.jsonl`` before this returns;
        every ``segment_entries`` records the buffer seals into a
        columnar segment.  Storage failures degrade the ledger instead
        of failing the sweep.
        """
        if not self.writable:
            raise StoreCorruptionError(
                f"sweep ledger {self.root} was opened read-only"
            )
        entry = self._tail.entry(params, status, rows, attempts, duration, error)
        with self._mutex:
            if self.mode != MODE_MEMORY:
                try:
                    # Under the flock: a seal cutting the shared tail
                    # must see every line appended before it.
                    with self._durable.lock():
                        self._tail.append(entry)
                except CheckpointError as exc:
                    self._durable.degrade(
                        MODE_MEMORY, f"active journal append failed: {exc}"
                    )
                self._maybe_crash("after-record")
            self._entries[entry["key"]] = entry
            self._active.append(entry)
            self._durable.count("entries")
            self._durable.count("rows", len(entry["rows"]))
            if self.mode == MODE_COLUMNAR and len(self._active) >= self.segment_entries:
                self._seal_locked()
        return entry

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def flush(self) -> Optional[str]:
        """Seal any buffered entries into a (possibly short) segment.

        Returns the new segment's name, or ``None`` when there was
        nothing to seal or the ledger is degraded past columnar mode
        (the entries stay durable in ``active.jsonl`` either way).
        """
        with self._mutex:
            return self._seal_locked()

    def _seal_locked(self) -> Optional[str]:
        if not self._active or not self._durable.durable:
            return None
        entries = len(self._active)
        rows = sum(len(entry.get("rows") or []) for entry in self._active)
        try:
            payload = encode_segment(self._active, version=self.version)
            with self._durable.lock():
                # Named under the flock: another writer sharing the root
                # may have sealed since this ledger last looked.
                for existing in self.segments():
                    self._note_segment_name(existing.name)
                name = f"seg-{self._next_segment:06d}.seg"
                path = self.segments_dir / name
                self._maybe_crash("before-segment-publish")
                self._maybe_crash("mid-segment-publish", torn=(path, payload))
                atomic_write_bytes(path, payload)
                fsync_directory(self.segments_dir)
                self._maybe_crash("after-segment-before-manifest")
                self._durable.append_manifest({
                    "op": "seal",
                    "segment": name,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                    "entries": entries,
                    "rows": rows,
                })
                self._maybe_crash("after-manifest-before-truncate")
                try:
                    self._tail.release()
                except CheckpointError as exc:
                    # Benign: the sealed copies dedup the stale tail at
                    # the next open.  Don't degrade a ledger that just
                    # sealed fine.
                    logger.warning("cannot cut %s: %s", self.active_path, exc)
        except (StorageError, OSError) as exc:
            self._durable.degrade(MODE_JOURNAL, f"segment publish failed: {exc}")
            return None
        self._durable.count("sealed")
        try:
            self._segments[name] = Segment(path)
        except LedgerCorruptionError as exc:  # pragma: no cover - just sealed
            logger.warning("freshly sealed segment %s unreadable: %s", name, exc)
        self._active = []
        return name

    def close(self) -> None:
        """Seal the buffered tail (writable ledgers) and unmap segments."""
        with self._mutex:
            if self.writable:
                self._seal_locked()
            for segment in self._segments.values():
                segment.close()
            self._segments = {}
            # Drop lazy refs into the now-closed mmaps.
            self._entries = {
                key: entry
                for key, entry in self._entries.items()
                if not isinstance(entry, _SegmentEntry)
            }

    def __enter__(self) -> "SweepLedger":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Incremental re-sweep
    # ------------------------------------------------------------------
    def diff_grid(self, points: Sequence[Dict]) -> LedgerDiff:
        """Split a requested grid into reused and to-simulate points.

        A point is *reused* when its content key (params + version) is
        already completed here; everything else — brand-new points,
        points whose parameters or package version changed, and points
        lost to a quarantined segment — is *pending*.
        """
        diff = LedgerDiff()
        for params in points:
            (diff.reused if self.completed(params) else diff.pending).append(params)
        return diff

    # ------------------------------------------------------------------
    # Column queries (zero-copy over sealed segments)
    # ------------------------------------------------------------------
    def _layout(
        self, statuses: Tuple[str, ...]
    ) -> List[Tuple[Optional[Segment], object, Optional[Dict]]]:
        """Chunks covering every live row: per-segment index arrays for
        sealed entries (sliced zero-copy) and raw row lists for the
        unsealed tail, in stable entry order."""
        chunks: List[Tuple[Optional[Segment], object, Optional[Dict]]] = []
        for entry in self._entries.values():
            if entry.get("status") not in statuses:
                continue
            if isinstance(entry, _SegmentEntry):
                meta = entry.meta
                count = len(meta.get("row_schema_ids") or ())
                if count:
                    start = meta["row_start"]
                    chunks.append(
                        (entry.segment, np.arange(start, start + count), meta)
                    )
            else:
                rows = entry.get("rows") or []
                if rows:
                    chunks.append((None, rows, None))
        return chunks

    @staticmethod
    def _as_float(value: object) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return float("nan")
        return float(value)

    def rows(self, statuses: Tuple[str, ...] = ("ok",)) -> List[Dict]:
        """Materialized result rows, aligned with the column queries."""
        out: List[Dict] = []
        for segment, selection, meta in self._layout(statuses):
            if segment is None:
                out.extend(selection)  # type: ignore[arg-type]
            else:
                start = meta["row_start"]
                for offset, schema_id in enumerate(meta["row_schema_ids"]):
                    out.append(segment.row(start + offset, schema_id))
        return out

    def numeric_column(
        self, name: str, statuses: Tuple[str, ...] = ("ok",)
    ) -> np.ndarray:
        """One column as float64, NaN where a row lacks it.

        Sealed segments contribute via zero-copy mmap views
        (:meth:`repro.store.segment.Segment.column`) sliced per entry;
        only the unsealed tail is assembled row by row.
        """
        parts: List[np.ndarray] = []
        for segment, selection, _meta in self._layout(statuses):
            if segment is None:
                parts.append(
                    np.array(
                        [self._as_float(row.get(name)) for row in selection],
                        dtype="<f8",
                    )
                )
            elif segment.has_column(name) and segment.dtype(name) in ("i8", "f8"):
                view = segment.column(name)[selection]
                present = segment.presence(name)[selection]
                values = view.astype("<f8")
                values[~present] = np.nan
                parts.append(values)
            else:
                cells = (
                    segment.values(name) if segment.has_column(name) else None
                )
                parts.append(
                    np.array(
                        [
                            self._as_float(cells[i]) if cells else float("nan")
                            for i in selection
                        ],
                        dtype="<f8",
                    )
                )
        if not parts:
            return np.zeros(0, dtype="<f8")
        return np.concatenate(parts)

    def values_column(
        self, name: str, statuses: Tuple[str, ...] = ("ok",)
    ) -> List[object]:
        """One column as python objects, ``None`` where a row lacks it."""
        out: List[object] = []
        for segment, selection, _meta in self._layout(statuses):
            if segment is None:
                out.extend(row.get(name) for row in selection)
            elif segment.has_column(name):
                cells = segment.values(name)
                present = segment.presence(name)
                out.extend(
                    cells[i] if present[i] else None for i in selection
                )
            else:
                out.extend(None for _ in selection)
        return out

    def pareto(
        self,
        minimize: Sequence[str] = (),
        maximize: Sequence[str] = (),
        statuses: Tuple[str, ...] = ("ok",),
    ) -> List[Dict]:
        """Rows on the pareto front of the named objective columns."""
        from repro.analytical.search import pareto_front

        names = list(minimize) + list(maximize)
        if not names:
            raise ValueError("pareto needs at least one objective column")
        columns = [self.numeric_column(name, statuses) for name in minimize]
        columns += [-self.numeric_column(name, statuses) for name in maximize]
        matrix = np.column_stack(columns) if columns else np.zeros((0, 0))
        if matrix.shape[0] == 0:
            return []
        valid = ~np.isnan(matrix).any(axis=1)
        candidates = np.nonzero(valid)[0]
        if candidates.size == 0:
            return []
        front = pareto_front(matrix[candidates])
        chosen = set(int(candidates[i]) for i in front)
        rows = self.rows(statuses)
        return [row for index, row in enumerate(rows) if index in chosen]

    def group_by(
        self,
        key: str,
        value: str,
        agg: str = "min",
        statuses: Tuple[str, ...] = ("ok",),
    ) -> Dict:
        """Aggregate ``value`` per distinct ``key`` (min/max/mean/sum/count)."""
        if agg not in _AGGREGATES:
            raise ValueError(
                f"unknown aggregate {agg!r}; pick one of {sorted(_AGGREGATES)}"
            )
        keys = self.values_column(key, statuses)
        values = self.numeric_column(value, statuses)
        groups: Dict[object, List[float]] = {}
        for group, cell in zip(keys, values):
            if group is None or np.isnan(cell):
                continue
            groups.setdefault(group, []).append(float(cell))
        reduce = _AGGREGATES[agg]
        return {group: reduce(cells) for group, cells in groups.items()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def writable(self) -> bool:
        return self._durable.writable

    @property
    def mode(self) -> str:
        return self._durable.mode

    @property
    def degraded_reason(self) -> Optional[str]:
        return self._durable.degraded_reason

    def segments(self) -> List[Path]:
        return sorted(self.segments_dir.glob("seg-*.seg"))

    def quarantined(self) -> List[Path]:
        if not self.corrupt_dir.is_dir():
            return []
        return sorted(p for p in self.corrupt_dir.iterdir() if p.is_file())

    def status(self) -> Dict:
        """Health snapshot for the CLI, ``/health`` and tests."""
        with self._mutex:
            counts = self._durable.counts()
            pending = len(self._active)
        return {
            "root": str(self.root),
            "version": self.version,
            "mode": self.mode,
            "degraded_reason": self.degraded_reason,
            "entries": len(self._entries),
            "completed": self.completed_count,
            "segments": len(self.segments()),
            "corrupt": len(self.quarantined()),
            "pending": pending,
            "counters": counts,
        }
