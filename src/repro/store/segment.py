"""Columnar sweep-ledger segments: struct-packed, checksummed, mmap'd.

One *segment* is the durable unit of the sweep ledger
(:mod:`repro.store.ledger`): a batch of completed grid-point journal
entries flattened into fixed-schema columnar arrays and sealed into a
single self-verifying file.  The wire format is stdlib ``struct`` +
raw little-endian numpy buffers, so a reader can memory-map the file
and hand out **zero-copy** ``numpy`` views of any column — which is
what makes ledger-wide pareto/group-by queries cheap.

Wire format (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RSG1"
    4       2     format version (u16) — readers reject any other
    6       2     reserved flags (u16, zero)
    8       4     header length H (u32)
    12      H     header JSON (utf-8; schema below)
    ...           column blobs, each 8-byte aligned, in header order
    EOF-36  32    SHA-256 of every preceding byte
    EOF-4   4     footer magic b"RSGE"

A torn write (truncation), a bit flip anywhere, or a stale format all
fail validation with :class:`~repro.errors.LedgerCorruptionError`; the
ledger quarantines such files and re-simulates exactly their points.

Header JSON schema::

    {"schema": 1, "version": "<package version>", "created_unix": ...,
     "rows": N,
     "columns": [{"name": ..., "dtype": "i8"|"f8"|"sd"|"js",
                  "offset": ..., ["dict": [...]]}, ...],
     "row_schemas": [["partitions", "array", "cycles", ...], ...],
     "entries": [{"key": ..., "version": ..., "params": {...},
                  "status": ..., "attempts": ..., "duration": ...,
                  "error": ..., "row_start": ..., "row_schema_ids":
                  [...]}, ...]}

Column encodings — chosen per column from the values it actually holds
so every journal value round-trips **exactly**:

* ``i8`` — int64 (all values are non-bool ints within int64 range),
* ``f8`` — float64 (all values are floats; NaN/inf included),
* ``sd`` — dictionary-encoded strings: int32 codes into the header's
  per-column string table (first-seen order),
* ``js`` — the total fallback: int32 codes into a table of JSON
  encodings (bools, ``None``, lists, mixed-type columns, ints beyond
  int64).  ``json.dumps``/``loads`` round-trips match the JSONL
  checkpoint journal byte for byte, which is what makes ledger reads
  byte-identical to journal replays.

A slot a row's schema does not name is dead (0 / NaN / code -1) and is
never read back.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._version import __version__
from repro.errors import LedgerCorruptionError
from repro.utils.atomicio import atomic_write_bytes

MAGIC = b"RSG1"
FOOTER_MAGIC = b"RSGE"
FORMAT_VERSION = 1

#: Segment header schema version (inside the JSON header).
SEGMENT_SCHEMA = 1

_PREAMBLE = struct.Struct("<4sHHI")  # magic, version, flags, header length
_CHECKSUM_LEN = 32
_FOOTER_LEN = _CHECKSUM_LEN + len(FOOTER_MAGIC)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _classify(values: Sequence[object]) -> str:
    """The narrowest column encoding that round-trips every value."""
    kind = None
    for value in values:
        if isinstance(value, bool):
            return "js"
        if isinstance(value, int):
            if not (_INT64_MIN <= value <= _INT64_MAX):
                return "js"
            this = "i8"
        elif isinstance(value, float):
            this = "f8"
        elif isinstance(value, str):
            this = "sd"
        else:
            return "js"
        if kind is None:
            kind = this
        elif kind != this:
            return "js"
    return kind or "js"


def _json_cell(value: object) -> str:
    # default=repr mirrors the JSONL checkpoint journal's encoder, so a
    # value the journal would coerce to its repr coerces identically here.
    return json.dumps(value, default=repr)


@dataclass(frozen=True)
class _Column:
    name: str
    dtype: str
    offset: int
    dictionary: Optional[List[str]] = None


def encode_segment(entries: Sequence[Dict], version: Optional[str] = None) -> bytes:
    """Serialize journal ``entries`` into one sealed segment's bytes.

    Each entry is a checkpoint-journal dict (``key``/``params``/
    ``status``/``rows``/``attempts``/``duration``/``error`` and
    optionally ``version``); ``decode``/:meth:`Segment.entries` invert
    this losslessly.
    """
    if not entries:
        raise ValueError("a segment needs at least one entry")
    default_version = version if version is not None else __version__

    # Flatten every row, remembering each row's own key order (its
    # schema) so reconstruction preserves per-row column ordering.
    flat_rows: List[Dict] = []
    row_schemas: List[Tuple[str, ...]] = []
    schema_ids: Dict[Tuple[str, ...], int] = {}
    header_entries: List[Dict] = []
    for entry in entries:
        rows = entry.get("rows") or []
        ids: List[int] = []
        for row in rows:
            schema = tuple(row.keys())
            if schema not in schema_ids:
                schema_ids[schema] = len(row_schemas)
                row_schemas.append(schema)
            ids.append(schema_ids[schema])
            flat_rows.append(row)
        header_entries.append(
            {
                "key": entry["key"],
                "version": entry.get("version", default_version),
                "params": entry.get("params", {}),
                "status": entry.get("status"),
                "attempts": entry.get("attempts", 1),
                "duration": entry.get("duration", 0.0),
                "error": entry.get("error"),
                "row_start": len(flat_rows) - len(rows),
                "row_schema_ids": ids,
            }
        )

    # Column order: first appearance across the flattened rows.
    column_names: List[str] = []
    for schema in row_schemas:
        for name in schema:
            if name not in column_names:
                column_names.append(name)

    rows_n = len(flat_rows)
    blobs: List[bytes] = []
    columns_meta: List[Dict] = []
    offset = 0  # relative to the start of the blob region; fixed up below
    for name in column_names:
        present = [row[name] for row in flat_rows if name in row]
        dtype = _classify(present)
        if dtype == "i8":
            array = np.zeros(rows_n, dtype="<i8")
            for i, row in enumerate(flat_rows):
                if name in row:
                    array[i] = row[name]
            blob = array.tobytes()
            meta: Dict = {"name": name, "dtype": "i8"}
        elif dtype == "f8":
            array = np.full(rows_n, np.nan, dtype="<f8")
            for i, row in enumerate(flat_rows):
                if name in row:
                    array[i] = row[name]
            blob = array.tobytes()
            meta = {"name": name, "dtype": "f8"}
        else:  # sd / js share the dictionary-coded shape
            table: Dict[str, int] = {}
            strings: List[str] = []
            codes = np.full(rows_n, -1, dtype="<i4")
            for i, row in enumerate(flat_rows):
                if name not in row:
                    continue
                text = row[name] if dtype == "sd" else _json_cell(row[name])
                code = table.get(text)
                if code is None:
                    code = table[text] = len(strings)
                    strings.append(text)
                codes[i] = code
            blob = codes.tobytes()
            meta = {"name": name, "dtype": dtype, "dict": strings}
        aligned = _align8(offset)
        blobs.append(b"\x00" * (aligned - offset) + blob)
        meta["offset"] = aligned
        columns_meta.append(meta)
        offset = aligned + len(blob)

    header = {
        "schema": SEGMENT_SCHEMA,
        "version": default_version,
        "created_unix": round(time.time(), 3),
        "rows": rows_n,
        "columns": columns_meta,
        "row_schemas": [list(schema) for schema in row_schemas],
        "entries": header_entries,
    }
    header_bytes = json.dumps(
        header, separators=(",", ":"), default=repr
    ).encode("utf-8")

    preamble = _PREAMBLE.pack(MAGIC, FORMAT_VERSION, 0, len(header_bytes))
    # Align the blob region itself so per-column offsets stay 8-aligned
    # in the file (numpy tolerates misalignment; alignment keeps views
    # fast and the layout easy to reason about in a hex dump).
    blob_start = _align8(len(preamble) + len(header_bytes))
    padding = b"\x00" * (blob_start - len(preamble) - len(header_bytes))
    body = b"".join([preamble, header_bytes, padding, *blobs])
    checksum = hashlib.sha256(body).digest()
    return body + checksum + FOOTER_MAGIC


def write_segment(
    path: Union[str, Path],
    entries: Sequence[Dict],
    version: Optional[str] = None,
) -> "SegmentInfo":
    """Atomically publish ``entries`` as a sealed segment at ``path``.

    Uses the temp-file + fsync + rename pattern of
    :mod:`repro.utils.atomicio`, so a crash at any instant leaves either
    no segment or a complete one — never a torn file (bit rot is caught
    at read time by the embedded checksum instead).
    """
    payload = encode_segment(entries, version=version)
    path = Path(path)
    atomic_write_bytes(path, payload)
    digest = hashlib.sha256(payload).hexdigest()
    rows = sum(len(entry.get("rows") or []) for entry in entries)
    return SegmentInfo(
        name=path.name, sha256=digest, rows=rows, entries=len(entries),
        size_bytes=len(payload),
    )


@dataclass(frozen=True)
class SegmentInfo:
    """What the manifest WAL records about one sealed segment."""

    name: str
    sha256: str
    rows: int
    entries: int
    size_bytes: int


class Segment:
    """One sealed segment, memory-mapped and verified.

    ``column(name)`` returns a zero-copy numpy view into the mapping
    for numeric columns (int64/float64) and the raw int32 code view for
    dictionary columns; ``values(name)`` materializes python objects;
    ``entries()`` reconstructs the original journal entries exactly.
    """

    def __init__(self, path: Union[str, Path], verify: bool = True):
        self.path = Path(path)
        try:
            self._file = self.path.open("rb")
        except OSError as exc:
            raise LedgerCorruptionError(
                exc.errno or 0, f"cannot open segment: {exc}", str(self.path)
            ) from exc
        try:
            self._mmap: Union[mmap.mmap, bytes]
            try:
                self._mmap = mmap.mmap(
                    self._file.fileno(), 0, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError):
                # Zero-length or unmappable file: fall back to a read —
                # validation below rejects it with a precise reason.
                self._mmap = self._file.read()
            self._parse(verify=verify)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _corrupt(self, reason: str) -> LedgerCorruptionError:
        return LedgerCorruptionError(0, reason, str(self.path))

    def _parse(self, verify: bool) -> None:
        buf = self._mmap
        size = len(buf)
        if size < _PREAMBLE.size + _FOOTER_LEN:
            raise self._corrupt(f"segment too short ({size} bytes)")
        magic, fmt, _flags, header_len = _PREAMBLE.unpack_from(buf, 0)
        if magic != MAGIC:
            raise self._corrupt(f"bad magic {magic!r}")
        if fmt != FORMAT_VERSION:
            raise self._corrupt(
                f"unsupported segment format {fmt} (want {FORMAT_VERSION})"
            )
        if bytes(buf[size - len(FOOTER_MAGIC):size]) != FOOTER_MAGIC:
            raise self._corrupt("missing footer magic (torn or truncated write)")
        body_end = size - _FOOTER_LEN
        recorded = bytes(buf[body_end:body_end + _CHECKSUM_LEN])
        if verify:
            computed = hashlib.sha256(buf[:body_end]).digest()
            if computed != recorded:
                raise self._corrupt(
                    f"checksum mismatch (recorded {recorded.hex()[:16]}..., "
                    f"computed {computed.hex()[:16]}...)"
                )
        header_start = _PREAMBLE.size
        if header_start + header_len > body_end:
            raise self._corrupt("header overruns the payload")
        try:
            header = json.loads(
                bytes(buf[header_start:header_start + header_len]).decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise self._corrupt(f"unparsable header ({exc})") from exc
        if not isinstance(header, dict) or header.get("schema") != SEGMENT_SCHEMA:
            raise self._corrupt(
                f"stale header schema {header.get('schema')!r} "
                f"(want {SEGMENT_SCHEMA})"
            )
        self.sha256 = recorded.hex()
        self.version: str = header.get("version", "")
        self.rows: int = int(header.get("rows", 0))
        self._row_schemas: List[List[str]] = header.get("row_schemas", [])
        self._entries_meta: List[Dict] = header.get("entries", [])
        self._blob_start = _align8(header_start + header_len)
        self._body_end = body_end
        self._columns: Dict[str, _Column] = {}
        for meta in header.get("columns", []):
            column = _Column(
                name=meta["name"],
                dtype=meta["dtype"],
                offset=int(meta["offset"]),
                dictionary=meta.get("dict"),
            )
            self._columns[column.name] = column
        # Bounds-check every column before handing out views.
        for column in self._columns.values():
            itemsize = 8 if column.dtype in ("i8", "f8") else 4
            end = self._blob_start + column.offset + itemsize * self.rows
            if end > body_end:
                raise self._corrupt(
                    f"column {column.name!r} overruns the payload"
                )
        self._cells: Dict[str, List[object]] = {}

    # ------------------------------------------------------------------
    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Zero-copy view of one column's storage array.

        ``i8``/``f8`` columns view the payload directly; ``sd``/``js``
        columns return their int32 code array (pair with
        :meth:`dictionary` or use :meth:`values`).
        """
        column = self._columns[name]
        dtype = {"i8": "<i8", "f8": "<f8"}.get(column.dtype, "<i4")
        return np.frombuffer(
            self._mmap,
            dtype=dtype,
            count=self.rows,
            offset=self._blob_start + column.offset,
        )

    def dictionary(self, name: str) -> Optional[List[str]]:
        return self._columns[name].dictionary

    def dtype(self, name: str) -> str:
        return self._columns[name].dtype

    def values(self, name: str) -> List[object]:
        """Materialized python values of one column (dead slots ``None``)."""
        column = self._columns[name]
        raw = self.column(name)
        if column.dtype == "i8":
            return [int(v) for v in raw]
        if column.dtype == "f8":
            return [float(v) for v in raw]
        table = column.dictionary or []
        if column.dtype == "sd":
            return [table[code] if code >= 0 else None for code in raw]
        return [json.loads(table[code]) if code >= 0 else None for code in raw]

    def _cell_column(self, name: str) -> List[object]:
        cached = self._cells.get(name)
        if cached is None:
            cached = self._cells[name] = self.values(name)
        return cached

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def presence(self, name: str) -> np.ndarray:
        """Boolean mask of rows whose schema actually names ``name``."""
        mask = np.zeros(self.rows, dtype=bool)
        schema_has = [name in schema for schema in self._row_schemas]
        for entry in self._entries_meta:
            start = entry["row_start"]
            for i, schema_id in enumerate(entry["row_schema_ids"]):
                if schema_has[schema_id]:
                    mask[start + i] = True
        return mask

    # ------------------------------------------------------------------
    def row(self, index: int, schema_id: int) -> Dict:
        schema = self._row_schemas[schema_id]
        return {name: self._cell_column(name)[index] for name in schema}

    def entries(self) -> List[Dict]:
        """The original journal entries, reconstructed exactly."""
        out = []
        for meta in self._entries_meta:
            out.append(self.entry(meta))
        return out

    def entry(self, meta: Dict) -> Dict:
        start = meta["row_start"]
        rows = [
            self.row(start + i, schema_id)
            for i, schema_id in enumerate(meta["row_schema_ids"])
        ]
        return {
            "key": meta["key"],
            "version": meta["version"],
            "params": meta["params"],
            "status": meta["status"],
            "rows": rows,
            "attempts": meta["attempts"],
            "duration": meta["duration"],
            "error": meta["error"],
        }

    def entry_metas(self) -> List[Dict]:
        """Lightweight per-entry header dicts (no row materialization)."""
        return list(self._entries_meta)

    def keys(self) -> List[str]:
        return [meta["key"] for meta in self._entries_meta]

    # ------------------------------------------------------------------
    def close(self) -> None:
        if isinstance(getattr(self, "_mmap", None), mmap.mmap):
            try:
                self._mmap.close()
            except OSError:  # pragma: no cover - platform quirk
                pass
        if getattr(self, "_file", None) is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._entries_meta)
