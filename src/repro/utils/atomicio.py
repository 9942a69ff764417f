"""Crash-safe file primitives shared by every durable file in the package.

Whole files are replaced atomically (:func:`atomic_write_bytes`: temp
file in the destination directory + fsync + ``os.replace``, so a crash
at any instant leaves the old complete file or the new one); journals
grow by fsynced lines (:func:`append_line`) read back by
:func:`iter_json_lines`, which drops the torn final line a crash
mid-append leaves; :func:`flock` and :func:`move_to_corrupt` are the
writer lock and the quarantine move of a durable directory.  See
``docs/robustness.md`` for the contract built on them.

Medium failures on the whole-file path (``ENOSPC``, ``EIO``, a vanished
directory) unlink the temp file and raise a typed
:class:`~repro.errors.StorageError`, which subclasses ``OSError`` so
existing ``except OSError`` guards keep catching it.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

try:  # pragma: no cover - fcntl is stdlib on POSIX, absent on Windows
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.errors import StorageError

#: errno values that mean "the medium failed", worth calling out by name.
_MEDIUM_ERRNOS = {
    errno.ENOSPC: "no space left on device",
    getattr(errno, "EDQUOT", -1): "disk quota exceeded",
    errno.EIO: "I/O error",
}


def _storage_error(action: str, path: Path, exc: OSError) -> StorageError:
    """Wrap an ``OSError`` from the write path as a typed StorageError.

    Built through ``OSError``'s three-argument form so ``errno`` /
    ``strerror`` / ``filename`` are all populated *and* rendered —
    assigning them after a one-argument init would make ``str()`` drop
    the message entirely.
    """
    detail = _MEDIUM_ERRNOS.get(exc.errno or 0)
    reason = detail if detail else (exc.strerror or str(exc))
    return StorageError(exc.errno or 0, f"cannot {action}: {reason}", str(path))


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> Path:
    """Durably replace ``path``'s contents with binary ``payload``.

    The write is all-or-nothing: readers only ever observe the previous
    complete contents or the new complete contents.  The temporary file
    is cleaned up on failure — including ``ENOSPC``/``EIO``, which
    surface as :class:`~repro.errors.StorageError` — and the original
    file (if any) is left untouched.
    """
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
        )
    except OSError as exc:
        raise _storage_error("create temp file beside", path, exc) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as failure:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(failure, OSError) and not isinstance(failure, StorageError):
            raise _storage_error("write", path, failure) from failure
        raise
    return path


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """:func:`atomic_write_bytes` of ``text`` encoded as UTF-8."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Union[str, Path], payload: object, indent: int = 2) -> Path:
    """Serialize ``payload`` as JSON and atomically write it to ``path``."""
    return atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def fsync_directory(path: Union[str, Path]) -> None:
    """Flush a directory's entry table (best effort on exotic platforms).

    After ``os.replace`` lands a file, the *directory* entry itself may
    still live only in the page cache; a power loss could forget the
    rename.  The sweep ledger fsyncs its segments directory after each
    seal so a sealed segment survives anything short of media failure.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directory fsync unsupported
        pass
    finally:
        os.close(fd)


def append_line(path: Union[str, Path], line: str) -> None:
    """Append ``line`` plus a newline to ``path`` and fsync it.

    Once this returns the line survives a crash (and, once the file's
    directory entry is durable, a power loss); a crash *during* the call
    at worst leaves a torn final line, which :func:`iter_json_lines`
    drops.  A torn line left by an earlier crash is terminated first,
    so the new line never glues onto it.  ``OSError`` propagates
    unchanged so each journal can apply its own failure policy.
    """
    payload = (line + "\n").encode("utf-8")
    with Path(path).open("ab+") as handle:
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                payload = b"\n" + payload
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())


def iter_json_lines(
    text: str,
    source: Union[str, Path],
    field: str = "key",
    logger: Optional[logging.Logger] = None,
) -> Iterator[Dict]:
    """Yield each line of ``text`` that is a JSON object with a string ``field``.

    A crash mid-append at worst truncates the final line, and unrelated
    junk must not poison a replay: damaged lines are skipped, and
    reported to ``logger`` when one is given.  Point journals pass one
    (the dropped point re-simulates); manifests do not, because their
    readers reconcile against the files they describe.
    """
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            entry = None
        if not isinstance(entry, dict) or not isinstance(entry.get(field), str):
            if logger is not None:
                logger.warning(
                    "journal %s line %d/%d is not a journal entry (a crash "
                    "mid-write truncates the last line); dropping it, the "
                    "point will be re-simulated", source, number, len(lines),
                )
            continue
        yield entry


@contextmanager
def flock(path: Union[str, Path]) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``path`` (best effort without fcntl).

    The lock belongs to the open file description, so it serializes
    threads of one process as well as separate processes — and a holder
    must not take it again.  If the lock file cannot be opened the body
    runs unlocked, as on platforms without ``fcntl``.
    """
    try:
        handle = open(path, "a") if fcntl is not None else None
    except OSError:
        handle = None
    if handle is None:
        yield
        return
    with handle:  # closing the only descriptor releases the lock
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield


def move_to_corrupt(path: Path, corrupt_dir: Path, stem: str) -> Optional[Path]:
    """Move ``path`` to ``corrupt_dir/<stem>.<n>``, first free ``n``.

    Never raises: if the move fails the file is unlinked so it cannot
    be re-read, and failing that it is left behind (the next read
    re-detects it).  Returns where the evidence went, or ``None``.
    """
    destination: Optional[Path] = None
    for attempt in range(100):
        candidate = corrupt_dir / f"{stem}.{attempt}"
        if not candidate.exists():
            destination = candidate
            break
    try:
        corrupt_dir.mkdir(parents=True, exist_ok=True)
        if destination is None:
            raise OSError("quarantine namespace exhausted")
        os.replace(path, destination)
    except OSError:
        destination = None
        try:
            os.unlink(path)
        except OSError:
            pass
    return destination
