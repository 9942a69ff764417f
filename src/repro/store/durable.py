"""Bookkeeping of a durable directory: counters, degrade ladder, lock,
manifest and quarantine.

:class:`~repro.store.ledger.SweepLedger` owns one :class:`DurableRoot`
(composition keeps the ledger's own entry points defined on its class).
It applies the durability contract in ``docs/robustness.md`` to one
directory; the file-level primitives live in :mod:`repro.utils.atomicio`,
which :mod:`repro.robust.checkpoint` shares without importing this
package.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import StoreCorruptionError
from repro.obs import metrics
from repro.utils.atomicio import append_line, flock, iter_json_lines, move_to_corrupt


class DurableRoot:
    """Counters, degrade ladder, lock, manifest and quarantine of one directory.

    ``kind`` names the directory in messages ("sweep ledger"),
    ``prefix`` its metrics namespace and ``field`` the manifest key
    naming a published file ("segment"); a message calls one file
    ``<prefix> <field>``.  ``modes`` is the degrade ladder, most
    durable first; ``counters`` names the owner's own counters
    (``quarantined``, ``errors`` and ``recovered`` are kept here too).
    ``writable`` is how the directory was *opened* and never changes;
    degradation is tracked separately in :attr:`mode`.  Manifest lines
    are stamped with the writer's pid.
    """

    def __init__(
        self,
        root: Path,
        *,
        kind: str,
        prefix: str,
        field: str,
        modes: Sequence[str],
        counters: Sequence[str],
        writable: bool,
        logger: logging.Logger,
    ):
        if root.exists() and not root.is_dir():
            raise StoreCorruptionError(f"{kind} root {root} is not a directory")
        self.root = root
        self.kind = kind
        self.prefix = prefix
        self.field = field
        self.modes: Tuple[str, ...] = tuple(modes)
        self.mode = self.modes[0]
        self.degraded_reason: Optional[str] = None
        self.writable = writable
        self.logger = logger
        self.manifest_path = root / "manifest.wal"
        self.lock_path = root / "lock"
        self.corrupt_dir = root / "corrupt"
        self._mutex = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(
            (*counters, "quarantined", "errors", "recovered"), 0
        )

    def create(self, *dirs: Path) -> None:
        """Create the layout of a writable open (idempotent)."""
        try:
            for directory in (*dirs, self.corrupt_dir):
                directory.mkdir(parents=True, exist_ok=True)
            self.lock_path.touch(exist_ok=True)
        except OSError as exc:
            raise StoreCorruptionError(
                f"cannot initialize {self.kind} at {self.root}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Counters and the degrade ladder
    # ------------------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        with self._mutex:
            self._counts[name] += delta
        if metrics.enabled:
            metrics.counter(f"{self.prefix}.{name}").add(delta)

    def counts(self) -> Dict[str, int]:
        with self._mutex:
            return dict(self._counts)

    @property
    def durable(self) -> bool:
        """Opened writable and still on the top rung of the ladder."""
        return self.writable and self.mode == self.modes[0]

    def degrade(self, mode: str, reason: str) -> None:
        """Step down to ``mode``; the caller's work always completes."""
        self.count("errors")
        if self.modes.index(mode) <= self.modes.index(self.mode):
            return
        self.mode = mode
        self.degraded_reason = reason
        if metrics.enabled:
            metrics.gauge(f"{self.prefix}.degraded").set(self.modes.index(mode))
        self.logger.warning(
            "%s %s degraded to %s mode: %s", self.kind, self.root, mode, reason
        )

    # ------------------------------------------------------------------
    # Lock and manifest
    # ------------------------------------------------------------------
    def lock(self) -> ContextManager[None]:
        """The cross-process writer lock; a no-op for read-only opens."""
        return flock(self.lock_path) if self.writable else nullcontext()

    def append_manifest(self, entry: Dict) -> None:
        """Fsynced manifest append (raises ``OSError``); call under :meth:`lock`."""
        line = json.dumps({**entry, "pid": os.getpid()}, separators=(",", ":"))
        append_line(self.manifest_path, line)

    def manifest_ops(self) -> Dict[str, str]:
        """Latest manifest op per published name, tolerating a torn tail."""
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except OSError:
            return {}
        return {
            entry[self.field]: str(entry.get("op", ""))
            for entry in iter_json_lines(text, self.manifest_path, self.field)
        }

    # ------------------------------------------------------------------
    # Quarantine and recovery
    # ------------------------------------------------------------------
    def quarantine(self, path: Path, name: str, reason: str) -> Optional[Path]:
        """Move corrupt ``path`` to ``corrupt/<name>.<n>``; never raises.

        Call under :meth:`lock`.  A durable open also appends a
        ``quarantine`` manifest line.  A read-only open logs and counts
        the corruption but leaves the file where it is.
        """
        self.count("quarantined")
        if not self.writable:
            self.logger.warning(
                "corrupt %s %s %s (%s); read-only open, skipping it",
                self.prefix, self.field, name, reason,
            )
            return None
        destination = move_to_corrupt(path, self.corrupt_dir, name)
        if metrics.enabled:
            metrics.counter(f"{self.prefix}.corrupt_detected").add()
        self.logger.warning(
            "quarantined corrupt %s %s %s (%s)%s",
            self.prefix, self.field, name, reason,
            f" -> {destination}" if destination else "",
        )
        if self.durable:
            try:
                self.append_manifest(
                    {"op": "quarantine", self.field: name, "reason": reason}
                )
            except OSError as exc:
                self.degrade(self.modes[1], f"manifest append failed: {exc}")
        return destination

    def reconcile(
        self, temps: Iterable[Path], published: Iterable[Tuple[str, Dict]], op: str
    ) -> Dict[str, int]:
        """Open-time repair under the lock; safe (and run) at every open.

        Unlinks ``temps`` — live writers hold the lock while their temp
        file exists, so anything visible here is a crash orphan — and
        appends a recovered ``op`` line for every ``(name, extra)`` in
        ``published`` the manifest does not already show as ``op``.
        Quarantines made while ``published`` is walked count as repairs.
        """
        repairs = {"orphan_tmp": 0, "rejournaled": 0, "quarantined": 0}
        quarantined = self.counts()["quarantined"]
        with self.lock():
            if self.writable:
                for tmp in temps:
                    try:
                        tmp.unlink()
                        repairs["orphan_tmp"] += 1
                    except OSError:  # pragma: no cover - raced another opener
                        pass
            journalled = self.manifest_ops()
            for name, extra in published:
                if not self.durable or journalled.get(name) == op:
                    continue
                try:
                    self.append_manifest(
                        {"op": op, self.field: name, **extra, "recovered": True}
                    )
                    repairs["rejournaled"] += 1
                except OSError as exc:
                    self.degrade(self.modes[1], f"manifest recovery failed: {exc}")
        repairs["quarantined"] = self.counts()["quarantined"] - quarantined
        total = sum(repairs.values())
        if total:
            self.count("recovered", total)
            self.logger.info(
                "%s recovery at %s: %d orphan temp file(s) removed, "
                "%d file(s) re-journalled, %d quarantined",
                self.kind, self.root, repairs["orphan_tmp"],
                repairs["rejournaled"], repairs["quarantined"],
            )
        return repairs
