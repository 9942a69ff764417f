"""Crash flight recorder: a bounded ring of recent telemetry, dumped on failure.

Postmortems of interrupted sweeps, failed journal writes, or daemon
crashes used to require reproducing the failure with ``--trace`` armed.  The
flight recorder removes that step: while armed, it taps the process's
existing telemetry —

* every span/event the tracer records (via a tracer listener), and
* every log record at or above a threshold (via a ``logging.Handler``)

— into fixed-size rings, and on failure dumps them atomically (via
:mod:`repro.utils.atomicio`, so a crash mid-dump never leaves a
truncated file) to ``flight-<pid>-<ns>.json`` in the armed directory.

Dump triggers, wired in :mod:`repro.cli` and the daemon:

* any CLI exit code >= 10 (infrastructure failures, per ``EXIT_CODES``),
* an unhandled exception (a chained ``sys.excepthook``),
* SIGTERM delivered to the daemon.

The dump embeds its spans as Chrome ``traceEvents``, so ``repro stats
--from-flight`` (and plain ``repro stats``) renders a flight dump with
the same top-spans view as a live trace, alongside the crash reason,
the tail of the log, and the metrics snapshot at the moment of death.

Arming is opt-in: ``repro --flight DIR ...`` or ``REPRO_FLIGHT_DIR``.
The armed recorder enables the shared tracer; if no ``--trace`` sink
was requested, the caller should bound the tracer's own buffer
(:meth:`~repro.obs.tracer.Tracer.limit_records`) so a long-lived
process stays flat on memory — the recorder's rings are always bounded.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.obs.export import _span_to_event, run_metadata
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanRecord, Tracer
from repro.utils.atomicio import atomic_write_text

PathLike = Union[str, Path]

#: Environment variable arming the recorder (same effect as ``--flight``).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Schema tag written into every dump.
FLIGHT_SCHEMA = "repro.flight/1"

#: Default ring capacities (spans/events, log records).
SPAN_RING_CAPACITY = 2048
LOG_RING_CAPACITY = 512


class _RingHandler(logging.Handler):
    """Feeds formatted log records into the recorder's bounded ring."""

    def __init__(
        self,
        ring: Deque[Dict],
        level: int = logging.DEBUG,
        exclude_prefix: Optional[str] = None,
    ):
        super().__init__(level=level)
        self._ring = ring
        if exclude_prefix:
            dotted = exclude_prefix + "."
            self.addFilter(
                lambda record: not (
                    record.name == exclude_prefix or record.name.startswith(dotted)
                )
            )

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._ring.append(
                {
                    "ts_unix": record.created,
                    "level": record.levelname,
                    "logger": record.name,
                    "message": record.getMessage(),
                }
            )
        except Exception:  # never let telemetry break the program
            pass


class FlightRecorder:
    """Bounded rings of recent spans and logs, dumped atomically on demand."""

    def __init__(
        self,
        directory: PathLike,
        span_capacity: int = SPAN_RING_CAPACITY,
        log_capacity: int = LOG_RING_CAPACITY,
    ):
        self.directory = Path(directory)
        self._spans: Deque[SpanRecord] = deque(maxlen=span_capacity)
        self._logs: Deque[Dict] = deque(maxlen=log_capacity)
        self._handler = _RingHandler(self._logs)
        # the root-side tap excludes repro.* records: those come in via
        # the handler on the "repro" logger, whether or not that logger
        # propagates to root (configure_logging turns propagation off)
        self._root_handler = _RingHandler(self._logs, exclude_prefix="repro")
        self._tracer: Optional[Tracer] = None
        self._registry: Optional[MetricsRegistry] = None
        self._armed = False
        self.last_dump: Optional[Path] = None

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        return self._armed

    def arm(self, tracer: Tracer, registry: Optional[MetricsRegistry] = None) -> None:
        """Start recording: tap ``tracer`` and the root logger.

        Enables the tracer (spans only exist while it is enabled);
        bounding the tracer's own buffer is the caller's choice — the
        recorder's rings are bounded regardless.
        """
        if self._armed:
            return
        self._tracer = tracer
        self._registry = registry
        tracer.add_listener(self._spans.append)
        tracer.enable()
        # the "repro" hierarchy may not propagate to the root logger,
        # so tap both: library records and anything else in the process
        logging.getLogger("repro").addHandler(self._handler)
        logging.getLogger().addHandler(self._root_handler)
        self._armed = True

    def disarm(self) -> None:
        if not self._armed:
            return
        if self._tracer is not None:
            # bound builtin methods compare equal by (__self__, __func__),
            # so remove_listener finds the one arm() registered
            self._tracer.remove_listener(self._spans.append)
        logging.getLogger("repro").removeHandler(self._handler)
        logging.getLogger().removeHandler(self._root_handler)
        self._armed = False

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------
    def dump(
        self,
        reason: str,
        exit_code: Optional[int] = None,
        force: bool = False,
    ) -> Optional[Path]:
        """Write the rings to ``flight-<pid>-<ns>.json``; returns the path.

        Idempotent per process unless ``force``: the excepthook and the
        CLI's exit-code path can both fire for one crash, and the first
        dump — taken closest to the failure — is the one that matters.
        Never raises: a recorder that cannot write (full disk, vanished
        directory) reports ``None`` rather than masking the original
        failure.
        """
        if self.last_dump is not None and not force:
            return self.last_dump
        pid = os.getpid()
        doc = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "exit_code": exit_code,
            "pid": pid,
            "metadata": run_metadata(),
            "traceEvents": sorted(
                (_span_to_event(record, pid) for record in list(self._spans)),
                key=lambda event: event["ts"],
            ),
            "logs": list(self._logs),
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        if self._registry is not None:
            doc.update(self._registry.snapshot())
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"flight-{pid}-{time.time_ns()}.json"
            atomic_write_text(path, json.dumps(doc, indent=1, default=repr))
        except OSError:
            return None
        self.last_dump = path
        return path


# ----------------------------------------------------------------------
# Process-wide recorder management
# ----------------------------------------------------------------------
_recorder: Optional[FlightRecorder] = None
_prior_excepthook = None


def flight_dir_from_env() -> Optional[Path]:
    value = os.environ.get(FLIGHT_DIR_ENV, "").strip()
    return Path(value) if value else None


def get_recorder() -> Optional[FlightRecorder]:
    """The armed process-wide recorder, if any."""
    return _recorder


def arm(
    directory: PathLike,
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
    install_hook: bool = True,
) -> FlightRecorder:
    """Arm the process-wide recorder (idempotent) and chain the excepthook."""
    global _recorder, _prior_excepthook
    if _recorder is not None:
        return _recorder
    _recorder = FlightRecorder(directory)
    _recorder.arm(tracer, registry)
    if install_hook:
        _prior_excepthook = sys.excepthook
        sys.excepthook = _flight_excepthook
    return _recorder


def disarm() -> None:
    """Disarm and forget the process-wide recorder (tests)."""
    global _recorder, _prior_excepthook
    if _recorder is not None:
        _recorder.disarm()
        _recorder = None
    if _prior_excepthook is not None:
        sys.excepthook = _prior_excepthook
        _prior_excepthook = None


def dump(reason: str, exit_code: Optional[int] = None) -> Optional[Path]:
    """Dump the process-wide recorder, if armed."""
    if _recorder is None:
        return None
    return _recorder.dump(reason, exit_code=exit_code)


def _flight_excepthook(exc_type, exc, tb) -> None:
    if _recorder is not None:
        _recorder.dump(f"unhandled {exc_type.__name__}: {exc}")
    hook = _prior_excepthook or sys.__excepthook__
    hook(exc_type, exc, tb)


# ----------------------------------------------------------------------
# Loading (``repro stats --from-flight``)
# ----------------------------------------------------------------------
def load_flight(path: PathLike) -> Dict:
    """Load a flight dump, validating its schema tag."""
    with Path(path).open() as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(f"{path}: not a flight-recorder dump ({FLIGHT_SCHEMA})")
    return doc


def render_flight_summary(doc: Dict, top: int = 10, log_tail: int = 10) -> str:
    """Render a flight dump: crash header, top spans, metrics, log tail."""
    from repro.obs.stats import render_metrics_summary, render_trace_summary

    lines: List[str] = [
        "# flight recorder dump (pid {pid}): {reason}".format(
            pid=doc.get("pid", "?"), reason=doc.get("reason", "unknown")
        )
    ]
    if doc.get("exit_code") is not None:
        lines.append(f"# exit code {doc['exit_code']}")
    lines.append("")
    lines.append(render_trace_summary(doc, top=top))
    if doc.get("counters") or doc.get("gauges") or doc.get("histograms"):
        lines.append("")
        lines.append(render_metrics_summary({k: doc[k] for k in
                                             ("counters", "gauges", "histograms")},
                                            top=top))
    logs = doc.get("logs") or []
    if logs:
        lines.append("")
        lines.append(f"last {min(log_tail, len(logs))} of {len(logs)} log records:")
        for record in logs[-log_tail:]:
            lines.append(
                "  {level:7s} {logger}: {message}".format(
                    level=record.get("level", "?"),
                    logger=record.get("logger", "?"),
                    message=record.get("message", ""),
                )
            )
    return "\n".join(lines)
