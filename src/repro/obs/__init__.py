"""``repro.obs`` — observability: span tracing, metrics, export, progress.

The subsystem is built around two process-wide singletons that every
instrumented module shares:

* :data:`trace` — a :class:`~repro.obs.tracer.Tracer`; instrumented
  code wraps regions in ``with trace.span("name", key=value):`` and
  marks instants with ``trace.event(...)``.
* :data:`metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`;
  instrumented code bumps ``metrics.counter("sim.cycles").add(n)`` and
  friends.

Both are **disabled by default** and then cost one attribute check per
call site — simulation results are identical either way; observability
only ever *reads* the execution.

Typical embedding (this is what the CLI's ``--trace``/``--metrics``
flags do)::

    from repro import obs

    obs.configure(trace_path="run.trace.json", metrics_path="run.metrics.json",
                  config_digest=obs.config_hash(argv))
    ...  # run simulations
    obs.flush()   # writes the configured files, headers included

Files are Chrome trace-event JSON (open in https://ui.perfetto.dev) and
a metrics snapshot; ``repro stats FILE`` summarizes either.  See
``docs/observability.md``.

This package holds the singletons and their sink plumbing only;
everything else is imported from its submodule (``repro.obs.export``,
``.stats``, ``.logconf``, ``.progress``, ``.flight``, ...).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.export import (
    config_hash,
    run_metadata,
    write_chrome_trace,
    write_event_jsonl,
    write_metrics_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Process-wide tracer every instrumented module shares.
trace = Tracer()

#: Process-wide metrics registry every instrumented module shares.  This
#: rebinds the name the ``repro.obs.metrics`` submodule import bound, so
#: ``from repro.obs import metrics`` is always the registry.
metrics = MetricsRegistry()

#: Export destinations registered by :func:`configure`.
_sinks: Dict[str, Optional[object]] = {
    "trace_path": None,
    "metrics_path": None,
    "events_path": None,
    "metadata": None,
}


def configure(
    trace_path: Optional[Union[str, Path]] = None,
    metrics_path: Optional[Union[str, Path]] = None,
    events_path: Optional[Union[str, Path]] = None,
    config_digest: Optional[str] = None,
    extra_metadata: Optional[Dict] = None,
) -> None:
    """Enable the singletons for the sinks requested and remember them.

    Each path argument independently enables the matching collector
    (``events_path`` records through the tracer too).  Call
    :func:`flush` to write the files.
    """
    metadata = run_metadata(config_digest=config_digest, extra=extra_metadata)
    _sinks["metadata"] = metadata
    if trace_path or events_path:
        _sinks["trace_path"] = Path(trace_path) if trace_path else None
        _sinks["events_path"] = Path(events_path) if events_path else None
        trace.enable()
    if metrics_path:
        _sinks["metrics_path"] = Path(metrics_path)
        metrics.enable()


def flush() -> List[Path]:
    """Write every configured sink; returns the paths written."""
    metadata = _sinks["metadata"] or run_metadata()
    written: List[Path] = []
    if _sinks["trace_path"]:
        written.append(write_chrome_trace(trace, _sinks["trace_path"], metadata=metadata))
    if _sinks["events_path"]:
        written.append(write_event_jsonl(trace, _sinks["events_path"], metadata=metadata))
    if _sinks["metrics_path"]:
        written.append(
            write_metrics_json(metrics, _sinks["metrics_path"], metadata=metadata)
        )
    return written


def reset() -> None:
    """Disable and clear both singletons and forget the sinks (tests)."""
    trace.disable()
    trace.clear()
    metrics.disable()
    metrics.clear()
    for key in _sinks:
        _sinks[key] = None


__all__ = ["trace", "metrics", "configure", "config_hash", "flush", "reset"]
