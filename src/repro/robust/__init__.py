"""repro.robust — fault-tolerant execution layer for batch runs.

Every sweep, experiment and CLI batch command routes through this
subsystem.  It provides:

* :class:`ExecutionPolicy` — retries with exponential backoff and
  deterministic jitter, per-point wall-clock timeouts, a
  ``max_failures`` circuit breaker, and fail-fast vs. collect modes.
* :class:`CheckpointStore` — a JSONL journal of completed grid points
  keyed by a stable hash of parameters + code version, so interrupted
  sweeps resume exactly where they stopped.
* :class:`PointRecord` / :class:`RunReport` — structured per-point
  outcomes (status, attempts, duration, exception chain) replacing the
  old stringly ``"error"`` column.
* Invariant guards (:func:`check_layer_result`,
  :func:`check_trace_conservation`) that cross-check cycle-accurate
  results against the analytical model (Eq. 1-6) and trace
  conservation, raising :class:`~repro.errors.InvariantError` on
  divergence.
* A deterministic fault-injection harness (:mod:`repro.robust.faults`)
  for testing all of the above.

See ``docs/robustness.md`` for the full story.
"""
