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

from repro.robust.checkpoint import CheckpointStore, PointJournal, point_key
from repro.robust.executor import execute_grid, execute_point
from repro.robust.faults import (
    Fault,
    InjectedFault,
    fault_scenario,
    inject_faults,
    scenario_seed,
)
from repro.robust.invariants import (
    check_cycles,
    check_layer_result,
    check_macs,
    check_trace_conservation,
    expected_cycles,
)
from repro.robust.policy import COLLECT, FAIL_FAST, ExecutionPolicy
from repro.robust.report import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    PointRecord,
    RunReport,
    exception_chain,
)

__all__ = [
    "CheckpointStore",
    "PointJournal",
    "point_key",
    "execute_grid",
    "execute_point",
    "Fault",
    "InjectedFault",
    "fault_scenario",
    "inject_faults",
    "scenario_seed",
    "check_cycles",
    "check_layer_result",
    "check_macs",
    "check_trace_conservation",
    "expected_cycles",
    "COLLECT",
    "FAIL_FAST",
    "ExecutionPolicy",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "PointRecord",
    "RunReport",
    "exception_chain",
]
