"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Raised when a hardware configuration is invalid or unparsable."""


class TopologyError(ReproError):
    """Raised when a network topology or layer specification is invalid."""


class MappingError(ReproError):
    """Raised when a workload cannot be mapped onto the requested array."""


class SimulationError(ReproError):
    """Raised when the cycle-accurate engine encounters an invalid state."""


class SearchError(ReproError):
    """Raised when a design-space search is given an empty or invalid space."""


class DramError(ReproError):
    """Raised by the DRAM back-end for invalid traces or timing configs."""


class ExecutionError(ReproError):
    """Raised by the fault-tolerant execution layer (``repro.robust``)."""


class PointTimeoutError(ExecutionError):
    """Raised when one grid point exceeds its per-point wall-clock timeout."""


class CircuitOpenError(ExecutionError):
    """Raised when a batch run trips its ``max_failures`` circuit breaker."""


class SweepError(ExecutionError, ValueError):
    """Raised when a sweep grid is malformed: a missing, empty or
    non-sequence axis that would otherwise silently produce an empty (or
    nonsensical, e.g. a string iterated per character) sweep.  Subclasses
    ``ValueError`` so callers that guarded grid construction with
    ``except ValueError`` keep working."""


class CheckpointError(ReproError):
    """Raised for unreadable, conflicting or misused checkpoint journals."""


class StorageError(ReproError, OSError):
    """Raised when a durable write cannot complete (``ENOSPC``, ``EIO``,
    vanished directories).  Subclasses ``OSError`` so existing callers
    that guard filesystem writes with ``except OSError`` keep working,
    while carrying the library's typed exit-code contract."""


class StoreCorruptionError(StorageError):
    """Raised when a sweep ledger directory itself (not one segment) is
    unusable: the root is not a directory, the layout cannot be
    created, the unsealed journal cannot be read, or a read-only open
    is asked to record.  Corrupt segments never raise — they are
    quarantined and their points re-simulated transparently."""


class LedgerCorruptionError(StorageError):
    """Raised when a columnar sweep-ledger segment fails validation:
    bad magic, truncated payload, checksum mismatch, or an inconsistent
    header.  The ledger catches this internally — corrupt segments are
    quarantined to ``corrupt/`` and their grid points marked incomplete
    so the executor transparently re-simulates them; it only escapes to
    callers opening a segment file directly."""


class ServiceError(ReproError):
    """Raised by the ``repro.serve`` daemon/client layer: malformed
    requests, transport failures, or a server-side job error."""


class ServiceUnavailableError(ServiceError):
    """Raised client-side when the daemon rejects a request with
    back-pressure (full queue or an exhausted per-client quota); carries
    the server's suggested ``retry_after`` delay in seconds."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class VerificationError(ReproError):
    """Raised when the differential-verification harness finds (or fails
    to find, for mutation smoke) a violation: an oracle disagreement, a
    broken metamorphic property, a blessed golden baseline that drifted,
    or a seeded mutant the harness could not catch."""


class InstrumentKindError(ReproError, TypeError):
    """Raised when one metric name is requested as two different
    instrument kinds (e.g. ``counter("x")`` after ``gauge("x")``).
    Subclasses ``TypeError`` because it is a type confusion at the
    instrumentation site, not a runtime condition."""


class PerfRegressionError(ReproError):
    """Raised by ``repro bench compare`` when a tracked benchmark
    metric regresses beyond its noise band against the rolling
    baseline in ``benchmarks/results/history.jsonl``."""


class InvariantError(ReproError):
    """Raised when cycle-accurate results diverge from the analytical
    model (Eq. 1-6) or the demand/trace views stop agreeing."""


class ResilienceError(ReproError):
    """Raised for invalid fault maps or degraded hardware that cannot
    serve the workload (no surviving partitions, unreachable pods)."""
