"""Fault-tolerant point/batch executor.

:func:`execute_point` runs one callable under an
:class:`~repro.robust.policy.ExecutionPolicy` — retries with
exponential backoff, a per-point wall-clock timeout, and a structured
:class:`~repro.robust.report.PointRecord` outcome instead of a raw
exception.  :func:`execute_grid` drives a whole list of grid points
through it, journalling each completed point to an optional
:class:`~repro.robust.checkpoint.CheckpointStore` and enforcing the
``max_failures`` circuit breaker.

Timeouts run the attempt on a daemon thread and abandon it when the
budget expires; the thread itself cannot be killed (CPython offers no
safe preemption), so a truly hung point leaks that thread until it
returns or the process exits, which does not wait for it — the sweep
still makes progress, which is the property we need.  Tests avoid
wall-clock dependence entirely by injecting simulated timeouts through
:mod:`repro.robust.faults`.

``KeyboardInterrupt`` (and other ``BaseException`` non-errors) always
propagates immediately: the checkpoint journal already holds every
finished point, which is exactly what resume needs.
"""

from __future__ import annotations

import concurrent.futures
import logging
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import CircuitOpenError, PointTimeoutError
from repro.obs import metrics, trace
from repro.obs.progress import ProgressSnapshot, ProgressTracker
from repro.robust.checkpoint import PointJournal
from repro.robust.policy import ExecutionPolicy
from repro.robust.report import (
    STATUS_CACHED,
    STATUS_ESTIMATED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    PointRecord,
    RunReport,
    exception_chain,
)

#: Default single-attempt, collect-mode policy used when none is given.
DEFAULT_POLICY = ExecutionPolicy()

logger = logging.getLogger("repro.robust.executor")
progress_logger = logging.getLogger("repro.obs.progress")


def _as_rows(outcome: Union[Dict, Sequence[Dict]]) -> List[Dict]:
    if isinstance(outcome, dict):
        return [outcome]
    if isinstance(outcome, (list, tuple)):
        return [dict(row) for row in outcome]
    raise TypeError(
        f"point callable must return a dict or a sequence of dicts, "
        f"got {type(outcome).__name__}"
    )


def _attempt(
    fn: Callable[..., object],
    params: Dict,
    timeout: Optional[float],
) -> object:
    """Run one attempt, enforcing the wall-clock timeout if set."""
    if timeout is None:
        return fn(**params)
    future: concurrent.futures.Future = concurrent.futures.Future()

    def run() -> None:
        try:
            future.set_result(fn(**params))
        except BaseException as exc:  # noqa: BLE001 - re-raised by future.result
            future.set_exception(exc)

    # A daemon thread: an abandoned attempt must not hold up interpreter
    # exit, which joins every non-daemon thread, executor workers included.
    threading.Thread(target=run, name="repro-attempt", daemon=True).start()
    try:
        return future.result(timeout=timeout)
    except concurrent.futures.TimeoutError:
        raise PointTimeoutError(
            f"point {params!r} exceeded its {timeout}s wall-clock budget"
        ) from None


def execute_point(
    fn: Callable[..., object],
    params: Dict,
    policy: Optional[ExecutionPolicy] = None,
    key: str = "",
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> PointRecord:
    """Run ``fn(**params)`` under ``policy`` and return its record.

    ``sleep`` and ``clock`` are injectable for deterministic tests.
    Exceptions matched by ``policy.retry_on`` are retried up to
    ``policy.max_retries`` times with backoff; anything else (or an
    exhausted point) yields a ``failed`` record — never a raised
    exception, so batch drivers choose the failure semantics.
    """
    policy = policy or DEFAULT_POLICY
    start = clock()
    attempt = 0
    while True:
        attempt += 1
        try:
            rows = _as_rows(_attempt(fn, params, policy.timeout))
        except Exception as exc:  # noqa: BLE001 - containment is the point
            if isinstance(exc, PointTimeoutError):
                metrics.counter("robust.timeouts").add()
                trace.event("robust.timeout", key=key, attempt=attempt)
            if policy.should_retry(exc, attempt):
                metrics.counter("robust.retries").add()
                trace.event(
                    "robust.retry",
                    key=key,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                logger.debug(
                    "point %s attempt %d failed (%s: %s); retrying",
                    key or params, attempt, type(exc).__name__, exc,
                )
                delay = policy.backoff_delay(attempt, key=key)
                if delay:
                    sleep(delay)
                continue
            trace.event(
                "robust.point_failed",
                key=key,
                attempts=attempt,
                error=type(exc).__name__,
            )
            logger.warning(
                "point %s failed after %d attempt(s): %s: %s",
                key or params, attempt, type(exc).__name__, exc,
            )
            return PointRecord(
                params=params,
                status=STATUS_FAILED,
                attempts=attempt,
                duration=clock() - start,
                error=f"{type(exc).__name__}: {exc}",
                error_chain=tuple(exception_chain(exc)),
                exception=exc,
            )
        return PointRecord(
            params=params,
            status=STATUS_OK,
            attempts=attempt,
            duration=clock() - start,
            rows=tuple(rows),
        )


def execute_grid(
    fn: Callable[..., object],
    points: Sequence[Dict],
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[PointJournal] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_progress: Optional[Callable[[ProgressSnapshot], None]] = None,
    estimates: Optional[Sequence[Optional[Sequence[Dict]]]] = None,
) -> RunReport:
    """Run every point through :func:`execute_point`, with journalling.

    Points run one after another in the calling process, in ``points``
    order:

    * Points already completed in ``checkpoint`` are replayed as
      ``cached`` records without re-execution (resume semantics).
    * In ``fail_fast`` mode the first exhausted failure re-raises its
      original exception.
    * In ``collect`` mode failures are recorded; once ``max_failures``
      of them accumulate, the remaining points are marked ``skipped``
      and a :class:`CircuitOpenError` record stops further execution.

    Progress telemetry: every settled point updates a
    :class:`~repro.obs.progress.ProgressTracker` whose snapshot (points
    done/total, rolling throughput, ETA) is logged at INFO under
    ``repro.obs.progress``, pushed to ``on_progress`` if given, and
    mirrored into the ``sweep.points_done``/``sweep.points_total``
    gauges.

    ``estimates`` (aligned with ``points``) opts in to pruned-grid
    execution: a point whose entry is a row sequence settles as an
    ``estimated`` record carrying those rows — no ``fn`` call — while
    ``None`` entries execute normally.  Estimated points are journalled
    under their own status, so a later ``exact`` run re-executes them
    while completed exact results are still replayed as ``cached`` in
    preference to re-estimating.
    """
    policy = policy or DEFAULT_POLICY
    if estimates is not None:
        return _execute_pruned(
            fn,
            points,
            estimates,
            policy=policy,
            checkpoint=checkpoint,
            sleep=sleep,
            clock=clock,
            on_progress=on_progress,
        )
    records: List[PointRecord] = []
    failures = 0
    tripped = False
    progress = ProgressTracker(len(points), clock=clock)
    metrics.gauge("sweep.points_total").set(len(points))

    def settle(record: PointRecord) -> None:
        records.append(record)
        metrics.counter(f"robust.points_{record.status}").add()
        snapshot = progress.update()
        metrics.gauge("sweep.points_done").set(snapshot.done)
        progress_logger.info("sweep %s [%s]", snapshot.describe(), record.status)
        if on_progress is not None:
            on_progress(snapshot)

    for index, params in enumerate(points):
        if tripped:
            settle(
                PointRecord(
                    params=params,
                    status=STATUS_SKIPPED,
                    attempts=0,
                    error=(
                        f"circuit breaker open after {failures} failures "
                        f"(max_failures={policy.max_failures})"
                    ),
                )
            )
            continue
        if checkpoint is not None and checkpoint.completed(params):
            entry = checkpoint.get(params)
            metrics.counter("robust.checkpoint_replays").add()
            trace.event("robust.checkpoint_replay", key=checkpoint.key(params))
            settle(
                PointRecord(
                    params=params,
                    status=STATUS_CACHED,
                    attempts=0,
                    rows=tuple(entry.get("rows", ())),
                )
            )
            continue
        key = checkpoint.key(params) if checkpoint is not None else str(index)
        with trace.span("robust.grid_point", key=key):
            record = execute_point(
                fn, params, policy=policy, key=key, sleep=sleep, clock=clock
            )
        if metrics.enabled:
            metrics.histogram("robust.point_seconds").observe(record.duration)
            metrics.counter("robust.point_attempts").add(record.attempts)
        settle(record)
        if checkpoint is not None:
            checkpoint.record(
                params,
                status=record.status,
                rows=list(record.rows),
                attempts=record.attempts,
                duration=record.duration,
                error=record.error,
            )
        if record.status != STATUS_FAILED:
            continue
        failures += 1
        if policy.mode == "fail_fast":
            if record.exception is not None:
                raise record.exception
            raise CircuitOpenError(
                f"point {params!r} failed after {record.attempts} attempt(s): "
                f"{record.error}"
            )
        if policy.max_failures is not None and failures >= policy.max_failures:
            tripped = True
            logger.warning(
                "circuit breaker tripped after %d failure(s); "
                "skipping the remaining points", failures,
            )
            trace.event("robust.circuit_open", failures=failures)
    return RunReport(records=records)


def _execute_pruned(
    fn: Callable[..., object],
    points: Sequence[Dict],
    estimates: Sequence[Optional[Sequence[Dict]]],
    policy: ExecutionPolicy,
    checkpoint: Optional[PointJournal],
    sleep: Callable[[float], None],
    clock: Callable[[], float],
    on_progress: Optional[Callable[[ProgressSnapshot], None]],
) -> RunReport:
    """Pruned-grid execution plan: simulate the frontier, settle the rest.

    The frontier subset (``estimates[i] is None``) runs through the
    normal :func:`execute_grid` machinery — retries, circuit breaker,
    checkpoint replay — and the pruned points are merged back in
    original grid order as ``estimated`` records, so rows, reports and
    journals keep the full grid's shape.
    """
    if len(estimates) != len(points):
        raise ValueError(
            f"estimates must align with points: {len(estimates)} != {len(points)}"
        )
    frontier = [
        params
        for params, estimate in zip(points, estimates)
        if estimate is None
    ]
    inner = execute_grid(
        fn,
        frontier,
        policy=policy,
        checkpoint=checkpoint,
        sleep=sleep,
        clock=clock,
        on_progress=on_progress,
    )
    executed = iter(inner.records)
    records: List[PointRecord] = []
    for params, estimate in zip(points, estimates):
        if estimate is None:
            records.append(next(executed))
            continue
        # A completed exact result beats re-estimating on resume.
        if checkpoint is not None and checkpoint.completed(params):
            entry = checkpoint.get(params)
            metrics.counter("robust.checkpoint_replays").add()
            records.append(
                PointRecord(
                    params=params,
                    status=STATUS_CACHED,
                    attempts=0,
                    rows=tuple(entry.get("rows", ())),
                )
            )
            continue
        record = PointRecord(
            params=params,
            status=STATUS_ESTIMATED,
            attempts=0,
            rows=tuple(dict(row) for row in estimate),
        )
        metrics.counter("robust.points_estimated").add()
        if checkpoint is not None:
            checkpoint.record(
                params,
                status=STATUS_ESTIMATED,
                rows=list(record.rows),
                attempts=0,
                duration=0.0,
                error=None,
            )
        records.append(record)
    return RunReport(records=records)
