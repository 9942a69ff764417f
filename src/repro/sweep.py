"""Parameter-sweep runner: cartesian grids in, tidy rows out.

Every experiment in this repository is a sweep of some function over a
parameter grid with the results flattened into row dicts; this module
captures that pattern once:

    rows = run_sweep(
        lambda array, macs: {"cycles": simulate(array, macs)},
        array=[(8, 8), (16, 16)],
        macs=[2**10, 2**12],
    )

The callable receives one keyword per grid axis and returns a dict (or
a list of dicts) of measurements; each result row carries the parameter
values that produced it.

Execution routes through the fault-tolerant layer (:mod:`repro.robust`):
pass an :class:`~repro.robust.policy.ExecutionPolicy` for retries,
per-point timeouts and circuit breaking, and a checkpoint path (or
:class:`~repro.robust.checkpoint.CheckpointStore`) to make the sweep
resumable — an interrupted run replays completed points from its
journal instead of re-executing them.  :func:`run_sweep_report`
additionally returns the :class:`~repro.robust.report.RunReport`
accounting for every grid point.

The module also holds the one sweep the CLI, the daemon and the bench
suite all run: the Fig. 11 partition sweep of one layer
(:func:`sweep_measure`, its closed-form twin :func:`sweep_estimate`
and the ledger scope :func:`sweep_ledger_version`).
"""

from __future__ import annotations

import csv
import io
import itertools
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SweepError
from repro.obs.progress import ProgressSnapshot
from repro.robust.checkpoint import CheckpointStore
from repro.robust.executor import execute_grid
from repro.robust.policy import ExecutionPolicy
from repro.robust.report import RunReport
from repro.utils.atomicio import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - hint-only import
    from repro.store.ledger import SweepLedger


def grid_points(**grid: Sequence) -> List[Dict]:
    """The cartesian product of the grid axes, in keyword order.

    Every axis must be a non-empty sized collection of values; a
    missing, empty or non-sequence axis (including a bare string, which
    would silently sweep per *character*) raises a typed
    :class:`~repro.errors.SweepError` naming the offending key instead
    of producing an empty or nonsensical sweep.
    """
    if not grid:
        raise SweepError("sweep needs at least one parameter axis")
    for name, values in grid.items():
        if isinstance(values, (str, bytes)) or not hasattr(values, "__len__"):
            raise SweepError(
                f"axis {name!r} must be a sequence of values, got "
                f"{type(values).__name__} ({values!r})"
            )
        if len(values) == 0:
            raise SweepError(f"axis {name!r} is empty")
    axes = list(grid.items())
    return [
        {name: value for (name, _), value in zip(axes, point)}
        for point in itertools.product(*(values for _, values in axes))
    ]


class _FreshLedgerView:
    """A ledger as a write-only journal: records land, nothing replays.

    ``run_sweep(ledger=...)`` without ``incremental=True`` must
    re-simulate every point (refreshing the ledger's entries) while
    still sinking results durably — so this view hides the completed
    set from the executor's replay path but forwards every write.
    """

    def __init__(self, ledger: "SweepLedger"):
        self.ledger = ledger
        self.version = ledger.version

    def key(self, params: Dict) -> str:
        return self.ledger.key(params)

    def get(self, params: Dict) -> Optional[Dict]:
        return None

    def completed(self, params: Dict) -> bool:
        return False

    def record(self, params: Dict, status: str, **kwargs) -> Dict:
        return self.ledger.record(params, status, **kwargs)


def _checked(fn: Callable[..., Union[Dict, Sequence[Dict]]]) -> Callable:
    """Wrap ``fn`` to reject result keys that collide with parameters."""

    def checked(**params):
        outcome = fn(**params)
        results = outcome if isinstance(outcome, (list, tuple)) else [outcome]
        for result in results:
            overlap = set(params) & set(result)
            if overlap:
                raise ValueError(
                    f"result keys {sorted(overlap)} collide with parameter names"
                )
        return [{**params, **result} for result in results]

    return checked


def run_sweep_report(
    fn: Callable[..., Union[Dict, Sequence[Dict]]],
    skip_errors: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[Union[str, Path, CheckpointStore]] = None,
    on_progress: Optional[Callable[[ProgressSnapshot], None]] = None,
    estimator: Optional[Callable[..., Tuple[Dict, float]]] = None,
    top_k: Optional[int] = None,
    prune_band: Optional[float] = None,
    exact: bool = False,
    ledger: Optional[Union[str, Path, "SweepLedger"]] = None,
    incremental: bool = False,
    **grid: Sequence,
) -> Tuple[List[Dict], RunReport]:
    """Like :func:`run_sweep` but also returns the per-point report.

    Axis order follows keyword order; parameter values are prepended to
    every result row.  With ``skip_errors=True`` (or a collect-mode
    ``policy``), a point that exhausts its retries contributes one row
    with stable ``status`` and ``error`` columns instead of aborting the
    sweep.  The report accounts for every grid point regardless.  Points
    run one after another in the calling process.

    ``on_progress`` receives one
    :class:`~repro.obs.progress.ProgressSnapshot` per settled point
    (done/total, rolling throughput, ETA); the same telemetry is always
    logged at INFO under ``repro.obs.progress``.

    ``estimator`` opts in to analytical pruning (the sweep compiler):
    it is called with the same keywords as ``fn`` and returns
    ``(row, score)`` — a closed-form measurement row and the objective
    the frontier is ranked by (lower is better).  Only the frontier —
    the ``top_k`` best-scoring points plus everything within
    ``prune_band`` of the best score (defaults from
    :mod:`repro.perf.compiler`) — executes ``fn``; the rest settle as
    ``estimated`` rows marked with a ``status`` column, keeping CSVs,
    journals and resume schema-compatible.  ``exact=True`` is the
    escape hatch: the estimator is ignored and every point simulates
    byte-identically to a sweep without one.

    ``ledger`` sinks every completed point into a crash-safe columnar
    :class:`~repro.store.ledger.SweepLedger` (a path opens one) instead
    of a JSONL checkpoint; with ``incremental=True`` the requested grid
    is diffed against the ledger first and only new / invalidated /
    quarantined points simulate — everything already completed under
    the current parameters and package version replays from the
    ledger's mmap'd segments.  ``ledger`` and ``checkpoint`` are
    mutually exclusive (the ledger *is* the journal).
    """
    points = grid_points(**grid)
    if policy is None:
        policy = ExecutionPolicy(mode="collect" if skip_errors else "fail_fast")
    elif skip_errors and policy.mode != "collect":
        raise ValueError("skip_errors=True conflicts with a fail_fast policy")
    if ledger is not None and checkpoint is not None:
        raise ValueError("pass either checkpoint or ledger, not both")
    if incremental and ledger is None:
        raise ValueError("incremental=True needs a ledger to re-sweep against")
    if isinstance(checkpoint, (str, Path)):
        checkpoint = CheckpointStore(checkpoint)
    owned_ledger = None
    if ledger is not None and not hasattr(ledger, "diff_grid"):
        from repro.store.ledger import SweepLedger

        ledger = owned_ledger = SweepLedger(ledger)
    if ledger is not None:
        journal = ledger if incremental else _FreshLedgerView(ledger)
    else:
        journal = checkpoint
    try:
        estimates = None
        if estimator is not None and not exact:
            from repro.perf.compiler import plan_estimates

            estimates = plan_estimates(
                estimator, points, top_k, prune_band, journal=journal
            )
        elif top_k is not None or prune_band is not None:
            if estimator is None and not exact:
                raise ValueError("top_k/prune_band need an estimator to prune with")
        report = execute_grid(
            _checked(fn),
            points,
            policy=policy,
            checkpoint=journal,
            on_progress=on_progress,
            estimates=estimates,
        )
        return report.rows(), report
    finally:
        if ledger is not None:
            # Seal the tail so results are columnar on disk, not just
            # journalled; entries are already fsync-durable either way.
            ledger.flush()
        if owned_ledger is not None:
            owned_ledger.close()


def run_sweep(
    fn: Callable[..., Union[Dict, Sequence[Dict]]],
    skip_errors: bool = False,
    policy: Optional[ExecutionPolicy] = None,
    checkpoint: Optional[Union[str, Path, CheckpointStore]] = None,
    estimator: Optional[Callable[..., Tuple[Dict, float]]] = None,
    top_k: Optional[int] = None,
    prune_band: Optional[float] = None,
    exact: bool = False,
    ledger: Optional[Union[str, Path, "SweepLedger"]] = None,
    incremental: bool = False,
    **grid: Sequence,
) -> List[Dict]:
    """Evaluate ``fn`` over the cartesian product of the ``grid`` axes.

    Axis order follows keyword order; parameter values are prepended to
    every result row.  With ``skip_errors=True``, a point that raises
    contributes one row with ``status`` and ``error`` columns instead of
    aborting the sweep.  ``policy`` and ``checkpoint`` opt in to the
    fault-tolerant machinery (retries, timeouts, resumable journals),
    ``estimator`` / ``top_k`` / ``prune_band`` / ``exact`` to analytical
    pruning, and ``ledger`` / ``incremental`` to the crash-safe columnar
    sweep ledger — see :func:`run_sweep_report` for the full contract
    and the per-point accounting.
    """
    rows, _ = run_sweep_report(
        fn,
        skip_errors=skip_errors,
        policy=policy,
        checkpoint=checkpoint,
        estimator=estimator,
        top_k=top_k,
        prune_band=prune_band,
        exact=exact,
        ledger=ledger,
        incremental=incremental,
        **grid,
    )
    return rows


def sweep_to_csv(rows: Sequence[Dict], path: Union[str, Path]) -> Path:
    """Atomically write sweep rows to a CSV; the header is the union of
    all keys.

    Rows missing some header keys (e.g. error rows without measurement
    columns) are backfilled with empty cells, so the file always has a
    rectangular, consistent schema.  The file is rendered in memory and
    published via :func:`repro.utils.atomicio.atomic_write_text` (temp
    file + fsync + rename), so a crash mid-export can never leave a
    truncated CSV next to a complete journal.
    """
    if not rows:
        raise ValueError("no rows to write")
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=header, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return atomic_write_text(Path(path), buffer.getvalue())


def pivot(
    rows: Sequence[Dict],
    index: str,
    column: str,
    value: str,
) -> Dict:
    """Reshape rows into ``{index: {column: value}}`` for table rendering."""
    table: Dict = {}
    for row in rows:
        if index not in row or column not in row or value not in row:
            continue
        table.setdefault(row[index], {})[row[column]] = row[value]
    if not table:
        raise ValueError(f"no rows carry all of {index!r}, {column!r}, {value!r}")
    return table


def pivot_to_csv(
    table: Dict,
    path: Union[str, Path],
    index_name: str = "index",
) -> Path:
    """Atomically export a :func:`pivot` table as a CSV.

    Column order is first-seen across the table's rows; missing cells
    are left empty.  Publishes through
    :func:`repro.utils.atomicio.atomic_write_text`, same crash contract
    as :func:`sweep_to_csv`.
    """
    if not table:
        raise ValueError("no pivot table to write")
    columns: List = []
    for cells in table.values():
        for column in cells:
            if column not in columns:
                columns.append(column)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow([index_name, *[str(column) for column in columns]])
    for index_value, cells in table.items():
        writer.writerow(
            [index_value, *[cells.get(column, "") for column in columns]]
        )
    return atomic_write_text(Path(path), buffer.getvalue())


# ----------------------------------------------------------------------
# The Fig. 11 partition sweep of one layer: the CLI ``sweep``/``resweep``
# commands, the daemon's sweep jobs and the bench suite share these.
# ----------------------------------------------------------------------
def square_grid(count: int) -> Tuple[int, int]:
    """Most-square power-of-two factorization of ``count``."""
    rows = 1
    while rows * rows < count:
        rows <<= 1
    return (count // rows, rows) if count % rows == 0 else (1, count)


def sweep_ledger_version(layer: str, workload: str, macs: int) -> str:
    """Ledger version string scoping sweep points to one simulation key.

    The sweep grid's per-point parameters are just ``partitions``;
    alone they would collide across layers in a shared ledger, so the
    rest of the simulation key rides in the version string — changing
    the layer, workload, macs budget or package version invalidates
    reuse exactly the way a code upgrade invalidates a checkpoint.
    """
    from repro._version import __version__

    return f"{__version__}/sweep layer={layer} workload={workload} macs={macs}"


def sweep_measure(partitions: int, layer=None, macs: int = 0) -> dict:
    """One partition-sweep point."""
    from repro.config.presets import paper_scaling_config
    from repro.engine.scaleout import ScaleOutSimulator

    grid = square_grid(partitions)
    shape = square_grid(macs // partitions)
    config = paper_scaling_config(shape[0], shape[1], grid[0], grid[1])
    result = ScaleOutSimulator(config).run_layer(layer)
    return {
        "array": f"{shape[0]}x{shape[1]}",
        "cycles": result.total_cycles,
        "avg_bw": round(result.avg_total_bw, 3),
        "peak_bw": round(result.peak_total_bw, 3),
    }


def sweep_estimate(partitions: int, layer=None, macs: int = 0) -> tuple:
    """Closed-form twin of :func:`sweep_measure` for analytical pruning.

    Returns ``(row, score)`` in the :func:`run_sweep` estimator
    contract.  ``cycles`` and ``avg_bw`` are *exact* — the
    shape-class decomposition prices each of the <= 4 distinct tile
    GEMMs with the closed-form model the tests pin to the engine —
    while ``peak_bw`` reports the summed per-tile average bandwidth (a
    lower bound; the true per-fold peak needs the engine's fold walk).
    The score is the exact cycle count, the same objective
    :func:`sweep_measure` minimizes.
    """
    from repro.analytical.traffic import estimate_traffic
    from repro.config.presets import paper_scaling_config
    from repro.mapping.dims import OperandMapping, map_layer
    from repro.memory.buffers import BufferSet
    from repro.utils.mathutils import split_evenly

    grid = square_grid(partitions)
    shape = square_grid(macs // partitions)
    config = paper_scaling_config(shape[0], shape[1], grid[0], grid[1])
    mapping = map_layer(layer, config.dataflow)
    buffers = BufferSet.from_config(config.partition_config())

    shape_counts: Dict[Tuple[int, int], int] = {}
    for r in split_evenly(mapping.sr, grid[0]):
        for c in split_evenly(mapping.sc, grid[1]):
            if r == 0 or c == 0:
                continue
            shape_counts[(r, c)] = shape_counts.get((r, c), 0) + 1
    cycles = 0
    total_bytes = 0
    peak_proxy = 0.0
    for (r, c), count in shape_counts.items():
        tile = OperandMapping(sr=r, sc=c, t=mapping.t, dataflow=mapping.dataflow)
        estimate = estimate_traffic(
            tile, shape[0], shape[1], buffers, config.word_bytes
        )
        cycles = max(cycles, estimate.total_cycles)
        total_bytes += estimate.total_bytes * count
        peak_proxy += estimate.avg_total_bw * count
    row = {
        "array": f"{shape[0]}x{shape[1]}",
        "cycles": cycles,
        "avg_bw": round(total_bytes / cycles, 3),
        "peak_bw": round(peak_proxy, 3),
    }
    return row, float(cycles)
