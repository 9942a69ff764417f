"""Closed-form stall-free runtime (paper Eq. 1-6).

The analytical model captures first-order execution time only — it
deliberately ignores memory capacity and bandwidth (those belong to the
cycle-accurate engine) so large design spaces can be swept cheaply.

All functions work on an :class:`OperandMapping`, i.e. after Table III
has assigned the GEMM dimensions to ``(S_R, S_C, T)`` for a dataflow.
"""

from __future__ import annotations

from repro.mapping.dims import OperandMapping
from repro.utils.mathutils import ceil_div
from repro.utils.validation import check_non_negative_int, check_positive_int


def fold_runtime(rows: int, cols: int, temporal: int) -> int:
    """Eq. 3: cycles for one fold on an ``rows x cols`` array.

    ``tau_F = 2R + C + T - 2``.
    """
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    check_positive_int(temporal, "temporal")
    return 2 * rows + cols + temporal - 2


def unlimited_runtime(mapping: OperandMapping) -> int:
    """Eq. 1: fastest possible runtime given unlimited MAC units.

    With an ``S_R x S_C`` array everything fits in one fold:
    ``tau_min = 2 S_R + S_C + T - 2``.
    """
    return fold_runtime(mapping.sr, mapping.sc, mapping.t)


def scaleup_runtime(mapping: OperandMapping, array_rows: int, array_cols: int) -> int:
    """Eq. 4: stall-free runtime of one layer on one ``R x C`` array.

    ``tau = (2R + C + T - 2) * ceil(S_R/R) * ceil(S_C/C)``.

    Note the model charges every fold the *full-array* fold latency —
    edge folds are not discounted.  The cycle-accurate engine maps edge
    folds exactly and therefore reports a runtime ``<=`` this value,
    with equality when ``R | S_R`` and ``C | S_C``.
    """
    check_positive_int(array_rows, "array_rows")
    check_positive_int(array_cols, "array_cols")
    folds = ceil_div(mapping.sr, array_rows) * ceil_div(mapping.sc, array_cols)
    return fold_runtime(array_rows, array_cols, mapping.t) * folds


def scaleout_runtime(
    mapping: OperandMapping,
    partition_rows: int,
    partition_cols: int,
    array_rows: int,
    array_cols: int,
) -> int:
    """Eq. 5 + Eq. 6: runtime of a ``P_R x P_C`` grid of ``R x C`` arrays.

    Each partition works on the ``(ceil(S_R/P_R), ceil(S_C/P_C))`` tile
    (Eq. 5); partitions run in parallel so the slowest — the one with
    the ceil-sized tile — sets the runtime (Eq. 6).
    """
    check_positive_int(partition_rows, "partition_rows")
    check_positive_int(partition_cols, "partition_cols")
    tile_sr = ceil_div(mapping.sr, partition_rows)
    tile_sc = ceil_div(mapping.sc, partition_cols)
    tile = OperandMapping(sr=tile_sr, sc=tile_sc, t=mapping.t, dataflow=mapping.dataflow)
    return scaleup_runtime(tile, array_rows, array_cols)


def _scaleout_cycles(
    sr: int, sc: int, t: int, pr: int, pc: int, rows: int, cols: int
) -> int:
    """Eq. 4-6 on ints the caller has already validated.

    The design-space search prices thousands of points per call, so this
    kernel skips the argument checks and builds no tile mapping; it
    equals :func:`scaleout_runtime` on valid input (the ``vectorized``
    verify property pins that).
    """
    tile_sr = -(-sr // pr)
    tile_sc = -(-sc // pc)
    return (2 * rows + cols + t - 2) * -(-tile_sr // rows) * -(-tile_sc // cols)


def degraded_scaleup_runtime(
    mapping: OperandMapping,
    array_rows: int,
    array_cols: int,
    dead_rows: int = 0,
    dead_cols: int = 0,
) -> int:
    """Eq. 4 on an array with bypassed PE rows/columns.

    Dead rows/columns are skipped by the sequencer, so the machine
    behaves as a smaller ``R' x C'`` array: ``R' = R - dead_rows``,
    ``C' = C - dead_cols``.  A fully dead axis cannot compute anything.
    """
    check_non_negative_int(dead_rows, "dead_rows")
    check_non_negative_int(dead_cols, "dead_cols")
    eff_rows = array_rows - dead_rows
    eff_cols = array_cols - dead_cols
    check_positive_int(eff_rows, "effective array_rows")
    check_positive_int(eff_cols, "effective array_cols")
    return scaleup_runtime(mapping, eff_rows, eff_cols)


def degraded_scaleout_runtime(
    mapping: OperandMapping,
    partition_rows: int,
    partition_cols: int,
    array_rows: int,
    array_cols: int,
    dead_partitions: int = 0,
) -> int:
    """Closed-form Eq. 5/6 for a grid with ``k`` dead partitions.

    With the work of the ``P = P_R * P_C`` Eq.-5 tiles re-mapped evenly
    over the ``P - k`` survivors, the most-loaded survivor runs
    ``ceil(P / (P - k))`` ceil-sized tiles back to back:

    ``tau' = ceil(P / (P - k)) * tau_scaleout``.

    This is the first-order bound the exact remap plan
    (:func:`repro.resilience.remap.remap_layer`) refines with true tile
    shapes; both coincide on healthy grids (``k = 0``).
    """
    check_positive_int(partition_rows, "partition_rows")
    check_positive_int(partition_cols, "partition_cols")
    check_non_negative_int(dead_partitions, "dead_partitions")
    total = partition_rows * partition_cols
    survivors = total - dead_partitions
    check_positive_int(survivors, "surviving partitions")
    tiles_per_survivor = ceil_div(total, survivors)
    return tiles_per_survivor * scaleout_runtime(
        mapping, partition_rows, partition_cols, array_rows, array_cols
    )


def mapping_utilization(mapping: OperandMapping, array_rows: int, array_cols: int) -> float:
    """Average fraction of the array carrying valid mappings over all folds.

    Fig. 9(b-c)'s utilization series: full folds use every PE, edge
    folds only the remainder rows/columns.
    """
    check_positive_int(array_rows, "array_rows")
    check_positive_int(array_cols, "array_cols")
    row_folds = ceil_div(mapping.sr, array_rows)
    col_folds = ceil_div(mapping.sc, array_cols)
    # Sum of mapped PEs over the fold grid factorizes by axis.
    mapped_rows = mapping.sr  # sum of per-row-fold mapped rows
    mapped_cols = mapping.sc
    mapped = mapped_rows * mapped_cols
    available = row_folds * col_folds * array_rows * array_cols
    return mapped / available
