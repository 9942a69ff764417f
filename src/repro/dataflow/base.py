"""Shared machinery for the three dataflow engines.

Every engine models the execution of one mapped GEMM
(``(M x K) @ (K x N)``) on an ``R x C`` systolic array as a sequence of
*folds* (Sec. III-B2).  For each fold it can produce three views of the
same execution, in increasing levels of detail:

1. ``fold_counts``  — exact totals: SRAM reads per operand and writes.
2. ``fold_demand``  — exact per-cycle read/write counts (numpy arrays).
3. ``fold_trace``   — exact per-cycle SRAM *addresses* (generator).

All three views are mutually consistent by construction and the test
suite asserts it: summing a demand array reproduces the counts, and
counting trace addresses reproduces the demand array.

The fold latency is the paper's Eq. 3 for all three dataflows::

    tau_F = 2r + c + T - 2

where ``r``/``c`` are the rows/columns mapped in this fold and ``T`` is
the temporal dimension from Table III.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterator, List, Tuple

from repro.config.hardware import Dataflow
from repro.errors import MappingError
from repro.mapping.dims import OperandMapping, map_gemm
from repro.mapping.folds import Fold, FoldPlan, plan_folds
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def fold_cycles(rows: int, cols: int, temporal: int) -> int:
    """Eq. 3: cycles for one fold with ``rows x cols`` mapped PEs.

    ``2r`` covers feeding the row dimension and draining the results,
    ``c`` the column skew, and ``T`` the streaming depth; the ``-2``
    removes the fencepost overlaps.  Identical for OS, WS and IS
    (Sec. III-B1 shows the derivation for each).
    """
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    check_positive_int(temporal, "temporal")
    return 2 * rows + cols + temporal - 2


@dataclass(frozen=True)
class SramCounts:
    """Exact SRAM traffic of one fold (or a whole layer), in elements."""

    ifmap_reads: int = 0
    filter_reads: int = 0
    ofmap_writes: int = 0

    def __add__(self, other: "SramCounts") -> "SramCounts":
        return SramCounts(
            ifmap_reads=self.ifmap_reads + other.ifmap_reads,
            filter_reads=self.filter_reads + other.filter_reads,
            ofmap_writes=self.ofmap_writes + other.ofmap_writes,
        )

    def __mul__(self, count: int) -> "SramCounts":
        if not isinstance(count, int) or isinstance(count, bool):
            return NotImplemented
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return SramCounts(
            ifmap_reads=self.ifmap_reads * count,
            filter_reads=self.filter_reads * count,
            ofmap_writes=self.ofmap_writes * count,
        )

    __rmul__ = __mul__

    @property
    def total_reads(self) -> int:
        return self.ifmap_reads + self.filter_reads

    @property
    def total(self) -> int:
        return self.total_reads + self.ofmap_writes


@dataclass(frozen=True)
class OperandSlice:
    """The chunk of one operand matrix a fold needs resident in SRAM.

    ``slice_id`` identifies the chunk: consecutive folds with the same
    id reuse the resident data and need no new DRAM fetch (the
    double-buffer reuse model in :mod:`repro.memory.reuse` keys on it).
    """

    stream: str  # "ifmap" | "filter"
    slice_id: Hashable
    elements: int

    def __post_init__(self) -> None:
        if self.stream not in ("ifmap", "filter"):
            raise MappingError(f"unknown operand stream {self.stream!r}")
        check_positive_int(self.elements, "elements")


@dataclass(frozen=True)
class FoldDemand:
    """Per-cycle SRAM demand of one fold.

    Arrays all have length ``cycles``; entry ``t`` is the number of
    elements read (written) from that stream at fold-local cycle ``t``.
    """

    cycles: int
    ifmap_reads: np.ndarray
    filter_reads: np.ndarray
    ofmap_writes: np.ndarray

    def totals(self) -> SramCounts:
        return SramCounts(
            ifmap_reads=int(self.ifmap_reads.sum()),
            filter_reads=int(self.filter_reads.sum()),
            ofmap_writes=int(self.ofmap_writes.sum()),
        )


@dataclass(frozen=True)
class CycleTrace:
    """All SRAM events of one cycle: the trace-file row format.

    Addresses are absolute (operand offset already applied).
    """

    cycle: int
    ifmap_addrs: Tuple[int, ...] = ()
    filter_addrs: Tuple[int, ...] = ()
    ofmap_addrs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AddressLayout:
    """Linear addressing of the three operand matrices.

    The lowered input operand is an ``M x K`` matrix (one row per
    convolution window), the filter operand a ``K x N`` matrix (one
    column per filter) and the output an ``M x N`` matrix; all three are
    stored row-major starting at their Table I offsets.
    """

    m: int
    k: int
    n: int
    ifmap_offset: int = 0
    filter_offset: int = 10_000_000
    ofmap_offset: int = 20_000_000

    def ifmap_addr(self, window: int, element: int) -> int:
        """Address of IFMAP-matrix entry (window row, window element)."""
        return self.ifmap_offset + window * self.k + element

    def filter_addr(self, element: int, filt: int) -> int:
        """Address of filter-matrix entry (window element, filter column)."""
        return self.filter_offset + element * self.n + filt

    def ofmap_addr(self, window: int, filt: int) -> int:
        """Address of OFMAP-matrix entry (window row, filter column)."""
        return self.ofmap_offset + window * self.n + filt


def _stream_window_counts(length: int, active_rows: int, depth: int, start: int) -> np.ndarray:
    """Per-cycle count of active skewed streams.

    Stream ``i`` (``0 <= i < active_rows``) is active during cycles
    ``[start + i, start + i + depth - 1]``.  Returns an array of length
    ``length`` whose entry ``t`` counts the active streams at cycle ``t``.
    This one shape covers every feed/drain phase of all three dataflows.
    """
    import numpy as np

    t = np.arange(length, dtype=np.int64)
    s = t - start
    lo = np.maximum(0, s - depth + 1)
    hi = np.minimum(s, active_rows - 1)
    return np.maximum(0, hi - lo + 1).astype(np.int64)


class DataflowEngine(abc.ABC):
    """Cycle-accurate model of one GEMM on one array under one dataflow."""

    #: Which dataflow this engine implements; set by subclasses.
    dataflow: Dataflow

    #: Whether per-fold timing and SRAM counts depend only on the fold's
    #: ``(rows, cols)`` shape.  True for all Eq. 3 dataflows, which lets
    #: layer aggregates be computed from the <=4 fold shape classes
    #: instead of iterating all F_R x F_C folds.  Subclasses whose
    #: ``fold_cycles``/``fold_counts`` depend on fold *position* (not
    #: just shape) must set this False to restore the exhaustive walk.
    shape_uniform_folds: bool = True

    #: Which fold-grid axis each operand slice is keyed on: "row" (one
    #: slice per row fold), "col" (one per column fold), or "tile" (one
    #: per fold).  ``None`` means unknown — the closed-form DRAM-traffic
    #: path only engages when both are declared.
    ifmap_slice_axis: str | None = None
    filter_slice_axis: str | None = None

    def __init__(self, m: int, k: int, n: int, array_rows: int, array_cols: int):
        self.m = check_positive_int(m, "m")
        self.k = check_positive_int(k, "k")
        self.n = check_positive_int(n, "n")
        self.array_rows = check_positive_int(array_rows, "array_rows")
        self.array_cols = check_positive_int(array_cols, "array_cols")
        self.mapping: OperandMapping = map_gemm(m, k, n, self.dataflow)
        self.plan: FoldPlan = plan_folds(self.mapping, array_rows, array_cols)

    # ------------------------------------------------------------------
    # Shared timing
    # ------------------------------------------------------------------
    def fold_cycles(self, fold: Fold) -> int:
        """Eq. 3 latency of one fold."""
        return fold_cycles(fold.rows, fold.cols, self.mapping.t)

    def total_cycles(self) -> int:
        """Layer latency: folds execute back to back (SCALE-Sim v1).

        When fold latency depends only on fold shape (Eq. 3 does), the
        sum collapses to the <=4 shape classes weighted by multiplicity.
        """
        if self.shape_uniform_folds:
            return sum(
                count * self.fold_cycles(fold)
                for fold, count in self.plan.shape_classes()
            )
        return sum(self.fold_cycles(fold) for fold in self.plan.folds())

    # ------------------------------------------------------------------
    # Per-fold views, implemented by each dataflow
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fold_counts(self, fold: Fold) -> SramCounts:
        """Exact SRAM element totals for one fold."""

    @abc.abstractmethod
    def fold_demand(self, fold: Fold) -> FoldDemand:
        """Exact per-cycle SRAM demand for one fold."""

    @abc.abstractmethod
    def fold_trace(self, fold: Fold, layout: AddressLayout) -> Iterator[CycleTrace]:
        """Exact per-cycle SRAM addresses for one fold."""

    @abc.abstractmethod
    def ifmap_slice(self, fold: Fold) -> OperandSlice:
        """The IFMAP-operand chunk this fold needs resident."""

    @abc.abstractmethod
    def filter_slice(self, fold: Fold) -> OperandSlice:
        """The filter-operand chunk this fold needs resident."""

    def fold_ofmap_elements(self, fold: Fold) -> int:
        """Distinct output elements produced by one fold."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Layer-level aggregation
    # ------------------------------------------------------------------
    def layer_counts(self) -> SramCounts:
        """Exact SRAM element totals across the whole layer.

        Aggregated from fold shape classes when counts are a pure
        function of fold shape (all Eq. 3 dataflows).
        """
        if self.shape_uniform_folds:
            total = SramCounts()
            for fold, count in self.plan.shape_classes():
                total = total + self.fold_counts(fold) * count
            return total
        total = SramCounts()
        for fold in self.plan.folds():
            total = total + self.fold_counts(fold)
        return total

    def layer_trace(self, layout: AddressLayout) -> Iterator[CycleTrace]:
        """Full layer trace with globally increasing cycle numbers."""
        base = 0
        for fold in self.plan.folds():
            for row in self.fold_trace(fold, layout):
                yield CycleTrace(
                    cycle=base + row.cycle,
                    ifmap_addrs=row.ifmap_addrs,
                    filter_addrs=row.filter_addrs,
                    ofmap_addrs=row.ofmap_addrs,
                )
            base += self.fold_cycles(fold)

    def mapping_utilization(self) -> float:
        """Average fraction of PEs carrying valid mappings, over folds.

        This is the "array utilization" of Fig. 9(b-c): edge folds map
        fewer than R x C PEs, diluting utilization.
        """
        total_pes = self.array_rows * self.array_cols
        # mapped PEs summed over all folds telescopes to S_R x S_C.
        mapped = sum(
            count * fold.mapped_pes for fold, count in self.plan.shape_classes()
        )
        return mapped / (total_pes * self.plan.num_folds)

    def compute_utilization(self, total_cycles: int | None = None) -> float:
        """Useful MACs / (PEs x total cycles): includes fill/drain overhead.

        Pass ``total_cycles`` when the caller already computed it, to
        avoid a redundant fold-plan aggregation.
        """
        if total_cycles is None:
            total_cycles = self.total_cycles()
        total = total_cycles * self.array_rows * self.array_cols
        return (self.m * self.k * self.n) / total

    @property
    def layer_macs(self) -> int:
        return self.m * self.k * self.n
