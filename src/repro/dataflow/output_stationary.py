"""Output-stationary (OS) dataflow engine.

Under OS (Fig. 3a / Fig. 6a), each PE owns one output pixel: rows of the
array carry convolution windows (``S_R = N_ofmap``), columns carry
filters (``S_C = N_filter``), and every PE accumulates for
``T = W_conv`` cycles.  Operands stream in skewed from the left (IFMAP)
and top (filters); results drain out of the bottom edge for ``r`` cycles
after the last PE finishes.

Per-fold phase structure (fold-local cycles, ``tau = 2r + c + T - 2``):

* IFMAP row ``i`` is read once per cycle during ``[i, i + T - 1]``.
* Filter column ``j`` is read once per cycle during ``[j, j + T - 1]``.
* Output row ``r-1-s`` (bottom first) is written, one element per
  mapped column, at cycle ``tau - r + s`` for ``s in [0, r)``.
"""

from __future__ import annotations

from typing import Iterator

from repro.config.hardware import Dataflow
from repro.dataflow.base import (
    AddressLayout,
    CycleTrace,
    DataflowEngine,
    FoldDemand,
    OperandSlice,
    SramCounts,
    _stream_window_counts,
)
from repro.mapping.folds import Fold


class OutputStationaryEngine(DataflowEngine):
    """Cycle-accurate OS execution of one GEMM on one array."""

    dataflow = Dataflow.OUTPUT_STATIONARY
    ifmap_slice_axis = "row"
    filter_slice_axis = "col"

    def fold_counts(self, fold: Fold) -> SramCounts:
        t = self.mapping.t
        return SramCounts(
            ifmap_reads=fold.rows * t,
            filter_reads=fold.cols * t,
            ofmap_writes=fold.rows * fold.cols,
        )

    def fold_demand(self, fold: Fold) -> FoldDemand:
        import numpy as np

        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        ifmap = _stream_window_counts(cycles, fold.rows, t, start=0)
        filt = _stream_window_counts(cycles, fold.cols, t, start=0)
        writes = np.zeros(cycles, dtype=np.int64)
        writes[cycles - fold.rows :] = fold.cols
        return FoldDemand(cycles=cycles, ifmap_reads=ifmap, filter_reads=filt, ofmap_writes=writes)

    def fold_trace(self, fold: Fold, layout: AddressLayout) -> Iterator[CycleTrace]:
        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        r, c = fold.rows, fold.cols
        ro, co = fold.row_offset, fold.col_offset
        drain_start = cycles - r
        for cycle in range(cycles):
            ifmap_addrs = tuple(
                layout.ifmap_addr(ro + i, cycle - i)
                for i in range(max(0, cycle - t + 1), min(r - 1, cycle) + 1)
            )
            filter_addrs = tuple(
                layout.filter_addr(cycle - j, co + j)
                for j in range(max(0, cycle - t + 1), min(c - 1, cycle) + 1)
            )
            ofmap_addrs = ()
            if cycle >= drain_start:
                out_row = ro + (r - 1 - (cycle - drain_start))
                ofmap_addrs = tuple(layout.ofmap_addr(out_row, co + j) for j in range(c))
            yield CycleTrace(cycle, ifmap_addrs, filter_addrs, ofmap_addrs)

    def ifmap_slice(self, fold: Fold) -> OperandSlice:
        """OS reads T IFMAP elements per mapped row: one row-block per row-fold."""
        return OperandSlice(
            stream="ifmap",
            slice_id=("row", fold.row_index),
            elements=fold.rows * self.mapping.t,
        )

    def filter_slice(self, fold: Fold) -> OperandSlice:
        """OS reads T filter elements per mapped column: one col-block per col-fold."""
        return OperandSlice(
            stream="filter",
            slice_id=("col", fold.col_index),
            elements=fold.cols * self.mapping.t,
        )

    def fold_ofmap_elements(self, fold: Fold) -> int:
        return fold.rows * fold.cols
