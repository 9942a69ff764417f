"""Input-stationary (IS) dataflow engine.

IS (Fig. 3c / Fig. 5c) mirrors WS with the operand roles swapped: IFMAP
elements are pre-filled — column ``j`` holds window ``j``, row ``i``
holds window element ``i`` (``S_R = W_conv``, ``S_C = N_ofmap``) — and
filters stream through for ``T = N_filter`` cycles, partial sums
reducing down each column.

Per-fold phase structure (fold-local cycles, ``tau = 2r + c + T - 2``):

* Prefill, cycles ``[0, r)``: one IFMAP-matrix element-row per cycle
  (``c`` reads each), bottom row first.
* Stream: filter row ``i`` is read once per cycle during
  ``[r + i, r + i + T - 1]``.
* Drain: column ``j`` emits the filter-``f`` output at cycle
  ``2r - 1 + j + f``.
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


class InputStationaryEngine(DataflowEngine):
    """Cycle-accurate IS execution of one GEMM on one array."""

    dataflow = Dataflow.INPUT_STATIONARY
    ifmap_slice_axis = "tile"
    filter_slice_axis = "row"

    def fold_counts(self, fold: Fold) -> SramCounts:
        t = self.mapping.t
        return SramCounts(
            ifmap_reads=fold.rows * fold.cols,
            filter_reads=fold.rows * t,
            ofmap_writes=fold.cols * t,
        )

    def fold_demand(self, fold: Fold) -> FoldDemand:
        import numpy as np

        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        r, c = fold.rows, fold.cols
        ifmap = np.zeros(cycles, dtype=np.int64)
        ifmap[:r] = c
        filt = _stream_window_counts(cycles, r, t, start=r)
        writes = _stream_window_counts(cycles, c, t, start=2 * r - 1)
        return FoldDemand(cycles=cycles, ifmap_reads=ifmap, filter_reads=filt, ofmap_writes=writes)

    def fold_trace(self, fold: Fold, layout: AddressLayout) -> Iterator[CycleTrace]:
        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        r, c = fold.rows, fold.cols
        ro, co = fold.row_offset, fold.col_offset
        for cycle in range(cycles):
            ifmap_addrs = ()
            if cycle < r:
                elem = ro + (r - 1 - cycle)  # bottom row of stationary inputs first
                ifmap_addrs = tuple(layout.ifmap_addr(co + j, elem) for j in range(c))
            s = cycle - r
            filter_addrs = tuple(
                layout.filter_addr(ro + i, s - i)
                for i in range(max(0, s - t + 1), min(r - 1, s) + 1)
            ) if s >= 0 else ()
            d = cycle - (2 * r - 1)
            ofmap_addrs = tuple(
                layout.ofmap_addr(co + j, d - j)
                for j in range(max(0, d - t + 1), min(c - 1, d) + 1)
            ) if d >= 0 else ()
            yield CycleTrace(cycle, ifmap_addrs, filter_addrs, ofmap_addrs)

    def ifmap_slice(self, fold: Fold) -> OperandSlice:
        """IS pre-fills an r x c tile of the IFMAP matrix: unique per fold."""
        return OperandSlice(
            stream="ifmap",
            slice_id=("tile", fold.row_index, fold.col_index),
            elements=fold.rows * fold.cols,
        )

    def filter_slice(self, fold: Fold) -> OperandSlice:
        """IS streams filter rows [ro, ro+r) of every filter: keyed by row-fold."""
        return OperandSlice(
            stream="filter",
            slice_id=("row", fold.row_index),
            elements=fold.rows * self.mapping.t,
        )

    def fold_ofmap_elements(self, fold: Fold) -> int:
        return fold.cols * self.mapping.t
