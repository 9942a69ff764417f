"""Weight-stationary (WS) dataflow engine.

Under WS (Fig. 3b / Fig. 6b), filter elements are pre-filled into the
array — column ``j`` holds filter ``j``, row ``i`` holds window element
``i`` (``S_R = W_conv``, ``S_C = N_filter``) — and IFMAP windows stream
through for ``T = N_ofmap`` cycles, with partial sums reduced down each
column.

Per-fold phase structure (fold-local cycles, ``tau = 2r + c + T - 2``):

* Prefill, cycles ``[0, r)``: one filter-matrix row per cycle (``c``
  reads each), bottom row first so weights land in place.
* Stream: IFMAP row ``i`` is read once per cycle during
  ``[r + i, r + i + T - 1]`` (skewed so sums align down the column).
* Drain: column ``j`` emits the window-``w`` output at cycle
  ``2r - 1 + j + w`` — one write per active column per cycle.
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


class WeightStationaryEngine(DataflowEngine):
    """Cycle-accurate WS execution of one GEMM on one array."""

    dataflow = Dataflow.WEIGHT_STATIONARY
    ifmap_slice_axis = "row"
    filter_slice_axis = "tile"

    def fold_counts(self, fold: Fold) -> SramCounts:
        t = self.mapping.t
        return SramCounts(
            ifmap_reads=fold.rows * t,
            filter_reads=fold.rows * fold.cols,
            ofmap_writes=fold.cols * t,
        )

    def fold_demand(self, fold: Fold) -> FoldDemand:
        import numpy as np

        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        r, c = fold.rows, fold.cols
        filt = np.zeros(cycles, dtype=np.int64)
        filt[:r] = c
        ifmap = _stream_window_counts(cycles, r, t, start=r)
        writes = _stream_window_counts(cycles, c, t, start=2 * r - 1)
        return FoldDemand(cycles=cycles, ifmap_reads=ifmap, filter_reads=filt, ofmap_writes=writes)

    def fold_trace(self, fold: Fold, layout: AddressLayout) -> Iterator[CycleTrace]:
        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        r, c = fold.rows, fold.cols
        ro, co = fold.row_offset, fold.col_offset
        for cycle in range(cycles):
            filter_addrs = ()
            if cycle < r:
                elem = ro + (r - 1 - cycle)  # bottom row of weights enters first
                filter_addrs = tuple(layout.filter_addr(elem, co + j) for j in range(c))
            s = cycle - r
            ifmap_addrs = tuple(
                layout.ifmap_addr(s - i, ro + i)
                for i in range(max(0, s - t + 1), min(r - 1, s) + 1)
            ) if s >= 0 else ()
            d = cycle - (2 * r - 1)
            ofmap_addrs = tuple(
                layout.ofmap_addr(d - j, co + j)
                for j in range(max(0, d - t + 1), min(c - 1, d) + 1)
            ) if d >= 0 else ()
            yield CycleTrace(cycle, ifmap_addrs, filter_addrs, ofmap_addrs)

    def ifmap_slice(self, fold: Fold) -> OperandSlice:
        """WS streams window elements [ro, ro+r) of every window: keyed by row-fold."""
        return OperandSlice(
            stream="ifmap",
            slice_id=("row", fold.row_index),
            elements=fold.rows * self.mapping.t,
        )

    def filter_slice(self, fold: Fold) -> OperandSlice:
        """WS pre-fills an r x c tile of the filter matrix: unique per fold."""
        return OperandSlice(
            stream="filter",
            slice_id=("tile", fold.row_index, fold.col_index),
            elements=fold.rows * fold.cols,
        )

    def fold_ofmap_elements(self, fold: Fold) -> int:
        """Each active column emits T partial outputs (full sums only when
        the whole K dimension fits one row-fold; partial sums otherwise —
        SCALE-Sim writes them back either way)."""
        return fold.cols * self.mapping.t
