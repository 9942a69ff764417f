"""Output-stationary with a dedicated output data plane (paper Sec. II-A).

The baseline OS array drains results through the PE mesh itself: "No
computation takes place in the array during this movement."  The paper
notes the alternative — "a separate data plane to move generated
output is also possible, however, it is costly to implement."  This
engine models that alternative so the cost/benefit can be quantified:

* each PE's finished output leaves immediately on the dedicated plane,
  the cycle its T-th accumulation completes — PE (i, j) finishes at
  fold-local cycle ``i + j + T - 1``;
* the r-cycle drain phase disappears entirely, so one fold takes
  ``tau_F = r + c + T - 2`` cycles (vs ``2r + c + T - 2``);
* operand feeding, SRAM read traffic and DRAM behaviour are identical
  to the baseline OS engine.

Writes form anti-diagonal wavefronts: at cycle ``t``, every PE with
``i + j == t - (T - 1)`` emits one output.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.dataflow.base import AddressLayout, CycleTrace, FoldDemand
from repro.dataflow.output_stationary import OutputStationaryEngine
from repro.mapping.folds import Fold

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def _antidiagonal_counts(length: int, rows: int, cols: int, start: int) -> np.ndarray:
    """Per-cycle size of the anti-diagonal ``i + j == t - start``.

    For an ``rows x cols`` grid, diagonal ``d`` holds
    ``max(0, min(d, rows-1, cols-1, rows+cols-2-d) + 1)`` cells — the
    familiar ramp-plateau-ramp profile.
    """
    import numpy as np

    t = np.arange(length, dtype=np.int64)
    d = t - start
    upper = np.minimum(np.minimum(d, rows - 1), np.minimum(cols - 1, rows + cols - 2 - d))
    return np.where(d < 0, 0, np.maximum(0, upper + 1)).astype(np.int64)


class OutputStationaryDataPlaneEngine(OutputStationaryEngine):
    """OS with immediate output extraction over a dedicated plane."""

    def fold_cycles(self, fold: Fold) -> int:
        """No drain phase: r + c + T - 2."""
        return fold.rows + fold.cols + self.mapping.t - 2

    def fold_demand(self, fold: Fold) -> FoldDemand:
        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        base = super().fold_demand(fold)
        # Reads are the first `cycles` entries of the baseline profile
        # (the baseline's extra cycles are drain-only: zero reads).
        ifmap = base.ifmap_reads[:cycles]
        filt = base.filter_reads[:cycles]
        writes = _antidiagonal_counts(cycles, fold.rows, fold.cols, start=t - 1)
        return FoldDemand(cycles=cycles, ifmap_reads=ifmap, filter_reads=filt, ofmap_writes=writes)

    def fold_trace(self, fold: Fold, layout: AddressLayout) -> Iterator[CycleTrace]:
        cycles = self.fold_cycles(fold)
        t = self.mapping.t
        r, c = fold.rows, fold.cols
        ro, co = fold.row_offset, fold.col_offset
        for cycle in range(cycles):
            ifmap_addrs = tuple(
                layout.ifmap_addr(ro + i, cycle - i)
                for i in range(max(0, cycle - t + 1), min(r - 1, cycle) + 1)
            )
            filter_addrs = tuple(
                layout.filter_addr(cycle - j, co + j)
                for j in range(max(0, cycle - t + 1), min(c - 1, cycle) + 1)
            )
            d = cycle - (t - 1)
            ofmap_addrs = tuple(
                layout.ofmap_addr(ro + i, co + (d - i))
                for i in range(max(0, d - c + 1), min(r - 1, d) + 1)
            ) if d >= 0 else ()
            yield CycleTrace(cycle, ifmap_addrs, filter_addrs, ofmap_addrs)
