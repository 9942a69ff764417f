"""Fold-order reuse model: which operand slices must be (re)fetched.

SCALE-Sim derives the DRAM trace from the SRAM trace by asking, fold by
fold, whether the data a fold consumes is already resident in the
double-buffered SRAM.  This module implements that decision as a pure
function over the per-fold :class:`~repro.dataflow.base.OperandSlice`
sequence an engine produces:

* If the *entire* operand fits in the buffer's working half, every
  element is fetched exactly once (perfect reuse) — charged to the
  first fold that touches each slice.
* Otherwise a slice is fetched whenever it differs from the slice the
  previous fold used (the resident one), and re-fetched on every fold
  if a single slice alone overflows the working half (streaming).

Because fold order is row-major over the fold grid, this reproduces the
classic behaviour: under OS the IFMAP row-block is fetched once per row
fold while the filter col-blocks are re-fetched for every row fold
unless the whole filter matrix fits on chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.dataflow.base import OperandSlice
from repro.memory.buffers import DoubleBuffer
from repro.memory.foldruns import FoldRuns
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class OperandTraffic:
    """DRAM read traffic for one operand stream across a layer.

    ``per_fold_bytes`` holds, as fold runs, what must be prefetched for
    each fold; ``total_bytes`` is their sum; ``unique_bytes`` the
    operand's footprint.  ``refetch_factor`` = total / unique measures
    lost reuse (1.0 means every byte moved exactly once).
    """

    stream: str
    per_fold_bytes: FoldRuns
    unique_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.per_fold_bytes.total()

    @property
    def refetch_factor(self) -> float:
        if self.unique_bytes == 0:
            return 0.0
        return self.total_bytes / self.unique_bytes


def per_fold_fetch_bytes(
    slices: Sequence[OperandSlice],
    unique_elements: int,
    buffer: DoubleBuffer,
    word_bytes: int,
) -> List[int]:
    """DRAM fetch bytes of one operand stream, fold by fold.

    ``slices`` lists, in fold-execution order, the operand chunk each
    fold needs; ``unique_elements`` is the operand matrix footprint.
    """
    check_positive_int(word_bytes, "word_bytes")
    check_positive_int(unique_elements, "unique_elements")
    if not slices:
        raise ValueError("slices must be non-empty")
    stream = slices[0].stream
    for piece in slices:
        if piece.stream != stream:
            raise ValueError(
                f"mixed operand streams in one traffic computation: "
                f"{stream!r} vs {piece.stream!r}"
            )

    per_fold: List[int] = []
    if buffer.holds(unique_elements * word_bytes):
        # Whole operand fits: each distinct slice is fetched exactly once,
        # on the first fold that touches it.
        seen = set()
        for piece in slices:
            if piece.slice_id in seen:
                per_fold.append(0)
            else:
                seen.add(piece.slice_id)
                per_fold.append(piece.elements * word_bytes)
        return per_fold

    previous_id = None
    for piece in slices:
        piece_bytes = piece.elements * word_bytes
        streaming = not buffer.holds(piece_bytes)
        if streaming or piece.slice_id != previous_id:
            per_fold.append(piece_bytes)
        else:
            per_fold.append(0)
        previous_id = piece.slice_id
    return per_fold

