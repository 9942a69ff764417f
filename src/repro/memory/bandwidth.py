"""Stall-free DRAM bandwidth accounting (Fig. 11 of the paper).

Double buffering turns prefetching into a pipelining constraint: the
bytes fold ``k`` will consume must arrive while fold ``k-1`` executes,
and the outputs fold ``k`` produced drain while fold ``k+1`` executes.
The *stall-free bandwidth requirement* is therefore the largest
per-fold transfer rate this schedule ever demands; the *average
bandwidth* is total bytes over total cycles.  Fold 0's operands have no
predecessor to hide behind — they are reported separately as the
cold-start bytes (SCALE-Sim's initial prefetch delay).

Every per-fold sequence is held as :class:`~repro.memory.foldruns.FoldRuns`
(loop-order blocks of ``(value, count)`` runs).  Two implementations
produce the same (asserted-identical) numbers:

* the *iterative* path walks every fold, calling back into the engine
  for slices, output volumes and latencies, and walks the fold lists
  for the peaks — the reference semantics;
* the *closed-form* path exploits that folds come in at most four shape
  classes (interior, edge-row, edge-col, corner) and that each engine
  declares which fold-grid axis keys its operand slices, so the fold
  runs are assembled from <= 4 engine probes and totals, cold start and
  peaks come from the runs, with no O(F_R x F_C) work at all.

The closed-form path self-checks its assumptions against probe slices
from the representative folds and silently falls back to the iterative
path on any mismatch, so custom engines stay correct by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.dataflow.base import DataflowEngine
from repro.mapping.folds import Fold
from repro.memory.buffers import BufferSet, DoubleBuffer
from repro.memory.foldruns import FoldRuns
from repro.memory.reuse import OperandTraffic, per_fold_fetch_bytes


@dataclass(frozen=True)
class BandwidthProfile:
    """Bandwidth requirements of one layer, in bytes per cycle."""

    avg_read_bw: float
    avg_write_bw: float
    peak_read_bw: float
    peak_write_bw: float

    @property
    def avg_total_bw(self) -> float:
        return self.avg_read_bw + self.avg_write_bw

    @property
    def peak_total_bw(self) -> float:
        return self.peak_read_bw + self.peak_write_bw


@dataclass(frozen=True)
class DramTraffic:
    """Complete DRAM-side picture of one layer on one array."""

    ifmap: OperandTraffic
    filter: OperandTraffic
    ofmap_per_fold_bytes: FoldRuns
    cold_start_bytes: int
    fold_cycles: FoldRuns
    bandwidth: BandwidthProfile

    @property
    def read_per_fold_bytes(self) -> FoldRuns:
        """Bytes prefetched for each fold: IFMAP plus filter."""
        return self.ifmap.per_fold_bytes.combine(self.filter.per_fold_bytes)

    @property
    def ofmap_write_bytes(self) -> int:
        return self.ofmap_per_fold_bytes.total()

    @property
    def read_bytes(self) -> int:
        return self.ifmap.total_bytes + self.filter.total_bytes

    @property
    def write_bytes(self) -> int:
        return self.ofmap_write_bytes

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def total_cycles(self) -> int:
        return self.fold_cycles.total()


def _stall_free_bandwidths(
    read_per_fold: FoldRuns,
    write_per_fold: FoldRuns,
    fold_cycles: FoldRuns,
) -> BandwidthProfile:
    """Max/avg transfer rates implied by the double-buffer schedule.

    The peaks range over the distinct adjacent fold pairs of the runs,
    so they cost O(blocks x runs).  ``int / int`` is correctly rounded,
    so each rate is bit-identical to the per-fold walk's.
    """
    total_cycles = fold_cycles.total()
    if len(fold_cycles) == 1:
        # Single fold: everything must move within the fold itself.
        peak_read = read_per_fold.first / fold_cycles.first
        peak_write = write_per_fold.first / fold_cycles.first
    else:
        read_pairs = fold_cycles.adjacent_pairs(read_per_fold)
        write_pairs = write_per_fold.adjacent_pairs(fold_cycles)
        # Fold k's operands prefetch during fold k-1.
        peak_read = max((read / cycles for (cycles, _), (_, read) in read_pairs), default=0.0)
        # Fold k-1's outputs drain during fold k; the final fold's
        # outputs also need one fold-time to drain.
        peak_write = max(
            max((write / cycles for (write, _), (_, cycles) in write_pairs), default=0.0),
            write_per_fold.last / fold_cycles.last,
        )
    return BandwidthProfile(
        avg_read_bw=read_per_fold.total() / total_cycles,
        avg_write_bw=write_per_fold.total() / total_cycles,
        peak_read_bw=peak_read,
        peak_write_bw=peak_write,
    )


def _walked_bandwidths(
    read_per_fold: Sequence[int],
    write_per_fold: Sequence[int],
    fold_cycles: Sequence[int],
) -> BandwidthProfile:
    """Reference for :func:`_stall_free_bandwidths`: walk every fold."""
    total_cycles = sum(fold_cycles)
    if len(fold_cycles) == 1:
        peak_read = read_per_fold[0] / fold_cycles[0]
        peak_write = write_per_fold[0] / fold_cycles[0]
    else:
        peak_read = 0.0
        peak_write = 0.0
        for k in range(1, len(fold_cycles)):
            peak_read = max(peak_read, read_per_fold[k] / fold_cycles[k - 1])
            peak_write = max(peak_write, write_per_fold[k - 1] / fold_cycles[k])
        peak_write = max(peak_write, write_per_fold[-1] / fold_cycles[-1])
    return BandwidthProfile(
        avg_read_bw=sum(read_per_fold) / total_cycles,
        avg_write_bw=sum(write_per_fold) / total_cycles,
        peak_read_bw=peak_read,
        peak_write_bw=peak_write,
    )


# ----------------------------------------------------------------------
# Closed-form fast path
# ----------------------------------------------------------------------

def _probe_slice_elements(
    engine: DataflowEngine,
    which: str,
    axis: str,
    classes: Sequence[Tuple[Fold, int]],
) -> Optional[Dict[Hashable, int]]:
    """Probe representative folds and map axis key -> slice elements.

    Returns ``None`` when the engine's actual slices contradict its
    declared axis (wrong ``slice_id`` structure, or element counts that
    vary along the supposedly irrelevant axis) — the caller then falls
    back to the exhaustive walk.
    """
    elems: Dict[Hashable, int] = {}
    for fold, _ in classes:
        piece = engine.ifmap_slice(fold) if which == "ifmap" else engine.filter_slice(fold)
        if axis == "row":
            expected: Hashable = ("row", fold.row_index)
            key: Hashable = fold.row_index
        elif axis == "col":
            expected = ("col", fold.col_index)
            key = fold.col_index
        elif axis == "tile":
            expected = ("tile", fold.row_index, fold.col_index)
            key = (fold.row_index, fold.col_index)
        else:
            return None
        if piece.slice_id != expected:
            return None
        if key in elems and elems[key] != piece.elements:
            return None
        elems[key] = piece.elements
    return elems


def _shape_runs(
    value: Callable[[int, int], int],
    outer: Sequence[Tuple[int, int, int]],
    inner: Sequence[Tuple[int, int, int]],
    order: str,
) -> FoldRuns:
    """The fold runs (loop order) of a shape-only quantity.

    ``value(row_index, col_index)`` is evaluated once per shape class
    (<= 4 calls): one block per outer class, one run per inner class.
    """
    blocks = []
    for _, o_count, oi in outer:
        runs = []
        for _, i_count, ii in inner:
            ri, ci = (oi, ii) if order == "row" else (ii, oi)
            runs.append((value(ri, ci), i_count))
        blocks.append((runs, o_count))
    return FoldRuns(blocks)


def _closed_form_operand(
    stream: str,
    axis: str,
    elems: Dict[Hashable, int],
    unique_elements: int,
    buffer: DoubleBuffer,
    word_bytes: int,
    outer: Sequence[Tuple[int, int, int]],
    inner: Sequence[Tuple[int, int, int]],
    order: str,
) -> OperandTraffic:
    """Reproduce :func:`~repro.memory.reuse.per_fold_fetch_bytes`, as
    fold runs, from shape classes.

    The declared slice axis fixes the slice-id change pattern over the
    fold sequence, so fetch decisions collapse per axis class:

    * axis == outer loop axis: a new slice on the first fold of each
      outer block, re-fetched within the block only when streaming;
    * axis == inner loop axis: the slice id changes on every fold when
      F_inner > 1 (fetch everywhere unless the whole operand fits, in
      which case only the first outer block pays); constant when
      F_inner == 1 (fetch once, or every fold when streaming);
    * axis == "tile": every fold brings a distinct slice — always fetch.
    """
    n_outer = sum(count for _, count, _ in outer)
    n_inner = sum(count for _, count, _ in inner)
    unique_bytes = unique_elements * word_bytes
    whole_fits = buffer.holds(unique_bytes)
    outer_axis = "row" if order == "row" else "col"
    inner_axis = "col" if order == "row" else "row"

    if axis == "tile":
        per_fold = _shape_runs(
            lambda ri, ci: elems[(ri, ci)] * word_bytes, outer, inner, order
        )
    elif axis == outer_axis:
        blocks = []
        for _, o_count, oi in outer:
            piece_bytes = elems[oi] * word_bytes
            streaming = not whole_fits and not buffer.holds(piece_bytes)
            rest = piece_bytes if streaming else 0
            blocks.append((((piece_bytes, 1), (rest, n_inner - 1)), o_count))
        per_fold = FoldRuns(blocks)
    elif axis == inner_axis:
        first_block = tuple(
            (elems[ii] * word_bytes, i_count) for _, i_count, ii in inner
        )
        if whole_fits:
            per_fold = FoldRuns(((first_block, 1), (((0, n_inner),), n_outer - 1)))
        elif n_inner > 1:
            per_fold = FoldRuns(((first_block, n_outer),))
        else:
            piece_bytes = first_block[0][0]
            streaming = not buffer.holds(piece_bytes)
            rest = piece_bytes if streaming else 0
            per_fold = FoldRuns(((first_block, 1), (((rest, 1),), n_outer - 1)))
    else:  # pragma: no cover - guarded by the axis probe
        raise ValueError(f"unknown slice axis {axis!r}")
    return OperandTraffic(stream=stream, per_fold_bytes=per_fold, unique_bytes=unique_bytes)


def _closed_form_traffic(
    engine: DataflowEngine,
    buffers: BufferSet,
    word_bytes: int,
    loop_order: str,
) -> Optional[DramTraffic]:
    """The shape-class DRAM traffic computation, or ``None`` if the
    engine's declarations don't support it."""
    if not getattr(engine, "shape_uniform_folds", False):
        return None
    ifmap_axis = getattr(engine, "ifmap_slice_axis", None)
    filter_axis = getattr(engine, "filter_slice_axis", None)
    if ifmap_axis is None or filter_axis is None:
        return None

    plan = engine.plan
    classes = plan.shape_classes()
    ifmap_elems = _probe_slice_elements(engine, "ifmap", ifmap_axis, classes)
    filter_elems = _probe_slice_elements(engine, "filter", filter_axis, classes)
    if ifmap_elems is None or filter_elems is None:
        return None

    if loop_order == "row":
        outer, inner = plan.row_classes(), plan.col_classes()
    else:
        outer, inner = plan.col_classes(), plan.row_classes()

    reps = {(fold.row_index, fold.col_index): fold for fold, _ in classes}
    fold_cycles = _shape_runs(
        lambda ri, ci: engine.fold_cycles(reps[(ri, ci)]), outer, inner, loop_order
    )
    write_per_fold = _shape_runs(
        lambda ri, ci: engine.fold_ofmap_elements(reps[(ri, ci)]) * word_bytes,
        outer,
        inner,
        loop_order,
    )
    ifmap_traffic = _closed_form_operand(
        "ifmap", ifmap_axis, ifmap_elems, engine.m * engine.k,
        buffers.ifmap, word_bytes, outer, inner, loop_order,
    )
    filter_traffic = _closed_form_operand(
        "filter", filter_axis, filter_elems, engine.k * engine.n,
        buffers.filter, word_bytes, outer, inner, loop_order,
    )
    read_per_fold = ifmap_traffic.per_fold_bytes.combine(filter_traffic.per_fold_bytes)
    bandwidth = _stall_free_bandwidths(read_per_fold, write_per_fold, fold_cycles)
    return DramTraffic(
        ifmap=ifmap_traffic,
        filter=filter_traffic,
        ofmap_per_fold_bytes=write_per_fold,
        cold_start_bytes=read_per_fold.first,
        fold_cycles=fold_cycles,
        bandwidth=bandwidth,
    )


def _iterative_traffic(
    engine: DataflowEngine,
    buffers: BufferSet,
    word_bytes: int,
    loop_order: str,
) -> DramTraffic:
    """Reference semantics: walk every fold of the plan.

    The per-fold lists are encoded as fold runs only at the end, in the
    same canonical form the closed form builds.
    """
    folds = list(engine.plan.folds(order=loop_order))
    n_inner = engine.plan.col_folds if loop_order == "row" else engine.plan.row_folds
    ifmap_per_fold = per_fold_fetch_bytes(
        [engine.ifmap_slice(fold) for fold in folds],
        engine.m * engine.k, buffers.ifmap, word_bytes,
    )
    filter_per_fold = per_fold_fetch_bytes(
        [engine.filter_slice(fold) for fold in folds],
        engine.k * engine.n, buffers.filter, word_bytes,
    )
    write_per_fold = [engine.fold_ofmap_elements(fold) * word_bytes for fold in folds]
    fold_cycles = [engine.fold_cycles(fold) for fold in folds]
    read_per_fold = [
        i_bytes + f_bytes for i_bytes, f_bytes in zip(ifmap_per_fold, filter_per_fold)
    ]

    def runs(values: List[int]) -> FoldRuns:
        return FoldRuns.from_list(values, n_inner)

    return DramTraffic(
        ifmap=OperandTraffic(
            stream="ifmap",
            per_fold_bytes=runs(ifmap_per_fold),
            unique_bytes=engine.m * engine.k * word_bytes,
        ),
        filter=OperandTraffic(
            stream="filter",
            per_fold_bytes=runs(filter_per_fold),
            unique_bytes=engine.k * engine.n * word_bytes,
        ),
        ofmap_per_fold_bytes=runs(write_per_fold),
        cold_start_bytes=read_per_fold[0],
        fold_cycles=runs(fold_cycles),
        bandwidth=_walked_bandwidths(read_per_fold, write_per_fold, fold_cycles),
    )


def compute_dram_traffic(
    engine: DataflowEngine,
    buffers: BufferSet,
    word_bytes: int,
    loop_order: str = "row",
) -> DramTraffic:
    """Derive the full DRAM traffic picture for one layer on one array.

    ``loop_order`` selects the fold iteration order ("row" is
    SCALE-Sim's default; "col" transposes the loop nest).  Runtime is
    order-independent, but which operand enjoys consecutive-fold reuse
    is not — see the fold-order ablation benchmark.

    Uses the closed-form shape-class computation whenever the engine
    declares shape-uniform folds and its operand slice axes; falls back
    to the exhaustive per-fold walk otherwise.  The two paths are
    asserted identical by the equivalence tests.
    """
    if loop_order not in ("row", "col"):
        # Delegate the error to the fold iterator for a uniform message.
        return _iterative_traffic(engine, buffers, word_bytes, loop_order)
    fast = _closed_form_traffic(engine, buffers, word_bytes, loop_order)
    if fast is not None:
        return fast
    return _iterative_traffic(engine, buffers, word_bytes, loop_order)
