"""Fold runs: a per-fold sequence stored as its loop-order structure.

Every per-fold quantity of a layer — fold latency, bytes prefetched,
bytes drained — is a sequence over the ``F = F_outer x F_inner`` folds
in loop order.  Folds come in at most four shape classes (interior,
edge-row, edge-col, corner), so such a sequence is a handful of
*blocks*, each one outer-loop iteration (``n_inner`` folds) long, each
a handful of ``(value, count)`` *runs*, and each repeated for the
consecutive outer iterations that look alike.

:class:`FoldRuns` keeps that structure in canonical form: adjacent
equal runs merge and equal consecutive blocks merge.  Two encodings of
one sequence with one block span are therefore the same object
structurally, so ``==`` and ``hash`` compare blocks, not folds.  Every
operation the double-buffer model needs — length, totals, first and
last fold, element-wise sum and the set of distinct adjacent fold
pairs — costs O(blocks x runs); for every closed-form layer that
is at most four blocks of at most four runs.  Only :meth:`expand`
walks the folds.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Iterable, List, Sequence, Set, Tuple

#: ``(value, count)``: ``count`` consecutive folds carrying ``value``.
Run = Tuple[Any, int]
#: ``(runs, repeat)``: one outer iteration's runs, ``repeat`` times over.
Block = Tuple[Tuple[Run, ...], int]


def _lockstep(left: Sequence[Run], right: Sequence[Run]) -> List[Tuple[Any, Any, int]]:
    """Walk two ``(value, count)`` sequences of equal total side by side.

    Returns ``(left_value, right_value, count)`` for each stretch over
    which neither side changes value.
    """
    out = []
    i = j = 0
    a, n = left[0]
    b, m = right[0]
    while True:
        if n < m:
            out.append((a, b, n))
            m -= n
            i += 1
            a, n = left[i]
        elif m < n:
            out.append((a, b, m))
            n -= m
            j += 1
            b, m = right[j]
        else:
            out.append((a, b, n))
            i += 1
            j += 1
            if i == len(left):
                return out
            a, n = left[i]
            b, m = right[j]


def _zipped(
    left: Sequence[Block], right: Sequence[Block], join: Callable[[Any, Any], Any]
) -> List[Block]:
    """Blocks of ``join(left[k], right[k])`` over two aligned block lists.

    The result is not canonical: equal neighbours may stay unmerged.
    """
    return [
        ([(join(a, b), count) for a, b, count in _lockstep(mine, theirs)], repeat)
        for mine, theirs, repeat in _lockstep(left, right)
    ]


def _pair(a: Any, b: Any) -> Tuple[Any, Any]:
    return a, b


def _block_pairs(runs: Sequence[Run], repeat: int) -> Set[Tuple[Any, Any]]:
    """Adjacent ``(earlier, later)`` values inside one block.

    A repeated block also wraps around: the last fold of one repeat
    precedes the first fold of the next.
    """
    pairs = set()
    earlier = None
    for index, (value, count) in enumerate(runs):
        if index:
            pairs.add((earlier, value))
        if count > 1:
            pairs.add((value, value))
        earlier = value
    if repeat > 1:
        pairs.add((earlier, runs[0][0]))
    return pairs


class FoldRuns:
    """A per-fold sequence as canonical blocks of ``(value, count)`` runs.

    ``blocks`` is a sequence of ``(runs, repeat)``; every block must
    span the same number of folds (one outer-loop iteration).  The
    constructor canonicalizes: empty runs and blocks drop, adjacent
    equal runs and equal consecutive blocks merge.  Instances are
    immutable.
    """

    __slots__ = ("blocks", "span", "_folds")

    def __init__(self, blocks: Iterable[Tuple[Iterable[Run], int]]):
        canonical: List[Block] = []
        span = 0
        for runs, repeat in blocks:
            if repeat < 1:
                if repeat:
                    raise ValueError(f"block repeat must be non-negative, got {repeat}")
                continue
            merged: List[Run] = []
            width = 0
            for value, count in runs:
                if count < 1:
                    if count:
                        raise ValueError(f"run count must be non-negative, got {count}")
                    continue
                width += count
                if merged and merged[-1][0] == value:
                    merged[-1] = (value, merged[-1][1] + count)
                else:
                    merged.append((value, count))
            if not width:
                continue
            if not span:
                span = width
            elif width != span:
                raise ValueError(f"every block must span the same folds: {width} != {span}")
            block = tuple(merged)
            if canonical and canonical[-1][0] == block:
                canonical[-1] = (block, canonical[-1][1] + repeat)
            else:
                canonical.append((block, repeat))
        if not canonical:
            raise ValueError("fold runs must cover at least one fold")
        set_slot = object.__setattr__
        set_slot(self, "blocks", tuple(canonical))
        set_slot(self, "span", span)
        set_slot(self, "_folds", span * sum(repeat for _, repeat in canonical))

    @classmethod
    def from_list(cls, values: Sequence, n_inner: int) -> "FoldRuns":
        """Encode a per-fold list whose outer iterations are ``n_inner`` long."""
        if n_inner < 1 or not values or len(values) % n_inner:
            raise ValueError(
                f"{len(values)} folds do not split into blocks of {n_inner}"
            )
        return cls(
            (
                [
                    (value, sum(1 for _ in group))
                    for value, group in itertools.groupby(values[start:start + n_inner])
                ],
                1,
            )
            for start in range(0, len(values), n_inner)
        )

    # ------------------------------------------------------------------
    # O(blocks x runs) views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._folds

    def total(self) -> int:
        """Sum over every fold."""
        return sum(
            repeat * sum(value * count for value, count in runs)
            for runs, repeat in self.blocks
        )

    @property
    def first(self) -> Any:
        """The first fold's value."""
        return self.blocks[0][0][0][0]

    @property
    def last(self) -> Any:
        """The last fold's value."""
        return self.blocks[-1][0][-1][0]

    def _check_aligned(self, other: "FoldRuns") -> None:
        if self._folds != other._folds or self.span != other.span:
            raise ValueError(
                f"cannot align fold runs of {self._folds} folds in blocks of "
                f"{self.span} with {other._folds} folds in blocks of {other.span}"
            )

    def combine(self, other: "FoldRuns") -> "FoldRuns":
        """Element-wise sum ``self[k] + other[k]`` over every fold ``k``."""
        self._check_aligned(other)
        return FoldRuns(_zipped(self.blocks, other.blocks, operator.add))

    def adjacent_pairs(self, other: "FoldRuns") -> Set[Tuple[Any, Any]]:
        """Every distinct ``(zipped[k-1], zipped[k])`` pair, ``k >= 1``,
        where ``zipped[k] = (self[k], other[k])``."""
        self._check_aligned(other)
        blocks = _zipped(self.blocks, other.blocks, _pair)
        pairs: Set[Tuple[Any, Any]] = set()
        for index, (runs, repeat) in enumerate(blocks):
            if index:
                pairs.add((blocks[index - 1][0][-1][0], runs[0][0]))
            pairs |= _block_pairs(runs, repeat)
        return pairs

    # ------------------------------------------------------------------
    # The O(F) walk
    # ------------------------------------------------------------------
    def expand(self) -> List:
        """The per-fold list, in loop order."""
        out: List = []
        for runs, repeat in self.blocks:
            block: List = []
            for value, count in runs:
                block += [value] * count
            out += block * repeat
        return out

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, FoldRuns):
            return self.blocks == other.blocks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"FoldRuns({self.blocks!r})"

    def __reduce__(self):
        return FoldRuns, (self.blocks,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FoldRuns is immutable")

    __delattr__ = __setattr__
