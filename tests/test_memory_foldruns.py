"""Fold runs: per-fold sequences held as loop-order blocks of runs.

The contract under test: :class:`FoldRuns` is canonical (so ``==`` is
structural), every O(blocks x runs) view — length, total, first, last,
element-wise combine, distinct adjacent pairs — agrees with the
expanded per-fold list, and the closed-form DRAM traffic of a layer
with 1.6M folds stays a handful of runs built from a handful of probes.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config.hardware import Dataflow, HardwareConfig
from repro.dataflow.factory import engine_for
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.memory.foldruns import FoldRuns
from repro.workloads.registry import get_workload


@st.composite
def block_lists(draw, values=st.integers(0, 3)):
    """Random ``(runs, repeat)`` lists: equal neighbours, empty runs and
    repeated blocks included, every block spanning the same folds."""
    span = draw(st.integers(1, 6))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.lists(st.integers(0, span), max_size=4)))
        bounds = [0, *cuts, span]
        runs = [(draw(values), end - start) for start, end in zip(bounds, bounds[1:])]
        blocks.append((runs, draw(st.integers(1, 4))))
    return blocks


def naive(blocks):
    out = []
    for runs, repeat in blocks:
        block = []
        for value, count in runs:
            block += [value] * count
        out += block * repeat
    return out


class TestCanonicalForm:
    @given(block_lists())
    def test_encodes_the_same_sequence(self, blocks):
        assert FoldRuns(blocks).expand() == naive(blocks)

    @given(block_lists())
    def test_no_empty_or_mergeable_neighbours(self, blocks):
        runs = FoldRuns(blocks)
        for block, repeat in runs.blocks:
            assert repeat >= 1
            assert all(count >= 1 for _, count in block)
            assert all(a != b for (a, _), (b, _) in zip(block, block[1:]))
        assert all(a != b for (a, _), (b, _) in zip(runs.blocks, runs.blocks[1:]))

    @given(block_lists())
    def test_equal_sequences_are_equal_structures(self, blocks):
        runs = FoldRuns(blocks)
        again = FoldRuns.from_list(naive(blocks), runs.span)
        assert again == runs
        assert hash(again) == hash(runs)
        assert again.blocks == runs.blocks

    def test_known_form(self):
        runs = FoldRuns([
            ([(5, 1), (5, 2), (0, 0), (3, 1)], 2),
            ([(5, 3), (3, 1)], 1),
            ([(7, 4)], 0),
        ])
        assert runs.blocks == ((((5, 3), (3, 1)), 3),)
        assert len(runs) == 12
        assert runs.span == 4

    @pytest.mark.parametrize("blocks, match", [
        ([], "at least one fold"),
        ([([(1, 0)], 3)], "at least one fold"),
        ([([(1, 2)], 1), ([(1, 3)], 1)], "same folds"),
        ([([(1, -1)], 1)], "non-negative"),
        ([([(1, 1)], -1)], "non-negative"),
    ])
    def test_rejects_malformed_blocks(self, blocks, match):
        with pytest.raises(ValueError, match=match):
            FoldRuns(blocks)

    def test_is_immutable_and_pickles(self):
        runs = FoldRuns([([(1, 2), (4, 1)], 3)])
        with pytest.raises(AttributeError):
            runs.blocks = ()
        assert pickle.loads(pickle.dumps(runs)) == runs


class TestListRoundTrip:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=24), st.integers(1, 6))
    def test_from_list_expand(self, values, n_inner):
        values = values * n_inner  # a whole number of blocks
        runs = FoldRuns.from_list(values, n_inner)
        assert runs.expand() == values
        assert len(runs) == len(values)

    @given(block_lists())
    def test_expand_from_list(self, blocks):
        runs = FoldRuns(blocks)
        assert FoldRuns.from_list(runs.expand(), runs.span) == runs

    @pytest.mark.parametrize("values, n_inner", [([], 1), ([1, 2, 3], 2), ([1], 0)])
    def test_from_list_rejects_ragged_blocks(self, values, n_inner):
        with pytest.raises(ValueError, match="do not split"):
            FoldRuns.from_list(values, n_inner)


class TestViews:
    @given(block_lists())
    def test_total_first_last(self, blocks):
        runs, values = FoldRuns(blocks), naive(blocks)
        assert runs.total() == sum(values)
        assert runs.first == values[0]
        assert runs.last == values[-1]
        assert len(runs) == len(values)

    @given(block_lists())
    def test_distinct_adjacent_pairs_match_brute_force(self, blocks):
        runs = FoldRuns(blocks)
        zipped = list(zip(naive(blocks), naive(blocks)))
        assert runs.adjacent_pairs(runs) == set(zip(zipped, zipped[1:]))

    @given(st.data())
    def test_combine_and_aligned_pairs_match_brute_force(self, data):
        left = FoldRuns(data.draw(block_lists()))
        values = data.draw(
            st.lists(st.integers(0, 3), min_size=len(left), max_size=len(left))
        )
        right = FoldRuns.from_list(values, left.span)
        a, b = left.expand(), right.expand()
        assert left.combine(right).expand() == [x + y for x, y in zip(a, b)]
        zipped = list(zip(a, b))
        assert left.adjacent_pairs(right) == set(zip(zipped, zipped[1:]))

    def test_combine_rejects_unequal_lengths(self):
        three = FoldRuns.from_list([1, 2, 3], 3)
        with pytest.raises(ValueError, match="cannot align"):
            three.combine(FoldRuns.from_list([1, 2, 3, 4], 4))
        with pytest.raises(ValueError, match="cannot align"):
            three.adjacent_pairs(FoldRuns.from_list([1, 2], 2))

    def test_combine_rejects_unequal_block_spans(self):
        with pytest.raises(ValueError, match="cannot align"):
            FoldRuns.from_list([1, 2, 3, 4], 2).combine(
                FoldRuns.from_list([1, 2, 3, 4], 4)
            )

    def test_single_fold_has_no_pairs(self):
        single = FoldRuns.from_list([7], 1)
        assert single.adjacent_pairs(single) == set()


class TestClosedFormStructure:
    """vgg16 FC6 on an 8x8 weight-stationary array: 1,605,632 folds."""

    @pytest.fixture(scope="class")
    def fc6(self):
        layer = next(layer for layer in get_workload("vgg16") if layer.name == "FC6")
        return layer

    @pytest.mark.parametrize("order", ["row", "col"])
    def test_a_handful_of_runs_from_a_handful_of_probes(self, fc6, order):
        engine = engine_for(fc6, Dataflow.WEIGHT_STATIONARY, 8, 8)
        assert engine.plan.num_folds == 1_605_632
        probes = {"ifmap": 0, "filter": 0}

        def counted(which, real):
            def probe(fold):
                probes[which] += 1
                return real(fold)
            return probe

        engine.ifmap_slice = counted("ifmap", engine.ifmap_slice)
        engine.filter_slice = counted("filter", engine.filter_slice)
        traffic = compute_dram_traffic(
            engine, BufferSet.from_config(HardwareConfig()), 1, loop_order=order
        )
        assert probes["ifmap"] <= 4 and probes["filter"] <= 4
        for runs in (
            traffic.fold_cycles,
            traffic.ofmap_per_fold_bytes,
            traffic.ifmap.per_fold_bytes,
            traffic.filter.per_fold_bytes,
        ):
            assert len(runs) == 1_605_632
            assert len(runs.blocks) <= 4
            assert all(len(block) <= 4 for block, _ in runs.blocks)
