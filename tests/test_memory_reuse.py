"""Unit tests for the fold-order reuse model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dataflow.base import OperandSlice
from repro.memory.buffers import DoubleBuffer
from repro.memory.foldruns import FoldRuns
from repro.memory.reuse import OperandTraffic, per_fold_fetch_bytes


def slices(ids, elements=10, stream="ifmap"):
    return [OperandSlice(stream=stream, slice_id=sid, elements=elements) for sid in ids]


def buffer(working_bytes):
    return DoubleBuffer("test", capacity_bytes=2 * working_bytes)


class TestWholeOperandFits:
    def test_each_slice_fetched_once(self):
        per_fold = per_fold_fetch_bytes(
            slices(["a", "b", "a", "b"]), unique_elements=20, buffer=buffer(1000), word_bytes=1
        )
        assert per_fold == [10, 10, 0, 0]
        assert sum(per_fold) == 20

    def test_refetch_factor_is_one(self):
        per_fold = per_fold_fetch_bytes(
            slices(["a", "b", "a"]), unique_elements=20, buffer=buffer(1000), word_bytes=1
        )
        traffic = OperandTraffic(
            stream="ifmap",
            per_fold_bytes=FoldRuns.from_list(per_fold, len(per_fold)),
            unique_bytes=20,
        )
        assert traffic.refetch_factor == 1.0


class TestOperandDoesNotFit:
    def test_refetch_on_slice_change(self):
        per_fold = per_fold_fetch_bytes(
            slices(["a", "b", "a", "b"]), unique_elements=40, buffer=buffer(15), word_bytes=1
        )
        # 40 unique > 15 working; slices (10B) fit individually, so each
        # change of resident slice costs a fetch.
        assert per_fold == [10, 10, 10, 10]
        assert sum(per_fold) == 40  # refetch factor 1.0: total == unique

    def test_consecutive_same_slice_reuses(self):
        per_fold = per_fold_fetch_bytes(
            slices(["a", "a", "b", "b"]), unique_elements=40, buffer=buffer(15), word_bytes=1
        )
        assert per_fold == [10, 0, 10, 0]

    def test_streaming_slice_always_refetched(self):
        # A single slice larger than the working half streams every fold.
        per_fold = per_fold_fetch_bytes(
            slices(["a", "a"], elements=100),
            unique_elements=200,
            buffer=buffer(50),
            word_bytes=1,
        )
        assert per_fold == [100, 100]

    def test_word_bytes_scales_traffic(self):
        per_fold = per_fold_fetch_bytes(
            slices(["a", "b"]), unique_elements=100, buffer=buffer(11), word_bytes=2
        )
        assert per_fold == [20, 20]


class TestValidation:
    def test_rejects_empty_slices(self):
        with pytest.raises(ValueError, match="non-empty"):
            per_fold_fetch_bytes([], unique_elements=10, buffer=buffer(10), word_bytes=1)

    def test_rejects_mixed_streams(self):
        mixed = slices(["a"], stream="ifmap") + slices(["b"], stream="filter")
        with pytest.raises(ValueError, match="mixed operand streams"):
            per_fold_fetch_bytes(mixed, unique_elements=10, buffer=buffer(10), word_bytes=1)

    def test_rejects_zero_word_bytes(self):
        with pytest.raises(ValueError):
            per_fold_fetch_bytes(slices(["a"]), unique_elements=10, buffer=buffer(10), word_bytes=0)


class TestProperties:
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=30),
        st.integers(1, 64),
        st.integers(1, 1000),
    )
    def test_traffic_at_least_touches_each_slice_once(self, ids, elements, working):
        pieces = slices(ids, elements=elements)
        unique = elements * len(set(ids))
        per_fold = per_fold_fetch_bytes(pieces, unique, buffer(working), word_bytes=1)
        assert sum(per_fold) >= unique
        assert len(per_fold) == len(pieces)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30), st.integers(1, 64))
    def test_huge_buffer_gives_perfect_reuse(self, ids, elements):
        pieces = slices(ids, elements=elements)
        unique = elements * len(set(ids))
        per_fold = per_fold_fetch_bytes(pieces, unique, buffer(10**9), word_bytes=1)
        assert sum(per_fold) == unique

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30), st.integers(1, 64))
    def test_smaller_buffer_never_reduces_traffic(self, ids, elements):
        pieces = slices(ids, elements=elements)
        unique = elements * len(set(ids))
        big = per_fold_fetch_bytes(pieces, unique, buffer(10**9), word_bytes=1)
        small = per_fold_fetch_bytes(pieces, unique, buffer(1), word_bytes=1)
        assert sum(small) >= sum(big)
