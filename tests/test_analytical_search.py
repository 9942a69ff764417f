"""Unit tests for design-space enumeration and optimal-config search."""

import pytest

from repro.analytical.runtime import scaleout_runtime
from repro.analytical.search import (
    array_shapes,
    best_scaleout,
    best_scaleup,
    partition_grids,
    search_space,
)
from repro.config.hardware import Dataflow
from repro.errors import SearchError
from repro.mapping.dims import map_layer
from repro.perf.compiler import compile_search_space
from repro.topology.layer import GemmLayer
from repro.workloads.language import language_layer

LAYER = GemmLayer("g", m=500, k=40, n=300)


class TestEnumeration:
    def test_pow2_shapes(self):
        shapes = array_shapes(64)
        assert shapes == [(1, 64), (2, 32), (4, 16), (8, 8), (16, 4), (32, 2), (64, 1)]

    def test_min_dim_filter(self):
        assert array_shapes(64, min_dim=8) == [(8, 8)]

    def test_non_pow2_uses_factor_pairs(self):
        assert (3, 4) in array_shapes(12)

    def test_impossible_min_dim_raises(self):
        with pytest.raises(SearchError):
            array_shapes(16, min_dim=8)

    def test_partition_grids(self):
        assert partition_grids(4) == [(1, 4), (2, 2), (4, 1)]

    def test_search_space_covers_monolithic_and_partitioned(self):
        space = search_space(LAYER, 1024, min_array_dim=8)
        partition_counts = {cand.num_partitions for cand in space}
        assert 1 in partition_counts
        assert max(partition_counts) == 1024 // 64

    def test_search_space_total_macs_constant(self):
        space = search_space(LAYER, 1024, min_array_dim=8)
        assert {cand.total_macs for cand in space} == {1024}

    def test_search_space_respects_min_dim_for_partitioned(self):
        space = search_space(LAYER, 1024, min_array_dim=8)
        for cand in space:
            if not cand.is_monolithic:
                assert cand.array_rows >= 8 and cand.array_cols >= 8

    def test_monolithic_aspect_ratios_unrestricted(self):
        space = search_space(LAYER, 1024, min_array_dim=8)
        mono_shapes = {
            (cand.array_rows, cand.array_cols) for cand in space if cand.is_monolithic
        }
        assert (1, 1024) in mono_shapes


class TestBestScaleup:
    def test_runtime_is_minimum_over_shapes(self):
        best = best_scaleup(LAYER, 256)
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        for rows, cols in array_shapes(256):
            assert best.runtime <= scaleout_runtime(mapping, 1, 1, rows, cols)

    def test_is_monolithic(self):
        assert best_scaleup(LAYER, 256).is_monolithic

    def test_candidate_consistency(self):
        best = best_scaleup(LAYER, 256)
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        assert best.runtime == scaleout_runtime(
            mapping, 1, 1, best.array_rows, best.array_cols
        )


class TestBestScaleout:
    def test_excludes_monolithic_by_default(self):
        best = best_scaleout(LAYER, 1024)
        assert not best.is_monolithic

    def test_never_slower_than_best_scaleup(self):
        """Fig. 10's claim, at the analytical level."""
        for macs in (2**10, 2**12, 2**14):
            up = best_scaleup(LAYER, macs)
            out = best_scaleout(LAYER, macs)
            assert out.runtime <= up.runtime

    def test_ratio_amplifies_with_macs(self):
        """Relative slowdown of monolithic grows as hardware scales."""
        layer = language_layer("TF0")
        ratios = [
            best_scaleup(layer, macs).runtime / best_scaleout(layer, macs).runtime
            for macs in (2**12, 2**14, 2**16)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 2

    def test_include_monolithic_searches_whole_space(self):
        best = best_scaleout(LAYER, 1024, include_monolithic=True)
        space = search_space(LAYER, 1024)
        assert best.runtime == min(cand.runtime for cand in space)

    def test_budget_too_small_for_partitions(self):
        with pytest.raises(SearchError):
            best_scaleout(LAYER, 64, min_array_dim=8)  # only 1 partition fits


class TestArgumentValidation:
    @pytest.mark.parametrize("min_array_dim", [0, -8])
    @pytest.mark.parametrize(
        "search", [search_space, best_scaleout, compile_search_space],
        ids=["search_space", "best_scaleout", "compile_search_space"],
    )
    def test_min_array_dim_below_one_is_rejected(self, search, min_array_dim):
        with pytest.raises(ValueError, match="min_array_dim"):
            search(LAYER, 1024, min_array_dim=min_array_dim)
