"""Unit tests for stall-free DRAM bandwidth accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config.hardware import Dataflow, HardwareConfig
from repro.dataflow.factory import engine_for_gemm
from repro.memory.bandwidth import _stall_free_bandwidths, compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.memory.foldruns import FoldRuns

BIG_SRAM = HardwareConfig(ifmap_sram_kb=1024, filter_sram_kb=1024, ofmap_sram_kb=1024)
TINY_SRAM = HardwareConfig(ifmap_sram_kb=1, filter_sram_kb=1, ofmap_sram_kb=1)


def stall_free(reads, writes, cycles):
    """``_stall_free_bandwidths`` over per-fold lists, as one block each."""
    return _stall_free_bandwidths(
        *(FoldRuns.from_list(values, len(values)) for values in (reads, writes, cycles))
    )


class TestStallFreeMath:
    def test_single_fold_moves_everything_within_itself(self):
        profile = stall_free([100], [40], [50])
        assert profile.peak_read_bw == 2.0
        assert profile.peak_write_bw == 0.8

    def test_prefetch_hides_behind_previous_fold(self):
        # fold 1's 60 bytes prefetch over fold 0's 30 cycles
        profile = stall_free([0, 60], [0, 0], [30, 20])
        assert profile.peak_read_bw == 2.0

    def test_writes_drain_during_next_fold(self):
        profile = stall_free([0, 0], [40, 0], [10, 20])
        assert profile.peak_write_bw == 2.0

    def test_final_fold_writes_counted(self):
        profile = stall_free([0, 0], [0, 80], [10, 20])
        assert profile.peak_write_bw == 4.0

    def test_averages(self):
        profile = stall_free([10, 30], [5, 5], [20, 20])
        assert profile.avg_read_bw == 1.0
        assert profile.avg_write_bw == 0.25
        assert profile.avg_total_bw == 1.25


class TestComputeDramTraffic:
    def engine(self, m=64, k=16, n=48):
        return engine_for_gemm(m, k, n, Dataflow.OUTPUT_STATIONARY, 8, 8)

    def test_big_buffers_move_unique_data_only(self):
        engine = self.engine()
        traffic = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 1)
        assert traffic.ifmap.total_bytes == 64 * 16
        assert traffic.filter.total_bytes == 16 * 48
        assert traffic.write_bytes == 64 * 48

    def test_tiny_buffers_refetch(self):
        engine = engine_for_gemm(256, 512, 256, Dataflow.OUTPUT_STATIONARY, 8, 8)
        big = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 1)
        small = compute_dram_traffic(engine, BufferSet.from_config(TINY_SRAM), 1)
        assert small.read_bytes > big.read_bytes
        # Writes are not refetched: each output leaves once under OS.
        assert small.write_bytes == big.write_bytes

    def test_cold_start_is_first_fold_reads(self):
        engine = self.engine()
        traffic = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 1)
        assert traffic.cold_start_bytes == (
            traffic.ifmap.per_fold_bytes.expand()[0] + traffic.filter.per_fold_bytes.expand()[0]
        )

    def test_total_cycles_matches_engine(self):
        engine = self.engine()
        traffic = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 1)
        assert traffic.total_cycles == engine.total_cycles()

    def test_word_bytes_scaling(self):
        engine = self.engine()
        one = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 1)
        two = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 2)
        assert two.read_bytes == 2 * one.read_bytes
        assert two.write_bytes == 2 * one.write_bytes

    @given(
        st.integers(1, 80), st.integers(1, 40), st.integers(1, 80),
        st.sampled_from(list(Dataflow)),
    )
    def test_reads_bounded_below_by_unique(self, m, k, n, dataflow):
        engine = engine_for_gemm(m, k, n, dataflow, 8, 8)
        traffic = compute_dram_traffic(engine, BufferSet.from_config(TINY_SRAM), 1)
        assert traffic.ifmap.total_bytes >= m * k
        assert traffic.filter.total_bytes >= k * n

    @given(
        st.integers(1, 80), st.integers(1, 40), st.integers(1, 80),
        st.sampled_from(list(Dataflow)),
    )
    def test_peak_at_least_average(self, m, k, n, dataflow):
        engine = engine_for_gemm(m, k, n, dataflow, 8, 8)
        traffic = compute_dram_traffic(engine, BufferSet.from_config(BIG_SRAM), 1)
        bw = traffic.bandwidth
        # Averaging over the whole run can never exceed the worst
        # per-window rate plus the cold start amortized over the run.
        assert bw.peak_read_bw >= 0
        cold_rate = traffic.cold_start_bytes / traffic.total_cycles
        assert bw.avg_read_bw <= bw.peak_read_bw + cold_rate + 1e-9
