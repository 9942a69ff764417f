"""Unit tests for SRAM trace files and DRAM request streams."""

import gc

import pytest

from repro.config.hardware import Dataflow, HardwareConfig
from repro.dataflow.base import AddressLayout
from repro.dataflow.factory import engine_for_gemm
from repro.dram.request import DramAccess
from repro.engine.tracefiles import dram_request_stream, write_sram_trace_csv
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet


def small_engine(dataflow=Dataflow.OUTPUT_STATIONARY):
    return engine_for_gemm(12, 6, 10, dataflow, 4, 4)


LAYOUT = AddressLayout(m=12, k=6, n=10)


class TestSramTraceCsv:
    def test_files_created(self, tmp_path, dataflow):
        engine = small_engine(dataflow)
        read_path, write_path = write_sram_trace_csv(engine, LAYOUT, tmp_path, prefix="t")
        assert read_path.name == "t_sram_read.csv"
        assert read_path.exists() and write_path.exists()

    def test_read_rows_match_counts(self, tmp_path):
        engine = small_engine()
        read_path, _ = write_sram_trace_csv(engine, LAYOUT, tmp_path)
        total_addresses = 0
        for line in read_path.read_text().splitlines():
            cells = [cell for cell in line.split(",") if cell]
            int(cells[0])  # cycle parses
            total_addresses += len(cells) - 1
        assert total_addresses == engine.layer_counts().total_reads

    def test_write_rows_match_counts(self, tmp_path):
        engine = small_engine()
        _, write_path = write_sram_trace_csv(engine, LAYOUT, tmp_path)
        total = sum(
            len([cell for cell in line.split(",") if cell]) - 1
            for line in write_path.read_text().splitlines()
        )
        assert total == engine.layer_counts().ofmap_writes


class TestDramRequestStream:
    def traffic(self):
        engine = engine_for_gemm(64, 32, 48, Dataflow.OUTPUT_STATIONARY, 8, 8)
        config = HardwareConfig(ifmap_sram_kb=4, filter_sram_kb=4, ofmap_sram_kb=4)
        return engine, compute_dram_traffic(engine, BufferSet.from_config(config), 1)

    def test_byte_volume_preserved(self):
        engine, traffic = self.traffic()
        requests = list(dram_request_stream(traffic, AddressLayout(m=64, k=32, n=48), line_bytes=64))
        reads = sum(1 for req in requests if not req.is_write)
        writes = sum(1 for req in requests if req.is_write)
        assert reads * 64 >= traffic.read_bytes
        assert reads * 64 < traffic.read_bytes + 64 * len(traffic.fold_cycles) * 2
        assert writes * 64 >= traffic.write_bytes

    def test_requests_sorted_by_cycle(self):
        engine, traffic = self.traffic()
        requests = list(dram_request_stream(traffic, AddressLayout(m=64, k=32, n=48)))
        cycles = [req.cycle for req in requests]
        assert cycles == sorted(cycles)

    def test_cycles_within_schedule_span(self):
        engine, traffic = self.traffic()
        requests = list(dram_request_stream(traffic, AddressLayout(m=64, k=32, n=48)))
        assert min(req.cycle for req in requests) >= 0
        assert max(req.cycle for req in requests) <= 2 * traffic.total_cycles

    def test_rejects_bad_line_bytes(self):
        _, traffic = self.traffic()
        with pytest.raises(ValueError):
            list(dram_request_stream(traffic, LAYOUT, line_bytes=0))

    def test_addresses_advance_monotonically_per_stream(self):
        engine, traffic = self.traffic()
        requests = list(dram_request_stream(traffic, AddressLayout(m=64, k=32, n=48)))
        write_addrs = [req.address for req in requests if req.is_write]
        assert write_addrs == sorted(write_addrs)

    def test_leaves_the_collector_as_it_found_it(self):
        _, traffic = self.traffic()
        layout = AddressLayout(m=64, k=32, n=48)
        was_enabled = gc.isenabled()
        streams = []
        try:
            for enabled in (True, False):
                if enabled:
                    gc.enable()
                else:
                    gc.disable()
                streams.append(list(dram_request_stream(traffic, layout)))
                assert gc.isenabled() is enabled
        finally:
            if was_enabled:
                gc.enable()
        assert streams[0] == streams[1]
        assert len(streams[0]) > 0

    @pytest.mark.parametrize("loop_order", ["row", "col"])
    @pytest.mark.parametrize("line_bytes", [16, 64, 100])
    def test_same_sequence_as_the_fold_walk(self, dataflow, loop_order, line_bytes):
        engine = engine_for_gemm(37, 29, 43, dataflow, 8, 6)
        config = HardwareConfig(ifmap_sram_kb=1, filter_sram_kb=2, ofmap_sram_kb=1)
        traffic = compute_dram_traffic(
            engine, BufferSet.from_config(config), 2, loop_order=loop_order
        )
        layout = AddressLayout(
            m=37, k=29, n=43, ifmap_offset=0, filter_offset=5000, ofmap_offset=9000
        )
        assert list(dram_request_stream(traffic, layout, line_bytes)) == fold_walk_stream(
            traffic, layout, line_bytes
        )


def fold_walk_stream(traffic, layout, line_bytes):
    """The stream built one fold and one line at a time."""
    fold_cycles = traffic.fold_cycles.expand()
    ofmap_per_fold_bytes = traffic.ofmap_per_fold_bytes.expand()
    fold_starts = [0]
    for cycles in fold_cycles[:-1]:
        fold_starts.append(fold_starts[-1] + cycles)
    total_cycles = fold_starts[-1] + fold_cycles[-1]
    cursor = {"ifmap": layout.ifmap_offset, "filter": layout.filter_offset}
    write_cursor = layout.ofmap_offset
    events = []
    for k, (i_bytes, f_bytes) in enumerate(
        zip(traffic.ifmap.per_fold_bytes.expand(), traffic.filter.per_fold_bytes.expand())
    ):
        window_start = 0 if k == 0 else fold_starts[k - 1]
        window_len = fold_cycles[0] if k == 0 else fold_cycles[k - 1]
        for stream, nbytes in (("ifmap", i_bytes), ("filter", f_bytes)):
            lines = -(-nbytes // line_bytes)
            for j in range(lines):
                cycle = window_start + (j * window_len) // lines
                events.append(DramAccess(cycle, cursor[stream], False))
                cursor[stream] += line_bytes
        last = k + 1 == len(fold_cycles)
        drain_start = total_cycles if last else fold_starts[k + 1]
        drain_len = fold_cycles[-1] if last else fold_cycles[k + 1]
        lines = -(-ofmap_per_fold_bytes[k] // line_bytes)
        for j in range(lines):
            cycle = drain_start + (j * drain_len) // lines
            events.append(DramAccess(cycle, write_cursor, True))
            write_cursor += line_bytes
    events.sort(key=lambda req: (req.cycle, req.is_write, req.address))
    return events
