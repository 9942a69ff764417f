"""The one DRAM request record, from the trace stream to the replay."""

import pytest

from repro.config.hardware import Dataflow, HardwareConfig
from repro.dataflow.base import AddressLayout
from repro.dataflow.factory import engine_for_gemm
from repro.dram.request import DramAccess
from repro.dram.simulator import DramSimulator
from repro.engine.tracefiles import dram_request_stream
from repro.errors import DramError
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet


class TestRecord:
    def test_fields_default_and_repr(self):
        request = DramAccess(5, 128)
        assert (request.cycle, request.address, request.is_write) == (5, 128, False)
        assert repr(request) == "DramAccess(cycle=5, address=128, is_write=False)"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            DramAccess(0, 0).cycle = 1

    def test_equal_and_hashed_by_value(self):
        assert DramAccess(3, 64, True) == DramAccess(cycle=3, address=64, is_write=True)
        assert len({DramAccess(3, 64, True), DramAccess(3, 64, True), DramAccess(3, 64)}) == 2


class TestStreamRecords:
    def test_every_record_is_a_dram_access_built_by_name(self):
        engine = engine_for_gemm(64, 32, 48, Dataflow.OUTPUT_STATIONARY, 8, 8)
        config = HardwareConfig(ifmap_sram_kb=4, filter_sram_kb=4, ofmap_sram_kb=4)
        traffic = compute_dram_traffic(engine, BufferSet.from_config(config), 1)
        requests = list(dram_request_stream(traffic, AddressLayout(m=64, k=32, n=48)))
        assert any(request.is_write for request in requests)
        for request in requests:
            assert type(request) is DramAccess
            assert request == DramAccess(
                cycle=request.cycle, address=request.address, is_write=request.is_write
            )


class TestReplayChecksRecords:
    @pytest.mark.parametrize(
        "trace",
        [
            [tuple.__new__(DramAccess, (-1, 0, False))],
            [DramAccess(0, 0), (0, -64, False)],
            [DramAccess(0, 0), (0, 64)],
            [DramAccess(0, 0), (0, 64, False, 1)],
            [(0, 64), (0, 128, False, 1)],  # six values in all: must not shift columns
            [DramAccess(0, 0), object()],
        ],
        ids=[
            "unchecked-negative-cycle", "negative-address-tuple", "two-fields",
            "four-fields", "two-and-four-fields", "not-a-record",
        ],
    )
    def test_malformed_record_raises_dram_error(self, trace):
        with pytest.raises(DramError):
            DramSimulator().run(trace)

    def test_plain_triples_replay_like_records(self):
        trace = [DramAccess(0, 0), DramAccess(3, 4096, True), DramAccess(3, 64)]
        assert DramSimulator().run([tuple(r) for r in trace]) == DramSimulator().run(trace)
