"""The columnar DRAM replay: full-size pins, the metrics branch, and
bit-identity with the scalar reference channel."""

import itertools

import numpy as np
import pytest

from repro.config.presets import paper_scaling_config
from repro.dram.channel import Channel
from repro.dram.request import DramAccess, decode, decode_columns
from repro.dram.simulator import DramSimulator, DramStats
from repro.dram.timing import DramTiming
from repro.engine.simulator import Simulator
from repro.engine.tracefiles import dram_request_stream
from repro.errors import DramError
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.obs import metrics
from repro.obs.metrics import Histogram
from repro.verify.cases import VerifyCase
from repro.verify.properties import prop_dram, random_dram_trace, scalar_dram_replay
from repro.workloads.language import language_layer


def layer_trace(name):
    """One layer's requests, composed the way ``repro dram`` composes them."""
    config = paper_scaling_config(32, 32).with_array(64, 64)
    simulator = Simulator(config)
    layer = language_layer(name)
    traffic = compute_dram_traffic(
        simulator.engine(layer), BufferSet.from_config(config), config.word_bytes
    )
    return list(dram_request_stream(traffic, simulator.address_layout(layer)))


@pytest.fixture(scope="module")
def traces():
    return {"TF1": layer_trace("TF1"), "NCF1": layer_trace("NCF1")}


def stats(requests, reads, writes, row_hits, total_latency, last_finish_cycle):
    return DramStats(
        num_requests=requests,
        num_reads=reads,
        num_writes=writes,
        first_cycle=0,
        last_finish_cycle=last_finish_cycle,
        total_latency=total_latency,
        row_hits=row_hits,
        bytes_moved=64 * requests,
    )


class TestFullSizeReplays:
    """The benchmark's three traces, pinned to the scalar channel's stats."""

    @pytest.mark.parametrize(
        "workload, channels, expected",
        [
            ("TF1", 1, stats(137_792, 136_448, 1_344, 119_483, 55_901_802_462, 786_438)),
            ("TF1", 4, stats(137_792, 136_448, 1_344, 123_040, 4_122_865_365, 170_992)),
            ("NCF1", 1, stats(41_984, 40_960, 1_024, 21_840, 6_660_538_772, 282_440)),
        ],
    )
    def test_replay_matches_pinned_stats(self, traces, workload, channels, expected):
        device = DramSimulator(DramTiming(num_channels=channels))
        assert device.run(traces[workload]) == expected

    def test_metrics_branch_matches_the_scalar_reference(self, traces):
        # 41,984 latencies overflow the histogram's sample cap, so its
        # stride thinning makes the percentiles depend on the order of
        # observation: channel by channel, in service order.
        timing = DramTiming(num_channels=4)
        expected, latencies = scalar_dram_replay(timing, 8, traces["NCF1"])
        reference = Histogram("dram.request_latency")
        for value in latencies:
            reference.observe(value)

        metrics.clear()
        metrics.enable()
        try:
            result = DramSimulator(timing).run(traces["NCF1"])
            snapshot = metrics.snapshot()
        finally:
            metrics.disable()
            metrics.clear()

        assert result == expected
        counters = snapshot["counters"]
        assert counters["dram.requests"] == result.num_requests
        assert counters["dram.row_hits"] == result.row_hits
        assert counters["dram.bytes_moved"] == result.bytes_moved
        assert counters["dram.stall_cycles"] == result.total_latency
        assert snapshot["histograms"]["dram.request_latency"] == reference.snapshot()


class TestScalarReference:
    @pytest.mark.parametrize(
        "case",
        [
            VerifyCase(m=8, k=8, n=8, array_rows=4, array_cols=4),
            VerifyCase(m=37, k=20, n=45, dataflow="ws", array_rows=8, array_cols=6),
            VerifyCase(m=30, k=17, n=9, dataflow="is", loop_order="col", word_bytes=4),
            VerifyCase(m=16, k=24, n=33, array_rows=6, array_cols=6, dead_pe_rows=(2,)),
        ],
        ids=lambda case: case.describe(),
    )
    def test_dram_property_holds(self, case):
        assert prop_dram(case) == []

    @pytest.mark.parametrize("window", [-3, 0, 1, 2, 5, 32])
    @pytest.mark.parametrize("t_wtr", [0, 8, 40])
    def test_any_window_and_turnaround(self, window, t_wtr):
        trace = random_dram_trace(VerifyCase(m=40, k=40, n=40))
        # With fewer banks, more of the requests a pick skipped share the
        # bank that the next miss re-opens.
        for channels, banks in itertools.product((1, 3), (1, 2, 4)):
            timing = DramTiming(
                num_channels=channels, banks_per_channel=banks, row_bytes=256,
                t_refi=500, t_rfc=120, t_wtr=t_wtr,
            )
            expected, _ = scalar_dram_replay(timing, window, trace)
            assert DramSimulator(timing, window).run(trace) == expected, (channels, banks)

    def test_a_miss_turns_skipped_requests_into_hits(self):
        # One bank with 4-line rows: requests 1 and 2 are in row 1,
        # requests 0 and 3 in row 0.  Serving 0 opens row 0, so the
        # skipped request 3 is the window's first hit; serving 1 then
        # opens row 1 for the skipped request 2.
        timing = DramTiming(banks_per_channel=1, row_bytes=256, t_refi=0)
        trace = [DramAccess(0, 0), DramAccess(0, 256), DramAccess(0, 320), DramAccess(0, 64)]
        served = Channel(timing, window=4).service(trace)
        assert [trace.index(item.request) for item in served] == [0, 3, 1, 2]
        expected, _ = scalar_dram_replay(timing, 4, trace)
        assert expected.row_hits == 2
        assert DramSimulator(timing, 4).run(trace) == expected

    def test_unsorted_arrivals_keep_submission_order_on_ties(self):
        timing = DramTiming(num_channels=2, banks_per_channel=2, row_bytes=256, t_refi=0)
        trace = [
            DramAccess(9, 512), DramAccess(3, 0, True), DramAccess(3, 128),
            DramAccess(0, 640), DramAccess(3, 64), DramAccess(9, 0, True),
        ]
        for window in (1, 2, 8):
            expected, _ = scalar_dram_replay(timing, window, trace)
            assert DramSimulator(timing, window).run(trace) == expected


class TestColumns:
    def test_decode_columns_matches_decode(self):
        timing = DramTiming(num_channels=3, banks_per_channel=5, row_bytes=512)
        addresses = np.random.default_rng(7).integers(0, 2**40, 2000, dtype=np.int64)
        channel, bank, row = decode_columns(addresses, timing)
        for index, address in enumerate(addresses.tolist()):
            coords = decode(address, timing)
            assert (coords.channel, coords.bank, coords.row) == (
                channel[index], bank[index], row[index]
            )

    @pytest.mark.parametrize(
        "request_", [DramAccess(2**63, 0), DramAccess(0, 2**63)], ids=["cycle", "address"]
    )
    def test_values_outside_int64_raise_dram_error(self, request_):
        with pytest.raises(DramError, match="int64"):
            DramSimulator().run([DramAccess(0, 0), request_])
