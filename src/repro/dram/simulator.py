"""Top-level DRAM simulator: route requests to channels, gather stats."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.dram.channel import service_columns
from repro.dram.request import DramAccess, decode_columns
from repro.dram.timing import DDR4_2400_LIKE, DramTiming
from repro.errors import DramError
from repro.obs import metrics, trace


@dataclass(frozen=True)
class DramStats:
    """Aggregate outcome of replaying one trace."""

    num_requests: int
    num_reads: int
    num_writes: int
    first_cycle: int
    last_finish_cycle: int
    total_latency: int
    row_hits: int
    bytes_moved: int

    @property
    def span_cycles(self) -> int:
        """Cycles from first arrival to last completion."""
        return max(1, self.last_finish_cycle - self.first_cycle)

    @property
    def achieved_bandwidth(self) -> float:
        """Bytes per cycle actually sustained over the trace span."""
        return self.bytes_moved / self.span_cycles

    @property
    def avg_latency(self) -> float:
        return self.total_latency / max(1, self.num_requests)

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / max(1, self.num_requests)


class DramSimulator:
    """Replay a (cycle, address, is_write) trace through the device model."""

    def __init__(self, timing: DramTiming = DDR4_2400_LIKE, reorder_window: int = 8):
        self.timing = timing
        self.reorder_window = reorder_window

    def run(self, requests: Iterable[DramAccess]) -> DramStats:
        """Service the whole trace and return aggregate statistics.

        The trace is read once into columns and decoded in one numpy
        pass; a stable sort on (channel, cycle) then hands each channel
        its requests in arrival order, as :meth:`Channel.service` would
        see them, and :func:`service_columns` schedules them.
        """
        timing = self.timing
        with trace.span("dram.run", channels=timing.num_channels) as span:
            cycles, addresses, writes = _columns(requests)
            if not len(cycles):
                raise DramError("empty DRAM trace")
            span.set(requests=len(cycles))
            channels, banks, rows = decode_columns(addresses, timing)
            order = np.lexsort((cycles, channels))
            bounds = np.searchsorted(
                channels[order], np.arange(timing.num_channels + 1)
            ).tolist()
            latencies: Optional[List[int]] = [] if metrics.enabled else None
            row_hits = finish_sum = last_finish = 0
            for lo, hi in zip(bounds, bounds[1:]):
                if lo == hi:
                    continue
                mine = order[lo:hi]
                totals = service_columns(
                    timing,
                    self.reorder_window,
                    cycles[mine].tolist(),
                    banks[mine].tolist(),
                    rows[mine].tolist(),
                    writes[mine].tolist(),
                    latencies,
                )
                row_hits += totals.row_hits
                finish_sum += totals.finish_sum
                last_finish = max(last_finish, totals.last_finish)

        num_requests = len(cycles)
        num_writes = int(np.count_nonzero(writes))
        total_latency = finish_sum - sum(cycles.tolist())  # Python ints: no int64 wrap
        bytes_moved = num_requests * timing.line_bytes
        if latencies is not None:
            metrics.counter("dram.requests").add(num_requests)
            metrics.counter("dram.row_hits").add(row_hits)
            metrics.counter("dram.bytes_moved").add(bytes_moved)
            metrics.counter("dram.stall_cycles").add(total_latency)
            latency = metrics.histogram("dram.request_latency")
            for value in latencies:
                latency.observe(value)

        return DramStats(
            num_requests=num_requests,
            num_reads=num_requests - num_writes,
            num_writes=num_writes,
            first_cycle=int(cycles.min()),
            last_finish_cycle=last_finish,
            total_latency=total_latency,
            row_hits=row_hits,
            bytes_moved=bytes_moved,
        )

    def sustainable(self, demanded_bandwidth: float) -> bool:
        """Quick feasibility check against the device's peak bandwidth."""
        return demanded_bandwidth <= self.timing.peak_bandwidth


def _columns(requests: Iterable[DramAccess]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a trace once into int64 cycle and address and bool write columns.

    Every record is a ``(cycle, address, is_write)`` triple; one
    ``np.fromiter`` over their chained fields fills an ``(n, 3)`` int64
    table.  Records that skipped :class:`DramAccess`'s checks are
    checked here: a record without exactly three fields, a value outside
    int64 and a negative cycle or address each raise :class:`DramError`.
    """
    trace_list = list(requests)
    try:
        triples = set(map(len, trace_list)) <= {3}
    except TypeError:  # a record that is not a sequence
        triples = False
    if not triples:
        raise DramError("every DRAM trace record must be a (cycle, address, is_write) triple")
    count = len(trace_list)
    try:
        table = np.fromiter(
            itertools.chain.from_iterable(trace_list), np.int64, count=3 * count
        ).reshape(count, 3)
    except OverflowError as exc:
        raise DramError(f"DRAM trace cycle or address outside int64: {exc}") from exc
    cycles, addresses, flags = table.T.copy()  # contiguous: strided views slow the gathers
    negative = (cycles < 0) | (addresses < 0)
    if negative.any():
        raise DramError(
            "DRAM trace cycle and address must be non-negative, "
            f"got {trace_list[int(negative.argmax())]!r}"
        )
    return cycles, addresses, flags != 0
