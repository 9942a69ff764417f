"""Per-channel command scheduling with open-page policy.

Each channel owns a set of banks and one shared data bus.  Requests are
serviced in arrival order with a bounded first-ready (FR-FCFS-style)
reorder window: among the oldest ``window`` pending requests, a row hit
is preferred over the queue head, which keeps streams from thrashing
open rows without starving anyone for long.

Two implementations of the same scheduler live here:

* :func:`service_columns` runs in production: :class:`DramSimulator`
  hands it one channel's requests as columns (cycle, bank, row,
  is_write) and it returns only the sums the statistics need.  It
  checks a request for a row hit when a pick first reaches it and again
  only after a miss opens a row, since hits change no open row;
* :class:`Channel` is the scalar reference: one object per request, the
  whole queue as a list.  It is the readable statement of the timing
  rules, and the tests and the ``dram`` verify property hold the
  columnar scheduler bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.dram.request import DramAccess, decode
from repro.dram.timing import DramTiming


@dataclass
class _BankState:
    open_row: Optional[int] = None
    ready_cycle: int = 0  # bank may accept a new column command
    activated_cycle: int = 0  # when the open row was activated (for tRAS)


@dataclass
class ServicedRequest:
    """One completed transaction with its measured timing."""

    request: DramAccess
    start_cycle: int
    finish_cycle: int
    row_hit: bool

    @property
    def latency(self) -> int:
        return self.finish_cycle - self.request.cycle


class Channel:
    """Scheduler and timing model for one DRAM channel."""

    def __init__(self, timing: DramTiming, window: int = 8):
        self.timing = timing
        self.window = max(1, window)
        self._banks: Dict[int, _BankState] = {}
        self._bus_free = 0
        self._last_was_write = False

    def _skip_refresh(self, cycle: int) -> int:
        """Push ``cycle`` past any refresh blackout it falls into.

        A refresh command issues every ``t_refi`` cycles and blocks all
        banks for ``t_rfc``: the window ``[k*t_refi, k*t_refi + t_rfc)``
        is unusable for every ``k >= 1``.
        """
        t_refi = self.timing.t_refi
        if not t_refi:
            return cycle
        k = cycle // t_refi
        if k >= 1 and cycle < k * t_refi + self.timing.t_rfc:
            return k * t_refi + self.timing.t_rfc
        return cycle

    def _bank(self, index: int) -> _BankState:
        if index not in self._banks:
            self._banks[index] = _BankState()
        return self._banks[index]

    def service(self, requests: List[DramAccess]) -> List[ServicedRequest]:
        """Service all requests (already filtered to this channel)."""
        # Stable sort by arrival cycle only: requests issued in the same
        # cycle keep their submission order (FCFS baseline).
        pending = sorted(requests, key=lambda req: req.cycle)
        done: List[ServicedRequest] = []
        while pending:
            index = self._pick(pending)
            request = pending.pop(index)
            done.append(self._execute(request))
        return done

    # ------------------------------------------------------------------
    def _pick(self, pending: List[DramAccess]) -> int:
        """Index of the next request: first row-hit in the reorder window,
        but never past a request that arrived before the bus went idle."""
        head = pending[0]
        horizon = max(self._bus_free, head.cycle)
        for index in range(min(self.window, len(pending))):
            candidate = pending[index]
            if candidate.cycle > horizon:
                break
            bank = self._bank(decode(candidate.address, self.timing).bank)
            row = decode(candidate.address, self.timing).row
            if bank.open_row == row:
                return index
        return 0

    def _execute(self, request: DramAccess) -> ServicedRequest:
        timing = self.timing
        coords = decode(request.address, timing)
        bank = self._bank(coords.bank)
        start = self._skip_refresh(max(request.cycle, bank.ready_cycle))

        row_hit = bank.open_row == coords.row
        if not row_hit:
            if bank.open_row is not None:
                # Respect tRAS before precharging the currently open row.
                start = max(start, bank.activated_cycle + timing.t_ras)
                start += timing.t_rp
            start += timing.t_rcd
            start = self._skip_refresh(start)
            bank.open_row = coords.row
            bank.activated_cycle = start

        # Column access, then the burst on the shared data bus; switching
        # the bus from writes back to reads pays the turnaround penalty.
        bus_ready = self._bus_free
        if self._last_was_write and not request.is_write:
            bus_ready += timing.t_wtr
        data_start = self._skip_refresh(max(start + timing.t_cl, bus_ready))
        finish = data_start + timing.t_burst
        self._bus_free = finish
        self._last_was_write = request.is_write
        bank.ready_cycle = data_start
        return ServicedRequest(
            request=request, start_cycle=start, finish_cycle=finish, row_hit=row_hit
        )


class ChannelTotals(NamedTuple):
    """What :func:`service_columns` sums over one channel's requests."""

    row_hits: int
    finish_sum: int  # sum of finish cycles; minus the arrivals = latency
    last_finish: int


def service_columns(
    timing: DramTiming,
    window: int,
    cycles: Sequence[int],
    banks: Sequence[int],
    rows: Sequence[int],
    writes: Sequence[bool],
    latencies: Optional[List[int]] = None,
) -> ChannelTotals:
    """Service one channel's requests, given as columns sorted by arrival.

    Bit-identical to :meth:`Channel.service` on the same requests.  The
    reorder window (the oldest ``window`` unserved requests) is
    ``skipped``, the requests earlier picks examined and found to be
    row misses, in arrival order, followed by the unexamined requests
    from ``cursor`` on.  A request's hit status changes only when a miss
    opens a row, so each request is checked once when a pick first
    reaches it and once more after each miss while it waits, not once
    per pick.  Bank state is kept in flat per-bank lists.  With
    ``latencies`` given, each request's latency is appended to it in
    service order.
    """
    t_cl, t_rcd, t_rp, t_ras = timing.t_cl, timing.t_rcd, timing.t_rp, timing.t_ras
    t_burst, t_wtr = timing.t_burst, timing.t_wtr
    # With refresh off, c % 1 < 0 holds for no cycle c: no blackouts.
    t_refi, t_rfc = (timing.t_refi, timing.t_rfc) if timing.t_refi else (1, 0)
    open_row: List[Optional[int]] = [None] * timing.banks_per_channel
    ready = [0] * timing.banks_per_channel
    activated = [0] * timing.banks_per_channel
    bus_free = 0
    last_was_write = False
    row_hits = finish_sum = 0

    count = len(cycles)
    window = max(1, window)
    skipped: List[int] = []
    waiting = 0  # len(skipped)
    checked = 0  # skipped[:checked] are misses under the open rows
    cursor = 0
    for _ in range(count):
        # FR-FCFS pick, as Channel._pick: the first row hit among the
        # window's requests that arrived by the horizon, else the head.
        # Skipped requests arrived by an earlier horizon and the horizon
        # never falls, so the first one a miss turned into a hit goes next.
        index = -1
        while checked < waiting:
            other = skipped[checked]
            if open_row[banks[other]] == rows[other]:
                index = other
                del skipped[checked]
                waiting -= 1
                break
            checked += 1
        if index < 0:
            horizon = cycles[skipped[0]] if waiting else cycles[cursor]
            if bus_free > horizon:
                horizon = bus_free
            # Examine unread requests until a hit, a later arrival or a
            # full window; the misses passed over join ``skipped``.
            stop = cursor + window - waiting
            if stop > count:
                stop = count
            while cursor < stop:
                if cycles[cursor] > horizon:
                    break
                if open_row[banks[cursor]] == rows[cursor]:
                    index = cursor
                    cursor += 1
                    break
                skipped.append(cursor)
                waiting += 1
                cursor += 1
            checked = waiting
            if index < 0:
                index = skipped.pop(0)
                waiting -= 1
        bank, row = banks[index], rows[index]

        # Execute, as Channel._execute.  A refresh skip moves a cycle c
        # with c % t_refi < t_rfc and c >= t_refi to the blackout's end.
        cycle, is_write = cycles[index], writes[index]
        start = ready[bank]
        if cycle > start:
            start = cycle
        if start % t_refi < t_rfc and start >= t_refi:
            start += t_rfc - start % t_refi
        opened = open_row[bank]
        if opened == row:
            row_hits += 1
        else:
            if opened is not None:
                precharge = activated[bank] + t_ras
                if precharge > start:
                    start = precharge
                start += t_rp
            start += t_rcd
            if start % t_refi < t_rfc and start >= t_refi:
                start += t_rfc - start % t_refi
            open_row[bank] = row
            activated[bank] = start
            checked = 0
        data_start = start + t_cl
        bus_ready = bus_free + t_wtr if last_was_write and not is_write else bus_free
        if bus_ready > data_start:
            data_start = bus_ready
        if data_start % t_refi < t_rfc and data_start >= t_refi:
            data_start += t_rfc - data_start % t_refi
        bus_free = data_start + t_burst
        last_was_write = is_write
        ready[bank] = data_start
        finish_sum += bus_free
        if latencies is not None:
            latencies.append(bus_free - cycle)
    # Each finish is at least t_burst past the previous one, so the
    # request serviced last finishes last.
    return ChannelTotals(row_hits, finish_sum, bus_free)
