"""DRAM request record and address decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from repro.dram.timing import DramTiming
from repro.errors import DramError


class _DramAccessFields(NamedTuple):
    cycle: int
    address: int
    is_write: bool = False


class DramAccess(_DramAccessFields):
    """One line-sized DRAM transaction as seen at the interface.

    A tuple ``(cycle, address, is_write)``: immutable, compared and
    hashed by value.  Built by name it rejects a negative cycle or
    address.  A producer whose values are non-negative by construction
    may build records with ``tuple.__new__(DramAccess, fields)`` and
    skip that check; :meth:`DramSimulator.run
    <repro.dram.simulator.DramSimulator.run>` checks every record again
    as it reads the trace into columns.
    """

    __slots__ = ()

    def __new__(cls, cycle: int, address: int, is_write: bool = False) -> "DramAccess":
        if cycle < 0:
            raise DramError(f"cycle must be non-negative, got {cycle}")
        if address < 0:
            raise DramError(f"address must be non-negative, got {address}")
        return tuple.__new__(cls, (cycle, address, is_write))


@dataclass(frozen=True)
class DecodedAddress:
    """Channel / bank / row coordinates of one access."""

    channel: int
    bank: int
    row: int


def decode(address: int, timing: DramTiming) -> DecodedAddress:
    """Map a byte address to (channel, bank, row).

    Line-interleaved across channels, then across banks, so sequential
    prefetch streams spread over all parallelism before reusing a bank —
    the layout DRAM controllers favour for streaming accelerators.
    """
    block = address // timing.line_bytes
    channel = block % timing.num_channels
    rest = block // timing.num_channels
    bank = rest % timing.banks_per_channel
    row = rest // timing.banks_per_channel // timing.lines_per_row
    return DecodedAddress(channel=channel, bank=bank, row=row)


def decode_columns(
    addresses: np.ndarray, timing: DramTiming
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`decode` of a whole int64 address column at once.

    The same floor divisions and remainders as the scalar decode, so
    every (channel, bank, row) triple is identical to it.
    """
    block = addresses // timing.line_bytes
    channel = block % timing.num_channels
    rest = block // timing.num_channels
    bank = rest % timing.banks_per_channel
    row = rest // timing.banks_per_channel // timing.lines_per_row
    return channel, bank, row
