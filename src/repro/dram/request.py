"""DRAM request record and address decomposition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dram.timing import DramTiming
from repro.errors import DramError


@dataclass(frozen=True)
class DramAccess:
    """One line-sized DRAM transaction as seen at the interface."""

    cycle: int
    address: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise DramError(f"cycle must be non-negative, got {self.cycle}")
        if self.address < 0:
            raise DramError(f"address must be non-negative, got {self.address}")


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
