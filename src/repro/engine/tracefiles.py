"""Trace-file emission: SCALE-Sim's first output class (Sec. II-E).

Two artifacts are produced:

* **SRAM trace CSVs** — one row per cycle listing the addresses read
  (or written) that cycle, exactly like the original tool's
  ``*_sram_read.csv`` / ``*_sram_write.csv`` files.
* **DRAM request streams** — the prefetch schedule the double-buffer
  model implies, lowered to (cycle, address, is_write) triples that a
  DRAM back-end (:mod:`repro.dram`) can consume.  Fetches for fold
  ``k`` are spread evenly across fold ``k-1``'s execution window;
  writebacks for fold ``k`` across fold ``k+1``'s.
"""

from __future__ import annotations

import gc
from itertools import repeat
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.dataflow.base import AddressLayout, DataflowEngine
from repro.dram.request import DramAccess
from repro.memory.bandwidth import DramTraffic
from repro.obs import trace


def write_sram_trace_csv(
    engine: DataflowEngine,
    layout: AddressLayout,
    directory: Union[str, Path],
    prefix: str = "layer",
) -> Tuple[Path, Path]:
    """Write read and write SRAM traces; returns (read_path, write_path).

    Only use for small configurations: the files contain one row per
    cycle with every address touched that cycle.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    read_path = directory / f"{prefix}_sram_read.csv"
    write_path = directory / f"{prefix}_sram_write.csv"
    with read_path.open("w") as reads, write_path.open("w") as writes:
        for row in engine.layer_trace(layout):
            addrs = list(row.ifmap_addrs) + list(row.filter_addrs)
            if addrs:
                reads.write(f"{row.cycle}," + ",".join(map(str, addrs)) + ",\n")
            if row.ofmap_addrs:
                writes.write(f"{row.cycle}," + ",".join(map(str, row.ofmap_addrs)) + ",\n")
    return read_path, write_path


def dram_request_stream(
    traffic: DramTraffic,
    layout: AddressLayout,
    line_bytes: int = 64,
) -> Iterator[DramAccess]:
    """Lower a layer's DRAM traffic into a timed request stream.

    Addresses walk each operand region sequentially (prefetches are
    bulk, linear transfers in SCALE-Sim's model); request timestamps
    spread each fold's transfer uniformly over the fold it overlaps
    with.  The stream yields :class:`~repro.dram.request.DramAccess`
    records ordered by (cycle, is_write, address), ready for
    :class:`repro.dram.simulator.DramSimulator`.
    """
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be positive, got {line_bytes}")
    with trace.span("dram.stream") as span:
        columns = _request_columns(traffic, layout, line_bytes)
        # Cycles sum fold lengths and addresses are ``offset + line_bytes
        # * j``, so the records skip DramAccess's per-record check (the
        # replay checks its columns) and are built at C speed.  The
        # cyclic collector is paused meanwhile: CPython never untracks a
        # tuple-subclass instance, so each collection during the build
        # would walk every record built so far, and a record holds only
        # ints and a bool, so it can never be part of a reference cycle.
        collecting = gc.isenabled()
        gc.disable()
        try:
            events = list(map(tuple.__new__, repeat(DramAccess), zip(*columns)))
        finally:
            if collecting:
                gc.enable()
        span.set(requests=len(events))
    return iter(events)


def _request_columns(
    traffic: DramTraffic, layout: AddressLayout, line_bytes: int
) -> Tuple[List[int], List[int], List[bool]]:
    """The stream's cycle, address and is_write columns, in stream order."""
    fold_cycles = np.asarray(traffic.fold_cycles.expand(), dtype=np.int64)
    fold_starts = np.cumsum(fold_cycles) - fold_cycles
    total_cycles = int(fold_starts[-1] + fold_cycles[-1])

    # Fold 0 prefetches before execution (cold start at cycle 0); fold k
    # prefetches during fold k-1.  Fold k's outputs drain during fold
    # k+1, or right after the end.
    read_starts = np.concatenate(([0], fold_starts[:-1]))
    read_lens = np.concatenate((fold_cycles[:1], fold_cycles[:-1]))
    drain_starts = np.concatenate((fold_starts[1:], [total_cycles]))
    drain_lens = np.concatenate((fold_cycles[1:], fold_cycles[-1:]))

    streams = (
        (traffic.ifmap.per_fold_bytes, read_starts, read_lens, layout.ifmap_offset, False),
        (traffic.filter.per_fold_bytes, read_starts, read_lens, layout.filter_offset, False),
        (traffic.ofmap_per_fold_bytes, drain_starts, drain_lens, layout.ofmap_offset, True),
    )
    cycles, addresses, writes = [], [], []
    for per_fold_bytes, starts, lens, offset, is_write in streams:
        # Each operand walks its region sequentially, line by line.
        lines = -(-np.asarray(per_fold_bytes.expand(), dtype=np.int64) // line_bytes)
        count = int(lines.sum())
        cycles.append(_spread(starts, lens, lines))
        addresses.append(offset + line_bytes * np.arange(count, dtype=np.int64))
        writes.append(np.full(count, is_write))
    cycles, addresses, writes = (
        np.concatenate(column) for column in (cycles, addresses, writes)
    )

    order = np.lexsort((addresses, writes, cycles))
    return cycles[order].tolist(), addresses[order].tolist(), writes[order].tolist()


def _spread(starts: np.ndarray, lens: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Cycle of line ``j`` of each fold segment: ``start + j * len // lines``."""
    segment = np.repeat(np.arange(len(lines)), lines)
    first_line = np.cumsum(lines) - lines
    j = np.arange(len(segment), dtype=np.int64) - first_line[segment]
    return starts[segment] + (j * lens[segment]) // lines[segment]
