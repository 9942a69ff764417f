"""Event-driven execution timeline under a finite DRAM interface.

:func:`repro.engine.stalls.bandwidth_limited_runtime` computes stalled
runtime in closed form by charging each fold ``max(compute, transfer)``.
This module provides an *independent mechanism* for the same question:
a small event-driven simulation of the double-buffered pipeline, with
an explicit FIFO transfer queue on the shared interface:

* the prefetch for fold ``k+1`` is enqueued the moment fold ``k``
  starts computing (that is when the other buffer half frees up);
* the writeback for fold ``k`` is enqueued when its compute ends;
* fold ``k`` may start computing only when its operands have fully
  arrived and fold ``k-1`` has finished (folds share the array);
* the interface serves queued transfers one at a time at ``bandwidth``
  bytes per cycle.

The timeline is exact under those rules, so it brackets the closed-form
model and converges to the stall-free cycle count as bandwidth grows —
properties the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.memory.bandwidth import DramTraffic


@dataclass(frozen=True)
class FoldTimeline:
    """Timing of one fold in the event-driven execution."""

    index: int
    data_ready: float
    compute_start: float
    compute_end: float
    writeback_end: float
    waited_for_data: bool


@dataclass(frozen=True)
class ExecutionTimeline:
    """Complete event-driven execution of one layer."""

    folds: List[FoldTimeline]
    total_cycles: float
    compute_cycles: int
    bandwidth: float

    @property
    def stall_cycles(self) -> float:
        return self.total_cycles - self.compute_cycles

    @property
    def slowdown(self) -> float:
        return self.total_cycles / self.compute_cycles

    @property
    def num_stalled_folds(self) -> int:
        """Folds whose compute start was gated by data arrival."""
        return sum(1 for fold in self.folds if fold.waited_for_data)


def simulate_execution(traffic: DramTraffic, bandwidth: float) -> ExecutionTimeline:
    """Run the event-driven double-buffer pipeline for one layer."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")

    reads = traffic.read_per_fold_bytes.expand()
    writes = traffic.ofmap_per_fold_bytes.expand()
    cycles = traffic.fold_cycles.expand()
    folds = len(cycles)

    interface_free = 0.0  # when the shared interface finishes its queue
    timelines: List[FoldTimeline] = []
    data_ready = [0.0] * folds
    write_done = [0.0] * folds

    def transfer(enqueue_time: float, nbytes: int) -> float:
        """FIFO service on the shared interface; returns completion time."""
        nonlocal interface_free
        start = max(interface_free, enqueue_time)
        interface_free = start + nbytes / bandwidth
        return interface_free

    # Fold 0's operands load cold, before anything computes.
    data_ready[0] = transfer(0.0, reads[0])

    previous_compute_end = 0.0
    for k in range(folds):
        compute_start = max(previous_compute_end, data_ready[k])
        compute_end = compute_start + cycles[k]
        # The freed buffer half lets fold k+1's prefetch begin now.
        if k + 1 < folds:
            data_ready[k + 1] = transfer(compute_start, reads[k + 1])
        write_done[k] = transfer(compute_end, writes[k])
        timelines.append(
            FoldTimeline(
                index=k,
                data_ready=data_ready[k],
                compute_start=compute_start,
                compute_end=compute_end,
                writeback_end=write_done[k],
                waited_for_data=data_ready[k] > previous_compute_end + 1e-12,
            )
        )
        previous_compute_end = compute_end

    total = max(previous_compute_end, write_done[-1])
    return ExecutionTimeline(
        folds=timelines,
        total_cycles=total,
        compute_cycles=sum(cycles),
        bandwidth=bandwidth,
    )
