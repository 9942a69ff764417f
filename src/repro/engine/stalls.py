"""Bandwidth-limited (stalled) runtime — extension of the paper's model.

The paper reports the *stall-free* bandwidth an accelerator would need
(Fig. 11) and observes that at large scale it exceeds what DRAM can
deliver.  This module answers the follow-up question: *how slow does
the accelerator actually run on a device with a given bandwidth?*

Model: folds execute serially; the transfers pipelined against fold
``k`` are fold ``k+1``'s prefetch plus fold ``k-1``'s writeback, all
sharing one interface of ``bandwidth`` bytes/cycle.  Fold ``k`` cannot
retire faster than either its compute latency or the time to move those
bytes, so each fold contributes ``max(tau_k, bytes_k / bandwidth)``;
fold 0's operands have nothing to hide behind and are paid up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.bandwidth import DramTraffic


@dataclass(frozen=True)
class StalledRuntime:
    """Runtime of one layer under a finite DRAM bandwidth."""

    bandwidth: float
    compute_cycles: int
    total_cycles: float
    cold_start_cycles: float

    @property
    def stall_cycles(self) -> float:
        return self.total_cycles - self.compute_cycles

    @property
    def slowdown(self) -> float:
        """Stalled runtime relative to the stall-free runtime."""
        return self.total_cycles / self.compute_cycles


def bandwidth_limited_runtime(traffic: DramTraffic, bandwidth: float) -> StalledRuntime:
    """Runtime of one layer when DRAM supplies ``bandwidth`` bytes/cycle.

    ``traffic`` is the per-fold transfer schedule produced by
    :func:`repro.memory.bandwidth.compute_dram_traffic`.  As
    ``bandwidth -> inf`` the result converges to the stall-free cycle
    count (plus a vanishing cold start); tests assert monotonicity in
    ``bandwidth`` and both limits.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")

    reads = traffic.read_per_fold_bytes.expand()
    writes = traffic.ofmap_per_fold_bytes.expand()
    cycles = traffic.fold_cycles.expand()
    folds = len(cycles)

    cold_start = reads[0] / bandwidth
    total = cold_start
    for k in range(folds):
        overlapped = 0
        if k + 1 < folds:
            overlapped += reads[k + 1]  # next fold prefetches now
        if k > 0:
            overlapped += writes[k - 1]  # previous fold drains now
        total += max(cycles[k], overlapped / bandwidth)
    # The final fold's outputs still have to leave the chip.
    total += writes[-1] / bandwidth
    return StalledRuntime(
        bandwidth=bandwidth,
        compute_cycles=sum(cycles),
        total_cycles=total,
        cold_start_cycles=cold_start,
    )


def sweet_spot_bandwidth(traffic: DramTraffic, tolerance: float = 0.05) -> float:
    """Smallest bandwidth whose stalled runtime is within ``tolerance``
    of stall-free — the provisioning answer to Fig. 11's demand curves.

    Found by bisection on the monotone ``bandwidth_limited_runtime``.
    """
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    target = (1.0 + tolerance) * traffic.total_cycles

    low, high = 1e-6, 1.0
    while bandwidth_limited_runtime(traffic, high).total_cycles > target:
        high *= 2
        if high > 1e12:  # pragma: no cover - defensive
            break
    for _ in range(64):
        mid = (low + high) / 2
        if bandwidth_limited_runtime(traffic, mid).total_cycles > target:
            low = mid
        else:
            high = mid
    return high
