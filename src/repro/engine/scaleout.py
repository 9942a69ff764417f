"""Partitioned (scale-out) cycle-accurate simulator.

Scale-out groups the MAC budget into a ``P_R x P_C`` grid of
independent ``R x C`` systolic arrays (paper Fig. 8).  The mapped
workload is tiled across the grid in mapped space (Eq. 5): partition
``(p, q)`` receives rows ``S_R/P_R`` and columns ``S_C/P_C`` (with
remainders spread over the leading partitions), and all partitions run
in parallel, so the layer latency is the slowest partition's latency
(Eq. 6).

The costs of partitioning emerge naturally from summing per-partition
traffic: each partition fetches its own operand slices, so data shared
across a grid row/column is fetched multiple times (the loss-of-reuse
cost of Sec. IV-A), and each partition owns only ``1/P`` of the SRAM.

Degraded grids (a :class:`~repro.resilience.faultmap.FaultMap` with dead
partitions on the config) route through :func:`repro.resilience.remap
.remap_layer`: orphaned tiles are adopted by surviving partitions,
which run their assigned tiles serially, so the layer latency becomes
the slowest survivor's *summed* tile latency.  MAC conservation over
the re-mapped tiles is guarded, and the degraded runtime is
cross-checked against the same plan by the invariant guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config.hardware import HardwareConfig
from repro.dataflow.base import SramCounts
from repro.engine.results import LayerResult, RunResult
from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.mapping.dims import gemm_from_mapping, map_layer
from repro.obs import metrics, trace
from repro.resilience.remap import RemapPlan, remap_layer
from repro.topology.layer import Layer
from repro.topology.network import Network
@dataclass(frozen=True)
class PartitionShare:
    """One equivalence class of partitions: same tile shape, same result."""

    count: int
    sr: int
    sc: int
    result: LayerResult


def _share_classes(total: int, parts: int) -> List[Tuple[int, int]]:
    """``(size, count)`` classes of ``split_evenly(total, parts)`` in O(1).

    ``split_evenly`` hands the first ``total % parts`` shares one extra
    element, so an axis has at most two distinct share sizes: ``base + 1``
    (``total % parts`` of them) and ``base`` (the rest).  Returned
    largest-first, zero-size classes included, so callers can both build
    the tile-shape multiset and count idle partitions without
    materializing the per-partition share list.
    """
    base, extra = divmod(total, parts)
    classes: List[Tuple[int, int]] = []
    if extra:
        classes.append((base + 1, extra))
    if parts - extra:
        classes.append((base, parts - extra))
    return classes


class ScaleOutSimulator:
    """Cycle-accurate simulator for a grid of systolic arrays."""

    def __init__(self, config: HardwareConfig):
        self.config = config
        # Each partition is a standalone array with 1/P of the SRAM
        # (carrying any PE row/column defects of the fault map).
        self._partition_sim = Simulator(config.partition_config())

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_layer(self, layer: Layer) -> LayerResult:
        """Simulate one layer across the partition grid."""
        result, _ = self.run_layer_detailed(layer)
        return result

    def run_layer_detailed(self, layer: Layer) -> Tuple[LayerResult, List[PartitionShare]]:
        """Simulate one layer; also return the per-partition breakdown."""
        fault_map = self.config.fault_map
        degraded = fault_map is not None and fault_map.affects_grid
        with trace.span(
            "engine.scaleout_layer",
            layer=layer.name,
            grid=f"{self.config.partition_rows}x{self.config.partition_cols}",
            degraded=degraded,
        ):
            return self._run_layer_partitioned(layer, degraded)

    def _run_layer_partitioned(
        self, layer: Layer, degraded: bool
    ) -> Tuple[LayerResult, List[PartitionShare]]:
        if degraded:
            return self._run_layer_degraded(layer)
        mapping = map_layer(layer, self.config.dataflow)
        row_classes = _share_classes(mapping.sr, self.config.partition_rows)
        col_classes = _share_classes(mapping.sc, self.config.partition_cols)

        # Group identical tile shapes: split_evenly yields at most two
        # distinct sizes per axis, so at most four simulations run.  The
        # class product is O(1) in the grid size — a 64x64 grid costs the
        # same four multiplies as a 2x2 one.
        shape_counts: Dict[Tuple[int, int], int] = {}
        busy = 0
        for r, row_count in row_classes:
            for c, col_count in col_classes:
                if r == 0 or c == 0:
                    continue
                shape_counts[(r, c)] = (
                    shape_counts.get((r, c), 0) + row_count * col_count
                )
                busy += row_count * col_count

        # Partitions beyond the workload extent sit idle.
        idle = self.config.num_partitions - busy
        if not shape_counts:
            raise SimulationError(
                f"layer {layer.name!r}: no partition received work on a "
                f"{self.config.partition_rows}x{self.config.partition_cols} grid"
            )

        shares = self._simulate_shapes(layer, mapping.t, shape_counts)
        runtime = max(share.result.total_cycles for share in shares)
        return self._aggregate(layer, shares, runtime, idle_partitions=idle), shares

    def run_network(self, network: Network) -> RunResult:
        """Simulate every layer of ``network`` serially on the grid."""
        results = [self.run_layer(layer) for layer in network]
        return RunResult(
            network_name=network.name,
            config_description=self.config.describe(),
            layers=results,
        )

    # ------------------------------------------------------------------
    # Degraded path
    # ------------------------------------------------------------------
    def _run_layer_degraded(self, layer: Layer) -> Tuple[LayerResult, List[PartitionShare]]:
        """Simulate on a grid with dead partitions, re-mapping their work.

        The remap plan (MAC-conservation-guarded inside
        :func:`remap_layer`) assigns every tile to a survivor; survivors
        with several tiles run them back to back, so the grid's runtime
        is the slowest survivor's serial total.
        """
        config = self.config
        mapping = map_layer(layer, config.dataflow)
        plan: RemapPlan = remap_layer(
            mapping,
            config.partition_rows,
            config.partition_cols,
            config.effective_array_rows,
            config.effective_array_cols,
            config.fault_map,
        )

        shape_counts: Dict[Tuple[int, int], int] = {}
        for assignment in plan.assignments:
            shape = (assignment.sr, assignment.sc)
            shape_counts[shape] = shape_counts.get(shape, 0) + 1
        shares = self._simulate_shapes(layer, mapping.t, shape_counts)
        by_shape = {(s.sr, s.sc): s.result for s in shares}

        # Slowest survivor's serial runtime over its assigned tiles.
        runtime = max(
            sum(by_shape[(a.sr, a.sc)].total_cycles for a in tiles)
            for tiles in plan.per_owner().values()
        )

        survivors = len(plan.survivors)
        # Fraction of provisioned survivor PE-time carrying valid
        # mappings: each tile contributes its utilization weighted by
        # the cycles it actually occupies an array.
        mapped_pe_time = sum(
            by_shape[(a.sr, a.sc)].mapping_utilization
            * by_shape[(a.sr, a.sc)].total_cycles
            for a in plan.assignments
        )
        mapping_util = mapped_pe_time / (survivors * runtime)
        surviving_pes = (
            config.effective_array_rows * config.effective_array_cols * survivors
        )
        result = self._aggregate(
            layer,
            shares,
            runtime,
            idle_partitions=plan.idle_partitions,
            failed_partitions=plan.failed_partitions,
            remapped_tiles=plan.remapped_tiles,
            mapping_utilization=mapping_util,
            compute_pes=surviving_pes,
        )
        return result, shares

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _simulate_shapes(
        self, layer: Layer, temporal: int, shape_counts: Dict[Tuple[int, int], int]
    ) -> List[PartitionShare]:
        """Run the partition engine once per distinct tile shape."""
        shares: List[PartitionShare] = []
        for (sr, sc), count in sorted(shape_counts.items(), reverse=True):
            m, k, n = gemm_from_mapping(sr, sc, temporal, self.config.dataflow)
            with trace.span(
                "engine.partition_tile", layer=layer.name, sr=sr, sc=sc, count=count
            ):
                part_result = self._partition_sim.run_gemm(
                    m, k, n, name=f"{layer.name}[{sr}x{sc}]"
                )
            shares.append(PartitionShare(count=count, sr=sr, sc=sc, result=part_result))
        if metrics.enabled:
            metrics.counter("sim.tiles_mapped").add(
                sum(count for count in shape_counts.values())
            )
            metrics.counter("sim.tile_shapes").add(len(shape_counts))
        return shares

    def _aggregate(
        self,
        layer: Layer,
        shares: List[PartitionShare],
        runtime: int,
        idle_partitions: int = 0,
        failed_partitions: int = 0,
        remapped_tiles: int = 0,
        mapping_utilization: Optional[float] = None,
        compute_pes: Optional[int] = None,
    ) -> LayerResult:
        config = self.config
        num_partitions = config.num_partitions

        sram = SramCounts()
        dram_read = dram_write = cold_start = 0
        peak_read = peak_write = 0.0
        mapping_util_sum = 0.0
        macs = 0
        max_row_folds = max_col_folds = 0
        for share in shares:
            res = share.result
            sram = sram + res.sram * share.count
            dram_read += res.dram_read_bytes * share.count
            dram_write += res.dram_write_bytes * share.count
            cold_start += res.cold_start_bytes * share.count
            macs += res.macs * share.count
            # Worst case every partition prefetches at its peak at once:
            # the grid's interface must provision the sum.
            peak_read += res.peak_read_bw * share.count
            peak_write += res.peak_write_bw * share.count
            mapping_util_sum += res.mapping_utilization * share.count
            max_row_folds = max(max_row_folds, res.row_folds)
            max_col_folds = max(max_col_folds, res.col_folds)

        if mapping_utilization is None:
            mapping_utilization = mapping_util_sum / num_partitions
        total_pes = (
            compute_pes
            if compute_pes is not None
            else config.effective_array_rows * config.effective_array_cols * num_partitions
        )
        return LayerResult(
            layer_name=layer.name,
            dataflow=config.dataflow,
            array_rows=config.effective_array_rows,
            array_cols=config.effective_array_cols,
            partition_rows=config.partition_rows,
            partition_cols=config.partition_cols,
            total_cycles=runtime,
            macs=macs,
            mapping_utilization=mapping_utilization,
            compute_utilization=macs / (total_pes * runtime),
            sram=sram,
            dram_read_bytes=dram_read,
            dram_write_bytes=dram_write,
            cold_start_bytes=cold_start,
            avg_read_bw=dram_read / runtime,
            avg_write_bw=dram_write / runtime,
            peak_read_bw=peak_read,
            peak_write_bw=peak_write,
            word_bytes=config.word_bytes,
            row_folds=max_row_folds,
            col_folds=max_col_folds,
            idle_partitions=idle_partitions,
            failed_partitions=failed_partitions,
            remapped_tiles=remapped_tiles,
        )


def simulate(
    config: HardwareConfig,
    layer: Layer,
    verify: bool = False,
    rel_tol: float = 0.0,
) -> LayerResult:
    """Convenience front door: route to the right simulator for ``config``.

    With ``verify=True`` the result is cross-checked against the
    analytical model (Eq. 1-6, degraded-aware) before being returned;
    divergence beyond ``rel_tol`` raises
    :class:`~repro.errors.InvariantError`.
    """
    if config.is_monolithic:
        result = Simulator(config).run_layer(layer)
    else:
        result = ScaleOutSimulator(config).run_layer(layer)
    if verify:
        from repro.robust.invariants import check_layer_result

        check_layer_result(result, layer, config, rel_tol=rel_tol)
    return result
