"""Sweep compiler: whole design-space grids as a few numpy passes.

``repro.analytical.search.search_space`` prices one candidate per
Python-level call; this module *compiles* the identical enumeration —
(partition grid x array shape) for one (layer, dataflow, MAC budget) —
into columnar int64 arrays and evaluates Eq. 1-6 runtime, mapping
utilization, the exact engine cycle count and the per-operand
closed-form DRAM traffic for every point in a handful of vectorized
kernels (:mod:`repro.analytical.vectorized`).  The shape-class
aggregation the fold planner applies per layer (at most two distinct
tile sizes per axis under ``split_evenly``) is lifted to the whole
grid: exact scale-out totals cost four vectorized passes, not
``P_R * P_C`` per point.

On top of the compiled arrays sits *analytical pruning* (the paper's
own Sec. III methodology, industrialized): the cycle-accurate engine
runs only on the frontier — the ``top_k`` analytically fastest points
plus everything within ``prune_band`` of the analytical optimum — and
the rest of the grid keeps its closed-form estimate.  Observability
counters account for every decision:

* ``perf.compiler.points`` — grid points compiled,
* ``perf.compiler.pruned`` — points settled analytically,
* ``perf.compiler.simulated`` — points handed to the engine,
* ``perf.compiler.reused`` — frontier points replayed from a journal
  or sweep ledger instead of re-simulated (incremental re-sweep).

Everything here is bit-identical to the scalar reference:
``CompiledSpace.candidates()`` equals ``search_space(...)`` element for
element, and ``CompiledSpace.best_index`` picks the point
``best_scaleout`` does (the ``(runtime, num_partitions)`` first
minimum).  The figures and ``repro search`` price through the scalar
selectors, which beat these arrays on every paper-sized space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - hint-only import
    from repro.robust.checkpoint import PointJournal

from repro.analytical.search import CandidateConfig, _as_mapping, _design_points
from repro.analytical.vectorized import (
    ceil_div_v,
    estimate_traffic_v,
    exact_cycles_v,
    mapping_utilization_v,
    scaleup_runtime_v,
)
from repro.config.hardware import Dataflow, HardwareConfig
from repro.errors import SearchError
from repro.mapping.dims import OperandMapping
from repro.obs import metrics
from repro.topology.layer import Layer

#: Default engine budget of the pruned frontier: the k analytically
#: fastest points always simulate ...
DEFAULT_TOP_K = 8

#: ... plus every point within this relative band of the analytical
#: optimum.  Eq. 4 charges edge folds the full-array latency, so the
#: engine can only be faster; a generous band keeps the true engine
#: optimum inside the simulated set (property-tested on the paper's
#: workloads).
DEFAULT_PRUNE_BAND = 0.25


@dataclass(frozen=True)
class CompiledSpace:
    """One design space, columnar: arrays over all candidate points."""

    mapping: OperandMapping
    total_macs: int
    min_array_dim: int
    partition_rows: np.ndarray
    partition_cols: np.ndarray
    array_rows: np.ndarray
    array_cols: np.ndarray
    runtime: np.ndarray
    utilization: np.ndarray

    def __len__(self) -> int:
        return int(self.runtime.shape[0])

    @property
    def dataflow(self) -> Dataflow:
        return self.mapping.dataflow

    @property
    def num_partitions(self) -> np.ndarray:
        return self.partition_rows * self.partition_cols

    # ------------------------------------------------------------------
    # Materialization (bit-identical to the scalar search)
    # ------------------------------------------------------------------
    def candidate(self, index: int) -> CandidateConfig:
        return CandidateConfig(
            partition_rows=int(self.partition_rows[index]),
            partition_cols=int(self.partition_cols[index]),
            array_rows=int(self.array_rows[index]),
            array_cols=int(self.array_cols[index]),
            runtime=int(self.runtime[index]),
            utilization=float(self.utilization[index]),
            dataflow=self.dataflow,
        )

    def candidates(self) -> List[CandidateConfig]:
        """Materialize every point, in scalar enumeration order."""
        return [self.candidate(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    # Optima (scalar tie-breaking, vectorized selection)
    # ------------------------------------------------------------------
    def best_index(self, include_monolithic: bool = True) -> int:
        """Index of the scalar-identical best point.

        ``np.lexsort`` is stable, so the first row of the ``(runtime,
        num_partitions)`` ordering is the first minimum in enumeration
        order, which is the point
        :func:`repro.analytical.search.best_scaleout` picks.
        """
        parts = self.num_partitions
        eligible = np.ones(len(self), dtype=bool)
        if not include_monolithic:
            eligible = parts > 1
            if not eligible.any():
                raise SearchError(
                    f"no partitioned configuration exists for {self.total_macs} "
                    f"MACs with arrays at least "
                    f"{self.min_array_dim}x{self.min_array_dim}"
                )
        pool = np.nonzero(eligible)[0]
        order = np.lexsort((parts[pool], self.runtime[pool]))
        return int(pool[order[0]])

    # ------------------------------------------------------------------
    # Frontier selection
    # ------------------------------------------------------------------
    def frontier(
        self,
        top_k: int = DEFAULT_TOP_K,
        prune_band: float = DEFAULT_PRUNE_BAND,
    ) -> List[int]:
        """Indices worth cycle-accurate simulation (ascending)."""
        return frontier_indices(self.runtime, top_k=top_k, prune_band=prune_band)

    # ------------------------------------------------------------------
    # Exact scale-out traffic: shape classes per grid, four passes
    # ------------------------------------------------------------------
    def scaleout_traffic(
        self, config: Optional[HardwareConfig] = None
    ) -> "CompiledTraffic":
        """Exact per-point DRAM totals and engine cycles, vectorized.

        ``split_evenly`` hands each partition one of at most two tile
        sizes per axis, so every grid point decomposes into <= 4 shape
        classes.  Evaluating each class across *all* points at once (the
        per-grid lift of ``FoldPlan.shape_classes``) yields totals that
        match the engine's summed per-partition traffic and max-share
        cycle count exactly, with partition-divided SRAM working sets.
        """
        if config is None:
            from repro.config.presets import paper_scaling_config

            config = paper_scaling_config(8, 8)
        sr, sc, t = self.mapping.sr, self.mapping.sc, self.mapping.t
        pr = self.partition_rows
        pc = self.partition_cols
        parts = pr * pc
        # Partition-divided SRAM, exactly as HardwareConfig.partition_config.
        ifmap_working = (np.maximum(1, config.ifmap_sram_kb // parts) * 1024) // 2
        filter_working = (np.maximum(1, config.filter_sram_kb // parts) * 1024) // 2

        hi_r, lo_r = ceil_div_v(sr, pr), sr // pr
        hi_c, lo_c = ceil_div_v(sc, pc), sc // pc
        n_hi_r = sr % pr
        n_hi_c = sc % pc
        n_lo_r = pr - n_hi_r
        n_lo_c = pc - n_hi_c
        # When the split is even, hi == lo: the "hi" class count is zero
        # and the lo class carries every partition.
        even_r = n_hi_r == 0
        even_c = n_hi_c == 0
        n_hi_r = np.where(even_r, 0, n_hi_r)
        n_lo_r = np.where(even_r, pr, n_lo_r)
        n_hi_c = np.where(even_c, 0, n_hi_c)
        n_lo_c = np.where(even_c, pc, n_lo_c)

        read = np.zeros(len(self), dtype=np.int64)
        write = np.zeros(len(self), dtype=np.int64)
        for tile_sr, count_r in ((hi_r, n_hi_r), (lo_r, n_lo_r)):
            for tile_sc, count_c in ((hi_c, n_hi_c), (lo_c, n_lo_c)):
                # Zero-extent tiles are idle partitions: no traffic.
                count = np.where(
                    (tile_sr > 0) & (tile_sc > 0), count_r * count_c, 0
                )
                ifmap, filt, ofmap, _ = estimate_traffic_v(
                    tile_sr,
                    tile_sc,
                    t,
                    self.dataflow,
                    self.array_rows,
                    self.array_cols,
                    ifmap_working,
                    filter_working,
                    config.word_bytes,
                )
                read = read + count * (ifmap + filt)
                write = write + count * ofmap
        cycles = exact_cycles_v(hi_r, hi_c, t, self.array_rows, self.array_cols)
        return CompiledTraffic(read_bytes=read, write_bytes=write, cycles=cycles)


@dataclass(frozen=True)
class CompiledTraffic:
    """Exact per-point scale-out totals from the compiled shape classes."""

    read_bytes: np.ndarray
    write_bytes: np.ndarray
    #: Exact engine cycle count of the slowest (ceil-tile) partition.
    cycles: np.ndarray

    @property
    def total_bytes(self) -> np.ndarray:
        return self.read_bytes + self.write_bytes

    @property
    def avg_total_bw(self) -> np.ndarray:
        return self.total_bytes / self.cycles


def compile_search_space(
    workload: Union[Layer, OperandMapping],
    total_macs: int,
    dataflow: Dataflow = Dataflow.OUTPUT_STATIONARY,
    min_array_dim: int = 8,
) -> CompiledSpace:
    """Compile the full scale-up + scale-out space into columnar arrays.

    The points come from the scalar search's own enumeration
    (:func:`repro.analytical.search._design_points`: same order, same
    dimension floors); only the per-point Eq. 5/6 evaluation is
    replaced by vectorized kernels, so ``.candidates()`` is
    element-for-element equal to the scalar result.
    """
    points = list(_design_points(total_macs, min_array_dim))
    mapping = _as_mapping(workload, dataflow)
    pr, pc, rows, cols = (np.array(column, dtype=np.int64) for column in zip(*points))
    tile_sr = ceil_div_v(mapping.sr, pr)
    tile_sc = ceil_div_v(mapping.sc, pc)
    runtime = scaleup_runtime_v(tile_sr, tile_sc, mapping.t, rows, cols)
    utilization = mapping_utilization_v(tile_sr, tile_sc, rows, cols)
    metrics.counter("perf.compiler.points").add(len(points))
    return CompiledSpace(
        mapping=mapping,
        total_macs=total_macs,
        min_array_dim=min_array_dim,
        partition_rows=pr,
        partition_cols=pc,
        array_rows=rows,
        array_cols=cols,
        runtime=runtime,
        utilization=utilization,
    )


def frontier_indices(
    scores: Sequence[float],
    top_k: int = DEFAULT_TOP_K,
    prune_band: float = DEFAULT_PRUNE_BAND,
) -> List[int]:
    """Indices of the analytically interesting frontier, ascending.

    Keeps the ``top_k`` lowest scores (stable order on ties) plus every
    point with ``score <= best * (1 + prune_band)``.  ``top_k=0`` with
    ``prune_band=0`` keeps only the exact analytical optima.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if prune_band < 0:
        raise ValueError(f"prune_band must be >= 0, got {prune_band}")
    values = np.asarray(scores)
    if values.size == 0:
        return []
    order = np.argsort(values, kind="stable")
    keep = set(int(i) for i in order[:top_k])
    best = values[order[0]]
    keep |= set(int(i) for i in np.nonzero(values <= best * (1.0 + prune_band))[0])
    return sorted(keep)


def plan_estimates(
    estimator: Callable[..., Tuple[dict, float]],
    points: Sequence[dict],
    top_k: Optional[int] = None,
    prune_band: Optional[float] = None,
    journal: Optional["PointJournal"] = None,
) -> List[Optional[List[dict]]]:
    """Score every point analytically and keep only the frontier exact.

    Returns the ``estimates`` sequence
    :func:`repro.robust.executor.execute_grid` consumes: ``None`` for
    frontier points (simulate), param-prefixed ``estimated`` rows for
    the pruned rest.  Every point is scored and the frontier is chosen
    over the full grid regardless of ``journal``, so the plan — and
    therefore the rows — is byte-identical whether or not a sweep
    resumes or re-sweeps incrementally.

    ``journal`` (a checkpoint store or sweep ledger) only refines the
    accounting: points it has already completed will be replayed, not
    executed, so they move from ``perf.compiler.simulated`` to
    ``perf.compiler.reused`` — which is what lets an incremental
    re-sweep assert "only the changed points simulated" from counters.
    """
    scored: List[Tuple[dict, float]] = []
    for params in points:
        row, score = estimator(**params)
        overlap = set(params) & set(row)
        if overlap:
            raise ValueError(
                f"estimator keys {sorted(overlap)} collide with parameter names"
            )
        scored.append((row, float(score)))
    frontier = set(
        frontier_indices(
            [score for _, score in scored],
            top_k=DEFAULT_TOP_K if top_k is None else top_k,
            prune_band=DEFAULT_PRUNE_BAND if prune_band is None else prune_band,
        )
    )
    estimates: List[Optional[List[dict]]] = []
    for index, (params, (row, _)) in enumerate(zip(points, scored)):
        if index in frontier:
            estimates.append(None)
        else:
            estimates.append([{**params, "status": "estimated", **row}])
    reused = 0
    if journal is not None:
        reused = sum(
            1
            for index, params in enumerate(points)
            if index in frontier and journal.completed(params)
        )
    metrics.counter("perf.compiler.points").add(len(points))
    metrics.counter("perf.compiler.simulated").add(len(frontier) - reused)
    metrics.counter("perf.compiler.reused").add(reused)
    metrics.counter("perf.compiler.pruned").add(len(points) - len(frontier))
    return estimates


def simulate_candidates(
    layer: Layer,
    space: CompiledSpace,
    indices: Sequence[int],
) -> List[Tuple[int, int]]:
    """Run the cycle-accurate engine on the chosen frontier points.

    Returns ``(index, engine_cycles)`` pairs and maintains the
    ``perf.compiler.simulated`` / ``perf.compiler.pruned`` accounting
    for the whole space.
    """
    from repro.config.presets import paper_scaling_config
    from repro.engine.scaleout import simulate

    results: List[Tuple[int, int]] = []
    for index in indices:
        cand = space.candidate(index)
        config = paper_scaling_config(
            cand.array_rows,
            cand.array_cols,
            cand.partition_rows,
            cand.partition_cols,
            dataflow=space.dataflow,
        )
        result = simulate(config, layer)
        results.append((int(index), int(result.total_cycles)))
    metrics.counter("perf.compiler.simulated").add(len(results))
    metrics.counter("perf.compiler.pruned").add(len(space) - len(results))
    return results
