"""Design-space enumeration and optimal-configuration search (Sec. III-B/C).

The paper's search space for a fixed MAC budget ``N`` consists of

* every monolithic array shape ``R x C`` with ``R * C = N``, and
* every partitioned configuration: a ``P_R x P_C`` grid of identical
  ``R x C`` arrays with ``P_R * P_C * R * C = N`` and each array
  dimension at least 8 (the paper's floor for a "reasonable" array).

For power-of-two budgets (all the paper uses) shapes are enumerated as
powers of two; general budgets fall back to full factor-pair
enumeration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analytical.runtime import mapping_utilization, scaleout_runtime
from repro.config.hardware import Dataflow
from repro.errors import SearchError
from repro.mapping.dims import OperandMapping, map_layer
from repro.topology.layer import Layer
from repro.utils.mathutils import factor_pairs, is_power_of_two
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the scale-up/scale-out design space, with its cost."""

    partition_rows: int
    partition_cols: int
    array_rows: int
    array_cols: int
    runtime: int
    utilization: float
    dataflow: Dataflow

    @property
    def num_partitions(self) -> int:
        return self.partition_rows * self.partition_cols

    @property
    def is_monolithic(self) -> bool:
        return self.num_partitions == 1

    @property
    def total_macs(self) -> int:
        return self.num_partitions * self.array_rows * self.array_cols

    @property
    def aspect_ratio(self) -> float:
        """Row:column ratio of one array."""
        return self.array_rows / self.array_cols

    def label(self) -> str:
        return (
            f"{self.partition_rows}x{self.partition_cols} partitions of "
            f"{self.array_rows}x{self.array_cols}"
        )


def _shapes(num_macs: int, min_dim: int) -> List[Tuple[int, int]]:
    """All ``(rows, cols)`` with ``rows * cols == num_macs``, dims >= min_dim.

    Power-of-two budgets enumerate power-of-two shapes (the paper's
    convention); other budgets enumerate every factor pair.
    """
    if is_power_of_two(num_macs):
        shapes = []
        rows = 1
        while rows <= num_macs:
            cols = num_macs // rows
            if rows >= min_dim and cols >= min_dim:
                shapes.append((rows, cols))
            rows <<= 1
        return shapes
    return [pair for pair in factor_pairs(num_macs, minimum=min_dim)]


def array_shapes(num_macs: int, min_dim: int = 1) -> List[Tuple[int, int]]:
    """Enumerate monolithic array shapes for a MAC budget."""
    check_positive_int(num_macs, "num_macs")
    check_positive_int(min_dim, "min_dim")
    shapes = _shapes(num_macs, min_dim)
    if not shapes:
        raise SearchError(
            f"no {min_dim}-bounded array shape exists for {num_macs} MACs"
        )
    return shapes


def partition_grids(num_partitions: int) -> List[Tuple[int, int]]:
    """Enumerate ``(P_R, P_C)`` grids for a partition count."""
    check_positive_int(num_partitions, "num_partitions")
    return _shapes(num_partitions, min_dim=1)


def _partition_counts(total_macs: int, min_array_dim: int) -> Iterable[int]:
    """Partition counts that leave each array at least min_dim x min_dim."""
    max_partitions = total_macs // (min_array_dim * min_array_dim)
    if is_power_of_two(total_macs):
        count = 1
        while count <= max_partitions:
            yield count
            count <<= 1
    else:
        for count in range(1, max_partitions + 1):
            if total_macs % count == 0:
                yield count


@functools.lru_cache(maxsize=512)
def _cached_layer_mapping(layer: Layer, dataflow: Dataflow) -> OperandMapping:
    """Memoized Table III lookup: the mapping depends only on
    ``(layer, dataflow)``, yet callers like :func:`best_scaleup` /
    :func:`best_scaleout` are invoked once per (layer, budget) pair and
    used to re-derive it every time.  Layers are frozen dataclasses, so
    they key an LRU cache directly."""
    return map_layer(layer, dataflow)


def _as_mapping(workload: Union[Layer, OperandMapping], dataflow: Dataflow) -> OperandMapping:
    if isinstance(workload, OperandMapping):
        if workload.dataflow is not dataflow:
            raise SearchError(
                f"mapping dataflow {workload.dataflow} != requested {dataflow}"
            )
        return workload
    return _cached_layer_mapping(workload, dataflow)


def search_space(
    workload: Union[Layer, OperandMapping],
    total_macs: int,
    dataflow: Dataflow = Dataflow.OUTPUT_STATIONARY,
    min_array_dim: int = 8,
) -> List[CandidateConfig]:
    """Enumerate and cost the full scale-up + scale-out space (Fig. 9a).

    Returns one :class:`CandidateConfig` per (grid, array shape) point,
    including the monolithic (1x1 grid) points.  Runtime is the
    analytical Eq. 5/6 stall-free value.
    """
    check_positive_int(total_macs, "total_macs")
    mapping = _as_mapping(workload, dataflow)
    candidates: List[CandidateConfig] = []
    for num_partitions in _partition_counts(total_macs, min_array_dim):
        macs_per_array = total_macs // num_partitions
        # Monolithic configurations are allowed any aspect ratio down to
        # one row/column; partitioned arrays respect the paper's floor.
        dim_floor = 1 if num_partitions == 1 else min_array_dim
        shapes = _shapes(macs_per_array, dim_floor)
        for grid_rows, grid_cols in partition_grids(num_partitions):
            tile = OperandMapping(
                sr=-(-mapping.sr // grid_rows),
                sc=-(-mapping.sc // grid_cols),
                t=mapping.t,
                dataflow=mapping.dataflow,
            )
            for rows, cols in shapes:
                runtime = scaleout_runtime(mapping, grid_rows, grid_cols, rows, cols)
                util = mapping_utilization(tile, rows, cols)
                candidates.append(
                    CandidateConfig(
                        partition_rows=grid_rows,
                        partition_cols=grid_cols,
                        array_rows=rows,
                        array_cols=cols,
                        runtime=runtime,
                        utilization=util,
                        dataflow=dataflow,
                    )
                )
    if not candidates:
        raise SearchError(
            f"empty design space for {total_macs} MACs with min dim {min_array_dim}"
        )
    return candidates


def best_scaleup(
    workload: Union[Layer, OperandMapping],
    num_macs: int,
    dataflow: Dataflow = Dataflow.OUTPUT_STATIONARY,
    min_dim: int = 1,
) -> CandidateConfig:
    """The fastest monolithic configuration for one workload (Sec. III-B)."""
    mapping = _as_mapping(workload, dataflow)
    best: Optional[CandidateConfig] = None
    for rows, cols in array_shapes(num_macs, min_dim):
        runtime = scaleout_runtime(mapping, 1, 1, rows, cols)
        if best is None or runtime < best.runtime:
            best = CandidateConfig(
                partition_rows=1,
                partition_cols=1,
                array_rows=rows,
                array_cols=cols,
                runtime=runtime,
                utilization=mapping_utilization(mapping, rows, cols),
                dataflow=dataflow,
            )
    assert best is not None  # array_shapes raised otherwise
    return best


def best_scaleout(
    workload: Union[Layer, OperandMapping],
    total_macs: int,
    dataflow: Dataflow = Dataflow.OUTPUT_STATIONARY,
    min_array_dim: int = 8,
    include_monolithic: bool = False,
) -> CandidateConfig:
    """The fastest partitioned configuration for one workload (Sec. III-C).

    By default the monolithic point is excluded (Fig. 10 compares best
    scale-up *against* best scale-out); pass ``include_monolithic=True``
    to search the whole space.
    """
    candidates = search_space(workload, total_macs, dataflow, min_array_dim)
    pool = [
        cand
        for cand in candidates
        if include_monolithic or not cand.is_monolithic
    ]
    if not pool:
        raise SearchError(
            f"no partitioned configuration exists for {total_macs} MACs "
            f"with arrays at least {min_array_dim}x{min_array_dim}"
        )
    return min(pool, key=lambda cand: (cand.runtime, cand.num_partitions))


def pareto_front(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated rows of ``points`` (all minimized).

    A row is kept when no other row is at least as good on every
    objective and strictly better on one.  Objectives to *maximize*
    should be negated by the caller; ``repro stats --ledger --pareto``
    minimizes the named columns of a sweep ledger's rows with it.
    Duplicate rows all survive — dominance is strict — and order is
    ascending, so results are deterministic.
    """
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2:
        raise SearchError(
            f"pareto_front needs a 2-D (points x objectives) array, "
            f"got shape {matrix.shape}"
        )
    kept: List[int] = []
    for index in range(matrix.shape[0]):
        row = matrix[index]
        dominated = np.any(
            np.all(matrix <= row, axis=1) & np.any(matrix < row, axis=1)
        )
        if not dominated:
            kept.append(index)
    return kept
