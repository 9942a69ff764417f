"""Multi-workload optimization (paper Sec. IV-B).

A hardware accelerator must serve many layers.  The paper's method:

1. For each workload ``w_l``, find its locally runtime-optimal
   configuration ``a_k`` (via the analytical model).
2. The candidate set is the union of those local optima.
3. Runtime is additive across workloads, so the globally chosen
   configuration is ``A = argmin_{a_k} sum_l T_r(w_l, a_k)``.

Because the candidate set has at most one entry per workload,
exhaustive search over it is cheap.  :func:`candidate_costs` also
exposes the whole cost matrix so Fig. 13/14 (performance loss of the
fastest/2nd/.../slowest candidate) can be regenerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analytical.runtime import _scaleout_cycles, scaleout_runtime
from repro.analytical.search import CandidateConfig, best_scaleout, best_scaleup
from repro.config.hardware import Dataflow
from repro.errors import SearchError
from repro.mapping.dims import OperandMapping, map_layer
from repro.topology.layer import Layer


@dataclass(frozen=True)
class WorkloadSet:
    """A named collection of workloads sharing one dataflow."""

    name: str
    layers: Tuple[Layer, ...]
    dataflow: Dataflow = Dataflow.OUTPUT_STATIONARY

    def __post_init__(self) -> None:
        if not self.layers:
            raise SearchError(f"workload set {self.name!r} is empty")
        object.__setattr__(self, "layers", tuple(self.layers))

    def mappings(self) -> List[OperandMapping]:
        return [map_layer(layer, self.dataflow) for layer in self.layers]

    def __len__(self) -> int:
        return len(self.layers)


def _local_optima(
    workloads: WorkloadSet,
    total_macs: int,
    scaleout: bool,
    min_array_dim: int,
) -> List[CandidateConfig]:
    """Step 1-2: per-workload optimal configs, deduplicated."""
    seen = set()
    candidates: List[CandidateConfig] = []
    for layer in workloads.layers:
        if scaleout:
            cand = best_scaleout(
                layer,
                total_macs,
                dataflow=workloads.dataflow,
                min_array_dim=min_array_dim,
                include_monolithic=False,
            )
        else:
            cand = best_scaleup(layer, total_macs, dataflow=workloads.dataflow)
        key = (cand.partition_rows, cand.partition_cols, cand.array_rows, cand.array_cols)
        if key not in seen:
            seen.add(key)
            candidates.append(cand)
    return candidates


def candidate_costs(
    workloads: WorkloadSet,
    total_macs: int,
    scaleout: bool = False,
    min_array_dim: int = 8,
) -> List[Tuple[CandidateConfig, int]]:
    """Return every candidate with its total cost, sorted fastest first.

    Step 3 sums the Eq. 5/6 runtime of every workload on each candidate;
    the Table III mappings depend only on the workload set, so they are
    hoisted out of the candidate loop.
    """
    candidates = _local_optima(workloads, total_macs, scaleout, min_array_dim)
    sizes = [(m.sr, m.sc, m.t) for m in workloads.mappings()]
    costed = []
    for cand in candidates:
        point = (cand.partition_rows, cand.partition_cols, cand.array_rows, cand.array_cols)
        costed.append((cand, sum(_scaleout_cycles(*size, *point) for size in sizes)))
    costed.sort(key=lambda pair: pair[1])
    return costed


def pareto_search(
    workloads: WorkloadSet,
    total_macs: int,
    scaleout: bool = False,
    min_array_dim: int = 8,
) -> Tuple[CandidateConfig, List[Tuple[CandidateConfig, float]]]:
    """Find the globally optimized configuration A and the loss ranking.

    Returns ``(best, ranking)`` where ``ranking`` lists every candidate
    with its total runtime normalized to the best candidate's (the
    "perf. loss" axis of Fig. 13/14; 1.0 is the optimum).
    """
    costed = candidate_costs(workloads, total_macs, scaleout, min_array_dim)
    best, best_cost = costed[0]
    ranking = [(cand, cost / best_cost) for cand, cost in costed]
    return best, ranking


def per_workload_losses(
    workloads: WorkloadSet,
    candidate: CandidateConfig,
) -> Dict[str, float]:
    """Per-workload runtime of ``candidate`` normalized to that workload's
    own local optimum — how much each layer pays for the shared choice."""
    losses: Dict[str, float] = {}
    for layer in workloads.layers:
        local = (
            best_scaleout(
                layer,
                candidate.total_macs,
                dataflow=workloads.dataflow,
                include_monolithic=True,
            )
            if not candidate.is_monolithic
            else best_scaleup(layer, candidate.total_macs, dataflow=workloads.dataflow)
        )
        mapping = map_layer(layer, workloads.dataflow)
        actual = scaleout_runtime(
            mapping,
            candidate.partition_rows,
            candidate.partition_cols,
            candidate.array_rows,
            candidate.array_cols,
        )
        losses[layer.name] = actual / local.runtime
    return losses
