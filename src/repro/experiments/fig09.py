"""Fig. 9: the scale-up/scale-out design space for one layer.

Both figures price the space with
:func:`repro.analytical.search.search_space`: one scalar walk of the
(partition grid, array shape) points with integer Eq. 4-6 arithmetic.
TF0's space holds 16-292 points over the paper's budgets, so the walk
costs milliseconds and the command loads no numpy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analytical.search import search_space
from repro.experiments.common import PAPER_MAC_BUDGETS
from repro.topology.layer import Layer
from repro.workloads.language import language_layer


def fig09a_search_space(
    layer: Optional[Layer] = None,
    budgets: Sequence[int] = tuple(PAPER_MAC_BUDGETS),
    min_array_dim: int = 8,
) -> List[Dict]:
    """Every (grid, array shape) point with normalized runtime (Fig. 9a)."""
    layer = layer or language_layer("TF0")
    rows: List[Dict] = []
    for budget in budgets:
        space = search_space(layer, budget, min_array_dim=min_array_dim)
        worst = max(cand.runtime for cand in space)
        for cand in space:
            rows.append(
                {
                    "macs": budget,
                    "partitions": f"{cand.partition_rows}x{cand.partition_cols}",
                    "num_partitions": cand.num_partitions,
                    "array": f"{cand.array_rows}x{cand.array_cols}",
                    "runtime": cand.runtime,
                    "normalized": cand.runtime / worst,
                }
            )
    return rows


def fig09bc_aspect_sweep(
    budget: int,
    layer: Optional[Layer] = None,
    min_array_dim: int = 8,
) -> List[Dict]:
    """Monolithic aspect-ratio sweep with utilization (Fig. 9b/c)."""
    layer = layer or language_layer("TF0")
    space = search_space(layer, budget, min_array_dim=min_array_dim)
    mono = [cand for cand in space if cand.is_monolithic]
    return [
        {
            "macs": budget,
            "array": f"{cand.array_rows}x{cand.array_cols}",
            "aspect_R:C": round(cand.aspect_ratio, 6),
            "runtime": cand.runtime,
            "utilization": round(cand.utilization, 4),
        }
        for cand in sorted(mono, key=lambda cand: cand.aspect_ratio)
    ]
