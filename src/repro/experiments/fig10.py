"""Fig. 10: best scale-up vs best scale-out runtime ratios.

The optima come from the scalar selectors in
:mod:`repro.analytical.search`, which price each point with integer
Eq. 4-6 arithmetic and materialize only the winner; the command loads
no numpy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.analytical.search import best_scaleout, best_scaleup
from repro.topology.layer import Layer
from repro.workloads.language import TABLE_IV_DIMS, language_layer
from repro.workloads.resnet50 import fig10_resnet_layers

DEFAULT_BUDGETS = (2**10, 2**12, 2**14, 2**16)


def ratio_rows(
    layers: Iterable[Layer],
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    min_array_dim: int = 8,
) -> List[Dict]:
    """One row per (layer, budget) with the monolithic/partitioned ratio."""
    rows: List[Dict] = []
    for layer in layers:
        for budget in budgets:
            up = best_scaleup(layer, budget)
            out = best_scaleout(layer, budget, min_array_dim=min_array_dim)
            rows.append(
                {
                    "layer": layer.name,
                    "degenerate": layer.gemm_m == 1,
                    "macs": budget,
                    "scaleup_cycles": up.runtime,
                    "scaleup_array": f"{up.array_rows}x{up.array_cols}",
                    "scaleout_cycles": out.runtime,
                    "scaleout_config": out.label(),
                    "ratio": round(up.runtime / out.runtime, 3),
                }
            )
    return rows


def fig10a_resnet(budgets: Sequence[int] = DEFAULT_BUDGETS) -> List[Dict]:
    """First and last five ResNet-50 layers (Fig. 10a)."""
    return ratio_rows(list(fig10_resnet_layers()), budgets)


def fig10b_language(budgets: Sequence[int] = DEFAULT_BUDGETS) -> List[Dict]:
    """The Table IV language layers (Fig. 10b)."""
    return ratio_rows([language_layer(name) for name in TABLE_IV_DIMS], budgets)
