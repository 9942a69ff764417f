"""Name-based dispatch over the paper's experiments.

Each id maps to the module, function and arguments that build it, so
dispatch imports one figure's module and nothing else.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_EXPERIMENTS: Dict[str, Tuple[str, str, Tuple]] = {
    "table1": ("tables", "table1_config_schema", ()),
    "table2": ("tables", "table2_topology_schema", ()),
    "table3": ("tables", "table3_mapping", ()),
    "table4": ("tables", "table4_language_dims", ()),
    "fig4": ("fig04", "fig04_validation", ()),
    "fig9a": ("fig09", "fig09a_search_space", ()),
    "fig9b": ("fig09", "fig09bc_aspect_sweep", (2**14,)),
    "fig9c": ("fig09", "fig09bc_aspect_sweep", (2**16,)),
    "fig10a": ("fig10", "fig10a_resnet", ()),
    "fig10b": ("fig10", "fig10b_language", ()),
    "fig11abc": ("fig11", "fig11_resnet_cba3", ()),
    "fig11def": ("fig11", "fig11_transformer_tf0", ()),
    "fig12": ("fig12", "fig12_energy", ()),
    "fig13-resnet": ("fig13", "fig13_resnet", ()),
    "fig13-language": ("fig13", "fig13_language", ()),
    "fig14-resnet": ("fig13", "fig14_resnet", ()),
    "fig14-language": ("fig13", "fig14_language", ()),
    "resilience": ("resilience", "resilience_experiment", ()),
}


def available_experiments() -> List[str]:
    """Experiment ids accepted by :func:`run_experiment`, sorted."""
    return sorted(_EXPERIMENTS)


def run_experiment(name: str) -> List[Dict]:
    """Regenerate one paper table/figure; returns its data rows."""
    try:
        module, function, args = _EXPERIMENTS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        ) from None
    # __import__ keeps the import visible to -X importtime profiles.
    figure = __import__(f"repro.experiments.{module}", fromlist=(function,))
    return getattr(figure, function)(*args)
