"""repro.resilience — degraded-mode accelerator simulation.

Real multi-pod deployments keep serving when hardware fails.  This
package models that: :class:`FaultMap` describes what is dead (PE
rows/columns, partitions, NoC links), :func:`remap_layer` redistributes
the mapped workload over the survivors with a deterministic
longest-processing-time greedy, and :func:`predict_layer_cycles` gives
the exact degraded analytical runtime the invariant guards hold the
cycle-accurate engine to.

The fault map rides inside :class:`~repro.config.hardware
.HardwareConfig` (``fault_map=``), so every downstream consumer — the
simulators, the NoC cost model, the energy model, reports — sees the
same degradation.  See ``docs/robustness.md`` ("Degraded-mode
simulation") for the full story.
"""
