"""Performance layer: memoization and the vectorized sweep compiler.

``repro.perf`` holds the machinery that makes design-space sweeps fast
without changing what they compute:

* :data:`cache` — a process-wide bounded LRU memoizing simulated
  ``(LayerResult, DramTraffic)`` pairs across layers, tiles and grid
  points (ResNet-50 repeats conv shapes; scale-out grids collapse to
  <= 4 distinct GEMMs per layer).
* :mod:`~repro.perf.compiler` — the sweep compiler: an entire
  (grid x array shape) design space evaluated as numpy arrays in a few
  vectorized passes, with frontier selection so the cycle-accurate
  engine only runs on analytically interesting points.

Every speed-up in this package is exactness-preserving and covered by
equivalence tests against the uncached reference paths.
"""

from repro.perf.cache import SimulationCache, cache, simulation_key
from repro.perf.compiler import (
    DEFAULT_PRUNE_BAND,
    DEFAULT_TOP_K,
    CompiledSpace,
    CompiledTraffic,
    best_scaleout_compiled,
    best_scaleup_compiled,
    compile_search_space,
    frontier_indices,
    simulate_candidates,
)

__all__ = [
    "SimulationCache",
    "cache",
    "simulation_key",
    "DEFAULT_PRUNE_BAND",
    "DEFAULT_TOP_K",
    "CompiledSpace",
    "CompiledTraffic",
    "best_scaleout_compiled",
    "best_scaleup_compiled",
    "compile_search_space",
    "frontier_indices",
    "simulate_candidates",
]
