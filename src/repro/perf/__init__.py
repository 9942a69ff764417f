"""Performance layer: memoization and the vectorized sweep compiler.

``repro.perf`` holds the machinery that makes design-space sweeps fast
without changing what they compute:

* :mod:`~repro.perf.cache` — the engine's one memo seam: a
  process-wide LRU memoizing simulated ``(LayerResult, DramTraffic)``
  pairs across layers, tiles and grid points (ResNet-50 repeats conv
  shapes; scale-out grids collapse to <= 4 distinct GEMMs per layer).
* :mod:`~repro.perf.compiler` — the sweep compiler: an entire
  (grid x array shape) design space evaluated as numpy arrays in a few
  vectorized passes, with frontier selection so the cycle-accurate
  engine only runs on analytically interesting points.

Every speed-up in this package is exactness-preserving and covered by
equivalence tests against the uncached reference paths.
"""
