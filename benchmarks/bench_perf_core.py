"""Perf core: the result cache and closed-form folds.

This benchmark measures the cache and the closed-form fold path on the
paper's own workloads and records honest numbers:

* ResNet-50 scale-up: a memoized re-run against a cold, cache-disabled
  run (the cache serves repeated conv shapes — ResNet-50's residual
  stages reuse the same GEMMs many times);
* TF0 partition sweep: the closed-form fold path, spot-checked for
  internal consistency.

Each series lands in ``results/`` as CSV; ``run_once`` stamps wall time
and counter deltas into ``results/perf/`` as JSON.
"""

from __future__ import annotations

import functools
import time

from conftest import run_once

from repro.config.presets import paper_scaling_config
from repro.engine.simulator import Simulator
from repro.perf.cache import cache
from repro.sweep import run_sweep, sweep_measure
from repro.workloads.registry import get_workload
from repro.workloads.language import language_layer


def test_resnet50_scaleup_cache_speedup(benchmark, reporter):
    network = get_workload("resnet50")
    config = paper_scaling_config(64, 64)

    cache.reset()
    cache.disable()
    start = time.perf_counter()
    baseline = Simulator(config).run_network(network)
    cold_s = time.perf_counter() - start

    cache.reset()
    start = time.perf_counter()
    populate = Simulator(config).run_network(network)
    populate_s = time.perf_counter() - start
    populate_info = cache.info()

    start = time.perf_counter()
    warm = run_once(benchmark, lambda: Simulator(config).run_network(network))
    warm_s = time.perf_counter() - start
    warm_info = cache.info()

    # The cache must be semantically invisible across the full topology.
    assert populate.layers == baseline.layers
    assert warm.layers == baseline.layers
    # ResNet-50 repeats conv shapes: even the populating run hits.
    assert populate_info["hits"] > 0
    # The warm run resolves every layer from the cache.
    assert warm_info["hits"] - populate_info["hits"] == len(warm.layers)
    assert warm_info["misses"] == populate_info["misses"]
    assert warm_s < cold_s, "a fully memoized run must beat a cold one"

    reporter.emit(
        "resnet50 scaleup cache speedup",
        [
            {"mode": "cache disabled", "wall_time_s": round(cold_s, 4), "speedup": 1.0},
            {
                "mode": "cache cold (populating)",
                "wall_time_s": round(populate_s, 4),
                "speedup": round(cold_s / populate_s, 3),
            },
            {
                "mode": "cache warm",
                "wall_time_s": round(warm_s, 4),
                "speedup": round(cold_s / warm_s, 3),
            },
        ],
    )
    cache.reset()


def test_tf0_sweep_closed_form_consistency(benchmark, reporter):
    """The TF0 partition sweep runs entirely on the closed-form fold
    path; spot-check its figures stay internally consistent."""
    layer = language_layer("TF0")
    fn = functools.partial(sweep_measure, layer=layer, macs=2**16)

    cache.reset()
    rows = run_once(benchmark, lambda: run_sweep(fn, partitions=[1, 4, 16, 64, 256]))
    cycles = [row["cycles"] for row in rows]
    assert cycles == sorted(cycles, reverse=True), "runtime falls with partitions"
    bandwidth = [row["avg_bw"] for row in rows]
    assert bandwidth == sorted(bandwidth), "BW demand rises with partitions"
    reporter.emit("tf0 partition sweep closed form", rows)
    cache.reset()
