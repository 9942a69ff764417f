"""The simulation result cache: transparent memoization of GEMM runs.

The cache must be *semantically invisible* — every LayerResult a cached
simulator returns must equal the one a cold simulator computes — while
being observable through its counters and strictly bounded in size.
"""

from __future__ import annotations

import pytest

from repro.config.hardware import Dataflow, HardwareConfig
from repro.engine.scaleout import ScaleOutSimulator
from repro.engine.simulator import Simulator
from repro.obs import metrics
from repro.perf.cache import SimulationCache, cache, simulation_key
from repro.resilience.faultmap import FaultMap
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _pristine_cache():
    """Each test starts (and leaves the suite) with a clean global cache."""
    cache.reset()
    yield
    cache.reset()


def _config(**overrides) -> HardwareConfig:
    base = dict(
        array_rows=8,
        array_cols=8,
        ifmap_sram_kb=16,
        filter_sram_kb=16,
        ofmap_sram_kb=8,
    )
    base.update(overrides)
    return HardwareConfig(**base)


# ----------------------------------------------------------------------
# SimulationCache mechanics
# ----------------------------------------------------------------------

def test_lru_eviction_keeps_the_most_recent_entries():
    small = SimulationCache(max_entries=2)
    small.put("a", 1)
    small.put("b", 2)
    assert small.get("a") == 1  # refresh "a": now "b" is least recent
    small.put("c", 3)
    assert len(small) == 2
    assert small.get("b") is None
    assert small.get("a") == 1
    assert small.get("c") == 3
    assert small.info()["evictions"] == 1


def test_disable_clears_and_stops_serving():
    box = SimulationCache()
    box.put("k", "v")
    box.disable()
    assert len(box) == 0
    assert box.get("k") is None
    box.put("k2", "v2")
    assert len(box) == 0  # puts are ignored while disabled
    box.enable()
    assert box.get("k") is None  # old contents did not survive
    box.put("k", "v")
    assert box.get("k") == "v"


def test_reset_restores_pristine_state():
    box = SimulationCache()
    box.put("k", "v")
    box.get("k")
    box.get("missing")
    box.disable()
    box.reset()
    assert box.enabled
    assert len(box) == 0
    info = box.info()
    assert info["hits"] == 0 and info["misses"] == 0 and info["evictions"] == 0


def test_info_reports_hit_rate():
    box = SimulationCache()
    box.put("k", "v")
    box.get("k")
    box.get("k")
    box.get("nope")
    info = box.info()
    assert info["hits"] == 2 and info["misses"] == 1
    assert info["hit_rate"] == pytest.approx(2 / 3)


def test_invalid_max_entries_rejected():
    with pytest.raises(ValueError):
        SimulationCache(max_entries=0)


# ----------------------------------------------------------------------
# Key sensitivity: everything that changes the simulation changes the key
# ----------------------------------------------------------------------

def test_key_distinguishes_every_relevant_input():
    base = _config()
    key = simulation_key(base, 8, 8, 12, 3, 4, "row")
    variants = [
        simulation_key(base, 8, 8, 13, 3, 4, "row"),
        simulation_key(base, 8, 8, 12, 5, 4, "row"),
        simulation_key(base, 8, 8, 12, 3, 7, "row"),
        simulation_key(base, 4, 8, 12, 3, 4, "row"),
        simulation_key(base, 8, 4, 12, 3, 4, "row"),
        simulation_key(base, 8, 8, 12, 3, 4, "col"),
        simulation_key(_config(dataflow=Dataflow.WEIGHT_STATIONARY), 8, 8, 12, 3, 4, "row"),
        simulation_key(_config(ifmap_sram_kb=32), 8, 8, 12, 3, 4, "row"),
        simulation_key(_config(filter_sram_kb=32), 8, 8, 12, 3, 4, "row"),
        simulation_key(_config(ofmap_sram_kb=16), 8, 8, 12, 3, 4, "row"),
        simulation_key(_config(word_bytes=2), 8, 8, 12, 3, 4, "row"),
        simulation_key(
            _config(fault_map=FaultMap(dead_pe_rows=frozenset({1}))), 8, 8, 12, 3, 4, "row"
        ),
    ]
    assert len({key, *variants}) == len(variants) + 1


def test_healthy_fault_map_aliases_no_fault_map():
    """An empty FaultMap is physically identical to None: same key."""
    healthy = _config(fault_map=FaultMap())
    bare = _config()
    assert simulation_key(healthy, 8, 8, 12, 3, 4, "row") == simulation_key(
        bare, 8, 8, 12, 3, 4, "row"
    )


def test_key_ignores_run_name():
    assert simulation_key(_config(run_name="a"), 8, 8, 2, 2, 2, "row") == simulation_key(
        _config(run_name="b"), 8, 8, 2, 2, 2, "row"
    )


# ----------------------------------------------------------------------
# Simulator integration
# ----------------------------------------------------------------------

def test_repeated_gemm_hits_and_result_is_identical():
    sim = Simulator(_config())
    cold = sim.run_gemm(24, 9, 17)
    assert cache.info()["misses"] >= 1
    warm = sim.run_gemm(24, 9, 17)
    assert cache.info()["hits"] == 1
    assert warm == cold


def test_hit_is_relabeled_with_the_requesting_layer_name():
    sim = Simulator(_config())
    first = sim.run_gemm(24, 9, 17, name="conv1")
    second = sim.run_gemm(24, 9, 17, name="conv2")
    assert first.layer_name == "conv1"
    assert second.layer_name == "conv2"
    # Only the label differs.
    from dataclasses import replace

    assert replace(second, layer_name="conv1") == first


def test_cache_on_equals_cache_off_across_resnet50():
    """Full-topology equivalence: memoized run == memoization disabled."""
    network = get_workload("resnet50")
    config = _config(array_rows=16, array_cols=16)

    cache.disable()
    baseline = Simulator(config).run_network(network)
    assert len(cache) == 0

    cache.reset()
    memoized = Simulator(config).run_network(network)
    assert cache.info()["hits"] > 0, "ResNet-50 repeats conv shapes; must hit"
    assert memoized.layers == baseline.layers


def test_scaleout_path_shares_the_cache():
    config = _config(
        array_rows=16, array_cols=16, partition_rows=2, partition_cols=2
    )
    sim = ScaleOutSimulator(config)
    network = get_workload("resnet50")
    layer = next(iter(network))
    sim.run_layer(layer)
    misses_after_first = cache.info()["misses"]
    assert misses_after_first >= 1
    result = sim.run_layer(layer)
    info = cache.info()
    assert info["misses"] == misses_after_first
    assert info["hits"] >= 1
    assert result == sim.run_layer(layer)


def test_disabled_cache_counts_nothing_and_stores_nothing():
    cache.disable()
    sim = Simulator(_config())
    sim.run_gemm(24, 9, 17)
    sim.run_gemm(24, 9, 17)
    info = cache.info()
    assert info["hits"] == 0 and info["misses"] == 0 and info["entries"] == 0


def test_cache_counters_mirror_into_metrics():
    metrics.clear()
    metrics.enable()
    try:
        sim = Simulator(_config())
        sim.run_gemm(24, 9, 17)
        sim.run_gemm(24, 9, 17)
        counters = metrics.snapshot()["counters"]
        assert counters.get("perf.cache.misses", 0) >= 1
        assert counters.get("perf.cache.hits", 0) == 1
        # sim.* accounting is identical for fresh and cached layers.
        assert counters["sim.layers"] == 2
        assert counters["sim.cycles"] % 2 == 0
    finally:
        metrics.disable()
        metrics.clear()


def test_different_loop_orders_do_not_alias():
    config = _config()
    row = Simulator(config, loop_order="row").run_gemm(40, 6, 40)
    assert cache.info()["hits"] == 0
    col = Simulator(config, loop_order="col").run_gemm(40, 6, 40)
    assert cache.info()["hits"] == 0  # distinct keys: both were misses
    assert row.total_cycles == col.total_cycles  # order never changes runtime
