"""Cache-key isolation: results must never leak across configurations.

The LRU memo (:mod:`repro.perf.cache`) keys on :func:`simulation_key`.
Any field that influences a simulation but is missing from the key
silently aliases two different machines — the worst kind of wrong
answer.  These tests pin every discriminating field, including
adversarial near-collisions.
"""

import pytest

from repro.config.hardware import Dataflow, HardwareConfig
from repro.engine.simulator import Simulator
from repro.perf.cache import SimulationCache, cache, simulation_key
from repro.resilience.faultmap import FaultMap
from repro.topology.layer import GemmLayer


def _key(config, rows=None, cols=None, m=6, k=6, n=6, loop_order="row"):
    return simulation_key(
        config,
        rows if rows is not None else config.effective_array_rows,
        cols if cols is not None else config.effective_array_cols,
        m, k, n, loop_order,
    )


BASE = HardwareConfig(array_rows=8, array_cols=8)


class TestKeyDiscriminatesEveryField:
    @pytest.mark.parametrize(
        "variant",
        [
            BASE.with_dataflow(Dataflow.WEIGHT_STATIONARY),
            BASE.with_dataflow(Dataflow.INPUT_STATIONARY),
            HardwareConfig(array_rows=8, array_cols=8, ifmap_sram_kb=32),
            HardwareConfig(array_rows=8, array_cols=8, filter_sram_kb=32),
            HardwareConfig(array_rows=8, array_cols=8, ofmap_sram_kb=32),
            HardwareConfig(array_rows=8, array_cols=8, word_bytes=2),
        ],
        ids=["ws", "is", "ifmap", "filter", "ofmap", "word_bytes"],
    )
    def test_config_fields(self, variant):
        assert _key(BASE) != _key(variant)

    def test_loop_order(self):
        assert _key(BASE, loop_order="row") != _key(BASE, loop_order="col")

    def test_gemm_dims(self):
        assert _key(BASE, m=6) != _key(BASE, m=7)
        assert _key(BASE, k=6) != _key(BASE, k=7)
        assert _key(BASE, n=6) != _key(BASE, n=7)


class TestFaultMapIsolation:
    def test_fault_map_distinguishes_same_effective_shape(self):
        # 7x8 healthy vs 8x8 with one dead row: identical *effective*
        # dims, different machines — the fault spec must split them.
        healthy = HardwareConfig(array_rows=7, array_cols=8)
        degraded = HardwareConfig(
            array_rows=8, array_cols=8,
            fault_map=FaultMap(dead_pe_rows=frozenset({3})),
        )
        assert healthy.effective_array_rows == degraded.effective_array_rows == 7
        assert _key(healthy) != _key(degraded)

    def test_different_fault_maps_differ(self):
        a = BASE.with_fault_map(FaultMap(dead_pe_rows=frozenset({0})))
        b = BASE.with_fault_map(FaultMap(dead_pe_rows=frozenset({1})))
        assert _key(a, rows=7, cols=8) != _key(b, rows=7, cols=8)

    def test_dead_partitions_differ(self):
        grid = BASE.with_partitions(2, 2)
        a = grid.with_fault_map(FaultMap(dead_partitions=frozenset({(0, 0)})))
        b = grid.with_fault_map(FaultMap(dead_partitions=frozenset({(1, 1)})))
        assert _key(a) != _key(b)

    def test_healthy_fault_map_aliases_no_fault(self):
        # An explicitly-empty FaultMap IS the healthy machine; the two
        # spellings must share an entry rather than split the cache.
        explicit = BASE.with_fault_map(FaultMap())
        assert _key(BASE) == _key(explicit)


class TestNearCollisions:
    def test_transposed_dims_do_not_collide(self):
        assert _key(BASE, m=3, k=8, n=6) != _key(BASE, m=8, k=3, n=6)
        assert _key(BASE, m=3, k=8, n=6) != _key(BASE, m=6, k=8, n=3)

    def test_swapped_sram_banks_do_not_collide(self):
        a = HardwareConfig(array_rows=8, array_cols=8,
                           ifmap_sram_kb=16, filter_sram_kb=64)
        b = HardwareConfig(array_rows=8, array_cols=8,
                           ifmap_sram_kb=64, filter_sram_kb=16)
        assert _key(a) != _key(b)

    def test_lru_respects_distinct_near_keys(self):
        lru = SimulationCache(max_entries=8)
        lru.put(_key(BASE, m=3, k=8, n=6), "a")
        assert lru.get(_key(BASE, m=8, k=3, n=6)) is None
        assert lru.get(_key(BASE, m=3, k=8, n=6)) == "a"


class TestEndToEndIsolation:
    def test_dataflows_do_not_alias_through_the_live_cache(self):
        layer = GemmLayer(name="iso", m=9, k=5, n=7)
        was_enabled = cache.enabled
        try:
            cache.enable()
            cache.clear()
            results = {
                dataflow: Simulator(
                    BASE.with_dataflow(Dataflow.from_string(dataflow))
                ).run_layer(layer)
                for dataflow in ("os", "ws", "is")
            }
            # Cached replay returns each dataflow's own result.
            for dataflow, first in results.items():
                again = Simulator(
                    BASE.with_dataflow(Dataflow.from_string(dataflow))
                ).run_layer(layer)
                assert again == first
        finally:
            if was_enabled:
                cache.enable()
            else:
                cache.disable()
            cache.clear()
