"""Degraded-mode simulation: fault maps, re-mapping, end-to-end parity.

The two load-bearing guarantees:

* an all-healthy fault map is *bit-identical* to no fault map at all
  (regression-locking the healthy paths), and
* every degraded run agrees exactly with the analytical remap-plan
  prediction and conserves the layer's MACs.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical.runtime import (
    degraded_scaleout_runtime,
    degraded_scaleup_runtime,
    scaleout_runtime,
    scaleup_runtime,
)
from repro.config.hardware import Dataflow, HardwareConfig
from repro.config.parser import dump_config, load_config, parse_config_text
from repro.config.presets import paper_scaling_config
from repro.energy.model import energy_of_result
from repro.engine.scaleout import ScaleOutSimulator, simulate
from repro.engine.simulator import Simulator
from repro.errors import ConfigError, InvariantError, ResilienceError
from repro.experiments.registry import run_experiment
from repro.mapping.dims import OperandMapping, map_layer
from repro.noc.cost import layer_noc_cost
from repro.noc.mesh import DegradedMeshNoc, MeshNoc
from repro.resilience.faultmap import (
    HEALTHY,
    FaultMap,
    fault_map_from_dict,
    load_fault_map,
    random_fault_map,
)
from repro.resilience.remap import predict_layer_cycles, remap_layer, tile_cycles
from repro.robust.faults import fault_scenario, scenario_seed
from repro.robust.invariants import check_layer_result, expected_cycles
from repro.topology.layer import GemmLayer

LAYER = GemmLayer("g", m=100, k=36, n=77)


class TestFaultMap:
    def test_healthy_predicates(self):
        assert HEALTHY.is_healthy
        assert not HEALTHY.affects_array
        assert not HEALTHY.affects_grid
        assert HEALTHY.pe_only() is None

    def test_spec_round_trip(self):
        spec = "pe_col:0;pe_row:3;partition:1,2;link:0,0-0,1"
        fm = FaultMap.from_spec(spec)
        assert FaultMap.from_spec(fm.to_spec()) == fm
        assert fm.dead_pe_rows == frozenset({3})
        assert fm.dead_partitions == frozenset({(1, 2)})
        assert fm.dead_links == frozenset({((0, 0), (0, 1))})

    def test_empty_spec_is_healthy(self):
        assert FaultMap.from_spec("") == HEALTHY
        assert HEALTHY.to_spec() == ""

    def test_json_round_trip(self, tmp_path):
        fm = FaultMap.from_spec("pe_row:1;partition:0,1;link:1,0-1,1")
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(fm.as_dict()))
        assert load_fault_map(path) == fm
        assert fault_map_from_dict(fm.as_dict()) == fm

    @pytest.mark.parametrize(
        "spec",
        [
            "pe_row:x",
            "partition:1",
            "partition:a,b",
            "link:0,0-2,2",  # not adjacent
            "link:0,0",
            "bogus:1",
            "pe_row:-1",
        ],
    )
    def test_malformed_specs_raise_resilience_error(self, spec):
        with pytest.raises(ResilienceError):
            FaultMap.from_spec(spec)

    def test_validate_bounds(self):
        fm = FaultMap.from_spec("partition:5,0")
        with pytest.raises(ResilienceError, match="outside"):
            fm.validate_for(8, 8, 2, 2)

    def test_validate_all_dead(self):
        fm = FaultMap.from_spec("partition:0,0")
        with pytest.raises(ResilienceError, match="surviv"):
            fm.validate_for(8, 8, 1, 1)

    def test_random_fault_map_deterministic(self):
        a = random_fault_map(4, 4, dead_partitions=3, dead_links=2, seed=7)
        b = random_fault_map(4, 4, dead_partitions=3, dead_links=2, seed=7)
        c = random_fault_map(4, 4, dead_partitions=3, dead_links=2, seed=8)
        assert a == b
        assert a != c
        assert len(a.dead_partitions) == 3
        assert len(a.dead_links) == 2

    def test_random_fault_map_never_kills_everything(self):
        with pytest.raises(ResilienceError):
            random_fault_map(2, 2, dead_partitions=4)


class TestConfigIntegration:
    def test_fault_map_on_config_validates(self):
        with pytest.raises(ConfigError):
            HardwareConfig(array_rows=8, array_cols=8, fault_map="not-a-map")
        with pytest.raises(ResilienceError):
            HardwareConfig(
                array_rows=8, array_cols=8,
                fault_map=FaultMap.from_spec("pe_row:9"),
            )

    def test_effective_dims(self):
        config = HardwareConfig(
            array_rows=8, array_cols=8,
            fault_map=FaultMap.from_spec("pe_row:0;pe_row:3;pe_col:2"),
        )
        assert config.is_degraded
        assert config.effective_array_rows == 6
        assert config.effective_array_cols == 7

    def test_ini_round_trip(self, tmp_path):
        config = paper_scaling_config(16, 16, 2, 2).with_fault_map(
            FaultMap.from_spec("partition:1,1")
        )
        path = dump_config(config, tmp_path / "degraded.cfg")
        assert load_config(path).fault_map == config.fault_map

    def test_parser_rejects_bad_faultmap_value(self):
        with pytest.raises(ResilienceError):
            parse_config_text("[architecture_presets]\nFaultMap = partition:x\n")


class TestRemapPlan:
    def test_healthy_plan_reduces_to_eq5(self):
        mapping = OperandMapping(sr=100, sc=77, t=36, dataflow=Dataflow.OUTPUT_STATIONARY)
        plan = remap_layer(mapping, 4, 4, 16, 16)
        assert plan.failed_partitions == 0
        assert plan.remapped_tiles == 0
        assert all(a.native for a in plan.assignments)
        assert plan.total_macs == mapping.macs

    def test_orphans_adopted_deterministically(self):
        mapping = OperandMapping(sr=64, sc=64, t=16, dataflow=Dataflow.OUTPUT_STATIONARY)
        fm = FaultMap.from_spec("partition:0,0;partition:1,1")
        a = remap_layer(mapping, 2, 2, 8, 8, fm)
        b = remap_layer(mapping, 2, 2, 8, 8, fm)
        assert a == b
        assert a.failed_partitions == 2
        assert a.remapped_tiles == 2
        assert len(a.survivors) == 2

    def test_no_survivors_raises(self):
        mapping = OperandMapping(sr=8, sc=8, t=8, dataflow=Dataflow.OUTPUT_STATIONARY)
        with pytest.raises(ResilienceError, match="no surviving"):
            remap_layer(mapping, 1, 1, 8, 8, FaultMap.from_spec("partition:0,0"))

    def test_dead_partition_outside_grid_raises(self):
        mapping = OperandMapping(sr=8, sc=8, t=8, dataflow=Dataflow.OUTPUT_STATIONARY)
        with pytest.raises(ResilienceError, match="outside"):
            remap_layer(mapping, 2, 2, 8, 8, FaultMap.from_spec("partition:3,3"))

    @settings(max_examples=60)
    @given(
        sr=st.integers(1, 300),
        sc=st.integers(1, 300),
        t=st.integers(1, 64),
        grid_rows=st.integers(1, 4),
        grid_cols=st.integers(1, 4),
        dead=st.integers(0, 6),
        seed=st.integers(0, 10_000),
    )
    def test_mac_conservation_over_random_grids(
        self, sr, sc, t, grid_rows, grid_cols, dead, seed
    ):
        """Property: every re-mapped plan conserves the layer's MACs and
        loads every tile onto a live survivor."""
        dead = min(dead, grid_rows * grid_cols - 1)
        fm = random_fault_map(grid_rows, grid_cols, dead_partitions=dead, seed=seed)
        mapping = OperandMapping(sr=sr, sc=sc, t=t, dataflow=Dataflow.OUTPUT_STATIONARY)
        plan = remap_layer(mapping, grid_rows, grid_cols, 8, 8, fm)
        assert plan.total_macs == mapping.macs
        survivors = set(plan.survivors)
        assert all(a.owner in survivors for a in plan.assignments)
        assert not survivors & fm.dead_partitions
        # Tile costing matches the per-tile closed form.
        for a in plan.assignments:
            assert a.cycles == tile_cycles(a.sr, a.sc, t, 8, 8)

    def test_conservation_guard_fires_on_corruption(self):
        mapping = OperandMapping(sr=64, sc=64, t=16, dataflow=Dataflow.OUTPUT_STATIONARY)
        plan = remap_layer(mapping, 2, 2, 8, 8)
        from repro.resilience.remap import check_remap_conservation

        corrupted = dataclasses.replace(plan, assignments=plan.assignments[:-1])
        with pytest.raises(InvariantError, match="not conserved"):
            check_remap_conservation(corrupted, mapping)


class TestHealthyBitIdentity:
    """Regression lock: an all-healthy FaultMap changes nothing."""

    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (4, 2)])
    def test_healthy_fault_map_bit_identical(self, grid):
        config = paper_scaling_config(16, 16, grid[0], grid[1])
        baseline = simulate(config, LAYER, verify=True)
        with_map = simulate(config.with_fault_map(HEALTHY), LAYER, verify=True)
        assert with_map == baseline

    def test_healthy_noc_and_energy_identical(self):
        config = paper_scaling_config(16, 16, 2, 2)
        assert layer_noc_cost(LAYER, config) == layer_noc_cost(
            LAYER, config.with_fault_map(HEALTHY)
        )
        result = simulate(config, LAYER)
        assert energy_of_result(result) == energy_of_result(
            simulate(config.with_fault_map(HEALTHY), LAYER)
        )


class TestDegradedEngine:
    def test_degraded_cycles_match_prediction_exactly(self):
        config = paper_scaling_config(16, 16, 4, 4).with_fault_map(
            FaultMap.from_spec("partition:0,0;partition:2,1;partition:3,3")
        )
        result = simulate(config, LAYER, verify=True)  # rel_tol = 0
        assert result.total_cycles == expected_cycles(LAYER, config)
        assert result.failed_partitions == 3
        assert result.remapped_tiles >= 3
        assert result.is_degraded

    def test_degraded_macs_conserved(self):
        config = paper_scaling_config(16, 16, 4, 4)
        healthy = simulate(config, LAYER)
        degraded = simulate(
            config.with_fault_map(FaultMap.from_spec("partition:1,1")), LAYER
        )
        assert degraded.macs == healthy.macs

    def test_runtime_monotone_in_dead_partitions(self):
        config = paper_scaling_config(16, 16, 4, 4)
        cycles = []
        for k in (0, 1, 3, 6, 12):
            fm = random_fault_map(4, 4, dead_partitions=k, seed=1)
            cfg = config.with_fault_map(fm if not fm.is_healthy else None)
            cycles.append(simulate(cfg, LAYER, verify=True).total_cycles)
        assert cycles == sorted(cycles)
        assert cycles[-1] > cycles[0]

    def test_utilizations_stay_bounded(self):
        config = paper_scaling_config(16, 16, 4, 4).with_fault_map(
            random_fault_map(4, 4, dead_partitions=5, seed=3)
        )
        result = simulate(config, LAYER, verify=True)
        assert 0.0 < result.mapping_utilization <= 1.0
        assert 0.0 < result.compute_utilization <= 1.0

    def test_pe_faults_equal_smaller_array(self):
        degraded = paper_scaling_config(16, 16, 1, 1).with_fault_map(
            FaultMap.from_spec("pe_row:3;pe_col:0;pe_col:9")
        )
        smaller = paper_scaling_config(15, 14, 1, 1)
        a = Simulator(degraded).run_layer(LAYER)
        b = Simulator(smaller).run_layer(LAYER)
        assert a.total_cycles == b.total_cycles
        assert (a.array_rows, a.array_cols) == (15, 14)

    def test_pe_faults_propagate_to_partitions(self):
        config = paper_scaling_config(16, 16, 2, 2).with_fault_map(
            FaultMap.from_spec("pe_row:0")
        )
        result = simulate(config, LAYER, verify=True)
        assert result.array_rows == 15
        assert result.failed_partitions == 0

    def test_idle_partitions_recorded_on_healthy_grid(self):
        # sr = 4 rows of work over an 8-row grid: half the grid idles.
        layer = GemmLayer("tiny", m=4, k=4, n=64)
        config = paper_scaling_config(8, 8, 8, 1)
        result = ScaleOutSimulator(config).run_layer(layer)
        assert result.idle_partitions == 4
        assert result.failed_partitions == 0

    def test_serialization_round_trip_degraded_fields(self):
        from repro.engine.persistence import (
            layer_result_from_dict,
            layer_result_to_dict,
        )

        config = paper_scaling_config(16, 16, 2, 2).with_fault_map(
            FaultMap.from_spec("partition:1,0")
        )
        result = simulate(config, LAYER)
        assert layer_result_from_dict(layer_result_to_dict(result)) == result


class TestDegradedAnalytical:
    def test_degraded_scaleout_reduces_to_healthy(self):
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        assert degraded_scaleout_runtime(mapping, 4, 4, 16, 16, 0) == scaleout_runtime(
            mapping, 4, 4, 16, 16
        )

    def test_degraded_scaleout_staircase(self):
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        healthy = scaleout_runtime(mapping, 4, 4, 16, 16)
        assert degraded_scaleout_runtime(mapping, 4, 4, 16, 16, 1) == 2 * healthy
        assert degraded_scaleout_runtime(mapping, 4, 4, 16, 16, 8) == 2 * healthy
        assert degraded_scaleout_runtime(mapping, 4, 4, 16, 16, 9) == 3 * healthy

    def test_degraded_scaleup_equals_smaller_array(self):
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        assert degraded_scaleup_runtime(
            mapping, 16, 16, dead_rows=2, dead_cols=1
        ) == scaleup_runtime(mapping, 14, 15)

    def test_dead_axis_rejected(self):
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        with pytest.raises(ValueError):
            degraded_scaleup_runtime(mapping, 8, 8, dead_rows=8)
        with pytest.raises(ValueError):
            degraded_scaleout_runtime(mapping, 2, 2, 8, 8, dead_partitions=4)

    def test_bound_dominates_exact_plan(self):
        mapping = map_layer(LAYER, Dataflow.OUTPUT_STATIONARY)
        for k, seed in ((1, 0), (3, 1), (7, 2)):
            fm = random_fault_map(4, 4, dead_partitions=k, seed=seed)
            config = paper_scaling_config(16, 16, 4, 4).with_fault_map(fm)
            exact = predict_layer_cycles(mapping, config)
            bound = degraded_scaleout_runtime(mapping, 4, 4, 16, 16, k)
            assert exact <= bound


class TestDegradedNoc:
    def test_degraded_mesh_reroutes_around_dead_link(self):
        healthy = MeshNoc(2, 2)
        degraded = DegradedMeshNoc(2, 2, [((0, 0), (0, 1))])
        assert degraded.unicast_hops(0, 1) == healthy.unicast_hops(0, 1) + 2
        assert degraded.unicast_hops(1, 1) == healthy.unicast_hops(1, 1)

    def test_unreachable_partition_raises(self):
        cut_off = DegradedMeshNoc(1, 2, [((0, 0), (0, 1))])
        assert not cut_off.reachable(0, 1)
        with pytest.raises(ResilienceError, match="unreachable"):
            cut_off.unicast_hops(0, 1)

    def test_degraded_noc_cost_not_cheaper(self):
        config = paper_scaling_config(16, 16, 4, 4)
        healthy = layer_noc_cost(LAYER, config)
        degraded = layer_noc_cost(
            LAYER,
            config.with_fault_map(random_fault_map(4, 4, dead_partitions=3, seed=0)),
        )
        assert degraded.total_byte_hops > healthy.total_byte_hops

    def test_dead_link_only_also_degrades(self):
        config = paper_scaling_config(16, 16, 2, 2).with_fault_map(
            FaultMap.from_spec("link:0,0-0,1")
        )
        cost = layer_noc_cost(LAYER, config)
        assert cost.total_byte_hops > 0


class TestDegradedEnergy:
    def test_dead_partitions_are_power_gated(self):
        config = paper_scaling_config(16, 16, 4, 4)
        fm = FaultMap.from_spec("partition:0,0")
        healthy = simulate(config, LAYER)
        degraded = simulate(config.with_fault_map(fm), LAYER)
        # Idle charge scales with surviving PE-cycles, not total.
        assert energy_of_result(degraded).idle < (
            degraded.total_pes
            * degraded.total_cycles
            * energy_of_result(healthy).idle
        )
        assert degraded.surviving_pes == 15 * 16 * 16


class TestFaultScenarios:
    def test_scenario_seed_stable_and_param_sensitive(self):
        assert scenario_seed({"a": 1}, 0) == scenario_seed({"a": 1}, 0)
        assert scenario_seed({"a": 1}, 0) != scenario_seed({"a": 2}, 0)
        assert scenario_seed({"a": 1}, 0) != scenario_seed({"a": 1}, 1)

    def test_fault_scenario_reproducible(self):
        a = fault_scenario({"p": 3}, 4, 4, dead_partitions=2)
        b = fault_scenario({"p": 3}, 4, 4, dead_partitions=2)
        assert a == b
        assert len(a.dead_partitions) == 2


class TestResilienceExperiment:
    def test_rows_shape_and_monotonicity(self):
        rows = run_experiment("resilience")
        assert [row["dead"] for row in rows] == [0, 1, 2, 4]
        cycles = [row["cycles"] for row in rows]
        assert cycles == sorted(cycles)
        for row in rows:
            assert row["cycles"] <= row["bound_cycles"]
            assert row["slowdown"] >= 1.0
