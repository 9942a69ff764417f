"""Sweep compiler: bit-identity with the scalar search and pruned sweeps."""

import functools
import itertools

import pytest

from repro import obs
from repro.analytical.search import best_scaleout, best_scaleup, search_space
from repro.config.hardware import Dataflow
from repro.config.presets import paper_scaling_config
from repro.engine.scaleout import simulate
from repro.perf.compiler import (
    DEFAULT_PRUNE_BAND,
    DEFAULT_TOP_K,
    compile_search_space,
    frontier_indices,
    simulate_candidates,
)
from repro.sweep import run_sweep, run_sweep_report, sweep_estimate, sweep_measure
from repro.workloads.language import language_layer
from repro.workloads.registry import get_workload

BUDGETS = (2**10, 2**12)


@pytest.fixture
def tf0():
    return language_layer("TF0")


@pytest.fixture
def resnet_layer():
    return get_workload("resnet50")["CB2a_3"]


class TestBitIdentity:
    """The compiled space materializes the scalar search exactly."""

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_candidates_equal_scalar_search_space(self, tf0, dataflow):
        for budget in BUDGETS:
            scalar = search_space(tf0, budget, dataflow=dataflow)
            compiled = compile_search_space(
                tf0, budget, dataflow=dataflow
            ).candidates()
            assert compiled == scalar

    def test_candidates_equal_scalar_on_conv(self, resnet_layer):
        for budget in BUDGETS:
            scalar = search_space(resnet_layer, budget)
            compiled = compile_search_space(resnet_layer, budget).candidates()
            assert compiled == scalar

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_best_scaleup_identical(self, tf0, dataflow):
        for budget in BUDGETS:
            space = compile_search_space(tf0, budget, dataflow=dataflow)
            mono = [i for i in range(len(space)) if space.num_partitions[i] == 1]
            first_min = min(mono, key=lambda i: space.runtime[i])
            assert space.candidate(first_min) == best_scaleup(
                tf0, budget, dataflow=dataflow
            )

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_best_scaleout_identical(self, tf0, resnet_layer, dataflow):
        for layer in (tf0, resnet_layer):
            for budget in BUDGETS:
                space = compile_search_space(layer, budget, dataflow=dataflow)
                assert space.candidate(
                    space.best_index(include_monolithic=False)
                ) == best_scaleout(layer, budget, dataflow=dataflow)

    def test_points_counter_accounts_space(self, tf0):
        obs.metrics.enable()
        before = obs.metrics.snapshot()["counters"].get("perf.compiler.points", 0)
        space = compile_search_space(tf0, 2**10)
        after = obs.metrics.snapshot()["counters"]["perf.compiler.points"]
        assert after - before == len(space)


class TestScaleoutTraffic:
    """Per-grid shape-class traffic matches the engine exactly."""

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_traffic_and_cycles_match_engine(self, tf0, dataflow):
        space = compile_search_space(tf0, 2**10, dataflow=dataflow)
        traffic = space.scaleout_traffic()
        for index in range(len(space)):
            cand = space.candidate(index)
            config = paper_scaling_config(
                cand.array_rows,
                cand.array_cols,
                cand.partition_rows,
                cand.partition_cols,
                dataflow=dataflow,
            )
            result = simulate(config, tf0)
            assert int(traffic.cycles[index]) == result.total_cycles
            assert int(traffic.read_bytes[index]) == result.dram_read_bytes
            assert int(traffic.write_bytes[index]) == result.dram_write_bytes


class TestFrontier:
    def test_zero_band_keeps_all_optima(self):
        # Ties with the best score always survive, even beyond top_k.
        assert frontier_indices([5.0, 1.0, 3.0, 1.0], top_k=1, prune_band=0.0) == [1, 3]

    def test_top_k_keeps_stable_smallest(self):
        assert frontier_indices([5.0, 1.0, 3.0, 2.0], top_k=1, prune_band=0.0) == [1]

    def test_band_keeps_near_ties(self):
        keep = frontier_indices([100.0, 109.0, 111.0], top_k=1, prune_band=0.1)
        assert keep == [0, 1]

    def test_union_of_top_k_and_band(self):
        keep = frontier_indices([10.0, 1.0, 2.0, 50.0], top_k=3, prune_band=0.0)
        assert keep == [0, 1, 2]

    def test_empty_scores(self):
        assert frontier_indices([], top_k=4, prune_band=0.5) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            frontier_indices([1.0], top_k=-1)
        with pytest.raises(ValueError):
            frontier_indices([1.0], prune_band=-0.1)

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_frontier_contains_engine_optimum(self, tf0, resnet_layer, dataflow):
        """Default band keeps the engine-optimal config for the paper's
        workloads (TF0 and a ResNet-50 slice) at every tested budget."""
        for layer in (tf0, resnet_layer):
            for budget in BUDGETS:
                space = compile_search_space(layer, budget, dataflow=dataflow)
                frontier = space.frontier(
                    top_k=DEFAULT_TOP_K, prune_band=DEFAULT_PRUNE_BAND
                )
                results = simulate_candidates(layer, space, frontier)
                best_frontier = min(cycles for _, cycles in results)
                exact_best = min(
                    simulate(
                        paper_scaling_config(
                            cand.array_rows,
                            cand.array_cols,
                            cand.partition_rows,
                            cand.partition_cols,
                            dataflow=dataflow,
                        ),
                        layer,
                    ).total_cycles
                    for cand in space.candidates()
                )
                assert best_frontier == exact_best

    def test_simulate_candidates_counters(self, tf0):
        obs.metrics.enable()
        space = compile_search_space(tf0, 2**10)
        before = dict(obs.metrics.snapshot()["counters"])
        results = simulate_candidates(tf0, space, [0, 1])
        after = obs.metrics.snapshot()["counters"]
        assert len(results) == 2
        assert after["perf.compiler.simulated"] - before.get(
            "perf.compiler.simulated", 0
        ) == 2
        assert after["perf.compiler.pruned"] - before.get(
            "perf.compiler.pruned", 0
        ) == len(space) - 2


class TestPrunedSweep:
    """run_sweep's estimator contract: schema, exactness, resume."""

    MACS = 2**12
    PARTITIONS = [1, 4, 16, 64]

    def _measure(self, layer):
        return functools.partial(sweep_measure, layer=layer, macs=self.MACS)

    def _estimate(self, layer):
        return functools.partial(sweep_estimate, layer=layer, macs=self.MACS)

    def test_estimator_is_exact_on_cycles(self, tf0):
        for partitions in self.PARTITIONS:
            exact = sweep_measure(partitions, layer=tf0, macs=self.MACS)
            row, score = sweep_estimate(partitions, layer=tf0, macs=self.MACS)
            assert row["cycles"] == exact["cycles"]
            assert row["avg_bw"] == exact["avg_bw"]
            assert score == float(exact["cycles"])

    def test_pruned_rows_keep_grid_shape(self, tf0):
        rows, report = run_sweep_report(
            self._measure(tf0),
            estimator=self._estimate(tf0),
            top_k=1,
            prune_band=0.0,
            partitions=self.PARTITIONS,
        )
        assert [row["partitions"] for row in rows] == self.PARTITIONS
        estimated = [row for row in rows if row.get("status") == "estimated"]
        simulated = [row for row in rows if "status" not in row]
        assert len(estimated) == 3 and len(simulated) == 1
        assert report.estimated == 3
        # The simulated survivor is the analytically fastest point.
        scores = {
            p: sweep_estimate(p, layer=tf0, macs=self.MACS)[1]
            for p in self.PARTITIONS
        }
        assert simulated[0]["partitions"] == min(scores, key=scores.get)
        # Estimated rows still carry the full measurement schema.
        for row in estimated:
            assert {"array", "cycles", "avg_bw", "peak_bw"} <= set(row)

    def test_exact_flag_is_byte_identical_to_no_estimator(self, tf0):
        plain = run_sweep(self._measure(tf0), partitions=self.PARTITIONS)
        exact = run_sweep(
            self._measure(tf0),
            estimator=self._estimate(tf0),
            top_k=1,
            prune_band=0.0,
            exact=True,
            partitions=self.PARTITIONS,
        )
        assert exact == plain

    def test_knobs_without_estimator_rejected(self, tf0):
        with pytest.raises(ValueError, match="estimator"):
            run_sweep(self._measure(tf0), top_k=2, partitions=self.PARTITIONS)

    def test_estimated_points_reexecute_under_exact_resume(self, tf0, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        pruned = run_sweep(
            self._measure(tf0),
            estimator=self._estimate(tf0),
            top_k=1,
            prune_band=0.0,
            checkpoint=journal,
            partitions=self.PARTITIONS,
        )
        assert sum(1 for row in pruned if row.get("status") == "estimated") == 3
        # Estimated journal entries are not "completed": an --exact
        # resume re-executes them, replaying only the exact frontier
        # point, and the final rows match a from-scratch exact sweep.
        resumed, report = run_sweep_report(
            self._measure(tf0),
            exact=True,
            checkpoint=journal,
            partitions=self.PARTITIONS,
        )
        assert resumed == run_sweep(self._measure(tf0), partitions=self.PARTITIONS)
        assert report.cached == 1

    def test_estimate_misalignment_rejected(self, tf0):
        from repro.robust.executor import execute_grid

        with pytest.raises(ValueError, match="align"):
            execute_grid(
                lambda **kw: [kw],
                [{"partitions": 1}, {"partitions": 4}],
                estimates=[None],
            )


class TestCliSweepFlags:
    def test_pruned_sweep_marks_analytical_rows(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "sweep",
                    "--layer",
                    "TF0",
                    "--macs",
                    "4096",
                    "--top-k",
                    "1",
                    "--prune-band",
                    "0.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "~ analytical" in out

    def test_exact_sweep_output_identical_to_default(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--layer", "TF0", "--macs", "4096"]) == 0
        default_out = capsys.readouterr().out
        assert (
            main(["sweep", "--layer", "TF0", "--macs", "4096", "--exact"]) == 0
        )
        exact_out = capsys.readouterr().out
        assert exact_out == default_out
        assert "~ analytical" not in exact_out
