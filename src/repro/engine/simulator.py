"""Single-array (scale-up) cycle-accurate simulator.

This is the SCALE-Sim front door: given a :class:`HardwareConfig` with a
1x1 partition grid, :meth:`Simulator.run_layer` executes one layer
through the dataflow engine and memory system and returns a
:class:`LayerResult`; :meth:`Simulator.run_network` maps a whole
topology, layer by layer, in file order (Sec. II-E semantics).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config.hardware import HardwareConfig
from repro.dataflow.base import AddressLayout, DataflowEngine
from repro.dataflow.factory import engine_for, engine_for_gemm
from repro.engine.results import LayerResult, RunResult
from repro.errors import SimulationError
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.obs import metrics, trace
from repro.perf.cache import memoize, simulation_key
from repro.topology.layer import Layer
from repro.topology.network import Network


class Simulator:
    """Cycle-accurate simulator for one monolithic systolic array.

    ``loop_order`` picks the fold iteration order ("row", SCALE-Sim's
    default, or "col"); it affects DRAM traffic only, never runtime.
    """

    def __init__(self, config: HardwareConfig, loop_order: str = "row"):
        if not config.is_monolithic:
            raise SimulationError(
                "Simulator models a single array; use ScaleOutSimulator for "
                f"partitioned configs (got {config.partition_rows}x{config.partition_cols})"
            )
        if loop_order not in ("row", "col"):
            raise SimulationError(f"loop_order must be 'row' or 'col', got {loop_order!r}")
        self.config = config
        self.loop_order = loop_order
        self.buffers = BufferSet.from_config(config)
        # Dead PE rows/columns are bypassed: the machine computes as a
        # smaller R' x C' array (healthy configs: R' == R, C' == C).
        self.array_rows = config.effective_array_rows
        self.array_cols = config.effective_array_cols

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_layer(self, layer: Layer) -> LayerResult:
        """Simulate one layer and return its measured result."""
        with trace.span(
            "engine.run_layer",
            layer=layer.name,
            dataflow=self.config.dataflow.value,
            array=f"{self.array_rows}x{self.array_cols}",
        ):
            return self._measure(self.engine(layer), layer.name)

    def run_gemm(self, m: int, k: int, n: int, name: str = "gemm") -> LayerResult:
        """Simulate a bare (M x K) @ (K x N) GEMM."""
        with trace.span("engine.run_gemm", name=name, m=m, k=k, n=n):
            engine = engine_for_gemm(
                m, k, n, self.config.dataflow, self.array_rows, self.array_cols
            )
            return self._measure(engine, name)

    def run_network(self, network: Network) -> RunResult:
        """Simulate every layer of ``network`` serially, in file order."""
        with trace.span("engine.run_network", network=network.name):
            results = [self.run_layer(layer) for layer in network]
        return RunResult(
            network_name=network.name,
            config_description=self.config.describe(),
            layers=results,
        )

    def address_layout(self, layer: Layer) -> AddressLayout:
        """The trace address layout for ``layer`` under this config."""
        return AddressLayout(
            m=layer.gemm_m,
            k=layer.gemm_k,
            n=layer.gemm_n,
            ifmap_offset=self.config.ifmap_offset,
            filter_offset=self.config.filter_offset,
            ofmap_offset=self.config.ofmap_offset,
        )

    def engine(self, layer: Layer) -> DataflowEngine:
        """Expose the dataflow engine for trace-level inspection."""
        return engine_for(
            layer,
            self.config.dataflow,
            self.array_rows,
            self.array_cols,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _measure(self, engine: DataflowEngine, layer_name: str) -> LayerResult:
        key = simulation_key(
            self.config,
            self.array_rows,
            self.array_cols,
            engine.m,
            engine.k,
            engine.n,
            self.loop_order,
        )
        (result, _traffic), hit = memoize(
            key, lambda: self._simulate(engine, layer_name)
        )
        self._record_metrics(result)
        return replace(result, layer_name=layer_name) if hit else result

    def _simulate(self, engine: DataflowEngine, layer_name: str):
        """Run ``engine`` through the memory model: the uncached pair."""
        traffic = compute_dram_traffic(
            engine, self.buffers, self.config.word_bytes, loop_order=self.loop_order
        )
        sram = engine.layer_counts()
        total_cycles = engine.total_cycles()
        result = LayerResult(
            layer_name=layer_name,
            dataflow=self.config.dataflow,
            array_rows=self.array_rows,
            array_cols=self.array_cols,
            partition_rows=1,
            partition_cols=1,
            total_cycles=total_cycles,
            macs=engine.layer_macs,
            mapping_utilization=engine.mapping_utilization(),
            compute_utilization=engine.compute_utilization(total_cycles),
            sram=sram,
            dram_read_bytes=traffic.read_bytes,
            dram_write_bytes=traffic.write_bytes,
            cold_start_bytes=traffic.cold_start_bytes,
            avg_read_bw=traffic.bandwidth.avg_read_bw,
            avg_write_bw=traffic.bandwidth.avg_write_bw,
            peak_read_bw=traffic.bandwidth.peak_read_bw,
            peak_write_bw=traffic.bandwidth.peak_write_bw,
            word_bytes=self.config.word_bytes,
            row_folds=engine.plan.row_folds,
            col_folds=engine.plan.col_folds,
        )
        return result, traffic

    @staticmethod
    def _record_metrics(result: LayerResult) -> None:
        """Identical sim.* accounting for fresh and cache-hit results."""
        if metrics.enabled:
            metrics.counter("sim.layers").add()
            metrics.counter("sim.cycles").add(result.total_cycles)
            metrics.counter("sim.macs").add(result.macs)
            metrics.counter("sim.dram_read_bytes").add(result.dram_read_bytes)
            metrics.counter("sim.dram_write_bytes").add(result.dram_write_bytes)
