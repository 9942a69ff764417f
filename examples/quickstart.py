#!/usr/bin/env python
"""Quickstart: simulate one conv layer and a small network.

Covers the 90% use case in ~40 lines:

1. describe the hardware (Table I parameters),
2. describe a layer (Table II parameters),
3. run the cycle-accurate simulator,
4. read the report.

Run:  python examples/quickstart.py
"""

from repro import ConvLayer, Dataflow, HardwareConfig, Simulator, render_report
from repro.workloads.alexnet import alexnet

# 1. Hardware: a 32x32 output-stationary array with double-buffered SRAMs.
config = HardwareConfig(
    array_rows=32,
    array_cols=32,
    ifmap_sram_kb=512,
    filter_sram_kb=512,
    ofmap_sram_kb=256,
    dataflow=Dataflow.OUTPUT_STATIONARY,
)

# 2. Workload: one 3x3 convolution (Table II hyper-parameters).
layer = ConvLayer(
    name="conv3x3",
    ifmap_h=58,
    ifmap_w=58,
    filter_h=3,
    filter_w=3,
    channels=64,
    num_filters=64,
    stride=1,
)

# 3. Simulate.
simulator = Simulator(config)
result = simulator.run_layer(layer)

# 4. Inspect.
print(f"layer:              {layer.describe()}")
print(f"hardware:           {config.describe()}")
print(f"runtime:            {result.total_cycles} cycles")
print(f"array utilization:  {result.mapping_utilization:.1%} mapped, "
      f"{result.compute_utilization:.1%} compute")
print(f"SRAM traffic:       {result.sram.total_reads} reads, "
      f"{result.sram.ofmap_writes} writes")
print(f"DRAM traffic:       {result.dram_read_bytes} B read, "
      f"{result.dram_write_bytes} B written")
print(f"stall-free DRAM BW: {result.avg_total_bw:.2f} B/cycle avg, "
      f"{result.peak_total_bw:.2f} B/cycle peak")

# Bonus: a whole network in one call, reported as a table.
print("\nAlexNet on the same hardware:")
print(render_report(simulator.run_network(alexnet())))
