#!/usr/bin/env python
"""Scale-up vs scale-out on ResNet-50 (the paper's Sec. IV question).

For a fixed MAC budget, compare:
* the best monolithic array (scale-up, Sec. III-B), and
* the best partitioned grid (scale-out, Sec. III-C),

first with the analytical model (instant, stall-free), then validating
the winner's behaviour with the cycle-accurate engine, including the
DRAM bandwidth price the analytical model cannot see.

Run:  python examples/resnet50_scaling.py [total_macs]
"""

import sys

from repro import (
    ScaleOutSimulator,
    Simulator,
    best_scaleout,
    best_scaleup,
    paper_scaling_config,
)
from repro.workloads.resnet50 import resnet50

TOTAL_MACS = int(sys.argv[1]) if len(sys.argv) > 1 else 2**14

net = resnet50()
layers = [net["Conv1"], net["CB2a_3"], net["IB3b_2"], net["IB5c_3"], net["FC1000"]]

print(f"MAC budget: {TOTAL_MACS} ({TOTAL_MACS.bit_length() - 1} bits)\n")
header = f"{'layer':10s} {'best scale-up':>24s} {'best scale-out':>34s} {'speedup':>8s}"
print(header)
print("-" * len(header))

for layer in layers:
    up = best_scaleup(layer, TOTAL_MACS)
    out = best_scaleout(layer, TOTAL_MACS, min_array_dim=8)
    print(
        f"{layer.name:10s} "
        f"{up.array_rows}x{up.array_cols} @ {up.runtime:>10d} cyc  "
        f"{out.label():>24s} @ {out.runtime:>8d} cyc "
        f"{up.runtime / out.runtime:7.2f}x"
    )

# Validate one layer cycle-accurately and expose the bandwidth cost.
layer = net["CB2a_3"]
up = best_scaleup(layer, TOTAL_MACS)
out = best_scaleout(layer, TOTAL_MACS, min_array_dim=8)

mono_config = paper_scaling_config(up.array_rows, up.array_cols)
mono = Simulator(mono_config).run_layer(layer)

grid_config = paper_scaling_config(
    out.array_rows, out.array_cols, out.partition_rows, out.partition_cols
)
grid = ScaleOutSimulator(grid_config).run_layer(layer)

print(f"\ncycle-accurate check on {layer.name}:")
print(f"  scale-up  {mono_config.describe()}")
print(f"    {mono.total_cycles} cycles, {mono.avg_total_bw:.1f} B/cyc avg DRAM BW")
print(f"  scale-out {grid_config.describe()}")
print(f"    {grid.total_cycles} cycles, {grid.avg_total_bw:.1f} B/cyc avg DRAM BW")
print(
    f"  speedup {mono.total_cycles / grid.total_cycles:.2f}x at "
    f"{grid.avg_total_bw / max(mono.avg_total_bw, 1e-9):.2f}x the bandwidth demand"
)
