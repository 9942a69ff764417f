#!/usr/bin/env python
"""Roofline view of a whole network: who is compute- vs memory-bound.

Runs ResNet-50's opening layers on a 32x32 array, places each in the
roofline plane for a given DRAM bandwidth, and renders the picture in
plain text.  Layers left of the ridge point are memory-bound — the ones
whose stall-free simulation is optimistic unless the device can feed
them.

Run:  python examples/roofline_analysis.py [bandwidth_bytes_per_cycle]
"""

import sys

from repro import Simulator, paper_scaling_config
from repro.engine.roofline import roofline_point
from repro.engine.summary import summarize_run
from repro.viz import bar_chart
from repro.workloads.resnet50 import resnet50

BANDWIDTH = float(sys.argv[1]) if len(sys.argv) > 1 else 32.0

config = paper_scaling_config(32, 32)
net = resnet50()
head = net.subset(net.layer_names()[:10], name="resnet50-head")
run = Simulator(config).run_network(head)

points = [roofline_point(result, BANDWIDTH) for result in run]
ridge = points[0].ridge_intensity

print(f"machine: {config.describe()}")
print(f"DRAM bandwidth: {BANDWIDTH} B/cycle -> ridge intensity "
      f"{ridge:.1f} MACs/byte\n")

print(f"{'layer':10s} {'MACs/byte':>10s} {'bound':>8s} "
      f"{'achieved':>9s} {'roof':>7s} {'eff':>6s}")
for point in points:
    bound = "compute" if point.compute_bound else "MEMORY"
    print(
        f"{point.layer_name:10s} {point.operational_intensity:10.1f} {bound:>8s} "
        f"{point.achieved_macs_per_cycle:9.1f} {point.attainable:7.1f} "
        f"{point.efficiency:5.1%}"
    )

print("\nachieved MACs/cycle by layer:")
print(bar_chart(
    [point.layer_name for point in points],
    [point.achieved_macs_per_cycle for point in points],
    width=36,
))

print("\nrun summary:")
print(summarize_run(run).describe())
