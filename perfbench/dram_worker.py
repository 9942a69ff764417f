"""DRAM replay worker: composes each trace exactly as ``repro dram`` does.

    PYTHONPATH=src python3 perfbench/dram_worker.py [DUMP.json]

After its imports it prints ``ready``.  It then reads one JSON trace
spec per stdin line, ``{"workload": "TF1", "array": "64x64",
"channels": 1}``, replays it through ``Simulator.engine`` ->
``compute_dram_traffic`` -> ``dram_request_stream`` ->
``DramSimulator.run`` and answers with one JSON line holding the host
seconds and every ``DramStats`` field per layer.  End of input ends it.
With a dump path it runs traced: counters on, wrappers installed, dump
written at exit.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from repro.config.presets import paper_scaling_config
from repro.dram.simulator import DramSimulator
from repro.dram.timing import DramTiming
from repro.engine.simulator import Simulator
from repro.engine.tracefiles import dram_request_stream
from repro.memory.bandwidth import compute_dram_traffic
from repro.memory.buffers import BufferSet
from repro.topology.network import Network
from repro.workloads.language import TABLE_IV_DIMS, language_layer
from repro.workloads.registry import get_workload


def replay(spec: dict) -> list:
    name = spec["workload"]
    rows, cols = (int(part) for part in spec["array"].split("x"))
    config = paper_scaling_config(32, 32).with_array(rows, cols)
    network = (
        Network(name, [language_layer(name)])
        if name in TABLE_IV_DIMS
        else get_workload(name)
    )
    simulator = Simulator(config)
    device = DramSimulator(DramTiming(num_channels=spec["channels"]))
    stats = []
    for layer in network:
        engine = simulator.engine(layer)
        traffic = compute_dram_traffic(
            engine, BufferSet.from_config(config), config.word_bytes
        )
        requests = list(
            dram_request_stream(traffic, simulator.address_layout(layer))
        )
        stats.append(dataclasses.asdict(device.run(requests)))
    return stats


def main(argv) -> int:
    tracer = None
    if argv:
        import layertrace

        tracer = layertrace.start()
    print("ready", flush=True)
    try:
        for line in sys.stdin:
            start = time.perf_counter()
            stats = replay(json.loads(line))
            seconds = time.perf_counter() - start
            print(json.dumps({"seconds": seconds, "stats": stats}), flush=True)
    finally:
        if tracer is not None:
            layertrace.dump(tracer, argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
