"""``dram_replay``: one worker process replays three traces.

Each pass starts a fresh :mod:`dram_worker` (set-up: interpreter start
plus imports), then times the replays.  Every ``DramStats`` field of
every trace must equal ``reference.json`` exactly.

The traces and their order are fixed, whatever the seed: the first
large replay in a process is slower (TF1 at 4 channels took 3.43 s
first and 3.18 s after TF1 at 1 channel), so a seeded order would move
the per-trace times from seed to seed.
"""

from __future__ import annotations

import json
import subprocess
import time
from typing import Dict, Tuple

import harness

TRACES = (
    {"workload": "TF1", "array": "64x64", "channels": 1},
    {"workload": "TF1", "array": "64x64", "channels": 4},
    {"workload": "NCF1", "array": "64x64", "channels": 1},
)
MINI_TRACES = ({"workload": "NCF0", "array": "64x64", "channels": 1},)


def trace_key(spec: Dict) -> str:
    return f"{spec['workload']} {spec['array']} {spec['channels']}ch"


class Worker:
    """One replay process; construction is the timed set-up."""

    def __init__(self, dump=None):
        argv = [harness.PYTHON, str(harness.HERE / "dram_worker.py")]
        if dump is not None:
            argv[1:1] = ["-X", "importtime"]
            argv.append(str(dump))
        self.stderr_path = harness.WORK / "dram_replay" / f"worker-{time.monotonic_ns()}.err"
        self.stderr_path.parent.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, cwd=harness.ROOT, env=harness.child_env(), text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise harness.BenchmarkFault(
                f"dram worker did not start: {self.stderr_path.read_text()[-500:]}"
            )

    def replay(self, spec: Dict) -> Dict:
        self.proc.stdin.write(json.dumps(spec) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise harness.BenchmarkFault(
                f"dram worker died: {self.stderr_path.read_text()[-500:]}"
            )
        return json.loads(line)

    def close(self) -> Tuple[int, float]:
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        return harness.reap(self.proc)


def run_pass(traces, reference: Dict, traced: bool, index: int) -> Dict:
    dump = harness.WORK / "dram_replay" / f"pass{index}.trace.json" if traced else None
    worker = Worker(dump)
    times, failures = [], []
    start = time.perf_counter()
    try:
        for spec in traces:
            answer = worker.replay(spec)
            times.append(answer["seconds"])
            if answer["stats"] != reference["dram_replay"][trace_key(spec)]:
                failures.append(f"{trace_key(spec)}: DramStats differ from the reference")
        wall_s = time.perf_counter() - start
    finally:
        code, rss_mb = worker.close()
    if code != 0:
        failures.append(f"dram worker exited {code}")
    result = {
        "wall_s": wall_s, "setup_s": worker.setup_s, "times": times,
        "failures": failures, "rss_mb": rss_mb, "dumps": [], "imports": [],
    }
    if traced:
        result["dumps"] = [json.loads(dump.read_text())]
        result["imports"] = [worker.stderr_path.read_text()]
    return result


def spare_setup() -> float:
    worker = Worker()
    worker.close()
    return worker.setup_s


def run(args, reference: Dict):
    harness.fresh_dir(harness.WORK / "dram_replay")
    traces = MINI_TRACES if args.mini else TRACES
    return harness.measure(
        args,
        lambda index, traced: run_pass(traces, reference, traced, index),
        spare_setup=spare_setup,
        import_in_wall=False,
    )[1:]
