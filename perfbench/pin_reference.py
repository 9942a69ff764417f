"""Regenerate ``reference.json`` from the current program.

    python3 perfbench/pin_reference.py

Records the SHA-256 of each ``cli_cold`` command's stdout and every
``DramStats`` field of each ``dram_replay`` trace.  Run it only when a
change to the program's output is intended; the benchmark treats any
difference from the pinned file as a failure.
"""

from __future__ import annotations

import hashlib
import json
import sys

import cli_cold
import dram_replay
import harness


def main() -> int:
    harness.require_source()
    scratch = harness.fresh_dir(harness.WORK / "pin")
    outputs = {}
    for number, command in enumerate(cli_cold.schedule(0, mini=False)):
        args = [part.replace("{scratch}", str(scratch)) for part in command]
        out = harness.run_child(harness.repro_argv(args, None), scratch / str(number))
        if out.code != 0:
            print(f"{' '.join(command)} exited {out.code}", file=sys.stderr)
            return 1
        outputs[cli_cold.command_key(command)] = hashlib.sha256(out.stdout.encode()).hexdigest()
    traces = {}
    worker = dram_replay.Worker()
    try:
        for spec in dram_replay.TRACES + dram_replay.MINI_TRACES:
            traces[dram_replay.trace_key(spec)] = worker.replay(spec)["stats"]
    finally:
        worker.close()
    reference = {
        "cli_cold": dict(sorted(outputs.items())),
        "dram_replay": traces,
    }
    path = harness.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
