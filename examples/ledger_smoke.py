#!/usr/bin/env python
"""Ledger smoke test: the columnar sweep ledger survives its three enemies.

Three drills, each one fatal to a naive results file:

1. **Torn write.**  A child process sweeps with
   ``REPRO_LEDGER_CRASH_POINT=mid-segment-publish`` armed and is killed
   mid-publish, leaving a half-written segment at the final path.  The
   reopen must quarantine the torn file, serve every completed point
   from the fsynced active journal, and an incremental re-sweep must
   finish the grid without re-simulating survivors.
2. **Config-hash change.**  Extending the grid re-simulates only the
   new points; bumping the ledger version (the stand-in for a package
   or config change) invalidates everything and re-simulates the full
   grid — exactly the incremental re-sweep contract.
3. **ENOSPC.**  Segment publishes start failing with "no space left on
   device" mid-sweep.  The ledger degrades to journal-only mode, the
   sweep still completes, and a cold reopen recovers every point.

Run:  PYTHONPATH=src python examples/ledger_smoke.py
Exits non-zero if any drill fails, so CI can gate on it.
"""

import errno
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import repro
from repro import SweepLedger, run_sweep
from repro.errors import StorageError
from repro.store import ledger as ledger_module
from repro.store.ledger import CRASH_POINT_ENV, MODE_JOURNAL

SRC = str(Path(repro.__file__).resolve().parent.parent)

GRID = [1, 2, 4, 8, 16, 32]


def measure(partitions: int) -> dict:
    return {
        "cycles": 1000 * partitions + 17,
        "avg_bw": round(partitions / 3.0, 3),
    }


TORN_CHILD = textwrap.dedent(
    """
    import sys
    from repro import SweepLedger, run_sweep

    def measure(partitions):
        return {
            "cycles": 1000 * partitions + 17,
            "avg_bw": round(partitions / 3.0, 3),
        }

    ledger = SweepLedger(sys.argv[1], version="smoke", segment_entries=3)
    run_sweep(measure, ledger=ledger, incremental=True,
              partitions=[1, 2, 4, 8, 16, 32])
    print("survived")
    """
)


def drill_torn_write(scratch: Path) -> None:
    root = scratch / "torn"
    env = {**os.environ, CRASH_POINT_ENV: "mid-segment-publish", "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", TORN_CHILD, str(root)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 137, (result.returncode, result.stderr)
    assert "survived" not in result.stdout

    ledger = SweepLedger(root, version="smoke", segment_entries=3)
    assert len(ledger.quarantined()) == 1, ledger.status()
    survivors = [p for p in GRID if ledger.completed({"partitions": p})]
    assert survivors, "active journal lost the completed points"

    calls = []

    def counting(partitions):
        calls.append(partitions)
        return measure(partitions)

    run_sweep(counting, ledger=ledger, incremental=True, partitions=GRID)
    assert sorted(calls) == [p for p in GRID if p not in survivors], calls
    assert ledger.completed_count == len(GRID)
    for p in GRID:
        assert ledger.get({"partitions": p})["rows"] == [
            {"partitions": p, **measure(p)}
        ]
    ledger.close()
    print(
        f"torn write: kill -9 mid-publish, {len(survivors)} point(s) survived, "
        f"{len(calls)} re-simulated, 1 segment quarantined"
    )


def drill_incremental(scratch: Path) -> None:
    root = scratch / "incremental"
    calls = []

    def counting(partitions):
        calls.append(partitions)
        return measure(partitions)

    with SweepLedger(root, version="config-v1") as ledger:
        run_sweep(counting, ledger=ledger, incremental=True, partitions=GRID[:4])
    assert calls == GRID[:4]

    calls.clear()
    with SweepLedger(root, version="config-v1") as ledger:
        run_sweep(counting, ledger=ledger, incremental=True, partitions=GRID)
    assert calls == GRID[4:], f"grid extension re-simulated {calls}"

    calls.clear()
    with SweepLedger(root, version="config-v2") as ledger:
        run_sweep(counting, ledger=ledger, incremental=True, partitions=GRID)
    assert calls == GRID, f"version bump should invalidate everything, got {calls}"
    print(
        f"incremental: grid extension re-ran {len(GRID) - 4}/{len(GRID)} points, "
        f"config-hash change re-ran {len(GRID)}/{len(GRID)}"
    )


def drill_enospc(scratch: Path) -> None:
    root = scratch / "enospc"
    original = ledger_module.atomic_write_bytes

    def full_disk(path, payload):
        raise StorageError(errno.ENOSPC, "No space left on device")

    ledger_module.atomic_write_bytes = full_disk
    try:
        with SweepLedger(root, version="smoke", segment_entries=3) as ledger:
            rows = run_sweep(measure, ledger=ledger, incremental=True,
                             partitions=GRID)
            assert len(rows) == len(GRID)
            status = ledger.status()
            assert status["mode"] == MODE_JOURNAL, status
    finally:
        ledger_module.atomic_write_bytes = original

    with SweepLedger(root, version="smoke") as reopened:
        assert reopened.completed_count == len(GRID), reopened.status()
    print(
        f"enospc: degraded to {MODE_JOURNAL} mode, sweep completed "
        f"{len(GRID)}/{len(GRID)}, cold reopen recovered every point"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ledger-smoke-") as scratch:
        drill_torn_write(Path(scratch))
        drill_incremental(Path(scratch))
        drill_enospc(Path(scratch))
    print("ledger smoke: all drills passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
