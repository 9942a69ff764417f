#!/usr/bin/env python
"""Ledger smoke test: the sweep ledger's journal survives its enemies.

A sweep ledger is a directory holding one checkpoint journal, each line
fsynced and carrying a SHA-256 of its own text.  Four drills, each one
fatal to a naive results file:

1. **kill -9.**  A child process sweeps into a ledger and dies with
   ``os._exit(137)`` at its third point.  A reopen must serve the two
   fsynced points, and an incremental re-sweep must finish the grid
   without re-simulating them.
2. **Config-hash change.**  Extending the grid re-simulates only the
   new points; bumping the ledger version (the stand-in for a package
   or config change) invalidates everything and re-simulates the full
   grid — exactly the incremental re-sweep contract.
3. **Bit flip.**  One digit of one journal line flips.  The line fails
   its checksum and is dropped, exactly its point re-simulates, and the
   re-swept rows equal the originals.
4. **ENOSPC.**  Journal appends start failing with "no space left on
   device" mid-sweep.  The sweep fails with ``CheckpointError`` instead
   of pretending to be resumable, and a cold reopen recovers every point
   appended before the failure.

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
from repro.errors import CheckpointError
from repro.robust import checkpoint as checkpoint_module

SRC = str(Path(repro.__file__).resolve().parent.parent)

GRID = [1, 2, 4, 8, 16, 32]


def measure(partitions: int) -> dict:
    return {
        "cycles": 1000 * partitions + 17,
        "avg_bw": round(partitions / 3.0, 3),
    }


def counting(calls):
    def measured(partitions):
        calls.append(partitions)
        return measure(partitions)
    return measured


KILLED_CHILD = textwrap.dedent(
    """
    import os, sys
    from repro import SweepLedger, run_sweep

    measured = []

    def measure(partitions):
        measured.append(partitions)
        if len(measured) == 3:
            os._exit(137)
        return {
            "cycles": 1000 * partitions + 17,
            "avg_bw": round(partitions / 3.0, 3),
        }

    ledger = SweepLedger(sys.argv[1], version="smoke")
    run_sweep(measure, ledger=ledger, incremental=True,
              partitions=[1, 2, 4, 8, 16, 32])
    print("survived")
    """
)


def drill_kill9(scratch: Path) -> None:
    root = scratch / "killed"
    result = subprocess.run(
        [sys.executable, "-c", KILLED_CHILD, str(root)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 137, (result.returncode, result.stderr)
    assert "survived" not in result.stdout

    ledger = SweepLedger(root, version="smoke")
    survivors = [p for p in GRID if ledger.completed({"partitions": p})]
    assert survivors == GRID[:2], f"fsynced points lost: {survivors}"

    calls = []
    run_sweep(counting(calls), ledger=ledger, incremental=True, partitions=GRID)
    assert calls == GRID[2:], calls
    assert ledger.completed_count == len(GRID)
    for p in GRID:
        assert ledger.get({"partitions": p})["rows"] == [
            {"partitions": p, **measure(p)}
        ]
    print(
        f"kill -9: child died at point 3, {len(survivors)} point(s) survived, "
        f"{len(calls)} re-simulated"
    )


def drill_incremental(scratch: Path) -> None:
    root = scratch / "incremental"
    calls = []
    run_sweep(counting(calls), ledger=SweepLedger(root, version="config-v1"),
              incremental=True, partitions=GRID[:4])
    assert calls == GRID[:4]

    calls.clear()
    run_sweep(counting(calls), ledger=SweepLedger(root, version="config-v1"),
              incremental=True, partitions=GRID)
    assert calls == GRID[4:], f"grid extension re-simulated {calls}"

    calls.clear()
    run_sweep(counting(calls), ledger=SweepLedger(root, version="config-v2"),
              incremental=True, partitions=GRID)
    assert calls == GRID, f"version bump should invalidate everything, got {calls}"
    print(
        f"incremental: grid extension re-ran {len(GRID) - 4}/{len(GRID)} points, "
        f"config-hash change re-ran {len(GRID)}/{len(GRID)}"
    )


def drill_bit_flip(scratch: Path) -> None:
    root = scratch / "flipped"
    before = run_sweep(measure, ledger=SweepLedger(root, version="smoke"),
                       incremental=True, partitions=GRID)
    journal = root / "journal.jsonl"
    raw = bytearray(journal.read_bytes())
    raw[raw.index(b'"cycles": 8017') + len(b'"cycles": 8017') - 1] ^= 0x01
    journal.write_bytes(bytes(raw))  # 8017 -> 8016: still valid JSON

    calls = []
    after = run_sweep(counting(calls), ledger=SweepLedger(root, version="smoke"),
                      incremental=True, partitions=GRID)
    assert calls == [8], f"a flipped digit should re-simulate point 8, got {calls}"
    assert after == before, "re-swept rows differ from the originals"
    print("bit flip: the damaged line was dropped, 1/6 point re-simulated")


def drill_enospc(scratch: Path) -> None:
    root = scratch / "enospc"
    real_append = checkpoint_module.append_line
    appended = []

    def full_disk(path, line):
        appended.append(line)
        if len(appended) >= 3:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_append(path, line)

    checkpoint_module.append_line = full_disk
    try:
        run_sweep(measure, ledger=SweepLedger(root, version="smoke"),
                  incremental=True, partitions=GRID)
    except CheckpointError as exc:
        assert "No space left on device" in str(exc), exc
    else:
        raise AssertionError("a sweep that cannot journal must fail")
    finally:
        checkpoint_module.append_line = real_append

    reopened = SweepLedger(root, version="smoke")
    assert reopened.completed_count == 2, len(reopened)
    print(
        "enospc: the sweep failed with CheckpointError, a cold reopen "
        "recovered both points appended before the disk filled"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="ledger-smoke-") as scratch:
        drill_kill9(Path(scratch))
        drill_incremental(Path(scratch))
        drill_bit_flip(Path(scratch))
        drill_enospc(Path(scratch))
    print("ledger smoke: all drills passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
