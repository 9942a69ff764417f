"""Self-test of the benchmark; finishes in well under a minute.

    python3 perfbench/selftest.py

* A miniature of each workload (two commands, the NCF0 trace, twenty
  requests) runs plain and traced, reports no failure and prints exactly
  the metrics ``BENCHMARK.json`` declares, with their units.
* A deliberately wrong reference makes ``cli_cold`` and ``dram_replay``
  count failures and exit non-zero.
* A copy holding only ``BENCHMARK.json`` and the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness

RUN = harness.HERE / "run.py"


def bench(*args, cwd=harness.ROOT, script=RUN):
    proc = subprocess.run(
        [harness.PYTHON, str(script), "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def check(condition: bool, message: str, problems: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def main() -> int:
    problems: list = []
    for traced in (0, 1):
        declared = harness.declared_units(bool(traced))
        for workload in ("cli_cold", "dram_replay", "serve_load"):
            code, result, stderr = bench("--workload", workload, "--trace", str(traced), "--mini")
            label = f"{workload} --trace {traced}"
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0, f"{label}: passes", problems)
            if result is None:
                print(stderr[-800:])
                continue
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            check(printed == declared, f"{label}: prints exactly the declared metrics", problems)

    wrong = json.loads((harness.HERE / "reference.json").read_text())
    for key in wrong["cli_cold"]:
        wrong["cli_cold"][key] = "0" * 64
    for stats in wrong["dram_replay"].values():
        stats[0]["row_hits"] += 1
    path = harness.fresh_dir(harness.WORK / "selftest") / "wrong-reference.json"
    path.write_text(json.dumps(wrong))
    for workload in ("cli_cold", "dram_replay"):
        code, result, _ = bench("--workload", workload, "--mini", "--reference", str(path))
        check(code != 0 and result is not None and result["failed"] > 0
              and not result["correct"], f"{workload}: a wrong reference fails", problems)

    bare = harness.fresh_dir(harness.WORK / "selftest" / "bare")
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.HERE, bare / harness.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench("--workload", "cli_cold", cwd=bare,
                            script=bare / harness.HERE.name / RUN.name)
    check(code != 0 and result is None, "without the program: exits non-zero, no result",
          problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
