"""``cli_cold``: 23 user commands, each in a fresh interpreter.

Every command's stdout must match the digest pinned in
``reference.json``; the 18 ``reproduce`` outputs must also equal the
blessed rows in ``baselines/`` rendered as the CLI renders them.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Dict, List, Optional, Tuple

import harness

EXPERIMENTS = (
    "fig10a", "fig10b", "fig11abc", "fig11def", "fig12", "fig13-language",
    "fig13-resnet", "fig14-language", "fig14-resnet", "fig4", "fig9a",
    "fig9b", "fig9c", "resilience", "table1", "table2", "table3", "table4",
)

#: Units of work, each one or more commands run in order.  ``{scratch}``
#: is the pass's scratch directory; outputs never mention it.
UNITS: Tuple[Tuple[Tuple[str, ...], ...], ...] = (
    *((("reproduce", name),) for name in EXPERIMENTS),
    (("run", "--workload", "resnet50", "--array", "32x32"),),
    (
        ("sweep", "--layer", "TF0", "--macs", "65536", "--ledger", "{scratch}/ledger"),
        ("resweep", "--layer", "TF0", "--macs", "65536", "--ledger", "{scratch}/ledger"),
    ),
    (("sweep", "--layer", "GNMT0", "--macs", "65536", "--checkpoint", "{scratch}/journal"),),
    (("dram", "--workload", "NCF0", "--array", "64x64"),),
)

#: A few fast commands for the self-test.
MINI_UNITS = (UNITS[EXPERIMENTS.index("table3")], UNITS[-1])


def command_key(args: Tuple[str, ...]) -> str:
    return " ".join(args)


def schedule(seed: int, mini: bool) -> List[Tuple[str, ...]]:
    """The seeded command order (a sweep is always followed by its resweep)."""
    units = list(MINI_UNITS if mini else UNITS)
    random.Random(seed).shuffle(units)
    return [command for unit in units for command in unit]


def render_rows(name: str, rows: List[Dict]) -> str:
    """``repro reproduce`` table layout of one experiment's rows."""
    rows = [{"experiment": name, **row} for row in rows]
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    widths = {
        key: max(len(key), max(len(str(row.get(key, ""))) for row in rows))
        for key in header
    }
    lines = [f"# {name}", "  ".join(key.ljust(widths[key]) for key in header)]
    for row in rows:
        lines.append("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in header))
    return "\n".join(lines) + "\n"


def load_expected(reference: Dict) -> Dict[str, Tuple[str, Optional[str]]]:
    """command -> (pinned stdout digest, blessed rendering or None)."""
    expected = {}
    for key, digest in reference["cli_cold"].items():
        blessed = None
        if key.startswith("reproduce "):
            name = key.split(" ", 1)[1]
            record = json.loads((harness.ROOT / "baselines" / f"{name}.json").read_text())
            blessed = render_rows(name, record["rows"])
        expected[key] = (digest, blessed)
    return expected


def check_output(key: str, out, expected) -> Optional[str]:
    """Why one command's outcome is wrong, or None."""
    if out.code != 0:
        return f"exit {out.code}: {out.stderr.strip()[-300:]}"
    digest, blessed = expected[key]
    if hashlib.sha256(out.stdout.encode()).hexdigest() != digest:
        return "stdout differs from the pinned reference"
    if blessed is not None and out.stdout != blessed:
        return "stdout differs from the blessed baseline rows"
    return None


def prepare(reference: Dict, name: str) -> Tuple[float, str, Dict]:
    """Set-up: a fresh scratch directory and the expected outputs."""
    start = time.perf_counter()
    scratch = harness.fresh_dir(harness.WORK / "cli_cold" / name)
    expected = load_expected(reference)
    return time.perf_counter() - start, str(scratch.relative_to(harness.ROOT)), expected


def run_pass(reference: Dict, commands, index: int, traced: bool) -> Dict:
    setup_s, scratch, expected = prepare(reference, f"pass{index}")
    logs = harness.fresh_dir(harness.WORK / "cli_cold" / f"logs{index}")
    times, failures, rss, dumps, imports = [], [], 0.0, [], []
    start = time.perf_counter()
    for number, command in enumerate(commands):
        args = [part.replace("{scratch}", scratch) for part in command]
        dump = logs / f"{number}.trace.json" if traced else None
        out = harness.run_child(harness.repro_argv(args, dump), logs / str(number))
        times.append(out.seconds)
        rss = max(rss, out.rss_mb)
        problem = check_output(command_key(command), out, expected)
        if problem:
            failures.append(f"{command_key(command)}: {problem}")
        if traced:
            imports.append(out.stderr)
            if dump.exists():
                dumps.append(json.loads(dump.read_text()))
    return {
        "wall_s": time.perf_counter() - start, "setup_s": setup_s,
        "times": times, "failures": failures, "rss_mb": rss,
        "dumps": dumps, "imports": imports,
    }


def run(args, reference: Dict):
    harness.fresh_dir(harness.WORK / "cli_cold")
    commands = schedule(args.seed, args.mini)
    return harness.measure(
        args,
        lambda index, traced: run_pass(reference, commands, index, traced),
        spare_setup=lambda: prepare(reference, "spare")[0],
        import_in_wall=True,
    )[1:]
