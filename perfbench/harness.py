"""Shared plumbing: child processes, statistics, per-layer accounting,
pinned counts and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for every run (git-ignored).
WORK = ROOT / ".perfbench"
PYTHON = sys.executable or "python3"
CHILD_TIMEOUT_S = 120.0
#: Set-up samples behind each untraced ``setup_s`` median.
MIN_SETUPS = 9

#: Top-level ``repro`` packages with their own import-time metric.
PACKAGES = (
    "analytical", "config", "dataflow", "dram", "energy", "engine",
    "experiments", "golden", "mapping", "memory", "noc", "obs", "perf",
    "resilience", "robust", "serve", "store", "topology", "traceanalysis",
    "utils", "verify", "workloads",
)

#: Wrapped layers reported as ``<layer>.self_s`` (see layertrace.LAYERS).
SELF_LAYERS = (
    "experiments", "engine", "dataflow", "memory", "compiler", "analytical",
    "dram.stream", "dram.run", "store.open", "store.get", "store.put",
    "ledger.open", "ledger.record", "ledger.seal", "ledger.diff",
    "robust.execute", "checkpoint.record",
)

#: Daemon metrics from a ``/metrics`` scrape (zero on other workloads).
SERVE_METRICS = (
    "serve.queue_wait_p50_ms", "serve.queue_wait_tail_ms",
    "serve.job.gemm_p50_ms", "serve.job.run_p50_ms", "serve.job.sweep_p50_ms",
    "serve.transport_p50_ms", "serve.rejected_n", "serve.singleflight_joined_n",
)

#: Counts that repeat exactly for one seed on one version of the code.
PINNED = (
    "dram.requests_n", "engine.layers_n", "dataflow.folds_n",
    "compiler.points_n", "perf.cache.hits_n", "store.writes_n",
    "ledger.entries_n", "ledger.sealed_n",
)


class BenchmarkFault(RuntimeError):
    """The benchmark itself, not the program, misbehaved."""


def require_source() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchmarkFault(f"no program source at {SRC / 'repro'}")


def child_env() -> Dict[str, str]:
    """Environment for program processes: ``src`` importable, no
    inherited ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); returns its exit
    code and peak RSS in MB."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Finished:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


def run_child(argv: Sequence[str], logs: Path) -> Finished:
    """Run one program process from the checkout root, output to files."""
    out_path, err_path = logs.with_suffix(".out"), logs.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        code, rss_mb = reap(proc)
        seconds = time.perf_counter() - start
    return Finished(
        code,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        seconds,
        rss_mb,
    )


def repro_argv(args: Sequence[str], dump: Optional[Path]) -> List[str]:
    """Command line of one CLI invocation, plain or through the launcher."""
    if dump is None:
        return [PYTHON, "-m", "repro", *args]
    return [PYTHON, "-X", "importtime", str(HERE / "launcher.py"), str(dump), *args]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def tail(values: Iterable[float]) -> Tuple[float, int, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with ten samples or fewer
    no percentile qualifies and the maximum stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, n
    index = n - 11
    return ordered[index], int(100 * index / (n - 1)), n


def measure(args, run_pass, spare_setup, import_in_wall: bool, check=None):
    """Run one workload's passes and reduce them to its metrics.

    ``run_pass(index, traced)`` returns a dict with ``wall_s``,
    ``setup_s``, ``times`` (one per operation), ``failures``, ``rss_mb``
    (peak RSS of the process doing the pass's work), and, when traced,
    the ``dumps`` and ``imports`` of its processes.
    Untraced, passes repeat while that ends nearer ``args.seconds`` (a
    pass is taken to last as long as the mean so far) and set-up is
    sampled at least :data:`MIN_SETUPS` times (``spare_setup()`` makes
    up the rest).  Traced, one plain and one traced pass give the
    per-layer split.  ``check(passes)`` may add failures before they are
    counted.  Returns ``(passes, metrics, attempted, failures)``.
    """
    if args.trace:
        passes = [run_pass(0, False), run_pass(1, True)]
        plain, traced = passes
        metrics = layer_metrics(traced["dumps"], traced["imports"], traced["wall_s"],
                                plain["wall_s"], import_in_wall)
    else:
        start = time.monotonic()
        passes = [run_pass(0, False)]
        while True:
            elapsed = time.monotonic() - start
            if elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
                break
            passes.append(run_pass(len(passes), False))
    if check is not None:
        check(passes)
    times = [t for p in passes for t in p["times"]]
    failures = [f for p in passes for f in p["failures"]]
    if not args.trace:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(spare_setup())
        # a tail per pass, so its percentile does not move with the
        # number of passes that fit in the run
        tails = [tail(p["times"]) for p in passes]
        _, percentile, samples = tails[0]
        metrics = {
            "wall_s": median(p["wall_s"] for p in passes),
            "setup_s": median(setups),
            "op_p50_ms": 1e3 * median(times),
            "op_tail_ms": 1e3 * median(value for value, _, _ in tails),
            "ok_ratio": 1.0 - min(len(failures), len(times)) / len(times),
            "peak_rss_mb": median(p["rss_mb"] for p in passes),
        }
        note(f"{args.workload}: {len(passes)} pass(es) of {samples} operations; "
             f"op_tail_ms is the median over passes of each pass's p{percentile}")
    return passes, metrics, len(times), failures


# ----------------------------------------------------------------------
# Per-layer accounting (traced runs)
# ----------------------------------------------------------------------
def parse_importtime(text: str) -> Dict[str, float]:
    """Import metrics from one process's ``-X importtime`` stderr."""
    total = numpy = 0.0
    modules = 0
    per_package = Counter()
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        seconds = int(self_us) / 1e6
        total += seconds
        if name == "numpy":
            numpy += int(cumulative_us) / 1e6
        if name == "repro" or name.startswith("repro."):
            modules += 1
            parts = name.split(".")
            package = parts[1] if len(parts) > 1 and parts[1] in PACKAGES else "toplevel"
            per_package[package] += seconds
    metrics = {
        "import.total_s": total,
        "import.numpy_s": numpy,
        "import.repro_modules_n": modules,
    }
    for package in PACKAGES + ("toplevel",):
        metrics[f"import.repro.{package}_s"] = per_package[package]
    return metrics


def _ratio(useful: float, attempted: float) -> float:
    return useful / attempted if attempted else 0.0


def layer_metrics(
    dumps: List[Dict],
    imports: List[str],
    traced_wall_s: float,
    untraced_wall_s: float,
    import_in_wall: bool,
) -> Dict[str, float]:
    """Per-layer metrics from the traced processes of one pass.

    ``other.self_s`` is traced wall time covered by no reported layer:
    the wall minus the wrapped top-level time (the measured functions'
    own code is not a layer and stays in ``other``), minus import time
    when imports happen inside the timed phase.
    """
    self_s, counters = Counter(), Counter()
    covered = 0.0
    for record in dumps:
        self_s.update(record["self_s"])
        counters.update(record["counters"])
        covered += record["covered_s"]
    import_sums = Counter(parse_importtime(""))
    for text in imports:
        import_sums.update(parse_importtime(text))
    metrics: Dict[str, float] = dict(import_sums)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]

    hits, misses = counters["perf.cache.hits"], counters["perf.cache.misses"]
    requests = counters["dram.requests"]
    store_hits = counters["store.hits"]
    entries, reused = counters["ledger.entries"], counters["ledger.reused"]
    metrics.update({
        "engine.layers_n": counters["sim.layers"],
        "dataflow.folds_n": counters["dataflow.folds_planned"],
        "perf.cache.hits_n": hits,
        "perf.cache.hit_ratio": _ratio(hits, hits + misses),
        "compiler.points_n": counters["perf.compiler.points"],
        "dram.requests_n": requests,
        "dram.row_hit_ratio": _ratio(counters["dram.row_hits"], requests),
        "dram.run.us_per_request": _ratio(self_s["dram.run"] * 1e6, requests),
        "store.writes_n": counters["store.writes"],
        "store.hits_n": store_hits,
        "store.hit_ratio": _ratio(store_hits, store_hits + counters["store.misses"]),
        "store.errors_n": counters["store.errors"],
        "ledger.entries_n": entries,
        "ledger.sealed_n": counters["ledger.sealed"],
        "ledger.reused_ratio": _ratio(reused, reused + entries),
        "robust.retries_n": counters["robust.retries"],
        "robust.failed_n": counters["robust.points_failed"],
    })
    metrics.update(dict.fromkeys(SERVE_METRICS, 0.0))
    in_layers = covered - self_s["measure"]
    if import_in_wall:
        in_layers += metrics["import.total_s"]
    metrics["other.self_s"] = traced_wall_s - in_layers
    metrics["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return metrics


def code_digest() -> str:
    """Content hash of the program and the benchmark."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_pinned(workload: str, seed: int, metrics: Dict[str, float]) -> Optional[str]:
    """Record this run's pinned counts; a difference from an earlier run
    of the same code and seed is returned as a fault message."""
    path = WORK / "pinned.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{workload}/seed={seed}/code={code_digest()}"
    counts = {name: metrics[name] for name in PINNED}
    previous = known.setdefault(key, counts)
    if previous != counts:
        changed = {
            name: (previous.get(name), counts[name])
            for name in PINNED if previous.get(name) != counts[name]
        }
        return f"pinned counts differ from an earlier run of the same code: {changed}"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
def declared_units(traced: bool) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def unit_of(name: str) -> str:
    if name.endswith("us_per_request"):
        return "us"
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
                         ("_n", "count"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    raise BenchmarkFault(f"metric {name!r} has no unit suffix")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], traced: bool) -> str:
    """The final JSON line; every metric must be declared with its unit."""
    declared = declared_units(traced)
    printed = {name: unit_of(name) for name in metrics}
    if printed != declared:
        extra = sorted(set(printed.items()) - set(declared.items()))
        missing = sorted(set(declared.items()) - set(printed.items()))
        raise BenchmarkFault(
            f"metrics differ from BENCHMARK.json: undeclared {extra}, missing {missing}"
        )
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": printed[name]}
            for name in sorted(metrics)
        },
    })


def note(message: str) -> None:
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(message, file=sys.stderr, flush=True)
