"""Perf-regression sentinel: durable bench history and rolling-baseline compare.

The PR-3 benchmark harness stamps ``benchmarks/results/perf/*.json``
per run but nothing ever *reads* them — a 10x regression in the hot
path would ship silently.  This module closes the loop:

* :data:`BENCHES` — a small suite of deterministic, sub-second
  benchmarks over the paper's own workloads (one bare GEMM, one
  scale-up conv layer, one partition-sweep slice).  Each run measures
  wall time (min over repeats, the stablest point estimate) and the
  delta of every ``repro.obs`` counter that moved (simulated cycles,
  cache traffic, ... — deterministic for a fixed build, so they double
  as a semantic drift detector).
* :func:`record` — appends one JSON line per run to a durable
  ``history.jsonl`` (the rolling baseline lives in the repo, so the
  trajectory survives CI containers).
* :func:`compare` — measures the suite now and judges it against a
  rolling baseline (median of the last ``window`` history entries):
  wall time regresses beyond ``threshold`` (with an absolute noise
  floor, so micro-benches don't flap), or a counter grows beyond a
  much tighter band (counters have no timing noise).

``repro bench record`` / ``repro bench compare`` expose this on the
CLI; a failed compare raises
:class:`~repro.errors.PerfRegressionError`, which exits with its own
documented code so CI can tell "slower" from "broken".  The
``inject_slowdown`` hook scales measured wall times — the smoke drill
uses it to prove the sentinel actually trips.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro._version import __version__
from repro.errors import PerfRegressionError
from repro.utils.atomicio import append_line, fsync_directory

PathLike = Union[str, Path]

#: Schema tag on every history line.
BENCH_SCHEMA = "repro.bench/1"

#: Default durable history location, relative to the repo root.
DEFAULT_HISTORY = Path("benchmarks") / "results" / "history.jsonl"

#: Relative wall-time regression tolerated before the sentinel trips.
DEFAULT_THRESHOLD = 0.25

#: Rolling-baseline window (history entries per bench).
DEFAULT_WINDOW = 5

#: Absolute wall-time slack (s): below this, relative noise is meaningless.
NOISE_FLOOR_S = 0.010

#: Relative growth tolerated on deterministic counters.
COUNTER_THRESHOLD = 0.01


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def _bench_gemm() -> None:
    from repro.config.presets import paper_scaling_config
    from repro.engine.simulator import Simulator

    config = paper_scaling_config(32, 32)
    Simulator(config).run_gemm(256, 256, 256)


def _bench_scaleup_conv() -> None:
    from repro.config.presets import paper_scaling_config
    from repro.engine.simulator import Simulator
    from repro.workloads.registry import get_workload

    layer = get_workload("resnet50")[9]
    config = paper_scaling_config(32, 32)
    Simulator(config).run_layer(layer)


def _bench_sweep_slice() -> None:
    from repro.sweep import sweep_measure
    from repro.workloads.language import language_layer

    layer = language_layer("TF0")
    for partitions in (4, 16):
        sweep_measure(partitions, layer=layer, macs=2**14)


def _bench_sweep_compiler() -> None:
    """Compile, rank and frontier-simulate the Fig. 9 2^16 design space.

    The pruned-sweep pipeline in miniature: vectorized pricing of every
    (grid, array shape) point for all dataflows, then one engine run on
    each analytical optimum.  The ``perf.compiler.points`` counter
    delta doubles as a drift detector on the enumerated space.
    """
    from repro.config.hardware import Dataflow
    from repro.perf.compiler import compile_search_space, simulate_candidates
    from repro.workloads.language import language_layer

    layer = language_layer("TF0")
    for dataflow in Dataflow:
        space = compile_search_space(layer, 2**16, dataflow=dataflow)
        space.frontier()
        simulate_candidates(layer, space, [space.best_index()])


def _bench_sweep_ledger() -> None:
    """Columnar ledger round-trip: record, seal, reopen, query.

    64 synthetic points through the whole durability pipeline — fsynced
    active journal, sealed checksummed segments, the recovery scan on
    reopen, zero-copy column/pareto/group-by reads — in a throwaway
    directory.  The deterministic ``ledger.*`` counter deltas double as
    a drift detector on the sealing and recovery paths.
    """
    import shutil
    import tempfile

    from repro.store.ledger import SweepLedger

    root = Path(tempfile.mkdtemp(prefix="repro-bench-ledger-"))
    try:
        with SweepLedger(root / "ledger", segment_entries=32) as ledger:
            for index in range(64):
                ledger.record(
                    {"partitions": index},
                    "ok",
                    rows=[{
                        "partitions": index,
                        "cycles": 1000 + (index * 37) % 101,
                        "avg_bw": float(index % 7),
                    }],
                )
        with SweepLedger(root / "ledger") as reopened:
            assert reopened.completed_count == 64
            reopened.numeric_column("cycles")
            reopened.pareto(minimize=("cycles", "avg_bw"))
            reopened.group_by("avg_bw", "cycles", agg="min")
    finally:
        shutil.rmtree(root, ignore_errors=True)


#: name -> zero-argument callable; deterministic, each well under a second.
BENCHES: Dict[str, Callable[[], None]] = {
    "gemm_256": _bench_gemm,
    "scaleup_conv": _bench_scaleup_conv,
    "sweep_slice": _bench_sweep_slice,
    "sweep_compiler": _bench_sweep_compiler,
    "sweep_ledger": _bench_sweep_ledger,
}


@dataclass
class BenchResult:
    """One bench's measurement: min wall time and counter deltas."""

    name: str
    wall_time_s: float
    counters: Dict[str, float] = field(default_factory=dict)


def _counter_snapshot() -> Dict[str, float]:
    from repro import obs

    return dict(obs.metrics.snapshot().get("counters", {}))


def _reset_cache() -> None:
    try:
        from repro.perf.cache import cache

        cache.reset()
    except Exception:
        pass


def run_suite(
    names: Optional[Sequence[str]] = None,
    repeats: int = 3,
) -> List[BenchResult]:
    """Measure the suite: min wall over ``repeats``, counters from one rep.

    The layer cache is reset before every repetition so each measures
    the same (cold) work; ``repro.obs`` counters are collected through
    the shared registry, enabled for the duration if needed.
    """
    from repro import obs

    selected = list(names) if names else list(BENCHES)
    unknown = [name for name in selected if name not in BENCHES]
    if unknown:
        raise ValueError(f"unknown bench(es) {unknown}; available: {list(BENCHES)}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    was_enabled = obs.metrics.enabled
    obs.metrics.enable()
    results: List[BenchResult] = []
    try:
        for name in selected:
            fn = BENCHES[name]
            best = float("inf")
            deltas: Dict[str, float] = {}
            for rep in range(repeats):
                _reset_cache()
                before = _counter_snapshot()
                start = time.perf_counter()
                fn()
                wall = time.perf_counter() - start
                if wall < best:
                    best = wall
                if rep == 0:
                    after = _counter_snapshot()
                    deltas = {
                        key: after[key] - before.get(key, 0)
                        for key in sorted(after)
                        if after[key] != before.get(key, 0)
                    }
            results.append(BenchResult(name=name, wall_time_s=best, counters=deltas))
    finally:
        if not was_enabled:
            obs.metrics.disable()
        _reset_cache()
    return results


# ----------------------------------------------------------------------
# Durable history
# ----------------------------------------------------------------------
def record(
    history_path: PathLike,
    results: Sequence[BenchResult],
    note: Optional[str] = None,
) -> Dict:
    """Append one history line for ``results``; returns the entry written."""
    entry = {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "ts_unix": round(time.time(), 3),
        "benches": {
            result.name: {
                "wall_time_s": round(result.wall_time_s, 6),
                "counters": result.counters,
            }
            for result in results
        },
    }
    if note:
        entry["note"] = note
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    append_line(path, json.dumps(entry, sort_keys=True))
    fsync_directory(path.parent)  # the file itself may be new
    return entry


def load_history(history_path: PathLike) -> List[Dict]:
    """Every well-formed history entry, oldest first."""
    path = Path(history_path)
    if not path.exists():
        return []
    entries: List[Dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            raise ValueError(f"{path}:{lineno}: malformed history line") from None
        if isinstance(entry, dict) and entry.get("schema") == BENCH_SCHEMA:
            entries.append(entry)
    return entries


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchVerdict:
    """One bench judged against its rolling baseline."""

    name: str
    wall_time_s: float
    baseline_s: Optional[float]  # None: no history yet
    wall_regressed: bool
    counter_regressions: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.wall_regressed and not self.counter_regressions

    @property
    def ratio(self) -> Optional[float]:
        if self.baseline_s is None or self.baseline_s <= 0:
            return None
        return self.wall_time_s / self.baseline_s


@dataclass(frozen=True)
class CompareReport:
    """The whole suite judged; renders and raises."""

    verdicts: List[BenchVerdict]
    threshold: float
    window: int

    @property
    def regressions(self) -> List[BenchVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"{'bench':16s} {'wall':>10s} {'baseline':>10s} {'ratio':>7s}  verdict"
        ]
        for verdict in self.verdicts:
            baseline = (
                f"{verdict.baseline_s:.4f}s" if verdict.baseline_s is not None else "-"
            )
            ratio = f"{verdict.ratio:.2f}x" if verdict.ratio is not None else "-"
            if verdict.ok:
                state = "ok" if verdict.baseline_s is not None else "ok (no baseline)"
            else:
                reasons = []
                if verdict.wall_regressed:
                    reasons.append(f"wall +{(verdict.ratio - 1) * 100:.0f}%")
                for counter, info in verdict.counter_regressions.items():
                    reasons.append(
                        f"{counter} {info['baseline']:.0f}->{info['current']:.0f}"
                    )
                state = "REGRESSED: " + ", ".join(reasons)
            lines.append(
                f"{verdict.name:16s} {verdict.wall_time_s:>9.4f}s {baseline:>10s} "
                f"{ratio:>7s}  {state}"
            )
        return "\n".join(lines)

    def raise_on_regression(self) -> None:
        if self.ok:
            return
        names = ", ".join(verdict.name for verdict in self.regressions)
        raise PerfRegressionError(
            f"performance regression in {names} "
            f"(threshold {self.threshold:.0%}, window {self.window}):\n"
            + self.render()
        )


def compare(
    history: Sequence[Dict],
    results: Sequence[BenchResult],
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
    counter_threshold: float = COUNTER_THRESHOLD,
    noise_floor_s: float = NOISE_FLOOR_S,
    inject_slowdown: float = 0.0,
) -> CompareReport:
    """Judge ``results`` against the rolling baseline in ``history``.

    Wall time regresses when it exceeds ``baseline * (1 + threshold)``
    *and* the excess clears ``noise_floor_s`` — micro-benches on noisy
    CI hosts need the absolute guard.  Counters regress on relative
    growth beyond ``counter_threshold`` (shrinking is an improvement,
    never flagged).  A bench with no history passes (and should be
    recorded to seed its baseline).  ``inject_slowdown`` scales the
    measured wall times — a self-test hook proving the sentinel trips.
    """
    verdicts: List[BenchVerdict] = []
    for result in results:
        wall = result.wall_time_s * (1.0 + inject_slowdown)
        samples: List[float] = []
        counter_baseline: Optional[Dict[str, float]] = None
        for entry in history:
            bench = entry.get("benches", {}).get(result.name)
            if not bench:
                continue
            samples.append(float(bench["wall_time_s"]))
            counter_baseline = bench.get("counters") or counter_baseline
        samples = samples[-window:]
        baseline = _median(samples) if samples else None
        wall_regressed = bool(
            baseline is not None
            and wall > baseline * (1.0 + threshold)
            and wall - baseline > noise_floor_s
        )
        counter_regressions: Dict[str, Dict[str, float]] = {}
        if counter_baseline:
            for counter, before in counter_baseline.items():
                current = result.counters.get(counter)
                if current is None or before <= 0:
                    continue
                if current > before * (1.0 + counter_threshold):
                    counter_regressions[counter] = {
                        "baseline": float(before),
                        "current": float(current),
                    }
        verdicts.append(
            BenchVerdict(
                name=result.name,
                wall_time_s=wall,
                baseline_s=baseline,
                wall_regressed=wall_regressed,
                counter_regressions=counter_regressions,
            )
        )
    return CompareReport(verdicts=verdicts, threshold=threshold, window=window)
