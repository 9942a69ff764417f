"""Command-line front end, in the spirit of the original SCALE-Sim runner.

Subcommands::

    scalesim-repro run      -c config.cfg -t topology.csv [-o outdir]
    scalesim-repro run      --workload resnet50 --array 32x32 ...
    scalesim-repro analyze  --workload resnet50 --array 32x32
    scalesim-repro search   --workload resnet50 --macs 16384 [--scaleout]
    scalesim-repro sweep    --layer TF0 --macs 16384 [--ledger DIR [--incremental]]
    scalesim-repro resweep  --layer TF0 --macs 16384 --ledger DIR
    scalesim-repro resilience --layer TF0 --macs 16384 [--dead 0,1,2,4]
    scalesim-repro dram     --workload TF1 --array 16x16 [--channels 4]
    scalesim-repro validate [--trials N] [--rel-tol T]
    scalesim-repro verify   [--budget S] [--seed N] [--props a,b] [--replay]
    scalesim-repro verify   --bless --reason "why" | --check-golden
    scalesim-repro bench    record|compare [--history FILE] [--threshold T]
    scalesim-repro workloads

``run`` simulates a topology cycle-accurately and writes the report
CSV; ``analyze`` prints the instant closed-form estimates (Eq. 4 plus
the traffic model); ``search`` runs the Sec. IV-B multi-workload
optimization; ``sweep`` regenerates a Fig. 11-style runtime/bandwidth-
vs-partitions series for one layer; ``dram`` replays a layer's prefetch
schedule through the cycle-level DRAM back-end; ``stats`` summarizes a
recorded trace/metrics file.

Global observability flags (before the subcommand): ``--trace FILE``
records a Chrome trace-event / Perfetto JSON timeline, ``--metrics
FILE`` a counters/histograms snapshot, ``--flight DIR`` arms the crash
flight recorder (a bounded telemetry ring dumped to
``flight-<pid>-<ns>.json`` on infrastructure failures, exit codes >=
10), and ``-v`` / ``--log-level`` control the ``repro.*`` logger
hierarchy (report tables always print to stdout; diagnostics go to
stderr).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro._version import __version__
from repro.obs import flight as obs_flight
from repro.obs.bench import (
    DEFAULT_HISTORY,
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    NOISE_FLOOR_S,
)
from repro.obs.logconf import configure_logging
from repro.errors import (
    CheckpointError,
    ConfigError,
    DramError,
    ExecutionError,
    InvariantError,
    MappingError,
    PerfRegressionError,
    ReproError,
    ResilienceError,
    SearchError,
    ServiceError,
    SimulationError,
    StorageError,
    TopologyError,
    VerificationError,
)

if TYPE_CHECKING:  # pragma: no cover - hint-only imports
    from repro.config.hardware import HardwareConfig
    from repro.robust.checkpoint import CheckpointStore
    from repro.robust.policy import ExecutionPolicy
    from repro.topology.network import Network

# Each command imports what it runs inside its handler, so a process
# loads only the subsystems its command executes.

#: A batch run ended without executing every point (failures tripped the
#: circuit breaker, points were skipped, or Ctrl-C stopped the sweep
#: with every completed point already in the checkpoint journal) —
#: distinct from the per-error-class codes so callers can tell "the
#: sweep ran but is incomplete" from "the sweep aborted".
EXIT_INCOMPLETE = 12

#: An atomic whole-file write could not complete (``ENOSPC``/``EIO``/
#: vanished directory — :class:`~repro.errors.StorageError`).  Journal
#: appends fail as checkpoint errors (exit 8) instead.
EXIT_STORAGE = 14

#: The ``repro.serve`` daemon/client layer failed: the daemon cannot
#: bind, the client cannot reach it, a job errored server-side, or
#: back-pressure retries were exhausted
#: (:class:`~repro.errors.ServiceError`).
EXIT_SERVICE = 15

#: The differential-verification harness found a violation: an oracle
#: disagreement, a broken metamorphic property, a regression bundle
#: that reproduces again, a drifted blessed baseline, or a seeded
#: mutant the harness failed to catch
#: (:class:`~repro.errors.VerificationError`).
EXIT_VERIFICATION = 16

#: The perf-regression sentinel tripped: ``bench compare`` measured a
#: tracked benchmark beyond its rolling-baseline noise band
#: (:class:`~repro.errors.PerfRegressionError`) — "slower", distinct
#: from "broken", so CI can gate on it separately.
EXIT_PERF_REGRESSION = 17

#: Stable process exit codes per failure class, most specific first.
#: This table is THE reference for the CLI's exit contract (mirrored in
#: docs/robustness.md):
#:
#: ====  =========================================================
#: code  meaning
#: ====  =========================================================
#: 0     success
#: 1     generic failure (bare :class:`~repro.errors.ReproError`)
#: 2     invalid hardware configuration (``ConfigError``)
#: 3     invalid topology/layer spec (``TopologyError``)
#: 4     simulation engine error (``SimulationError``)
#: 5     unmappable workload (``MappingError``)
#: 6     invalid search space (``SearchError``)
#: 7     DRAM back-end error (``DramError``)
#: 8     checkpoint journal or sweep ledger error (``CheckpointError``,
#:       storage failures such as ENOSPC/EIO included)
#: 9     invariant violation (``InvariantError``)
#: 10    batch execution failure (``ExecutionError`` and subclasses
#:       without their own code)
#: 11    invalid/unservable fault map (``ResilienceError``)
#: 12    incomplete sweep (breaker trip, skips, or SIGINT —
#:       ``KeyboardInterrupt``)
#: 14    durable write failure (``StorageError``: ENOSPC, EIO, a
#:       vanished directory) of an atomically replaced file
#: 15    simulation service failure (``ServiceError``: daemon cannot
#:       bind, unreachable, server-side job error, or exhausted
#:       back-pressure retries)
#: 16    verification failure (``VerificationError``: oracle or
#:       metamorphic violation, a reproducing regression bundle, a
#:       drifted blessed golden baseline, or a surviving mutant)
#: 17    performance regression (``PerfRegressionError``: ``bench
#:       compare`` found a tracked benchmark beyond its rolling
#:       baseline's noise band)
#: ====  =========================================================
EXIT_CODES: Tuple[Tuple[type, int], ...] = (
    (ConfigError, 2),
    (TopologyError, 3),
    (SimulationError, 4),
    (MappingError, 5),
    (SearchError, 6),
    (DramError, 7),
    (CheckpointError, 8),
    (InvariantError, 9),
    (ExecutionError, 10),
    (ResilienceError, 11),
    (StorageError, EXIT_STORAGE),
    (ServiceError, EXIT_SERVICE),
    (VerificationError, EXIT_VERIFICATION),
    (PerfRegressionError, EXIT_PERF_REGRESSION),
)

#: Generic non-zero exit for failures without a dedicated code.
EXIT_FAILURE = 1

logger = logging.getLogger("repro.cli")


def exit_code_for(exc: BaseException) -> int:
    """Map a :class:`ReproError` to its documented process exit code."""
    for error_type, code in EXIT_CODES:
        if isinstance(exc, error_type):
            return code
    return EXIT_FAILURE


def _add_robust_flags(sub: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by the batch subcommands."""
    sub.add_argument(
        "--checkpoint", metavar="FILE",
        help="JSONL journal recording each completed point",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help="resume an existing --checkpoint journal, skipping completed points",
    )
    sub.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="per-point wall-clock budget",
    )
    sub.add_argument(
        "--max-failures", type=int, dest="max_failures", metavar="N",
        help="collect failures but stop after N of them (default: abort on first)",
    )
    sub.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retries per failing point, with exponential backoff (default 0)",
    )
    sub.add_argument(
        "--workers", type=int, metavar="N",
        help="deprecated and ignored: every sweep runs in this process",
    )


def _warn_ignored_workers(args: argparse.Namespace) -> None:
    """The deprecated ``--workers`` flag is accepted so scripts keep working."""
    if args.workers is not None:
        logger.warning(
            "--workers %d is deprecated and ignored: every sweep runs in "
            "this process", args.workers,
        )


#: The retired result store's environment variable; setting it only warns.
STORE_ENV_VAR = "REPRO_RESULT_STORE"


def _warn_ignored_store(args: argparse.Namespace) -> None:
    """The retired result store's flags and variable are accepted so
    scripts keep working."""
    if args.store or args.no_store or os.environ.get(STORE_ENV_VAR):
        logger.warning(
            "--store, --no-store and %s are deprecated and ignored: "
            "simulation results are not persisted", STORE_ENV_VAR,
        )


def _robust_policy(args: argparse.Namespace) -> ExecutionPolicy:
    from repro.robust.policy import ExecutionPolicy

    try:
        return ExecutionPolicy(
            max_retries=args.retries,
            timeout=args.timeout,
            max_failures=args.max_failures,
            mode="collect" if args.max_failures is not None else "fail_fast",
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _robust_checkpoint(args: argparse.Namespace) -> Optional[CheckpointStore]:
    from repro.robust.checkpoint import CheckpointStore

    if args.resume and not args.checkpoint:
        raise CheckpointError("--resume requires --checkpoint FILE")
    if not args.checkpoint:
        return None
    return CheckpointStore(args.checkpoint, resume=args.resume)


def _sweep_ledger(args: argparse.Namespace):
    """Validated ``--ledger``/``--incremental`` combination for sweep."""
    ledger_dir = getattr(args, "ledger", None)
    incremental = getattr(args, "incremental", False)
    if incremental and not ledger_dir:
        raise ConfigError("--incremental requires --ledger DIR")
    if ledger_dir and args.checkpoint:
        raise ConfigError(
            "--ledger and --checkpoint are mutually exclusive; the ledger "
            "already journals every point durably"
        )
    if not ledger_dir:
        return None
    from repro.sweep import SweepLedger, sweep_ledger_version

    # Scope the keys to the full simulation identity, not just the
    # partition counts, so unrelated sweeps can share one ledger.
    version = sweep_ledger_version(
        args.layer, getattr(args, "workload", None) or "resnet50", args.macs
    )
    return SweepLedger(ledger_dir, version=version)


def _at_least_one(value: int, flag: str) -> int:
    """``value`` of a numeric flag, or the one-line usage error naming it."""
    if value < 1:
        raise SystemExit(f"invalid {flag} {value}; expected at least 1")
    return value


def _not_negative(value: Optional[float], flag: str) -> Optional[float]:
    """``value`` of a numeric flag, or the one-line usage error naming it."""
    if value is not None and value < 0:
        raise SystemExit(f"invalid {flag} {value}; expected at least 0")
    return value


def _parse_counts(text: str, flag: str) -> List[int]:
    """A comma-separated list of counts, each at least 1."""
    try:
        counts = [int(part) for part in text.split(",")]
    except ValueError:
        raise SystemExit(f"invalid {flag} {text!r}; expected e.g. 1,4,16") from None
    return [_at_least_one(count, flag) for count in counts]


def _parse_shape(text: str, what: str) -> Tuple[int, int]:
    try:
        rows_text, cols_text = text.lower().split("x")
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        rows = cols = 0
    if rows < 1 or cols < 1:
        raise SystemExit(f"invalid {what} {text!r}; expected e.g. 32x32")
    return rows, cols


def _workload(name: str, table_iv: bool = False) -> Network:
    """The built-in network ``--workload NAME`` (or, with ``table_iv``, a
    Table IV layer as a one-layer network); an unknown name is the
    one-line usage error listing the names accepted."""
    from repro.topology.network import Network
    from repro.workloads.language import TABLE_IV_DIMS, language_layer
    from repro.workloads.registry import available_workloads, get_workload

    if table_iv and name in TABLE_IV_DIMS:
        return Network(name, [language_layer(name)])
    try:
        return get_workload(name)
    except KeyError:
        names = available_workloads() + (list(TABLE_IV_DIMS) if table_iv else [])
        raise SystemExit(
            f"unknown --workload {name!r}; available: {', '.join(names)}"
        ) from None


def _load_network(args: argparse.Namespace) -> Network:
    from repro.topology.parser import load_topology

    if args.topology:
        return load_topology(args.topology)
    if args.workload:
        return _workload(args.workload, table_iv=True)
    raise SystemExit("provide --topology FILE or --workload NAME")


def _fault_map_from_args(args: argparse.Namespace):
    """The fault map named by --faults / --fault-map, or ``None``.

    Parse and file errors raise :class:`~repro.errors.ResilienceError`
    (exit code 11).
    """
    from repro.resilience.faultmap import FaultMap, load_fault_map

    spec = getattr(args, "faults", None)
    path = getattr(args, "fault_map", None)
    if spec and path:
        raise ResilienceError("--faults and --fault-map are mutually exclusive")
    if spec:
        return FaultMap.from_spec(spec)
    if path:
        return load_fault_map(path)
    return None


def _build_config(args: argparse.Namespace) -> HardwareConfig:
    from repro.config.hardware import Dataflow
    from repro.config.parser import load_config
    from repro.config.presets import paper_scaling_config

    if args.config:
        config = load_config(args.config)
    else:
        config = paper_scaling_config(32, 32)
    if args.array:
        rows, cols = _parse_shape(args.array, "--array")
        config = config.with_array(rows, cols)
    if getattr(args, "partitions", None):
        rows, cols = _parse_shape(args.partitions, "--partitions")
        config = config.with_partitions(rows, cols)
    if args.dataflow:
        config = config.with_dataflow(Dataflow.from_string(args.dataflow))
    fault_map = _fault_map_from_args(args)
    if fault_map is not None:
        config = config.with_fault_map(fault_map)
    return config


def _single_array_config(args: argparse.Namespace, scope: str) -> HardwareConfig:
    """The config of a command that has no --partitions flag.

    Its partition grid can only come from the ``-c`` INI file, so a grid
    other than 1x1 is named as the config's.
    """
    config = _build_config(args)
    if not config.is_monolithic:
        raise SystemExit(
            f"{scope}; the config's {config.partition_rows}x{config.partition_cols} "
            "partition grid must be 1x1"
        )
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.engine.reports import render_report, write_report_csv
    from repro.engine.scaleout import ScaleOutSimulator
    from repro.engine.simulator import Simulator

    network = _load_network(args)
    if _at_least_one(args.batch, "--batch") > 1:
        network = network.with_batch(args.batch)
    config = _build_config(args)
    if config.is_monolithic:
        result = Simulator(config, loop_order=args.loop_order).run_network(network)
    else:
        result = ScaleOutSimulator(config).run_network(network)
    print(f"# {config.describe()}")
    print(render_report(result))
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        path = write_report_csv(result, outdir / f"{network.name}_report.csv")
        print(f"\nreport written to {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Closed-form estimates: Eq. 4 runtime + the traffic model."""
    from repro.analytical.runtime import scaleup_runtime
    from repro.analytical.traffic import estimate_traffic
    from repro.mapping.dims import map_layer
    from repro.memory.buffers import BufferSet

    network = _load_network(args)
    config = _single_array_config(args, "analyze estimates single arrays")
    buffers = BufferSet.from_config(config)
    print(f"# analytical estimates, {config.describe()}")
    print(f"{'layer':16s} {'eq4_cycles':>12s} {'dram_rd_B':>12s} {'dram_wr_B':>12s} {'avg_bw':>8s}")
    total_cycles = 0
    for layer in network:
        mapping = map_layer(layer, config.dataflow)
        runtime = scaleup_runtime(mapping, config.array_rows, config.array_cols)
        estimate = estimate_traffic(
            mapping, config.array_rows, config.array_cols, buffers, config.word_bytes
        )
        total_cycles += runtime
        print(
            f"{layer.name:16s} {runtime:12d} {estimate.read_bytes:12d} "
            f"{estimate.ofmap_bytes:12d} {estimate.avg_total_bw:8.2f}"
        )
    print(f"\ntotal Eq.4 cycles: {total_cycles}")
    return 0


def _cmd_dram(args: argparse.Namespace) -> int:
    """Replay one layer's DRAM schedule through the device back-end."""
    from repro.dram.simulator import DramSimulator
    from repro.dram.timing import DramTiming
    from repro.engine.simulator import Simulator
    from repro.engine.tracefiles import dram_request_stream
    from repro.memory.bandwidth import compute_dram_traffic
    from repro.memory.buffers import BufferSet

    _at_least_one(args.channels, "--channels")
    network = _load_network(args)
    config = _single_array_config(args, "dram replays single-array traces")
    simulator = Simulator(config)
    timing = DramTiming(num_channels=args.channels)
    device = DramSimulator(timing)
    print(f"# DRAM replay, {config.describe()}, {args.channels} channel(s)")
    print(f"{'layer':16s} {'demand_bw':>10s} {'achieved':>10s} {'hit_rate':>9s} {'verdict':>12s}")
    for layer in network:
        engine = simulator.engine(layer)
        traffic = compute_dram_traffic(
            engine, BufferSet.from_config(config), config.word_bytes
        )
        requests = list(
            dram_request_stream(traffic, simulator.address_layout(layer))
        )
        stats = device.run(requests)
        demand = traffic.bandwidth.avg_total_bw
        verdict = "keeps up" if stats.achieved_bandwidth >= 0.95 * demand else "falls behind"
        print(
            f"{layer.name:16s} {demand:10.2f} {stats.achieved_bandwidth:10.2f} "
            f"{stats.row_hit_rate:9.2f} {verdict:>12s}"
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.analytical.multiworkload import WorkloadSet, pareto_search
    from repro.config.hardware import Dataflow

    _at_least_one(args.macs, "--macs")
    network = _load_network(args)
    workloads = WorkloadSet(
        name=network.name,
        layers=tuple(network),
        dataflow=Dataflow.from_string(args.dataflow or "os"),
    )
    best, ranking = pareto_search(workloads, args.macs, scaleout=args.scaleout)
    kind = "scale-out" if args.scaleout else "scale-up"
    print(f"# optimal {kind} configuration for {network.name} at {args.macs} MACs")
    print(f"best: {best.label()}  (total runtime {ranking[0][1]:.2f}x)")
    for rank, (cand, loss) in enumerate(ranking, start=1):
        print(f"  {rank:2d}. {cand.label():40s} perf loss {loss:6.2f}x")
    return 0


def _resolve_layer(args: argparse.Namespace):
    """The layer named by --layer, from Table IV or --workload."""
    from repro.workloads.language import TABLE_IV_DIMS, language_layer

    if args.layer in TABLE_IV_DIMS:
        return language_layer(args.layer)
    network = _workload(args.workload or "resnet50")
    if args.layer not in network:
        raise SystemExit(f"unknown layer {args.layer!r}")
    return network[args.layer]


def sweep_measure(partitions: int, layer=None, macs: int = 0) -> dict:
    """One ``sweep`` point: :func:`repro.sweep.sweep_measure`, looked up
    here so a caller can intercept the points the command runs."""
    from repro.sweep import sweep_measure as measure

    return measure(partitions, layer=layer, macs=macs)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import run_sweep_report, sweep_estimate
    from repro.utils.mathutils import is_power_of_two

    if not is_power_of_two(args.macs):
        raise SystemExit("--macs must be a power of two for the sweep")
    _not_negative(args.top_k, "--top-k")
    _not_negative(args.prune_band, "--prune-band")
    layer = _resolve_layer(args)
    candidates: List[int] = (
        _parse_counts(args.partitions, "--partitions")
        if args.partitions
        else [4**i for i in range(8) if 4**i * 64 <= args.macs]
    )
    counts = [
        count for count in candidates
        if not args.macs % count and is_power_of_two(args.macs // count)
    ]
    ledger = _sweep_ledger(args)
    incremental = getattr(args, "incremental", False)
    _warn_ignored_workers(args)
    print(f"# layer {layer.name}, {args.macs} MACs, OS dataflow")
    if ledger is not None and incremental:
        diff = ledger.diff_grid([{"partitions": count} for count in counts])
        print(f"# incremental re-sweep: {diff.describe()}")
    print("partitions  array       cycles      avg_bw(B/cyc)  peak_bw(B/cyc)")
    if not counts:
        return 0

    # Analytical pruning is opt-in (--top-k/--prune-band) and --exact
    # always wins: without an estimator the sweep is byte-identical to
    # the pre-compiler behaviour.
    pruning = (
        not args.exact
        and (args.top_k is not None or args.prune_band is not None)
    )
    rows, report = run_sweep_report(
        functools.partial(sweep_measure, layer=layer, macs=args.macs),
        policy=_robust_policy(args),
        checkpoint=_robust_checkpoint(args),
        estimator=(
            functools.partial(sweep_estimate, layer=layer, macs=args.macs)
            if pruning
            else None
        ),
        top_k=args.top_k,
        prune_band=args.prune_band,
        exact=args.exact,
        ledger=ledger,
        incremental=incremental,
        partitions=counts,
    )
    for row in rows:
        status = row.get("status")
        if status and status != "estimated":
            print(f"{row['partitions']:10d}  {status}: {row.get('error', '')}")
            continue
        marker = "  ~ analytical" if status == "estimated" else ""
        array_rows, array_cols = row["array"].split("x")
        print(
            f"{row['partitions']:10d}  {array_rows}x{int(array_cols):<8d} "
            f"{row['cycles']:10d}  {row['avg_bw']:13.3f}  {row['peak_bw']:14.3f}"
            f"{marker}"
        )
    if report.estimated:
        logger.info(
            "analytical pruning settled %d of %d point(s) without the engine",
            report.estimated, len(report),
        )
    if report.failed or report.skipped:
        logger.warning("sweep incomplete: %s", report.summary())
        return EXIT_INCOMPLETE
    return 0


def _cmd_resweep(args: argparse.Namespace) -> int:
    """``sweep --ledger DIR --incremental`` spelled as a verb."""
    args.incremental = True
    return _cmd_sweep(args)


def _resilience_measure(
    dead: int,
    layer=None,
    macs: int = 0,
    partitions: int = 16,
    seed: int = 0,
    fault_map=None,
) -> List[dict]:
    """One degradation-sweep point."""
    from repro.experiments.resilience import degradation_sweep

    rows = degradation_sweep(
        layer,
        total_macs=macs,
        partitions=partitions,
        dead_counts=[dead],
        seed=seed,
        fault_map=fault_map,
    )
    # The sweep axis re-adds the dead count to every row.
    return [{k: v for k, v in row.items() if k != "dead"} for row in rows]


def _cmd_resilience(args: argparse.Namespace) -> int:
    """Degraded-mode sweep: runtime/traffic as partitions fail."""
    from repro.sweep import run_sweep_report
    from repro.utils.mathutils import is_power_of_two

    if not is_power_of_two(args.macs):
        raise SystemExit("--macs must be a power of two for the sweep")
    _at_least_one(args.partitions, "--partitions")
    layer = _resolve_layer(args)
    fault_map = _fault_map_from_args(args)
    if fault_map is not None:
        dead_counts = [len(fault_map.dead_partitions)]
    else:
        try:
            dead_counts = [int(k) for k in args.dead.split(",")]
        except ValueError:
            raise SystemExit(f"invalid --dead {args.dead!r}; expected e.g. 0,1,2,4") from None

    _warn_ignored_workers(args)
    rows, report = run_sweep_report(
        functools.partial(
            _resilience_measure,
            layer=layer,
            macs=args.macs,
            partitions=args.partitions,
            seed=args.seed,
            fault_map=fault_map,
        ),
        policy=_robust_policy(args),
        checkpoint=_robust_checkpoint(args),
        dead=dead_counts,
    )
    print(
        f"# layer {layer.name}, {args.macs} MACs over {args.partitions} "
        f"partition(s), seed {args.seed}"
    )
    print("dead  cycles      slowdown  bound       remapped  noc_byte_hops  e_total")
    for row in rows:
        if row.get("status"):
            print(f"{row['dead']:4d}  {row['status']}: {row.get('error', '')}")
            continue
        print(
            f"{row['dead']:4d}  {row['cycles']:10d}  {row['slowdown']:8.4f}  "
            f"{row['bound_cycles']:10d}  {row['remapped_tiles']:8d}  "
            f"{row['noc_byte_hops']:13d}  {row['e_total']}"
        )
    if report.failed or report.skipped:
        logger.warning("sweep incomplete: %s", report.summary())
        return EXIT_INCOMPLETE
    return 0


def _cmd_workloads(_: argparse.Namespace) -> int:
    from repro.workloads.language import TABLE_IV_DIMS
    from repro.workloads.registry import available_workloads

    print("built-in networks: " + ", ".join(available_workloads()))
    print("Table IV layers:   " + ", ".join(sorted(TABLE_IV_DIMS)))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize a recorded trace/metrics file, flight dump, or ledger."""
    from repro.obs.stats import summarize_file

    chosen = [bool(args.file), bool(args.from_flight), bool(args.ledger)]
    if sum(chosen) != 1:
        raise ConfigError(
            "provide exactly one of FILE, --from-flight FILE or --ledger DIR"
        )
    if args.ledger:
        return _stats_ledger(args)
    target = args.from_flight or args.file
    try:
        if args.from_flight:
            doc = obs_flight.load_flight(args.from_flight)
            print(obs_flight.render_flight_summary(doc, top=args.top))
        else:
            print(summarize_file(args.file, top=args.top))
    except FileNotFoundError:
        raise ConfigError(f"no such file: {target}") from None
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return 0


#: ``stats --ledger --group-by KEY,VALUE,AGG`` reductions.
_AGGREGATES = {
    "min": min,
    "max": max,
    "sum": sum,
    "mean": lambda values: sum(values) / len(values),
    "count": len,
}


def _number(value: object) -> Optional[float]:
    """``value`` as a float, or ``None`` for a missing/non-numeric cell."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return None if value != value else float(value)  # NaN is missing too


def _stats_ledger(args: argparse.Namespace) -> int:
    """Entry counts, group-by and pareto front of a sweep ledger's rows."""
    from collections import Counter

    from repro.sweep import SweepLedger

    if not Path(args.ledger).is_dir():
        raise ConfigError(f"no such ledger directory: {args.ledger}")
    ledger = SweepLedger(args.ledger)
    print(f"# ledger {ledger.root}")
    # One directory holds many sweeps, each keyed under its own version.
    entries = Counter(entry.get("version") for entry in ledger)
    completed = Counter(
        entry.get("version") for entry in ledger if entry.get("status") == "ok"
    )
    for version, count in entries.items():
        print(f"version    {version} ({count} entries, {completed[version]} completed)")
    rows = ledger.rows()
    if args.group_by:
        parts = [p.strip() for p in args.group_by.split(",")]
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"--group-by wants KEY,VALUE[,AGG], got {args.group_by!r}"
            )
        agg = parts[2] if len(parts) == 3 else "min"
        if agg not in _AGGREGATES:
            raise ConfigError(
                f"unknown aggregate {agg!r}; pick one of {sorted(_AGGREGATES)}"
            )
        cells: Dict[object, List[float]] = {}
        for row in rows:
            value = _number(row.get(parts[1]))
            if row.get(parts[0]) is not None and value is not None:
                cells.setdefault(row[parts[0]], []).append(value)
        print(f"# {agg}({parts[1]}) by {parts[0]}")
        for group in sorted(cells, key=repr):
            print(f"  {group!r:16}  {_AGGREGATES[agg](cells[group])}")
    if args.pareto:
        from repro.analytical.search import pareto_front

        names = [n.strip() for n in args.pareto.split(",") if n.strip()]
        if not names:
            raise ConfigError("pareto needs at least one objective column")
        candidates = [
            (row, [_number(row.get(name)) for name in names]) for row in rows
        ]
        candidates = [(row, point) for row, point in candidates if None not in point]
        front = (
            pareto_front([point for _, point in candidates]) if candidates else []
        )
        print(f"# pareto front minimizing ({', '.join(names)}): "
              f"{len(front)} row(s)")
        for index in front:
            row = candidates[index][0]
            print("  " + ", ".join(f"{name}={row.get(name)}" for name in names))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Perf-regression sentinel: measure the suite, record or compare."""
    from repro.obs import bench

    names = (
        [name.strip() for name in args.benches.split(",") if name.strip()]
        if args.benches
        else None
    )
    try:
        results = bench.run_suite(names, repeats=args.repeats)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    history_path = Path(args.history)

    if args.action == "record":
        bench.record(history_path, results, note=args.note)
        print(f"# recorded {len(results)} bench(es) to {history_path}")
        for result in results:
            print(
                f"{result.name:16s} {result.wall_time_s:9.4f}s  "
                f"{len(result.counters)} counter(s)"
            )
        return 0

    try:
        history = bench.load_history(history_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = bench.compare(
        history,
        results,
        threshold=args.threshold,
        window=args.window,
        noise_floor_s=args.noise_floor,
        inject_slowdown=args.inject_slowdown,
    )
    print(f"# bench compare against {history_path} ({len(history)} history entries)")
    print(report.render())
    if args.record and report.ok:
        # only passing runs feed the rolling baseline; a regressed run
        # must not poison the very history that flagged it
        bench.record(history_path, results, note=args.note)
    report.raise_on_regression()
    return 0


#: Environment fallback for ``validate --rel-tol`` (flag wins).
VALIDATE_REL_TOL_ENV = "REPRO_VALIDATE_REL_TOL"


def _validate_rel_tol(args: argparse.Namespace) -> float:
    """Resolve the validation tolerance: flag, then env, then exact 0."""
    if args.rel_tol is not None:
        value, origin = args.rel_tol, "--rel-tol"
    elif os.environ.get(VALIDATE_REL_TOL_ENV):
        raw = os.environ[VALIDATE_REL_TOL_ENV]
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{VALIDATE_REL_TOL_ENV}={raw!r} is not a number"
            ) from None
        origin = VALIDATE_REL_TOL_ENV
    else:
        return 0.0
    if not (0.0 <= value < 1.0):
        raise ConfigError(
            f"{origin} must be in [0, 1), got {value}"
        )
    return value


def _cmd_validate(args: argparse.Namespace) -> int:
    """Cross-model validation sweep (the Fig. 4 methodology, randomized)."""
    from repro.golden.validate import validation_sweep

    reports = validation_sweep(
        seed=args.seed, trials=args.trials, rel_tol=_validate_rel_tol(args)
    )
    failures = [report for report in reports if not report.passed]
    for report in reports if args.verbose else failures:
        print(report.describe())
    print(
        f"\n{len(reports) - len(failures)}/{len(reports)} configurations agree "
        "across engine, golden array and Eq. 4"
    )
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Differential verification: fuzz, replay, mutation smoke, baselines."""
    if args.list_props:
        from repro.verify.properties import PROPERTIES

        for name, prop in sorted(PROPERTIES.items()):
            print(f"{name:16} [{prop.kind}] {prop.doc}")
        return 0

    if args.bless:
        from repro.verify.baseline import bless

        paths = bless(
            args.experiments or None,
            reason=args.reason or "",
            baseline_dir=args.baselines,
        )
        for path in paths:
            print(f"blessed {path}")
        return 0

    if args.check_golden:
        from repro.verify.baseline import assert_baselines

        report = assert_baselines(
            args.experiments or None,
            baseline_dir=args.baselines,
            rel_tol=args.golden_rel_tol,
        )
        print(report.summary())
        return 0

    if args.replay:
        from repro.verify.corpus import replay_corpus

        outcomes = replay_corpus(args.corpus)
        live = {name: violations for name, violations in outcomes.items() if violations}
        print(f"replayed {len(outcomes)} regression bundle(s) from {args.corpus}")
        if live:
            for name, violations in sorted(live.items()):
                for violation in violations:
                    print(f"  {name}: {violation.describe()}")
            raise VerificationError(
                f"{len(live)} regression bundle(s) reproduce their defect again"
            )
        return 0

    if args.mutation_smoke:
        from repro.verify.mutation import run_mutation_smoke

        report = run_mutation_smoke(seed=args.seed)
        print(report.summary())
        for name, paths in report.bundles.items():
            for path in paths[:1]:
                print(f"  {name}: shrunk repro at {path}")
        return 0

    from repro.verify.harness import run_verify

    props = [name.strip() for name in (args.props or "").split(",") if name.strip()]
    report = run_verify(
        budget=args.budget,
        seed=args.seed,
        props=props or None,
        max_cases=args.cases,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
    )
    print(report.summary())
    for name, count in sorted(report.checks_by_prop.items()):
        print(f"  {name:16} {count} check(s)")
    if not report.passed:
        bundles = ", ".join(str(path) for path in report.bundles) or "none written"
        raise VerificationError(
            f"{len(report.violations)} verification violation(s); "
            f"regression bundle(s): {bundles}"
        )
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    """Run the scaling-recommendation heuristic on a workload set."""
    from repro.analytical.multiworkload import WorkloadSet
    from repro.analytical.recommend import recommend_configuration
    from repro.config.hardware import Dataflow

    _at_least_one(args.macs, "--macs")
    network = _load_network(args)
    workloads = WorkloadSet(
        name=network.name,
        layers=tuple(network),
        dataflow=Dataflow.from_string(args.dataflow or "os"),
    )
    rec = recommend_configuration(
        workloads,
        args.macs,
        objective=args.objective,
        bandwidth_budget=args.bandwidth,
    )
    print(f"# recommendation for {network.name} at {args.macs} MACs "
          f"(objective: {args.objective})")
    print(f"chosen: {rec.summary()}\n")
    print(f"{'rank':>4s}  {'config':42s} {'cycles':>12s} {'avg_bw':>9s} {'energy':>12s}")
    for rank, score in enumerate(rec.ranking, start=1):
        marker = "  <==" if score.candidate == rec.candidate else ""
        print(
            f"{rank:4d}  {score.candidate.label():42s} {score.runtime:12d} "
            f"{score.avg_bandwidth:9.2f} {score.energy:12.4g}{marker}"
        )
    return 0


def _reproduce_measure(experiment: str):
    """One experiment evaluation."""
    from repro.experiments.registry import run_experiment

    return run_experiment(experiment)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate one of the paper's tables/figures and print its rows."""
    from repro.experiments.registry import available_experiments
    from repro.sweep import run_sweep_report

    if args.list or not args.experiment:
        print("experiments: " + ", ".join(available_experiments()))
        return 0
    name = args.experiment.lower()
    if name not in available_experiments():
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; "
            f"available: {available_experiments()}"
        )
    _warn_ignored_workers(args)
    rows, report = run_sweep_report(
        _reproduce_measure,
        policy=_robust_policy(args),
        checkpoint=_robust_checkpoint(args),
        experiment=[name],
    )
    if report.failed:
        for record in report.failures():
            logger.error(
                "experiment %r failed after %d attempt(s): %s",
                name, record.attempts, record.error,
            )
        return EXIT_FAILURE
    if not rows:
        print(f"# {name}\n(no rows)")
        return 0
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    widths = {
        key: max(len(key), max(len(str(row.get(key, ""))) for row in rows))
        for key in header
    }
    print(f"# {name}")
    print("  ".join(key.ljust(widths[key]) for key in header))
    for row in rows:
        print("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in header))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived simulation daemon until SIGTERM/SIGINT."""
    import signal
    import threading

    from repro.serve.daemon import (
        ServicePolicy,
        SimulationService,
        make_server,
        serve_until_signalled,
    )

    try:
        policy = ServicePolicy(
            workers=args.workers,
            max_queue=args.queue,
            client_quota=args.quota,
            request_timeout=args.request_timeout,
            drain_timeout=args.drain_timeout,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # /metrics exposition needs live counters/histograms regardless of
    # whether a --metrics snapshot sink was requested
    obs.metrics.enable()
    service = SimulationService(policy, ledger=args.ledger)
    server = make_server(
        service, host=args.host, port=args.port, socket_path=args.socket
    )

    def _stop(signum: int, _frame) -> None:
        logger.warning(
            "received %s: draining in-flight jobs and shutting down",
            signal.Signals(signum).name,
        )
        if signum == signal.SIGTERM:
            # a terminated daemon leaves its black box behind (no-op
            # when the flight recorder is not armed)
            obs_flight.dump("SIGTERM: daemon draining")
        # serve_forever() must be unblocked from another thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _stop)
    return serve_until_signalled(server, service)


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one job (or a health probe) to a running daemon."""
    import json as _json

    from repro.serve.client import ServiceClient

    if not args.health:
        if bool(args.request) == bool(args.file):
            raise ServiceError("provide exactly one of --request JSON or --file FILE")
        try:
            text = Path(args.file).read_text() if args.file else args.request
            request = _json.loads(text)
        except OSError as exc:
            raise ServiceError(f"cannot read request file: {exc}") from exc
        except _json.JSONDecodeError as exc:
            raise ServiceError(f"request is not valid JSON: {exc}") from exc
    with ServiceClient(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        client_id=args.client,
        timeout=args.http_timeout,
    ) as client:
        if args.health:
            body = client.health()
        else:
            body = client.submit(request, max_retries=args.wait)
    print(_json.dumps(body, indent=2, default=repr))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalesim-repro",
        description="SCALE-Sim reproduction: systolic DNN accelerator simulator",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record a Chrome trace-event / Perfetto JSON timeline to FILE",
    )
    parser.add_argument(
        "--metrics", metavar="FILE",
        help="write a counters/gauges/histograms snapshot JSON to FILE",
    )
    parser.add_argument(
        "--events", metavar="FILE",
        help="append a JSONL structured event log to FILE",
    )
    parser.add_argument(
        "--flight", metavar="DIR",
        help="arm the crash flight recorder: on infrastructure failures "
             "(exit codes >= 10), unhandled exceptions, or daemon SIGTERM, "
             "dump recent spans/logs/metrics atomically to "
             "DIR/flight-<pid>-<ns>.json (also via $"
             f"{obs_flight.FLIGHT_DIR_ENV})",
    )
    parser.add_argument(
        "--no-cache", dest="no_cache", action="store_true",
        help="disable the in-process simulation result cache",
    )
    parser.add_argument(
        "--store", metavar="DIR",
        help="deprecated and ignored: simulation results are not persisted",
    )
    parser.add_argument(
        "--no-store", dest="no_store", action="store_true",
        help="deprecated and ignored: simulation results are not persisted",
    )
    parser.add_argument(
        "--log-level", dest="log_level",
        choices=["debug", "info", "warning", "error"],
        help="threshold for the repro.* logger hierarchy (stderr)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", dest="verbosity", default=0,
        help="increase log verbosity (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="cycle-accurate simulation of a topology")
    run.add_argument("-c", "--config", help="SCALE-Sim INI config file")
    run.add_argument("-t", "--topology", help="Table II topology CSV")
    run.add_argument("--workload", help="built-in workload or Table IV layer name")
    run.add_argument("--array", help="array shape, e.g. 32x32")
    run.add_argument("--partitions", help="partition grid, e.g. 4x4")
    run.add_argument("--dataflow", choices=["os", "ws", "is"])
    run.add_argument("--batch", type=int, default=1, help="batch size (default 1)")
    run.add_argument(
        "--loop-order", choices=["row", "col"], default="row",
        help="fold iteration order (affects DRAM traffic only)",
    )
    run.add_argument(
        "--faults", metavar="SPEC",
        help="fault-map spec, e.g. 'pe_row:3;partition:1,2;link:0,0-0,1'",
    )
    run.add_argument(
        "--fault-map", dest="fault_map", metavar="FILE",
        help="JSON fault-map file (see docs/robustness.md)",
    )
    run.add_argument("-o", "--outdir", help="directory for report CSVs")
    run.set_defaults(func=_cmd_run)

    analyze = sub.add_parser("analyze", help="closed-form runtime/traffic estimates")
    analyze.add_argument("-c", "--config", help="SCALE-Sim INI config file")
    analyze.add_argument("-t", "--topology", help="Table II topology CSV")
    analyze.add_argument("--workload", help="built-in workload or Table IV layer name")
    analyze.add_argument("--array", help="array shape, e.g. 32x32")
    analyze.add_argument("--dataflow", choices=["os", "ws", "is"])
    analyze.set_defaults(func=_cmd_analyze, partitions=None)

    dram = sub.add_parser("dram", help="replay DRAM schedule through the device model")
    dram.add_argument("-c", "--config", help="SCALE-Sim INI config file")
    dram.add_argument("-t", "--topology", help="Table II topology CSV")
    dram.add_argument("--workload", help="built-in workload or Table IV layer name")
    dram.add_argument("--array", help="array shape, e.g. 16x16")
    dram.add_argument("--dataflow", choices=["os", "ws", "is"])
    dram.add_argument("--channels", type=int, default=1, help="DRAM channels")
    dram.set_defaults(func=_cmd_dram, partitions=None)

    search = sub.add_parser("search", help="Sec. IV-B multi-workload optimization")
    search.add_argument("--topology", help="Table II topology CSV")
    search.add_argument("--workload", help="built-in workload name")
    search.add_argument("--macs", type=int, required=True, help="total MAC budget")
    search.add_argument("--scaleout", action="store_true", help="search partitioned configs")
    search.add_argument("--dataflow", choices=["os", "ws", "is"])
    search.set_defaults(func=_cmd_search)

    sweep = sub.add_parser("sweep", help="Fig. 11-style partition sweep for one layer")
    sweep.add_argument("--layer", required=True, help="layer name (e.g. TF0, CB2a_3)")
    sweep.add_argument("--workload", help="network containing --layer (default resnet50)")
    sweep.add_argument("--macs", type=int, required=True)
    sweep.add_argument("--partitions", help="comma-separated partition counts")
    sweep.add_argument(
        "--top-k", dest="top_k", type=int, metavar="K",
        help="prune: simulate only the K analytically fastest points "
             "(plus the --prune-band); the rest settle analytically",
    )
    sweep.add_argument(
        "--prune-band", dest="prune_band", type=float, metavar="FRAC",
        help="prune: also simulate every point within FRAC of the "
             "analytical optimum (default 0.25 when pruning is on)",
    )
    sweep.add_argument(
        "--exact", action="store_true",
        help="simulate every point (escape hatch; ignores pruning flags)",
    )
    sweep.add_argument(
        "--ledger", metavar="DIR",
        help="sweep ledger directory: every finished point is appended, "
             "fsynced and checksummed, to DIR/journal.jsonl "
             "(see docs/robustness.md)",
    )
    sweep.add_argument(
        "--incremental", action="store_true",
        help="with --ledger: reuse completed ledger points and simulate "
             "only new, changed or damaged ones",
    )
    _add_robust_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    resweep = sub.add_parser(
        "resweep",
        help="incremental re-run of a ledgered sweep: only new/invalidated "
             "points simulate",
    )
    resweep.add_argument("--layer", required=True, help="layer name (e.g. TF0, CB2a_3)")
    resweep.add_argument("--workload", help="network containing --layer (default resnet50)")
    resweep.add_argument("--macs", type=int, required=True)
    resweep.add_argument("--partitions", help="comma-separated partition counts")
    resweep.add_argument(
        "--top-k", dest="top_k", type=int, metavar="K",
        help="prune: simulate only the K analytically fastest points "
             "(plus the --prune-band); the rest settle analytically",
    )
    resweep.add_argument(
        "--prune-band", dest="prune_band", type=float, metavar="FRAC",
        help="prune: also simulate every point within FRAC of the "
             "analytical optimum (default 0.25 when pruning is on)",
    )
    resweep.add_argument(
        "--exact", action="store_true",
        help="simulate every point (escape hatch; ignores pruning flags)",
    )
    resweep.add_argument(
        "--ledger", metavar="DIR", required=True,
        help="the sweep ledger directory to diff the grid against",
    )
    _add_robust_flags(resweep)
    resweep.set_defaults(func=_cmd_resweep)

    resilience = sub.add_parser(
        "resilience", help="degraded-mode sweep: runtime as partitions fail"
    )
    resilience.add_argument("--layer", required=True, help="layer name (e.g. TF0, CB2a_3)")
    resilience.add_argument("--workload", help="network containing --layer (default resnet50)")
    resilience.add_argument("--macs", type=int, required=True, help="total MAC budget")
    resilience.add_argument(
        "--partitions", type=int, default=16,
        help="partition count of the healthy grid (default 16)",
    )
    resilience.add_argument(
        "--dead", default="0,1,2,4",
        help="comma-separated dead-partition counts (default 0,1,2,4)",
    )
    resilience.add_argument("--seed", type=int, default=0,
                            help="seed for drawing which partitions die")
    resilience.add_argument(
        "--faults", metavar="SPEC",
        help="run exactly this fault scenario instead of --dead/--seed draws",
    )
    resilience.add_argument(
        "--fault-map", dest="fault_map", metavar="FILE",
        help="JSON fault-map file (see docs/robustness.md)",
    )
    _add_robust_flags(resilience)
    resilience.set_defaults(func=_cmd_resilience)

    listing = sub.add_parser("workloads", help="list built-in workloads")
    listing.set_defaults(func=_cmd_workloads)

    validate = sub.add_parser("validate", help="cross-model cycle validation sweep")
    validate.add_argument("--trials", type=int, default=10, help="trials per dataflow")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("-v", "--verbose", action="store_true",
                          help="print every comparison, not just failures")
    validate.add_argument("--rel-tol", type=float, dest="rel_tol", default=None,
                          metavar="TOL",
                          help="relative tolerance for the cross-model "
                               "comparisons (default: $"
                               f"{VALIDATE_REL_TOL_ENV} or exact)")
    validate.set_defaults(func=_cmd_validate)

    verify = sub.add_parser(
        "verify",
        help="differential verification: fuzz, shrink, regressions, baselines",
    )
    verify.add_argument("--budget", type=float, default=30.0, metavar="SECONDS",
                        help="wall-clock fuzzing budget (default 30)")
    verify.add_argument("--cases", type=int, default=None, metavar="N",
                        help="cap on generated cases (default: budget-bound)")
    verify.add_argument("--seed", type=int, default=0,
                        help="generator seed; (seed, index) replays any case")
    verify.add_argument("--props", metavar="NAMES",
                        help="comma-separated property names (see --list-props)")
    verify.add_argument("--corpus", default="tests/regressions", metavar="DIR",
                        help="regression-bundle corpus directory "
                             "(default tests/regressions)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing violations before bundling")
    verify.add_argument("--replay", action="store_true",
                        help="replay the regression corpus instead of fuzzing")
    verify.add_argument("--mutation-smoke", action="store_true",
                        dest="mutation_smoke",
                        help="prove the harness catches seeded defects")
    verify.add_argument("--check-golden", action="store_true",
                        dest="check_golden",
                        help="diff blessed golden baselines against fresh runs")
    verify.add_argument("--bless", action="store_true",
                        help="freeze current experiment rows as blessed "
                             "baselines (requires --reason)")
    verify.add_argument("--reason", metavar="TEXT",
                        help="justification recorded inside blessed baselines")
    verify.add_argument("--baselines", default="baselines", metavar="DIR",
                        help="blessed-baseline directory (default baselines)")
    verify.add_argument("--rel-tol", type=float, dest="golden_rel_tol",
                        default=0.0, metavar="TOL",
                        help="relative tolerance for --check-golden (default exact)")
    verify.add_argument("--list-props", action="store_true", dest="list_props",
                        help="list the property registry and exit")
    verify.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiment ids for --bless/--check-golden "
                             "(default: all)")
    verify.set_defaults(func=_cmd_verify)

    recommend = sub.add_parser("recommend", help="heuristic scaling recommendation")
    recommend.add_argument("--topology", help="Table II topology CSV")
    recommend.add_argument("--workload", help="built-in workload name")
    recommend.add_argument("--macs", type=int, required=True, help="total MAC budget")
    recommend.add_argument("--objective", choices=["runtime", "energy", "edp"],
                           default="runtime")
    recommend.add_argument("--bandwidth", type=float,
                           help="DRAM bandwidth budget in bytes/cycle")
    recommend.add_argument("--dataflow", choices=["os", "ws", "is"])
    recommend.set_defaults(func=_cmd_recommend)

    reproduce = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    reproduce.add_argument("experiment", nargs="?", help="experiment id, e.g. fig11def")
    reproduce.add_argument("--list", action="store_true", help="list experiment ids")
    _add_robust_flags(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    stats = sub.add_parser(
        "stats", help="summarize a recorded --trace/--metrics file or flight dump"
    )
    stats.add_argument("file", nargs="?",
                       help="trace JSON or metrics JSON to summarize")
    stats.add_argument(
        "--from-flight", dest="from_flight", metavar="FILE",
        help="summarize a crash flight-recorder dump instead "
             "(crash header, top spans, metrics, log tail)",
    )
    stats.add_argument(
        "--top", type=int, default=10,
        help="number of spans/histograms to show (default 10)",
    )
    stats.add_argument(
        "--ledger", metavar="DIR",
        help="summarize a sweep ledger directory instead (entry "
             "counts, plus --group-by and --pareto over its rows)",
    )
    stats.add_argument(
        "--group-by", dest="group_by", metavar="KEY,VALUE[,AGG]",
        help="with --ledger: aggregate VALUE per distinct KEY over the "
             "completed rows (AGG: min/max/mean/sum/count; default min)",
    )
    stats.add_argument(
        "--pareto", metavar="COLS",
        help="with --ledger: print the pareto front minimizing the "
             "comma-separated columns",
    )
    stats.set_defaults(func=_cmd_stats)

    bench = sub.add_parser(
        "bench", help="perf-regression sentinel: record or compare the bench suite"
    )
    bench.add_argument("action", choices=["record", "compare"],
                       help="record: append this run to the history; "
                            "compare: judge this run against the rolling baseline")
    bench.add_argument("--history", default=str(DEFAULT_HISTORY), metavar="FILE",
                       help=f"durable JSONL bench history (default {DEFAULT_HISTORY})")
    bench.add_argument("--benches", metavar="NAMES",
                       help="comma-separated bench names (default: whole suite)")
    bench.add_argument("--repeats", type=int, default=3, metavar="N",
                       help="repetitions per bench; min wall time wins (default 3)")
    bench.add_argument("--note", metavar="TEXT",
                       help="annotation stored in the recorded history entry")
    bench.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                       metavar="T",
                       help="relative wall-time regression tolerated "
                            f"(default {DEFAULT_THRESHOLD})")
    bench.add_argument("--window", type=int, default=DEFAULT_WINDOW, metavar="N",
                       help="rolling-baseline window: median of the last N "
                            f"history entries (default {DEFAULT_WINDOW})")
    bench.add_argument("--noise-floor", type=float, dest="noise_floor",
                       default=NOISE_FLOOR_S, metavar="SECONDS",
                       help="absolute wall-time slack below which relative "
                            f"regressions are ignored (default {NOISE_FLOOR_S})")
    bench.add_argument("--inject-slowdown", type=float, dest="inject_slowdown",
                       default=0.0, metavar="FRACTION",
                       help="scale measured wall times by 1+FRACTION — a "
                            "self-test hook proving the sentinel trips")
    bench.add_argument("--record", action="store_true",
                       help="after a passing compare, append this run to the "
                            "history (regressed runs are never recorded)")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the long-lived simulation daemon (see docs/service.md)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8787, help="TCP port (default 8787)")
    serve.add_argument("--socket", metavar="PATH",
                       help="serve on a unix domain socket instead of TCP")
    serve.add_argument("--workers", type=int, default=2,
                       help="jobs that execute at once; the rest wait for a "
                            "slot (default 2)")
    serve.add_argument("--queue", type=int, default=8,
                       help="jobs that may wait beyond the running ones before "
                            "429 back-pressure (default 8)")
    serve.add_argument("--quota", type=int, default=4,
                       help="max in-flight requests per client id (default 4)")
    serve.add_argument("--request-timeout", type=float, dest="request_timeout",
                       metavar="SECONDS", help="per-job wall-clock budget")
    serve.add_argument("--drain-timeout", type=float, dest="drain_timeout",
                       default=30.0, metavar="SECONDS",
                       help="SIGTERM drain budget for in-flight jobs (default 30)")
    serve.add_argument("--ledger", metavar="DIR",
                       help="journal sweep jobs into this sweep ledger "
                            "directory and reuse completed points across "
                            "requests")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one job to a running daemon and print the result"
    )
    submit.add_argument("--host", default="127.0.0.1", help="daemon address")
    submit.add_argument("--port", type=int, default=8787, help="daemon TCP port")
    submit.add_argument("--socket", metavar="PATH", help="daemon unix socket path")
    submit.add_argument("--client", default="anonymous",
                        help="client id for quota accounting")
    submit.add_argument("--request", metavar="JSON",
                        help="inline job request, e.g. "
                             '\'{"kind":"gemm","m":64,"k":32,"n":48}\'')
    submit.add_argument("--file", metavar="FILE", help="read the job request from FILE")
    submit.add_argument("--wait", type=int, default=0, metavar="N",
                        help="retry back-pressured submissions up to N times, "
                             "honouring the daemon's Retry-After (default 0)")
    submit.add_argument("--health", action="store_true",
                        help="print the daemon's /health snapshot and exit")
    submit.add_argument("--http-timeout", type=float, dest="http_timeout",
                        default=300.0, help="HTTP response timeout (default 300s)")
    submit.set_defaults(func=_cmd_submit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, verbosity=args.verbosity)
    if args.no_cache:
        from repro.perf.cache import cache

        cache.disable()
    _warn_ignored_store(args)
    sinks_requested = bool(args.trace or args.metrics or args.events)
    if sinks_requested:
        vector = list(argv) if argv is not None else list(sys.argv[1:])
        obs.configure(
            trace_path=args.trace,
            metrics_path=args.metrics,
            events_path=args.events,
            config_digest=obs.config_hash({"argv": vector}),
            extra_metadata={"command": args.command},
        )
    flight_dir = Path(args.flight) if args.flight else obs_flight.flight_dir_from_env()
    if flight_dir is not None:
        if not sinks_requested:
            # arming enables the tracer, but nothing will ever drain its
            # buffer without a --trace sink; bound it so a long-lived
            # process stays flat on memory (a postmortem only needs the
            # recent past anyway)
            obs.trace.limit_records(obs_flight.SPAN_RING_CAPACITY)
        obs_flight.arm(flight_dir, obs.trace, obs.metrics)
    rc = EXIT_FAILURE
    reason: Optional[str] = None
    try:
        rc = args.func(args)
        return rc
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        reason = f"{type(exc).__name__}: {exc}"
        rc = exit_code_for(exc)
        return rc
    except KeyboardInterrupt:
        # Ctrl-C: completed points are already journalled line by
        # line, so --resume still works.
        print("error: interrupted", file=sys.stderr)
        reason = "interrupted (SIGINT)"
        rc = EXIT_INCOMPLETE
        return rc
    except BrokenPipeError:
        # `repro ... | head` closed stdout early; not an error.  Point
        # stdout at devnull so the interpreter's shutdown flush does not
        # print a second traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        rc = 0
        return 0
    finally:
        # Codes >= 10 are infrastructure failures (storage, service,
        # incomplete sweeps, ...): exactly the crashes a
        # postmortem needs the recent telemetry for.
        if flight_dir is not None and rc >= 10:
            dump_path = obs_flight.dump(reason or f"exit code {rc}", exit_code=rc)
            if dump_path is not None:
                print(f"flight recorder dump: {dump_path}", file=sys.stderr)
        if sinks_requested:
            for path in obs.flush():
                logger.info("wrote %s", path)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
