"""Job vocabulary of the simulation service: validate, key, execute.

A *job* is one JSON request a client submits to the daemon (or runs
inline through the same code path).  Three kinds cover the paper's
methodology:

* ``gemm`` — one bare GEMM on one array (``m``/``k``/``n``/``array``/
  ``dataflow``).
* ``run`` — a whole built-in workload or Table IV layer on one config
  (``workload``/``array``/``partitions``/``dataflow``/``batch``).
* ``sweep`` — the Fig. 11 partition sweep for one layer
  (``layer``/``macs``/``partitions``/``workload``).

:func:`normalize_request` canonicalizes a request (defaults filled,
unknown fields rejected) so :func:`job_key` — the ``repro.obs`` config
hash of the canonical form plus the package version — is identical for
semantically identical requests; the daemon's single-flight table and
the result store both dedup on that property.

The CLI ``sweep`` subcommand shares :func:`sweep_measure` instead of
keeping its own copy.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Tuple

from repro.config.hardware import Dataflow
from repro.config.presets import paper_scaling_config
from repro.errors import ReproError, ServiceError
from repro.obs.export import config_hash
from repro.utils.mathutils import is_power_of_two
from repro.workloads.language import TABLE_IV_DIMS, language_layer
from repro.workloads.registry import available_workloads, get_workload

JOB_KINDS = ("gemm", "run", "sweep")

#: When set (``repro serve --ledger DIR``), sweep jobs sink their rows
#: into this columnar ledger and reuse completed points across requests.
SWEEP_LEDGER_ENV = "REPRO_SWEEP_LEDGER"

#: One lock per sweep-ledger directory, process-wide like the directory:
#: two sweeps over one ledger would each re-simulate points the other is
#: pricing, so sweep jobs sharing a ledger run one at a time.
_LEDGER_LOCKS: Dict[str, threading.Lock] = {}

#: Request fields accepted per kind (beyond "kind" itself).
_FIELDS = {
    "gemm": {"m", "k", "n", "array", "dataflow"},
    "run": {"workload", "array", "partitions", "dataflow", "batch"},
    "sweep": {"layer", "workload", "macs", "partitions"},
}


def square_grid(count: int) -> Tuple[int, int]:
    """Most-square power-of-two factorization of ``count``."""
    rows = 1
    while rows * rows < count:
        rows <<= 1
    return (count // rows, rows) if count % rows == 0 else (1, count)


def sweep_ledger_version(layer: str, workload: str, macs: int) -> str:
    """Ledger version string scoping sweep points to one simulation key.

    The sweep grid's per-point parameters are just ``partitions``;
    alone they would collide across layers in a shared ledger, so the
    rest of the simulation key rides in the version string — changing
    the layer, workload, macs budget or package version invalidates
    reuse exactly the way a code upgrade invalidates a checkpoint.
    """
    from repro._version import __version__

    return f"{__version__}/sweep layer={layer} workload={workload} macs={macs}"


def sweep_measure(partitions: int, layer=None, macs: int = 0) -> dict:
    """One partition-sweep point."""
    from repro.engine.scaleout import ScaleOutSimulator

    grid = square_grid(partitions)
    shape = square_grid(macs // partitions)
    config = paper_scaling_config(shape[0], shape[1], grid[0], grid[1])
    result = ScaleOutSimulator(config).run_layer(layer)
    return {
        "array": f"{shape[0]}x{shape[1]}",
        "cycles": result.total_cycles,
        "avg_bw": round(result.avg_total_bw, 3),
        "peak_bw": round(result.peak_total_bw, 3),
    }


def sweep_estimate(partitions: int, layer=None, macs: int = 0) -> tuple:
    """Closed-form twin of :func:`sweep_measure` for analytical pruning.

    Returns ``(row, score)`` in the :func:`repro.sweep.run_sweep`
    estimator contract.  ``cycles`` and ``avg_bw`` are *exact* — the
    shape-class decomposition prices each of the <= 4 distinct tile
    GEMMs with the closed-form model the tests pin to the engine —
    while ``peak_bw`` reports the summed per-tile average bandwidth (a
    lower bound; the true per-fold peak needs the engine's fold walk).
    The score is the exact cycle count, the same objective
    :func:`sweep_measure` minimizes.
    """
    from repro.analytical.traffic import estimate_traffic
    from repro.mapping.dims import OperandMapping, map_layer
    from repro.memory.buffers import BufferSet
    from repro.utils.mathutils import split_evenly

    grid = square_grid(partitions)
    shape = square_grid(macs // partitions)
    config = paper_scaling_config(shape[0], shape[1], grid[0], grid[1])
    mapping = map_layer(layer, config.dataflow)
    buffers = BufferSet.from_config(config.partition_config())

    shape_counts: Dict[Tuple[int, int], int] = {}
    for r in split_evenly(mapping.sr, grid[0]):
        for c in split_evenly(mapping.sc, grid[1]):
            if r == 0 or c == 0:
                continue
            shape_counts[(r, c)] = shape_counts.get((r, c), 0) + 1
    cycles = 0
    total_bytes = 0
    peak_proxy = 0.0
    for (r, c), count in shape_counts.items():
        tile = OperandMapping(sr=r, sc=c, t=mapping.t, dataflow=mapping.dataflow)
        estimate = estimate_traffic(
            tile, shape[0], shape[1], buffers, config.word_bytes
        )
        cycles = max(cycles, estimate.total_cycles)
        total_bytes += estimate.total_bytes * count
        peak_proxy += estimate.avg_total_bw * count
    row = {
        "array": f"{shape[0]}x{shape[1]}",
        "cycles": cycles,
        "avg_bw": round(total_bytes / cycles, 3),
        "peak_bw": round(peak_proxy, 3),
    }
    return row, float(cycles)


def _parse_shape(text: object, field: str) -> Tuple[int, int]:
    try:
        rows_text, cols_text = str(text).lower().split("x")
        rows, cols = int(rows_text), int(cols_text)
    except ValueError:
        raise ServiceError(f"invalid {field} {text!r}; expected e.g. 32x32") from None
    if rows < 1 or cols < 1:
        raise ServiceError(f"{field} dimensions must be positive, got {text!r}")
    return rows, cols


def _require_int(request: Dict, field: str, minimum: int = 1) -> int:
    value = request.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ServiceError(f"{field} must be an integer >= {minimum}, got {value!r}")
    return value


def _resolve_layer(name: str, workload: str):
    if name in TABLE_IV_DIMS:
        return language_layer(name)
    network = get_workload(workload)
    if name not in network:
        raise ServiceError(f"unknown layer {name!r} in workload {workload!r}")
    return network[name]


def normalize_request(payload: object) -> Dict:
    """Canonical form of one job request; raises ServiceError if invalid."""
    if not isinstance(payload, dict):
        raise ServiceError(f"request must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise ServiceError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
    unknown = set(payload) - _FIELDS[kind] - {"kind"}
    if unknown:
        raise ServiceError(f"unknown field(s) for {kind} job: {sorted(unknown)}")

    request: Dict = {"kind": kind}
    dataflow = payload.get("dataflow", "os")
    try:
        request["dataflow"] = Dataflow.from_string(dataflow).value
    except ReproError as exc:
        raise ServiceError(str(exc)) from exc

    if kind == "gemm":
        for field in ("m", "k", "n"):
            request[field] = _require_int(payload, field)
        rows, cols = _parse_shape(payload.get("array", "32x32"), "array")
        request["array"] = f"{rows}x{cols}"
    elif kind == "run":
        workload = payload.get("workload")
        if workload not in available_workloads() and workload not in TABLE_IV_DIMS:
            raise ServiceError(
                f"unknown workload {workload!r}; "
                f"available: {available_workloads()} + Table IV layers"
            )
        request["workload"] = workload
        rows, cols = _parse_shape(payload.get("array", "32x32"), "array")
        request["array"] = f"{rows}x{cols}"
        if payload.get("partitions") is not None:
            prows, pcols = _parse_shape(payload["partitions"], "partitions")
            request["partitions"] = f"{prows}x{pcols}"
        if payload.get("batch") is not None:
            request["batch"] = _require_int(payload, "batch")
    else:  # sweep
        layer = payload.get("layer")
        if not isinstance(layer, str) or not layer:
            raise ServiceError("sweep jobs need a layer name")
        request["layer"] = layer
        request["workload"] = payload.get("workload") or "resnet50"
        macs = _require_int(payload, "macs")
        if not is_power_of_two(macs):
            raise ServiceError(f"macs must be a power of two, got {macs}")
        request["macs"] = macs
        partitions = payload.get("partitions")
        if partitions is None:
            partitions = [4**i for i in range(8) if 4**i * 64 <= macs]
        if not isinstance(partitions, (list, tuple)) or not partitions:
            raise ServiceError("partitions must be a non-empty list of counts")
        counts = []
        for count in partitions:
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ServiceError(f"invalid partition count {count!r}")
            if macs % count == 0 and is_power_of_two(macs // count):
                counts.append(count)
        if not counts:
            raise ServiceError(
                f"no partition count in {list(partitions)} divides {macs} "
                "into a power-of-two array"
            )
        request["partitions"] = sorted(set(counts))
        # Resolve eagerly so bad layer names fail at admission, not execution.
        _resolve_layer(layer, request["workload"])
    return request


def job_key(request: Dict) -> str:
    """Content-address one canonical request (version-stamped)."""
    from repro._version import __version__

    return config_hash({"job": request, "version": __version__})


def execute_job(request: Dict) -> Dict:
    """Run one canonical job and return its JSON-safe result body."""
    kind = request["kind"]
    if kind == "gemm":
        return _execute_gemm(request)
    if kind == "run":
        return _execute_run(request)
    return _execute_sweep(request)


def _config_for(request: Dict):
    rows, cols = _parse_shape(request["array"], "array")
    config = paper_scaling_config(rows, cols)
    if request.get("partitions"):
        prows, pcols = _parse_shape(request["partitions"], "partitions")
        config = config.with_partitions(prows, pcols)
    return config.with_dataflow(Dataflow.from_string(request["dataflow"]))


def _execute_gemm(request: Dict) -> Dict:
    from repro.engine.simulator import Simulator

    config = _config_for(request)
    result = Simulator(config).run_gemm(request["m"], request["k"], request["n"])
    return {"rows": [result.as_row()], "total_cycles": result.total_cycles}


def _execute_run(request: Dict) -> Dict:
    from repro.engine.scaleout import ScaleOutSimulator
    from repro.engine.simulator import Simulator
    from repro.topology.network import Network

    name = request["workload"]
    if name in TABLE_IV_DIMS:
        network = Network(name, [language_layer(name)])
    else:
        network = get_workload(name)
    if request.get("batch", 1) > 1:
        network = network.with_batch(request["batch"])
    config = _config_for(request)
    if config.is_monolithic:
        result = Simulator(config).run_network(network)
    else:
        result = ScaleOutSimulator(config).run_network(network)
    return {
        "rows": [layer.as_row() for layer in result],
        "total_cycles": result.total_cycles,
        "config": config.describe(),
    }


def _ledger_lock(ledger_dir: str) -> threading.Lock:
    # dict.setdefault is one atomic step: racing jobs get the same lock.
    return _LEDGER_LOCKS.setdefault(os.path.realpath(ledger_dir), threading.Lock())


def _execute_sweep(request: Dict) -> Dict:
    import functools

    from repro.sweep import run_sweep_report

    layer = _resolve_layer(request["layer"], request["workload"])
    measure = functools.partial(sweep_measure, layer=layer, macs=request["macs"])
    counts = list(request["partitions"])
    ledger_dir = os.environ.get(SWEEP_LEDGER_ENV)
    if not ledger_dir:
        rows, report = run_sweep_report(measure, partitions=counts)
        return {"rows": rows, "points": len(report.records)}

    from repro.store.ledger import SweepLedger

    # Each job opens (and closes) the ledger under its directory lock:
    # reopening keeps the job layer crash-isolated from long-lived
    # daemon state, and the next job sees every point this one sealed.
    version = sweep_ledger_version(
        request["layer"], request["workload"], request["macs"]
    )
    with _ledger_lock(ledger_dir), SweepLedger(ledger_dir, version=version) as ledger:
        diff = ledger.diff_grid([{"partitions": count} for count in counts])
        rows, report = run_sweep_report(
            measure,
            ledger=ledger,
            incremental=True,
            partitions=counts,
        )
    return {
        "rows": rows,
        "points": len(report.records),
        "ledger": {"reused": len(diff.reused), "simulated": len(diff.pending)},
    }
