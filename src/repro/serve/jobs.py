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
semantically identical requests; the daemon's single-flight table
dedups on that property.

Sweep jobs run the same partition sweep as the CLI ``sweep``
subcommand, :func:`repro.sweep.sweep_measure`.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Tuple

from repro.config.hardware import Dataflow
from repro.config.presets import paper_scaling_config
from repro.errors import ReproError, ServiceError
from repro.obs.export import config_hash
from repro.sweep import run_sweep_report, sweep_ledger_version, sweep_measure
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
