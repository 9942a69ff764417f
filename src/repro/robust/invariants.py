"""Invariant guards: cross-check simulator output against the models.

The cycle-accurate engine, the per-cycle demand arrays and the
closed-form analytical model (paper Eq. 1-6) describe the *same*
execution at different fidelities, so they must agree.  These guards
make that agreement an enforced runtime property instead of a test-time
hope: a corrupted result (bit flip, bad aggregation, fault injection)
is caught at the point it is produced and surfaced as
:class:`~repro.errors.InvariantError` carrying both the measured and
the predicted value.

Two independent checks:

* **Cycle agreement** — the engine's ``total_cycles`` must equal the
  exact fold-by-fold analytical prediction (Eq. 3 summed over the fold
  grid; Eq. 5/6 tiling for partitioned configs) within a relative
  tolerance (default: exact).
* **Trace conservation** — the engine's SRAM element counts must equal
  the totals of its per-cycle demand arrays: reads/writes can neither
  appear nor vanish between the two views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config.hardware import HardwareConfig
from repro.errors import InvariantError
from repro.mapping.dims import map_layer
from repro.obs import metrics, trace
from repro.topology.layer import Layer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dataflow.base import DataflowEngine, SramCounts
    from repro.engine.results import LayerResult


def _checked(kind: str) -> None:
    """Account one executed guard check."""
    if metrics.enabled:
        metrics.counter("invariant.checks").add()
        metrics.counter(f"invariant.checks.{kind}").add()


def _violation(kind: str, message: str, **attrs: object) -> "InvariantError":
    """Account one guard failure and build the error to raise."""
    metrics.counter("invariant.failures").add()
    trace.event("invariant.violation", kind=kind, **attrs)
    return InvariantError(message)


def expected_cycles(layer: Layer, config: HardwareConfig) -> int:
    """Exact analytical runtime of ``layer`` on ``config`` (Eq. 1-6).

    Unlike :func:`repro.analytical.runtime.scaleup_runtime`, which
    charges every fold the full-array latency, this accounts for edge
    folds exactly, so it must *equal* the cycle-accurate engine — any
    divergence is a bug or a corrupted result, not model error.

    Degraded configs (a :class:`~repro.resilience.faultmap.FaultMap` on the
    config) are predicted through the same deterministic remap plan the
    scale-out engine executes, so exactness holds there too.  On a
    healthy grid the plan's slowest survivor is the ceil-sized tile of
    Eq. 5/6, recovering the original prediction.
    """
    from repro.resilience.remap import predict_layer_cycles

    mapping = map_layer(layer, config.dataflow)
    return predict_layer_cycles(mapping, config)


def check_cycles(
    result: "LayerResult",
    layer: Layer,
    config: HardwareConfig,
    rel_tol: float = 0.0,
) -> None:
    """Raise :class:`InvariantError` unless cycle counts agree.

    The message carries both values so the divergence is diagnosable
    from the exception alone.
    """
    _checked("cycles")
    predicted = expected_cycles(layer, config)
    measured = result.total_cycles
    if predicted <= 0:
        raise _violation(
            "cycles", f"layer {layer.name!r}: analytical model predicts "
            f"{predicted} cycles", layer=layer.name,
        )
    divergence = abs(measured - predicted) / predicted
    if divergence > rel_tol:
        raise _violation(
            "cycles",
            f"layer {layer.name!r}: cycle-accurate result diverges from the "
            f"analytical model (Eq. 1-6): simulated total_cycles={measured}, "
            f"analytical prediction={predicted} "
            f"(relative divergence {divergence:.4%}, tolerance {rel_tol:.4%})",
            layer=layer.name,
            measured=measured,
            predicted=predicted,
        )


def check_macs(result: "LayerResult", layer: Layer, config: HardwareConfig) -> None:
    """The aggregated MAC count must equal the layer's workload exactly."""
    _checked("macs")
    mapping = map_layer(layer, config.dataflow)
    predicted = mapping.sr * mapping.sc * mapping.t
    if result.macs != predicted:
        raise _violation(
            "macs",
            f"layer {layer.name!r}: simulated macs={result.macs} but the "
            f"mapped workload is S_R*S_C*T={predicted}",
            layer=layer.name,
            measured=result.macs,
            predicted=predicted,
        )


def check_trace_conservation(engine: "DataflowEngine") -> None:
    """Raise unless SRAM counts equal the demand-model totals.

    Sums the engine's exact per-cycle demand arrays over every fold and
    compares against :meth:`layer_counts` — the two views of the same
    execution must conserve every read and write.
    """
    _checked("trace_conservation")
    counts = engine.layer_counts()
    ifmap = filter_ = ofmap = 0
    for fold in engine.plan.folds():
        demand = engine.fold_demand(fold)
        ifmap += int(demand.ifmap_reads.sum())
        filter_ += int(demand.filter_reads.sum())
        ofmap += int(demand.ofmap_writes.sum())
    mismatches = [
        f"{stream} trace total={traced} vs demand-model total={demanded}"
        for stream, traced, demanded in (
            ("ifmap_reads", counts.ifmap_reads, ifmap),
            ("filter_reads", counts.filter_reads, filter_),
            ("ofmap_writes", counts.ofmap_writes, ofmap),
        )
        if traced != demanded
    ]
    if mismatches:
        raise _violation(
            "trace_conservation",
            "SRAM traffic not conserved between count and demand views: "
            + "; ".join(mismatches),
        )


def check_layer_result(
    result: "LayerResult",
    layer: Layer,
    config: HardwareConfig,
    rel_tol: float = 0.0,
) -> "LayerResult":
    """Run every result-level guard; returns ``result`` for chaining."""
    check_cycles(result, layer, config, rel_tol=rel_tol)
    check_macs(result, layer, config)
    _checked("utilization")
    if not 0.0 < result.mapping_utilization <= 1.0 + 1e-9:
        raise _violation(
            "utilization",
            f"layer {layer.name!r}: mapping_utilization="
            f"{result.mapping_utilization} outside (0, 1]",
            layer=layer.name,
        )
    if result.compute_utilization > 1.0 + 1e-9:
        raise _violation(
            "utilization",
            f"layer {layer.name!r}: compute_utilization="
            f"{result.compute_utilization} exceeds 1",
            layer=layer.name,
        )
    return result
