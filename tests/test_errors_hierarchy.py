"""The error hierarchy: every subclass is raised from its documented site.

Each case triggers one :mod:`repro.errors` class through the public API
path its docstring documents, so ``except ReproError`` remains a true
catch-all for library failures and each class keeps a live raise site.
"""

import pytest

import repro.errors as errors_module
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    DramError,
    ExecutionError,
    InstrumentKindError,
    InvariantError,
    MappingError,
    PerfRegressionError,
    PointTimeoutError,
    ReproError,
    ResilienceError,
    SearchError,
    ServiceError,
    ServiceUnavailableError,
    SimulationError,
    StorageError,
    SweepError,
    TopologyError,
    VerificationError,
)


def _raise_config_error():
    from repro.config.hardware import Dataflow

    Dataflow.from_string("bogus")


def _raise_topology_error():
    from repro.topology.parser import parse_topology_text

    parse_topology_text("")


def _raise_mapping_error():
    from repro.dataflow.factory import engine_for_gemm

    engine_for_gemm(8, 8, 8, "not-a-dataflow", 8, 8)


def _raise_simulation_error():
    from repro.config.presets import paper_scaling_config
    from repro.engine.simulator import Simulator

    Simulator(paper_scaling_config(8, 8, 2, 2))  # partitioned config


def _raise_search_error():
    from repro.analytical.multiworkload import WorkloadSet
    from repro.config.hardware import Dataflow

    WorkloadSet(name="empty", layers=(), dataflow=Dataflow.OUTPUT_STATIONARY)


def _raise_dram_error():
    from repro.dram.simulator import DramSimulator
    from repro.dram.timing import DramTiming

    DramSimulator(DramTiming()).run([])


def _raise_point_timeout_error():
    import time

    from repro.robust.executor import execute_point
    from repro.robust.policy import ExecutionPolicy

    record = execute_point(
        lambda: time.sleep(0.8), {}, policy=ExecutionPolicy(timeout=0.05)
    )
    raise record.exception


def _raise_circuit_open_error():
    from repro.robust.executor import execute_grid
    from repro.robust.policy import ExecutionPolicy

    def always(**_):
        raise RuntimeError("down")

    report = execute_grid(
        always,
        [{"a": 1}, {"a": 2}],
        policy=ExecutionPolicy(mode="collect", max_failures=1),
    )
    report.ensure_complete()


def _raise_checkpoint_error():
    from repro.robust.checkpoint import CheckpointStore

    CheckpointStore(__file__, resume=False)  # exists and not resuming


def _raise_invariant_error():
    import dataclasses

    from repro.config.hardware import HardwareConfig
    from repro.engine.simulator import Simulator
    from repro.robust.invariants import check_cycles
    from repro.topology.layer import GemmLayer

    config = HardwareConfig(array_rows=8, array_cols=8)
    layer = GemmLayer("g", m=16, k=8, n=16)
    result = Simulator(config).run_layer(layer)
    check_cycles(
        dataclasses.replace(result, total_cycles=result.total_cycles + 100),
        layer,
        config,
    )


def _raise_resilience_error():
    from repro.resilience.faultmap import FaultMap

    FaultMap.from_spec("partition:not-a-coord")


def _raise_storage_error():
    import tempfile
    from pathlib import Path

    from repro.utils.atomicio import atomic_write_text

    with tempfile.TemporaryDirectory() as tmp:
        atomic_write_text(Path(tmp) / "missing" / "entry.json", "{}")


def _raise_sweep_error():
    from repro.sweep import grid_points

    grid_points(macs=4096)  # scalar where a sequence axis is required


def _raise_service_error():
    from repro.serve.jobs import normalize_request

    normalize_request({"kind": "teleport"})


def _raise_verification_error():
    from repro.verify.properties import resolve_properties

    resolve_properties(["no-such-property"])


def _raise_service_unavailable_error():
    import threading

    from repro.serve.client import ServiceClient
    from repro.serve.daemon import ServicePolicy, SimulationService, make_server

    # A draining daemon answers 503; with no retries left the client
    # surfaces it as ServiceUnavailableError.
    service = SimulationService(ServicePolicy(workers=1))
    service.drain(timeout=0.0)
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(host="127.0.0.1", port=server.server_address[1])
        client.submit({"kind": "gemm", "m": 8, "k": 8, "n": 8})
    finally:
        server.shutdown()
        server.server_close()


def _raise_instrument_kind_error():
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.enable()
    registry.gauge("obs.shadowed")
    registry.counter("obs.shadowed")  # same name, different kind


def _raise_perf_regression_error():
    from repro.obs.bench import BenchResult, compare

    history = [{"schema": "repro.bench/1",
                "benches": {"gemm_256": {"wall_time_s": 1.0, "counters": {}}}}]
    compare(history, [BenchResult("gemm_256", 2.0)]).raise_on_regression()


DOCUMENTED_SITES = {
    ConfigError: _raise_config_error,
    TopologyError: _raise_topology_error,
    MappingError: _raise_mapping_error,
    SimulationError: _raise_simulation_error,
    SearchError: _raise_search_error,
    DramError: _raise_dram_error,
    PointTimeoutError: _raise_point_timeout_error,
    CircuitOpenError: _raise_circuit_open_error,
    CheckpointError: _raise_checkpoint_error,
    InvariantError: _raise_invariant_error,
    ResilienceError: _raise_resilience_error,
    SweepError: _raise_sweep_error,
    StorageError: _raise_storage_error,
    ServiceError: _raise_service_error,
    ServiceUnavailableError: _raise_service_unavailable_error,
    VerificationError: _raise_verification_error,
    InstrumentKindError: _raise_instrument_kind_error,
    PerfRegressionError: _raise_perf_regression_error,
}


def _leaf_error_classes():
    """Every concrete ReproError subclass defined in repro.errors,
    except bases that exist purely to be subclassed."""
    classes = [
        obj
        for obj in vars(errors_module).values()
        if isinstance(obj, type)
        and issubclass(obj, ReproError)
        and obj is not ReproError
        and obj is not ExecutionError  # abstract-ish base for timeout/circuit
    ]
    return sorted(classes, key=lambda cls: cls.__name__)


class TestHierarchy:
    def test_every_class_derives_from_repro_error(self):
        for cls in _leaf_error_classes():
            assert issubclass(cls, ReproError)

    def test_execution_errors_share_a_base(self):
        assert issubclass(PointTimeoutError, ExecutionError)
        assert issubclass(CircuitOpenError, ExecutionError)

    def test_every_leaf_class_has_a_documented_site(self):
        missing = [
            cls.__name__ for cls in _leaf_error_classes() if cls not in DOCUMENTED_SITES
        ]
        assert not missing, f"error classes without a tested raise site: {missing}"

    @pytest.mark.parametrize(
        "error_class",
        sorted(DOCUMENTED_SITES, key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_raised_from_documented_site(self, error_class):
        with pytest.raises(error_class):
            DOCUMENTED_SITES[error_class]()

    @pytest.mark.parametrize(
        "error_class",
        sorted(DOCUMENTED_SITES, key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_catchable_as_repro_error(self, error_class):
        with pytest.raises(ReproError):
            DOCUMENTED_SITES[error_class]()
