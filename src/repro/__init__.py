"""repro — a reproduction of SCALE-Sim and its scalability methodology.

Paper: "A Systematic Methodology for Characterizing Scalability of DNN
Accelerators using SCALE-Sim" (Samajdar et al., ISPASS 2020).

The public API re-exports the main entry points of each subsystem:

* Describe hardware with :class:`HardwareConfig` and workloads with
  :class:`ConvLayer` / :class:`GemmLayer` / :class:`Network` (or load
  SCALE-Sim config/topology files).
* Simulate cycle-accurately with :class:`Simulator` (scale-up) or
  :class:`ScaleOutSimulator` (partitioned grids).
* Sweep design spaces with the analytical model
  (:func:`scaleup_runtime`, :func:`best_scaleup`, :func:`best_scaleout`,
  :func:`pareto_search`).
* Estimate energy with :func:`energy_of_result`, validate cycle counts
  against the register-level :func:`golden_gemm`, and replay DRAM
  traces through :class:`DramSimulator`.
"""

from repro.config import (
    Dataflow,
    HardwareConfig,
    load_config,
    paper_scaling_config,
    preset,
)
from repro.topology import (
    ConvLayer,
    GemmLayer,
    Layer,
    Network,
    load_topology,
)
from repro.topology.lowering import TensorAddressLayout
from repro.mapping import OperandMapping, map_layer, map_gemm, plan_folds
from repro.engine import (
    LayerResult,
    RunResult,
    ScaleOutSimulator,
    Simulator,
    StalledRuntime,
    bandwidth_limited_runtime,
    render_report,
    sweet_spot_bandwidth,
    write_report_csv,
)
from repro.engine.scaleout import simulate
from repro.analytical import (
    CandidateConfig,
    Recommendation,
    TrafficEstimate,
    WorkloadSet,
    best_scaleout,
    best_scaleup,
    candidate_costs,
    estimate_traffic,
    fold_runtime,
    pareto_search,
    recommend_configuration,
    scaleout_runtime,
    scaleup_runtime,
    search_space,
    unlimited_runtime,
)
from repro.noc import DegradedMeshNoc, MeshNoc, NocConfig, NocCost, layer_noc_cost
from repro.resilience import (
    FaultMap,
    RemapPlan,
    load_fault_map,
    predict_layer_cycles,
    random_fault_map,
    remap_layer,
)
from repro.analytical.runtime import degraded_scaleout_runtime, degraded_scaleup_runtime
from repro.energy import DEFAULT_ENERGY, EnergyParams, energy_of_result, energy_of_run
from repro.golden import golden_gemm
from repro.dram import DDR4_2400_LIKE, DramAccess, DramSimulator, DramTiming
from repro.workloads import (
    language_layer,
    language_models,
    resnet50,
)
from repro.sweep import pivot_to_csv, run_sweep, run_sweep_report, sweep_to_csv
from repro.robust import (
    CheckpointStore,
    ExecutionPolicy,
    Fault,
    PointRecord,
    RunReport,
    check_layer_result,
    check_trace_conservation,
    execute_grid,
    execute_point,
    inject_faults,
)
from repro.traceanalysis import reuse_profile, stream_stats
from repro.obs import (
    MetricsRegistry,
    ProgressTracker,
    Tracer,
    metrics,
    trace,
)
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    DramError,
    ExecutionError,
    InvariantError,
    LedgerCorruptionError,
    MappingError,
    PointTimeoutError,
    ReproError,
    ResilienceError,
    SearchError,
    SimulationError,
    StorageError,
    SweepError,
    TopologyError,
)
from repro.store.ledger import LedgerDiff, SweepLedger

from repro._version import __version__

__all__ = [
    # configuration
    "Dataflow",
    "HardwareConfig",
    "load_config",
    "paper_scaling_config",
    "preset",
    # topology
    "ConvLayer",
    "GemmLayer",
    "Layer",
    "Network",
    "load_topology",
    # mapping
    "OperandMapping",
    "map_layer",
    "map_gemm",
    "plan_folds",
    "TensorAddressLayout",
    # engines
    "LayerResult",
    "RunResult",
    "Simulator",
    "ScaleOutSimulator",
    "simulate",
    "render_report",
    "write_report_csv",
    # analytical
    "CandidateConfig",
    "WorkloadSet",
    "best_scaleout",
    "best_scaleup",
    "candidate_costs",
    "fold_runtime",
    "pareto_search",
    "scaleout_runtime",
    "scaleup_runtime",
    "search_space",
    "unlimited_runtime",
    "TrafficEstimate",
    "estimate_traffic",
    "Recommendation",
    "recommend_configuration",
    # stalls + noc
    "StalledRuntime",
    "bandwidth_limited_runtime",
    "sweet_spot_bandwidth",
    "DegradedMeshNoc",
    "MeshNoc",
    "NocConfig",
    "NocCost",
    "layer_noc_cost",
    # resilience (degraded-mode simulation)
    "FaultMap",
    "RemapPlan",
    "load_fault_map",
    "predict_layer_cycles",
    "random_fault_map",
    "remap_layer",
    "degraded_scaleout_runtime",
    "degraded_scaleup_runtime",
    # energy
    "DEFAULT_ENERGY",
    "EnergyParams",
    "energy_of_result",
    "energy_of_run",
    # golden + dram
    "golden_gemm",
    "DDR4_2400_LIKE",
    "DramAccess",
    "DramSimulator",
    "DramTiming",
    # workloads
    "language_layer",
    "language_models",
    "resnet50",
    # tooling
    "run_sweep",
    "run_sweep_report",
    "sweep_to_csv",
    "pivot_to_csv",
    "SweepLedger",
    "LedgerDiff",
    "reuse_profile",
    "stream_stats",
    # observability
    "trace",
    "metrics",
    "Tracer",
    "MetricsRegistry",
    "ProgressTracker",
    # robust execution
    "CheckpointStore",
    "ExecutionPolicy",
    "Fault",
    "PointRecord",
    "RunReport",
    "check_layer_result",
    "check_trace_conservation",
    "execute_grid",
    "execute_point",
    "inject_faults",
    # errors
    "ReproError",
    "ConfigError",
    "TopologyError",
    "MappingError",
    "SimulationError",
    "SearchError",
    "DramError",
    "ExecutionError",
    "PointTimeoutError",
    "CircuitOpenError",
    "SweepError",
    "CheckpointError",
    "StorageError",
    "LedgerCorruptionError",
    "InvariantError",
    "ResilienceError",
    "__version__",
]
