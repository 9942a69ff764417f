"""repro — a reproduction of SCALE-Sim and its scalability methodology.

Paper: "A Systematic Methodology for Characterizing Scalability of DNN
Accelerators using SCALE-Sim" (Samajdar et al., ISPASS 2020).

The public API names the main entry points of each subsystem:

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

``import repro`` loads this module only.  Each public name resolves on
first use from the module that defines it (PEP 562), so a process pays
for the subsystems it touches and nothing else.
"""

#: Defining module -> the public names it contributes.
_API = {
    # configuration
    "repro.config.hardware": ("Dataflow", "HardwareConfig"),
    "repro.config.parser": ("load_config",),
    "repro.config.presets": ("paper_scaling_config", "preset"),
    # topology
    "repro.topology.layer": ("ConvLayer", "GemmLayer", "Layer"),
    "repro.topology.network": ("Network",),
    "repro.topology.parser": ("load_topology",),
    "repro.topology.lowering": ("TensorAddressLayout",),
    # mapping
    "repro.mapping.dims": ("OperandMapping", "map_layer", "map_gemm"),
    "repro.mapping.folds": ("plan_folds",),
    # engines
    "repro.engine.results": ("LayerResult", "RunResult"),
    "repro.engine.simulator": ("Simulator",),
    "repro.engine.scaleout": ("ScaleOutSimulator", "simulate"),
    "repro.engine.reports": ("render_report", "write_report_csv"),
    "repro.engine.stalls": (
        "StalledRuntime", "bandwidth_limited_runtime", "sweet_spot_bandwidth",
    ),
    # analytical
    "repro.analytical.search": (
        "CandidateConfig", "best_scaleout", "best_scaleup", "search_space",
    ),
    "repro.analytical.multiworkload": ("WorkloadSet", "candidate_costs", "pareto_search"),
    "repro.analytical.runtime": (
        "fold_runtime", "scaleout_runtime", "scaleup_runtime", "unlimited_runtime",
        "degraded_scaleout_runtime", "degraded_scaleup_runtime",
    ),
    "repro.analytical.traffic": ("TrafficEstimate", "estimate_traffic"),
    "repro.analytical.recommend": ("Recommendation", "recommend_configuration"),
    # noc
    "repro.noc.mesh": ("DegradedMeshNoc", "MeshNoc", "NocConfig"),
    "repro.noc.cost": ("NocCost", "layer_noc_cost"),
    # resilience (degraded-mode simulation)
    "repro.resilience.faultmap": ("FaultMap", "load_fault_map", "random_fault_map"),
    "repro.resilience.remap": ("RemapPlan", "predict_layer_cycles", "remap_layer"),
    # energy
    "repro.energy.params": ("DEFAULT_ENERGY", "EnergyParams"),
    "repro.energy.model": ("energy_of_result", "energy_of_run"),
    # golden + dram
    "repro.golden.gemm": ("golden_gemm",),
    "repro.dram.timing": ("DDR4_2400_LIKE", "DramTiming"),
    "repro.dram.request": ("DramAccess",),
    "repro.dram.simulator": ("DramSimulator",),
    # workloads
    "repro.workloads.language": ("language_layer", "language_models"),
    "repro.workloads.resnet50": ("resnet50",),
    # tooling
    "repro.sweep": ("run_sweep", "run_sweep_report", "sweep_to_csv", "pivot_to_csv"),
    "repro.store.ledger": ("SweepLedger", "LedgerDiff"),
    "repro.traceanalysis.reuse": ("reuse_profile",),
    "repro.traceanalysis.streams": ("stream_stats",),
    # observability
    "repro.obs": ("trace", "metrics"),
    "repro.obs.tracer": ("Tracer",),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.progress": ("ProgressTracker",),
    # robust execution
    "repro.robust.checkpoint": ("CheckpointStore",),
    "repro.robust.policy": ("ExecutionPolicy",),
    "repro.robust.faults": ("Fault", "inject_faults"),
    "repro.robust.report": ("PointRecord", "RunReport"),
    "repro.robust.invariants": ("check_layer_result", "check_trace_conservation"),
    "repro.robust.executor": ("execute_grid", "execute_point"),
    # errors
    "repro.errors": (
        "ReproError", "ConfigError", "TopologyError", "MappingError",
        "SimulationError", "SearchError", "DramError", "ExecutionError",
        "PointTimeoutError", "CircuitOpenError", "SweepError", "CheckpointError",
        "StorageError", "LedgerCorruptionError", "InvariantError", "ResilienceError",
    ),
    "repro._version": ("__version__",),
}

#: Public name -> defining module.
_EXPORTS = {name: module for module, names in _API.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    # __import__, unlike importlib.import_module, is what -X importtime
    # reports, so profiles keep showing these imports.
    value = getattr(__import__(module, fromlist=(name,)), name)
    globals()[name] = value  # resolve once; later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
