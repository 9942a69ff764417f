"""Metamorphic properties and the verification property registry.

Where the differential oracles (:mod:`repro.verify.oracles`) compare
*models* of one scenario, metamorphic properties compare *related
scenarios* whose results must stand in a known relation even when no
model predicts the absolute numbers:

* ``conservation`` — repartitioning a layer from scale-up to scale-out
  must conserve MACs (all dataflows) and OFMAP SRAM writes (output
  stationary): work can be sliced, never created or lost;
* ``monotone_array`` — doubling both array edges can only speed a
  layer up (the engine maps edge folds exactly);
* ``monotone_batch`` — doubling the batch (GEMM M) can only slow it
  down;
* ``permutation`` — a network's summed totals are invariant under
  layer order;
* ``cache_identity`` — memoized, cold and cache-disabled runs are
  identical across dataflows;
* ``vectorized`` — the numpy sweep-compiler kernels
  (:mod:`repro.analytical.vectorized`) and the compiled design space
  are bit-identical to the scalar analytical model and the scalar
  design-space search (rel_tol 0);
* ``fold_runs`` — the closed-form fold runs of a layer's DRAM traffic
  (:func:`repro.memory.bandwidth.compute_dram_traffic`) equal the
  fold-by-fold reference walk on every field, with both loop orders;
* ``dram`` — the columnar DRAM replay (:class:`repro.dram.simulator.DramSimulator`)
  is bit-identical to the scalar reference channel on the case's layer
  trace and on a seeded random trace, across channels, refresh and
  reorder windows;
* ``parser_topology`` / ``parser_config`` — adversarial parser inputs
  either parse to sane values or raise the *typed* error with a
  line-numbered message; any other exception is a finding.

Each property is registered as a :class:`Property` so the harness, the
shrinker and the regression-corpus replayer can address it by name.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.parser import parse_config_text
from repro.dram.channel import Channel
from repro.dram.request import DramAccess, decode
from repro.dram.simulator import DramSimulator, DramStats
from repro.dram.timing import DramTiming
from repro.engine.simulator import Simulator
from repro.engine.tracefiles import dram_request_stream
from repro.errors import ConfigError, ReproError, SearchError, TopologyError
from repro.memory.bandwidth import compute_dram_traffic
from repro.perf.cache import cache
from repro.topology.network import Network
from repro.topology.parser import parse_topology_text
from repro.verify.cases import VerifyCase
from repro.verify.oracles import (
    Violation,
    oracle_golden,
    oracle_models,
    oracle_shape_classes,
    simulate_case,
)

#: Keep derived comparison runs (doubled arrays/batches) tractable.
_MONOTONE_MAX_COST = 200_000


# ----------------------------------------------------------------------
# Metamorphic properties over simulation cases
# ----------------------------------------------------------------------
def prop_conservation(case: VerifyCase) -> List[Violation]:
    """Scale-up -> scale-out repartitioning conserves work."""
    if case.is_monolithic and not case.is_degraded:
        return []
    violations: List[Violation] = []
    grid_result = simulate_case(case)
    mapping = case.mapping()
    if grid_result.macs != mapping.macs:
        violations.append(
            Violation(
                prop="conservation",
                message="MACs not conserved across the partition grid",
                expected=mapping.macs,
                actual=grid_result.macs,
                case=case,
            )
        )
    # OFMAP elements are written exactly once under output stationary:
    # Eq. 5 tiles the output space disjointly, so the grid total must
    # equal the monolithic total (healthy grids only — remapped tiles
    # re-run, but still write each output element once; PE faults
    # change the fold grid, not the output volume).
    if case.dataflow == "os" and not case.is_monolithic:
        mono = case.replace(
            partition_rows=1, partition_cols=1, dead_partitions=()
        )
        mono_result = simulate_case(mono)
        if grid_result.sram.ofmap_writes != mono_result.sram.ofmap_writes:
            violations.append(
                Violation(
                    prop="conservation",
                    message="OFMAP SRAM writes not conserved under repartitioning",
                    expected=mono_result.sram.ofmap_writes,
                    actual=grid_result.sram.ofmap_writes,
                    case=case,
                )
            )
    return violations


def _monolithic_healthy(case: VerifyCase) -> VerifyCase:
    return case.replace(
        partition_rows=1,
        partition_cols=1,
        dead_pe_rows=(),
        dead_pe_cols=(),
        dead_partitions=(),
    )


def prop_monotone_array(case: VerifyCase) -> List[Violation]:
    """Cycles are non-increasing when both array edges double."""
    base = _monolithic_healthy(case)
    if base.cost > _MONOTONE_MAX_COST:
        return []
    grown = base.replace(
        array_rows=base.array_rows * 2, array_cols=base.array_cols * 2
    )
    small = simulate_case(base).total_cycles
    big = simulate_case(grown).total_cycles
    if big > small:
        return [
            Violation(
                prop="monotone_array",
                message="doubling the array made the layer slower",
                expected=f"<= {small}",
                actual=big,
                case=base,
            )
        ]
    return []


def prop_monotone_batch(case: VerifyCase) -> List[Violation]:
    """Cycles are non-decreasing when the batch (GEMM M) doubles."""
    base = _monolithic_healthy(case)
    if base.cost > _MONOTONE_MAX_COST:
        return []
    batched = base.replace(m=base.m * 2)
    single = simulate_case(base).total_cycles
    double = simulate_case(batched).total_cycles
    if double < single:
        return [
            Violation(
                prop="monotone_batch",
                message="doubling the batch made the layer faster",
                expected=f">= {single}",
                actual=double,
                case=base,
            )
        ]
    return []


def prop_permutation(case: VerifyCase) -> List[Violation]:
    """Network totals are invariant under layer permutation."""
    from repro.topology.layer import GemmLayer

    base = _monolithic_healthy(case)
    layers = [
        GemmLayer(name="L0", m=base.m, k=base.k, n=base.n),
        GemmLayer(name="L1", m=base.k, k=base.m, n=base.n),
        GemmLayer(name="L2", m=base.m + 1, k=base.k, n=max(1, base.n // 2)),
    ]
    sim = Simulator(base.scaleup_config(), loop_order=base.loop_order)
    forward = sim.run_network(Network("forward", layers))
    backward = sim.run_network(Network("backward", list(reversed(layers))))

    def totals(run) -> Dict[str, int]:
        return {
            "cycles": sum(r.total_cycles for r in run.layers),
            "macs": sum(r.macs for r in run.layers),
            "dram_read_bytes": sum(r.dram_read_bytes for r in run.layers),
            "dram_write_bytes": sum(r.dram_write_bytes for r in run.layers),
        }

    expected, actual = totals(forward), totals(backward)
    if expected != actual:
        return [
            Violation(
                prop="permutation",
                message="sweep totals changed when the layer order was permuted",
                expected=expected,
                actual=actual,
                case=base,
            )
        ]
    return []


def prop_cache_identity(case: VerifyCase) -> List[Violation]:
    """Cold, memoized and cache-disabled runs must be identical.

    Also exercises cache-key isolation across dataflows (a key that
    drops any field would alias these runs).
    """
    violations: List[Violation] = []
    was_enabled = cache.enabled
    dataflows = ("os", "ws", "is")
    try:
        # Ground truth first, with the cache fully off.
        cache.disable()
        uncached = {
            dataflow: simulate_case(case.replace(dataflow=dataflow))
            for dataflow in dataflows
        }
        # Then ONE shared cache lifetime across all three dataflows: a
        # key that ignored the dataflow would alias their entries, and
        # a later cold run would silently return the wrong machine's
        # result.
        cache.enable()
        cache.clear()
        for dataflow in dataflows:
            variant = case.replace(dataflow=dataflow)
            cold = simulate_case(variant)
            memoized = simulate_case(variant)
            if not (cold == memoized == uncached[dataflow]):
                violations.append(
                    Violation(
                        prop="cache_identity",
                        message=f"cache changed the {dataflow} result",
                        expected=repr(uncached[dataflow]),
                        actual=f"cold={cold!r} hit={memoized!r}",
                        case=variant,
                    )
                )
                break
    finally:
        if was_enabled:
            cache.enable()
            cache.clear()
        else:
            cache.disable()
    return violations


def prop_vectorized(case: VerifyCase) -> List[Violation]:
    """Vectorized numpy kernels are bit-identical to the scalar model.

    The sweep compiler (:mod:`repro.perf.compiler`) prices whole design
    spaces through :mod:`repro.analytical.vectorized`; this property
    pins every kernel — Eq. 4/5/6 runtime, mapping utilization, the
    exact edge-fold cycle count, Table III batch mapping and the
    per-operand closed-form traffic — to its scalar twin with rel_tol 0
    on the fuzzer's boundary-biased cases.  At the case's total MACs,
    with arrays floored at the case's smaller array edge, it also pins
    the one design-space pricer: the compiled space equals
    :func:`~repro.analytical.search.search_space`, its ``best_index``
    picks what :func:`~repro.analytical.search.best_scaleout` picks (or
    both raise :class:`~repro.errors.SearchError`), and the unchecked
    search kernel equals :func:`scaleout_runtime`.
    """
    from repro.analytical.runtime import (
        _scaleout_cycles,
        mapping_utilization,
        scaleout_runtime,
        scaleup_runtime,
    )
    from repro.analytical.search import best_scaleout, search_space
    from repro.analytical.traffic import estimate_traffic
    from repro.analytical.vectorized import (
        estimate_traffic_v,
        mapping_utilization_v,
        scaleout_runtime_v,
        scaleup_runtime_v,
    )
    from repro.config.hardware import Dataflow
    from repro.mapping.dims import map_gemm_batch
    from repro.memory.buffers import BufferSet
    from repro.perf.compiler import compile_search_space

    mapping = case.mapping()
    sr, sc, t = mapping.sr, mapping.sc, mapping.t
    rows, cols = case.array_rows, case.array_cols
    violations: List[Violation] = []

    def expect(name: str, scalar, vectorized) -> None:
        if scalar != vectorized:
            violations.append(
                Violation(
                    prop="vectorized",
                    message=f"{name}: vectorized kernel diverged from scalar",
                    expected=scalar,
                    actual=vectorized,
                    case=case,
                )
            )

    sr_v, sc_v, t_v = map_gemm_batch(
        case.m, case.k, case.n, Dataflow.from_string(case.dataflow)
    )
    expect("map_gemm_batch", (sr, sc, t), (int(sr_v), int(sc_v), int(t_v)))
    expect(
        "scaleup_runtime",
        scaleup_runtime(mapping, rows, cols),
        int(scaleup_runtime_v(sr, sc, t, rows, cols)),
    )
    expect(
        "scaleout_runtime",
        scaleout_runtime(
            mapping, case.partition_rows, case.partition_cols, rows, cols
        ),
        int(
            scaleout_runtime_v(
                sr, sc, t, case.partition_rows, case.partition_cols, rows, cols
            )
        ),
    )
    expect(
        "mapping_utilization",
        mapping_utilization(mapping, rows, cols),
        float(mapping_utilization_v(sr, sc, rows, cols)),
    )
    grid = (case.partition_rows, case.partition_cols)
    expect(
        "_scaleout_cycles",
        scaleout_runtime(mapping, *grid, rows, cols),
        _scaleout_cycles(sr, sc, t, *grid, rows, cols),
    )

    # Floored at the case's smaller array edge, the space holds the
    # case's own point, so it is never empty.
    space_args = (mapping, case.config().total_macs, mapping.dataflow, min(rows, cols))
    space = compile_search_space(*space_args)
    expect("search_space", search_space(*space_args), space.candidates())

    def best(select: Callable[[], object]) -> object:
        try:
            return select()
        except SearchError as exc:
            return f"SearchError: {exc}"

    expect(
        "best_scaleout",
        best(lambda: best_scaleout(*space_args)),
        best(lambda: space.candidate(space.best_index(include_monolithic=False))),
    )

    buffers = BufferSet.from_config(case.scaleup_config())
    scalar = estimate_traffic(mapping, rows, cols, buffers, case.word_bytes)
    ifmap, filt, ofmap, cycles = estimate_traffic_v(
        sr,
        sc,
        t,
        Dataflow.from_string(case.dataflow),
        rows,
        cols,
        buffers.ifmap.working_bytes,
        buffers.filter.working_bytes,
        case.word_bytes,
    )
    expect("traffic.ifmap_bytes", scalar.ifmap_bytes, int(ifmap))
    expect("traffic.filter_bytes", scalar.filter_bytes, int(filt))
    expect("traffic.ofmap_bytes", scalar.ofmap_bytes, int(ofmap))
    expect("traffic.total_cycles", scalar.total_cycles, int(cycles))
    return violations


# ----------------------------------------------------------------------
# Fold runs: closed-form DRAM traffic vs. the fold-by-fold walk
# ----------------------------------------------------------------------
def prop_fold_runs(case: VerifyCase) -> List[Violation]:
    """Closed-form fold runs equal the per-fold reference on every field.

    For the case's layer on its scale-up configuration (dead PE rows
    and columns shrink the array), with both loop orders,
    :func:`~repro.memory.bandwidth.compute_dram_traffic`'s closed form
    must engage and equal ``_iterative_traffic`` at rel_tol 0: each
    :class:`~repro.memory.foldruns.FoldRuns` structurally (canonical
    blocks, so equal blocks mean equal folds), the byte totals, the
    cold start and the four bandwidths.
    """
    from repro.memory.bandwidth import _closed_form_traffic, _iterative_traffic

    config = case.scaleup_config()
    sim = Simulator(config)
    engine = sim.engine(case.layer())
    violations: List[Violation] = []
    for order in ("row", "col"):
        def expect(name: str, expected, actual) -> None:
            if expected != actual:
                violations.append(
                    Violation(
                        prop="fold_runs",
                        message=f"loop order {order}: {name} differs from the fold walk",
                        expected=expected,
                        actual=actual,
                        case=case,
                    )
                )

        fast = _closed_form_traffic(engine, sim.buffers, config.word_bytes, order)
        if fast is None:
            expect("closed form engaged", True, False)
            continue
        slow = _iterative_traffic(engine, sim.buffers, config.word_bytes, order)
        for name, get in (
            ("ifmap.per_fold_bytes", lambda t: t.ifmap.per_fold_bytes),
            ("filter.per_fold_bytes", lambda t: t.filter.per_fold_bytes),
            ("ofmap_per_fold_bytes", lambda t: t.ofmap_per_fold_bytes),
            ("fold_cycles", lambda t: t.fold_cycles),
        ):
            expect(f"{name} runs", get(slow).blocks, get(fast).blocks)
        for name in (
            "read_bytes", "write_bytes", "total_cycles", "cold_start_bytes",
        ):
            expect(name, getattr(slow, name), getattr(fast, name))
        for operand in ("ifmap", "filter"):
            for name in ("total_bytes", "unique_bytes"):
                expect(
                    f"{operand}.{name}",
                    getattr(getattr(slow, operand), name),
                    getattr(getattr(fast, operand), name),
                )
        for name in ("avg_read_bw", "avg_write_bw", "peak_read_bw", "peak_write_bw"):
            expect(
                f"bandwidth.{name}",
                getattr(slow.bandwidth, name),
                getattr(fast.bandwidth, name),
            )
    return violations


# ----------------------------------------------------------------------
# DRAM replay: columnar scheduler vs. the scalar reference channel
# ----------------------------------------------------------------------
#: Layer-trace prefix the ``dram`` property replays.
_DRAM_LAYER_REQUESTS = 4096


def scalar_dram_replay(
    timing: DramTiming, reorder_window: int, requests: Sequence[DramAccess]
) -> Tuple[DramStats, List[int]]:
    """Replay ``requests`` through the scalar reference :class:`Channel`.

    Routes each request by :func:`~repro.dram.request.decode`, services
    every channel with its own ``Channel`` and returns the
    :class:`~repro.dram.simulator.DramStats` that ``DramSimulator.run``
    must equal, plus every latency channel by channel in service order
    (the order the simulator feeds ``dram.request_latency``).
    """
    per_channel: List[List[DramAccess]] = [[] for _ in range(timing.num_channels)]
    for request in requests:
        per_channel[decode(request.address, timing).channel].append(request)
    serviced = []
    for channel_requests in per_channel:
        if channel_requests:
            channel = Channel(timing, window=reorder_window)
            serviced.extend(channel.service(channel_requests))
    stats = DramStats(
        num_requests=len(serviced),
        num_reads=sum(1 for item in serviced if not item.request.is_write),
        num_writes=sum(1 for item in serviced if item.request.is_write),
        first_cycle=min(item.request.cycle for item in serviced),
        last_finish_cycle=max(item.finish_cycle for item in serviced),
        total_latency=sum(item.latency for item in serviced),
        row_hits=sum(1 for item in serviced if item.row_hit),
        bytes_moved=len(serviced) * timing.line_bytes,
    )
    return stats, [item.latency for item in serviced]


def random_dram_trace(case: VerifyCase) -> List[DramAccess]:
    """A seeded trace with same-cycle ties, same-row bursts and ~30% writes.

    Seeded by the case and sized by its GEMM dims, so shrinking a case
    also shrinks its trace.  It starts anywhere in the first three
    refresh intervals, so short traces meet blackouts too, and a few
    requests arrive out of order to exercise the stable arrival sort.
    """
    rng = random.Random(repr(("dram", case)))
    count = min(_DRAM_LAYER_REQUESTS, 32 + 2 * (case.m + case.k + case.n))
    cycle = rng.randrange(3 * DramTiming.t_refi)
    address = 0
    trace = []
    for _ in range(count):
        if rng.random() < 0.4:  # otherwise a tie with the previous cycle
            cycle += rng.randint(1, 40)
        if rng.random() < 0.6:
            # A burst: stride 1/2/4 lines walks the channels and banks,
            # 16/32/64 lines stays in one bank's row at 1/2/4 channels.
            address += 64 * rng.choice((1, 2, 4, 16, 32, 64))
        else:
            address = 64 * rng.randrange(1 << 16)
        arrival = cycle - rng.randint(1, 60) if rng.random() < 0.05 else cycle
        trace.append(DramAccess(max(0, arrival), address, rng.random() < 0.3))
    return trace


def prop_dram(case: VerifyCase) -> List[Violation]:
    """``DramSimulator.run`` equals the scalar reference on every field.

    Replays the first requests of the case's layer trace (lowered the
    way ``repro dram`` lowers it) and a seeded random trace over
    {1, 2, 4} channels x {default, no} refresh x reorder window {1, 8},
    comparing every :class:`DramStats` field at rel_tol 0.
    """
    config = case.scaleup_config()
    sim = Simulator(config, loop_order=case.loop_order)
    layer = case.layer()
    traffic = compute_dram_traffic(
        sim.engine(layer), sim.buffers, config.word_bytes, loop_order=case.loop_order
    )
    layer_trace = list(
        itertools.islice(
            dram_request_stream(traffic, sim.address_layout(layer)),
            _DRAM_LAYER_REQUESTS,
        )
    )
    for name, requests in (("layer", layer_trace), ("random", random_dram_trace(case))):
        for channels, t_refi, window in itertools.product(
            (1, 2, 4), (DramTiming.t_refi, 0), (1, 8)
        ):
            timing = DramTiming(num_channels=channels, t_refi=t_refi)
            expected, _ = scalar_dram_replay(timing, window, requests)
            actual = DramSimulator(timing, reorder_window=window).run(requests)
            if actual != expected:
                field = next(
                    f.name for f in dataclasses.fields(expected)
                    if getattr(actual, f.name) != getattr(expected, f.name)
                )
                return [
                    Violation(
                        prop="dram",
                        message=f"{name} trace ({len(requests)} requests), "
                                f"{channels} channel(s), t_refi={t_refi}, "
                                f"window {window}: DramStats.{field} differs "
                                "from the scalar channel",
                        expected=getattr(expected, field),
                        actual=getattr(actual, field),
                        case=case,
                    )
                ]
    return []


# ----------------------------------------------------------------------
# Parser fuzz properties (text inputs)
# ----------------------------------------------------------------------
_TOPOLOGY_DIM_BOUND = 2**31


def check_topology_text(text: str) -> List[Violation]:
    """Adversarial topology text: typed errors or sane layers, only."""
    try:
        network = parse_topology_text(text, name="fuzz")
    except TopologyError:
        return []  # the documented, typed outcome
    except Exception as exc:  # noqa: BLE001 - the finding we hunt for
        return [
            Violation(
                prop="parser_topology",
                message=f"parser leaked {type(exc).__name__}: {exc}",
                expected="Network or TopologyError",
                actual=type(exc).__name__,
                text=text,
            )
        ]
    for layer in network:
        dims = (layer.gemm_m, layer.gemm_k, layer.gemm_n)
        if any(d < 1 or d > _TOPOLOGY_DIM_BOUND**2 for d in dims):
            return [
                Violation(
                    prop="parser_topology",
                    message=f"parser accepted absurd dims {dims} for {layer.name!r}",
                    text=text,
                )
            ]
    return []


def check_config_text(text: str) -> List[Violation]:
    """Adversarial config text: typed errors or a valid config, only."""
    try:
        config = parse_config_text(text)
    except ConfigError:
        return []
    except Exception as exc:  # noqa: BLE001 - the finding we hunt for
        return [
            Violation(
                prop="parser_config",
                message=f"parser leaked {type(exc).__name__}: {exc}",
                expected="HardwareConfig or ConfigError",
                actual=type(exc).__name__,
                text=text,
            )
        ]
    if config.array_rows * config.array_cols > _TOPOLOGY_DIM_BOUND:
        return [
            Violation(
                prop="parser_config",
                message=f"parser accepted an absurd array "
                        f"{config.array_rows}x{config.array_cols}",
                text=text,
            )
        ]
    return []


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Property:
    """One named verification property the harness can schedule."""

    name: str
    kind: str  # "case" | "text-topology" | "text-config"
    check: Callable[..., List[Violation]]
    doc: str

    def applies(self, case: VerifyCase) -> bool:
        if self.name == "golden":
            from repro.verify.oracles import golden_applies

            return golden_applies(case)
        return True


PROPERTIES: Dict[str, Property] = {
    prop.name: prop
    for prop in (
        Property("models", "case", oracle_models,
                 "engine vs exact analytical prediction vs Eq. 4-6 bounds"),
        Property("shape_classes", "case", oracle_shape_classes,
                 "iterative fold walk vs O(1) shape-class aggregation"),
        Property("golden", "case", oracle_golden,
                 "engine vs PE-register-level golden array (small cases)"),
        Property("conservation", "case", prop_conservation,
                 "MAC/OFMAP-write conservation under repartitioning"),
        Property("monotone_array", "case", prop_monotone_array,
                 "cycles non-increasing when the array doubles"),
        Property("monotone_batch", "case", prop_monotone_batch,
                 "cycles non-decreasing when the batch doubles"),
        Property("permutation", "case", prop_permutation,
                 "network totals invariant under layer order"),
        Property("cache_identity", "case", prop_cache_identity,
                 "cold == memoized == cache-off across dataflows"),
        Property("vectorized", "case", prop_vectorized,
                 "vectorized numpy kernels bit-identical to the scalar model"),
        Property("fold_runs", "case", prop_fold_runs,
                 "closed-form fold runs equal the fold walk on every field"),
        Property("dram", "case", prop_dram,
                 "columnar DRAM replay bit-identical to the scalar channel"),
        Property("parser_topology", "text-topology", check_topology_text,
                 "topology parser: typed errors or sane layers only"),
        Property("parser_config", "text-config", check_config_text,
                 "config parser: typed errors or a valid config only"),
    )
}


def resolve_properties(names: Optional[Sequence[str]] = None) -> List[Property]:
    """Map ``--props`` names onto registry entries (all, by default)."""
    if not names:
        return list(PROPERTIES.values())
    chosen: List[Property] = []
    for name in names:
        key = name.strip()
        if not key:
            continue
        if key not in PROPERTIES:
            from repro.errors import VerificationError

            raise VerificationError(
                f"unknown property {key!r}; available: {sorted(PROPERTIES)}"
            )
        chosen.append(PROPERTIES[key])
    if not chosen:
        from repro.errors import VerificationError

        raise VerificationError("no properties selected")
    return chosen
