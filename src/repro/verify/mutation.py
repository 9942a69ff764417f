"""Mutation smoke: prove the harness catches the bugs it exists for.

A verification harness that never fires is indistinguishable from one
that cannot fire.  Each :class:`Mutant` here installs one seeded,
realistic defect — an off-by-one in the analytical runtime, a cache
key that forgets the dataflow, a degraded-mode prediction that drifts,
a shape-class aggregation that drops a class, a DRAM scheduler that
skips the write-to-read turnaround, a fold-run peak that forgets
where one outer-loop iteration wraps into the next — and then runs the very
same :func:`~repro.verify.harness.run_verify` loop against it.  Every
mutant must be *killed* (detected, shrunk and bundled); any survivor
fails the smoke with :class:`~repro.errors.VerificationError`.

The smoke first confirms the unmutated code passes the same budget
clean, so a kill demonstrably comes from the seeded defect and not
from ambient noise.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple, Union

from repro.errors import VerificationError
from repro.obs import metrics
from repro.verify.harness import run_verify

#: Cases per mutant: enough for the generator's dividing/degraded bias
#: to exercise every targeted relationship, small enough to stay quick.
DEFAULT_CASES_PER_MUTANT = 12


def _patch_analytical_off_by_one() -> ContextManager:
    """Eq. 1 gains a spurious cycle: tau_F = 2R + C + T - 1."""
    import unittest.mock as mock

    import repro.analytical.runtime as runtime

    real = runtime.fold_runtime
    return mock.patch.object(
        runtime, "fold_runtime", lambda rows, cols, t: real(rows, cols, t) + 1
    )


def _patch_cache_dataflow_blind() -> ContextManager:
    """The memoization key stops distinguishing dataflows."""
    import unittest.mock as mock

    import repro.engine.simulator as simulator

    real = simulator.simulation_key

    def blind_key(config, *args, **kwargs):
        key = list(real(config, *args, **kwargs))
        key[3] = "any-dataflow"
        return tuple(key)

    return mock.patch.object(simulator, "simulation_key", blind_key)


def _patch_remap_off_by_one() -> ContextManager:
    """The degraded-mode exact prediction under-counts by one cycle."""
    import unittest.mock as mock

    import repro.resilience.remap as remap

    real = remap.predict_layer_cycles
    return mock.patch.object(
        remap,
        "predict_layer_cycles",
        lambda mapping, config: real(mapping, config) - 1,
    )


def _patch_shape_class_drop() -> ContextManager:
    """The O(1) aggregation silently loses its last shape class."""
    import unittest.mock as mock

    from repro.mapping.folds import FoldPlan

    real = FoldPlan.shape_classes
    return mock.patch.object(
        FoldPlan, "shape_classes", lambda self: real(self)[:-1]
    )


def _patch_dram_drop_wtr() -> ContextManager:
    """The columnar DRAM scheduler forgets the write-to-read turnaround."""
    import dataclasses
    import unittest.mock as mock

    import repro.dram.simulator as simulator

    real = simulator.service_columns
    return mock.patch.object(
        simulator,
        "service_columns",
        lambda timing, *args: real(dataclasses.replace(timing, t_wtr=0), *args),
    )


def _patch_fold_runs_drop_wrap() -> ContextManager:
    """Fold-run adjacent pairs drop the wrap-around between two repeats
    of one block, so the peak misses fold ``k-1`` of one outer iteration
    feeding fold ``k`` of the next."""
    import unittest.mock as mock

    import repro.memory.foldruns as foldruns

    real = foldruns._block_pairs
    return mock.patch.object(
        foldruns, "_block_pairs", lambda runs, repeat: real(runs, 1)
    )


@dataclass(frozen=True)
class Mutant:
    """One seeded defect and the properties expected to kill it."""

    name: str
    install: Callable[[], ContextManager]
    props: Tuple[str, ...]
    doc: str


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        "analytical-off-by-one",
        _patch_analytical_off_by_one,
        ("models",),
        "fold_runtime off by +1 breaks Eq. 4 exactness on dividing dims",
    ),
    Mutant(
        "cache-dataflow-blind",
        _patch_cache_dataflow_blind,
        ("cache_identity",),
        "dataflow-blind cache key aliases os/ws/is results",
    ),
    Mutant(
        "remap-off-by-one",
        _patch_remap_off_by_one,
        ("models",),
        "exact cycle prediction drifts -1 from the engine",
    ),
    Mutant(
        "shape-class-drop",
        _patch_shape_class_drop,
        ("shape_classes",),
        "shape-class aggregation drops a fold population",
    ),
    Mutant(
        "dram-drop-wtr",
        _patch_dram_drop_wtr,
        ("dram",),
        "columnar DRAM scheduler skips the write-to-read bus turnaround",
    ),
    Mutant(
        "fold-runs-drop-wrap",
        _patch_fold_runs_drop_wrap,
        ("fold_runs",),
        "fold-run peak drops the pair between two repeats of one block",
    ),
)


@dataclass
class MutationReport:
    """Per-mutant kill record for one smoke run."""

    seed: int
    baseline_clean: bool = False
    kills: Dict[str, int] = field(default_factory=dict)
    bundles: Dict[str, List[Path]] = field(default_factory=dict)
    survivors: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.baseline_clean and not self.survivors

    def summary(self) -> str:
        parts = [
            f"baseline {'clean' if self.baseline_clean else 'DIRTY'}",
            f"{len(self.kills)}/{len(self.kills) + len(self.survivors)} mutants killed",
        ]
        if self.survivors:
            parts.append(f"survivors: {', '.join(self.survivors)}")
        return f"mutation smoke seed={self.seed}: " + "; ".join(parts)


def run_mutation_smoke(
    seed: int = 0,
    cases_per_mutant: int = DEFAULT_CASES_PER_MUTANT,
    budget: float = 120.0,
    corpus_dir: Optional[Union[str, Path]] = None,
) -> MutationReport:
    """Kill every registered mutant, or raise :class:`VerificationError`.

    Bundles produced while a mutant is live are written to
    ``corpus_dir`` when given, otherwise to a throwaway directory —
    they describe a *seeded* defect, not a real one, and must never
    land in the permanent regression corpus.
    """
    report = MutationReport(seed=seed)
    targeted = sorted({name for mutant in MUTANTS for name in mutant.props})

    with contextlib.ExitStack() as stack:
        if corpus_dir is None:
            corpus_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-mutation-")
            )

        baseline = run_verify(
            budget=budget,
            seed=seed,
            props=targeted,
            max_cases=cases_per_mutant,
            corpus_dir=None,
            shrink=False,
        )
        report.baseline_clean = baseline.passed
        if not baseline.passed:
            raise VerificationError(
                "mutation smoke is meaningless: the unmutated code already "
                f"fails — {baseline.summary()}"
            )

        for mutant in MUTANTS:
            mutant_corpus = Path(corpus_dir) / mutant.name
            with mutant.install():
                result = run_verify(
                    budget=budget,
                    seed=seed,
                    props=list(mutant.props),
                    max_cases=cases_per_mutant,
                    corpus_dir=mutant_corpus,
                    shrink=True,
                )
            if result.violations:
                report.kills[mutant.name] = len(result.violations)
                report.bundles[mutant.name] = list(result.bundles)
                if metrics.enabled:
                    metrics.counter("verify.mutants_killed").add()
            else:
                report.survivors.append(mutant.name)

    if report.survivors:
        raise VerificationError(
            "mutation smoke FAILED — the harness missed seeded defect(s): "
            + ", ".join(report.survivors)
        )
    return report
