"""The harness end to end: clean runs, seeded bugs, mutation smoke."""

import unittest.mock as mock

import pytest

import repro.analytical.runtime as analytical_runtime
from repro.errors import VerificationError
from repro.verify.corpus import load_bundle, load_corpus, replay_bundle
from repro.verify.harness import run_verify
from repro.verify.mutation import MUTANTS, run_mutation_smoke


class TestCleanRun:
    def test_head_passes_clean(self, tmp_path):
        report = run_verify(
            budget=20.0, seed=7, max_cases=25, corpus_dir=tmp_path
        )
        assert report.passed, report.summary()
        assert report.cases_run == 25
        assert report.bundles == []
        assert load_corpus(tmp_path) == []

    def test_every_property_gets_scheduled(self):
        report = run_verify(budget=20.0, seed=3, max_cases=40)
        assert report.checks_by_prop["models"] == 40
        assert report.checks_by_prop["parser_topology"] == 40
        assert report.checks_by_prop.get("golden", 0) >= 1

    def test_props_selection_is_honoured(self):
        report = run_verify(
            budget=10.0, seed=0, max_cases=5, props=["shape_classes"]
        )
        assert set(report.checks_by_prop) == {"shape_classes"}

    def test_seeded_runs_are_reproducible(self):
        first = run_verify(budget=10.0, seed=42, max_cases=10)
        second = run_verify(budget=10.0, seed=42, max_cases=10)
        assert first.checks_by_prop == second.checks_by_prop
        assert first.violations == second.violations == []

    def test_nonpositive_budget_is_rejected(self):
        with pytest.raises(VerificationError, match="budget"):
            run_verify(budget=0.0)

    def test_unknown_prop_is_rejected(self):
        with pytest.raises(VerificationError, match="unknown property"):
            run_verify(budget=5.0, props=["nope"])


class TestSeededBug:
    def test_off_by_one_is_caught_shrunk_and_bundled(self, tmp_path):
        real = analytical_runtime.fold_runtime
        with mock.patch.object(
            analytical_runtime, "fold_runtime",
            lambda r, c, t: real(r, c, t) + 1,
        ):
            report = run_verify(
                budget=30.0, seed=7, max_cases=15,
                props=["models"], corpus_dir=tmp_path,
            )
            assert not report.passed
            assert report.bundles

            # The bundle replays the defect while the bug is live...
            bundle = load_bundle(report.bundles[0])
            assert replay_bundle(bundle)

        # ...and comes back clean once the bug is fixed.
        assert replay_bundle(bundle) == []

    def test_shrinking_minimizes_the_case(self, tmp_path):
        real = analytical_runtime.fold_runtime
        with mock.patch.object(
            analytical_runtime, "fold_runtime",
            lambda r, c, t: real(r, c, t) + 1,
        ):
            report = run_verify(
                budget=30.0, seed=7, max_cases=10,
                props=["models"], corpus_dir=tmp_path,
            )
        assert report.violations
        smallest = min(v.case.cost for v in report.violations if v.case)
        # The off-by-one reproduces on a trivial dividing case, so the
        # shrinker must land well below the generator's typical sizes.
        assert smallest <= VerifyCaseCostCeiling.TRIVIAL

    def test_no_shrink_keeps_the_original_case(self, tmp_path):
        real = analytical_runtime.fold_runtime
        with mock.patch.object(
            analytical_runtime, "fold_runtime",
            lambda r, c, t: real(r, c, t) + 1,
        ):
            report = run_verify(
                budget=30.0, seed=7, max_cases=10,
                props=["models"], corpus_dir=tmp_path, shrink=False,
            )
        assert report.violations


class VerifyCaseCostCeiling:
    #: m*k*n + array area + grid for a 1x1x1 GEMM on a tiny array.
    TRIVIAL = 40


class TestMutationSmoke:
    def test_all_registered_mutants_are_killed(self, tmp_path):
        report = run_mutation_smoke(seed=7, corpus_dir=tmp_path)
        assert report.passed
        assert set(report.kills) == {m.name for m in MUTANTS}
        assert report.survivors == []
        for name in report.kills:
            assert report.bundles[name], f"{name} killed without a bundle"

    def test_surviving_mutant_fails_the_smoke(self, tmp_path):
        import repro.verify.mutation as mutation

        harmless = mutation.Mutant(
            name="harmless",
            install=lambda: mock.patch.dict({}, {}),  # changes nothing
            props=("models",),
            doc="a mutant that mutates nothing and must survive",
        )
        with mock.patch.object(mutation, "MUTANTS", (harmless,)):
            with pytest.raises(VerificationError, match="harmless"):
                mutation.run_mutation_smoke(seed=7, corpus_dir=tmp_path)
