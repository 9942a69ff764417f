"""The differential-verification harness: budgeted fuzz -> shrink -> bundle.

:func:`run_verify` drives everything the ``repro verify`` subcommand
exposes: a seeded deterministic stream of cases and parser inputs is
pushed through the selected properties until the time budget (or case
cap) runs out; every violation is shrunk to a minimal repro and
published as a replayable bundle in the regression corpus.

The harness is observable (``verify.*`` counters, a span per case) and
deterministic: ``(seed, index)`` identifies every generated input, so
the nightly fuzz job's findings replay locally without the artifact.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.obs import metrics, trace
from repro.verify.cases import VerifyCase
from repro.verify.corpus import bundle_from_violation, write_bundle
from repro.verify.generate import CaseGenerator
from repro.verify.oracles import Violation
from repro.verify.properties import Property, resolve_properties
from repro.verify.shrink import shrink_case, shrink_text

logger = logging.getLogger("repro.verify")

#: Hard cap on generated cases when no explicit ``max_cases`` is given.
DEFAULT_MAX_CASES = 2000


@dataclass
class VerifyReport:
    """Outcome of one harness invocation."""

    seed: int
    budget: float
    props: List[str]
    cases_run: int = 0
    checks_run: int = 0
    elapsed: float = 0.0
    violations: List[Violation] = field(default_factory=list)
    bundles: List[Path] = field(default_factory=list)
    checks_by_prop: Dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (
            f"[{status}] verify seed={self.seed}: {self.cases_run} case(s), "
            f"{self.checks_run} check(s) across {len(self.props)} propert(ies) "
            f"in {self.elapsed:.1f}s"
        )
        if self.violations:
            text += f"; {len(self.violations)} violation(s)"
            if self.bundles:
                names = ", ".join(p.name for p in self.bundles)
                text += f" -> {names}"
        return text


def _check(prop: Property, payload) -> List[Violation]:
    """Run one property, counting the check and any violations."""
    if metrics.enabled:
        metrics.counter("verify.checks").add()
        metrics.counter(f"verify.checks.{prop.name}").add()
    violations = prop.check(payload)
    if violations and metrics.enabled:
        metrics.counter("verify.violations").add(len(violations))
    return violations


def _shrink_violation(
    prop: Property, violation: Violation, shrink: bool
) -> Violation:
    """Minimize the violating input while the same property still fails."""
    if not shrink:
        return violation
    if violation.case is not None:
        def case_fails(candidate: VerifyCase) -> bool:
            return bool(prop.check(candidate))

        small = shrink_case(violation.case, case_fails)
        if small != violation.case:
            fresh = prop.check(small)
            if fresh:
                return fresh[0]
    elif violation.text is not None:
        def text_fails(candidate: str) -> bool:
            return bool(prop.check(candidate))

        small_text = shrink_text(violation.text, text_fails)
        if small_text != violation.text:
            fresh = prop.check(small_text)
            if fresh:
                return fresh[0]
    return violation


def run_verify(
    budget: float = 30.0,
    seed: int = 0,
    props: Optional[Sequence[str]] = None,
    max_cases: Optional[int] = None,
    corpus_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
) -> VerifyReport:
    """Fuzz the selected properties until the budget runs out.

    ``budget`` is a wall-clock ceiling in seconds; ``max_cases`` caps
    the generated case count independently (whichever ends first).
    When ``corpus_dir`` is given, every violation is shrunk and written
    there as a replayable regression bundle.
    """
    if budget <= 0:
        from repro.errors import VerificationError

        raise VerificationError(f"--budget must be positive, got {budget}")
    chosen = resolve_properties(props)
    case_props = [p for p in chosen if p.kind == "case"]
    topo_props = [p for p in chosen if p.kind == "text-topology"]
    config_props = [p for p in chosen if p.kind == "text-config"]

    generator = CaseGenerator(seed)
    report = VerifyReport(
        seed=seed, budget=budget, props=[p.name for p in chosen]
    )
    cap = max_cases if max_cases is not None else DEFAULT_MAX_CASES
    started = time.monotonic()
    deadline = started + budget

    def record(prop: Property, violations: List[Violation]) -> None:
        report.checks_run += 1
        report.checks_by_prop[prop.name] = report.checks_by_prop.get(prop.name, 0) + 1
        for violation in violations:
            shrunk = _shrink_violation(prop, violation, shrink)
            report.violations.append(shrunk)
            logger.error("verify violation: %s", shrunk.describe())
            if corpus_dir is not None:
                bundle = bundle_from_violation(shrunk, seed)
                path = write_bundle(corpus_dir, bundle)
                report.bundles.append(path)
                if metrics.enabled:
                    metrics.counter("verify.bundles").add()
                logger.error("regression bundle written to %s", path)

    index = 0
    while time.monotonic() < deadline and report.cases_run < cap:
        case = generator.case(index)
        with trace.span("verify.case", index=index, case=case.describe()):
            if metrics.enabled:
                metrics.counter("verify.cases").add()
            for prop in case_props:
                if time.monotonic() >= deadline:
                    break
                if not prop.applies(case):
                    continue
                record(prop, _check(prop, case))
        for prop in topo_props:
            if time.monotonic() >= deadline:
                break
            record(prop, _check(prop, generator.topology_text(index)))
        for prop in config_props:
            if time.monotonic() >= deadline:
                break
            record(prop, _check(prop, generator.config_text(index)))
        report.cases_run += 1
        index += 1

    report.elapsed = time.monotonic() - started
    logger.info("%s", report.summary())
    return report
