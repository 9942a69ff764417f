"""Import edges the package layering forbids.

Each forbidden edge is checked over every ``import`` statement in the
package, lazy imports inside functions included:

* ``repro.robust`` sits below the sweep and service layers and knows
  nothing of them (the sweep ledger is a checkpoint journal, not the
  other way round);
* ``repro.utils`` is the bottom layer and only raises ``repro.errors``;
* ``repro.perf`` (the engine's memo seam and the sweep compiler) knows
  nothing of the service, sweeps or the CLI: memoized layers live in
  the process-wide LRU only;
* ``repro.engine`` knows nothing of the service, sweeps, the CLI, the
  experiments or the verifier: it memoizes through the one seam in
  :mod:`repro.perf.cache`.  ``repro.robust`` is not banned
  there, because ``simulate(verify=True)`` lazily imports
  ``repro.robust.invariants`` to cross-check its own result; only a
  caller that asks for that check pays the import.
* ``repro.dram`` knows nothing of the engine: ``engine.tracefiles``
  emits the dram package's ``DramAccess`` records, not the other way
  round.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

FORBIDDEN = {
    "repro.robust": ("repro.perf", "repro.serve", "repro.sweep"),
    "repro.engine": (
        "repro.serve", "repro.sweep", "repro.cli", "repro.experiments",
        "repro.verify",
    ),
    "repro.perf": ("repro.serve", "repro.sweep", "repro.cli"),
    "repro.dram": ("repro.engine",),
}

#: The only package ``repro.utils`` may import.
UTILS_ALLOWED = ("repro.errors",)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _imports(path: Path):
    """Every absolute ``repro`` module ``path`` imports, anywhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        yield from (name for name in names if _within(name, "repro"))


def _edges(package: str):
    for path in sorted((SRC / package.split(".")[1]).rglob("*.py")):
        for target in _imports(path):
            yield _module_name(path), target


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_no_upward_imports(package):
    bad = [
        (source, target)
        for source, target in _edges(package)
        if any(_within(target, banned) for banned in FORBIDDEN[package])
    ]
    assert bad == []


def test_utils_imports_only_errors():
    bad = [
        (source, target)
        for source, target in _edges("repro.utils")
        if not _within(target, "repro.utils")
        and not any(_within(target, allowed) for allowed in UTILS_ALLOWED)
    ]
    assert bad == []


def test_edges_are_found():
    # Guard the walker itself: a lazy import inside a function counts.
    assert ("repro.engine.scaleout", "repro.robust.invariants") in set(
        _edges("repro.engine")
    )
