"""Cold start: a ``repro`` process imports only what its command runs.

Each check runs in a fresh interpreter, because this test process has
long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro._version import __version__
from repro.serve.jobs import job_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Prints the sorted names of every module the process has loaded.
LOADED = "import json, sys; print(json.dumps(sorted(sys.modules)))"

#: Public names that are instances, not functions or classes, and so
#: carry no ``__module__`` of their own.
INSTANCE_HOMES = {
    "DDR4_2400_LIKE": "repro.dram.timing",
    "DEFAULT_ENERGY": "repro.energy.params",
    "metrics": "repro.obs",
    "trace": "repro.obs",
    "__version__": "repro._version",
}

API_CHECK = f"""
import importlib, json, repro
homes = {INSTANCE_HOMES!r}
problems = []
for name in repro.__all__:
    value = getattr(repro, name)
    home = homes.get(name) or value.__module__
    if getattr(importlib.import_module(home), name) is not value:
        problems.append(name + " is not " + home + "." + name)
namespace = {{}}
exec("from repro import *", namespace)
problems += [name + " not bound by import *" for name in repro.__all__
             if name not in namespace]
problems += [name + " missing from dir()" for name in repro.__all__
             if name not in dir(repro)]
print(json.dumps(problems))
"""


def _python(*args: str, extra_path: str = "") -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), extra_path, env.get("PYTHONPATH", "")) if path
    )
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def _modules_after(statement: str) -> list:
    out = _python("-c", f"{statement}\n{LOADED}").stdout
    return json.loads(out.splitlines()[-1])


def _under(modules: list, *packages: str) -> list:
    return [
        name for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


def test_import_repro_loads_one_module():
    assert _under(_modules_after("import repro"), "repro") == ["repro"]


def test_public_api_resolves_to_the_defining_objects():
    assert json.loads(_python("-c", API_CHECK).stdout) == []


def test_cli_import_loads_no_simulation_layers():
    modules = _modules_after("import repro.cli")
    assert _under(
        modules, "numpy", "repro.engine", "repro.store", "repro.serve",
        "repro.verify", "repro.golden", "repro.dram", "repro.experiments",
    ) == []


def test_reproducing_a_table_never_imports_numpy():
    done = _python("-X", "importtime", "-m", "repro", "reproduce", "table3")
    assert done.stdout.startswith("# table3")
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.experiments.tables" in imported
    assert _under(imported, "numpy") == []


def test_a_resweep_that_reuses_every_point_loads_no_numpy(tmp_path):
    sweep = ["-m", "repro", "sweep", "--layer", "TF0", "--macs", "65536",
             "--ledger", str(tmp_path / "ledger")]
    _python(*sweep)
    sweep[2] = "resweep"
    done = _python("-X", "importtime", *sweep)
    assert "6/6 point(s) reused from the ledger, 0 to simulate" in done.stdout
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "repro.sweep" in imported
    assert _under(imported, "numpy") == []


def _imports_of(*argv: str) -> list:
    """Every module a ``repro`` command imports, by ``-X importtime``."""
    done = _python("-X", "importtime", "-m", "repro", *argv)
    return [
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    ]


@pytest.mark.parametrize("argv", [
    ("reproduce", "fig11abc"),
    ("reproduce", "fig12"),
    ("reproduce", "resilience"),
    ("run", "--workload", "resnet50", "--array", "32x32"),
    ("sweep", "--layer", "GNMT0", "--macs", "65536", "--checkpoint", "{tmp}/journal"),
])
def test_simulating_commands_never_import_numpy(argv, tmp_path):
    # Fold runs price DRAM traffic without arrays, and the dataflow
    # engines import numpy only to build per-cycle demand views.
    imported = _imports_of(*(part.replace("{tmp}", str(tmp_path)) for part in argv))
    assert "repro.memory.bandwidth" in imported
    assert _under(imported, "numpy") == []


@pytest.mark.parametrize("argv", [
    *(("reproduce", name) for name in (
        "fig9a", "fig9b", "fig9c", "fig10a", "fig10b",
        "fig13-language", "fig13-resnet", "fig14-language", "fig14-resnet",
    )),
    ("search", "--workload", "resnet50", "--macs", "16384", "--scaleout"),
])
def test_design_space_commands_price_without_arrays(argv):
    # One scalar walk prices every (grid, array shape) point, so the
    # search figures load neither numpy nor the sweep compiler.
    imported = _imports_of(*argv)
    assert "repro.analytical.search" in imported
    assert _under(imported, "numpy", "repro.perf.compiler") == []


def test_engine_sweep_and_daemon_job_path_load_no_numpy():
    from repro.serve.daemon import _JOB_PATH

    modules = _modules_after("import " + ", ".join(
        ("repro.engine.simulator", "repro.engine.scaleout", "repro.sweep", *_JOB_PATH)
    ))
    assert "repro.memory.bandwidth" in modules
    assert _under(modules, "numpy") == []


def test_engine_imports_no_store_service_robust_or_sweep():
    modules = _modules_after("import repro.engine.simulator, repro.engine.scaleout")
    assert "repro.perf.cache" in modules
    assert _under(
        modules, "repro.store", "repro.serve", "repro.robust", "repro.sweep"
    ) == []


def test_version_comes_from_the_code_not_foreign_metadata(tmp_path):
    # A stale egg-info or older wheel of the same name on the path must
    # not restamp the running code's job keys, ledgers or journals.
    dist = tmp_path / "repro-0.9.0.dist-info"
    dist.mkdir()
    (dist / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: repro\nVersion: 0.9.0\n", encoding="utf-8"
    )
    version = _python("-m", "repro", "--version", extra_path=str(tmp_path)).stdout
    assert version.split() == ["scalesim-repro", __version__]
    key = _python(
        "-c",
        "from repro.serve.jobs import job_key; print(job_key({'kind': 'k'}))",
        extra_path=str(tmp_path),
    ).stdout.strip()
    assert key == job_key({"kind": "k"})
