"""Every example script runs to completion against the source tree.

The three smoke scripts are left out: CI runs each of them in its own
job, with the daemon and crash drills they need.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI_SMOKES = {"ledger_smoke.py", "service_smoke.py", "obs_service_smoke.py"}
EXAMPLES = sorted(
    path for path in (ROOT / "examples").glob("*.py") if path.name not in CI_SMOKES
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if path
    )
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
