"""Smoke test: every script in demos/ runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the warning filters of pyproject's pytest settings, for the child interpreter
WARNINGS_AS_ERRORS = ("error::RuntimeWarning", "error::DeprecationWarning",
                      "error::FutureWarning")


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = [f"-W{spec}" for spec in WARNINGS_AS_ERRORS]
    proc = subprocess.run([sys.executable, *flags, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
