"""Smoke test: every demo script runs to completion against the package the suite imports.

That is ``src/`` in a checkout, and the installed package where ``src/``
has been removed after a non-editable install.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import marketrng

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = Path(marketrng.__file__).resolve().parents[1]  # the directory that holds marketrng/


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    # TMPDIR keeps the figure directory demo 05 creates inside tmp_path.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT), "TMPDIR": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
