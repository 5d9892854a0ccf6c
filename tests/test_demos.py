"""Smoke tests: the quick demos run to completion against the package source.

``rule_discovery.py`` is left out: its multistart searches take about ten
seconds, and the discovery pipeline has its own tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,with_out_dir", [
    ("cubature_verification.py", False),
    ("node_families.py", True),
    ("interpolation_convergence.py", False),
])
def test_demo_runs(script, with_out_dir, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "demos" / script)] + ([str(tmp_path)] if with_out_dir else [])
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if with_out_dir:
        assert list(tmp_path.glob("*.svg"))
