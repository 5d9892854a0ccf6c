"""Smoke tests: the quick demos run to completion against the package source.

``rule_discovery.py`` is left out of the runs: its multistart searches take
about ten seconds, and the discovery pipeline has its own tests.  Every demo,
that one included, is checked for the names it imports from the package.
"""

import ast
import importlib
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


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_exist(script):
    # a public name removed from the package breaks a demo that is never run here
    tree = ast.parse((ROOT / "demos" / script).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "cubasquare"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{script}: {node.module} has no {missing}"
