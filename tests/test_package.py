"""The package's public names: every ``__all__`` entry and every re-export resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cubasquare

MODULES = sorted(m.name for m in pkgutil.iter_modules(cubasquare.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name removed from a module but left in its __all__ breaks `from ... import *`
    module = importlib.import_module(f"cubasquare.{name}")
    assert module.__all__
    missing = [a for a in module.__all__ if not hasattr(module, a)]
    assert not missing, f"cubasquare.{name}.__all__ names {missing}"


def test_init_reexports_resolve():
    tree = ast.parse(Path(cubasquare.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cubasquare.{node.module}")
        names = [a.name for a in node.names]
        assert set(names) <= set(module.__all__), f"cubasquare.{node.module}: {set(names) - set(module.__all__)}"
        assert all(getattr(cubasquare, a) is getattr(module, a) for a in names)
