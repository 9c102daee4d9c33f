"""The package's public surface.

Every module's `__all__` names resolve under a star import, the package root
imports only names that its modules declare public, and a module imports no
other module's private names except the convolution column kernel that
`conv2d` and `align_conv` share, the row check `geometry._rows` and the
footprint IoU kernel `geometry._footprint_ious` that `evaluate_class` reads
bev and 3d from. Every public callable has an entry in the poison sweep of
`test_validation.py`.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mono3d

PACKAGE = Path(mono3d.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(mono3d.__path__))
SHARED_PRIVATE = {("ops", "_columns_forward"), ("ops", "_columns_backward"), ("geometry", "_rows"),
                  ("geometry", "_footprint_ious")}


def relative_imports(path):
    """(module, name) for every `from .module import name` in a source file."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    exec(f"from mono3d.{name} import *", {})  # a stale `__all__` entry raises AttributeError


def test_package_root_imports_only_public_names():
    imports = relative_imports(PACKAGE / "__init__.py")
    assert imports
    for module, name in imports:
        assert name in importlib.import_module(f"mono3d.{module}").__all__, f"{module}.{name}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports_across_modules(name):
    private = [(m, n) for m, n in relative_imports(PACKAGE / f"{name}.py") if n.startswith("_")]
    assert set(private) <= SHARED_PRIVATE, private


def test_every_public_callable_is_in_the_sweep():
    from test_validation import CASES, NO_ARRAYS
    modules = {name: importlib.import_module(f"mono3d.{name}") for name in MODULES}
    public = {f"{name}.{attr}" for name, module in modules.items()
              for attr in getattr(module, "__all__", ()) if callable(getattr(module, attr))}
    swept = set(CASES) | set(NO_ARRAYS)
    assert public - swept == set(), "public callables without a sweep entry"
    assert swept - public == set(), "sweep entries that are not public callables"
