"""Public-name oracles: every ``__all__`` entry exists, and every public
class or function a module defines is listed in its ``__all__``; and the
layering oracle: each module imports from the package only the modules
below it, always at module level."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import granular_bath

MODULES = sorted(
    f"granular_bath.{info.name}" for info in pkgutil.iter_modules(granular_bath.__path__)
)


def test_package_exports_exist():
    missing = [name for name in granular_bath.__all__ if not hasattr(granular_bath, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_exported(name):
    module = importlib.import_module(name)
    defined = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == name
    ]
    unlisted = [attr for attr in defined if attr not in module.__all__]
    assert not unlisted


# The package modules each module may import; None for any.
LAYERS = {
    "kinematics": set(),
    "background": {"kinematics"},
    "observables": {"background", "kinematics"},
    "carleman": {"background", "kinematics"},
    "dsmc": {"background", "kinematics", "observables"},
    "cli": None,
}


def _tree(name):
    path = Path(granular_bath.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(encoding="utf-8"))


def _package_imports(tree):
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("granular_bath."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("granular_bath.")
            )
    return found


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == sorted(name.split(".")[1] for name in MODULES)


@pytest.mark.parametrize("name", [name for name, allowed in LAYERS.items() if allowed is not None])
def test_module_imports_only_the_layers_below(name):
    assert _package_imports(_tree(name)) == LAYERS[name]


@pytest.mark.parametrize("name", ["__init__", *LAYERS])
def test_no_import_inside_a_function(name):
    inner = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(_tree(name))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inner
