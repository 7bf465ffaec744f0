"""Public-name oracles: every ``__all__`` entry exists, and every public
class or function a module defines is listed in its ``__all__``."""
import importlib
import inspect
import pkgutil

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
