"""The package's exported names: each one in an ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import turnpoint

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(turnpoint.__path__) if name != "__main__"
)


@pytest.mark.parametrize("module", ["turnpoint", *(f"turnpoint.{name}" for name in MODULES)])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"


def test_every_module_is_covered():
    assert {"analytic", "cli", "diffusion", "harness", "metrics", "worldgen"} <= set(MODULES)
