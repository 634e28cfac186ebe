"""Every name that a module of the package lists in ``__all__`` resolves.

The benchmark's tracer wraps each ``__all__`` entry it finds with
``getattr``, so a stale entry breaks it before it measures anything.
"""

import importlib
import pkgutil

import pytest

import isoleaf

MODULES = [
    "isoleaf",
    "isoleaf.cli",
    "isoleaf.leaf_atlas",
    "isoleaf.period_algebra",
    "isoleaf.render",
    "isoleaf.stats",
    "isoleaf.surface_kernel",
    "isoleaf.teich_numeric",
    "isoleaf.veech",
]


def test_module_list_is_complete():
    found = {f"isoleaf.{m.name}" for m in pkgutil.iter_modules(isoleaf.__path__)}
    assert found == set(MODULES[1:])


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
