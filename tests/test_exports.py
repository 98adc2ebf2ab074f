"""The public surface: every exported name resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import sde_longtime

MODULES = ["sde_longtime"] + [
    f"sde_longtime.{info.name}"
    for info in pkgutil.iter_modules(sde_longtime.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_once(name):
    """A stale entry of `__all__` breaks `from <module> import *`, and a
    duplicate hides a deletion that left its twin behind."""
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), sorted(
        n for n in set(exported) if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})

