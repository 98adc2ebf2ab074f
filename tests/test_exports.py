"""The public surface: every exported name resolves, none is listed twice,
and the package exports only what its modules export."""

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


def test_package_exports_are_exported_where_defined():
    """A name of the package `__all__` is also in the `__all__` of the
    module that defines it, so each module states its own public surface."""
    missing = []
    for name in sde_longtime.__all__:
        home = getattr(getattr(sde_longtime, name), "__module__", None)
        if home is not None and name not in getattr(
                importlib.import_module(home), "__all__", ()):
            missing.append(f"{home}.{name}")
    assert missing == []
