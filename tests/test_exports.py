"""The public surface: every exported name resolves, none is listed twice,
the package exports only what its modules export, no module reads the
environment, and the benchmark finds the attributes it traces and times."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sde_longtime
from sde_longtime import build_allen_cahn, build_ginzburg_landau

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


@pytest.mark.parametrize("path", sorted(
    Path(sde_longtime.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Every setting comes from an argument, a flag or a config file: no
    module reads `os.environ` or calls `os.getenv`, so no environment
    variable can change a run behind its configuration."""
    reads = [f"{path.name}:{node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and node.attr in ("environ", "getenv")]
    assert reads == []


def _bench_module(name):
    """bench/<name>.py, loaded under a name of its own."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_finds_what_it_traces_and_times():
    """`bench/run.py --trace 1` wraps package attributes by name, and
    `bench/layers.py` times every built-in problem's drift_jacobian_batch:
    renaming or deleting one must fail here, not only the traced bench.
    Restoring puts every wrapped attribute back."""
    import sde_longtime.cli as cli
    import sde_longtime.schemes as schemes
    import sde_longtime.simulate as simulate
    run, tracer = _bench_module("run"), _bench_module("tracer")
    modules = (cli, schemes, simulate)
    before = [dict(vars(m)) for m in modules]
    t = tracer.Tracer()
    run._install(t)
    assert [dict(vars(m)) for m in modules] != before
    t.restore()
    assert [dict(vars(m)) for m in modules] == before
    for problem in (build_ginzburg_landau(), build_allen_cahn(K=4)):
        assert callable(problem.drift_jacobian_batch), problem.name
