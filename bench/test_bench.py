"""Tests of the benchmark itself: names, step counts, the gate and the tracer.

    python3 -m pytest bench
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate                                     # noqa: E402
import layers                                   # noqa: E402
import run                                      # noqa: E402
from tracer import Tracer                       # noqa: E402
from workloads import WORKLOADS, Workload      # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_well_formed_and_unique():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + list(WORKLOADS))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(metric_names) == len(set(metric_names))


def test_spec_matches_what_the_benchmark_reports():
    assert ([(w["name"], w["why"]) for w in SPEC["workloads"]]
            == [(w.name, w.why) for w in WORKLOADS.values()])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


def _count_path_steps(monkeypatch, experiment, *args, **kwargs):
    """Run a simulate protocol, counting rows passed to step_batch."""
    from sde_longtime import simulate

    steps = [0]
    step_batch = simulate.step_batch

    def counting(problem, cfg, Z, *rest, **kw):
        steps[0] += Z.shape[0]
        return step_batch(problem, cfg, Z, *rest, **kw)

    monkeypatch.setattr(simulate, "step_batch", counting)
    experiment(*args, **kwargs)
    return steps[0]


def test_path_steps_formula_on_a_tiny_ladder(monkeypatch):
    from sde_longtime import SchemeConfig, build_ginzburg_landau
    from sde_longtime.simulate import strong_error_experiment

    w = Workload("tiny-ladder", "", "convergence",
                 {"T": "1/2", "h-list": "2^-2,2^-3", "h-ref": "2^-4",
                  "paths": "3"}, threads=1)
    assert w.path_steps() == 3 * (8 + 2 + 4)
    counted = _count_path_steps(
        monkeypatch, strong_error_experiment, build_ginzburg_landau(),
        SchemeConfig(variant="be"), T=0.5, h_list=[0.25, 0.125], h_ref=0.0625,
        n_paths=3, threads=1)
    assert counted == w.path_steps()


def test_path_steps_formula_on_a_tiny_trace(monkeypatch):
    from sde_longtime import SchemeConfig, build_ginzburg_landau
    from sde_longtime.simulate import moment_trace

    w = Workload("tiny-trace", "", "moments",
                 {"T": "1", "h": "2^-2", "paths": "5"}, threads=1)
    assert w.path_steps() == 5 * 4
    counted = _count_path_steps(
        monkeypatch, moment_trace, build_ginzburg_landau(),
        SchemeConfig(variant="em"), T=1.0, h=0.25, n_paths=5, threads=1)
    assert counted == w.path_steps()


def _edit_row(data: bytes, column: str, edit) -> bytes:
    """Apply `edit` to `column` of the last data row of a CLI CSV."""
    lines = data.decode().splitlines(keepends=True)
    header = next(ln for ln in lines if not ln.startswith("#")).strip().split(",")
    cells = lines[-1].rstrip("\r\n").split(",")
    i = header.index(column)
    cells[i] = edit(cells[i])
    lines[-1] = ",".join(cells) + "\r\n"
    return "".join(lines).encode()


@pytest.fixture
def reference():
    ref = gate.load_reference("gl-em-moments", 1)
    assert b",0\r\n" not in ref.csv_bytes.splitlines(keepends=True)[-1]
    return ref


def test_gate_accepts_the_reference_itself(reference):
    result = gate.check(reference.exit_code, reference.csv_bytes,
                        reference.json_bytes, reference)
    assert result.ok and result.identical


def test_gate_rejects_a_perturbed_value(reference):
    csv = _edit_row(reference.csv_bytes, "value",
                    lambda v: repr(float(v) * (1 + 1e-4)))
    result = gate.check(reference.exit_code, csv, reference.json_bytes, reference)
    assert not result.ok and not result.identical
    assert any("value" in p for p in result.problems)


def test_gate_rejects_a_changed_n_divergent(reference):
    csv = _edit_row(reference.csv_bytes, "n_divergent", lambda v: str(int(v) + 1))
    result = gate.check(reference.exit_code, csv, reference.json_bytes, reference)
    assert not result.ok
    assert any("n_divergent" in p for p in result.problems)


def test_gate_tolerates_last_digit_changes_but_reports_lost_identity(reference):
    csv = _edit_row(reference.csv_bytes, "value",
                    lambda v: repr(float(v) * (1 + 1e-12)))
    result = gate.check(reference.exit_code, csv, reference.json_bytes, reference)
    assert result.ok and not result.identical


def test_gate_rejects_usage_and_solver_exit_codes(reference):
    for code in (2, 3):
        result = gate.check(code, reference.csv_bytes, reference.json_bytes,
                            reference)
        assert not result.ok


def test_tracer_counts_calls_and_splits_self_time():
    mod = types.ModuleType("toy")
    mod.leaf = lambda: sum(range(1000))
    mod.outer = lambda: [mod.leaf() for _ in range(3)]
    tracer = Tracer()
    tracer.wrap(mod, "leaf", "low")
    tracer.wrap(mod, "outer", "high")
    try:
        mod.outer()
        mod.outer()
    finally:
        tracer.restore()
    assert mod.leaf.__name__ == "<lambda>" and not hasattr(mod.leaf, "__wrapped__")
    f = tracer.functions()
    assert f["toy.outer"]["calls"] == 2 and f["toy.leaf"]["calls"] == 6
    outer, leaf = f["toy.outer"], f["toy.leaf"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - leaf["total_s"])
    layers_ = tracer.layers()
    assert layers_["low"]["calls"] == 6
    assert layers_["high"]["total_s"] == pytest.approx(outer["total_s"])
