"""Command-line interface: exact rationals, config merging, outputs, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sde_longtime.cli as cli
from sde_longtime import simulate
from sde_longtime import SolverFailure, UsageError, __version__
from sde_longtime.cli import (COLUMNS, PRESETS, main, parse_config,
                              parse_rational)


# ---------------------------------------------------------------------------
# exact rational step sizes
# ---------------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("2^-7") == Fraction(1, 128)
    assert parse_rational("15/2^10") == Fraction(15, 1024)
    assert parse_rational("1/8") == Fraction(1, 8)
    assert parse_rational("0.125") == Fraction(1, 8)
    assert parse_rational("16") == Fraction(16)
    assert parse_rational("2^3") == Fraction(8)
    assert parse_rational(" 3 / 2^2 ") == Fraction(3, 4)


def test_parse_rational_rejects_garbage():
    for bad in ("abc", "1/0", "2^^3", "0x10", ""):
        with pytest.raises(UsageError):
            parse_rational(bad)


def test_non_dyadic_steps_are_refused(tmp_path):
    # 0.3 = 3/10 cannot be realized exactly in binary; the run must not start
    rc = main(["moments", "--model", "gl", "--T", "1", "--h", "0.3",
               "--output", str(tmp_path / "x.csv")])
    assert rc == 2


# ---------------------------------------------------------------------------
# presets and config merging
# ---------------------------------------------------------------------------

def test_preset_shapes():
    cfg = parse_config(["convergence", "--preset", "gl-fig1"])
    assert (cfg.model, cfg.scheme) == ("gl", "be")
    assert cfg.T == 16 and cfg.h_ref == Fraction(1, 4096)
    assert cfg.h_list == tuple(Fraction(1, 2 ** k) for k in range(3, 8))
    assert (cfg.n_paths, cfg.p, cfg.x0) == (10000, 1.0, (1.0,))
    assert parse_config(["convergence", "--preset", "gl-fig2"]).scheme == "pe"

    ac = parse_config(["convergence", "--preset", "ac-fig3"])
    assert (ac.model, ac.scheme, ac.T) == ("allen-cahn", "be", 30)
    assert ac.h_list == tuple(Fraction(15, 2 ** k) for k in range(6, 11))
    assert ac.h_ref == Fraction(15, 4096)
    assert ac.model_params == {"K": 4}
    assert ac.n_paths == 5000
    assert parse_config(["convergence", "--preset", "ac-fig4"]).scheme == "pe"
    assert set(PRESETS) == {"gl-fig1", "gl-fig2", "ac-fig3", "ac-fig4"}


def test_flags_override_file_overrides_preset(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("preset = gl-fig1\n"
                 "paths = 77  # inline comment\n"
                 "\n"
                 "# full-line comment\n"
                 "seed = 5\n")
    cfg = parse_config(["convergence", "--config", str(f), "--paths", "33"])
    assert cfg.n_paths == 33        # flag beats file
    assert cfg.master_seed == 5     # file beats preset default
    assert cfg.T == 16              # preset survives where nothing overrides
    cfg = parse_config(["convergence", "--config", str(f)])
    assert cfg.n_paths == 77


# one non-default value of every option, as the text of a file line and a flag
_OPTION_TEXT = {
    "preset": "gl-fig2", "model": "allen-cahn", "scheme": "pe", "T": "2",
    "h_ref": "1/16", "h": "1/4", "h_list": "1/8,1/4", "paths": "7",
    "p": "1.5", "seed": "9", "threads": "3", "output": "out.csv",
    "enforce_step_ceiling": "true", "x0": "0.5,2", "y0": "-1", "eta": "-2",
    "sigma": "0.5", "theta": "2", "K": "5", "band": "0.3", "r2_min": "0.9",
}


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_each_option_reads_the_same_from_file_and_flag(key, tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(f"{key} = {_OPTION_TEXT[key]}\n")
    flag = ["--" + key.replace("_", "-")]
    if key != "enforce_step_ceiling":       # the one flag without a value
        flag.append(_OPTION_TEXT[key])
    from_file = parse_config(["check-assumptions", "--config", str(f)])
    from_flag = parse_config(["check-assumptions"] + flag)
    assert from_file == from_flag != parse_config(["check-assumptions"])


def test_a_malformed_value_exits_2_from_file_and_flag(tmp_path, capsys):
    f = tmp_path / "run.cfg"
    f.write_text("paths = x\n")
    rest = ["--T", "1", "--h", "1/4", "--output", str(tmp_path / "m.csv")]
    assert main(["moments", "--config", str(f)] + rest) == 2
    assert main(["moments", "--paths", "x"] + rest) == 2
    assert capsys.readouterr().err.count("error: invalid paths: 'x'") == 2
    assert not (tmp_path / "m.csv").exists()


def test_config_file_rejects_unknown_keys(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("pathz = 3\n")
    with pytest.raises(UsageError):
        parse_config(["moments", "--config", str(f)])
    f.write_text("just a line without equals\n")
    assert main(["moments", "--config", str(f)]) == 2
    assert main(["moments", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_scheme_and_model_validation(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("scheme = heun\n")
    assert main(["moments", "--config", str(f), "--T", "2", "--h", "1/4"]) == 2
    rc = main(["moments", "--model", "carousel", "--T", "2", "--h", "1/4"])
    assert rc == 2
    with pytest.raises(SystemExit) as exc:  # argparse rejects bad choices
        main(["moments", "--scheme", "heun"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# grid validation
# ---------------------------------------------------------------------------

_BAND_RUN = ["convergence", "--model", "gl", "--T", "1", "--h-list",
             "2^-4,2^-5", "--h-ref", "2^-7", "--paths", "64"]


@pytest.mark.parametrize("args", [
    ["convergence", "--model", "gl", "--T", "1", "--h-ref", "2^-8"],
    ["convergence", "--model", "gl", "--T", "1", "--h-list", "2^-5",
     "--h-ref", "2^-4"],                               # h below h_ref
    ["convergence", "--model", "gl", "--T", "1", "--h-list", "1/8",
     "--h-ref", "3/16"],                               # non-integer ratio
    ["convergence", "--model", "gl", "--T", "1", "--h-list", "3/8",
     "--h-ref", "1/8"],                                # h does not divide T
    ["moments", "--model", "gl", "--T", "1"],          # missing h
    ["moments", "--model", "gl", "--h", "1/4"],        # missing T
    ["moments", "--model", "gl", "--T", "1", "--h", "1/4", "--paths", "0"],
    ["moments", "--model", "gl", "--T", "1", "--h", "1/4", "--p", "0"],
    ["contractivity", "--model", "gl", "--T", "1", "--h", "1/4",
     "--x0", "1", "--y0", "1"],                        # coincident starts
    ["moments", "--model", "gl", "--T", "2", "--h", "1/4", "--paths", "16",
     "--p", "nan"],
    ["moments", "--model", "gl", "--T", "2", "--h", "1/4", "--paths", "16",
     "--p", "inf"],
    ["moments", "--model", "gl", "--T", "1e400", "--h", "1"],  # no float
    _BAND_RUN + ["--band", "nan"],
    _BAND_RUN + ["--band", "-1"],
    _BAND_RUN + ["--r2-min", "nan"],
    _BAND_RUN + ["--r2-min", "1.5"],
    ["check-assumptions", "--config", "heun.cfg"],     # scheme = heun
    ["moments", "--model", "carousel", "--T", "2", "--h", "1/4"],
    ["contractivity", "--model", "allen-cahn", "--T", "1", "--h", "1/4",
     "--x0", "1", "--y0", "1,1,1"],                    # coincident starts
    ["check-assumptions", "--h", "0.3"],               # not a step
])
def test_invalid_configurations_exit_2(args, tmp_path, monkeypatch):
    """Exit 2 and no output, under the given name or the default one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heun.cfg").write_text("scheme = heun\n")
    assert main(args + ["--output", "out.csv"]) == 2
    assert main(args) == 2
    assert os.listdir(tmp_path) == ["heun.cfg"]


@pytest.mark.parametrize("model, param", [
    ("allen-cahn", ["--sigma", "0.5"]), ("allen-cahn", ["--eta", "-2"]),
    ("gl", ["--K", "4"]), ("custom", ["--theta", "1"]),
])
def test_a_parameter_the_model_does_not_take_exits_2(model, param, tmp_path,
                                                     capsys):
    """Refused before any path runs, instead of echoed into the outputs."""
    if model == "custom":
        (tmp_path / "ou_model.py").write_text(_CUSTOM)
        model = f"custom:{tmp_path / 'ou_model.py'}"
    out = tmp_path / "m.csv"
    rc = main(["moments", "--model", model, "--T", "4", "--h", "1/4",
               "--paths", "8", "--output", str(out)] + param)
    assert rc == 2
    assert f"takes no {param[0][2:]}" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_step_ceiling_flag(tmp_path):
    out = str(tmp_path / "out.csv")
    # p = 4 and alpha1 = 1/4 give the implicit scheme a ceiling of 1
    rc = main(["moments", "--model", "gl", "--scheme", "be", "--T", "4",
               "--h", "2", "--p", "4", "--paths", "4",
               "--enforce-step-ceiling", "--output", out])
    assert rc == 2
    # the projected ceiling 1/(2 p alpha1) = 1/2 refuses h = 1, which the
    # implicit ceiling admits
    pe_at_1 = ["moments", "--model", "gl", "--T", "8", "--h", "1", "--p", "4",
               "--paths", "4", "--enforce-step-ceiling", "--output", out]
    assert main(pe_at_1 + ["--scheme", "pe"]) == 2
    assert main(pe_at_1 + ["--scheme", "be"]) == 0
    # the ceiling check also demands a power-of-two ladder over h_ref
    rc = main(["convergence", "--model", "gl", "--T", "3",
               "--h-list", "3/8,3/16", "--h-ref", "1/16", "--paths", "8",
               "--enforce-step-ceiling", "--output", out])
    assert rc == 2
    # without enforcement the 6:3:1 ladder is legitimate
    rc = main(["convergence", "--model", "gl", "--T", "3",
               "--h-list", "3/8,3/16", "--h-ref", "1/16", "--paths", "16",
               "--seed", "1", "--threads", "1", "--band", "5", "--r2-min", "0",
               "--output", out])
    assert rc == 0


# ---------------------------------------------------------------------------
# convergence outputs: schema, byte-level determinism, verdict exit codes
# ---------------------------------------------------------------------------

_CONV = ["convergence", "--model", "gl", "--scheme", "be", "--T", "1",
         "--h-list", "2^-4,2^-5", "--h-ref", "2^-7", "--paths", "600",
         "--seed", "3"]


def test_convergence_csv_and_json_schema(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(_CONV + ["--band", "5", "--r2-min", "0", "--threads", "2",
                       "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"# sde-longtime {__version__}"
    assert lines[1].startswith("# command=convergence model=gl scheme=be")
    assert lines[2] == ",".join(COLUMNS)
    data = [dict(zip(COLUMNS, ln.split(","))) for ln in lines[3:]]
    assert [d["h"] for d in data] == ["0.0625", "0.03125"]
    for d in data:
        assert d["kind"] == "convergence"
        assert d["t"] == ""                      # no time axis on curve rows
        assert float(d["value"]) > 0.0
        assert float(d["std_error"]) > 0.0
        assert d["n_paths"] == "600" and d["n_divergent"] == "0"
    side = json.loads(out.with_suffix(".json").read_text())
    assert side["version"] == __version__
    report = side["report"]
    assert report["passed"] is True
    assert report["predicted_order"] == 0.5
    assert len(report["hs"]) == 2 and report["excluded_hs"] == []
    assert 0.0 < report["slope"] < 1.5


def test_outputs_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    paths = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"{name}.csv"
        monkeypatch.setenv("SDE_LONGTIME_THREADS", threads)
        rc = main(_CONV + ["--band", "5", "--r2-min", "0", "--output", str(out)])
        assert rc == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (paths[0].with_suffix(".json").read_bytes()
            == paths[1].with_suffix(".json").read_bytes())


def test_convergence_band_verdict_controls_exit_code(tmp_path):
    out = str(tmp_path / "curve.csv")
    rc = main(_CONV + ["--band", "1e-9", "--threads", "2", "--output", out])
    assert rc == 1  # no finite run fits a 1e-9 band around the exact order
    side = json.loads(Path(out).with_suffix(".json").read_text())
    assert side["report"]["passed"] is False


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["check-assumptions", "--model", "gl"])
    assert rc == 0
    assert (tmp_path / "check_assumptions_gl_be.csv").exists()
    assert (tmp_path / "check_assumptions_gl_be.json").exists()


# ---------------------------------------------------------------------------
# moments and contractivity runs
# ---------------------------------------------------------------------------

def test_moments_settled_trace_exits_zero(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["moments", "--model", "gl", "--scheme", "be", "--T", "16",
               "--h", "1/4", "--paths", "64", "--seed", "1", "--threads", "2",
               "--output", str(out)])
    assert rc == 0
    side = json.loads(out.with_suffix(".json").read_text())["moments"]
    assert side["passed"] is True
    assert side["max_divergent"] == 0
    assert side["stationarity"]["ratio"] <= 0.10
    first = out.read_text().splitlines()[3].split(",")
    row = dict(zip(COLUMNS, first))
    assert (row["kind"], row["t"], row["value"]) == ("moments", "0.0", "1.0")


def test_moments_explicit_blowup_exits_one(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["moments", "--model", "gl", "--scheme", "em", "--T", "8",
               "--h", "1/2", "--x0", "3", "--paths", "8", "--seed", "0",
               "--threads", "1", "--output", str(out)])
    assert rc == 1
    side = json.loads(out.with_suffix(".json").read_text())["moments"]
    assert side["max_divergent"] == 8
    assert side["passed"] is False


def test_contractivity_decay_exits_zero(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["contractivity", "--model", "gl", "--scheme", "be", "--T", "8",
               "--h", "1/4", "--x0", "1", "--y0", "0", "--paths", "64",
               "--seed", "2", "--threads", "2", "--output", str(out)])
    assert rc == 0
    side = json.loads(out.with_suffix(".json").read_text())["contractivity"]
    # exact-flow decay is exp(-2 p alpha1 t) with alpha1 = 1/4; the fitted
    # 2p-slope must undercut -2 p alpha1 + 0.1 = -0.4
    assert side["decay_slope_2p"] <= side["threshold"] == -0.4
    assert side["passed"] is True
    row = dict(zip(COLUMNS, out.read_text().splitlines()[3].split(",")))
    assert (row["kind"], row["value"]) == ("contractivity", "1.0")


# ---------------------------------------------------------------------------
# assumption certification run
# ---------------------------------------------------------------------------

def test_check_assumptions_run(tmp_path):
    out = tmp_path / "a.csv"
    rc = main(["check-assumptions", "--model", "gl", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    kinds = [ln.split(",")[0] for ln in lines[3:]]
    assert kinds == ["assumption-contractive_monotone",
                     "assumption-polynomial_lipschitz",
                     "assumption-max_feasible_pstar"]
    side = json.loads(out.with_suffix(".json").read_text())["assumptions"]
    assert side["passed"] is True
    assert side["contractive_monotone"]["passed"] is True
    assert side["polynomial_lipschitz"]["passed"] is True
    assert side["claimed"]["alpha1"] == 0.25
    assert side["claimed"]["p_star"] == 1.25
    assert side["p_max_theorem"] == pytest.approx(0.2)
    assert side["max_feasible_pstar"] == pytest.approx(1.25, abs=0.01)


# ---------------------------------------------------------------------------
# custom problems and failure exit codes
# ---------------------------------------------------------------------------

_CUSTOM = """
import numpy as np
from sde_longtime import MonotoneConstants, SdeProblem

PROBLEM = SdeProblem.from_pointwise(
    name="ou", d=1, m=1,
    drift=lambda x: -x,
    diffusion=lambda x: np.full((1, 1), 0.1),
    constants=MonotoneConstants(alpha1=0.9, p_star=2.0, kappa=1.0, c1=1.01))
"""


def test_custom_model_file(tmp_path):
    mod = tmp_path / "ou_model.py"
    mod.write_text(_CUSTOM)
    out = tmp_path / "a.csv"
    rc = main(["check-assumptions", "--model", f"custom:{mod}",
               "--output", str(out)])
    assert rc == 0
    assert json.loads(out.with_suffix(".json").read_text())["assumptions"]["passed"]

    empty = tmp_path / "empty.py"
    empty.write_text("X = 1\n")
    assert main(["check-assumptions", "--model", f"custom:{empty}",
                 "--output", str(out)]) == 2
    assert main(["check-assumptions", "--model", "custom:/nope/missing.py",
                 "--output", str(out)]) == 2


_UNLOADABLE = {
    "syntax-error": "PROBLEM = (\n",
    # the problem fields before the batch-first interface
    "unknown-keyword": _CUSTOM.replace("SdeProblem.from_pointwise(",
                                       "SdeProblem("),
}


@pytest.mark.parametrize("name", list(_UNLOADABLE))
def test_custom_model_that_fails_to_load_exits_2(tmp_path, name):
    mod = tmp_path / "broken_model.py"
    mod.write_text(_UNLOADABLE[name])
    out = tmp_path / "a.csv"
    rc = main(["check-assumptions", "--model", f"custom:{mod}",
               "--output", str(out)])
    assert rc == 2
    assert not out.exists()


_MISSHAPEN_CUSTOM = """
import numpy as np
from sde_longtime import MonotoneConstants, SdeProblem

PROBLEM = SdeProblem(
    name="ou2", d=2, m=1,
    drift_batch=lambda X: -X[:, :1],
    diffusion_apply=lambda X, dW: 0.1 * np.repeat(dW, 2, axis=1),
    constants=MonotoneConstants(alpha1=0.9, p_star=2.0, kappa=1.0, c1=1.01))
"""


def test_custom_model_with_misshapen_batch_drift_exits_2(tmp_path):
    # d = 2 with a drift batch of shape (B, 1): numpy would broadcast it into
    # a plausible curve, so the run must stop at load time instead
    mod = tmp_path / "bad_model.py"
    mod.write_text(_MISSHAPEN_CUSTOM)
    out = tmp_path / "c.csv"
    rc = main(["convergence", "--model", f"custom:{mod}", "--T", "1",
               "--h-list", "2^-2,2^-3", "--h-ref", "2^-4", "--paths", "8",
               "--threads", "1", "--output", str(out)])
    assert rc == 2
    assert not out.exists()


def test_negative_seed_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "m.csv"
    rc = main(["moments", "--model", "gl", "--scheme", "be", "--T", "2",
               "--h", "2^-2", "--paths", "8", "--x0", "1", "--seed", "-1",
               "--output", str(out)])
    assert rc == 2
    assert "master seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()
    assert not out.with_suffix(".json").exists()


def test_cli_import_loads_no_scipy():
    code = ("import sys, sde_longtime.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.strip() == "[]"


def test_solver_failure_exits_three(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        exc = SolverFailure("implicit solve diverged", last_iterate=None,
                            residual=1.0, step_index=4, path_index=12)
        exc.t, exc.h = 1.0, 0.25
        raise exc
    monkeypatch.setattr(cli, "moment_trace", boom)
    rc = main(["moments", "--model", "gl", "--T", "2", "--h", "1/4",
               "--paths", "2", "--output", str(tmp_path / "m.csv")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "solver failure: implicit solve diverged (path 12, step 4) "
        "at t=1.0 with h=0.25\n")


def _no_chunk(*args, **kwargs):
    raise AssertionError("a chunk ran")


@pytest.mark.parametrize("args, reason", [
    (["moments", "--T", "1", "--h", "1/4"], "at least 7 steps"),
    (["convergence", "--T", "1", "--h-list", "2^-3,2^-4", "--h-ref", "2^-4"],
     "two steps above h_ref"),
])
def test_a_run_too_short_for_its_check_is_refused_before_any_chunk(
        args, reason, tmp_path, monkeypatch, capsys):
    """A trace of fewer than 8 records has no stationarity gap, and a ladder
    with fewer than two steps above h_ref no order to fit: both are usage
    errors known from the options, so no path runs and no file is written."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    out = tmp_path / "r.csv"
    assert main(args + ["--paths", "8", "--output", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


def test_the_shortest_checked_runs_are_accepted(tmp_path):
    out = str(tmp_path / "r.csv")
    assert main(["moments", "--T", "7/4", "--h", "1/4", "--paths", "4",
                 "--output", out]) in (0, 1)
    assert main(["convergence", "--T", "1", "--h-list", "2^-2,2^-3,2^-4",
                 "--h-ref", "2^-4", "--paths", "4", "--output", out]) in (0, 1)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
