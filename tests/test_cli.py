"""Command-line interface: exact rationals, config merging, outputs, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_outputs_byte_identical_across_thread_counts(tmp_path):
    paths = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"{name}.csv"
        rc = main(_CONV + ["--band", "5", "--r2-min", "0", "--threads", threads,
                           "--output", str(out)])
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


def test_a_projected_run_from_a_huge_start_keeps_its_records(tmp_path):
    """Projected Euler from 1e200, a state whose plain norm overflows,
    is projected onto the sphere as from 1e100: every record after the
    start is the 1e100 run's, bit for bit, not the origin's 0."""
    rows = []
    for x0 in ("1e200", "1e100"):
        out = tmp_path / f"{x0}.csv"
        assert main(["moments", "--model", "gl", "--scheme", "pe", "--T", "1",
                     "--h", "1/8", "--x0", x0, "--paths", "8", "--threads",
                     "1", "--output", str(out)]) == 0
        rows.append([dict(zip(COLUMNS, line.split(","))) for line
                     in out.read_text().splitlines() if line[0] != "#"][1:])
    assert rows[0][1]["t"] == "0.125"
    assert rows[0][1]["value"] == "0.8034098599769288"
    assert rows[0][1:] == rows[1][1:]


def test_a_moments_run_from_a_huge_start_writes_its_norm(tmp_path):
    """At p = 1/2 the t = 0 record from 1e200, a state whose plain norm
    overflows, is 1e200 +- 0, as from 1e100 it is 1e100."""
    out = tmp_path / "m.csv"
    main(["moments", "--model", "gl", "--scheme", "be", "--T", "2", "--h",
          "1/4", "--paths", "4", "--threads", "1", "--x0", "1e200", "--p",
          "0.5", "--output", str(out)])
    assert out.read_text().splitlines()[3] == (
        "moments,gl,be,0.5,0.25,0.0,1e+200,0.0,4,0")


def test_a_divergent_moments_run_writes_its_recorded_bytes(tmp_path):
    """Explicit Euler from 2 at h = 1/4 loses 10 of 600 paths; its CSV
    and JSON are pinned by their sha256. The estimates are functions of
    exact sums rounded once, so any exact summation writes these bytes,
    and a change that moves one bit of an estimate fails here."""
    out = tmp_path / "m.csv"
    rc = main(["moments", "--model", "gl", "--scheme", "em", "--T", "8",
               "--h", "1/4", "--paths", "600", "--x0", "2", "--seed", "3",
               "--output", str(out)])
    assert rc == 1
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, out.with_suffix(".json"))]
    assert digests == [
        "fc6ffd3fa36d969f76ff274980fa06217700caf6837ce33e5742384ec3fc1574",
        "85ddf78b4993163ca4463c99cff5744819584fe9a7ba0531d4e42546029db6d1"]


def test_a_backward_euler_ladder_writes_its_recorded_bytes(tmp_path):
    """A GL backward-Euler ladder: every root comes from the implicit
    solve, so a change that moves one bit of any root, or of an estimate,
    fails here. Allen-Cahn is not pinned: its drift's `X @ A` goes
    through BLAS, whose kernel may differ between machines."""
    out = tmp_path / "c.csv"
    rc = main(["convergence", "--model", "gl", "--scheme", "be", "--T", "1",
               "--h-list", "1/8,1/16,1/32", "--h-ref", "1/128",
               "--paths", "600", "--seed", "3", "--band", "5",
               "--r2-min", "0", "--output", str(out)])
    assert rc == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, out.with_suffix(".json"))]
    assert digests == [
        "b1e305faecbbdf85ceaa781caca4b767316f476b7156260cf27e43b185b77ec6",
        "d03582d3ac91c881209b254a6080294e411a92193a999e4d38dee41de5a4d182"]


def test_a_long_backward_euler_ladder_writes_its_recorded_bytes(tmp_path):
    """A GL backward-Euler ladder over 4,096 fine steps, which the engine
    draws in several noise blocks: the block boundaries must not move
    one bit of a root or an estimate."""
    out = tmp_path / "c.csv"
    rc = main(["convergence", "--model", "gl", "--scheme", "be", "--T", "4",
               "--h-list", "1/8,1/16,1/32", "--h-ref", "1/1024",
               "--paths", "64", "--seed", "3", "--band", "5",
               "--r2-min", "0", "--output", str(out)])
    assert rc == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, out.with_suffix(".json"))]
    assert digests == [
        "630fbf5b62c996795394d633bc9ff9f75f951b2eac66fc0d76494a7ffc06d58a",
        "2ea32513c5797a8e711d6dd43fd89a49883d3001815a397cccb4bad8ba5243ee"]


def test_a_long_moments_trace_writes_its_recorded_bytes(tmp_path):
    """A GL explicit-Euler moment trace over 2,048 fine steps, drawn in
    several noise blocks, is pinned by the sha256 of its CSV and JSON."""
    out = tmp_path / "m.csv"
    rc = main(["moments", "--model", "gl", "--scheme", "em", "--T", "32",
               "--h", "1/64", "--paths", "64", "--x0", "2", "--seed", "3",
               "--output", str(out)])
    assert rc == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, out.with_suffix(".json"))]
    assert digests == [
        "cf032f790e0ea05b002d2a6e30afe85cdfe33bae54de31df9af61c411bb4a767",
        "77dbf79b45196a60c94522de96719d8b48536c88e948243b15d5c7bb592487e1"]


def test_a_contraction_trace_writes_its_recorded_bytes(tmp_path):
    """A GL backward-Euler contraction trace whose every estimate is
    finite: its rows and its summary sidecar (values, standard errors,
    decay slope) are pinned by their sha256."""
    out = tmp_path / "c.csv"
    rc = main(["contractivity", "--model", "gl", "--scheme", "be", "--T", "8",
               "--h", "1/4", "--x0", "1", "--y0", "0", "--paths", "64",
               "--seed", "2", "--threads", "1", "--output", str(out)])
    assert rc == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, out.with_suffix(".json"))]
    assert digests == [
        "1380c94385be333aecff456d26ece6293263f18392490b7d9e5152d4ba773249",
        "7a7a9e306eae2ba063983503e62489961c3f67640ec15b39ee57ec26f57bde32"]


def test_an_assumption_check_writes_its_recorded_bytes(tmp_path):
    """The GL assumption check: its three rows and its sidecar (each
    check's report, the claimed constants, p* and the theorem's p range)
    are pinned by their sha256."""
    out = tmp_path / "a.csv"
    assert main(["check-assumptions", "--model", "gl",
                 "--output", str(out)]) == 0
    digests = [hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (out, out.with_suffix(".json"))]
    assert digests == [
        "5c16a7497f4c8c3c9c22f6a7ba06d524cda9678c6030f9746f217f50482780c7",
        "a328a219029b8eeed300fa38cccd67514bd0872daae91d5ca94fc2562976add9"]


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


@pytest.mark.parametrize("x0, y0, T", [("1e200", "-1e200", "4"),
                                       ("100", "50", "8")])
def test_a_diverged_contraction_trace_fails_without_a_fit(tmp_path, x0, y0,
                                                          T):
    """Explicit Euler at h = 1 from far apart: the gap's estimate is
    infinite at some record, and from 1e200 every path then diverges, so
    fewer than two positive values remain. No decay is fitted through
    that: the run writes its outputs, exits 1 and reports no slope."""
    out = tmp_path / "c.csv"
    rc = main(["contractivity", "--model", "gl", "--scheme", "em", "--T", T,
               "--h", "1", "--x0", x0, f"--y0={y0}", "--paths", "8",
               "--threads", "1", "--output", str(out)])
    assert rc == 1
    side = json.loads(out.with_suffix(".json").read_text())["contractivity"]
    assert math.inf in side["values"]
    assert side["decay_slope_2p"] is None and side["passed"] is False


def test_a_ladder_level_without_survivors_fails_the_report(tmp_path):
    """Explicit Euler from 3 loses all 64 paths at h = 1/2 but not at 1 or
    1/4. That level is excluded with a note naming it and why, not as an
    error at the solver floor, and the report fails."""
    out = tmp_path / "c.csv"
    rc = main(["convergence", "--model", "gl", "--scheme", "em", "--T", "4",
               "--h-list", "1,1/2,1/4", "--h-ref", "1/64", "--x0", "3",
               "--paths", "64", "--threads", "1", "--output", str(out)])
    assert rc == 1
    report = json.loads(out.with_suffix(".json").read_text())["report"]
    assert (report["hs"], report["excluded_hs"]) == ([1.0, 0.25], [0.5])
    assert report["notes"][0] == "excluded h=0.5: all 64 paths diverged"
    assert report["slope"] is not None and report["passed"] is False


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


def test_check_assumptions_at_a_sigma_whose_square_underflows(tmp_path):
    """sigma = 1e-200 squares to 0: the claimed p* is PSTAR_CAP, with no
    ZeroDivisionError, and the run certifies it."""
    out = tmp_path / "a.csv"
    assert main(["check-assumptions", "--model", "gl", "--sigma", "1e-200",
                 "--output", str(out)]) == 0
    side = json.loads(out.with_suffix(".json").read_text())["assumptions"]
    assert side["claimed"]["p_star"] == side["max_feasible_pstar"] == 64.0


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


def test_custom_model_file(tmp_path, capsys):
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
    # importlib finds no loader for a file that is not a .py module
    text = tmp_path / "ou_model.txt"
    text.write_text(_CUSTOM)
    capsys.readouterr()
    assert main(["check-assumptions", "--model", f"custom:{text}",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot load custom model from {text}\n")


def test_a_custom_model_names_the_default_output_by_its_file_stem(
        tmp_path, monkeypatch):
    """The default name is <command>_<model>_<scheme>.csv in the working
    directory, with the custom model file's stem as <model>."""
    (tmp_path / "models").mkdir()
    mod = tmp_path / "models" / "ou.py"
    mod.write_text(_CUSTOM)
    (tmp_path / "runs").mkdir()
    monkeypatch.chdir(tmp_path / "runs")
    assert main(["check-assumptions", "--model", f"custom:{mod}"]) == 0
    assert sorted(os.listdir(tmp_path / "runs")) == [
        "check_assumptions_ou_be.csv", "check_assumptions_ou_be.json"]


def test_a_custom_model_claims_its_constants_as_floats(tmp_path):
    """Constants given as a Fraction, an int and an np.float64 are kept as
    the floats they were checked as: the sidecar can hold them, and the
    CSV's p column reads the claimed p* as a float."""
    mod = tmp_path / "ou_model.py"
    mod.write_text("from fractions import Fraction\n" + _CUSTOM.replace(
        "alpha1=0.9, p_star=2.0, kappa=1.0, c1=1.01",
        "alpha1=Fraction(1, 2), p_star=3, kappa=1, c1=np.float64(4)"))
    out = tmp_path / "a.csv"
    assert main(["check-assumptions", "--model", f"custom:{mod}",
                 "--output", str(out)]) == 0
    claimed = json.loads(out.with_suffix(".json").read_text())[
        "assumptions"]["claimed"]
    assert claimed == {"alpha1": 0.5, "p_star": 3.0, "kappa": 1.0,
                       "c1": 4.0, "beta1": None}
    assert all(type(v) is float for v in claimed.values() if v is not None)
    row = dict(zip(COLUMNS, out.read_text().splitlines()[3].split(",")))
    assert row["p"] == "3.0"


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


@pytest.mark.parametrize("args", [
    ["convergence", "--T", "1", "--h-list", "2^-2,2^-3", "--h-ref", "2^-4",
     "--paths", "8"],
    ["check-assumptions"],
], ids=["convergence", "check-assumptions"])
def test_custom_model_with_an_infinite_constant_exits_2_before_any_chunk(
        args, tmp_path, monkeypatch, capsys):
    """p* = inf has no admissible moment range (floor(inf) overflows): the
    model fails to load, so no path runs and no file is written, instead of
    a traceback with exit 1, the code of a failed check."""
    mod = tmp_path / "inf_model.py"
    mod.write_text(_CUSTOM.replace("p_star=2.0", "p_star=float('inf')"))
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    out = tmp_path / "r.csv"
    assert main(args + ["--model", f"custom:{mod}", "--output", str(out)]) == 2
    assert "p_star must be finite" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


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
    assert "master seed must be an integer >= 0" in capsys.readouterr().err
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


@pytest.mark.parametrize("model", ["gl", "allen-cahn"])
def test_backward_euler_runs_from_a_large_start(model, tmp_path):
    """From x0 = 1e5 the first implicit step's root is exact only to the
    rounding of its terms, which the solve accepts."""
    out = tmp_path / "m.csv"
    assert main(["moments", "--model", model, "--scheme", "be", "--x0",
                 "100000", "--T", "1", "--h", "1/8", "--paths", "64",
                 "--threads", "1", "--output", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())["moments"]
    assert summary["values"][0] >= 100000.0
    assert summary["max_divergent"] == 0


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


_MOMENTS_RUN = ["moments", "--model", "gl", "--scheme", "be", "--T", "2",
                "--h", "1/4", "--paths", "8", "--threads", "1"]


def test_an_output_directory_exits_2_before_any_chunk(
        tmp_path, monkeypatch, capsys):
    """An --output that names a directory cannot be written: a usage error
    known from the options, so no path runs."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    assert main(_MOMENTS_RUN + ["--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path}: it is a directory\n")
    assert os.listdir(tmp_path) == []


def test_a_sidecar_directory_exits_2_before_any_chunk(
        tmp_path, monkeypatch, capsys):
    """The JSON sidecar's path is checked with the CSV's: a directory there
    is refused before any path runs, and no CSV is left behind."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    (tmp_path / "r.json").mkdir()
    out = tmp_path / "r.csv"
    assert main(_MOMENTS_RUN + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {tmp_path / 'r.json'}: it is a directory\n")
    assert os.listdir(tmp_path) == ["r.json"]


def test_a_sidecar_that_cannot_be_written_removes_its_csv(
        tmp_path, monkeypatch, capsys):
    """A sidecar that becomes unwritable during the run (here, a directory
    made at its path) is a usage error that leaves no CSV without it."""
    out = tmp_path / "r.csv"
    trace = cli.moment_trace

    def trace_then_block(*args, **kwargs):
        out.with_suffix(".json").mkdir()
        return trace(*args, **kwargs)

    monkeypatch.setattr(cli, "moment_trace", trace_then_block)
    assert main(_MOMENTS_RUN + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["r.json"]


def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    """A write that fails (here, below a file) is a usage error with one
    error line, not a traceback with exit 1, the code of a failed check."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "m.csv"
    assert main(_MOMENTS_RUN + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_an_output_that_names_its_own_sidecar_exits_2_before_any_chunk(
        tmp_path, monkeypatch, capsys):
    """An --output ending in .json names the CSV and its sidecar alike, so
    the sidecar would overwrite the CSV: refused before any path runs."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    out = tmp_path / "r.json"
    assert main(_MOMENTS_RUN + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: it names its own sidecar\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("args", [
    ["moments", "--T", "16", "--h", "2"],
    ["convergence", "--T", "8", "--h-list", "2,1", "--h-ref", "1/2"],
])
def test_a_projected_step_above_one_exits_2_before_any_chunk(
        args, tmp_path, monkeypatch, capsys):
    """Projected Euler takes no step above 1, which is known from the
    options: no path runs and no file is written."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    out = tmp_path / "r.csv"
    assert main(args + ["--scheme", "pe", "--paths", "8",
                        "--output", str(out)]) == 2
    assert "projection requires h in (0, 1]" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".json").exists()


# One valid run per command, as flag -> text; the property below makes one
# option of it invalid at a time.
_VALID_RUNS = {
    "convergence": {"T": "1", "h-list": "2^-2,2^-3", "h-ref": "2^-4",
                    "paths": "4"},
    "moments": {"T": "2", "h": "1/4", "paths": "4"},
    "contractivity": {"T": "2", "h": "1/4", "paths": "4", "y0": "0"},
    "check-assumptions": {},
}

_GARBAGE = st.sampled_from(["", "x", "1,,2", "nan", "inf", "-inf"])
_NOT_POSITIVE = st.integers(-64, 0).map(str)
# positive rationals a float cannot hold exactly, and steps beyond float range
_NOT_A_STEP = st.one_of(
    st.builds(lambda a, b: f"{a}/{b}", st.integers(1, 64),
              st.sampled_from([3, 5, 7, 11])).filter(
                  lambda t: Fraction(t).denominator != 1),
    st.sampled_from(["0.1", "1e400", "2^2000", "2^-1100", "1/2^2000"]),
    st.integers(-64, 0).map(lambda k: f"{k}/4"), _GARBAGE)
_BAD_P = st.one_of(st.floats(max_value=0.0).map(repr), _GARBAGE)
_BAD_R2 = st.one_of(st.floats(min_value=1.0, exclude_min=True).map(repr),
                    st.floats(max_value=0.0, exclude_max=True).map(repr),
                    _GARBAGE)
_NON_FINITE_START = st.one_of(
    st.sampled_from(["nan", "inf", "1,nan", "1e400"]), _GARBAGE)
_BAD_START = st.one_of(_NON_FINITE_START, st.sampled_from(["1,2", "1,2,3,4"]))


def _one(flags, values):
    """{flag: text} for one of `flags` and a drawn value."""
    return st.tuples(st.sampled_from(flags), values).map(lambda kv: dict([kv]))


def _invalid_options(command):
    """Strategies for {flag: text} changes that make `command`'s valid run
    invalid: one bad option value, or a combination its checks refuse."""
    bad = [
        _one(["p"], _BAD_P),
        _one(["band"], st.one_of(_BAD_P, st.just("inf"))),
        _one(["r2-min"], _BAD_R2),
        _one(["paths"], st.one_of(_NOT_POSITIVE, _GARBAGE)),
        _one(["T", "h", "h-ref"], _NOT_A_STEP),
        _one(["h-list"], st.lists(_NOT_A_STEP, min_size=1,
                                  max_size=3).map(",".join)),
        # model parameters: a bad value, one the model does not take, or
        # an unknown model
        _one(["eta", "sigma", "theta"], _GARBAGE),
        _one(["theta"], st.floats(max_value=0.0).map(repr)),
        _one(["eta"], st.floats(0.0, 10.0).map(repr)),  # not dissipative
        _one(["K"], st.one_of(st.integers(-4, 1).map(str), st.just("2.5"),
                              _GARBAGE)).map(
            lambda kv: dict(kv, model="allen-cahn")),
        st.sampled_from([{"K": "4"}, {"model": "allen-cahn", "eta": "-2"},
                         {"model": "carousel"}]),
        _one(["seed"], st.one_of(st.integers(max_value=-1).map(str),
                                 st.just("1.5"), _GARBAGE)),
        _one(["threads"], _NOT_POSITIVE),
        # a start of the wrong dimension fails only the commands that use it
        _one(["x0", "y0"], _NON_FINITE_START),
    ]
    if command != "check-assumptions":
        bad.append(_one(["x0"], _BAD_START))
    if command == "convergence":
        # fewer than two steps above h_ref, h below h_ref, a ratio or a
        # horizon that is not an integer
        bad.append(st.sampled_from([
            {"h-list": "2^-3,2^-4"}, {"h-list": "2^-2,2^-5"},
            {"h-ref": "3/64"}, {"T": "3/8"}, {"h-list": "3/8,3/16"}]))
    if command == "moments":  # fewer than 8 records
        bad.append(st.integers(1, 6).map(lambda n: {"T": f"{n}/4"}))
    if command == "contractivity":
        bad += [_one(["y0"], _BAD_START),
                st.just({"y0": "1"})]  # the starts coincide
    return st.one_of(bad)


@st.composite
def _invalid_run(draw):
    command = draw(st.sampled_from(sorted(_VALID_RUNS)))
    options = dict(_VALID_RUNS[command], **draw(_invalid_options(command)))
    # --flag=text, since argparse reads "-inf" alone as a flag
    return [command] + [f"--{flag}={text}" for flag, text in options.items()]


@settings(max_examples=200, deadline=None)
@given(args=_invalid_run())
def test_any_invalid_invocation_exits_2_before_any_chunk(args):
    """Every command, given an invalid step, ladder, p, band, r2_min, path
    count, seed, worker count, start or model parameter, exits 2 without
    running a chunk or writing a file."""
    with (tempfile.TemporaryDirectory() as tmp,
          pytest.MonkeyPatch.context() as mp):
        mp.setattr(simulate, "_map_chunks", _no_chunk)
        assert main(args + ["--output", os.path.join(tmp, "r.csv")]) == 2
        assert os.listdir(tmp) == []


_FROZEN = """
import numpy as np
from sde_longtime import MonotoneConstants, SdeProblem

PROBLEM = SdeProblem.from_pointwise(
    name="frozen", d=1, m=1, drift=lambda x: 0.0 * x,
    diffusion=lambda x: np.zeros((1, 1)),
    constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.01))
"""


def test_a_ladder_at_the_solver_floor_exits_1_with_outputs(tmp_path):
    """dX = 0 makes every step exact, so every error sits at the solver
    floor and no order can be fitted: a quantitative outcome, reported in
    the outputs with exit code 1, not a usage error."""
    mod = tmp_path / "frozen.py"
    mod.write_text(_FROZEN)
    out = tmp_path / "c.csv"
    rc = main(["convergence", "--model", f"custom:{mod}", "--T", "1",
               "--h-list", "2^-2,2^-3", "--h-ref", "2^-4", "--paths", "4",
               "--output", str(out)])
    assert rc == 1
    assert "0.0,0.0,4,0" in out.read_text()
    report = json.loads(out.with_suffix(".json").read_text())["report"]
    assert report["passed"] is False
    assert (report["hs"], report["excluded_hs"]) == ([], [0.25, 0.125])
    assert report["slope"] is None
    assert report["notes"][-1].startswith("fewer than 2 error points")


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
    # and through the module's own entry point
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "sde_longtime.cli", "--version"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (0, f"{__version__}\n")
