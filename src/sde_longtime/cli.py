"""Command-line entry point for the long-time SDE experiments.

Subcommands
-----------
convergence        coupled-path strong error over a step ladder, rate fit
moments            (E|Z_t|^2p)^(1/2p) trace with divergence tagging
contractivity      decay of the coupled two-point gap E|X_t - Y_t|^2p
check-assumptions  sampled certification of the structural conditions

Step sizes are given as exact rationals ("2^-7", "15/2^10", "1/8", "0.125")
and must be binary-representable, so the one-time float realization is exact
and all divisibility checks are literal. Results go to a CSV file (schema
below) plus a JSON sidecar; nothing in either depends on wall-clock time or
worker count, so identical configurations produce byte-identical outputs.

Every option is a flag and a key of the `--config` key=value file, spelled
with underscores for dashes (`--h-list`, `h_list`); a command refuses, as
either, an option it does not read (its --help lists those it reads). Preset,
file and flag values merge as text, preset < file < flag, converted once.

CSV schema: `#`-prefixed comment lines (version, command, options it reads),
then rows of  kind,model,scheme,p,h,t,value,std_error,n_paths,n_divergent
(the `t` column is empty for convergence and assumption rows).

Exit codes: 0 pass, 1 quantitative check failed, 2 usage error, 3 solver
failure. The workers are this process and forked ones (`--threads 1`, or a
platform without fork, runs serially in this process).
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import importlib.util
import json
import re
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import (check_report_bounds, decay_slope,
                       make_convergence_report, stationarity_gap)
from .errors import SolverFailure, UsageError
from .model import (SdeProblem, build_allen_cahn, build_ginzburg_landau,
                    check_contractive_monotone, check_poly_lipschitz,
                    max_feasible_pstar, theorem_admissible_p_max)
from .noise import check_count, check_master_seed, check_positive, check_real
from .schemes import VARIANTS, SchemeConfig, step_ceiling
from .simulate import (contraction_experiment, moment_trace,
                       strong_error_experiment)

__all__ = ["ExperimentConfig", "parse_rational", "parse_config", "run", "main"]

COLUMNS = ("kind", "model", "scheme", "p", "h", "t", "value", "std_error",
           "n_paths", "n_divergent")

# The paper's two step ladders: the cubic scalar model and the stiff lattice.
_LADDERS = {
    "gl": {"model": "gl", "T": "16", "h_list": "2^-3,2^-4,2^-5,2^-6,2^-7",
           "h_ref": "2^-12", "paths": "10000", "p": "1", "x0": "1"},
    "ac": {"model": "allen-cahn", "K": "4", "T": "30",
           "h_list": "15/2^6,15/2^7,15/2^8,15/2^9,15/2^10",
           "h_ref": "15/2^12", "paths": "5000", "p": "1", "x0": "1"},
}

# Figure-style presets, each ladder with backward and projected Euler; flag
# and config-file values override preset entries.
PRESETS = {"gl-fig1": dict(_LADDERS["gl"], scheme="be"),
           "gl-fig2": dict(_LADDERS["gl"], scheme="pe"),
           "ac-fig3": dict(_LADDERS["ac"], scheme="be"),
           "ac-fig4": dict(_LADDERS["ac"], scheme="pe")}


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational step size: 'a', 'a/b', '2^-k', or 'a/2^k'.

    Decimal strings are read as exact decimals ('0.125' -> 1/8), never through
    a float round trip.
    """
    t = str(text).strip()
    m = re.fullmatch(r"([+-]?\d+)\s*/\s*(\d+)\s*\^\s*([+-]?\d+)", t)
    if m:
        num, base, exp = int(m.group(1)), int(m.group(2)), int(m.group(3))
        return Fraction(num) / Fraction(base) ** exp
    m = re.fullmatch(r"(\d+)\s*\^\s*([+-]?\d+)", t)
    if m:
        return Fraction(int(m.group(1))) ** int(m.group(2))
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {text!r} as an exact rational") from exc


def _step(text: str) -> Fraction:
    """A step or horizon: a positive rational that a float holds exactly."""
    fr = parse_rational(text)
    try:
        exact = Fraction(float(fr)) == fr
    except OverflowError:
        exact = False
    if not (fr > 0 and exact):
        raise UsageError("not a positive binary-representable step (a "
                         "power-of-two denominator) within float range")
    return fr


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLI run's options, converted and checked by parse_config."""

    command: str
    model: str = "gl"
    scheme: str = "be"
    T: Optional[Fraction] = None
    h_list: tuple = ()            # Fractions, descending
    h_ref: Optional[Fraction] = None
    h: Optional[Fraction] = None
    n_paths: int = 1000
    p: float = 1.0
    master_seed: int = 0
    threads: Optional[int] = None
    output: Optional[str] = None
    enforce_step_ceiling: bool = False
    x0: tuple = (1.0,)
    y0: tuple = (0.0,)
    band: float = 0.1
    r2_min: float = 0.98
    model_params: dict = field(default_factory=dict)


def _states(text: str) -> tuple:
    return tuple(check_real(float(v), "state") for v in text.split(","))


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

# The built-in models: name -> (builder, the parameters it takes). The
# builders hold the parameters' defaults.
_MODELS = {"gl": (build_ginzburg_landau, ("eta", "sigma", "theta")),
           "allen-cahn": (build_allen_cahn, ("K",))}
_PARAMS = sorted(key for _, takes in _MODELS.values() for key in takes)

# Every option: its key -> the conversion of its text value. Each key is a
# config-file key and, with dashes for underscores, a flag. A preset converts
# to its entries; the parameters of _MODELS go to model_params; the other
# keys are ExperimentConfig fields, which hold the defaults (renamed by
# _FIELDS).
_OPTIONS = {
    "preset": lambda name: PRESETS[name],
    "model": str, "scheme": str,
    "T": _step, "h_ref": _step, "h": _step,
    "h_list": lambda text: tuple(sorted(
        {_step(s) for s in text.split(",")}, reverse=True)),
    "paths": lambda text: check_count(int(text), "paths"),
    "threads": lambda text: check_count(int(text), "threads"),
    "p": lambda text: check_positive(float(text), "p"), "output": str,
    "seed": lambda text: check_master_seed(int(text)),
    "enforce_step_ceiling": lambda text: _BOOLEANS[text.lower()],
    "x0": _states, "y0": _states,
    "eta": float, "sigma": float, "theta": float, "K": int,
    "band": lambda text: check_positive(float(text), "band"),
    "r2_min": float,
}

# Flag arguments beyond a plain text value: choices, help strings, and the
# one flag that takes no value.
_FLAG_ARGUMENTS = {
    "preset": dict(choices=sorted(PRESETS)),
    "model": dict(help=" | ".join([*_MODELS, "custom:<file.py>"])),
    "scheme": dict(choices=VARIANTS),
    "h_list": dict(help="comma-separated exact rationals"),
    "enforce_step_ceiling": dict(action="store_const", const="true"),
}
_FIELDS = {"paths": "n_paths", "seed": "master_seed"}

# Each command: the options it cannot run without, and the others it reads
# besides --config and _ALWAYS. It refuses the rest and its --help hides them.
_ALWAYS = ("model", *_PARAMS, "scheme", "output")
_RUN = ("paths", "p", "seed", "threads", "x0", "enforce_step_ceiling")
_COMMANDS = {"convergence": (("T", "h_list", "h_ref"),
                             ("preset", *_RUN, "band", "r2_min")),
             "moments": (("T", "h"), _RUN),
             "contractivity": (("T", "h"), (*_RUN, "y0")),
             "check-assumptions": ((), ())}
_READS = {name: {*_ALWAYS, *needs, *others}
          for name, (needs, others) in _COMMANDS.items()}
_ECHO = ("model", "scheme", "seed", "paths", "p", "T", "h_list", "h_ref", "h",
         "x0", "y0", *_PARAMS, "enforce_step_ceiling")


def _convert(key: str, text: str):
    """The value of option `key` from its text; UsageError if malformed."""
    try:
        return _OPTIONS[key](text)
    except UsageError as exc:
        raise UsageError(f"invalid {key}: {text!r}: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise UsageError(f"invalid {key}: {text!r}") from exc


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        out[key] = value
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sde-longtime",
        description="Long-time strong approximation experiments for dissipative SDEs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key=value file; flags override it")
        for key in _OPTIONS:  # every flag parses, to be refused by name
            hidden = {} if key in _READS[name] else {"help": argparse.SUPPRESS}
            sp.add_argument("--" + key.replace("_", "-"),
                            **{**_FLAG_ARGUMENTS.get(key, {}), **hidden})
    return parser


def parse_config(argv: Optional[Sequence[str]] = None) -> ExperimentConfig:
    """Merge preset < config file < flags into a validated ExperimentConfig."""
    args = vars(_build_parser().parse_args(argv))
    command, config = args.pop("command"), args.pop("config")
    merged = _read_config_file(config) if config else {}
    merged.update((key, text) for key, text in args.items() if text is not None)
    refused = [key for key in merged if key not in _READS[command]]
    if refused:
        raise UsageError(f"{command} does not read " + " and ".join(
            "--" + key.replace("_", "-") for key in refused))
    if "preset" in merged:  # its entries, under the values given
        merged = {**_convert("preset", merged.pop("preset")), **merged}
    values = {key: _convert(key, text) for key, text in merged.items()}
    model_params = {key: values.pop(key) for key in _PARAMS if key in values}
    cfg = ExperimentConfig(command=command, model_params=model_params,
                           **{_FIELDS.get(key, key): value
                              for key, value in values.items()})
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    """The rules that neither build_problem nor the experiments check
    before they run."""
    check_report_bounds(cfg.band, cfg.r2_min)
    paths = _output_paths(cfg)
    if paths[0] == paths[1]:
        raise UsageError(f"cannot write {paths[0]}: it names its own sidecar")
    for out in paths:
        if out.is_dir():
            raise UsageError(f"cannot write {out}: it is a directory")
    missing = [key for key in _COMMANDS[cfg.command][0] if not getattr(cfg, key)]
    if missing:
        raise UsageError(f"{cfg.command} needs " + " and ".join(
            "--" + key.replace("_", "-") for key in missing))
    # the outcome checks' own needs, refused before the run: the stationarity
    # gap of `moments` reads at least 8 records, and a trace of n steps has
    # min(n, 100) + 1; the order fit of `convergence` needs two errors, and
    # a step equal to h_ref has error 0 by the coupling
    if cfg.command == "moments" and cfg.T / cfg.h < 7:
        raise UsageError(f"moments needs at least 7 steps (8 records), "
                         f"got T/h = {cfg.T / cfg.h}")
    if (cfg.command == "convergence"
            and sum(h > cfg.h_ref for h in cfg.h_list) < 2):
        raise UsageError("convergence needs at least two steps above "
                         "h_ref to fit an order")


def build_problem(cfg: ExperimentConfig) -> SdeProblem:
    """The configured model; UsageError for an unknown model or a parameter
    the model does not take (a custom model takes none)."""
    builder, takes = _MODELS.get(cfg.model, (None, ()))
    if builder is None and not cfg.model.startswith("custom:"):
        raise UsageError(f"unknown model {cfg.model!r}")
    extra = sorted(set(cfg.model_params) - set(takes))
    if extra:
        raise UsageError(f"model {cfg.model} takes no {', '.join(extra)}")
    if builder is not None:
        return builder(**cfg.model_params)
    path = cfg.model.split(":", 1)[1]
    spec = importlib.util.spec_from_file_location("sde_longtime_custom", path)
    if spec is None or spec.loader is None:
        raise UsageError(f"cannot load custom model from {path}")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
    except Exception as exc:
        raise UsageError(f"cannot load custom model from {path}: {exc}") from exc
    problem = getattr(mod, "PROBLEM", None)
    if not isinstance(problem, SdeProblem):
        raise UsageError(f"{path} must define PROBLEM as an SdeProblem")
    return problem


def _config_echo(cfg: ExperimentConfig) -> str:
    """command=<command>, then each option of _ECHO it reads that is set."""
    def text(value) -> str:
        if isinstance(value, tuple):
            return ",".join(map(text, value))
        return f"{value:g}" if isinstance(value, float) else str(value)

    values = dict(vars(cfg), **cfg.model_params, seed=cfg.master_seed,
                  paths=cfg.n_paths, enforce_step_ceiling=(
                      "true" if cfg.enforce_step_ceiling else None))
    return " ".join([f"command={cfg.command}"] + [
        f"{key}={text(values[key])}" for key in _ECHO
        if key in _READS[cfg.command] and values.get(key) is not None])


def _output_paths(cfg: ExperimentConfig) -> tuple:
    """The CSV and its JSON sidecar; a custom model is named by its file stem."""
    model = Path(cfg.model.removeprefix("custom:")).stem
    path = Path(cfg.output or f"{cfg.command.replace('-', '_')}_{model}_"
                f"{cfg.scheme}.csv")
    return path, path.with_suffix(".json")


def _write_outputs(cfg: ExperimentConfig, rows, entry: dict) -> None:
    """The CSV and its JSON sidecar, which holds `entry`, the config echo
    and the version; UsageError if either cannot be written, and a CSV
    whose sidecar cannot be written is removed."""
    path, sidecar_path = _output_paths(cfg)
    echo = _config_echo(cfg)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(f"# sde-longtime {__version__}\n# {echo}\n")
            writer = csv.writer(fh)
            writer.writerow(COLUMNS)
            writer.writerows([row.get(c) for c in COLUMNS] for row in rows)
        try:
            with open(sidecar_path, "w") as fh:
                json.dump(dict(entry, config=echo, version=__version__), fh,
                          indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            path.unlink()
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _enforce_ceiling(cfg: ExperimentConfig, problem: SdeProblem, hs,
                     h_ref: Optional[Fraction] = None) -> None:
    """With --enforce-step-ceiling, refuse a step above the scheme's theorem
    ceiling and, against h_ref, a ladder that is not a power of two."""
    if not cfg.enforce_step_ceiling:
        return
    ceiling = step_ceiling(cfg.scheme, cfg.p, problem.constants.alpha1)
    for hv in hs:
        ratio = hv / (h_ref or hv)
        if ratio.numerator & (ratio.numerator - 1):
            raise UsageError(
                f"--enforce-step-ceiling requires a dyadic ladder; "
                f"h={hv} is {ratio} x h_ref")
        if float(hv) > ceiling * (1.0 + 1e-12):
            raise UsageError(
                f"h={hv} exceeds the {cfg.scheme} theorem ceiling {ceiling:g}")


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    scheme_cfg = SchemeConfig(variant=cfg.scheme)
    problem = build_problem(cfg)
    base = {"model": problem.name, "scheme": cfg.scheme}
    paths = dict(n_paths=cfg.n_paths, p=cfg.p, master_seed=cfg.master_seed,
                 x0=cfg.x0, threads=cfg.threads)

    if cfg.command == "convergence":
        _enforce_ceiling(cfg, problem, cfg.h_list, cfg.h_ref)
        curve = strong_error_experiment(
            problem, scheme_cfg, T=float(cfg.T),
            h_list=[float(h) for h in cfg.h_list], h_ref=float(cfg.h_ref),
            **paths)
        report = make_convergence_report(
            curve, band=cfg.band, r2_min=cfg.r2_min, constants=problem.constants)
        rows = [dict(base, kind="convergence", h=h, **asdict(e))
                for h, e in zip(curve.hs, curve.estimates)]
        entry, passed = {"report": asdict(report)}, report.passed
    elif cfg.command in ("moments", "contractivity"):
        _enforce_ceiling(cfg, problem, [cfg.h])
        trace = dict(T=float(cfg.T), h=float(cfg.h), **paths)
        if cfg.command == "moments":
            times, ests = moment_trace(problem, scheme_cfg, **trace)
        else:
            times, ests = contraction_experiment(
                problem, scheme_cfg, y0=cfg.y0, **trace)
        rows = [dict(base, kind=cfg.command, h=trace["h"], t=float(t),
                     **asdict(e)) for t, e in zip(times, ests)]
        values = [e.value for e in ests]
        summary = {"times": [float(t) for t in times], "values": values,
                   "std_errors": [e.std_error for e in ests],
                   "n_divergent": [e.n_divergent for e in ests]}
        if cfg.command == "moments":
            gap, sup, ratio = stationarity_gap(times, values)
            n_div = max(e.n_divergent for e in ests)
            passed = (n_div == 0) and (ratio <= 0.10)
            summary.update(stationarity={"gap": gap, "sup": sup, "ratio": ratio},
                           max_divergent=n_div)
        else:
            try:
                slope2p = 2.0 * cfg.p * decay_slope(times, values)
            except UsageError:  # an infinite value or < 2 positive ones
                slope2p = None
            threshold = -2.0 * cfg.p * problem.constants.alpha1 + 0.1
            passed = slope2p is not None and slope2p <= threshold
            summary.update(decay_slope_2p=slope2p, threshold=threshold)
        summary["passed"] = bool(passed)
        entry = {cfg.command: summary}
    else:  # check-assumptions
        mono = check_contractive_monotone(problem)
        poly = check_poly_lipschitz(problem)
        pmax = max_feasible_pstar(problem)
        rows = [dict(base, kind=f"assumption-{kind}",
                     p=problem.constants.p_star, value=value, n_paths=n_pairs)
                for kind, value, n_pairs in (
                    ("contractive_monotone", mono.worst_margin, mono.n_pairs),
                    ("polynomial_lipschitz", poly.worst_margin, poly.n_pairs),
                    ("max_feasible_pstar", pmax, mono.n_pairs))]
        passed = mono.passed and poly.passed
        entry = {"assumptions": {
            **{r.condition: {k: v for k, v in asdict(r).items()
                             if k != "condition" and v is not None}
               for r in (mono, poly)},
            "max_feasible_pstar": pmax,
            "claimed": asdict(problem.constants),
            "p_max_theorem": theorem_admissible_p_max(problem.constants),
            "passed": passed,
        }}

    _write_outputs(cfg, rows, entry)
    return 0 if passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The outputs are closed before `main` returns, so the interpreter's last
    # collections at exit need not walk every object the process still holds
    # (registered once, however often `main` runs).
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        where = ("" if exc.path_index is None else
                 f" (path {exc.path_index}, step {exc.step_index})")
        if exc.t is not None:
            where += f" at t={exc.t} with h={exc.h}"
        print(f"solver failure: {exc}{where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
