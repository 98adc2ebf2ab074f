#!/usr/bin/env python3
"""Benchmark for sde-longtime: coupled-path CLI workloads, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, never
from an installed copy, so without ./src the benchmark exits with code 2.

--trace 0 (end to end)
    Repeats one CLI invocation of the workload (see workloads.py) in a child
    process until S seconds are used, cycling through the CLI seeds whose
    outputs are recorded under refs/ in an order set by --seed. Every
    invocation passes through the correctness gate (gate.py). Reports the
    medians over invocations of
      wall_s            process start to exit
      setup_s           process start to problem built: interpreter start,
                        import, parse_config and build_problem
      path_steps_per_s  scheme steps (an exact count, see
                        Workload.path_steps) / (wall - setup)
      peak_rss_mb       the child's peak resident set
--trace 1 (per layer)
    Times each layer's public functions (layers.py), then runs the workload
    in this process through `cli.main`, alternately plain and with tracing
    wrappers (tracer.py), every run gated against the reference. The amount
    of work is fixed; --seconds does not apply.

Every run prints a human-readable summary (with failed_ratio, byte identity
and the machine) and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record of the run goes
to bench/out/<workload>-seed<N>-trace<T>.json.

Children run with SDE_LONGTIME_THREADS removed and BLAS/OpenMP pinned to one
thread, so the worker count the workload sets is the only parallelism.

Regenerate the references (only when outputs change on purpose) with
`python3 bench/record_refs.py`; test the benchmark itself with
`python3 -m pytest bench`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("path_steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

MIN_SAMPLES = 3          # invocations per end-to-end run, even past --seconds,
RUN_LIMIT_S = 150.0      # unless that would pass this limit
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SDE_LONGTIME_THREADS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine() -> dict:
    from importlib.metadata import version
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cores": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def invoke(workload, cli_seed: int, work: Path) -> dict:
    """One CLI invocation in a child process, timed and gated."""
    from gate import check, load_reference

    csv_path = work / f"{workload.name}-{cli_seed}.csv"
    marks_path = work / "marks.json"
    err_path = work / "stderr.txt"
    for path in (csv_path, csv_path.with_suffix(".json"), marks_path):
        path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "cli_child.py"), str(marks_path)]
    argv += workload.cli_args(cli_seed, str(csv_path))
    done = threading.Event()
    with open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            if not done.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            done.set()
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"cli_seed": cli_seed, "exit_code": proc.returncode,
              "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        marks = json.loads(marks_path.read_text())
        sample["setup_s"] = marks["setup_done"] - t0
        outputs = csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()
    except (OSError, KeyError, ValueError) as exc:
        sample["problems"] = [f"no outputs: {exc}",
                              err_path.read_text(errors="replace")[-2000:]]
        sample["identical"] = False
        return sample
    result = check(proc.returncode, *outputs, load_reference(workload.name, cli_seed))
    sample["problems"], sample["identical"] = result.problems, result.identical
    return sample


def run_end_to_end(workload, seed: int, seconds: float, work: Path):
    from workloads import seed_schedule

    schedule = seed_schedule(seed)
    samples = []
    start = time.monotonic()
    while True:
        samples.append(invoke(workload, schedule[len(samples) % len(schedule)],
                              work))
        elapsed = time.monotonic() - start
        typical = statistics.median(s["wall_s"] for s in samples)
        enough = (len(samples) >= MIN_SAMPLES
                  or elapsed + CHILD_TIMEOUT_S > RUN_LIMIT_S)
        if enough and elapsed + typical > seconds:
            break
    good = [s for s in samples if not s["problems"]]
    steps = workload.path_steps()
    metrics = {}
    if good:
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in good),
            "setup_s": statistics.median(s["setup_s"] for s in good),
            "path_steps_per_s": statistics.median(
                steps / (s["wall_s"] - s["setup_s"]) for s in good),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in good),
        }
    return samples, metrics, dict(END_TO_END)


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------

def _cli_main_in_process(workload, cli_seed: int, work: Path):
    """cli.main on the workload in this process, timed and gated."""
    from gate import check, load_reference
    from sde_longtime import cli

    csv_path = work / f"{workload.name}-{cli_seed}-inproc.csv"
    argv = workload.cli_args(cli_seed, str(csv_path))
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except Exception:               # a crash is a failed run, not a dead benchmark
        traceback.print_exc()
        code = None
    sample = {"cli_seed": cli_seed, "exit_code": code,
              "wall_s": time.perf_counter() - t0,
              "cpu_s": time.process_time() - c0}
    try:
        outputs = csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes()
    except OSError as exc:
        sample.update(problems=[f"no outputs: {exc}"], identical=False)
        return sample
    result = check(code, *outputs, load_reference(workload.name, cli_seed))
    sample["problems"], sample["identical"] = result.problems, result.identical
    return sample


def _install(tracer) -> None:
    """Wrap the module attributes through which the layers call each other."""
    import sde_longtime.cli as cli
    import sde_longtime.schemes as schemes
    import sde_longtime.simulate as simulate

    for module, attr, layer in (
            (cli, "parse_config", "cli"),
            (cli, "build_problem", "model"),
            (cli, "strong_error_experiment", "simulate"),
            (cli, "moment_trace", "simulate"),
            (cli, "make_convergence_report", "analysis"),
            (cli, "stationarity_gap", "analysis"),
            (simulate, "path_generator", "noise"),
            (simulate, "pairwise_block_sum", "noise"),
            (simulate, "step_batch", "schemes"),
            (simulate, "estimate_from_samples", "simulate"),
            (schemes, "solve_implicit_batch", "schemes"),
            (schemes, "drift_rows", "model"),
            (cli, "main", "cli")):
        tracer.wrap(module, attr, layer)


def _trace_metrics(tracer, cpu: float) -> dict:
    """Per-layer metrics of one traced run; `cpu` is the process CPU time
    the run took, so code outside any wrapper (such as the engine's loop on
    worker threads) is in the denominator of the CPU shares."""
    functions = tracer.functions()
    root = functions["cli.main"]
    wall = root["total_s"]
    analysis_end = max(f["last_end"] for f in functions.values()
                       if f["layer"] == "analysis")
    metrics = {"trace.wall_s": wall,
               "cli.write_s": root["last_end"] - analysis_end}
    layers = tracer.layers()
    for name, agg in layers.items():
        metrics[f"trace.{name}.calls"] = agg["calls"]
        metrics[f"trace.{name}.total_s"] = agg["total_s"]
        metrics[f"trace.{name}.self_s"] = agg["self_s"]
        metrics[f"trace.{name}.self_share"] = agg["self_s"] / wall
        metrics[f"trace.{name}.cpu_share"] = agg["self_cpu_s"] / cpu
    functions = {k: dict(v, total_share=v["total_s"] / wall,
                         cpu_share=v["total_cpu_s"] / cpu)
                 for k, v in functions.items()}
    return metrics, functions


def traced_run(workload, cli_seed: int, work: Path, pairs: int = 2):
    """Alternating plain and traced in-process runs of the workload.

    Returns (samples, metrics, detail): each per-layer metric is the median
    over the traced runs, and the overhead is the difference between the
    median traced and the median plain wall time.
    """
    from tracer import Tracer

    samples, plain, traced = [], [], []
    for _ in range(pairs):
        samples.append(_cli_main_in_process(workload, cli_seed, work))
        plain.append(samples[-1]["wall_s"])
        tracer = Tracer()
        _install(tracer)
        try:
            samples.append(_cli_main_in_process(workload, cli_seed, work))
        finally:
            tracer.restore()
        traced.append(_trace_metrics(tracer, samples[-1]["cpu_s"]))
    metrics = {k: statistics.median(m[k] for m, _ in traced)
               for k in traced[0][0]}
    metrics["trace.overhead_s"] = (
        statistics.median(s["wall_s"] for s in samples[1::2])
        - statistics.median(plain))
    detail = {"functions": traced[-1][1], "untraced_in_process_wall_s": plain}
    return samples, metrics, detail


def run_per_layer(workload, seed: int, work: Path):
    import layers
    from sde_longtime import cli
    from workloads import seed_schedule, worker_threads

    metrics = {}
    metrics.update(layers.measure_noise(seed))
    metrics.update(layers.measure_model(seed))
    metrics.update(layers.measure_schemes(seed))
    metrics.update(layers.measure_simulate(seed, worker_threads(2)))
    metrics.update(layers.measure_imports(child_env()))
    metrics["simulate.path_steps"] = workload.path_steps()
    argv = workload.cli_args(1, str(work / "parse.csv"))
    metrics["cli.parse_s"] = layers.per_call(lambda: cli.parse_config(argv),
                                             min_reps=20)
    samples, traced, detail = traced_run(workload, seed_schedule(seed)[0], work)
    metrics.update(traced)
    units = dict(layers.PER_LAYER)
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics do not match PER_LAYER: {sorted(missing)}")
    return samples, metrics, units, detail


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sde_longtime" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    os.environ.pop("SDE_LONGTIME_THREADS", None)
    os.environ.update(PINNED_THREADS)      # before numpy is imported
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            samples, metrics, units, detail = run_per_layer(workload, args.seed, work)
        else:
            samples, metrics, units = run_end_to_end(
                workload, args.seed, args.seconds, work)
            detail = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    identical = sum(1 for s in samples if s["identical"])
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": machine(), "attempted": len(samples), "failed": failed,
              "failed_ratio": failed / len(samples),
              "outputs_identical": identical == len(samples),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "samples": samples, **detail}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    m = record["machine"]
    print(f"# {workload.name}  seed={args.seed}  trace={args.trace}  "
          f"cores={m['cores']}  cpu={m['cpu']!r}  python={m['python']}  "
          f"numpy={m['numpy']}  scipy={m['scipy']}")
    for s in samples:
        if s["problems"]:
            print(f"# FAILED cli seed {s['cli_seed']}: " + "; ".join(s["problems"][:5]))
    print(f"{'failed_ratio':<40} {record['failed_ratio']:.4f} ratio"
          f"  ({failed}/{len(samples)} runs)")
    print(f"{'outputs_identical':<40} {identical}/{len(samples)} runs "
          "byte-identical to the reference")
    for name, value in metrics.items():
        print(f"{name:<40} {value:.6g} {units[name]}"
              + ("" if args.trace else f"  (median of {len(samples) - failed})"))
    if args.trace:
        print("# traced function                 calls   total_s  of wall  of cpu")
        for key, f in sorted(detail["functions"].items(),
                             key=lambda kv: -kv[1]["total_cpu_s"]):
            print(f"# {key:<30} {f['calls']:>7} {f['total_s']:>9.4f} "
                  f"{f['total_share']:>8.1%} {f['cpu_share']:>7.1%}")
    print(f"# full record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and bool(metrics),
                      "attempted": len(samples), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
