"""Per-layer measurements, taken by calling each layer's public functions.

Layers are the package's modules. Each metric below names, in its comment,
the end-to-end metric and workload it should move:

noise
    generator_setup_us (per `path_generator`)    -> wall_s, gl-em-moments
    normal_draw_ns                                -> path_steps_per_s, gl-em-moments
    coarsen_ns.f16/.f128 (`pairwise_block_sum`,   -> the two ladders; no change
      per input increment)                           expected on gl-em-moments
model
    drift_ns/jacobian_ns/diffusion_ns.<m>.<B>     -> path_steps_per_s, ac-be-ladder
      (per row)
    build_s.<m> (includes the c1 certification)   -> setup_s, every workload
schemes
    step_ns.<scheme>.<m>.<B> (per path step)      -> path_steps_per_s on the
                                                     workload with that scheme and model
    solve_us.<m>.<B> (per batch solve)            -> the two be ladders only
    drift_evals_per_be_step.<m> (exact count,     -> the two be ladders only
      averaged over the ladder's step sizes)
simulate
    thread_speedup (t1/t2, gl-be-ladder shape),   -> wall_s, gl-be-ladder
    cpu_per_wall (of the two-thread run)
    estimate_us (`estimate_from_samples`, 4096)   -> wall_s, gl-em-moments
    path_steps (exact count per invocation)       -> the base of path_steps_per_s
analysis, cli
    analysis.import_s.scipy, cli.import_s          -> setup_s
      (from `python -X importtime`)
    cli.parse_s, cli.write_s                       -> wall_s

The traced run adds, per layer, trace.<layer>.{calls,total_s,self_s} and the
self time's shares of traced wall time (self_share) and of the process CPU
time the traced run took (cpu_share), plus the traced wall time of cli.main and the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

MODELS = ("gl", "ac")
BATCHES = (512, 4096)
SCHEMES = ("em", "pe", "be")
TRACE_LAYERS = ("cli", "model", "simulate", "noise", "schemes", "analysis")

PER_LAYER = (
    [("noise.generator_setup_us", "us"), ("noise.normal_draw_ns", "ns"),
     ("noise.coarsen_ns.f16", "ns"), ("noise.coarsen_ns.f128", "ns")]
    + [(f"model.{kind}_ns.{m}.{b}", "ns")
       for kind in ("drift", "jacobian", "diffusion")
       for m in MODELS for b in BATCHES]
    + [(f"model.build_s.{m}", "s") for m in MODELS]
    + [(f"schemes.step_ns.{s}.{m}.{b}", "ns")
       for s in SCHEMES for m in MODELS for b in BATCHES]
    + [(f"schemes.solve_us.{m}.{b}", "us") for m in MODELS for b in BATCHES]
    + [(f"schemes.drift_evals_per_be_step.{m}", "count") for m in MODELS]
    + [("simulate.thread_speedup", "ratio"), ("simulate.cpu_per_wall", "ratio"),
       ("simulate.estimate_us", "us"), ("simulate.path_steps", "count"),
       ("analysis.import_s.scipy", "s"), ("cli.import_s", "s"),
       ("cli.parse_s", "s"), ("cli.write_s", "s")]
    + [(f"trace.{layer}.{stat}", unit) for layer in TRACE_LAYERS
       for stat, unit in (("calls", "count"), ("total_s", "s"),
                          ("self_s", "s"), ("self_share", "ratio"),
                          ("cpu_share", "ratio"))]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
)

# Each model's ladder workload. Its reference step, where most of a ladder's
# steps are taken, is the step the per-call timings use.
LADDERS = {"gl": WORKLOADS["gl-be-ladder"], "ac": WORKLOADS["ac-be-ladder"]}
STEP_H = {m: float(w.ladder()[1]) for m, w in LADDERS.items()}


def per_call(fn, min_total=0.05, min_reps=3, max_reps=2000) -> float:
    """Median seconds per call of fn(), over enough calls to fill min_total."""
    times = []
    total = 0.0
    while len(times) < min_reps or (total < min_total and len(times) < max_reps):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
    return statistics.median(times)


def _problems():
    from sde_longtime.model import build_allen_cahn, build_ginzburg_landau
    return {"gl": build_ginzburg_landau(), "ac": build_allen_cahn(K=4)}


def _states(rng, model, problem, B):
    """Typical states near the workloads' start x0=1, and increments at STEP_H."""
    X = 1.0 + 0.5 * rng.standard_normal((B, problem.d))
    h = STEP_H[model]
    dW = math.sqrt(h) * rng.standard_normal((B, problem.m))
    return X, dW, h


def measure_noise(seed: int) -> dict:
    import numpy as np
    from sde_longtime.noise import pairwise_block_sum, path_generator

    n_gen = 1024
    out = {"noise.generator_setup_us": 1e6 / n_gen * per_call(
        lambda: [path_generator(seed, i) for i in range(n_gen)])}
    gens = [path_generator(seed, i) for i in range(256)]
    n_t = 4096
    out["noise.normal_draw_ns"] = 1e9 / (len(gens) * n_t) * per_call(
        lambda: [g.standard_normal((n_t, 1)) for g in gens])
    W = np.random.default_rng(seed).standard_normal((512, n_t, 1))
    for f in (16, 128):
        out[f"noise.coarsen_ns.f{f}"] = 1e9 / W.size * per_call(
            lambda: pairwise_block_sum(W, f, axis=1))
    return out


def measure_model(seed: int) -> dict:
    import numpy as np
    from sde_longtime.model import (build_allen_cahn, build_ginzburg_landau,
                                    drift_rows)

    rng = np.random.default_rng(seed)
    out = {}
    for m, problem in _problems().items():
        for B in BATCHES:
            X, dW, _ = _states(rng, m, problem, B)
            out[f"model.drift_ns.{m}.{B}"] = 1e9 / B * per_call(
                lambda: drift_rows(problem, X))
            out[f"model.jacobian_ns.{m}.{B}"] = 1e9 / B * per_call(
                lambda: problem.drift_jacobian_batch(X))
            out[f"model.diffusion_ns.{m}.{B}"] = 1e9 / B * per_call(
                lambda: problem.diffusion_apply(X, dW))
    out["model.build_s.gl"] = per_call(build_ginzburg_landau, min_reps=5)
    out["model.build_s.ac"] = per_call(lambda: build_allen_cahn(K=4), min_reps=5)
    return out


def drift_evals_per_be_step(problem, workload, steps=32, B=512) -> float:
    """Drift batch evaluations per backward-Euler batch step on a ladder.

    Counted through a wrapper on a copy of the problem: `steps` batch steps
    from x0=1 on fixed noise at each step size of the workload's ladder,
    weighted by the number of steps the ladder takes at that size. The inputs
    are fixed, so the count repeats exactly from run to run.
    """
    import numpy as np
    from sde_longtime.schemes import SchemeConfig, step_batch

    calls = [0]
    drift = problem.drift_batch

    def counting(X):
        calls[0] += 1
        return drift(X)

    counted = dataclasses.replace(problem, drift_batch=counting)
    cfg = SchemeConfig(variant="be")
    T, h_ref, hs = workload.ladder()
    weighted = weights = 0
    for h in (h_ref, *hs):
        rng = np.random.default_rng(0)
        Z = np.ones((B, problem.d))
        calls[0] = 0
        for k in range(steps):
            dW = math.sqrt(h) * rng.standard_normal((B, problem.m))
            Z = step_batch(counted, cfg, Z, dW, float(h), step_index=k)
        weighted += (T / h) * calls[0]
        weights += (T / h) * steps
    return float(weighted / weights)


def measure_schemes(seed: int) -> dict:
    import numpy as np
    from sde_longtime.schemes import (SchemeConfig, solve_implicit_batch,
                                      step_batch)

    rng = np.random.default_rng(seed)
    out = {}
    for m, problem in _problems().items():
        for B in BATCHES:
            X, dW, h = _states(rng, m, problem, B)
            for s in SCHEMES:
                cfg = SchemeConfig(variant=s)
                out[f"schemes.step_ns.{s}.{m}.{B}"] = 1e9 / B * per_call(
                    lambda: step_batch(problem, cfg, X, dW, h))
            b = X + problem.diffusion_apply(X, dW)
            out[f"schemes.solve_us.{m}.{B}"] = 1e6 * per_call(
                lambda: solve_implicit_batch(problem, b, h))
        out[f"schemes.drift_evals_per_be_step.{m}"] = drift_evals_per_be_step(
            problem, LADDERS[m])
    return out


def measure_simulate(seed: int, threads: int) -> dict:
    """Estimator cost, and one vs. `threads` workers on a shortened
    gl-be-ladder (T=1, 1024 paths, so two 512-path chunks)."""
    import numpy as np
    from sde_longtime.model import build_ginzburg_landau
    from sde_longtime.schemes import SchemeConfig
    from sde_longtime.simulate import (estimate_from_samples,
                                       strong_error_experiment)

    samples = np.abs(np.random.default_rng(seed).standard_normal(4096))
    out = {"simulate.estimate_us": 1e6 * per_call(
        lambda: estimate_from_samples(samples, 1.0))}
    problem = build_ginzburg_landau()
    kwargs = dict(T=1.0, h_list=[2.0 ** -k for k in range(3, 8)],
                  h_ref=2.0 ** -10, n_paths=1024, master_seed=seed)
    walls, cpus, curves = [], [], []
    for n in (1, threads):
        w0, c0 = time.perf_counter(), time.process_time()
        curves.append(strong_error_experiment(
            problem, SchemeConfig(variant="be"), threads=n, **kwargs))
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    if curves[0] != curves[1]:
        raise RuntimeError("strong_error_experiment differs between 1 and "
                           f"{threads} threads")
    out["simulate.thread_speedup"] = walls[0] / walls[1]
    out["simulate.cpu_per_wall"] = cpus[1] / walls[1]
    return out


def measure_imports(env: dict) -> dict:
    """Import cost from `python -X importtime -c 'import sde_longtime.cli'`:
    scipy's share (self time of every scipy module) and the package total."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sde_longtime.cli"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    scipy_us = 0
    total_us = None
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if not parts[0].isdigit():
            continue                  # the header line
        self_us, cumulative_us, name = int(parts[0]), int(parts[1]), parts[2]
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
        if name == "sde_longtime":
            total_us = cumulative_us
    if total_us is None:
        raise RuntimeError("importtime output has no sde_longtime entry")
    return {"analysis.import_s.scipy": scipy_us / 1e6,
            "cli.import_s": total_us / 1e6}
