"""Acceptance gate: the ten end-to-end criteria at their stated tolerances.

Each test runs one full experiment protocol, records a verdict line on the
scoreboard (printed at the end of the pytest run), and asserts the criterion.
One half is expected to fail for structural reasons documented in the
project notes: the projected scheme on the stiff lattice problem at steps far
above its explicit stability limit (criterion 3). The test states the
criterion faithfully and reports the measured numbers rather than papering
over the gap.

Criterion 7 checks the hypothesis of the fundamental long-time theorem: local
strong order near q2 = 1 and local weak order at least q1 = 1.5, the least
weak order the theorem needs, so the weak check is one-sided. Itô–Taylor
expansion gives these Euler-type steps local weak order exactly 2 on smooth
coefficients: from x, E X(h) - E Y(h) = +-(h^2/2) Lf(x) + O(h^3) with
Lf = f f' + g^2 f''/2, which is 5 for the cubic scalar model at x = 1, so the
mean one-step error is close to 2.5 h^2 and the fitted weak slope near 2. A
coarse step whose mean drifts from the reference at order h or worse still
fails the check.
"""

import math
import time

import numpy as np

import sde_longtime.cli as cli
from sde_longtime import (SchemeConfig, build_allen_cahn,
                          build_ginzburg_landau, check_contractive_monotone,
                          contraction_experiment, decay_slope, fit_order,
                          make_convergence_report, make_noise_grid,
                          max_feasible_pstar, moment_trace,
                          one_step_order_experiment, pairwise_block_sum,
                          coarsen, Q1, stationarity_gap,
                          strong_error_experiment)
from sde_longtime.model import drift_rows
from sde_longtime.schemes import project_batch, solve_implicit_batch

GL = build_ginzburg_landau(eta=-1.5, sigma=1.0, theta=1.0)
AC = build_allen_cahn(K=4)
BE = SchemeConfig(variant="be")
PE = SchemeConfig(variant="pe")
EM = SchemeConfig(variant="em")

GL_LADDER = [2.0 ** -k for k in range(3, 8)]
AC_LADDER = [15.0 / 2.0 ** k for k in range(6, 11)]


def _gl_curve_report(scheme_cfg):
    curve = strong_error_experiment(GL, scheme_cfg, T=16.0, h_list=GL_LADDER,
                                    h_ref=2.0 ** -12, n_paths=2000, p=1.0,
                                    master_seed=42, x0=1.0)
    return make_convergence_report(curve, band=0.10, r2_min=0.98)


def test_criterion_1_gl_backward_euler_curve(criterion):
    t0 = time.perf_counter()
    rep = _gl_curve_report(BE)
    dt = time.perf_counter() - t0
    criterion(1, "cubic scalar model, implicit scheme, strong rate",
              rep.passed and dt <= 300.0,
              f"slope={rep.slope:.4f} (band [0.40,0.60]), "
              f"r2={rep.r_squared:.5f} (min 0.98), M=2000, {dt:.0f}s")


def test_criterion_2_gl_projected_euler_curve(criterion):
    t0 = time.perf_counter()
    rep = _gl_curve_report(PE)
    dt = time.perf_counter() - t0
    criterion(2, "cubic scalar model, projected scheme, strong rate",
              rep.passed and dt <= 300.0,
              f"slope={rep.slope:.4f} (band [0.40,0.60]), "
              f"r2={rep.r_squared:.5f} (min 0.98), M=2000, {dt:.0f}s")


def test_criterion_3_lattice_curves_both_schemes(criterion):
    t0 = time.perf_counter()
    reports = {}
    for name, cfg in (("be", BE), ("pe", PE)):
        curve = strong_error_experiment(AC, cfg, T=30.0, h_list=AC_LADDER,
                                        h_ref=15.0 / 2.0 ** 12, n_paths=500,
                                        p=1.0, master_seed=42, x0=1.0)
        reports[name] = make_convergence_report(curve, band=0.15,
                                                r2_min=0.95)
    dt = time.perf_counter() - t0
    rb, rp = reports["be"], reports["pe"]
    criterion(3, "stiff lattice model, strong rate for both schemes",
              rb.passed and rp.passed and dt <= 600.0,
              f"be: slope={rb.slope:.4f} r2={rb.r_squared:.5f}; "
              f"pe: slope={rp.slope:.4f} r2={rp.r_squared:.5f} "
              f"(band [0.35,0.65], r2 min 0.95), M=500, {dt:.0f}s")


def test_criterion_4_uniform_moment_plateau(criterion):
    parts = []
    ok = True
    for name, cfg in (("be", BE), ("pe", PE)):
        times, ests = moment_trace(GL, cfg, T=100.0, h=2.0 ** -3,
                                   n_paths=1000, p=1.0, master_seed=42, x0=2.0)
        n_div = max(e.n_divergent for e in ests)
        _, _, ratio = stationarity_gap(times, [e.value for e in ests])
        ok = ok and n_div == 0 and ratio <= 0.10
        parts.append(f"{name}: divergent={n_div}, quarter-gap ratio={ratio:.2e}")
    criterion(4, "long-horizon moment trace stays bounded and settles",
              ok, "; ".join(parts) + " (need 0 divergent, ratio <= 0.10)")


def test_criterion_5_divergence_contrast(criterion):
    stats = {}
    for name, cfg in (("em", EM), ("be", BE), ("pe", PE)):
        _, ests = moment_trace(GL, cfg, T=16.0, h=2.0 ** -2, n_paths=1000,
                               p=1.0, master_seed=42, x0=3.0)
        stats[name] = (max(e.n_divergent for e in ests),
                       max(e.value for e in ests))
    em_div, em_sup = stats["em"]
    em_ok = em_div >= 1 or em_sup > 1e6
    stable_ok = all(stats[s][0] == 0 and stats[s][1] < 10.0
                    for s in ("be", "pe"))
    criterion(5, "explicit baseline blows up, damped schemes do not",
              em_ok and stable_ok,
              f"em: divergent={em_div}/1000 sup={em_sup:.3g}; "
              f"be: divergent={stats['be'][0]} sup={stats['be'][1]:.3g}; "
              f"pe: divergent={stats['pe'][0]} sup={stats['pe'][1]:.3g}")


def test_criterion_6_contractivity_decay(criterion):
    t0 = time.perf_counter()
    times, ests = contraction_experiment(GL, BE, T=10.0, h=2.0 ** -10,
                                         n_paths=2000, p=1.0, master_seed=42,
                                         x0=2.0, y0=-1.0)
    dt = time.perf_counter() - t0
    slope_2p = 2.0 * decay_slope(times, [e.value for e in ests])
    threshold = -2.0 * 0.25 + 0.1
    criterion(6, "coupled two-point gap decays exponentially",
              slope_2p <= threshold,
              f"d/dt log E|gap|^2 = {slope_2p:.4f} <= {threshold} required, "
              f"M=2000, {dt:.0f}s")


def test_criterion_7_one_step_orders(criterion):
    t0 = time.perf_counter()
    hs = [2.0 ** -k for k in range(6, 11)]
    parts = []
    ok = True
    for name, cfg in (("be", BE), ("pe", PE)):
        res = one_step_order_experiment(GL, cfg, h_list=hs, x=1.0,
                                        n_paths=100_000, master_seed=42,
                                        substeps=64)
        strong = fit_order([h for h, _, _ in res], [e.value for _, e, _ in res])
        weak = fit_order([h for h, _, _ in res], [w for _, _, w in res])
        s_ok = 0.75 <= strong.slope <= 1.25
        w_min = Q1 - 0.35
        w_ok = weak.slope >= w_min
        ok = ok and s_ok and w_ok
        parts.append(f"{name}: strong={strong.slope:.4f} (band [0.75,1.25]), "
                     f"weak={weak.slope:.4f} (need >= {w_min:.2f} = q1 - 0.35; "
                     f"Itô–Taylor order 2)")
    dt = time.perf_counter() - t0
    criterion(7, "one-step strong and weak orders", ok,
              "; ".join(parts) + f", M=100000, {dt:.0f}s")


def test_criterion_8_implicit_solver_certification(criterion):
    rng = np.random.default_rng(42)
    worst = 0.0
    for problem, h in ((GL, 4.0), (AC, 1.0)):   # h = 1/alpha1 for each
        b = rng.uniform(-10.0, 10.0, size=(1000, problem.d))
        z = solve_implicit_batch(problem, b, h)  # raises on any failure
        f = np.stack([drift_rows(problem, r[None])[0] for r in z])
        resid = np.linalg.norm(z - h * f - b, axis=1)
        worst = max(worst, float(resid.max()))
    criterion(8, "implicit solves certified to tolerance", worst <= 1e-12,
              f"2000 random solves at h=1/alpha1, worst residual {worst:.3e} "
              f"(tol 1e-12), zero failures")


def test_criterion_9_invariant_suite(criterion, tmp_path):
    failures = []

    # projection map: fixes origin, stays in the ball, never expands (1e4 pairs)
    rng = np.random.default_rng(2025)
    n = 10_000
    X = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-1.0, 3.0, size=(n, 1))
    Y = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-1.0, 3.0, size=(n, 1))
    ks = rng.integers(0, 13, size=n)
    worst_radius, worst_lip = 0.0, 0.0
    for x, y, k in zip(X, Y, ks):
        h = 2.0 ** -int(k)
        R = h ** (-1.0 / 8.0)
        px, py = project_batch(x[None], R)[0], project_batch(y[None], R)[0]
        worst_radius = max(worst_radius, float(np.linalg.norm(px)) / R)
        gap = float(np.linalg.norm(x - y))
        if gap > 0.0:
            worst_lip = max(worst_lip,
                            float(np.linalg.norm(px - py)) / gap)
    zero_fixed = all(np.all(project_batch(np.zeros((1, 3)),
                                          (2.0 ** -k) ** (-1.0 / 8.0))[0] == 0.0)
                     for k in range(13))
    if not (worst_radius <= 1.0 + 1e-12 and worst_lip <= 1.0 + 1e-12
            and zero_fixed):
        failures.append(f"projection (radius x{worst_radius:.3f}, "
                        f"lipschitz x{worst_lip:.3f}, zero={zero_fixed})")

    # coupling identity: h == h_ref must give error exactly zero
    curve = strong_error_experiment(GL, BE, T=1.0, h_list=[2.0 ** -4],
                                    h_ref=2.0 ** -4, n_paths=64, p=1.0,
                                    master_seed=5, x0=1.0, threads=1)
    est = curve.estimates[0]
    if not (est.value == 0.0 and est.std_error == 0.0):
        failures.append(f"coupling zero-error (value={est.value!r})")

    # noise telescoping: coarse increments are exact pairwise sums, and
    # composing dyadic coarsenings equals coarsening once
    grid = make_noise_grid(master_seed=7, path_index=0, m=2,
                           h_fine=2.0 ** -8, n_fine=256)
    W = grid.increments
    two_then_two = pairwise_block_sum(pairwise_block_sum(W, 2, axis=0), 2, axis=0)
    if not (np.array_equal(two_then_two, pairwise_block_sum(W, 4, axis=0))
            and np.array_equal(coarsen(grid, 4), pairwise_block_sum(W, 4, axis=0))
            and np.array_equal(pairwise_block_sum(coarsen(grid, 4), 64, axis=0),
                               pairwise_block_sum(W, 256, axis=0))):
        failures.append("noise telescoping")

    # rate fits recover synthetic power laws exactly
    hs = [2.0 ** -k for k in range(1, 6)]
    if not all(abs(fit_order(hs, [2.5 * h ** q for h in hs]).slope - q) <= 1e-12
               for q in (0.5, 1.0, 1.5)):
        failures.append("fit_order exactness")

    # byte-identical outputs whether the run uses 1 worker or 4
    argv = ["convergence", "--model", "gl", "--scheme", "be", "--T", "1",
            "--h-list", "2^-4,2^-5", "--h-ref", "2^-7", "--paths", "600",
            "--seed", "3", "--band", "5", "--r2-min", "0"]
    outs = []
    for name, threads in (("one", "1"), ("four", "4")):
        out = tmp_path / f"{name}.csv"
        if cli.main(argv + ["--threads", threads, "--output", str(out)]) != 0:
            failures.append(f"cli run ({threads} threads)")
        outs.append(out)
    if not (outs[0].read_bytes() == outs[1].read_bytes()
            and outs[0].with_suffix(".json").read_bytes()
            == outs[1].with_suffix(".json").read_bytes()):
        failures.append("csv/json byte identity across thread counts")

    criterion(9, "structural invariant suite", not failures,
              "all invariants hold (projection 1e4, coupling zero, noise "
              "telescoping, exact fits, thread-count byte identity)"
              if not failures else "failed: " + ", ".join(failures))


def test_criterion_10_assumption_checker_ground_truth(criterion):
    pstar = max_feasible_pstar(GL)
    mono = check_contractive_monotone(AC, p_star=3.5, alpha1=1.0)
    ok = abs(pstar - 1.25) <= 0.01 and mono.passed
    criterion(10, "assumption checkers hit known constants", ok,
              f"cubic scalar max feasible p*={pstar:.6f} (want 1.25 +- 0.01); "
              f"lattice monotone at (p*=3.5, alpha1=1) "
              f"worst margin {mono.worst_margin:.4f} <= 0: {mono.passed}")
