"""Coupled-path Monte Carlo engine: determinism, coupling exactness, tagging."""

import dataclasses
import errno
import math
import os
import pickle
import random
import signal
import time
import tracemalloc
from fractions import Fraction
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sde_longtime import (MomentEstimate, MonotoneConstants, SchemeConfig,
                          SdeProblem, SolverFailure, UsageError,
                          check_contractive_monotone, build_allen_cahn,
                          build_ginzburg_landau, coarsen,
                          contraction_experiment, estimate_from_samples,
                          evolve_terminal, fit_order, make_noise_grid,
                          moment_trace, one_step_order_experiment,
                          path_generator, pairwise_block_sum,
                          remainder_scaling_experiment, resolve_threads,
                          schemes, simulate, strong_error_experiment)
from sde_longtime.schemes import _row_norms

BE = SchemeConfig(variant="be")
EM = SchemeConfig(variant="em")
PE = SchemeConfig(variant="pe")


@pytest.fixture(scope="module")
def gl():
    return build_ginzburg_landau(eta=-1.5, sigma=1.0, theta=1.0)


def _deterministic_linear():
    """dx = -x dt with zero diffusion: the implicit step has the closed form
    z_(n+1) = z_n / (1 + h), so everything downstream is checkable exactly."""
    c = MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.01)
    return SdeProblem.from_pointwise(name="lin", d=1, m=1,
                                     drift=lambda x: -x,
                                     diffusion=lambda x: np.zeros((1, 1)),
                                     constants=c)


# ---------------------------------------------------------------------------
# single-path evolution
# ---------------------------------------------------------------------------

def test_evolve_terminal_matches_two_step_oracle(gl):
    # two zero-noise implicit steps from 1.0 at h = 1/2 (roots recomputed
    # independently from the cubic companion matrix)
    z = evolve_terminal(gl, BE, 0.5, 2, np.zeros((2, 1)), 1.0)
    assert z[0] == pytest.approx(0.379204985417161, abs=1e-13)


def test_evolve_terminal_accepts_noise_grid(gl):
    grid = make_noise_grid(master_seed=9, path_index=0, m=1,
                           h_fine=2.0 ** -4, n_fine=8)
    za = evolve_terminal(gl, BE, 2.0 ** -4, 8, grid, 1.0)
    zb = evolve_terminal(gl, BE, 2.0 ** -4, 8, grid.increments, 1.0)
    npt.assert_array_equal(za, zb)


def test_evolve_terminal_zero_steps_returns_start(gl):
    z = evolve_terminal(gl, BE, 0.5, 0, np.zeros((0, 1)), 1.0)
    npt.assert_array_equal(z, [1.0])
    # one value fills every component, as a scalar or as a size-1 sequence
    ac = build_allen_cahn(K=4)
    for x0 in (1.0, [1.0]):
        z = evolve_terminal(ac, BE, 0.5, 0, np.zeros((0, 1)), x0)
        npt.assert_array_equal(z, [1.0, 1.0, 1.0])


def test_evolve_terminal_validation(gl):
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, 0.0, 2, np.zeros((2, 1)), 1.0)
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, 0.5, -1, np.zeros((0, 1)), 1.0)
    with pytest.raises(UsageError, match="n_steps must be an integer"):
        evolve_terminal(gl, BE, 0.5, True, np.zeros((1, 1)), 1.0)
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, 0.5, 2, np.zeros((3, 1)), 1.0)  # wrong length
    grid = make_noise_grid(master_seed=9, path_index=0, m=1,
                           h_fine=2.0 ** -4, n_fine=8)
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, 2.0 ** -3, 8, grid, 1.0)  # grid step mismatch
    with pytest.raises(UsageError):  # steps are compared exactly
        evolve_terminal(gl, BE, np.nextafter(2.0 ** -4, 1), 8, grid, 1.0)
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, 2.0 ** -4, 4, grid, 1.0)  # grid length mismatch
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, 0.5, 2, np.zeros((2, 1)), np.array([1.0, 2.0]))


def test_implicit_step_matches_closed_form_on_linear_problem():
    lin = _deterministic_linear()
    for h in (1.0 / 8.0, 1.0 / 32.0):
        n = round(1.0 / h)
        z = evolve_terminal(lin, BE, h, n, np.zeros((n, 1)), 1.0)
        assert z[0] == pytest.approx((1.0 + h) ** (-n), abs=1e-12)


def test_deterministic_first_order_rate_via_closed_form():
    # |(1+h)^(-1/h) - e^(-1)| should shrink linearly in h
    lin = _deterministic_linear()
    hs = [1.0 / 8.0, 1.0 / 16.0, 1.0 / 32.0]
    errs = []
    for h in hs:
        n = round(1.0 / h)
        z = evolve_terminal(lin, BE, h, n, np.zeros((n, 1)), 1.0)
        errs.append(abs(float(z[0]) - math.exp(-1.0)))
    fit = fit_order(hs, errs)
    assert 0.9 <= fit.slope <= 1.1
    assert fit.r_squared > 0.999


# ---------------------------------------------------------------------------
# moment estimators
# ---------------------------------------------------------------------------

def test_estimate_from_samples_known_values():
    # samples (3, 4), p = 1: mean of squares 12.5, root 3.5355339059327378;
    # sample variance 24.5, se of the mean sqrt(24.5/2) = 3.5, delta method
    # se = 3.5 * root / (2 * 12.5) = 0.4949747468305833
    est = estimate_from_samples([3.0, 4.0], p=1.0)
    assert est.value == pytest.approx(math.sqrt(12.5), rel=1e-15)
    assert est.std_error == pytest.approx(0.4949747468305833, rel=1e-14)
    assert (est.n_paths, est.n_divergent) == (2, 0)


def test_estimate_constant_samples_recover_the_constant():
    est = estimate_from_samples([3.0, 3.0, 3.0, 3.0], p=1.0)
    assert (est.value, est.std_error) == (3.0, 0.0)
    # non-integer 2p exercises the power round trip; the spread is still
    # exactly zero because every transformed sample equals the mean
    est = estimate_from_samples([3.0, 3.0, 3.0, 3.0], p=0.75)
    assert est.value == pytest.approx(3.0, rel=1e-12)
    assert est.std_error == 0.0


def test_estimate_two_point_root_mean_square():
    # mean of squares (0 + 4)/2 = 2
    est = estimate_from_samples([0.0, 2.0], p=1.0)
    assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert math.isfinite(est.std_error) and est.std_error > 0.0


def test_estimate_recovers_unit_second_moment():
    # E N(0,1)^2 = 1; 10^5 draws put the root well inside [0.99, 1.01]
    rng = np.random.default_rng(0)
    est = estimate_from_samples(np.abs(rng.standard_normal(100000)), p=1.0)
    assert 0.99 <= est.value <= 1.01


def test_estimate_from_samples_degenerate_cases():
    empty = estimate_from_samples([], p=1.0, n_divergent=5)
    assert empty == MomentEstimate(value=0.0, std_error=0.0, p=1.0,
                                   n_paths=5, n_divergent=5)
    single = estimate_from_samples([2.0], p=0.5)
    assert single.value == 2.0
    assert single.std_error == 0.0
    with pytest.raises(UsageError):
        estimate_from_samples([1.0], p=0.0)
    with pytest.raises(UsageError):
        estimate_from_samples([-1.0], p=1.0)
    with pytest.raises(UsageError):
        estimate_from_samples([1.0, math.nan], p=1.0)
    for n_divergent in (-1, 2.5, True):
        with pytest.raises(UsageError, match="n_divergent must be an integer"):
            estimate_from_samples([1.0], p=1.0, n_divergent=n_divergent)


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
       p=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 10))
def test_estimate_is_exactly_permutation_invariant(samples, p, seed):
    """Exact accumulation: the estimate may not depend on sample order."""
    shuffled = samples.copy()
    random.Random(seed).shuffle(shuffled)
    assert estimate_from_samples(samples, p) == estimate_from_samples(shuffled, p)


# nonnegative values across float range: zeros, subnormals, 1e-300 to
# 1e300, and values whose squares overflow or underflow (the accumulator
# takes no sign bit, -0.0 included)
_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-160,
                     1e154, 1e300, 1.7976931348623157e308]),
    st.floats(0.0, 1e3))


def _split_sums(values, cuts):
    """The sum of `_exact_sums` over the pieces `cuts` makes of the samples
    `values` (a (B, c) list is c columns of B samples, which `_exact_sums`
    takes as c rows), as a (3, c) array."""
    y = np.asarray(values, dtype=float).T
    bounds = [0, *sorted(cuts), y.shape[-1]]
    return sum(simulate._exact_sums(y[..., lo:hi])
               for lo, hi in zip(bounds, bounds[1:]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_FLOATS, max_size=40), data=st.data())
def test_exact_sums_are_the_rational_sums_under_any_split(values, data):
    """Over up to 8 chunks, the summed chunk sums are exactly the rational
    sums of y and y^2, and their rounding is the correctly rounded sum (inf
    beyond float range), which is math.fsum's bit for bit wherever fsum
    does not overflow in an intermediate sum."""
    cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=7))
    [bad], [s1], [s2] = _split_sums(values, cuts)
    exact = sum(map(Fraction, values), Fraction(0))
    assert bad == 0
    assert Fraction(s1, simulate._ONE) == exact
    assert Fraction(s2, simulate._ONE) == sum(
        (Fraction(v) ** 2 for v in values), Fraction(0))
    got = simulate._mean(s1, 1, 0)
    try:
        assert got.hex() == float(exact).hex()
    except OverflowError:
        assert got == math.inf
    try:
        assert got.hex() == math.fsum(values).hex()
    except OverflowError:
        pass


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.lists(_FLOATS, min_size=3, max_size=3),
                       min_size=1, max_size=20),
       cuts=st.lists(st.integers(0, 20), max_size=7))
def test_exact_sums_per_column(values, cuts):
    """Samples in c columns, passed as the c rows of a record-major array,
    are summed per row, as each column alone."""
    whole = _split_sums(values, [c for c in cuts if c <= len(values)])
    for j in range(3):
        column = simulate._exact_sums(np.asarray([v[j] for v in values]))
        assert whole[:, j:j + 1].tolist() == column.tolist()


def test_exact_sums_count_non_finite_values():
    """Per row: the non-finite entries are counted, and the sums run over
    the finite ones."""
    y = np.array([[1.0, math.nan, math.inf], [math.inf, 2.0, 3.0]])
    bad, s1, s2 = simulate._exact_sums(y)
    assert bad.tolist() == [2, 1]
    assert [Fraction(t, simulate._ONE) for t in [*s1, *s2]] == [1, 5, 1, 13]


@pytest.mark.parametrize("signed", [-0.0, -1.0, -math.inf])
def test_exact_sums_refuse_a_sign_bit(signed):
    """The accumulator takes no signed input: an entry with its sign bit
    set, -0.0 included, is refused in any row, not summed."""
    y = np.ones((3, 5))
    y[2, 4] = signed
    with pytest.raises(ValueError, match="sign bit"):
        simulate._exact_sums(y)


def _oracle_sums(rows):
    """Per row: its non-finite count and the exact sums of its finite
    entries and of their squares, in units of 2^-_UNIT_BITS, as the three
    lists `_exact_sums(rows).tolist()` gives."""
    out = [[], [], []]
    for row in np.atleast_2d(rows).tolist():
        finite = [Fraction(v) for v in row if math.isfinite(v)]
        out[0].append(len(row) - len(finite))
        for total, sums in ((sum(finite, Fraction(0)), out[1]),
                            (sum((v * v for v in finite), Fraction(0)), out[2])):
            scaled = total * simulate._ONE
            assert scaled.denominator == 1
            sums.append(scaled.numerator)
    return out


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("scale", [-1074 + 53, -1, 0, 970])
@pytest.mark.parametrize("spread", [1, 16])
def test_exact_sums_of_full_mantissas(n, scale, spread):
    """The worst cases for the accumulator: n values, all with the full
    53-bit mantissa (2^53 - 1) 2^-53 or within 2^-33 of it, at one
    exponent (so a row of 1024 fills one bin close to 2^64) or spread over
    16 consecutive exponents (so every bin of a fold block is full); rows
    of 1025 and 2049 are cut into rows of at most 1024. Sums and sums of
    squares equal the rational ones, at the bottom of the normal range, at
    1, and near the top (where y^2 is beyond float range)."""
    rng = np.random.default_rng(n)
    mantissas = (2 ** 53 - 1) - rng.integers(0, 2 ** 20, n)
    mantissas[::3] = 2 ** 53 - 1
    y = np.ldexp(mantissas.astype(float), scale - 53 + np.arange(n) % spread)
    assert len(set(np.frexp(y)[1].tolist())) == spread
    assert simulate._exact_sums(y).tolist() == _oracle_sums(y[None])


def test_estimate_from_samples_of_a_long_row_is_exact():
    """64 * 1024 + 1 samples, full mantissas or zero, over 2^-500..2^500:
    65 rows of _ROWS, the last one padded, summed over nine calls of TILE
    rows. The sums of y = s^2 and y^2 are the rational ones, and the
    estimate is their rounding."""
    n = 64 * simulate._ROWS + 1
    rng = np.random.default_rng(n)
    mantissas = (2 ** 53 - 1) - rng.integers(0, 2 ** 20, n)
    s = np.ldexp(mantissas.astype(float), rng.integers(-553, 447, n))
    s[::97] = 0.0
    sums = _oracle_sums(s ** 2.0)
    assert simulate._exact_sums(s ** 2.0).tolist() == sums
    assert estimate_from_samples(s, 1.0) == simulate._estimate(
        1.0, n, simulate._Sums(0, *np.array(sums, dtype=object)))


@pytest.mark.parametrize("fill", ["ones", "random"])
def test_the_fold_is_exact_for_any_bins(fill):
    """The fold turns any uint64 bins of the parts M, H^2, HL and L^2, all
    ones included (the largest digits its carry passes can meet), into the
    ints they stand for: sum_j M_j 2^j and
    sum_j (H^2_j 2^52 + HL_j 2^27 + L^2_j) 4^j."""
    rows, Q = 3, 3
    shape = (4, rows, 16 * Q)
    if fill == "ones":
        bins = np.full(shape, 2 ** 64 - 1, dtype=np.uint64)
    else:
        bins = np.random.default_rng(0).integers(0, 2 ** 64, shape,
                                                 dtype=np.uint64)
    s1 = simulate._block_digits(bins[0], simulate._FOLD_S1, rows * Q)
    s2 = sum(simulate._block_digits(part, W, rows * 2 * Q)
             for part, W in zip(bins[1:], simulate._FOLD_S2))
    s1, s2 = simulate._digit_ints(s1.reshape(rows, Q, -1),
                                  s2.reshape(rows, 2 * Q, -1))
    for r in range(rows):
        m, h2, hl, l2 = ([int(v) for v in part[r]] for part in bins)
        assert s1[r] == sum(v << j for j, v in enumerate(m))
        assert s2[r] == sum(((a << 52) + (b << 27) + c) << (2 * j)
                            for j, (a, b, c) in enumerate(zip(h2, hl, l2)))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_FLOATS, min_size=1, max_size=40),
       zeros=st.lists(st.booleans(), min_size=43, max_size=43),
       rows=st.integers(1, 3 * simulate.TILE))
def test_exact_sums_of_zeros_and_subnormals_per_row(values, zeros, rows):
    """Rows of zeros, subnormals and values whose squares leave float
    range, as many rows as a tile holds and more, are each summed
    exactly."""
    pool = values + [5e-324, 2.0 ** -1060, 0.0]
    y = np.array([[(0.0 if z else v) for v, z in zip(pool, zeros)]
                  for _ in range(rows)])
    y *= np.resize([1.0, 0.5, 2.0 ** -60], rows)[:, None]
    assert simulate._exact_sums(y).tolist() == _oracle_sums(y)


@pytest.mark.parametrize("extra", [0, 1])
def test_exact_sums_of_a_full_tile_and_one_row_more(extra):
    """A tile of 1024-path records, full (TILE rows) and one row past it,
    with dead paths (zeros), non-finite entries and a wide exponent range,
    gives every row's exact sums."""
    rng = np.random.default_rng(extra)
    y = (rng.exponential(size=(simulate.TILE + extra, 1024))
         * np.exp(rng.uniform(-600.0, 600.0, (simulate.TILE + extra, 1024))))
    y[:, ::37] = 0.0
    y[1, 5], y[2, 7], y[-1, 11] = math.inf, math.inf, math.nan
    assert simulate._exact_sums(y).tolist() == _oracle_sums(y)


@pytest.mark.parametrize("samples, p, finite_value", [
    ([1.0, math.inf], 1.0, False),         # an infinite sample
    ([1.0, 1e200], 1.0, False),            # s^(2p) beyond float range
    ([1e154, 1e154], 1.0, False),          # the sum of the y beyond it
    ([1e150, 0.0], 1.0, True),             # only the variance beyond it
])
def test_estimates_beyond_float_range(samples, p, finite_value):
    """An infinite y or an infinite sum of y gives inf +- inf; a finite mean
    whose variance leaves float range keeps its value, with an inf
    standard error."""
    est = estimate_from_samples(samples, p)
    assert math.isfinite(est.value) == finite_value
    assert est.std_error == math.inf
    if finite_value:
        assert est.value == pytest.approx(math.sqrt(0.5) * 1e150, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.one_of(st.floats(0.0, 1e30),
                                  st.sampled_from([1.0, 1.0 + 2.0 ** -52])),
                        min_size=2, max_size=20),
       p=st.sampled_from([0.5, 1.0, 1.5]))
def test_variance_is_the_exact_one_rounded_once(samples, p):
    """std_error comes from (S2 - S1^2/n)/(n - 1) over the exact sums of
    y = s^(2p) and y^2, rounded once, also for nearly constant samples."""
    est = estimate_from_samples(samples, p)
    y = [Fraction(v) for v in (np.asarray(samples) ** (2.0 * p)).tolist()]
    n = len(y)
    s1, s2 = sum(y), sum(v * v for v in y)
    mu = float(s1) / n
    if mu > 0.0:
        se_mu = math.sqrt(float((s2 - s1 * s1 / n) / (n - 1)) / n)
        assert est.std_error == se_mu * est.value / (2.0 * p * mu)


# ---------------------------------------------------------------------------
# thread resolution
# ---------------------------------------------------------------------------

def test_resolve_threads_precedence(monkeypatch):
    assert resolve_threads(3) == 3
    assert resolve_threads() >= 1
    monkeypatch.setenv("SDE_LONGTIME_THREADS", "2")
    assert resolve_threads(8) == 8  # no environment variable beats the argument
    assert resolve_threads(1) == 1
    for bad in (0, 2.7, True, "2"):  # none is truncated or read as 1
        with pytest.raises(UsageError, match="thread count must be an integer"):
            resolve_threads(bad)


def test_default_worker_count_is_the_usable_cores(monkeypatch):
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
    assert resolve_threads() == 3
    monkeypatch.delattr(simulate.os, "sched_getaffinity")
    assert resolve_threads() == 64


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="worker processes need os.fork")


def _assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# 1030 paths make path chunks of 1024 and 6 paths at one worker, 515 and 515
# at two, and 512, 512 and 6 at three, so these runs also compare three
# chunkings. At two workers the caller runs chunk 0 and one forked process
# chunk 1; at three, two forked processes run chunks 1 and 2, and the short
# chunk 2 finishes first.
_WORKER_RUNS = {
    "contraction": lambda gl, t: contraction_experiment(
        gl, BE, T=1.0, h=2.0 ** -3, n_paths=1030, p=1.0, master_seed=3,
        x0=2.0, y0=-1.0, n_records=4, threads=t),
    "one-step": lambda gl, t: one_step_order_experiment(
        gl, SchemeConfig(variant="pe"), h_list=[2.0 ** -3, 2.0 ** -4], x=1.0,
        n_paths=1030, master_seed=4, substeps=4, threads=t),
    "remainder": lambda gl, t: remainder_scaling_experiment(
        gl, BE, x0=1.0, y0=0.5, h_list=[2.0 ** -2, 2.0 ** -3], n_paths=1030,
        p=1.0, master_seed=5, substeps=4, threads=t),
    "em-divergent": lambda gl, t: moment_trace(
        gl, EM, T=4.0, h=2.0 ** -2, n_paths=1030, p=1.0, master_seed=6,
        x0=2.0, n_records=4, threads=t),
    "allen-cahn-be": lambda gl, t: strong_error_experiment(
        build_allen_cahn(K=4), BE, T=15.0 / 2.0 ** 5,
        h_list=[15.0 / 2.0 ** 7, 15.0 / 2.0 ** 8], h_ref=15.0 / 2.0 ** 9,
        n_paths=1030, p=1.0, master_seed=7, x0=1.0, threads=t),
}


@pytest.mark.parametrize("name", list(_WORKER_RUNS))
def test_every_protocol_is_identical_across_worker_counts(gl, name):
    """Pickled results are compared, so arrays, inf estimates and the
    divergence counts must match in every byte at 1, 2 and 3 workers."""
    run = _WORKER_RUNS[name]
    serial = run(gl, 1)
    for threads in (2, 3):
        assert pickle.dumps(run(gl, threads)) == pickle.dumps(serial), threads
    if name == "em-divergent":
        _, ests = serial
        assert 0 < ests[-1].n_divergent < 1030  # some paths, not all


def test_solver_failure_is_the_serial_failure_at_any_worker_count(gl,
                                                                  monkeypatch):
    """A one-iteration damped Newton (GL without its closed-form root)
    fails at the first step of every
    chunk; the caller must see the first chunk's failure, as in the serial
    loop, although the chunks differ (1024 + 6 paths at one worker, 515 +
    515 at two), and no worker may remain."""
    monkeypatch.setattr(schemes, "MAX_ITER", 1)
    newton_only = dataclasses.replace(gl, resolvent_batch=None)
    seen = []
    for threads in (1, 2):
        with pytest.raises(SolverFailure) as info:
            strong_error_experiment(newton_only, BE, T=1.0, h_list=[2.0 ** -2],
                                    h_ref=2.0 ** -4, n_paths=1030,
                                    master_seed=1, x0=5.0, threads=threads)
        err = info.value
        seen.append((str(err), err.step_index, err.residual,
                     err.last_iterate.tolist()))
    assert seen[0] == seen[1]
    assert seen[0][1] == 0 and seen[0][2] > 1e-12
    _assert_no_child()


# dx = -100 arctan(x) dt + 100 dW: at h = 1 the implicit solve needs many
# damped Newton iterations on some paths, so ten are not always enough
_ARCTAN = SdeProblem(
    name="arctan", d=1, m=1,
    drift_batch=lambda X: -100.0 * np.arctan(X),
    diffusion_apply=lambda X, dW: 100.0 * dW,
    constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1e4),
    drift_jacobian_batch=lambda X: (-100.0 / (1.0 + X * X))[..., None])


def test_solver_failure_names_a_replayable_global_path(monkeypatch):
    """dx = -100 arctan(x) dt + 100 dW at h = 1 with ten Newton iterations
    fails on path 1037 alone, at step 4: beyond chunk 0 at one worker
    (chunks of 1024 and 476 paths) and at two (750 and 750). Both must name
    that path, and replaying its noise grid alone must fail at the same
    step with the same residual and iterate."""
    monkeypatch.setattr(schemes, "MAX_ITER", 10)
    problem, cfg = _ARCTAN, BE
    seen = []
    for threads in (1, 2):
        with pytest.raises(SolverFailure) as info:
            moment_trace(problem, cfg, T=8.0, h=1.0, n_paths=1500,
                         master_seed=1, x0=0.0, n_records=2, threads=threads)
        err = info.value
        seen.append((err.path_index, err.step_index, err.residual,
                     err.last_iterate.tolist()))
    assert seen[0] == seen[1]
    path, step, residual, last = seen[0]
    assert path == 1037 and step == 4
    with pytest.raises(SolverFailure) as replay:
        evolve_terminal(problem, cfg, 1.0, 8,
                        make_noise_grid(1, path, 1, 1.0, 8), 0.0)
    assert replay.value.step_index == step
    assert replay.value.residual == residual
    assert replay.value.last_iterate.tolist() == last


def test_solver_failure_is_the_earliest_at_any_worker_count(monkeypatch):
    """On seed 9, path 836 fails at step 2 and path 350 at step 3. One
    worker runs both in chunk 0 (1024 paths); two run them in different
    chunks (750 + 750), and three too (512 + 512 + 476), where the chunk
    first in path order fails later. Every worker count, and three workers
    without `os.fork` (run serially), must report the earliest
    failure, which replays alone: from the state it carries, at its t
    and h."""
    monkeypatch.setattr(schemes, "MAX_ITER", 10)

    def failure(threads):
        with pytest.raises(SolverFailure) as info:
            moment_trace(_ARCTAN, BE, T=8.0, h=1.0, n_paths=1500,
                         master_seed=9, x0=0.0, n_records=2, threads=threads)
        err = info.value
        return (err.path_index, err.step_index, err.residual,
                err.last_iterate.tolist(), err.t, err.h, err.state.tolist())

    seen = [failure(threads) for threads in (1, 2, 3)]
    monkeypatch.delattr(os, "fork")
    seen.append(failure(3))
    assert all(s == seen[0] for s in seen), seen
    path, step, residual, _, t, h, state = seen[0]
    assert (path, step, t, h) == (836, 2, 2.0, 1.0)
    noise = make_noise_grid(9, path, 1, 1.0, 8)
    with pytest.raises(SolverFailure) as replay:
        evolve_terminal(_ARCTAN, BE, 1.0, 8, noise, 0.0)
    assert (replay.value.step_index, replay.value.residual) == (step, residual)
    before = evolve_terminal(_ARCTAN, BE, h, step,
                             noise.increments[:step], 0.0)
    assert before.tolist() == state
    with pytest.raises(SolverFailure) as one_step:
        evolve_terminal(_ARCTAN, BE, h, 1,
                        noise.increments[step:step + 1], state)
    assert one_step.value.residual == residual


def _acting_off_the_caller(act):
    """dx = -x dt + dW, except that the drift calls act() in any process
    other than the one that built the problem, i.e. in a forked worker."""
    caller = os.getpid()

    def drift(x):
        if os.getpid() != caller:
            act()
        return -x

    return SdeProblem.from_pointwise(
        name="off-caller", d=1, m=1, drift=drift,
        diffusion=lambda x: np.ones((1, 1)),
        constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.01))


@needs_fork
@pytest.mark.parametrize("error", [
    UsageError("drift refused in a worker"),
    SolverFailure("solve failed in a worker", last_iterate=np.array([1.5]),
                  residual=2.5, step_index=7),
], ids=["usage", "solver"])
def test_error_in_a_forked_worker_reaches_the_caller(error):
    """At two workers the caller runs chunk 0 of 1030 paths itself, so a
    drift that raises only in another process fails chunk 1 in the forked
    worker; the
    caller must receive that exception, attributes intact, and no worker
    may remain."""
    def fail():
        raise error

    problem = _acting_off_the_caller(fail)
    moment_trace(problem, EM, T=0.5, h=0.25, n_paths=1030, threads=1)
    with pytest.raises(type(error)) as info:
        moment_trace(problem, EM, T=0.5, h=0.25, n_paths=1030, threads=2)
    got = info.value
    assert str(got) == str(error)
    if isinstance(error, SolverFailure):
        assert (got.step_index, got.residual) == (7, 2.5)
        npt.assert_array_equal(got.last_iterate, [1.5])
    _assert_no_child()


class _HoldsALambda(Exception):
    """An exception that pickle refuses: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


@needs_fork
def test_an_unpicklable_worker_error_reaches_the_caller_by_name():
    """An exception that cannot travel back from the forked worker reaches
    the caller as an error naming its type and message."""
    def fail():
        raise _HoldsALambda("drift refused in a worker")

    problem = _acting_off_the_caller(fail)
    with pytest.raises(RuntimeError) as info:
        moment_trace(problem, EM, T=0.5, h=0.25, n_paths=1030, threads=2)
    assert str(info.value) == (
        "a worker raised _HoldsALambda: drift refused in a worker")
    _assert_no_child()


@needs_fork
@pytest.mark.parametrize("error", [SystemExit(4), KeyboardInterrupt()],
                         ids=["exit", "interrupt"])
def test_an_exit_in_a_forked_worker_fails_the_run(error, tmp_path):
    """A worker chunk that raises SystemExit or KeyboardInterrupt fails the
    run with that exception, as a serial run would. The worker leaves
    through `os._exit` and never returns into this test: only this
    process writes its pid after the call."""
    def fail():
        raise error

    problem = _acting_off_the_caller(fail)
    with pytest.raises(type(error)) as info:
        moment_trace(problem, EM, T=0.5, h=0.25, n_paths=1030, threads=2)
    assert info.value.args == error.args
    pids = tmp_path / "pids"
    with open(pids, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert pids.read_text().split() == [str(os.getpid())]
    _assert_no_child()


@needs_fork
def test_a_worker_error_ends_the_run_after_the_chunks_before_it():
    """At two workers on 40 chunks the caller runs the even ones, each
    taking a quarter second, and the forked worker fails chunk 1 at once.
    The error is raised as soon as chunk 0 is in, not after the caller's
    twenty chunks, and the worker is reaped."""
    caller, ran = os.getpid(), []

    def worker(paths):
        if os.getpid() != caller:
            raise UsageError("chunk refused in a worker")
        ran.append(paths.start)
        time.sleep(0.25)
        return []

    n_paths = 80 * simulate.CHUNK_PATHS
    assert len(simulate._chunk_spans(n_paths, 2)) == 40
    with pytest.raises(UsageError, match="chunk refused in a worker"):
        simulate._map_chunks(worker, n_paths, 2)
    assert 1 <= len(ran) < 10, ran
    _assert_no_child()


@needs_fork
def test_a_killed_worker_fails_the_run_instead_of_hanging():
    problem = _acting_off_the_caller(
        lambda: os.kill(os.getpid(), signal.SIGKILL))

    def waited_too_long(signum, frame):
        raise TimeoutError("the run is still waiting for the killed worker")

    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            moment_trace(problem, EM, T=0.5, h=0.25, n_paths=1030, threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child()


@needs_fork
def test_an_interrupted_caller_kills_its_workers():
    """A KeyboardInterrupt in the calling process, here while it waits for
    a worker that sleeps for a minute, leaves at once, and the worker is
    killed and reaped."""
    problem = _acting_off_the_caller(lambda: time.sleep(60))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    signal.alarm(2)
    try:
        with pytest.raises(KeyboardInterrupt):
            moment_trace(problem, EM, T=0.5, h=0.25, n_paths=1030, threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _assert_no_child()


@needs_fork
def test_worker_processes_are_bounded_by_the_chunks(gl, monkeypatch):
    """threads=64 on three chunks runs three processes, the caller and two
    forked workers; one chunk or one worker forks none, whatever the
    environment says. The first two forks are real and a third would
    raise, so the run completes with exactly two."""

    class NoFork(Exception):
        pass

    forks = []
    real_fork = os.fork

    def fork():
        forks.append(len(forks))
        if len(forks) > 2:
            raise NoFork
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    kw = dict(T=0.25, h=0.25, p=1.0, master_seed=2, x0=1.0, n_records=1)
    moment_trace(gl, BE, n_paths=1030, threads=64, **kw)
    assert len(forks) == 2
    _assert_no_child()
    moment_trace(gl, BE, n_paths=512, threads=64, **kw)
    monkeypatch.setenv("SDE_LONGTIME_THREADS", "2")
    moment_trace(gl, BE, n_paths=1030, threads=1, **kw)
    assert len(forks) == 2


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open fds through /proc/self/fd")
def test_a_failed_fork_leaves_its_chunks_to_the_caller(gl, monkeypatch):
    """threads=3 on three chunks, with the second fork failing as at the
    process limit (EAGAIN): the first worker runs chunk 1 and the caller
    chunks 0 and 2, so the run gives the serial run's results, and no fd
    or child is left."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(len(forks))
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    kw = dict(T=0.25, h=0.25, p=1.0, master_seed=2, x0=1.0, n_records=1,
              n_paths=1030)
    def waited_too_long(signum, frame):
        raise TimeoutError("the run waits for a chunk that no process runs")

    serial = moment_trace(gl, BE, threads=1, **kw)
    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd")
    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(60)
    try:
        forked = moment_trace(gl, BE, threads=3, **kw)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert pickle.dumps(forked) == pickle.dumps(serial)
    assert len(forks) == 2
    assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)
    _assert_no_child()


def _threads() -> int:
    """This process's thread count, from /proc/self/status."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("Threads:"))


@needs_fork
@pytest.mark.skipif(not os.path.isfile("/proc/self/status"),
                    reason="counts threads through /proc/self/status")
def test_a_fork_after_a_threaded_matrix_product_runs_the_serial_bytes():
    """The workers are forked while BLAS's thread pool exists: after a
    2,048 x 2,048 product has started that pool, an Allen-Cahn K = 8 run
    (d = 7, `X @ A` drift) at 2 and 3 workers gives the serial run's
    pickle and leaves no child, or fails on an alarm instead of hanging."""
    A = np.ones((2048, 2048))
    A @ A
    if _threads() == 1:
        pytest.skip("the matrix product started no BLAS thread")

    def run(threads):
        return strong_error_experiment(
            build_allen_cahn(K=8), BE, T=0.25, h_list=[2.0 ** -3, 2.0 ** -4],
            h_ref=2.0 ** -6, n_paths=1030, p=1.0, master_seed=8, x0=1.0,
            threads=threads)

    def waited_too_long(signum, frame):
        raise TimeoutError("a worker forked after the BLAS pool hangs")

    serial = pickle.dumps(run(1))
    previous = signal.signal(signal.SIGALRM, waited_too_long)
    signal.alarm(60)
    try:
        forked = [pickle.dumps(run(threads)) for threads in (2, 3)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert forked == [serial, serial]
    _assert_no_child()


def test_chunks_share_the_paths_between_the_workers():
    """A chunk is an even share of the paths per worker, clamped to
    [CHUNK_PATHS, 2 * CHUNK_PATHS]."""
    def sizes(n_paths, threads):
        return [len(s) for s in simulate._chunk_spans(n_paths, threads)]

    assert sizes(16384, 1) == [1024] * 16
    assert sizes(1024, 2) == [512, 512]
    assert sizes(1030, 64) == [512, 512, 6]
    spans = simulate._chunk_spans(1030, 2)
    assert [s.start for s in spans] == [0, 515] and spans[-1].stop == 1030


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_a_bad_master_seed_is_refused_before_any_chunk(gl, seed, monkeypatch):
    """A seed SeedSequence would reject is a usage error raised before any
    worker is forked or any chunk runs."""
    def fork():
        raise AssertionError("a worker was forked")

    def chunk(*args, **kwargs):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(simulate, "path_generator", chunk)
    with pytest.raises(UsageError, match="master seed must be an integer >= 0"):
        moment_trace(gl, BE, T=0.5, h=0.25, n_paths=1030, master_seed=seed,
                     threads=2)


_MISSHAPEN_START = {
    "strong": lambda gl, x0: strong_error_experiment(
        gl, BE, T=0.5, h_list=[0.25], h_ref=0.125, n_paths=1030, x0=x0,
        threads=2),
    "moments": lambda gl, x0: moment_trace(
        gl, BE, T=0.5, h=0.25, n_paths=1030, x0=x0, threads=2),
    "contraction": lambda gl, x0: contraction_experiment(
        gl, BE, T=0.5, h=0.25, n_paths=1030, x0=x0, y0=0.0, threads=2),
    "one-step": lambda gl, x0: one_step_order_experiment(
        gl, BE, [0.25], x0, n_paths=1030, substeps=2, threads=2),
    "remainder": lambda gl, x0: remainder_scaling_experiment(
        gl, BE, x0, 0.5, [0.25], n_paths=1030, substeps=2, threads=2),
}


@pytest.mark.parametrize("name", list(_MISSHAPEN_START))
def test_start_states_are_checked_before_any_fork(gl, name, monkeypatch):
    """A two-component start state for the scalar problem, or an entry that
    is not a finite non-bool real, is refused before any worker is forked,
    not from inside a chunk."""
    asked = []

    def fork():
        asked.append(1)
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(UsageError, match=r"shape \(2,\) does not match"):
        _MISSHAPEN_START[name](gl, [1.0, 2.0])
    for x0 in ("3", True, [math.nan]):
        with pytest.raises(UsageError, match="^x0? must be finite and real"):
            _MISSHAPEN_START[name](gl, x0)
    assert asked == []


def _no_chunk(*args, **kwargs):
    raise AssertionError("a chunk ran")


_PROBES = {
    "one-step": lambda gl, hs, p: one_step_order_experiment(
        gl, BE, hs, 1.0, n_paths=4, substeps=2, threads=1),
    "remainder": lambda gl, hs, p: remainder_scaling_experiment(
        gl, BE, 1.0, 0.5, hs, n_paths=4, p=p, substeps=2, threads=1),
}


@pytest.mark.parametrize("h_list", [[], [-0.1], [0.0], [math.inf],
                                    [0.25, math.nan]])
@pytest.mark.parametrize("name", list(_PROBES))
def test_probes_refuse_bad_steps_before_any_chunk(gl, name, h_list,
                                                  monkeypatch):
    """An empty h_list, or a step that is not positive and finite, is a
    usage error, not a math domain error, zero errors or inf estimates."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    with pytest.raises(UsageError, match="h_list must be nonempty|"
                                         "positive and finite"):
        _PROBES[name](gl, h_list, 1.0)


# every protocol with a projected Euler track whose step exceeds 1
_PE_ABOVE_ONE = {
    "strong": lambda gl: strong_error_experiment(
        gl, PE, T=4.0, h_list=[2.0, 1.0], h_ref=0.5, n_paths=4, threads=1),
    "moments": lambda gl: moment_trace(
        gl, PE, T=16.0, h=2.0, n_paths=4, threads=1),
    "contraction": lambda gl: contraction_experiment(
        gl, PE, T=16.0, h=2.0, n_paths=4, y0=0.0, threads=1),
    "one-step": lambda gl: one_step_order_experiment(
        gl, PE, [2.0], 1.0, n_paths=4, threads=1),
    "remainder": lambda gl: remainder_scaling_experiment(
        gl, PE, 1.0, 0.5, [4.0], n_paths=4, substeps=2, threads=1),
}


@pytest.mark.parametrize("name", list(_PE_ABOVE_ONE))
def test_a_projected_step_above_one_is_refused_before_any_chunk(
        gl, name, monkeypatch):
    """Projected Euler's radius h^(-1/(2(kappa+1))) needs h <= 1: a track
    with a larger step is a usage error before any worker is forked, not
    from the first step of the first chunk."""
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    with pytest.raises(UsageError, match=r"projection requires h in \(0, 1\]"):
        _PE_ABOVE_ONE[name](gl)


_WITH_P = {
    "strong": lambda gl, p: strong_error_experiment(
        gl, BE, T=0.5, h_list=[0.25], h_ref=0.125, n_paths=4, p=p, threads=1),
    "moments": lambda gl, p: moment_trace(
        gl, BE, T=0.5, h=0.25, n_paths=4, p=p, threads=1),
    "contraction": lambda gl, p: contraction_experiment(
        gl, BE, T=0.5, h=0.25, n_paths=4, p=p, y0=0.0, threads=1),
    "remainder": lambda gl, p: _PROBES["remainder"](gl, [0.25], p),
}


@pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf, True])
@pytest.mark.parametrize("name", list(_WITH_P))
def test_a_bad_p_is_refused_before_any_chunk(gl, name, p, monkeypatch):
    monkeypatch.setattr(simulate, "_map_chunks", _no_chunk)
    with pytest.raises(UsageError, match="p must be positive"):
        _WITH_P[name](gl, p)


def _cubic(pointwise):
    """dX = (-X - X^3) dt + X dW, through `from_pointwise` or as batch
    callables, with analytic Jacobians in both forms."""
    kw = dict(name="cubic", d=1, m=1,
              constants=build_ginzburg_landau().constants)
    if pointwise:
        return SdeProblem.from_pointwise(
            drift=lambda x: -x - x ** 3, diffusion=lambda x: x[:, None],
            drift_jacobian=lambda x: np.diag(-1.0 - 3.0 * x ** 2), **kw)
    return SdeProblem(
        drift_batch=lambda X: -X - X ** 3, diffusion_apply=lambda X, dW: X * dW,
        drift_jacobian_batch=lambda X: (-1.0 - 3.0 * X ** 2)[..., None], **kw)


def test_pointwise_adapter_matches_the_batch_callables():
    """The same problem through the adapter's row loops and through batch
    callables gives pickled-equal strong errors (be and pe, one and two
    workers) and monotone reports."""
    results = {}
    for pointwise in (True, False):
        problem = _cubic(pointwise)
        runs = [strong_error_experiment(
                    problem, SchemeConfig(variant=v), T=0.5,
                    h_list=[2.0 ** -2, 2.0 ** -3], h_ref=2.0 ** -5,
                    n_paths=1030, master_seed=8, x0=1.5, threads=t)
                for v in ("be", "pe") for t in (1, 2)]
        runs.append(check_contractive_monotone(problem))
        results[pointwise] = [pickle.dumps(r) for r in runs]
    assert results[True] == results[False]


# ---------------------------------------------------------------------------
# strong-error experiment: coupling exactness and determinism
# ---------------------------------------------------------------------------

def test_strong_error_engine_matches_stepwise_replication(gl):
    """The whole pipeline (substreams, pairwise coarsening, stepping, the
    running supremum, the moment estimate) rebuilt path by path from
    one-step `evolve_terminal` calls must agree exactly."""
    T, h, h_ref, seed, n_paths = 0.5, 2.0 ** -3, 2.0 ** -5, 11, 3
    curve = strong_error_experiment(gl, BE, T=T, h_list=[h], h_ref=h_ref,
                                    n_paths=n_paths, p=1.0, master_seed=seed,
                                    x0=1.0, threads=1)
    n_fine, factor = round(T / h_ref), round(h / h_ref)
    sups = []
    for i in range(n_paths):
        W = path_generator(seed, i).standard_normal((n_fine, 1)) * math.sqrt(h_ref)
        Wc = pairwise_block_sum(W, factor, axis=0)
        xr, xc, sup = np.array([1.0]), np.array([1.0]), 0.0
        for k in range(n_fine):
            xr = evolve_terminal(gl, BE, h_ref, 1, W[k][None], xr)
            if (k + 1) % factor == 0:
                xc = evolve_terminal(gl, BE, h, 1,
                                     Wc[(k + 1) // factor - 1][None], xc)
                d = xr - xc
                sup = max(sup, float(np.sqrt(np.dot(d, d))))
        sups.append(sup)
    assert curve.estimates[0] == estimate_from_samples(sups, p=1.0)
    assert (curve.model, curve.scheme, curve.hs) == (gl.name, "be", (h,))


@pytest.mark.parametrize("factors", [(2, 4, 8), (8, 16, 32, 64, 128),
                                     (2, 8), (3, 6, 12), (5,)])
def test_the_kernel_coarsens_every_level_as_pairwise_block_sum(gl, factors,
                                                               monkeypatch):
    """Each track's increments, built level from level by pairwise halving
    where a factor is a power of two times a smaller one, are
    `pairwise_block_sum` of the fine noise bit for bit, over two blocks."""
    seen = {}

    def spy(problem, cfg, Z, dW, h, step_index=None):
        seen.setdefault(h, []).append(dW.copy())
        return Z

    monkeypatch.setattr(simulate, "step_batch", spy)
    monkeypatch.setattr(simulate, "BLOCK_STEPS", math.lcm(*factors))
    h_fine, seed, n_paths = 2.0 ** -8, 13, 3
    n_fine = 2 * math.lcm(*factors)
    tracks = [(np.ones(1), f, f * h_fine) for f in factors]
    for _ in simulate._coupled_steps(gl, BE, seed, range(n_paths), h_fine,
                                     n_fine, tracks):
        pass
    W = np.stack([path_generator(seed, i).standard_normal((n_fine, 1))
                  for i in range(n_paths)]) * math.sqrt(h_fine)
    for f in factors:
        got = np.stack(seen[f * h_fine], axis=1)
        assert got.tobytes() == pairwise_block_sum(W, f, axis=1).tobytes(), f


def test_strong_error_zero_when_h_equals_h_ref(gl):
    curve = strong_error_experiment(gl, BE, T=0.5, h_list=[2.0 ** -4],
                                    h_ref=2.0 ** -4, n_paths=8, p=1.0,
                                    master_seed=2, x0=1.0, threads=1)
    est = curve.estimates[0]
    assert est.value == 0.0 and est.std_error == 0.0
    assert est.n_divergent == 0


def test_strong_error_deterministic_problem_first_order():
    # zero diffusion makes every path identical, so three paths suffice and
    # the curve is the deterministic implicit-Euler error, slope about 1
    lin = _deterministic_linear()
    curve = strong_error_experiment(lin, BE, T=1.0,
                                    h_list=[2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
                                    h_ref=2.0 ** -10, n_paths=3, p=1.0,
                                    master_seed=1, x0=1.0, threads=1)
    fit = fit_order(curve.hs, [e.value for e in curve.estimates])
    assert 0.9 <= fit.slope <= 1.1
    assert fit.r_squared > 0.999


def test_strong_error_results_independent_of_thread_count(gl):
    # 1030 paths spans three path chunks; the merged estimates must be
    # identical in every bit regardless of worker count
    kw = dict(T=1.0, h_list=[2.0 ** -4, 2.0 ** -5], h_ref=2.0 ** -7,
              n_paths=1030, p=1.0, master_seed=7, x0=1.0)
    assert (strong_error_experiment(gl, BE, threads=1, **kw)
            == strong_error_experiment(gl, BE, threads=4, **kw))


def test_strong_error_grid_validation(gl):
    with pytest.raises(UsageError):
        strong_error_experiment(gl, BE, T=1.0, h_list=[2.0 ** -5],
                                h_ref=2.0 ** -4, n_paths=2)  # h_ref too coarse
    with pytest.raises(UsageError):
        strong_error_experiment(gl, BE, T=1.0, h_list=[0.3],
                                h_ref=0.125, n_paths=2)  # non-integer ratio
    with pytest.raises(UsageError):
        strong_error_experiment(gl, BE, T=1.0, h_list=[0.375],
                                h_ref=0.125, n_paths=2)  # h does not divide T
    with pytest.raises(UsageError):
        # 0.3 / 0.1 is 3 only up to rounding: the floats are not multiples
        strong_error_experiment(gl, BE, T=0.9, h_list=[0.3], h_ref=0.1,
                                n_paths=2)
    with pytest.raises(UsageError):
        strong_error_experiment(gl, BE, T=1.0, h_list=[], h_ref=0.125, n_paths=2)
    for h_ref in (0.0, -0.125, math.nan, "x"):  # by the positive-real rule
        with pytest.raises(UsageError, match="^h_ref must be positive"):
            strong_error_experiment(gl, BE, T=1.0, h_list=[0.25], h_ref=h_ref,
                                    n_paths=2)
    for T in (True, "2", -1.0):  # so is the horizon
        with pytest.raises(UsageError, match="^T must be positive"):
            strong_error_experiment(gl, BE, T=T, h_list=[0.25], h_ref=0.125,
                                    n_paths=2)
    with pytest.raises(UsageError):
        strong_error_experiment(gl, BE, T=1.0, h_list=[0.25], h_ref=0.125,
                                n_paths=0)


def _invariance_runs():
    """Strong-error and moment-trace results on GL and Allen-Cahn (K=4) under
    every scheme, 30 paths, with the current chunk and block sizes."""
    out = {}
    for problem, T, ladder, h_ref in (
            (build_ginzburg_landau(), 0.5, [2.0 ** -3, 2.0 ** -4], 2.0 ** -6),
            (build_allen_cahn(K=4), 15.0 / 2.0 ** 5,
             [15.0 / 2.0 ** 7, 15.0 / 2.0 ** 8], 15.0 / 2.0 ** 10)):
        for variant in ("em", "be", "pe"):
            cfg = SchemeConfig(variant=variant)
            out[problem.name, variant] = (
                strong_error_experiment(problem, cfg, T=T, h_list=ladder,
                                        h_ref=h_ref, n_paths=30, master_seed=4,
                                        x0=2.0, threads=1),
                moment_trace(problem, cfg, T=4 * T, h=ladder[0], n_paths=30,
                             master_seed=5, x0=3.0, n_records=6, threads=1))
    return out


@pytest.fixture(scope="module")
def invariance_reference():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_PATHS", 512)
        mp.setattr(simulate, "BLOCK_STEPS", 4096)
        return _invariance_runs()


@pytest.mark.parametrize("chunk", [5, 7, 11, 512, 4096])
@pytest.mark.parametrize("block", [3, 4096])
def test_results_independent_of_chunk_and_block_size(chunk, block, monkeypatch,
                                                     invariance_reference):
    """Per-path substreams make the path chunking and the noise time blocks
    invisible: every chunk and block size gives the chunk-512 / block-4096
    results in every bit. On 30 paths CHUNK_PATHS 5, 7 and 11 give chunks of
    10, 14 and 22 paths, not powers of two. Block 3 is below the coarsest
    factor, so it exercises the rounding of blocks up to whole coarse
    steps."""
    monkeypatch.setattr(simulate, "CHUNK_PATHS", chunk)
    monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
    for key, (curve, (times, ests)) in _invariance_runs().items():
        ref_curve, (ref_times, ref_ests) = invariance_reference[key]
        assert curve == ref_curve, key
        npt.assert_array_equal(times, ref_times)
        assert ests == ref_ests, key


def test_a_chunk_returns_sums_not_samples(gl, monkeypatch):
    """Per slot a chunk returns one `_Sums` record, its divergent count and
    exact sums, a fixed number of Python ints of bounded size, and the run's
    total, folded from the chunks' records, has the same form: neither what
    a chunk returns nor what the run holds grows with its paths."""
    chunks, totals = {}, {}

    def chunk_spy(worker, paths, catch):
        chunks[len(paths)] = real_chunk(worker, paths, catch)
        return chunks[len(paths)]

    def map_spy(worker, n_paths, threads):
        totals[n_paths] = real_map(worker, n_paths, threads)
        return totals[n_paths]

    real_chunk, real_map = simulate._outcome, simulate._map_chunks
    monkeypatch.setattr(simulate, "_outcome", chunk_spy)
    monkeypatch.setattr(simulate, "_map_chunks", map_spy)
    for n_paths in (16, 1024):  # one chunk each at one worker
        moment_trace(gl, EM, T=4.0, h=0.25, n_paths=n_paths, x0=2.0,
                     n_records=8, threads=1)
    # y^2 < 2^2048, so a sum of fewer than 2^64 of them has no more bits
    limit = simulate._UNIT_BITS + 2048 + 64
    for small, big in ((chunks[16], chunks[1024]),
                       (totals[16], totals[1024])):
        assert len(small) == len(big) == 9  # one entry per record
        for a, b in zip(small, big):
            assert type(a) is type(b) is simulate._Sums
            ints = [v for r in (a, b)
                    for v in (r.n_divergent, *r.bad, *r.s1, *r.s2)]
            assert len(ints) == 8
            assert all(type(v) is int and v.bit_length() <= limit
                       for v in ints)


def test_a_run_holds_one_record_per_slot(gl, monkeypatch):
    """The chunks' records are added up as the chunks finish, so a run
    holds one record per slot however many chunks it has: a 101-record
    moment trace over 32 chunks peaks at most a quarter above the same
    trace over 8 chunks (holding every chunk's records until the last
    chunk had run took 3.7 times the memory)."""
    monkeypatch.setattr(simulate, "CHUNK_PATHS", 16)

    def peak(n_paths):
        tracemalloc.start()
        try:
            moment_trace(gl, EM, T=25.0, h=0.25, n_paths=n_paths, x0=2.0,
                         threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # caches and first-call allocations
    assert peak(1024) <= 1.25 * peak(256)


def test_a_chunk_holds_one_noise_block_at_a_time(gl, monkeypatch):
    """A chunk reuses one noise buffer for every time block, so its memory
    does not grow with the horizon: a 512-path trace over 8 blocks peaks
    at most half again above the same trace over one block (holding the
    next block while the last was still alive took 2.2 times the memory;
    what remains is mostly the carried generator states)."""
    monkeypatch.setattr(simulate, "BLOCK_STEPS", 512)

    def peak(n_fine):
        tracemalloc.start()
        try:
            moment_trace(gl, EM, T=n_fine / 64, h=2.0 ** -6, n_paths=512,
                         threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # caches and first-call allocations
    assert peak(4096) <= 1.5 * peak(512)


def _accumulator_spy(monkeypatch):
    """The shape of every `_exact_sums` call's rows."""
    calls = []
    real = simulate._exact_sums

    def spy(y):
        calls.append(y.shape)
        return real(y)

    monkeypatch.setattr(simulate, "_exact_sums", spy)
    return calls


def test_tile_boundaries_are_invisible(gl, monkeypatch):
    """A moment trace of 21 records (not a multiple of TILE) and the
    one-step probe on Allen-Cahn, whose slot of the positive and negative
    parts takes 2 d = 6 rows, give the same bits with one record per tile
    (summed a row at a time) as with TILE records, and the accumulator
    never sees more than TILE rows."""
    ac = build_allen_cahn(K=4)

    def runs():
        trace = moment_trace(gl, EM, T=8.0, h=0.25, n_paths=300,
                             master_seed=3, x0=2.0, n_records=20, threads=1)
        probe = one_step_order_experiment(ac, EM, [0.25, 0.125], 1.0,
                                          n_paths=40, master_seed=5,
                                          substeps=4, threads=1)
        return trace, probe

    def bits(trace, probe):
        return ([(e.value.hex(), e.std_error.hex(), e.n_divergent)
                 for e in trace],
                [(s.value.hex(), s.std_error.hex(), s.n_divergent, w.hex())
                 for _, s, w in probe])

    calls = _accumulator_spy(monkeypatch)
    (times, trace), probe = runs()
    assert len(trace) == 21 and 21 % simulate.TILE
    assert max(rows for rows, _ in calls) <= simulate.TILE
    monkeypatch.setattr(simulate, "TILE", 1)
    (times_1, trace_1), probe_1 = runs()
    npt.assert_array_equal(times, times_1)
    assert bits(trace, probe) == bits(trace_1, probe_1)


def test_the_tile_does_not_grow_with_the_records(gl, monkeypatch):
    """10,000 records of 6 paths are summed TILE records at a time, in the
    same (TILE, 6) tile from the first call to the last."""
    calls = _accumulator_spy(monkeypatch)
    _, trace = moment_trace(gl, EM, T=2500.0, h=0.25, n_paths=6,
                            master_seed=1, x0=1.0, n_records=10_000,
                            threads=1)
    assert len(trace) == 10_001
    assert len(calls) == -(-10_001 // simulate.TILE)
    assert set(calls[:-1]) == {(simulate.TILE, 6)}
    assert calls[-1] == (10_001 % simulate.TILE or simulate.TILE, 6)


def test_a_divergent_trace_is_identical_across_workers_and_chunks(
        gl, monkeypatch):
    """Explicit Euler from 2 at h = 1/4 loses 10 of 600 paths, and its
    standard errors run from 0 through 5e42 to inf. Every estimate,
    std_error included, is the same in every bit at one and two workers
    and in one chunk of 600 paths, chunks of 512 and 88, or chunks of 10."""
    def bits(estimates):
        return [(e.value.hex(), e.std_error.hex(), e.n_divergent)
                for e in estimates]

    runs = []
    for chunk, threads in ((512, 1), (512, 2), (5, 1), (5, 2)):
        monkeypatch.setattr(simulate, "CHUNK_PATHS", chunk)
        runs.append(bits(moment_trace(gl, EM, T=8.0, h=0.25, n_paths=600,
                                      master_seed=3, x0=2.0, n_records=16,
                                      threads=threads)[1]))
    assert runs[1:] == runs[:1] * 3
    assert runs[0][-1][2] == 10
    errors = {float.fromhex(se) for _, se, _ in runs[0]}
    assert {0.0, math.inf} <= errors and max(errors - {math.inf}) > 1e42


# ---------------------------------------------------------------------------
# differential oracle: the engine's reducers against a path-by-path loop
# ---------------------------------------------------------------------------

_ORACLE_PROBLEMS = {"gl": build_ginzburg_landau(), "ac": build_allen_cahn(K=3)}


def _oracle_track(problem, cfg, h, increments, x0):
    """The states of one path after 0, 1, ... steps, each step one
    `evolve_terminal` call; the first non-finite state is kept from there
    on, since `evolve_terminal` starts only from finite states."""
    states = [x0]
    for dW in increments:
        x = states[-1]
        states.append(evolve_terminal(problem, cfg, h, 1, dW[None], x)
                      if np.isfinite(x).all() else x)
    return states


def _norm(x):
    return _row_norms(x[None])[0]


def _oracle_estimates(samples, n_div):
    return [estimate_from_samples(s, p=1.0, n_divergent=n)
            for s, n in zip(samples, n_div)]


def _oracle_strong(problem, cfg, T, hs, h_ref, n_paths, seed, x0):
    """Each level's estimate from its paths that are finite at every grid
    point of that level, their sup of |Z_ref - Z_h| over those points."""
    n_fine = round(T / h_ref)
    samples, n_div = [[] for _ in hs], [0 for _ in hs]
    for path in range(n_paths):
        grid = make_noise_grid(seed, path, problem.m, h_ref, n_fine)
        ref = _oracle_track(problem, cfg, h_ref, grid.increments, x0)
        for level, h in enumerate(hs):
            f = round(h / h_ref)
            coarse = _oracle_track(problem, cfg, h, coarsen(grid, f), x0)
            if all(np.isfinite(ref[n * f]).all() and np.isfinite(z).all()
                   for n, z in enumerate(coarse)):
                samples[level].append(max(_norm(ref[n * f] - z)
                                          for n, z in enumerate(coarse)))
            else:
                n_div[level] += 1
    return _oracle_estimates(samples, n_div)


def _oracle_trace(problem, cfg, h, n_steps, records, n_paths, seed, starts,
                  statistic):
    """Each record's estimate from the paths whose every track is finite at
    that record and at every record before it."""
    samples, n_div = [[] for _ in records], [0 for _ in records]
    for path in range(n_paths):
        increments = make_noise_grid(seed, path, problem.m, h,
                                     n_steps).increments
        tracks = [_oracle_track(problem, cfg, h, increments, x)
                  for x in starts]
        alive = True
        for j, k in enumerate(records):
            Zs = [t[k] for t in tracks]
            alive = alive and all(np.isfinite(z).all() for z in Zs)
            if alive:
                samples[j].append(statistic(*Zs))
            else:
                n_div[j] += 1
    return _oracle_estimates(samples, n_div)


# the ladders as factors over h_ref: dyadic, with a skipped level, and
# from an odd base
_LADDERS = [(2,), (2, 4), (2, 4, 8), (2, 8), (3, 6), (3, 12), (5,)]


def _ladder_steps(case):
    """h_ref = 2^-(h_exp + 3), the ladder's steps largest first, and the
    largest step."""
    h_ref = 2.0 ** -(case["h_exp"] + 3)
    hs = [f * h_ref for f in sorted(case["ladder"], reverse=True)]
    return h_ref, hs, hs[0]


_DIVERGENT_CASE = dict(model="gl", variant="em", x0=3.0, h_exp=1,
                       ladder=(2, 4, 8),
                       n_coarse=8, n_trace=10, n_records=4, n_paths=12,
                       threads=2, chunk=3, block=5, seed=7)


@settings(max_examples=12, deadline=None)
@given(st.fixed_dictionaries(dict(
    model=st.sampled_from(sorted(_ORACLE_PROBLEMS)),
    variant=st.sampled_from(["em", "be", "pe"]),
    x0=st.sampled_from([0.5, 1.5, 3.0]),
    h_exp=st.integers(1, 3), ladder=st.sampled_from(_LADDERS),
    n_coarse=st.integers(1, 8), n_trace=st.integers(1, 12),
    n_records=st.integers(1, 4), n_paths=st.integers(1, 40),
    threads=st.integers(1, 3), chunk=st.integers(1, 16),
    block=st.integers(1, 9), seed=st.integers(0, 2 ** 20))))
@example(_DIVERGENT_CASE)
@example(dict(_DIVERGENT_CASE, variant="be", ladder=(3, 12), n_paths=7))
def test_reducers_equal_a_path_by_path_oracle(case):
    """Strong error, moment trace and contraction trace, at any worker
    count, chunk size and block size (blocks need not be multiples of the
    ladder's factors), equal in every bit the estimates built path by path
    from `make_noise_grid`, `coarsen` and single `evolve_terminal` steps,
    where a path counts only while it is finite at every grid point or
    record so far. The ladder's factors (steps over h_ref) may skip a
    level or start from an odd base. The first explicit example diverges
    on some paths and levels; the second is an odd ladder with a skipped
    level."""
    problem = _ORACLE_PROBLEMS[case["model"]]
    cfg = SchemeConfig(variant=case["variant"])
    x0 = np.full(problem.d, case["x0"])
    h_ref, hs, h = _ladder_steps(case)
    T, T_trace = case["n_coarse"] * h, case["n_trace"] * h
    n_paths, seed, threads = case["n_paths"], case["seed"], case["threads"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_PATHS", case["chunk"])
        mp.setattr(simulate, "BLOCK_STEPS", case["block"])
        curve = strong_error_experiment(problem, cfg, T=T, h_list=hs,
                                        h_ref=h_ref, n_paths=n_paths,
                                        master_seed=seed, x0=x0,
                                        threads=threads)
        times, moments = moment_trace(problem, cfg, T=T_trace, h=h,
                                      n_paths=n_paths, master_seed=seed,
                                      x0=x0, n_records=case["n_records"],
                                      threads=threads)
        _, gaps = contraction_experiment(problem, cfg, T=T_trace, h=h,
                                         n_paths=n_paths, master_seed=seed,
                                         x0=x0, y0=-x0 / 2,
                                         n_records=case["n_records"],
                                         threads=threads)
    records = [round(t / h) for t in times]
    assert list(curve.estimates) == _oracle_strong(problem, cfg, T, hs, h_ref,
                                                   n_paths, seed, x0)
    assert moments == _oracle_trace(problem, cfg, h, case["n_trace"], records,
                                    n_paths, seed, [x0], _norm)
    assert gaps == _oracle_trace(problem, cfg, h, case["n_trace"], records,
                                 n_paths, seed, [x0, -x0 / 2],
                                 lambda x, y: _norm(x - y))


def test_the_oracle_example_diverges():
    """The explicit example of the oracle test keeps its point: some paths
    of some levels and records diverge, and not all of them."""
    case = _DIVERGENT_CASE
    problem = _ORACLE_PROBLEMS[case["model"]]
    h_ref, hs, h = _ladder_steps(case)
    n_div = [e.n_divergent for e in _oracle_strong(
        problem, SchemeConfig(variant="em"), case["n_coarse"] * h, hs, h_ref,
        case["n_paths"], case["seed"], np.full(problem.d, case["x0"]))]
    assert 0 < max(n_div) and min(n_div) < case["n_paths"], n_div


def _oracle_terminals(problem, cfg, h, substeps, n_paths, seed, starts):
    """Per path, each start's state after `substeps` steps of h / substeps
    (one `evolve_terminal` run on `make_noise_grid` increments), then the
    state after one step of h on their pairwise sum from the first start."""
    h_fine = h / substeps
    for path in range(n_paths):
        grid = make_noise_grid(seed, path, problem.m, h_fine, substeps)
        coarse = pairwise_block_sum(grid.increments, substeps)
        yield ([evolve_terminal(problem, cfg, h_fine, substeps, grid, x)
                for x in starts]
               + [evolve_terminal(problem, cfg, h, 1, coarse, starts[0])])


def _finite(*states):
    return all(np.isfinite(z).all() for z in states)


def _oracle_one_step(problem, cfg, hs, x, n_paths, seed, substeps):
    """Per h, over the paths whose fine and coarse states are both finite
    (the others counted divergent): the RMS estimate of |fine - coarse| and
    the norm of the mean difference, the mean a compensated sum per
    component, 0 with no survivor and inf where the sum leaves float range."""
    results = []
    for h in hs:
        diffs = [fine - coarse for fine, coarse in _oracle_terminals(
            problem, cfg, h, substeps, n_paths, seed, [x])
            if _finite(fine, coarse)]
        try:
            mean = [math.fsum(d[j] for d in diffs) / max(len(diffs), 1)
                    for j in range(problem.d)]
        except OverflowError:
            mean = [math.inf]
        results.append((h, estimate_from_samples(
            [_norm(d) for d in diffs], p=1.0,
            n_divergent=n_paths - len(diffs)), math.hypot(*mean)))
    return results


def _oracle_remainder(problem, cfg, hs, x0, y0, n_paths, seed, substeps):
    """Per h: the estimate of |(X_h - Y_h) - (x0 - y0)| over the paths whose
    X_h and Y_h are both finite, the others counted divergent."""
    results = []
    for h in hs:
        samples = [_norm((x - y) - (x0 - y0)) for x, y, _ in _oracle_terminals(
            problem, cfg, h, substeps, n_paths, seed, [x0, y0])
            if _finite(x, y)]
        results.append((h, estimate_from_samples(
            samples, p=1.0, n_divergent=n_paths - len(samples))))
    return results


# explicit Euler from 5 on the oracle's GL blows up within 8 substeps of
# h = 1/2 on 2 of these 200 paths, on the fine track of both probes
_TERMINAL_DIVERGENT_CASE = dict(model="gl", variant="em", x0=5.0, h_exp=1,
                                levels=2, substeps=8, n_paths=200, threads=2,
                                chunk=7, block=3, seed=1)


@settings(max_examples=12, deadline=None)
@given(st.fixed_dictionaries(dict(
    model=st.sampled_from(sorted(_ORACLE_PROBLEMS)),
    variant=st.sampled_from(["em", "be", "pe"]),
    x0=st.sampled_from([0.5, 1.5, 3.0]),
    h_exp=st.integers(1, 3), levels=st.integers(1, 3),
    substeps=st.integers(2, 8), n_paths=st.integers(1, 40),
    threads=st.integers(1, 3), chunk=st.integers(1, 16),
    block=st.integers(1, 9), seed=st.integers(0, 2 ** 20))))
@example(_TERMINAL_DIVERGENT_CASE)
def test_terminal_protocols_equal_a_path_by_path_oracle(case):
    """The one-step and remainder probes, at any worker count, chunk size
    and block size (blocks need not be multiples of `substeps`), equal in
    every bit the results built path by path from `make_noise_grid`,
    `pairwise_block_sum` and `evolve_terminal` runs, where a path counts
    only if every state the probe reads is finite at its end. The explicit
    example diverges on some paths, not all."""
    problem = _ORACLE_PROBLEMS[case["model"]]
    cfg = SchemeConfig(variant=case["variant"])
    x0 = np.full(problem.d, case["x0"])
    h = 2.0 ** -case["h_exp"]
    hs = [h / 2 ** j for j in range(case["levels"])]
    n_paths, seed, substeps = case["n_paths"], case["seed"], case["substeps"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_PATHS", case["chunk"])
        mp.setattr(simulate, "BLOCK_STEPS", case["block"])
        one_step = one_step_order_experiment(
            problem, cfg, h_list=hs, x=x0, n_paths=n_paths, master_seed=seed,
            substeps=substeps, threads=case["threads"])
        remainder = remainder_scaling_experiment(
            problem, cfg, x0=x0, y0=-x0 / 2, h_list=hs, n_paths=n_paths,
            master_seed=seed, substeps=substeps, threads=case["threads"])
    assert one_step == _oracle_one_step(problem, cfg, hs, x0, n_paths, seed,
                                        substeps)
    assert remainder == _oracle_remainder(problem, cfg, hs, x0, -x0 / 2,
                                          n_paths, seed, substeps)


def test_the_terminal_oracle_example_diverges():
    """The explicit example of the terminal oracle test keeps its point:
    both probes drop some of its paths at the coarsest h, and not all."""
    case = _TERMINAL_DIVERGENT_CASE
    problem = _ORACLE_PROBLEMS[case["model"]]
    x0, h = np.full(problem.d, case["x0"]), 2.0 ** -case["h_exp"]
    args = (problem, SchemeConfig(variant=case["variant"]), [h])
    rest = (case["n_paths"], case["seed"], case["substeps"])
    [(_, strong, _)] = _oracle_one_step(*args, x0, *rest)
    [(_, remainder)] = _oracle_remainder(*args, x0, -x0 / 2, *rest)
    for est in (strong, remainder):
        assert 0 < est.n_divergent < case["n_paths"], est


def test_terminal_protocols_count_diverged_paths():
    """Explicit Euler from x = 5 at h = 1/2 turns 2 of 200 paths non-finite
    within 8 substeps. Both terminal probes drop and count exactly the paths
    whose fine or coarse track (X or Y for the remainder) ends non-finite,
    at one worker and at two, instead of keeping them as inf samples."""
    problem = _ORACLE_PROBLEMS["gl"]
    x, y = np.array([5.0]), np.array([4.0])
    run = (0.5, 8, 200, 1)
    blown_one_step = sum(not _finite(*z) for z in _oracle_terminals(
        problem, EM, *run, [x]))
    blown_remainder = sum(not _finite(*z[:2]) for z in _oracle_terminals(
        problem, EM, *run, [x, y]))
    assert blown_one_step == blown_remainder == 2
    for threads in (1, 2):
        [(_, strong, _)] = one_step_order_experiment(
            problem, EM, [0.5], x, n_paths=200, master_seed=1, substeps=8,
            threads=threads)
        [(_, remainder)] = remainder_scaling_experiment(
            problem, EM, x, y, [0.5], n_paths=200, master_seed=1, substeps=8,
            threads=threads)
        assert strong.n_divergent == blown_one_step
        assert remainder.n_divergent == blown_remainder


# ---------------------------------------------------------------------------
# moment traces: recording, divergence tagging, step ceiling, stationarity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run", [
    lambda gl, n: moment_trace(gl, BE, T=1.0, h=0.25, n_paths=n),
    lambda gl, n: contraction_experiment(gl, BE, T=1.0, h=0.25, n_paths=n),
    lambda gl, n: one_step_order_experiment(gl, BE, [0.25], 1.0, n_paths=n),
    lambda gl, n: remainder_scaling_experiment(gl, BE, 1.0, 0.5, [0.25],
                                               n_paths=n),
], ids=["moments", "contraction", "one-step", "remainder"])
def test_protocols_require_paths(gl, run):
    """No path, a fraction of one, or True (which would run one path and
    report n_paths=True) is refused."""
    for n_paths in (0, 2.5, True):
        with pytest.raises(UsageError, match="n_paths must be an integer"):
            run(gl, n_paths)


@pytest.mark.parametrize("run", [
    lambda gl, n: moment_trace(gl, BE, T=1.0, h=0.25, n_paths=4, n_records=n),
    lambda gl, n: contraction_experiment(gl, BE, T=1.0, h=0.25, n_paths=4,
                                         n_records=n),
    lambda gl, n: remainder_scaling_experiment(gl, BE, 1.0, 0.5, [0.25],
                                               n_paths=4, substeps=n),
], ids=["moments", "contraction", "remainder"])
def test_protocols_refuse_empty_records_and_substeps(gl, run):
    for count in (0, 2.5, True):
        with pytest.raises(UsageError, match="must be an integer >= 1"):
            run(gl, count)


def test_moment_trace_record_structure(gl):
    times, ests = moment_trace(gl, BE, T=2.0, h=2.0 ** -4, n_paths=16, p=2.0,
                               master_seed=7, x0=1.0, n_records=8, threads=1)
    npt.assert_allclose(times, np.arange(9) * 0.25, rtol=0, atol=0)
    assert times[0] == 0.0 and times[-1] == 2.0
    first = ests[0]
    assert first.value == 1.0          # |x0| exactly, before any noise
    assert first.std_error == 0.0
    assert first.n_divergent == 0


def test_moment_trace_from_origin_is_identically_zero(gl):
    # f(0) = 0 and g(0) = 0 make the origin absorbing for the implicit
    # scheme, so every record is exactly zero with zero spread.
    _, ests = moment_trace(gl, BE, T=2.0, h=0.25, n_paths=8, p=1.0,
                           master_seed=9, x0=0.0)
    assert all((e.value, e.std_error, e.n_divergent) == (0.0, 0.0, 0)
               for e in ests)


def test_moment_trace_tags_explicit_blowup(gl):
    # x0 = 3 puts explicit Euler far outside its stability region at h = 1/2;
    # every path must be counted divergent by the end, none silently kept
    times, ests = moment_trace(gl, EM, T=8.0, h=0.5, n_paths=8, p=1.0,
                               master_seed=0, x0=3.0, n_records=4, threads=1)
    assert ests[0].n_divergent == 0
    last = ests[-1]
    assert last.n_divergent == 8
    assert last.value == 0.0  # no survivors to average
    # the implicit scheme on the identical protocol keeps every path finite
    _, ests_be = moment_trace(gl, BE, T=8.0, h=0.5, n_paths=8, p=1.0,
                              master_seed=0, x0=3.0, n_records=4, threads=1)
    assert all(e.n_divergent == 0 for e in ests_be)


def test_moment_trace_reaches_statistical_equilibrium(gl):
    """Second-moment trace from x0 = 2: after the transient dies out the
    trace must flatten. The equilibrium here is the point mass at zero, so
    the late-time level is noise at the scale of float roundoff -- the check
    uses a relative band plus an absolute floor at 1e-6 of the peak."""
    times, ests = moment_trace(gl, BE, T=100.0, h=2.0 ** -3, n_paths=256,
                               p=1.0, master_seed=3, x0=2.0, n_records=100,
                               threads=2)
    times = np.asarray(times)
    vals = np.asarray([e.value for e in ests])
    assert int(sum(e.n_divergent for e in ests)) == 0
    v_mid = float(vals[np.searchsorted(times, 50.0)])
    late_sup = float(vals[times >= 50.0].max())
    assert late_sup <= max(1.25 * v_mid, 1e-6 * float(vals.max()))


def test_moment_trace_thread_count_is_invisible(gl):
    kw = dict(T=2.0, h=2.0 ** -4, n_paths=1030, p=2.0, master_seed=7, x0=1.0,
              n_records=8)
    t1, e1 = moment_trace(gl, BE, threads=1, **kw)
    t3, e3 = moment_trace(gl, BE, threads=3, **kw)
    npt.assert_array_equal(t1, t3)
    assert e1 == e3


# ---------------------------------------------------------------------------
# contraction of coupled flows
# ---------------------------------------------------------------------------

def test_contraction_gap_shrinks_and_starts_exact(gl):
    times, ests = contraction_experiment(gl, BE, T=8.0, h=2.0 ** -3,
                                         n_paths=64, p=1.0, master_seed=5,
                                         x0=1.0, y0=0.0, n_records=16,
                                         threads=1)
    assert ests[0].value == 1.0  # |x0 - y0| before any steps
    assert ests[-1].value < 0.05 * ests[0].value  # two flows nearly merged
    assert all(e.n_divergent == 0 for e in ests)


def test_a_gap_whose_plain_norm_overflows_starts_exact(gl):
    """From 1e200 and -1e200 the gap's plain norm overflows; at p = 1/2
    the estimate at t = 0 is still the gap, 2e200, not inf."""
    _, ests = contraction_experiment(gl, BE, T=1.0, h=0.25, n_paths=4, p=0.5,
                                     x0=1e200, y0=-1e200, threads=1)
    assert (ests[0].value, ests[0].std_error) == (2e200, 0.0)


def test_contraction_requires_distinct_starts(gl):
    with pytest.raises(UsageError):
        contraction_experiment(gl, BE, T=1.0, h=0.25, n_paths=4,
                               x0=1.0, y0=1.0)


def test_contraction_zero_diffusion_matches_closed_form():
    # dx = -x dt with no noise: the coupled gap obeys the deterministic
    # recursion gap_(n+1) = gap_n / (1 + h) exactly, every path alike, so
    # each record equals 0.8^n with zero spread.
    lin = _deterministic_linear()
    times, ests = contraction_experiment(lin, BE, T=2.0, h=0.25, n_paths=4,
                                         p=1.0, master_seed=3, x0=1.0, y0=0.0)
    for t, est in zip(times, ests):
        assert est.value == pytest.approx(0.8 ** round(t / 0.25), rel=1e-11)
        assert est.std_error == 0.0


# ---------------------------------------------------------------------------
# one-step probes and flow-remainder scaling
# ---------------------------------------------------------------------------

def test_one_step_probe_weak_below_strong(gl):
    # |E diff| <= E|diff| <= rms(diff): the weak error can never exceed the
    # strong estimate on the same ensemble
    results = one_step_order_experiment(gl, BE, h_list=[2.0 ** -4, 2.0 ** -5],
                                        x=1.0, n_paths=256, master_seed=3,
                                        substeps=4, threads=1)
    assert [h for h, _, _ in results] == [2.0 ** -4, 2.0 ** -5]
    for _, strong, weak in results:
        assert 0.0 < weak <= strong.value * (1.0 + 1e-12)
        assert strong.n_divergent == 0
    for substeps in (1, 2.5, True):
        with pytest.raises(UsageError, match="substeps must be an integer"):
            one_step_order_experiment(gl, BE, h_list=[0.25], x=1.0,
                                      n_paths=4, substeps=substeps)


def test_one_step_weak_error_at_the_edges_of_float_range():
    """Without noise every path is the same. Explicit Euler from 17380 ends
    its 4 substeps near 2.1e307, finite, so the sum of 10 paths leaves
    float range and the weak error is inf rather than an OverflowError;
    from 20000 every path diverges, and the weak error is 0 like the
    estimate."""
    still = build_ginzburg_landau(sigma=0.0)
    [(_, strong, weak)] = one_step_order_experiment(
        still, EM, [0.5], 17380.0, n_paths=10, substeps=4, threads=1)
    assert (strong.n_divergent, weak) == (0, math.inf)
    [(_, strong, weak)] = one_step_order_experiment(
        still, EM, [0.5], 20000.0, n_paths=10, substeps=4, threads=1)
    assert (strong.n_divergent, strong.value, weak) == (10, 0.0, 0.0)


def test_one_step_probe_keeps_its_recorded_bits(gl):
    """The one-step probe on Allen-Cahn K = 4 (d = 3, differences of either
    sign in every component) and on explicit Euler from 5 on GL, where 2 of
    200 paths diverge at h = 1/2 and the mean is near 2^581, keeps the bits
    recorded when its slot still summed the signed differences; and a -0.0
    sample adds nothing, as +0.0."""
    def bits(results):
        return [(s.value.hex(), s.std_error.hex(), s.n_divergent, w.hex())
                for _, s, w in results]

    assert bits(one_step_order_experiment(
        build_allen_cahn(K=4), BE, [2.0 ** -3, 2.0 ** -4], 1.0, n_paths=64,
        master_seed=5, substeps=4, threads=1)) == [
        ("0x1.b968fe20ae461p-3", "0x1.f9cc2c65017ffp-7", 0,
         "0x1.473b26a5dbfb8p-3"),
        ("0x1.028a0080e3850p-3", "0x1.206fb9c0d482dp-7", 0,
         "0x1.70eb9819fc8dbp-4")]
    assert bits(one_step_order_experiment(
        gl, EM, [0.5, 0.25], 5.0, n_paths=200, master_seed=1, substeps=8,
        threads=1)) == [
        ("inf", "inf", 2, "0x1.5e97ee0dc3293p+581"),
        ("0x1.c007e36453b17p+4", "0x1.4589a9f7d318bp-3", 0,
         "0x1.be984dc49549fp+4")]
    est = estimate_from_samples([-0.0, 0.0, 1.0], 0.5)
    assert (est.value.hex(), est.std_error.hex(), est.n_paths) == (
        "0x1.5555555555555p-2", "0x1.5555555555555p-2", 3)


def _one_step(variant):
    """One step of the scheme from x on the increment dW, through
    `evolve_terminal`."""
    cfg = SchemeConfig(variant=variant)
    return lambda problem, x, h, dW: evolve_terminal(problem, cfg, h, 1,
                                                     dW[None], x)


# explicit ids, so that each case keeps its name across versions
@pytest.mark.parametrize("variant, step", [
    ("em", _one_step("em")), ("be", _one_step("be")), ("pe", _one_step("pe"))],
    ids=["em-em_step", "be-backward_euler_step", "pe-<lambda>"])
def test_one_step_engine_matches_stepwise_replication(gl, variant, step):
    """One coarse step against `substeps` fine steps on the same noise,
    rebuilt path by path from one-step `evolve_terminal` calls, must agree
    exactly with the engine, strong and weak errors alike."""
    hs, x, seed, n_paths, substeps = [2.0 ** -3, 2.0 ** -5], 1.0, 8, 5, 4
    results = one_step_order_experiment(gl, SchemeConfig(variant=variant),
                                        h_list=hs, x=x, n_paths=n_paths,
                                        master_seed=seed, substeps=substeps,
                                        threads=1)
    for (h, strong, weak), h_expected in zip(results, hs):
        h_fine = h / substeps
        diffs = []
        for i in range(n_paths):
            W = (path_generator(seed, i).standard_normal((substeps, 1))
                 * math.sqrt(h_fine))
            xf = np.array([x])
            for j in range(substeps):
                xf = step(gl, xf, h_fine, W[j])
            xc = step(gl, np.array([x]), h,
                      pairwise_block_sum(W, substeps, axis=0)[0])
            diffs.append(xf - xc)
        diffs = np.asarray(diffs)
        mean = math.fsum(diffs[:, 0].tolist()) / n_paths
        assert h == h_expected
        norms = [float(np.sqrt(np.dot(d, d))) for d in diffs]
        assert strong == estimate_from_samples(norms, p=1.0)
        assert weak == math.sqrt(mean * mean)


def test_flow_remainder_scales_like_sqrt_h(gl):
    """(E |(X_h - Y_h) - (x0 - y0)|^2)^(1/2) for coupled flows started at 1
    and 1/2: the remainder's leading term is the noise picked up over one
    window, so the root scales like h^(1/2)."""
    res = remainder_scaling_experiment(gl, BE, x0=1.0, y0=0.5,
                                       h_list=[2.0 ** -2, 2.0 ** -3,
                                               2.0 ** -4, 2.0 ** -5],
                                       n_paths=2000, p=1.0, master_seed=5,
                                       substeps=64, threads=2)
    fit = fit_order([h for h, _ in res], [e.value for _, e in res])
    assert 0.35 <= fit.slope <= 0.65
    assert fit.r_squared > 0.99
