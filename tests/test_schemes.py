"""One-step integrators: frozen-value oracles, algebraic invariants, failure paths."""

import collections
import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_longtime import (MonotoneConstants, SchemeConfig, SdeProblem,
                          SolverFailure, UsageError, build_allen_cahn,
                          build_ginzburg_landau, evolve_terminal,
                          scheme_orders, schemes, step_ceiling)
from sde_longtime.model import _cubic_root, drift_rows
from sde_longtime.schemes import (VARIANTS, _jacobian_rows, _row_norms,
                                  project_batch, solve_implicit_batch,
                                  step_batch)

EM = SchemeConfig(variant="em")
BE = SchemeConfig(variant="be")
PE = SchemeConfig(variant="pe")


@pytest.fixture(scope="module")
def gl():
    # drift -x - x^3, diffusion x, kappa = 3
    return build_ginzburg_landau(eta=-1.5, sigma=1.0, theta=1.0)


@pytest.fixture(scope="module")
def gl_newton(gl):
    """GL without its closed-form root: the damped Newton from b alone,
    which a small MAX_ITER makes fail."""
    return dataclasses.replace(gl, resolvent_batch=None)


def _still_problem(d=2):
    """Zero drift, zero diffusion: every scheme must return the state unchanged."""
    c = MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.0)
    return SdeProblem.from_pointwise(name="still", d=d, m=1,
                                     drift=lambda x: np.zeros(d),
                                     diffusion=lambda x: np.zeros((d, 1)),
                                     constants=c)


# ---------------------------------------------------------------------------
# frozen oracles (roots recomputed from the cubic's companion matrix)
# ---------------------------------------------------------------------------

def test_implicit_solve_cubic_oracle(gl):
    # z - 0.5(-z - z^3) = 1  <=>  z^3 + 3z - 2 = 0; unique real root via
    # np.roots([1, 0, 3, -2]) = 0.5960716379833214
    z = solve_implicit_batch(gl, np.array([[1.0]]), 0.5)[0]
    assert z.shape == (1,)
    assert z[0] == pytest.approx(0.5960716379833214, abs=1e-13)
    # z^3 + 3z - 2.4 = 0; root 0.6903366450712343
    z = solve_implicit_batch(gl, np.array([[1.2]]), 0.5)[0]
    assert z[0] == pytest.approx(0.6903366450712343, abs=1e-13)


def test_backward_euler_two_steps_zero_noise_oracle(gl):
    # with dW = 0 the step is the pure implicit map; composing the two cubic
    # roots gives 0.379204985417161 (recomputed independently via np.roots)
    z1 = evolve_terminal(gl, BE, 0.5, 1, np.array([[0.0]]), np.array([1.0]))
    z2 = evolve_terminal(gl, BE, 0.5, 1, np.array([[0.0]]), z1)
    assert z2[0] == pytest.approx(0.379204985417161, abs=1e-13)


def test_em_step_exact_arithmetic(gl):
    # 10 + 0.5 * (-10 - 1000) + 0 = -495, exact in floating point
    z = evolve_terminal(gl, EM, 0.5, 1, np.array([[0.0]]), np.array([10.0]))
    assert z[0] == -495.0


def test_projection_outside_ball_oracle():
    # kappa = 2, h = 2^-4: R = h^(-1/6) = 2^(2/3) = 1.5874010519682
    # |x| = 5 > R, so the image is x * R/5
    y = project_batch(np.array([[3.0, 4.0]]), (2.0 ** -4) ** (-1.0 / 6.0))[0]
    R = 2.0 ** (2.0 / 3.0)
    npt.assert_allclose(y, np.array([3.0, 4.0]) * (R / 5.0), rtol=1e-15)
    assert float(np.hypot(*y)) == pytest.approx(R, rel=1e-15)


def test_projected_euler_step_oracle(gl):
    # kappa = 3, h = 2^-4: R = 2^(1/2); from the projected state
    # sqrt(2) + (1/16)(-sqrt(2) - 2 sqrt(2)) = 13 sqrt(2)/16
    z = evolve_terminal(gl, PE, 2.0 ** -4, 1, np.array([[0.0]]),
                        np.array([10.0]))
    assert z[0] == pytest.approx(13.0 * np.sqrt(2.0) / 16.0, rel=1e-15)
    assert z[0] == pytest.approx(1.1490485194281397, abs=1e-15)


def test_explicit_step_substitution_and_inactive_projection(gl):
    # 1 + 0.25 * (-1 - 1) + 1 * 0.1 = 0.6, exact in floating point; the
    # radius at h = 1/4 exceeds |x| = 1, so projecting first changes nothing
    # and the projected step reproduces the plain step bit for bit.
    e = evolve_terminal(gl, EM, 0.25, 1, np.array([[0.1]]), np.array([1.0]))
    assert e[0] == 0.6
    z = evolve_terminal(gl, PE, 0.25, 1, np.array([[0.1]]), np.array([1.0]))
    npt.assert_array_equal(z, e)


def test_origin_is_absorbing_for_every_scheme(gl):
    # f(0) = 0 and g(0) = 0: the implicit right-hand side is b = 0 and
    # z = h f(z) is solved exactly by 0; the explicit maps add nothing.
    assert solve_implicit_batch(gl, np.array([[0.0]]), 0.5)[0, 0] == 0.0
    assert evolve_terminal(gl, BE, 0.5, 1, np.array([[0.7]]),
                           np.array([0.0]))[0] == 0.0
    assert evolve_terminal(gl, PE, 2.0 ** -4, 1, np.array([[0.3]]),
                           np.array([0.0]))[0] == 0.0
    assert evolve_terminal(gl, EM, 0.5, 1, np.array([[-1.3]]),
                           np.array([0.0]))[0] == 0.0


def test_implicit_solve_linear_resolvent_value():
    # f(z) = -z: the implicit equation (1 + h) z = b has the closed form
    # b / (1 + h) = 0.8; the custom problem exercises the finite-difference
    # Jacobian path, so the root is exact only to the residual tolerance.
    c = MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.01)
    lin = SdeProblem.from_pointwise(name="lin", d=1, m=1, drift=lambda x: -x,
                                    diffusion=lambda x: np.zeros((1, 1)),
                                    constants=c)
    z = solve_implicit_batch(lin, np.array([[1.0]]), 0.25)[0]
    assert z[0] == pytest.approx(0.8, abs=1e-11)


# ---------------------------------------------------------------------------
# projection map: identity inside, nonexpansive everywhere, bounded image
# ---------------------------------------------------------------------------

def test_projection_is_identity_inside_ball():
    x = np.array([0.3, -0.4])
    y = project_batch(x[None], 0.25 ** (-1.0 / 8.0))[0]  # R = 4^(1/8) > 1 > |x| = 0.5
    npt.assert_array_equal(y, x)
    assert y is not x  # caller's state must never alias the scheme's output


_coords = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(x=_coords, y=_coords, k=st.integers(0, 10), kappa=st.sampled_from([1.0, 2.0, 3.0]))
def test_projection_trio(x, y, k, kappa):
    """Fixes the origin, never leaves the ball, never expands distances."""
    h = 2.0 ** -k
    R = h ** (-1.0 / (2.0 * (kappa + 1.0)))
    x, y = np.asarray(x), np.asarray(y)
    px, py = project_batch(x[None], R)[0], project_batch(y[None], R)[0]
    assert np.all(project_batch(np.zeros((1, 3)), R)[0] == 0.0)
    assert float(np.linalg.norm(px)) <= R * (1.0 + 1e-12)
    gap, pgap = float(np.linalg.norm(x - y)), float(np.linalg.norm(px - py))
    assert pgap <= gap * (1.0 + 1e-12) + 1e-15


@settings(max_examples=200, deadline=None)
@given(x=_coords, k=st.integers(0, 12), q=st.sampled_from([1, 2, 3]))
def test_projection_displacement_bound(x, k, q):
    """|x - proj(x)| <= 2 (1 + |x|^(q+1)) h^(q/8) for kappa = 3.

    The displacement is max(0, |x| - R) and |x| - R <= |x|^(q+1) / R^q
    whenever |x| > R, with R = h^(-1/8).
    """
    h = 2.0 ** -k
    x = np.asarray(x)
    nrm = float(np.linalg.norm(x))
    disp = float(np.linalg.norm(x - project_batch(x[None], h ** (-1.0 / 8.0))[0]))
    assert disp <= 2.0 * (1.0 + nrm ** (q + 1)) * h ** (q / 8.0) * (1.0 + 1e-12)


def test_project_batch_matches_single():
    rng = np.random.default_rng(7)
    Z = rng.normal(scale=3.0, size=(40, 2))
    R = 1.25
    out = project_batch(Z, R)
    for i in range(40):
        nrm = float(np.linalg.norm(Z[i]))
        expect = Z[i] if nrm <= R else Z[i] * (R / nrm)
        # batch norms come from einsum, whose summation order may differ from
        # np.linalg.norm by one ulp
        npt.assert_allclose(out[i], expect, rtol=5e-16, atol=0.0)


def test_a_huge_state_lands_on_the_sphere_in_any_batch():
    """A state whose plain norm overflows (beyond about 1.3e154) goes to
    the sphere of radius R, not to the origin. Huge, ordinary, zero and
    infinite rows projected together equal each row projected alone, bit
    for bit; a row whose plain norm is finite is scaled by R over that
    norm, and an infinite row comes out NaN."""
    assert project_batch(np.array([[1e200]]), 2.0).tolist() == [[2.0]]
    R = 1.25
    Z = np.array([[1e200, -1e200, 3.0], [3.0, 4.0, 0.0], [0.1, 0.2, 0.3],
                  [0.0, 0.0, 0.0], [np.inf, 1.0, 1.0], [1e300, 1e300, 1e300]])
    with np.errstate(invalid="ignore"):  # inf * 0 in the infinite row
        out = project_batch(Z, R)
        alone = np.concatenate([project_batch(z[None], R) for z in Z])
    assert out.tobytes() == alone.tobytes()
    assert out[1].tobytes() == (Z[1] * (R / _row_norms(Z[1:2])[0])).tobytes()
    assert out[2:4].tobytes() == Z[2:4].tobytes()
    assert np.isnan(out[4, 0])
    npt.assert_allclose([math.hypot(*z) for z in out[[0, 5]]], R, rtol=1e-15)


# ---------------------------------------------------------------------------
# implicit solve: residuals, nonexpansiveness, failure reporting
# ---------------------------------------------------------------------------

def test_implicit_residuals_recomputed(gl):
    rng = np.random.default_rng(11)
    b = rng.uniform(-5.0, 5.0, size=(64, 1))
    z = solve_implicit_batch(gl, b, 0.25)
    resid = z - 0.25 * np.stack([drift_rows(gl, r[None])[0] for r in z]) - b
    assert float(np.max(np.abs(resid))) <= 1e-12


def test_implicit_residuals_multidimensional():
    ac = build_allen_cahn(K=4)
    rng = np.random.default_rng(12)
    b = rng.uniform(-2.0, 2.0, size=(32, 3))
    z = solve_implicit_batch(ac, b, 15.0 / 2.0 ** 10)
    f = np.stack([drift_rows(ac, r[None])[0] for r in z])
    resid = np.linalg.norm(z - (15.0 / 2.0 ** 10) * f - b, axis=1)
    assert float(np.max(resid)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(b1=st.floats(-50.0, 50.0), b2=st.floats(-50.0, 50.0),
       h=st.sampled_from([0.5, 0.125, 2.0 ** -6]))
def test_resolvent_is_nonexpansive(gl, b1, b2, h):
    """For dissipative drift the map b -> z(b) shrinks distances: this is the
    mechanism behind the implicit scheme's unconditional long-time stability."""
    z1 = solve_implicit_batch(gl, np.array([[b1]]), h)[0]
    z2 = solve_implicit_batch(gl, np.array([[b2]]), h)[0]
    assert abs(z1[0] - z2[0]) <= abs(b1 - b2) * (1.0 + 1e-10) + 1e-13


def test_solver_failure_reports_iterate_and_residual(gl_newton, monkeypatch):
    monkeypatch.setattr(schemes, "MAX_ITER", 1)
    with pytest.raises(SolverFailure) as exc:
        solve_implicit_batch(gl_newton, np.array([[5.0]]), 0.5,
                             step_index=7)
    err = exc.value
    assert err.residual > 0.0
    assert err.last_iterate.shape == (1,)
    assert err.step_index == 7
    assert "1 iterations" in str(err)


def test_divergent_rows_pass_through_solver(gl):
    b = np.array([[np.nan], [1.0]])
    z = solve_implicit_batch(gl, b, 0.5)
    assert np.isnan(z[0, 0])
    assert z[1, 0] == solve_implicit_batch(gl, np.array([[1.0]]), 0.5)[0, 0]


# ---------------------------------------------------------------------------
# the implicit solve iterates only the unconverged rows, which is exact
# because every row sees the same floating-point operations as alone
# ---------------------------------------------------------------------------

def _arctan_problem(jacobian=True, counter=None):
    """dx = -100 arctan(x) dt: at h = 1 and |b| in the tens, a full Newton
    step overshoots, so the solve halves steps (16 drift calls at b = 50).
    `counter` ([calls, rows]) counts the drift's calls and the rows it sees."""
    def drift_batch(X):
        if counter is not None:
            counter[0] += 1
            counter[1] += X.shape[0]
        return -100.0 * np.arctan(X)

    return SdeProblem(
        name="arctan", d=1, m=1, drift_batch=drift_batch,
        diffusion_apply=lambda X, dW: 0.0 * dW,
        constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1e4),
        drift_jacobian_batch=((lambda X: (-100.0 / (1.0 + X * X))[..., None])
                              if jacobian else None))


def _row_batches():
    rng = np.random.default_rng(41)
    b = rng.uniform(-300.0, 300.0, size=(120, 1))
    mixed = b[:40].copy()
    mixed[[2, 9, 23, 31]] = [[np.nan], [np.inf], [-np.inf], [np.nan]]
    ac = rng.normal(scale=3.0, size=(120, 3))
    # |b| up to 1e8, where many roots are certified only to rounding
    large = b * 10.0 ** rng.uniform(0.0, 6.0, size=(120, 1))
    # components near 1e3: every row stays active for several iterations,
    # so the solve iterates the whole batch before its first gather
    ac_large = (rng.choice([-1.0, 1.0], size=(120, 3))
                * rng.uniform(5e2, 2e3, size=(120, 3)))
    # half the rows far above the resolvent's gate (up to 2e13), half below
    ac_far = np.where(rng.random((120, 1)) < 0.5, ac,
                      ac_large * 10.0 ** rng.uniform(0.0, 10.0, (120, 1)))
    return {"arctan": (_arctan_problem(), b, 1.0),
            "arctan-fd": (_arctan_problem(jacobian=False), b, 1.0),
            "non-finite": (_arctan_problem(), mixed, 1.0),
            "allen-cahn": (build_allen_cahn(K=4), ac, 15.0 / 2.0 ** 6),
            # Newton from b: the resolvent would start these rows at
            # their roots
            "allen-cahn-large": (dataclasses.replace(
                build_allen_cahn(K=4), resolvent_batch=None), ac_large,
                15.0 / 2.0 ** 6),
            "allen-cahn-far": (build_allen_cahn(K=4), ac_far,
                               15.0 / 2.0 ** 6),
            "gl": (build_ginzburg_landau(), b / 10.0, 2.0 ** -3),
            "gl-large": (build_ginzburg_landau(), large, 0.5)}


@pytest.mark.parametrize("name", ["arctan", "arctan-fd", "non-finite",
                                  "allen-cahn", "allen-cahn-large",
                                  "allen-cahn-far", "gl", "gl-large"])
def test_implicit_rows_equal_their_solve_alone_and_in_any_subset(name):
    problem, b, h = _row_batches()[name]
    z = solve_implicit_batch(problem, b, h)
    for i in range(len(b)):
        alone = solve_implicit_batch(problem, b[i:i + 1], h)
        assert alone.tobytes() == z[i:i + 1].tobytes(), i
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = np.sort(rng.choice(len(b), size=rng.integers(1, len(b)),
                                  replace=False))
        assert (solve_implicit_batch(problem, b[rows], h).tobytes()
                == z[rows].tobytes())


def _counted_solve(b, h=1.0):
    """The arctan solve of b, and its drift's [calls, rows] (the probe at
    construction not counted)."""
    counter = [0, 0]
    problem = _arctan_problem(counter=counter)
    counter[:] = [0, 0]
    return solve_implicit_batch(problem, b, h), counter


def test_damping_reaches_the_root():
    z, (calls, _) = _counted_solve(np.array([[50.0]]))
    assert calls == 16          # more calls than Newton iterations
    assert abs(z[0, 0] + 100.0 * np.arctan(z[0, 0]) - 50.0) <= 1e-12


def test_converged_rows_are_not_evaluated_again():
    """One hard row among 511 that start at their root (b = 0): after the
    first residual over all 512 rows, the drift sees only the hard row."""
    _, (alone_calls, _) = _counted_solve(np.array([[50.0]]))
    b = np.zeros((512, 1))
    b[300] = 50.0
    z, counter = _counted_solve(b)
    assert counter[0] == alone_calls
    assert counter[1] == 512 + (alone_calls - 1)
    assert np.all(z[np.arange(512) != 300] == 0.0)


def test_solver_failure_names_the_row_through_non_finite_rows(gl_newton,
                                                              monkeypatch):
    monkeypatch.setattr(schemes, "MAX_ITER", 2)
    b = np.array([[np.nan], [0.0], [np.inf], [0.0], [30.0], [40.0]])
    with pytest.raises(SolverFailure) as exc:
        solve_implicit_batch(gl_newton, b, 0.5)
    assert exc.value.path_index == 4
    with pytest.raises(SolverFailure) as alone:
        solve_implicit_batch(gl_newton, b[4:5], 0.5)
    assert alone.value.path_index == 0
    assert str(alone.value) == str(exc.value)
    assert alone.value.residual == exc.value.residual
    npt.assert_array_equal(alone.value.last_iterate, exc.value.last_iterate)


def test_solver_failure_names_a_later_row_of_a_finite_batch(gl_newton,
                                                            monkeypatch):
    """A finite batch is iterated whole until the budget runs out; row 0
    is then within tolerance and row 1 is the first that fails."""
    monkeypatch.setattr(schemes, "MAX_ITER", 2)
    b = np.array([[1e-3], [30.0], [40.0]])
    with pytest.raises(SolverFailure) as exc:
        solve_implicit_batch(gl_newton, b, 0.5)
    with pytest.raises(SolverFailure) as alone:
        solve_implicit_batch(gl_newton, b[1:2], 0.5)
    assert (exc.value.path_index, alone.value.path_index) == (1, 0)
    assert str(alone.value) == str(exc.value)
    npt.assert_array_equal(alone.value.last_iterate, exc.value.last_iterate)


def test_a_batch_without_finite_rows_never_calls_the_drift():
    """Nothing to solve: a pointwise problem, whose batch callables cannot
    stack zero rows, must not be called on an empty batch of rows."""
    calls = []

    def drift(x):
        calls.append(x)
        return -x

    problem = SdeProblem.from_pointwise(
        name="pointwise", d=2, m=1, drift=drift,
        diffusion=lambda x: np.ones((2, 1)),
        constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.0))
    calls.clear()
    for b in (np.array([[np.nan, 1.0], [np.inf, -np.inf], [0.0, -np.inf]]),
              np.empty((0, 2))):
        z = solve_implicit_batch(problem, b, 0.5)
        assert z.shape == b.shape and np.isnan(z).all()
    assert calls == []


def test_the_drift_never_sees_a_non_finite_row():
    seen = []
    arctan = _arctan_problem()

    def drift_batch(X):
        seen.append(X.copy())
        return arctan.drift_batch(X)

    problem = dataclasses.replace(arctan, drift_batch=drift_batch)
    seen.clear()
    b = _row_batches()["non-finite"][1]
    z = solve_implicit_batch(problem, b, 1.0)
    assert seen and all(np.isfinite(X).all() for X in seen)
    bad = ~np.isfinite(b).all(axis=1)
    assert np.isnan(z[bad]).all() and np.isfinite(z[~bad]).all()


def _row_counts(problem):
    """`problem` with its drift counting the rows of each call, and the
    list of those counts (the probe at construction not counted)."""
    rows = []

    def drift_batch(X):
        rows.append(X.shape[0])
        return problem.drift_batch(X)

    counted = dataclasses.replace(problem, drift_batch=drift_batch)
    rows.clear()
    return counted, rows


def test_the_large_allen_cahn_batch_iterates_whole_before_any_row_leaves():
    """The batch that covers the no-gather branch keeps its point: its
    first several drift calls see every row."""
    problem, b, h = _row_batches()["allen-cahn-large"]
    problem, rows = _row_counts(problem)
    solve_implicit_batch(problem, b, h)
    assert rows[:6] == [len(b)] * 6 and rows[-1] < len(b)


def _guarded(problem):
    """`problem` with each of its callables counting its calls by name in
    the returned Counter (the probe at construction not counted) and
    raising AssertionError on a non-finite input row."""
    calls = collections.Counter()

    def guard(name, fn):
        def call(X, *rest):
            assert np.isfinite(X).all(), name
            calls[name] += 1
            return fn(X, *rest)
        return call if fn is not None else None

    guarded = dataclasses.replace(problem, **{
        name: guard(name, getattr(problem, name))
        for name in ("drift_batch", "resolvent_batch", "drift_jacobian_batch",
                     "jacobian_solve_batch")})
    calls.clear()
    return guarded, calls


def _counted_row_norms(monkeypatch):
    """The row counts of every `schemes._row_norms` call from now on."""
    rows, row_norms = [], schemes._row_norms

    def counted(Z):
        rows.append(len(Z))
        return row_norms(Z)

    monkeypatch.setattr(schemes, "_row_norms", counted)
    return rows


def test_a_certified_proposal_costs_one_drift_call(gl, monkeypatch):
    """A finite GL batch whose closed-form roots are all within tolerance
    is certified whole by its residuals' sum of squares: the closed form
    itself comes back after one drift call, and no row norm is formed."""
    problem, calls = _guarded(gl)
    norms = _counted_row_norms(monkeypatch)
    b = np.random.default_rng(17).uniform(-20.0, 20.0, size=(200, 1))
    z = solve_implicit_batch(problem, b, 0.5)
    assert calls == {"resolvent_batch": 1, "drift_batch": 1}
    assert norms == []
    assert z.tobytes() == _cubic_root(b, 0.5, -1.0, 1.0).tobytes()


def test_a_near_miss_takes_the_row_route_and_keeps_the_proposal(monkeypatch):
    """f(x) = -x at h = 1, so the residual of z is 2z - b: the proposal
    b/2 is exact, except on one row moved by 3.5e-13, whose residual 7e-13
    is within RESIDUAL_TOL but whose square exceeds (RESIDUAL_TOL / 2)^2.
    The batch is not certified whole; its row norms are formed once, and
    every row, that one included, is returned as proposed."""
    b = np.random.default_rng(23).uniform(-1.0, 1.0, size=(64, 1))

    def resolvent(B, h):
        Z = B / 2.0
        Z[B == b[7]] += 3.5e-13
        return Z

    linear, calls = _guarded(SdeProblem(
        name="linear", d=1, m=1, drift_batch=lambda X: -X,
        diffusion_apply=lambda X, dW: 0.0 * dW,
        constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.0),
        resolvent_batch=resolvent))
    proposal = resolvent(b, 1.0)
    residual = np.abs(2.0 * proposal - b)[:, 0]
    assert schemes.RESIDUAL_TOL / 2 < residual[7] <= schemes.RESIDUAL_TOL
    assert np.count_nonzero(residual) == 1
    norms = _counted_row_norms(monkeypatch)
    z = solve_implicit_batch(linear, b, 1.0)
    assert z.tobytes() == proposal.tobytes()
    assert calls == {"resolvent_batch": 1, "drift_batch": 1}
    assert norms == [64]


@pytest.mark.parametrize("model", ["gl", "allen-cahn"])
def test_huge_rows_among_non_finite_rows_are_solved_as_alone(model):
    """Rows near 1e200, whose sum of squares overflows although every
    entry is finite, mixed with rows holding a NaN or an infinity: each
    finite row comes out bit for bit as solved alone, and as solved among
    the finite rows only; the other rows come out NaN. The callables,
    which refuse a non-finite row, never see one, and no warning is
    raised."""
    problem, h = {"gl": (_GL, 0.5), "allen-cahn": (_AC, 15.0 / 2.0 ** 10)}[
        model]
    problem, _ = _guarded(problem)
    shape = np.array([1.0, 0.0, -1.0 / 3.0])[:problem.d]
    with np.errstate(invalid="ignore"):     # inf * 0 on Allen-Cahn
        b = np.array([1e200, np.nan, -2e200, np.inf, 0.5, -np.inf, 7e199])[
            :, None] * shape
    b[1, 1:] = 2.0      # on Allen-Cahn, a NaN row with finite entries
    finite = np.isfinite(b).all(axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = solve_implicit_batch(problem, b, h)
        alone = [solve_implicit_batch(problem, b[i:i + 1], h)
                 for i in np.flatnonzero(finite)]
        together = solve_implicit_batch(problem, b[finite], h)
    assert np.concatenate(alone).tobytes() == z[finite].tobytes()
    assert together.tobytes() == z[finite].tobytes()
    assert np.isfinite(z[finite]).all() and np.isnan(z[~finite]).all()


def test_a_non_finite_proposal_row_starts_from_b(gl, gl_newton):
    """A proposal with an infinite row: that row is Newton's from b, as
    without the resolvent, and the other rows are the certified closed
    form."""
    b = np.random.default_rng(29).uniform(-20.0, 20.0, size=(16, 1))

    def resolvent(B, h):
        Z = gl.resolvent_batch(B, h)
        Z[B == b[5]] = np.inf
        return Z

    z = solve_implicit_batch(
        dataclasses.replace(gl, resolvent_batch=resolvent), b, 0.5)
    rest = np.arange(16) != 5
    assert (z[5:6].tobytes()
            == solve_implicit_batch(gl_newton, b[5:6], 0.5).tobytes())
    assert z[rest].tobytes() == gl.resolvent_batch(b[rest], 0.5).tobytes()


# roots, drift-call row counts and a failure recorded before the dot-product
# certificate and the safeguards taken only when a row stalls
@pytest.mark.parametrize("model, b, h, rows, roots", [
    # Newton overshoots on arctan, so both rows halve their steps
    ("arctan", [50.0, -30.0], 1.0,
     [2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2],
     ["0x1.1421c7524fc3ep-1", "-0x1.395496f8247e4p-2"]),
    # GL from b stalls above RESIDUAL_TOL and is accepted within the
    # rounding of its terms
    ("gl-newton", [1e5, 3e4], 0.5, [2] * 24 + [1],
     ["0x1.d3b4bf0a4b051p+5", "0x1.38fc2d084e369p+5"])])
def test_halved_and_stalled_rows_keep_their_recorded_roots(gl_newton, model,
                                                           b, h, rows, roots):
    problem = {"arctan": _arctan_problem(), "gl-newton": gl_newton}[model]
    counted, seen = _row_counts(problem)
    z = solve_implicit_batch(counted, np.array(b)[:, None], h)
    assert seen == rows
    assert [v.hex() for v in z[:, 0]] == roots


def test_a_row_left_at_the_budget_keeps_its_recorded_root(gl_newton,
                                                          monkeypatch):
    """With a budget of 21 iterations, GL from b = 3e4 still lowers its
    residual at the last one, and is accepted within the rounding of its
    terms (with a larger budget it stalls at the next)."""
    monkeypatch.setattr(schemes, "MAX_ITER", 21)
    z = solve_implicit_batch(gl_newton, np.array([[3e4]]), 0.5)
    assert z[0, 0].hex() == "0x1.38fc2d084e36ap+5"


def test_a_failure_keeps_its_recorded_text(gl_newton, monkeypatch):
    monkeypatch.setattr(schemes, "MAX_ITER", 2)
    with pytest.raises(SolverFailure) as exc:
        solve_implicit_batch(gl_newton, np.array([[1e-3], [30.0], [40.0]]),
                             0.5)
    assert str(exc.value) == (
        "implicit solve did not converge within 2 iterations (residual "
        "1.180e+03 above its bound 1.101e-12 in the first failing row)")
    assert exc.value.path_index == 1
    assert exc.value.residual.hex() == "0x1.26e9897246c25p+10"
    assert exc.value.last_iterate.tolist() == [13.349958437240232]


@pytest.mark.parametrize("model, scale",
                         [("gl", 0.0), ("gl", 20.0), ("allen-cahn", 0.0)],
                         ids=["0.0", "20.0", "allen-cahn-0.0"])
def test_the_solve_returns_a_new_array_and_leaves_b_alone(gl_newton, model,
                                                          scale):
    """Without a resolvent the iterates start as b itself, and so they do
    where Allen-Cahn's gated resolvent returns b itself (b = 0, below its
    gate): neither a batch that is its own root (b = 0) nor one that
    iterates returns b or writes into it."""
    problem = {"gl": gl_newton, "allen-cahn": build_allen_cahn()}[model]
    b = scale * np.random.default_rng(3).uniform(-1.0, 1.0,
                                                 size=(64, problem.d))
    if model == "allen-cahn":
        assert problem.resolvent_batch(b, 0.5) is b
    before = b.copy()
    z = solve_implicit_batch(problem, b, 0.5)
    assert not np.shares_memory(z, b)
    assert b.tobytes() == before.tobytes()
    assert np.max(_residuals(problem, z, b, 0.5)) <= 1e-12


# ---------------------------------------------------------------------------
# structure hooks: GL's closed-form root and Allen-Cahn's Thomas solve, both
# checked by the one damped Newton
# ---------------------------------------------------------------------------

def _residuals(problem, z, b, h):
    return _row_norms(z - h * drift_rows(problem, z) - b)


@pytest.mark.parametrize("hook", ["shifted", "nan-rows"])
def test_a_wrong_resolvent_cannot_weaken_the_solve(gl, gl_newton, hook,
                                                   monkeypatch):
    """A hook that proposes b + 1, or NaN for the rows with b > 0, still
    gives roots within tolerance, and with one iteration a SolverFailure
    like the plain Newton's; where its proposal is NaN the solve starts
    from b, so roots and failure are the plain Newton's bit for bit."""
    wrong = {"shifted": lambda B, h: B + 1.0,
             "nan-rows": lambda B, h: np.where(B > 0.0, np.nan, B)}[hook]
    problem = dataclasses.replace(gl, resolvent_batch=wrong)
    b = np.random.default_rng(17).uniform(-20.0, 20.0, size=(200, 1))
    z = solve_implicit_batch(problem, b, 0.5)
    assert np.max(_residuals(problem, z, b, 0.5)) <= 1e-12
    plain = solve_implicit_batch(gl_newton, b, 0.5)
    npt.assert_allclose(z, plain, rtol=0.0, atol=1e-12)
    failures = []
    monkeypatch.setattr(schemes, "MAX_ITER", 1)
    for p in (problem, gl_newton):
        with pytest.raises(SolverFailure) as exc:
            solve_implicit_batch(p, np.array([[5.0]]), 0.5)
        assert exc.value.path_index == 0 and exc.value.residual > 1e-12
        failures.append((str(exc.value), exc.value.last_iterate.tolist()))
    if hook == "nan-rows":
        assert z.tobytes() == plain.tobytes()
        assert failures[0] == failures[1]


@pytest.mark.parametrize("h", [4.0, 2.0 ** -10])
def test_gl_closed_form_root_at_extreme_right_hand_sides(gl, h):
    """b = 0 gives 0 exactly; tiny and huge |b| give finite roots, odd in
    b, whose residual is a few rounding errors of the cubic's terms (at
    |b| = 1e6 that is above the solve's absolute tolerance for any
    iteration, so only the hook is checked there)."""
    a = -1.0                    # eta + sigma^2 / 2 of the fixture
    zero = np.zeros((1, 1))
    assert gl.resolvent_batch(zero, h)[0, 0] == 0.0
    assert solve_implicit_batch(gl, zero, h)[0, 0] == 0.0
    b = np.array([[1e-300], [-1e-300], [1e6], [-1e6]])
    z = gl.resolvent_batch(b, h)
    assert np.isfinite(z).all()
    npt.assert_array_equal(z[1::2], -z[0::2])
    terms = np.abs(b) + h * np.abs(drift_rows(gl, z)) + np.abs(z)
    assert np.all(_residuals(gl, z, b, h)[:, None]
                  <= 4.0 * np.finfo(float).eps * terms)
    # near 0 the root is b / (1 - h a), and the solve takes the proposal
    npt.assert_allclose(z[:2], b[:2] / (1.0 - h * a), rtol=1e-15, atol=0.0)
    assert solve_implicit_batch(gl, b[:2], h).tobytes() == z[:2].tobytes()


def test_structure_kernels_give_each_row_as_alone():
    rng = np.random.default_rng(29)
    gl, ac = build_ginzburg_landau(), build_allen_cahn(K=4)
    h = 15.0 / 2.0 ** 8
    b = rng.normal(scale=5.0, size=(64, 1))
    Z, F = rng.normal(scale=3.0, size=(2, 64, 3))
    roots = gl.resolvent_batch(b, h)
    steps = ac.jacobian_solve_batch(Z, h, F)
    # Allen-Cahn's resolvent: rows below its gate (h |b|^2 < 100) are b,
    # rows above it the sweeps, in a batch of both
    far = Z * 10.0 ** rng.uniform(-1.0, 12.0, size=(64, 1))
    assert ac.resolvent_batch(Z, h) is Z
    starts = ac.resolvent_batch(far, h)
    gated = h * np.max(far * far, axis=1) >= 100.0
    assert 0 < gated.sum() < 64
    assert starts[~gated].tobytes() == far[~gated].tobytes()
    for i in range(64):
        one = slice(i, i + 1)
        assert gl.resolvent_batch(b[one], h).tobytes() == roots[one].tobytes()
        assert (ac.jacobian_solve_batch(Z[one], h, F[one]).tobytes()
                == steps[one].tobytes())
        assert (ac.resolvent_batch(far[one], h).tobytes()
                == starts[one].tobytes())


@pytest.mark.parametrize("K", [2, 4, 8, 64])
def test_thomas_solve_equals_the_dense_solve(K):
    """Both solves are backward stable, so they agree to a few rounding
    errors times the condition number of I - h Df: to 1e-14 where that is
    below 100 (every K at h = 2^-10, K <= 8 at every h), and within
    4 eps cond where it is not (K = 64 at coarse steps, cond up to 740)."""
    ac = build_allen_cahn(K=K)
    rng = np.random.default_rng(K)
    Z = rng.normal(scale=3.0, size=(256, ac.d))
    F = rng.normal(size=(256, ac.d))
    for h in (2.0 ** -10, 15.0 / 2.0 ** 6, 1.0, 4.0):
        J = np.eye(ac.d) - h * ac.drift_jacobian_batch(Z)
        dense = np.linalg.solve(J, F[..., None])[..., 0]
        got = ac.jacobian_solve_batch(Z, h, F)
        err = _row_norms(got - dense) / _row_norms(dense)
        cond = np.linalg.cond(J)
        assert np.all(err <= 4.0 * np.finfo(float).eps * cond), h
        assert np.all(err[cond <= 100.0] <= 1e-14), h


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_rows_stay_non_finite_under_every_scheme(variant):
    """The invariant the ensemble reducers rely on, even for callables that
    map NaN and inf to finite values: a step keeps a non-finite row
    non-finite, because the stepped state itself, its projection or the
    right-hand side of the solve carries the non-finite entry through."""
    def tame(X):
        return np.nan_to_num(X)

    problem = SdeProblem(
        name="tame", d=2, m=1,
        drift_batch=lambda X: -np.tanh(tame(X)),
        diffusion_apply=lambda X, dW: np.cos(tame(X)) * dW,
        constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0, c1=1.0),
        drift_jacobian_batch=lambda X: np.einsum(
            "bi,ij->bij", np.tanh(tame(X)) ** 2 - 1.0, np.eye(2)))
    inf, nan = np.inf, np.nan
    Z = np.array([[nan, 1.0], [inf, 0.0], [-inf, inf], [1.0, -inf],
                  [nan, nan], [0.5, -0.3], [-2.0, 3.0]])
    dW = np.random.default_rng(3).normal(scale=0.5, size=(len(Z), 1))
    bad = ~np.isfinite(Z).all(axis=1)
    with np.errstate(invalid="ignore"):
        out = step_batch(problem, SchemeConfig(variant=variant), Z, dW, 0.25)
    assert (~np.isfinite(out[bad]).all(axis=1)).all()
    assert np.isfinite(out[~bad]).all()


# ---------------------------------------------------------------------------
# explicit scheme overflow semantics
# ---------------------------------------------------------------------------

def test_em_iteration_diverges_without_raising(gl):
    x = evolve_terminal(gl, EM, 0.5, 10, np.zeros((10, 1)), np.array([10.0]))
    assert not np.all(np.isfinite(x))


# ---------------------------------------------------------------------------
# degenerate dynamics: every scheme fixes the state
# ---------------------------------------------------------------------------

def test_zero_dynamics_fix_state_under_all_schemes():
    problem = _still_problem()
    x = np.array([0.5, -0.25])  # inside the projection ball at h = 1/4
    dW = np.array([0.7])
    npt.assert_array_equal(evolve_terminal(problem, EM, 0.25, 1, dW[None], x), x)
    npt.assert_array_equal(evolve_terminal(problem, BE, 0.25, 1, dW[None], x), x)
    npt.assert_array_equal(evolve_terminal(problem, PE, 0.25, 1, dW[None], x), x)


# ---------------------------------------------------------------------------
# a batch row is stepped as if alone, bit for bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", VARIANTS)
def test_step_batch_matches_single_steps(variant, gl):
    rng = np.random.default_rng(23)
    for problem in (gl, build_allen_cahn(K=4)):
        h = 2.0 ** -5
        Z = rng.normal(scale=1.5, size=(6, problem.d))
        dW = rng.normal(scale=np.sqrt(h), size=(6, problem.m))
        cfg = SchemeConfig(variant=variant)
        out = step_batch(problem, cfg, Z, dW, h)
        for i in range(6):
            one = step_batch(problem, cfg, Z[i:i + 1], dW[i:i + 1], h)[0]
            npt.assert_array_equal(out[i], one)


# ---------------------------------------------------------------------------
# drift Jacobians
# ---------------------------------------------------------------------------

def test_drift_jacobian_analytic(gl):
    # d/dx (-x - x^3) = -1 - 3 x^2 = -13 at x = 2
    npt.assert_allclose(_jacobian_rows(gl, np.array([[2.0]]))[0], [[-13.0]])


def test_drift_jacobian_at_origin(gl):
    npt.assert_array_equal(_jacobian_rows(gl, np.array([[0.0]]))[0], [[-1.0]])
    # lattice problem: the cubic's Jacobian at 0 is the identity, leaving
    # the tridiagonal matrix plus I, all entries exact dyadics
    ac = build_allen_cahn(K=4)
    A_plus_I = np.array([[-31.0, 16.0, 0.0],
                         [16.0, -31.0, 16.0],
                         [0.0, 16.0, -31.0]])
    npt.assert_array_equal(_jacobian_rows(ac, np.zeros((1, 3)))[0], A_plus_I)


def test_allen_cahn_jacobian_is_the_dense_formula_bitwise():
    """The Jacobian fills the diagonals of A + I in place; it must equal
    A + I - 3 diag(x^2) formed the plain way, in every bit."""
    ac = build_allen_cahn(K=6)
    d = ac.d
    A = 36.0 * (np.diag(np.full(d, -2.0)) + np.diag(np.ones(d - 1), 1)
                + np.diag(np.ones(d - 1), -1))
    X = np.random.default_rng(8).normal(scale=4.0, size=(300, d))
    expect = np.broadcast_to(A + np.eye(d), (300, d, d)).copy()
    idx = np.arange(d)
    expect[:, idx, idx] -= 3.0 * X ** 2
    got = ac.drift_jacobian_batch(X)
    assert got.shape == (300, d, d)
    assert got.tobytes() == expect.tobytes()


def test_drift_jacobian_finite_difference_fallback():
    c = MonotoneConstants(alpha1=0.5, p_star=2.0, kappa=3.0, c1=10.0)
    cubic = SdeProblem.from_pointwise(name="bare-cubic", d=1, m=1,
                                      drift=lambda x: -x ** 3,
                                      diffusion=lambda x: np.zeros((1, 1)),
                                      constants=c)
    J = _jacobian_rows(cubic, np.array([[1.5]]))[0]
    assert J[0, 0] == pytest.approx(-6.75, rel=1e-5)


# ---------------------------------------------------------------------------
# scheme metadata: orders and admissible step ceilings
# ---------------------------------------------------------------------------

def test_scheme_orders_values():
    for variant in VARIANTS:
        o = scheme_orders(variant)
        assert (o.q1, o.q2, o.global_order) == (1.5, 1.0, 0.5)
        assert o.requires_global_lipschitz is (variant == "em")
        # the order bookkeeping the uniform-in-time rate rests on
        assert 0.5 < o.q2 <= o.q1 - 0.5
        assert o.global_order == o.q2 - 0.5
    with pytest.raises(UsageError):
        scheme_orders("milstein")


def test_step_ceiling_values():
    assert step_ceiling("be", 1.0, 0.25) == 1.0       # min(4, 1)
    assert step_ceiling("be", 8.0, 0.25) == 0.5       # 1/(8 * 0.25)
    assert step_ceiling("pe", 1.0, 0.25) == 1.0       # min(4, 1, 2)
    assert step_ceiling("pe", 8.0, 0.25) == 0.25      # halved again
    assert step_ceiling("be", 1.0, 0.25, h0=0.125) == 0.125
    with pytest.raises(UsageError):
        step_ceiling("rk4", 1.0, 1.0)
    with pytest.raises(UsageError):
        step_ceiling("be", 0.0, 1.0)
    with pytest.raises(UsageError):
        step_ceiling("be", 1.0, -1.0)
    # a NaN ceiling would admit every step
    for args in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                 (1.0, math.inf), (1.0, 1.0, math.nan), (1.0, 1.0, 0.0),
                 (1.0, 1.0, -1.0), (1.0, 1.0, math.inf)):
        with pytest.raises(UsageError):
            step_ceiling("be", *args)


# ---------------------------------------------------------------------------
# roots exact to rounding: beyond |b| of about 1e4 no iterate reaches the
# absolute tolerance, and the solve accepts the rounding of the row's terms
# ---------------------------------------------------------------------------

def _assert_certified(problem, z, b, h):
    """Every row's residual within max(RESIDUAL_TOL, 2^-50 (|b| + |z| +
    |h f(z)|)), with h f(z) evaluated afresh."""
    hf = h * drift_rows(problem, z)
    bound = np.maximum(schemes.RESIDUAL_TOL, 2.0 ** -50 * (
        _row_norms(b) + _row_norms(z) + _row_norms(hf)))
    resid = _row_norms(z - hf - b)
    assert np.all(resid <= bound), (b, resid, bound)


@pytest.mark.parametrize("model, h, value", [
    *[("gl", 0.5, v) for v in (3e4, 1e5, 1e12)],
    *[("allen-cahn", 15.0 / 2.0 ** 10, v) for v in (1e4, 1e8)]])
def test_large_right_hand_sides_give_roots_exact_to_rounding(model, h, value):
    problem = {"gl": build_ginzburg_landau, "allen-cahn": build_allen_cahn}[
        model]()
    b = np.stack([np.full(problem.d, value), np.full(problem.d, -value)])
    z = solve_implicit_batch(problem, b, h)
    assert np.all(_residuals(problem, z, b, h) > schemes.RESIDUAL_TOL)
    _assert_certified(problem, z, b, h)


@pytest.mark.parametrize("model, h, value, calls", [
    ("gl", 0.5, 1e5, 3), ("gl", 0.5, 1e8, 3),
    ("allen-cahn", 15.0 / 2.0 ** 10, 1e4, 19),
    ("allen-cahn", 15.0 / 2.0 ** 10, 1e8, 34)])
def test_a_stalled_row_is_certified_when_it_stalls(model, h, value, calls):
    """A row whose residual stops falling above RESIDUAL_TOL but within
    the rounding of its terms leaves at once, instead of running out the
    MAX_ITER budget (51 drift calls in each of these cases). Allen-Cahn
    runs without its resolvent, so its rows stall after Newton from b."""
    problem = {"gl": build_ginzburg_landau(),
               "allen-cahn": dataclasses.replace(build_allen_cahn(),
                                                 resolvent_batch=None)}[model]
    counted, rows = _row_counts(problem)
    b = np.full((1, problem.d), value)
    z = solve_implicit_batch(counted, b, h)
    assert len(rows) == calls
    assert _residuals(problem, z, b, h)[0] > schemes.RESIDUAL_TOL
    _assert_certified(problem, z, b, h)


_GL = build_ginzburg_landau()
_AC = build_allen_cahn(K=4)


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(["gl", "allen-cahn"]),
       exponents=st.lists(st.floats(-300.0, 15.0), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3))
def test_every_root_is_certified(model, exponents, signs):
    """b log-uniform over 1e-300..1e15 with either sign, on both models
    (Allen-Cahn starts far rows from its resolvent's sweeps)."""
    problem, h = {"gl": (_GL, 0.5), "allen-cahn": (_AC, 15.0 / 2.0 ** 10)}[
        model]
    b = (np.array(signs) * 10.0 ** np.array(exponents))[None, :problem.d]
    _assert_certified(problem, solve_implicit_batch(problem, b, h), b, h)


@pytest.mark.parametrize("value, calls", [
    (1e4, 5), (1e8, 4), (1e11, 5), (1e13, 3), (1e15, 3)])
def test_allen_cahn_roots_from_far_starts(value, calls):
    """b = (s, 0, -s/3), where Newton from b shrinks the iterate by only
    about 2/3 per step (22 and 40 drift calls at 1e4 and 1e8, a failure
    beyond), is certified in a few drift calls from the resolvent's
    start."""
    counted, rows = _row_counts(_AC)
    b = np.array([[value, 0.0, -value / 3.0]])
    z = solve_implicit_batch(counted, b, 15.0 / 2.0 ** 10)
    assert len(rows) == calls
    _assert_certified(_AC, z, b, 15.0 / 2.0 ** 10)


def test_scaled_norms_rescale_only_the_rows_that_overflow():
    """A row whose plain norm does not overflow keeps its bits; one that
    does gets its true norm, and a row with an infinite or NaN entry keeps
    its inf or NaN, without a RuntimeWarning."""
    Z = np.array([[3.0, 4.0], [1e-200, 2e-200], [1e200, -1e200],
                  [1e308, 1e300], [np.inf, 1.0], [np.nan, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = _row_norms(Z)
        plain = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    assert n[:2].tobytes() == plain[:2].tobytes()
    npt.assert_allclose(n[2:4], [math.hypot(*Z[2]), math.hypot(*Z[3])],
                        rtol=1e-15)
    assert n[4] == np.inf and np.isnan(n[5])


@pytest.mark.parametrize("model, h, value", [
    *[("gl", 0.5, v) for v in (1e200, 1e300)],
    *[("allen-cahn", 15.0 / 2.0 ** 10, v) for v in (1e200, 1e300)]])
def test_huge_right_hand_sides_are_certified_within_a_finite_bound(model, h,
                                                                   value):
    """b = s on GL, (s, 0, -s/3) on Allen-Cahn: the plain norms of the
    residual and of the bound's terms overflow to inf here, so the root
    must be certified by its true, finite residual and bound, here taken
    with `math.hypot` and h f(z) evaluated afresh."""
    problem = {"gl": _GL, "allen-cahn": _AC}[model]
    b = np.array([[value, 0.0, -value / 3.0][:problem.d]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = solve_implicit_batch(problem, b, h)
    hf = h * drift_rows(problem, z)[0]
    bound = max(schemes.RESIDUAL_TOL, 2.0 ** -50 * (
        math.hypot(*b[0]) + math.hypot(*z[0]) + math.hypot(*hf)))
    assert math.isfinite(bound)
    assert math.hypot(*(z[0] - hf - b[0])) <= bound


@pytest.mark.parametrize("model, b, h", [
    ("gl", [1e100], 0.5),
    ("allen-cahn", [1e100, 0.0, -3.3e99], 15.0 / 2.0 ** 6)],
    ids=["gl", "allen-cahn"])
def test_no_root_is_certified_through_an_overflowed_norm(model, b, h):
    """Without its resolvent, Newton from b = 1e100 shrinks the iterate by
    about 2/3 a step, far too slowly for the budget. The residual's plain
    norm is inf at the first iterates, and inf <= inf once certified GL's
    6.67e99 (the root is 2.71e33); the solve must raise instead, with the
    true, finite residual."""
    problem = dataclasses.replace({"gl": _GL, "allen-cahn": _AC}[model],
                                  resolvent_batch=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverFailure) as exc:
            solve_implicit_batch(problem, np.array([b]), h)
    assert math.isfinite(exc.value.residual)


def test_an_infinite_residual_is_never_certified():
    """A drift that is -inf above 1 and a hook whose Newton steps are 0:
    from b = 2 the row stalls at once, its residual and its rounding bound
    both inf. inf <= inf must not certify it, so the budget runs out."""
    wall = SdeProblem(
        name="wall", d=1, m=1,
        drift_batch=lambda X: np.where(X > 1.0, -np.inf, -X),
        diffusion_apply=lambda X, dW: 0.0 * X * dW,
        constants=MonotoneConstants(alpha1=1.0, p_star=2.0, kappa=1.0,
                                    c1=1.0),
        jacobian_solve_batch=lambda Z, h, F: np.zeros_like(F))
    with pytest.raises(SolverFailure) as exc:
        solve_implicit_batch(wall, np.array([[2.0]]), 0.5)
    assert exc.value.residual == np.inf


def test_a_failure_names_the_bound_it_missed(gl_newton, monkeypatch):
    """A row not converged within the budget names its residual and its
    bound: the absolute tolerance for a small right-hand side, the
    rounding of the last iterate's terms for a large one."""
    monkeypatch.setattr(schemes, "MAX_ITER", 1)
    for value in (5.0, 1e5):
        b = np.array([[value]])
        with pytest.raises(SolverFailure) as exc:
            solve_implicit_batch(gl_newton, b, 0.5)
        z = exc.value.last_iterate[None]
        rounding = 2.0 ** -50 * (value + abs(z[0, 0]) + abs(
            0.5 * drift_rows(gl_newton, z)[0, 0]))
        assert (rounding < 1e-12) == (value == 5.0)
        bound = max(schemes.RESIDUAL_TOL, rounding)
        assert "within 1 iterations" in str(exc.value)
        assert (f"residual {exc.value.residual:.3e} above its bound "
                f"{bound:.3e}" in str(exc.value))


# ---------------------------------------------------------------------------
# the projected state keeps one explicit step affordable
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1e6, 1e6), k=st.integers(0, 12))
def test_projected_drift_obeys_step_budget(gl, x, k):
    """|f(proj(x))|^2 <= c2/h + c3: after projection the drift increment h f
    stays O(h^(1/2)), which is why the explicit step cannot jump outside the
    stable regime in one move."""
    h = 2.0 ** -k
    y = project_batch(np.array([[x]]),
                      h ** (-1.0 / (2.0 * (gl.constants.kappa + 1.0))))[0]
    fy = float(drift_rows(gl, y[None])[0, 0])
    assert fy * fy <= gl.constants.c2 / h + gl.constants.c3(gl.f0_norm_sq)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_scheme_config_validation():
    with pytest.raises(UsageError):
        SchemeConfig(variant="heun")


def test_step_size_and_shape_validation(gl):
    with pytest.raises(UsageError):
        evolve_terminal(gl, EM, 0.0, 1, np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(UsageError):
        evolve_terminal(gl, BE, -0.5, 1, np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(UsageError):  # wrong dimension
        evolve_terminal(gl, BE, 0.5, 1, np.array([[0.0]]), np.array([1.0, 2.0]))
    with pytest.raises(UsageError):  # wrong noise width
        evolve_terminal(gl, EM, 0.5, 1, np.zeros((1, 2)), np.array([1.0]))
    with pytest.raises(UsageError):
        evolve_terminal(gl, PE, 0.0, 1, np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(UsageError):  # projection needs h <= 1
        evolve_terminal(gl, PE, 1.5, 1, np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(UsageError):
        evolve_terminal(gl, PE, 2.0, 1, np.array([[0.0]]), np.array([1.0]))


@pytest.mark.parametrize("h", [np.nan, np.inf])
@pytest.mark.parametrize("cfg", [EM, BE, PE], ids=VARIANTS)
def test_evolve_terminal_refuses_a_non_finite_step(gl, cfg, h):
    with pytest.raises(UsageError, match="h must be positive and finite"):
        evolve_terminal(gl, cfg, h, 2, np.zeros((2, 1)), 1.0)
