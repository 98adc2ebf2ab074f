"""Built-in problems and the sampled certification of structural conditions."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sde_longtime import (MonotoneConstants, SdeProblem,
                          UsageError, build_allen_cahn, build_ginzburg_landau,
                          check_contractive_monotone, check_poly_lipschitz,
                          max_feasible_pstar, theorem_admissible_p_max)
from sde_longtime.model import (PSTAR_CAP, SAMPLE_BOX, SAMPLE_PAIRS,
                                _diffusion_columns, _pair_differences,
                                drift_rows)


def _linear_problem(rate=1.0, noise=0.1):
    """Scalar Ornstein-Uhlenbeck: globally Lipschitz, kappa = 1."""
    c = MonotoneConstants(alpha1=rate - 0.5 * 0.0, p_star=2.0, kappa=1.0,
                          c1=rate * rate * 1.01)
    return SdeProblem.from_pointwise(
        name="ou", d=1, m=1,
        drift=lambda x: -rate * x,
        diffusion=lambda x: np.full((1, 1), noise),
        constants=c)


# ---------------------------------------------------------------------------
# Ginzburg-Landau builder
# ---------------------------------------------------------------------------

def test_gl_drift_and_diffusion_values():
    gl = build_ginzburg_landau(eta=-1.5, sigma=1.0, theta=1.0)
    # drift x -> (eta + sigma^2/2) x - theta x^3 = -x - x^3
    npt.assert_allclose(drift_rows(gl, np.array([[2.0]]))[0], [-10.0])
    npt.assert_allclose(drift_rows(gl, np.array([[1.0]]))[0], [-2.0])
    npt.assert_allclose(_diffusion_columns(gl, np.array([[2.0]]))[0].T,
                        [[2.0]])
    assert (gl.d, gl.m) == (1, 1)


def test_gl_certified_constants():
    gl = build_ginzburg_landau()
    assert gl.constants.alpha1 == pytest.approx(0.25)
    assert gl.constants.p_star == pytest.approx(1.25)
    assert gl.constants.kappa == 3.0
    assert gl.constants.c1 > 0.0


def test_gl_rejects_non_dissipative_parameters():
    # eta + sigma^2/2 must be negative
    with pytest.raises(UsageError):
        build_ginzburg_landau(eta=-0.4, sigma=1.0)
    with pytest.raises(UsageError):
        build_ginzburg_landau(theta=0.0)
    # dissipative (a = -1/4), but the noise leaves p* = 1/2 + 3|a|/(4 sigma^2)
    # below 1
    with pytest.raises(UsageError, match=r"certified p\* = 0\.6250 < 1$"):
        build_ginzburg_landau(eta=-1.0, sigma=math.sqrt(1.5))
    with pytest.raises(UsageError, match="^theta must be positive and finite"):
        build_ginzburg_landau(theta=True)
    for name in ("eta", "sigma"):  # by the finite-real rule
        for value in (math.nan, "-1.5", True):
            with pytest.raises(UsageError,
                               match=f"^{name} must be finite and real"):
                build_ginzburg_landau(**{name: value})


def test_gl_zero_noise_constants():
    gl = build_ginzburg_landau(eta=-1.0, sigma=0.0, theta=1.0)
    assert gl.constants.alpha1 == pytest.approx(1.0)
    assert gl.constants.p_star == 64.0


@pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e-100])
def test_gl_pstar_is_capped_without_dividing_by_sigma_squared(sigma):
    """p* = min(PSTAR_CAP, 1/2 + 3|a| / (4 sigma^2)): sigma^2 underflows
    to 0 at 1e-200 and is subnormal at 1e-160, and at 1e-100 the formula
    alone claims 1.1e200."""
    assert build_ginzburg_landau(sigma=sigma).constants.p_star == PSTAR_CAP
    assert build_ginzburg_landau(sigma=1.0).constants.p_star == 1.25


# ---------------------------------------------------------------------------
# Allen-Cahn builder
# ---------------------------------------------------------------------------

def test_allen_cahn_dimensions_and_drift():
    ac = build_allen_cahn(K=4)
    assert (ac.d, ac.m) == (3, 1)
    npt.assert_allclose(drift_rows(ac, np.ones((1, 3)))[0],
                        [-16.0, 0.0, -16.0])


def test_allen_cahn_discrete_laplacian():
    """The linear part is K^2 tridiag(1, -2, 1): read it off the drift."""
    ac = build_allen_cahn(K=4)
    zero_cubic = lambda v: drift_rows(ac, v[None])[0]
    e = np.eye(3) * 1e-8
    # drift(x) = A x + x - x^3; at small x the cubic term is negligible
    J = np.stack([(zero_cubic(e[i]) - zero_cubic(-e[i])) / 2e-8
                  for i in range(3)]).T
    A_plus_I = np.array([[-31.0, 16.0, 0.0],
                         [16.0, -31.0, 16.0],
                         [0.0, 16.0, -31.0]])
    npt.assert_allclose(J, A_plus_I, rtol=1e-6)


def test_allen_cahn_diffusion_column():
    ac = build_allen_cahn(K=4)
    x = np.array([0.0, np.pi / 2.0, -np.pi / 2.0])
    npt.assert_allclose(_diffusion_columns(ac, x[None])[0].T,
                        [[1.0], [2.0], [0.0]], atol=1e-15)


def test_zero_state_values_of_built_in_fields():
    gl = build_ginzburg_landau(eta=-1.5, sigma=1.0, theta=1.0)
    assert drift_rows(gl, np.array([[0.0]]))[0, 0] == 0.0
    assert _diffusion_columns(gl, np.array([[0.0]]))[0].T[0, 0] == 0.0
    ac = build_allen_cahn(K=4)
    npt.assert_array_equal(drift_rows(ac, np.zeros((1, 3)))[0], np.zeros(3))
    # g(u) = sin u + 1 entrywise: the origin column is all ones
    npt.assert_array_equal(_diffusion_columns(ac, np.zeros((1, 3)))[0].T,
                           np.ones((3, 1)))


def test_allen_cahn_smallest_lattice():
    # K=2 leaves a single interior point and the matrix collapses to
    # K^2 * (-2) = -8; the cubic nonlinearity x - x^3 vanishes at x=1,
    # exposing that single entry exactly.
    ac = build_allen_cahn(K=2)
    assert (ac.d, ac.m) == (1, 1)
    npt.assert_array_equal(drift_rows(ac, np.array([[1.0]]))[0], [-8.0])


def test_allen_cahn_claimed_constants():
    ac = build_allen_cahn(K=4)
    assert ac.constants.alpha1 == pytest.approx(1.0)
    assert ac.constants.p_star == pytest.approx(3.5)
    assert ac.constants.beta1 == pytest.approx(1.0)
    assert ac.constants.kappa == 3.0


def test_allen_cahn_requires_reasonable_K():
    with pytest.raises(UsageError):
        build_allen_cahn(K=1)
    with pytest.raises(UsageError, match="K must be an integer >= 2"):
        build_allen_cahn(K=4.0)


# ---------------------------------------------------------------------------
# contractive monotone checker
# ---------------------------------------------------------------------------

def test_monotone_passes_at_certified_constants():
    gl = build_ginzburg_landau()
    rep = check_contractive_monotone(gl)
    assert rep.passed
    assert rep.worst_margin <= 0.0
    assert rep.n_pairs > 9000


def test_monotone_fails_at_inflated_pstar():
    gl = build_ginzburg_landau()
    rep = check_contractive_monotone(gl, p_star=3.5, alpha1=0.25)
    assert not rep.passed
    assert rep.worst_margin > 0.0


def test_monotone_allen_cahn_at_claimed_pair():
    ac = build_allen_cahn(K=4)
    assert check_contractive_monotone(ac, p_star=3.5, alpha1=1.0).passed


def test_monotone_linear_problem():
    assert check_contractive_monotone(_linear_problem()).passed


@settings(deadline=None, max_examples=15)
@given(bump=st.floats(min_value=0.01, max_value=2.0))
def test_monotone_margin_increases_with_pstar(bump):
    """The sampled margin is monotone in p*: raising p* never helps."""
    gl = build_ginzburg_landau()
    base = check_contractive_monotone(gl, p_star=1.25, alpha1=0.25)
    worse = check_contractive_monotone(gl, p_star=1.25 + bump, alpha1=0.25)
    assert worse.worst_margin >= base.worst_margin


def test_max_feasible_pstar_on_gl():
    # the sample's worst pair nears x = y = 0, where the bound is 1.25
    gl = build_ginzburg_landau()
    assert max_feasible_pstar(gl, alpha1=0.25) == pytest.approx(1.25, abs=1e-5)
    # as alpha1 -> 0 the GL budget tends to 1/2 + |eta + sigma^2/2| / sigma^2
    assert max_feasible_pstar(gl, alpha1=1e-12) == pytest.approx(1.5, abs=1e-5)


_BUILT_IN = {"gl": (build_ginzburg_landau(), 0.5),
             "allen-cahn": (build_allen_cahn(K=4), 8.0)}


@settings(deadline=None, max_examples=30)
@given(name=st.sampled_from(sorted(_BUILT_IN)),
       share=st.floats(min_value=1e-6, max_value=1.0))
def test_the_monotone_check_passes_at_the_max_feasible_pstar(name, share):
    """The returned p* is the largest the check passes at: the check passes
    there and fails just above it, or, at 0.0, already fails at p* = 1."""
    problem, alpha1_max = _BUILT_IN[name]
    alpha1 = share * alpha1_max
    p_star = max_feasible_pstar(problem, alpha1=alpha1)
    if p_star == 0.0:
        assert not check_contractive_monotone(problem, 1.0, alpha1).passed
        return
    assert 1.0 <= p_star < 64.0
    assert check_contractive_monotone(problem, p_star, alpha1).passed
    assert not check_contractive_monotone(problem, p_star * (1 + 1e-9),
                                          alpha1).passed


def test_max_feasible_pstar_caps_without_noise_spread():
    gl0 = build_ginzburg_landau(eta=-1.0, sigma=0.0)
    assert max_feasible_pstar(gl0, alpha1=0.5) == 64.0
    # without noise every pair has b = 0, so no p* offsets an alpha1 above
    # the drift's own contraction rate, here |eta| = 3/2
    quiet = build_ginzburg_landau(sigma=0.0)
    assert max_feasible_pstar(quiet, alpha1=1.0) == 64.0
    assert max_feasible_pstar(quiet, alpha1=2.0) == 0.0


# each constant a checker takes in place of the claim, by the checkers
# that take it
_OVERRIDES = {"p_star": (check_contractive_monotone,),
              "alpha1": (check_contractive_monotone, max_feasible_pstar),
              "kappa": (check_poly_lipschitz,), "c1": (check_poly_lipschitz,)}


def test_checkers_refuse_a_given_constant_that_no_claim_may_take():
    """A given constant is checked as a claim by MonotoneConstants: a NaN
    or infinite p* or alpha1 gave a NaN or infinite margin, or p* = 0, and
    p* = 0.7 ran although every claim has p* >= 1."""
    gl = build_ginzburg_landau()
    for name, checkers in _OVERRIDES.items():
        bad = [math.nan, math.inf, -math.inf, 0.0, -1.0, "2", True]
        for value in bad + ([0.7] if name == "p_star" else []):
            for checker in checkers:
                with pytest.raises(UsageError, match=f"^{name} must be"):
                    checker(gl, **{name: value})


def test_max_feasible_pstar_zero_when_even_one_fails():
    # alpha1 far beyond the dissipativity rate: no p* can pass
    gl = build_ginzburg_landau()
    assert max_feasible_pstar(gl, alpha1=50.0) == 0.0


_SCALES = np.array([1.0, 0.5])


def _diagonal_pair(pointwise):
    """d = m = 2: drift -x - x^3 componentwise and diffusion diag(s x) with
    s = (1, 1/2), each component driven by its own Brownian motion."""
    kw = dict(name="diagonal", d=2, m=2, constants=MonotoneConstants(
        alpha1=0.25, p_star=1.25, kappa=3.0, c1=10.0))
    if pointwise:
        return SdeProblem.from_pointwise(
            drift=lambda x: -x - x ** 3,
            diffusion=lambda x: np.diag(_SCALES * x), **kw)
    return SdeProblem(drift_batch=lambda X: -X - X ** 3,
                      diffusion_apply=lambda X, dW: _SCALES * X * dW, **kw)


@pytest.mark.parametrize("pointwise", [False, True], ids=["batch", "pointwise"])
def test_monotone_margin_with_two_noise_columns(pointwise):
    """||g(x) - g(y)||_F^2 must sum over both columns of g: the worst margin
    equals the one computed from the full 2 x 2 diffusion matrices."""
    problem = _diagonal_pair(pointwise)
    X, Y, dX, nsq, dF = _pair_differences(lambda Z: -Z - Z ** 3, 2)
    dG = (np.einsum("ij,jk->ijk", _SCALES * X, np.eye(2))
          - np.einsum("ij,jk->ijk", _SCALES * Y, np.eye(2)))
    direct = np.max((np.einsum("ij,ij->i", dX, dF)
                     + 0.75 * np.einsum("ijk,ijk->i", dG, dG)) / nsq + 0.25)
    report = check_contractive_monotone(problem)
    assert report.worst_margin == pytest.approx(direct, rel=1e-12, abs=1e-12)
    npt.assert_array_equal(
        _diffusion_columns(problem, np.array([[2.0, -4.0]]))[0].T,
        [[2.0, 0.0], [0.0, -2.0]])


# ---------------------------------------------------------------------------
# polynomial Lipschitz checker and growth constants
# ---------------------------------------------------------------------------

def test_poly_lipschitz_passes_at_certified_c1():
    gl = build_ginzburg_landau()
    rep = check_poly_lipschitz(gl)
    assert rep.passed
    assert rep.c2 == pytest.approx(gl.constants.c2)
    assert rep.c3 == pytest.approx(gl.constants.c3(gl.f0_norm_sq))


def test_poly_lipschitz_fails_with_small_c1():
    gl = build_ginzburg_landau()
    assert not check_poly_lipschitz(gl, c1=0.5).passed


def test_poly_lipschitz_rejects_understated_exponent():
    """kappa = 2 cannot absorb a cubic drift under this condition shape."""
    gl = build_ginzburg_landau()
    assert not check_poly_lipschitz(gl, kappa=2.0, c1=2.25).passed


def test_poly_lipschitz_linear_problem_kappa_one():
    rep = check_poly_lipschitz(_linear_problem())
    assert rep.passed


def test_growth_constants_formulas():
    c = MonotoneConstants(alpha1=0.25, p_star=1.25, kappa=3.0, c1=6.0)
    assert c.c2 == pytest.approx(2.0 * 6.0 * 4.0 / 3.0)
    assert c.c3(f0_norm_sq=0.0) == pytest.approx(2.0 * 6.0 * 2.0 / 3.0)
    assert c.c3(f0_norm_sq=5.0) == pytest.approx(10.0 + 8.0)


def test_growth_bound_holds_on_samples():
    """|f(x)|^2 <= c2 |x|^(2 kappa) + c3 follows from the certified c1."""
    gl = build_ginzburg_landau()
    rng = np.random.default_rng(7)
    xs = rng.uniform(-10, 10, size=(2000, 1))
    c2, c3 = gl.constants.c2, gl.constants.c3(gl.f0_norm_sq)
    for x in xs:
        fx = drift_rows(gl, x[None])[0]
        nx = float(np.dot(x, x))
        assert float(np.dot(fx, fx)) <= c2 * nx ** 3.0 + c3 + 1e-9


def test_theorem_admissible_p_max():
    gl = build_ginzburg_landau()
    assert theorem_admissible_p_max(gl.constants) == pytest.approx(0.2)
    ac = build_allen_cahn(K=4)
    assert theorem_admissible_p_max(ac.constants) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# evaluation plumbing
# ---------------------------------------------------------------------------

_MISSHAPEN = {
    "drift": lambda x: -x[:1],
    "diffusion": lambda x: np.zeros((2,)),
    "drift_jacobian": lambda x: -np.eye(2)[:1],
    "drift_batch": lambda X: -X[:, :1],
    "diffusion_apply": lambda X, dW: dW,
    "drift_jacobian_batch": lambda X: np.zeros((X.shape[0], 2)),
    "resolvent_batch": lambda B, h: B[:, :1],
    "jacobian_solve_batch": lambda Z, h, F: F.T,
}

_PAIR = dict(name="pair", d=2, m=1, constants=MonotoneConstants(
    alpha1=0.9, p_star=2.0, kappa=1.0, c1=1.01))


@pytest.mark.parametrize("field", sorted(_MISSHAPEN))
def test_problem_rejects_wrong_output_shapes(field):
    """Each callable is probed once at construction, the batch fields by the
    problem and the pointwise ones by `from_pointwise`: a (B, 1) drift batch
    for d = 2, say, would otherwise broadcast into plausible wrong results."""
    batch = dict(drift_batch=lambda X: -X,
                 diffusion_apply=lambda X, dW: 0.1 * np.repeat(dW, 2, axis=1),
                 drift_jacobian_batch=lambda X: np.broadcast_to(
                     -np.eye(2), (X.shape[0], 2, 2)),
                 resolvent_batch=lambda B, h: B / (1.0 + h),
                 jacobian_solve_batch=lambda Z, h, F: F / (1.0 + h))
    pointwise = dict(drift=lambda x: -x,
                     diffusion=lambda x: np.full((2, 1), 0.1),
                     drift_jacobian=lambda x: -np.eye(2))
    SdeProblem(**_PAIR, **batch)
    SdeProblem.from_pointwise(**_PAIR, **pointwise)
    with pytest.raises(UsageError, match=f"^{field} of"):
        if field in batch:
            SdeProblem(**_PAIR, **dict(batch, **{field: _MISSHAPEN[field]}))
        else:
            SdeProblem.from_pointwise(
                **_PAIR, **dict(pointwise, **{field: _MISSHAPEN[field]}))


def test_problem_dimensions_are_counts():
    """d = 1.0 is refused by the count rule, not by numpy's TypeError."""
    for dims in ({"d": 1.0}, {"m": 1.0}, {"d": 0}):
        with pytest.raises(UsageError, match="must be an integer >= 1"):
            SdeProblem(**dict(_PAIR, **dims), drift_batch=lambda X: -X,
                       diffusion_apply=lambda X, dW: 0.1 * dW)


@pytest.mark.parametrize("d", [1, 2, 3, 64])
def test_construction_probes_on_two_rows_or_three_at_d_two(d):
    """Each batch callable is probed on 2 rows, or 3 when d = 2, so that
    the batch size never equals d, and a dense (B, d, d) Jacobian probe
    holds at most three d x d matrices (at d = 2999 a probe on d + 1 rows
    asked for 201 GiB)."""
    shapes = []

    def recorded(fn):
        def call(X, *rest):
            shapes.append(X.shape)
            return fn(X, *rest)
        return call

    SdeProblem(
        name="ou", d=d, m=1, constants=_PAIR["constants"],
        drift_batch=recorded(lambda X: -X),
        diffusion_apply=recorded(lambda X, dW: np.repeat(dW, d, axis=1)),
        drift_jacobian_batch=recorded(lambda X: np.broadcast_to(
            -np.eye(d), (X.shape[0], d, d))),
        resolvent_batch=recorded(lambda B, h: B / (1.0 + h)),
        jacobian_solve_batch=recorded(lambda Z, h, F: F / (1.0 + h)))
    assert shapes == [(3 if d == 2 else 2, d)] * 5


def test_constants_validation():
    with pytest.raises(UsageError):
        MonotoneConstants(alpha1=0.0, p_star=1.25, kappa=3.0, c1=1.0)
    with pytest.raises(UsageError):
        MonotoneConstants(alpha1=0.25, p_star=0.5, kappa=3.0, c1=1.0)
    with pytest.raises(UsageError):
        MonotoneConstants(alpha1=0.25, p_star=1.25, kappa=0.0, c1=1.0)
    with pytest.raises(UsageError):
        MonotoneConstants(alpha1=0.25, p_star=1.25, kappa=3.0, c1=-1.0)
    # a non-finite or non-real constant, beta1 included when given
    valid = dict(alpha1=0.25, p_star=1.25, kappa=3.0, c1=1.0, beta1=0.5)
    for name in valid:
        for value in (math.inf, math.nan, True, "1"):
            with pytest.raises(UsageError, match=f"^{name} must be finite"):
                MonotoneConstants(**dict(valid, **{name: value}))


def test_sample_spec_is_deterministic():
    """Every check draws the one fixed sample: SAMPLE_PAIRS pairs in
    SAMPLE_BOX^d, the same bits on every call."""
    for d in (1, 4):
        pairs = _pair_differences(lambda Z: -Z - Z ** 3, d)
        X, Y = pairs[:2]
        assert X.shape == Y.shape == (SAMPLE_PAIRS, d)
        assert np.all((X >= SAMPLE_BOX[0]) & (X < SAMPLE_BOX[1]))
        for a, b in zip(pairs, _pair_differences(lambda Z: -Z - Z ** 3, d)):
            npt.assert_array_equal(a, b)
    gl = build_ginzburg_landau()
    a, b = check_contractive_monotone(gl), check_contractive_monotone(gl)
    assert a.worst_margin == b.worst_margin
    assert a.n_pairs == SAMPLE_PAIRS
