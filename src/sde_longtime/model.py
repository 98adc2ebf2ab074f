"""SDE problem definitions and numerical verification of the structural assumptions.

A problem is the Ito SDE

    dX = f(X) dt + g(X) dW,   X in R^d,  W an m-dimensional Brownian motion,

together with claimed constants for two conditions that the long-time error
theory rests on:

* contractive monotonicity:
      <x - y, f(x) - f(y)> + (2 p* - 1)/2 * ||g(x) - g(y)||_F^2  <=  -alpha1 |x - y|^2
* polynomial-growth Lipschitz drift:
      |f(x) - f(y)|^2  <=  c1 (1 + |x|^(2 kappa - 2) + |y|^(2 kappa - 2)) |x - y|^2

from which the growth bound |f(x)|^2 <= c2 |x|^(2 kappa) + c3 follows with
c2 = 2 c1 (kappa + 1) / kappa and c3 = 2 |f(0)|^2 + 2 c1 (kappa - 1) / kappa.

The checkers certify the claimed constants, or the constants given in their
place, which MonotoneConstants checks like any claim (`_claimed`), on one
fixed sample: SAMPLE_PAIRS pairs from the box SAMPLE_BOX^d, drawn under
DEFAULT_SAMPLE_SEED (`_pair_differences`). They are falsifiers, not proofs,
but the sampling is scale-stratified so that the near-origin regime -- where
the monotone margin of the built-in problems is tightest -- is always probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import UsageError
from .noise import check_count, check_positive, check_real

__all__ = [
    "MonotoneConstants",
    "SdeProblem",
    "AssumptionReport",
    "drift_rows",
    "build_ginzburg_landau",
    "build_allen_cahn",
    "check_contractive_monotone",
    "check_poly_lipschitz",
    "max_feasible_pstar",
    "theorem_admissible_p_max",
    "DEFAULT_SAMPLE_SEED",
    "PSTAR_CAP",
]

# The one sample every assumption check draws (`_pair_differences`), fixed so
# that certification results are reproducible across machines and threads.
DEFAULT_SAMPLE_SEED = 123456789
SAMPLE_BOX = (-10.0, 10.0)
SAMPLE_PAIRS = 10_000

# Upper cap for the feasible p* (e.g. zero-diffusion problems satisfy the
# monotone condition for every p*).
PSTAR_CAP = 64.0


@dataclass(frozen=True)
class MonotoneConstants:
    """Claimed structural constants of a problem.

    beta1 is the optional global Lipschitz constant of the diffusion
    (||g(x)-g(y)||_F^2 <= beta1 |x-y|^2) where one is known.
    """

    alpha1: float
    p_star: float
    kappa: float
    c1: float
    beta1: Optional[float] = None

    def __post_init__(self):
        for name in ("alpha1", "p_star", "kappa", "c1", "beta1"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, check_real(value, name))
        if not (self.alpha1 > 0.0):
            raise UsageError(f"alpha1 must be positive, got {self.alpha1}")
        if not (self.p_star >= 1.0):
            raise UsageError(f"p_star must be >= 1, got {self.p_star}")
        if not (self.kappa >= 1.0):
            raise UsageError(f"kappa must be >= 1, got {self.kappa}")
        if not (self.c1 > 0.0):
            raise UsageError(f"c1 must be positive, got {self.c1}")

    @property
    def c2(self) -> float:
        return 2.0 * self.c1 * (self.kappa + 1.0) / self.kappa

    def c3(self, f0_norm_sq: float) -> float:
        return 2.0 * f0_norm_sq + 2.0 * self.c1 * (self.kappa - 1.0) / self.kappa


def _probe(problem_name: str, d: int, m: int, probes) -> None:
    """Check the dimensions, then call each supplied callable of `probes`, a
    sequence of (name, callable or None, arguments, expected shape), once,
    each argument given as a shape being zeros of that shape; UsageError on
    a wrong output shape, which numpy would otherwise broadcast silently."""
    check_count(d, "d"), check_count(m, "m")
    for name, fn, args, expected in probes:
        if fn is None:
            continue
        shape = np.shape(fn(*(np.zeros(a) if isinstance(a, tuple) else a
                              for a in args)))
        if shape != expected:
            raise UsageError(f"{name} of {problem_name} returned shape {shape} "
                             f"on a probe, expected {expected}")


@dataclass(frozen=True)
class SdeProblem:
    """An SDE plus claimed constants, evaluated on whole ensembles of states.

    drift_batch maps states X of shape (B, d) to the drifts (B, d);
    diffusion_apply maps X and Brownian increments dW of shape (B, m) to the
    rows g(x) dw, shape (B, d); the optional drift_jacobian_batch maps X to
    the Jacobians (B, d, d), and without it the implicit solve uses central
    finite differences of drift_batch. Pointwise callables on one state go
    through `SdeProblem.from_pointwise`.

    Two optional hooks let a problem lend the implicit solve of
    z - h f(z) = b its structure; the solve certifies every row's residual
    whatever they return, so they speed it up but never weaken it:

    * resolvent_batch(b, h) proposes the roots (B, d), from which the solve
      starts instead of from b. It may return any array, b itself
      included: the solve checks finiteness for the whole batch first, and
      a row with a non-finite proposal starts from b;
    * jacobian_solve_batch(Z, h, F) returns the Newton steps dz (B, d)
      solving (I - h Df(z)) dz = F row by row, in place of a dense solve
      with the Jacobians.

    Construction probes each callable once at the origin on 2 rows (3 when
    d = 2, so that no probe's batch size equals d), the hooks at h = 1, and
    raises UsageError on a wrong output shape.

    The batch callables must be row-independent: each output row depends
    only on the same row of the inputs, never on the other rows or on the
    batch size. Results then do not depend on how paths are chunked, and
    the implicit solve may evaluate only the rows it still iterates on.
    The built-in Allen-Cahn drift's `X @ A` is row-independent under
    OpenBLAS 0.3.31 at K = 4 and 8, but not at K = 16 and 33.
    """

    name: str
    d: int
    m: int
    drift_batch: Callable[[np.ndarray], np.ndarray]
    diffusion_apply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constants: MonotoneConstants
    drift_jacobian_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    resolvent_batch: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    jacobian_solve_batch: Optional[
        Callable[[np.ndarray, float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        d, m, n = self.d, self.m, 3 if self.d == 2 else 2
        _probe(self.name, d, m, (
            ("drift_batch", self.drift_batch, ((n, d),), (n, d)),
            ("diffusion_apply", self.diffusion_apply, ((n, d), (n, m)), (n, d)),
            ("drift_jacobian_batch", self.drift_jacobian_batch, ((n, d),),
             (n, d, d)),
            ("resolvent_batch", self.resolvent_batch, ((n, d), 1.0), (n, d)),
            ("jacobian_solve_batch", self.jacobian_solve_batch,
             ((n, d), 1.0, (n, d)), (n, d))))

    @classmethod
    def from_pointwise(cls, name: str, d: int, m: int, drift, diffusion,
                       constants: MonotoneConstants,
                       drift_jacobian=None) -> "SdeProblem":
        """A problem from callables on one state: drift (d,) -> (d,),
        diffusion (d,) -> the (d, m) matrix, and the optional drift_jacobian
        (d,) -> (d, d). Each is probed once at the origin; the batch
        callables built here loop over the rows, the only row loops over
        user callables in the package.
        """
        _probe(name, d, m, (("drift", drift, ((d,),), (d,)),
                            ("diffusion", diffusion, ((d,),), (d, m)),
                            ("drift_jacobian", drift_jacobian, ((d,),), (d, d))))

        def rows(fn, X):
            return np.stack([np.asarray(fn(x), dtype=float) for x in X])

        def diffusion_apply(X, dW):
            return np.einsum("bdm,bm->bd", rows(diffusion, X), dW)

        jacobian = (None if drift_jacobian is None
                    else lambda X: rows(drift_jacobian, X))
        return cls(name=name, d=d, m=m, drift_batch=lambda X: rows(drift, X),
                   diffusion_apply=diffusion_apply, constants=constants,
                   drift_jacobian_batch=jacobian)

    @property
    def f0_norm_sq(self) -> float:
        f0 = drift_rows(self, np.zeros((1, self.d)))[0]
        return float(np.dot(f0, f0))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one sampled structural check."""

    condition: str
    n_pairs: int
    worst_margin: float
    passed: bool
    c2: Optional[float] = None
    c3: Optional[float] = None


def drift_rows(problem: SdeProblem, X: np.ndarray) -> np.ndarray:
    """Drift over a batch of states (n, d) -> (n, d)."""
    return np.asarray(problem.drift_batch(X), dtype=float)


def _diffusion_columns(problem: SdeProblem, X: np.ndarray) -> np.ndarray:
    """The columns g(x) e_j, j < m, of the diffusion at each row x of X, as
    (n, m, d): diffusion_apply on m copies of each row with the unit
    increments."""
    n, m = X.shape[0], problem.m
    G = problem.diffusion_apply(np.repeat(X, m, axis=0), np.tile(np.eye(m), (n, 1)))
    return np.asarray(G, dtype=float).reshape(n, m, problem.d)


# ---------------------------------------------------------------------------
# built-in problems
# ---------------------------------------------------------------------------

def _cubic_root(B, h: float, a: float, theta: float):
    """Elementwise, the one real root z of the monotone cubic
    theta h z^3 + (1 - h a) z = B (theta h > 0, 1 - h a > 0):
    2 r sinh(asinh(B / (2 theta h r^3)) / 3) with r^2 = (1 - h a) /
    (3 theta h), the hyperbolic form of Cardano's formula (Nickalls,
    Math. Gazette 77, 1993)."""
    r = math.sqrt((1.0 - h * a) / (3.0 * theta * h))
    return 2.0 * r * np.sinh(np.arcsinh(B / (2.0 * theta * h * r ** 3)) / 3.0)


def build_ginzburg_landau(eta: float = -1.5, sigma: float = 1.0,
                          theta: float = 1.0) -> SdeProblem:
    """Scalar stochastic Ginzburg-Landau equation.

        dX = ((eta + sigma^2/2) X - theta X^3) dt + sigma X dW

    Requires theta > 0 and a := eta + sigma^2/2 < 0 (dissipative regime).
    The certified constants put a quarter of the dissipation |a| into alpha1
    and the rest against the diffusion term, giving
    p* = min(PSTAR_CAP, 1/2 + 3|a| / (4 sigma^2)) for sigma != 0 (the cap
    from sigma^2 below about 0.0118 |a|); for sigma = 0 the monotone
    condition is p*-independent, so alpha1 = |a| and p* sits at PSTAR_CAP.
    kappa = 3 (the drift is cubic, so |f(x)|^2 grows like |x|^6) with c1
    certified on the checks' sample. The implicit step's cubic has a
    closed-form root (`_cubic_root`), the problem's resolvent_batch.
    """
    eta, sigma = check_real(eta, "eta"), check_real(sigma, "sigma")
    theta = check_positive(theta, "theta")
    a = eta + 0.5 * sigma * sigma
    if a >= 0.0:
        raise UsageError(
            f"eta + sigma^2/2 = {a} must be negative for a dissipative problem")

    def drift_batch(X):
        return a * X - theta * (X * X * X)

    def diffusion_apply(X, dW):
        return sigma * X * dW

    def drift_jacobian_batch(X):
        return (a - 3.0 * theta * X ** 2)[..., None]

    def resolvent_batch(B, h):
        # z - h f(z) = b is the monotone cubic theta h z^3 + (1 - h a) z = b
        return _cubic_root(B, h, a, theta)

    if sigma != 0.0:
        # the capped p*, with no division by a sigma^2 that underflowed
        alpha1, beta1 = 0.25 * (-a), sigma * sigma
        p_star = (PSTAR_CAP if 0.75 * (-a) >= (PSTAR_CAP - 0.5) * beta1
                  else 0.5 + 0.75 * (-a) / beta1)
        if p_star < 1.0:
            raise UsageError(
                f"diffusion too strong relative to dissipation: certified p* = "
                f"{p_star:.4f} < 1")
    else:
        alpha1 = -a
        p_star = PSTAR_CAP
        beta1 = 0.0

    kappa = 3.0
    c1 = _certify_c1(drift_batch, kappa, d=1)
    constants = MonotoneConstants(alpha1=alpha1, p_star=p_star, kappa=kappa,
                                  c1=c1, beta1=beta1)
    return SdeProblem(
        name="gl", d=1, m=1, drift_batch=drift_batch,
        diffusion_apply=diffusion_apply, constants=constants,
        drift_jacobian_batch=drift_jacobian_batch,
        resolvent_batch=resolvent_batch)


def build_allen_cahn(K: int = 4) -> SdeProblem:
    """Finite-difference semidiscretization of a stochastic Allen-Cahn equation.

    The interval (0, 1) with homogeneous Dirichlet boundaries is discretized
    at K-1 interior nodes, giving the R^(K-1) system

        dX = (A X + X - X^3) dt + G(X) dW,   A = K^2 tridiag(1, -2, 1),

    driven by a single Brownian motion through the column G(X)_i = g(X_i)
    with g(u) = sin(u) + 1. X^3 acts componentwise.

    The smallest eigenvalue of -A is 4 K^2 sin^2(pi / (2K)) >= 8 for K >= 2,
    which certifies (alpha1, p*) = (1, 3.5) for every K with the sine
    diffusion. kappa = 3 with c1 certified on the checks' sample. The
    implicit solve's Newton steps are a Thomas solve on the three diagonals
    of the Jacobian (jacobian_solve_batch); no dense Jacobian is formed.
    Far above the root, where a Newton step from b shrinks the iterate by
    only about 2/3, the solve starts from two Jacobi sweeps of GL's
    closed-form root (resolvent_batch).
    """
    K = check_count(K, "K", 2)
    d = K - 1
    A = K * K * (np.diag(np.full(d, -2.0))
                 + np.diag(np.ones(d - 1), 1)
                 + np.diag(np.ones(d - 1), -1))

    def drift_batch(X):
        return X @ A + X - X * X * X          # A is symmetric

    def diffusion_apply(X, dW):
        return (np.sin(X) + 1.0) * dW

    def resolvent_batch(B, h):
        # row i of z - h f(z) = b is the cubic h z_i^3 + (1 - h a) z_i =
        # b_i + h K^2 (z_(i-1) + z_(i+1)) with a = 1 - 2 K^2: two sweeps,
        # the neighbours taken from the last (zero at first), for the rows
        # with h max_i b_i^2 >= 100; any other row, and a batch without
        # one, is b
        gate = 10.0 / math.sqrt(h)
        if not np.abs(B).max() >= gate:
            return B
        a = 1.0 - 2.0 * K * K
        Z = _cubic_root(B, h, a, 1.0)
        N = np.zeros_like(Z)
        N[:, 1:] = Z[:, :-1]
        N[:, :-1] += Z[:, 1:]
        Z = _cubic_root(B + h * K * K * N, h, a, 1.0)
        return np.where(np.abs(B).max(axis=1, keepdims=True) >= gate, Z, B)

    A_plus_I = A + np.eye(d)

    def drift_jacobian_batch(X):
        B = X.shape[0]
        J = np.repeat(A_plus_I[None], B, axis=0)
        J.reshape(B, d * d)[:, ::d + 1] -= 3.0 * X ** 2    # the diagonals
        return J

    def jacobian_solve_batch(Z, h, F):
        # I - h (A + I - 3 diag(z^2)) is tridiagonal, and symmetric positive
        # definite for every h > 0 because -A >= 8 I, so the Thomas
        # algorithm needs no pivoting; it runs down the columns of all rows,
        # and forms c only for the d - 1 columns the back substitution reads
        off = -h * K * K
        D = ((1.0 - h * (1.0 - 2.0 * K * K)) + 3.0 * h * (Z * Z)).T
        F = F.T
        c, x = np.empty((d - 1, D.shape[1])), np.empty(D.shape)
        pivot = D[0]
        x[0] = F[0] / pivot
        for i in range(1, d):
            c[i - 1] = off / pivot
            pivot = D[i] - off * c[i - 1]
            x[i] = (F[i] - off * x[i - 1]) / pivot
        for i in range(d - 2, -1, -1):
            x[i] -= c[i] * x[i + 1]
        return x.T

    kappa = 3.0
    c1 = _certify_c1(drift_batch, kappa, d=d)
    constants = MonotoneConstants(alpha1=1.0, p_star=3.5, kappa=kappa,
                                  c1=c1, beta1=1.0)
    return SdeProblem(
        name="allen-cahn", d=d, m=1, drift_batch=drift_batch,
        diffusion_apply=diffusion_apply, constants=constants,
        drift_jacobian_batch=drift_jacobian_batch,
        resolvent_batch=resolvent_batch,
        jacobian_solve_batch=jacobian_solve_batch)


# ---------------------------------------------------------------------------
# sampled checks
# ---------------------------------------------------------------------------

def _pair_differences(rows, d: int):
    """The checks' state pairs (X, Y), both (n, d), with dX = X - Y,
    nsq = |dX|^2 and dF = rows(X) - rows(Y) for a batch drift: SAMPLE_PAIRS
    pairs uniform in SAMPLE_BOX^d, the second half shrunk toward the origin
    by a random factor 10^-u per pair, u ~ U[0, 3], because the monotone
    margin of dissipative problems peaks as |x|, |y| -> 0, which a plain
    uniform sample would miss; pairs with x = y are dropped."""
    gen = np.random.Generator(np.random.Philox(DEFAULT_SAMPLE_SEED))
    X = gen.uniform(*SAMPLE_BOX, (SAMPLE_PAIRS, d))
    Y = gen.uniform(*SAMPLE_BOX, (SAMPLE_PAIRS, d))
    half = SAMPLE_PAIRS // 2
    scale = 10.0 ** (-gen.uniform(0.0, 3.0, (SAMPLE_PAIRS - half, 1)))
    X[half:] *= scale
    Y[half:] *= scale
    keep = np.linalg.norm(X - Y, axis=1) > 0.0
    X, Y = X[keep], Y[keep]
    dX = X - Y
    nsq = np.einsum("ij,ij->i", dX, dX)
    dF = np.asarray(rows(X), dtype=float) - np.asarray(rows(Y), dtype=float)
    return X, Y, dX, nsq, dF


def _claimed(problem: SdeProblem, **given) -> MonotoneConstants:
    """The problem's claimed constants with the given ones (None keeps the
    claim) in their place, checked by MonotoneConstants like any claim."""
    return replace(problem.constants, **{
        name: value for name, value in given.items() if value is not None})


def _monotone_margin(problem: SdeProblem):
    """The sampled per-pair slopes (a, b) of the monotone margin.

    Per pair, a = <x-y, f(x)-f(y)> / |x-y|^2 and
    b = ||g(x)-g(y)||_F^2 / |x-y|^2 >= 0, so the margin at p* is
    max over pairs of a + (2p*-1)/2 b + alpha1, affine in p* pair by pair.
    """
    X, Y, dX, nsq, dF = _pair_differences(
        lambda Z: drift_rows(problem, Z), problem.d)
    a = np.einsum("ij,ij->i", dX, dF) / nsq
    # the m columns of g(x) - g(y), flattened: their squared norm is the
    # squared Frobenius norm
    dG = (_diffusion_columns(problem, X)
          - _diffusion_columns(problem, Y)).reshape(X.shape[0], -1)
    b = np.einsum("ij,ij->i", dG, dG) / nsq
    return a, b


def check_contractive_monotone(problem: SdeProblem,
                               p_star: Optional[float] = None,
                               alpha1: Optional[float] = None
                               ) -> AssumptionReport:
    """Certify the contractive monotone condition at (p_star, alpha1) on a sample.

    Both parameters default to the problem's claimed constants. The reported
    worst margin is the sampled maximum of

        [<x-y, f(x)-f(y)> + (2 p* - 1)/2 ||g(x)-g(y)||_F^2 + alpha1 |x-y|^2] / |x-y|^2

    and the check passes iff it is <= 0.
    """
    c = _claimed(problem, p_star=p_star, alpha1=alpha1)
    a, b = _monotone_margin(problem)
    worst = float(np.max(a + 0.5 * (2.0 * c.p_star - 1.0) * b + c.alpha1))
    return AssumptionReport(condition="contractive_monotone", n_pairs=len(a),
                            worst_margin=worst, passed=worst <= 0.0)


def max_feasible_pstar(problem: SdeProblem,
                       alpha1: Optional[float] = None) -> float:
    """Largest p* in [1, PSTAR_CAP] passing the sampled monotone check at alpha1.

    A pair's margin a + alpha1 + (p* - 1/2) b grows with p* at the slope
    b >= 0, so a pair with b > 0 admits every p* up to
    1/2 - (a + alpha1)/b and the sample admits the least of these. Returns
    0.0 when a pair with b = 0 fails at every p*, or when that least bound is
    below 1; PSTAR_CAP when it is above the cap or no pair has b > 0.
    """
    alpha1 = _claimed(problem, alpha1=alpha1).alpha1
    a, b = _monotone_margin(problem)
    flat = b == 0.0
    if np.any(a[flat] + alpha1 > 0.0):
        return 0.0
    # each bound is lowered by 2^-48 (|a| + alpha1), over twice the rounding
    # error of the check's margin sum, so that the check passes at the result
    a, b = a[~flat], b[~flat]
    p_star = float(np.min(0.5 - (a + alpha1 + 2.0 ** -48 * (np.abs(a) + alpha1))
                          / b, initial=PSTAR_CAP))
    return p_star if p_star >= 1.0 else 0.0


def check_poly_lipschitz(problem: SdeProblem,
                         kappa: Optional[float] = None,
                         c1: Optional[float] = None) -> AssumptionReport:
    """Certify the polynomial-growth Lipschitz condition at (kappa, c1) on a sample.

    Margin per pair:
        [|f(x)-f(y)|^2 - c1 (1 + |x|^(2k-2) + |y|^(2k-2)) |x-y|^2] / |x-y|^2,
    pass iff the sampled maximum is <= 0. The report carries the derived
    growth constants c2 = 2 c1 (kappa+1)/kappa and
    c3 = 2 |f(0)|^2 + 2 c1 (kappa-1)/kappa.
    """
    constants = _claimed(problem, kappa=kappa, c1=c1)
    fsq, nsq, growth = _lipschitz_pairs(
        lambda Z: drift_rows(problem, Z), problem.d, constants.kappa)
    worst = float(np.max(fsq / nsq - constants.c1 * growth))
    return AssumptionReport(condition="polynomial_lipschitz", n_pairs=len(nsq),
                            worst_margin=worst, passed=worst <= 0.0,
                            c2=constants.c2, c3=constants.c3(problem.f0_norm_sq))


def _lipschitz_pairs(rows, d: int, kappa: float):
    """Per sampled pair: |f(x)-f(y)|^2, |x-y|^2 and the growth term
    1 + |x|^(2 kappa-2) + |y|^(2 kappa-2)."""
    X, Y, _, nsq, dF = _pair_differences(rows, d)
    fsq = np.einsum("ij,ij->i", dF, dF)
    pw = 2.0 * kappa - 2.0
    growth = 1.0 + np.linalg.norm(X, axis=1) ** pw + np.linalg.norm(Y, axis=1) ** pw
    return fsq, nsq, growth


def _certify_c1(drift_batch, kappa: float, d: int) -> float:
    """Smallest sampled c1 for the polynomial Lipschitz condition, with 5% headroom."""
    fsq, nsq, growth = _lipschitz_pairs(drift_batch, d, kappa)
    return 1.05 * float(np.max(fsq / (nsq * growth)))


def theorem_admissible_p_max(constants: MonotoneConstants) -> float:
    """Largest moment half-order covered by the convergence theorems.

    Equals floor(p*) / (2 kappa - 1); values below 1 mean the guaranteed
    range is empty and experiment reports flag the requested p as outside it.
    """
    return math.floor(constants.p_star) / (2.0 * constants.kappa - 1.0)
