"""One-step integrators: Euler-Maruyama, backward (drift-implicit) Euler, projected Euler.

All three share the update skeleton  x -> x~ + h f(x~) + g(x~) dW  where x~ is
x itself (EM), the implicit solution of z = b + h f(z) (backward Euler, with
b = x + g(x) dW), or the radial projection of x onto the ball of radius
R = h^(-1/(2(kappa+1))) (projected Euler). Backward and projected Euler keep
their long-time accuracy for superlinearly growing dissipative drift; plain
Euler-Maruyama is provided as the baseline that visibly fails there, so its
step never raises on overflow -- it returns the non-finite state and callers
tag the path divergent.

`step_batch` advances an ensemble with a leading batch axis, and it is the
only step map: a single path is a batch of one, stepped and checked by
`simulate.evolve_terminal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SolverFailure, UsageError
from .model import SdeProblem, drift_rows

__all__ = [
    "NewtonConfig",
    "SchemeConfig",
    "SchemeOrders",
    "VARIANTS",
    "scheme_orders",
    "step_ceiling",
    "step_batch",
    "project_batch",
    "solve_implicit_batch",
]

VARIANTS = ("em", "be", "pe")


@dataclass(frozen=True)
class NewtonConfig:
    """Controls for the per-step implicit solve, a damped Newton iteration:
    each row must reach residual_tol within max_iter iterations, or the solve
    raises SolverFailure."""

    residual_tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if self.residual_tol <= 0.0:
            raise UsageError(f"residual_tol must be positive, got {self.residual_tol}")
        if self.max_iter < 1:
            raise UsageError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class SchemeConfig:
    """Which integrator to run and how its implicit/projection internals behave."""

    variant: str = "be"
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UsageError(f"variant must be one of {VARIANTS}, got {self.variant!r}")


@dataclass(frozen=True)
class SchemeOrders:
    """Local weak order q1, local strong order q2, and the implied global order.

    The fundamental long-time theorem turns (q1, q2) with 1/2 < q2 <= q1 - 1/2
    into a global strong rate of q2 - 1/2 that holds uniformly in time.
    (q1, q2) are the orders the theorem requires, so they are lower bounds,
    not the exact orders a step attains: on smooth coefficients the local
    weak order of these Euler-type steps is 2 (Itô–Taylor), above q1 = 1.5.
    requires_global_lipschitz marks schemes whose orders are only valid under
    globally Lipschitz coefficients (Euler-Maruyama here).
    """

    q1: float
    q2: float
    global_order: float
    requires_global_lipschitz: bool


def scheme_orders(variant: str) -> SchemeOrders:
    """Order metadata for a scheme variant.

    The local orders are the lower bounds the long-time theorem needs; the
    local weak order these steps reach on smooth coefficients is 2.
    """
    if variant not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return SchemeOrders(q1=1.5, q2=1.0, global_order=0.5,
                        requires_global_lipschitz=(variant == "em"))


def step_ceiling(variant: str, p: float, alpha1: float, h0: float = 1.0) -> float:
    """Largest step size the long-time theorems admit for this scheme.

    h1 = min(1/(p alpha1), h0) for the implicit scheme; the projected scheme
    additionally needs h <= 1/(2 p alpha1) (stated to hold below an
    analysis-only offset of alpha1, so this is its conservative limit).
    """
    if variant not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if p <= 0.0 or alpha1 <= 0.0:
        raise UsageError(f"p and alpha1 must be positive, got p={p}, alpha1={alpha1}")
    h1 = min(1.0 / (p * alpha1), h0)
    if variant == "pe":
        return min(h1, 1.0 / (2.0 * p * alpha1))
    return h1


# ---------------------------------------------------------------------------
# shared low-level pieces
# ---------------------------------------------------------------------------

def _row_norms(Z: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", Z, Z))


def _jacobian_rows(problem: SdeProblem, Z: np.ndarray) -> np.ndarray:
    """Drift Jacobians over a batch, (B, d) -> (B, d, d): analytic when the
    problem provides them, else central differences with step
    1e-6 (1 + |x|_inf)."""
    if problem.drift_jacobian_batch is not None:
        return np.asarray(problem.drift_jacobian_batch(Z), dtype=float)
    # central finite differences, one column at a time
    d = problem.d
    eps = 1e-6 * (1.0 + np.max(np.abs(Z), axis=1))
    cols = []
    for j in range(d):
        E = np.zeros_like(Z)
        E[:, j] = eps
        cols.append((drift_rows(problem, Z + E) - drift_rows(problem, Z - E))
                    / (2.0 * eps)[:, None])
    return np.stack(cols, axis=2)


# ---------------------------------------------------------------------------
# implicit solve
# ---------------------------------------------------------------------------

def solve_implicit_batch(problem: SdeProblem, b: np.ndarray, h: float,
                         cfg: NewtonConfig = NewtonConfig(),
                         step_index: Optional[int] = None) -> np.ndarray:
    """Solve z - h f(z) = b rowwise for a batch b of shape (B, d).

    Newton iteration from z = b with analytic (or finite-difference) Jacobians;
    the strong monotonicity of z - h f(z) for dissipative drift makes the root
    unique, and Newton almost always converges in a handful of iterations.
    A row's step is halved while it would raise that row's residual, which
    keeps the iteration robust at extreme states. A row still above
    cfg.residual_tol after cfg.max_iter iterations raises SolverFailure,
    naming the first such row of b (its `path_index`). A non-finite row of b
    gives a NaN row and never reaches the problem's callables.

    Each iteration works only on the active rows, those still above the
    tolerance, and each halving only on the rows it halves. Because the
    problem's callables are row-independent (see `SdeProblem`), every row
    goes through the same floating-point operations as if solved alone, so
    a row's root does not depend on which other rows share the batch.
    """
    d = b.shape[1]
    tol = cfg.residual_tol
    z = np.full_like(b, np.nan)
    act = np.flatnonzero(np.isfinite(b).all(axis=1))
    if not act.size:
        return z
    # the active rows, still above tol, and their iterates, residuals, norms
    # and right-hand sides, gathered once from the finite rows
    ba = b[act]
    z[act] = ba
    Fa = ba - h * drift_rows(problem, ba) - ba
    rna = _row_norms(Fa)
    keep = np.flatnonzero(~(rna <= tol))
    act, za, Fa, rna, ba = act[keep], ba[keep], Fa[keep], rna[keep], ba[keep]
    eye = np.eye(d)
    for _ in range(cfg.max_iter):
        if not act.size:
            return z
        J = eye - h * _jacobian_rows(problem, za)
        if d == 1:
            dz = Fa / J[:, :, 0]
        else:
            dz = np.linalg.solve(J, Fa[..., None])[..., 0]
        z_new = za - dz
        F_new = z_new - h * drift_rows(problem, z_new) - ba
        rn_new = _row_norms(F_new)
        # halve the step of the rows it would make worse, recomputing only them
        worse = np.flatnonzero(~(rn_new <= rna))
        alpha = np.ones(worse.size)
        while worse.size:
            alpha *= 0.5
            zw = za[worse] - alpha[:, None] * dz[worse]
            Fw = zw - h * drift_rows(problem, zw) - ba[worse]
            z_new[worse], F_new[worse], rn_new[worse] = zw, Fw, _row_norms(Fw)
            more = ~(rn_new[worse] <= rna[worse]) & (alpha > 1e-8)
            worse, alpha = worse[more], alpha[more]
        z[act] = z_new
        keep = np.flatnonzero(~(rn_new <= tol))
        act, za, Fa, rna, ba = (act[keep], z_new[keep], F_new[keep],
                                rn_new[keep], ba[keep])

    if act.size:
        # the first failing row, not the worst: which row is worst depends
        # on which other paths share the batch
        raise SolverFailure(
            f"implicit solve did not converge within {cfg.max_iter} iterations "
            f"(residual {rna[0]:.3e} in the first failing row)",
            last_iterate=za[0].copy(), residual=float(rna[0]),
            step_index=step_index, path_index=int(act[0]))
    return z


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def _projection_radius(h: float, kappa: float) -> float:
    if not (0.0 < h <= 1.0):
        raise UsageError(f"projection requires h in (0, 1], got {h}")
    return h ** (-1.0 / (2.0 * (kappa + 1.0)))


def project_batch(Z: np.ndarray, R: float) -> np.ndarray:
    """Rowwise radial projection of a batch (B, d) onto the ball of radius R:
    the identity inside, x R/|x| outside; 1-Lipschitz, and it fixes the
    origin, as the projected scheme's stability argument needs."""
    nrm = _row_norms(Z)
    scale = np.where(nrm > R, R / np.where(nrm > 0.0, nrm, 1.0), 1.0)
    return Z * scale[:, None]


# ---------------------------------------------------------------------------
# the one-step map
# ---------------------------------------------------------------------------

def step_batch(problem: SdeProblem, cfg: SchemeConfig, Z: np.ndarray,
               dW: np.ndarray, h: float, step_index: Optional[int] = None) -> np.ndarray:
    """Advance a batch of states one step under the configured scheme:
    backward Euler solves z - h f(z) = Z + g(Z) dW; projected Euler is the
    explicit step from the projected states, returning the raw Euler output
    that the next step projects again."""
    if cfg.variant == "be":
        return solve_implicit_batch(problem, Z + problem.diffusion_apply(Z, dW),
                                    h, cfg.newton, step_index=step_index)
    if cfg.variant == "pe":
        Z = project_batch(Z, _projection_radius(h, problem.constants.kappa))
    with np.errstate(over="ignore", invalid="ignore"):
        return Z + h * drift_rows(problem, Z) + problem.diffusion_apply(Z, dW)
