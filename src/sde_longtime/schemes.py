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
`simulate.evolve_terminal`. The implicit solve is one damped Newton for
every problem; a problem's optional hooks (see `SdeProblem`) may propose
its roots or solve its Newton systems, and the solve still certifies
every row it returns. The solve, the projection and the engine's
statistics share one overflow-safe norm of a state (`_row_norms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverFailure, UsageError
from .model import SdeProblem, drift_rows
from .noise import check_positive

__all__ = [
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


# the implicit solve's absolute tolerance and iteration budget
RESIDUAL_TOL = 1e-12
MAX_ITER = 50


@dataclass(frozen=True)
class SchemeConfig:
    """Which integrator to run: one of VARIANTS."""

    variant: str = "be"

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
    SchemeConfig(variant)
    return SchemeOrders(q1=1.5, q2=1.0, global_order=0.5,
                        requires_global_lipschitz=(variant == "em"))


def step_ceiling(variant: str, p: float, alpha1: float, h0: float = 1.0) -> float:
    """Largest step size the long-time theorems admit for this scheme.

    h1 = min(1/(p alpha1), h0) for the implicit scheme; the projected scheme
    additionally needs h <= 1/(2 p alpha1) (stated to hold below an
    analysis-only offset of alpha1, so this is its conservative limit).
    """
    SchemeConfig(variant)
    p, alpha1 = check_positive(p, "p"), check_positive(alpha1, "alpha1")
    h1 = min(1.0 / (p * alpha1), check_positive(h0, "h0"))
    if variant == "pe":
        return min(h1, 1.0 / (2.0 * p * alpha1))
    return h1


def check_step(cfg: SchemeConfig, h: float) -> None:
    """Refuse a step size the scheme cannot take: projected Euler's radius
    h^(-1/(2(kappa+1))) is defined for h in (0, 1] only."""
    if cfg.variant == "pe" and not 0.0 < h <= 1.0:
        raise UsageError(f"projection requires h in (0, 1], got {h}")


# ---------------------------------------------------------------------------
# shared low-level pieces
# ---------------------------------------------------------------------------

def _row_norms(Z: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of Z, the package's one norm of a
    state: a row whose plain norm overflows is divided by its largest entry
    first, so that a finite row's norm is finite unless it exceeds the
    largest float; a row with an infinite entry keeps inf."""
    n = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    big = np.isinf(n)
    if np.count_nonzero(big):
        s = np.minimum(np.abs(Z[big]).max(axis=1), np.finfo(float).max)
        W = Z[big] / s[:, None]
        n[big] = s * np.sqrt(np.einsum("ij,ij->i", W, W))
    return n


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


def _newton_steps(problem: SdeProblem, Z: np.ndarray, h: float,
                  F: np.ndarray) -> np.ndarray:
    """The Newton steps dz solving (I - h Df(z)) dz = F for each row z of Z:
    the problem's jacobian_solve_batch, else a division (d = 1) or a dense
    solve with the Jacobians of `_jacobian_rows`."""
    if problem.jacobian_solve_batch is not None:
        return np.asarray(problem.jacobian_solve_batch(Z, h, F), dtype=float)
    J = np.eye(problem.d) - h * _jacobian_rows(problem, Z)
    if problem.d == 1:
        return F / J[:, :, 0]
    return np.linalg.solve(J, F[..., None])[..., 0]


# ---------------------------------------------------------------------------
# implicit solve
# ---------------------------------------------------------------------------

def _rounding_bound(b: np.ndarray, z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Per row, max(RESIDUAL_TOL, 2^-50 (|b| + |z| + |h f(z)|)), the
    rounding of the row's own terms, with h f(z) = z - b - F (no drift
    call)."""
    return np.maximum(RESIDUAL_TOL, 2.0 ** -50 * (
        _row_norms(b) + _row_norms(z) + _row_norms(z - b - F)))


def solve_implicit_batch(problem: SdeProblem, b: np.ndarray, h: float,
                         step_index: Optional[int] = None) -> np.ndarray:
    """Solve z - h f(z) = b rowwise for a batch b of shape (B, d).

    Newton iteration from z = b, or from the problem's resolvent_batch
    proposal where it is finite, with the problem's jacobian_solve_batch or
    analytic (or finite-difference) Jacobians; the strong monotonicity of
    z - h f(z) for dissipative drift makes the root unique, and Newton almost
    always converges in a handful of iterations. Finiteness is checked for
    the whole batch first, of b and then of the proposal, by one sum of
    squares each, and row by row only when that sum is not finite (a
    non-finite entry, or entries past about 1e154). The proposal may be
    any array, b itself included; the solve never writes into it or
    returns b. A row whose start is already within RESIDUAL_TOL is
    returned as it is, so an accurate proposal costs one residual check:
    when every row of b is finite and the residuals' sum of squares is
    within (RESIDUAL_TOL / 2)^2, the batch is certified whole, and row
    norms are formed only when that certificate fails. A row's step is
    halved while it would raise that row's residual, which keeps the
    iteration robust at extreme states. After each iteration, a row whose
    residual it did not strictly lower, and every row after the last of
    MAX_ITER iterations, is as close as it will get: it is accepted if
    that residual is finite and within 2^-50 (|b| + |z| + |h f(z)|), the
    rounding of its own terms, which is above RESIDUAL_TOL once |b| is
    large (these norms overflow only past the largest float). Any other
    row raises SolverFailure, naming the first such row of b
    (`path_index`). A non-finite row of b gives a NaN row and never
    reaches the problem's callables.

    Each iteration works only on the active rows, those not yet accepted,
    and each halving only on the rows it halves; an iteration in which
    every active row strictly lowered its residual, before the last, sets
    up no halving and no acceptance test. While every row of b is
    finite and active, the iterates are the whole batch; the rows are
    gathered only when some row leaves. Because the problem's callables are
    row-independent (see `SdeProblem`), every row goes through the same
    floating-point operations as if solved alone, so a row's root does not
    depend on which other rows share the batch.
    """
    # act indexes the active rows of b into the output z; while it is None,
    # every row is active and the iterates are the whole batch. A sum of
    # squares is finite only if every entry is
    act, ba, z = None, b, None
    if not math.isfinite(np.vdot(b, b)) and not np.isfinite(b).all():
        act = np.flatnonzero(np.isfinite(b).all(axis=1))
        ba, z = b[act], np.full_like(b, np.nan)
    if not len(ba):
        return np.full_like(b, np.nan)
    za = ba
    if problem.resolvent_batch is not None:
        za = np.asarray(problem.resolvent_batch(ba, h), dtype=float)
        if not math.isfinite(np.vdot(za, za)) and not np.isfinite(za).all():
            za = np.where(np.isfinite(za).all(axis=1)[:, None], za, ba)
    Fa = za - h * drift_rows(problem, za) - ba
    # a sum of squares within (RESIDUAL_TOL / 2)^2 puts every row's norm
    # within RESIDUAL_TOL, rounding included: the batch is certified whole
    if act is None and np.vdot(Fa, Fa) <= (RESIDUAL_TOL / 2) ** 2:
        return za.copy() if np.may_share_memory(za, b) else za
    rna = _row_norms(Fa)
    done = rna <= RESIDUAL_TOL
    for it in range(MAX_ITER + 1):
        n_done = np.count_nonzero(done)
        if n_done:
            # the rows done leave; the first time, the iterates become z,
            # and the rows kept are the first active set
            if act is None:
                z = za.copy() if np.may_share_memory(za, b) else za
            else:
                z[act[done]] = za[done]
            if n_done == len(done):
                return z
            keep = np.flatnonzero(~done)
            act = keep if act is None else act[keep]
            za, Fa, rna, ba = za[keep], Fa[keep], rna[keep], ba[keep]
        if it == MAX_ITER:
            break
        dz = _newton_steps(problem, za, h, Fa)
        z_new = za - dz
        F_new = z_new - h * drift_rows(problem, z_new) - ba
        rn_new = _row_norms(F_new)
        # the safeguards change nothing when every row strictly lowered its
        # residual before the last iteration, so they run only otherwise
        guard = np.count_nonzero(rn_new < rna) < len(rna) or it == MAX_ITER - 1
        if guard:
            # halve the step of the rows it would make worse, recomputing
            # only them
            worse = np.flatnonzero(~(rn_new <= rna))
            alpha = np.ones(worse.size)
            while worse.size:
                alpha *= 0.5
                zw = za[worse] - alpha[:, None] * dz[worse]
                Fw = zw - h * drift_rows(problem, zw) - ba[worse]
                z_new[worse], F_new[worse], rn_new[worse] = zw, Fw, _row_norms(Fw)
                more = ~(rn_new[worse] <= rna[worse]) & (alpha > 1e-8)
                worse, alpha = worse[more], alpha[more]
        done = rn_new <= RESIDUAL_TOL
        if guard:
            # a row that stalls, and every row after the last iteration, is
            # accepted if its residual is finite and within the rounding of
            # its terms
            held = ~(rn_new < rna) | (it == MAX_ITER - 1)
            if np.count_nonzero(held):
                done |= held & np.isfinite(rn_new) & (
                    rn_new <= _rounding_bound(ba, z_new, F_new))
        za, Fa, rna = z_new, F_new, rn_new

    # the first failing row, not the worst: which row is worst depends on
    # which other paths share the batch
    bound = _rounding_bound(ba[:1], za[:1], Fa[:1])[0]
    raise SolverFailure(
        f"implicit solve did not converge within {MAX_ITER} iterations "
        f"(residual {rna[0]:.3e} above its bound {bound:.3e} in the "
        f"first failing row)",
        last_iterate=za[0].copy(), residual=float(rna[0]),
        step_index=step_index, path_index=0 if act is None else int(act[0]))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

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
    check_step(cfg, h)
    if cfg.variant == "be":
        return solve_implicit_batch(problem, Z + problem.diffusion_apply(Z, dW),
                                    h, step_index=step_index)
    if cfg.variant == "pe":
        kappa = problem.constants.kappa
        Z = project_batch(Z, h ** (-1.0 / (2.0 * (kappa + 1.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        return Z + h * drift_rows(problem, Z) + problem.diffusion_apply(Z, dW)
