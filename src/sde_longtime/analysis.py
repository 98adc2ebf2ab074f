"""Estimators and rate fits for the experiment outputs.

Order fits regress log2(error) on log2(h) — the ladders are dyadic, so base-2
logs make the abscissa integer-spaced. Points whose error has fallen to the
solver's residual floor carry no rate information and are excluded (with a
note in the report) before fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import UsageError
from .model import MonotoneConstants, theorem_admissible_p_max
from .noise import check_positive, check_real
from .schemes import GLOBAL_ORDER, RESIDUAL_TOL, SchemeConfig
from .simulate import ErrorCurve

__all__ = [
    "FitResult",
    "ConvergenceReport",
    "fit_order",
    "make_convergence_report",
    "decay_slope",
    "stationarity_gap",
]


def _ols(x: np.ndarray, y: np.ndarray):
    """Least-squares line through (x, y) as (slope, intercept, r), with the
    arithmetic of scipy.stats.linregress, zero-variance cases included."""
    if np.max(x) == np.min(x):
        raise UsageError("cannot fit a line: all abscissae are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    return slope, np.mean(y) - slope * np.mean(x), r


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_order(hs: Sequence[float], errors: Sequence[float]) -> FitResult:
    """Least-squares slope of log2(error) against log2(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if hs.shape != errors.shape or hs.ndim != 1:
        raise UsageError("hs and errors must be 1-d arrays of equal length")
    if hs.size < 2:
        raise UsageError(f"need at least 2 points to fit an order, got {hs.size}")
    if not (np.all(np.isfinite(hs)) and np.all(np.isfinite(errors))):
        raise UsageError("step sizes and errors must be finite for a fit")
    if np.any(hs <= 0.0) or np.any(errors <= 0.0):
        raise UsageError("step sizes and errors must be positive for a log-log fit")
    slope, intercept, r = _ols(np.log2(hs), np.log2(errors))
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=float(r) ** 2, n_points=int(hs.size))


@dataclass(frozen=True)
class ConvergenceReport:
    """An error curve, its fitted rate, and the pass verdict against a band."""

    model: str
    scheme: str
    p: float
    T: float
    h_ref: float
    hs: tuple
    errors: tuple
    std_errors: tuple
    excluded_hs: tuple
    predicted_order: float
    slope: Optional[float]  # None where fewer than 2 points remain to fit
    intercept: Optional[float]
    r_squared: Optional[float]
    band: float
    r2_min: float
    passed: bool
    p_max_theorem: Optional[float] = None
    p_within_theorem: Optional[bool] = None
    notes: tuple = field(default_factory=tuple)


def check_report_bounds(band: float, r2_min: float) -> None:
    """Refuse a report's bounds unless `band` is positive and finite and
    r2_min is a real in [0, 1]; the CLI checks its options by this rule too."""
    check_positive(band, "band")
    if not 0.0 <= check_real(r2_min, "r2_min") <= 1.0:
        raise UsageError(f"r2_min must be in [0, 1], got {r2_min!r}")


def make_convergence_report(curve: ErrorCurve, band: float = 0.1,
                            r2_min: float = 0.98,
                            constants: Optional[MonotoneConstants] = None
                            ) -> ConvergenceReport:
    """Fit the curve and compare against the global order every scheme is
    predicted, `schemes.GLOBAL_ORDER`; a curve of no known scheme is refused.

    Points whose error is at or below 10x the implicit solve's residual
    tolerance (`schemes.RESIDUAL_TOL`) are excluded from the fit (they
    measure the solver, not the scheme) with a note. So is a level
    with no surviving path or an infinite error, and then the report
    fails: the scheme diverged there. Otherwise passing means the fitted
    slope lies within `band` of the predicted order and r^2 >= r2_min.
    With fewer than two points left there is no fit: the report fails,
    with a note and no slope, intercept or r^2. Bad bounds are refused.
    """
    check_report_bounds(band, r2_min)
    SchemeConfig(curve.scheme)
    notes = []
    kept_h, kept_e, kept_se, excluded = [], [], [], []
    floor = 10.0 * RESIDUAL_TOL
    diverged = False
    for h, est in zip(curve.hs, curve.estimates):
        lost = est.n_divergent == est.n_paths
        if lost or not math.isfinite(est.value):
            diverged = True
            reason = (f"all {est.n_paths} paths diverged" if lost
                      else f"error {est.value} beyond float range")
        elif est.value <= floor:
            reason = f"error {est.value:.3e} at solver floor"
        else:
            kept_h.append(h)
            kept_e.append(est.value)
            kept_se.append(est.std_error)
            continue
        excluded.append(h)
        notes.append(f"excluded h={h:g}: {reason}")
    fit = fit_order(kept_h, kept_e) if len(kept_h) >= 2 else None
    if fit is None:
        notes.append("fewer than 2 error points above the solver floor; "
                     "no order fitted")
    passed = (fit is not None and not diverged
              and abs(fit.slope - GLOBAL_ORDER) <= band
              and fit.r_squared >= r2_min)
    p_max = theorem_admissible_p_max(constants) if constants is not None else None
    within = (curve.p <= p_max) if p_max is not None else None
    if within is False:
        notes.append(
            f"requested p={curve.p:g} exceeds the theorem-admissible maximum "
            f"{p_max:g}; the guaranteed range is empty and rates are empirical")
    return ConvergenceReport(
        model=curve.model, scheme=curve.scheme, p=curve.p, T=curve.T,
        h_ref=curve.h_ref, hs=tuple(kept_h), errors=tuple(kept_e),
        std_errors=tuple(kept_se), excluded_hs=tuple(excluded),
        predicted_order=GLOBAL_ORDER,
        slope=fit and fit.slope, intercept=fit and fit.intercept,
        r_squared=fit and fit.r_squared, band=band,
        r2_min=r2_min, passed=passed, p_max_theorem=p_max,
        p_within_theorem=within, notes=tuple(notes))


def decay_slope(times: Sequence[float], values: Sequence[float]) -> float:
    """OLS slope of ln(values) against time, for exponential-decay traces.

    Zero values (exactly coincident coupled paths, degenerate estimates) are
    dropped before the fit; at least two positive values must remain, and
    a non-finite time or value is refused.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise UsageError("times and values must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise UsageError("times and values must be finite for a decay fit")
    keep = v > 0.0
    if keep.sum() < 2:
        raise UsageError("need at least 2 positive values for a decay fit")
    return float(_ols(t[keep], np.log(v[keep]))[0])


def stationarity_gap(times: Sequence[float], values: Sequence[float]):
    """Late-time drift diagnostic for a moment trace.

    Splits [0, T] into quarters and returns
    (|mean over Q3 - mean over Q4|, sup over all t, their ratio). The ratio is
    the scale-normalized gap: well under 1 for traces that have settled (or
    decayed), of order 1 and beyond for traces still moving or growing.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.size < 8:
        raise UsageError("need a trace with at least 8 points")
    T = float(t.max())
    q3 = (t >= 0.5 * T) & (t < 0.75 * T)
    q4 = t >= 0.75 * T
    if not (q3.any() and q4.any()):
        raise UsageError("trace too short to contain third and fourth quarters")
    m3 = math.fsum(v[q3].tolist()) / int(q3.sum())
    m4 = math.fsum(v[q4].tolist()) / int(q4.sum())
    sup = float(v.max())
    gap = abs(m3 - m4)
    ratio = gap / sup if sup > 0.0 else 0.0
    return gap, sup, ratio
