"""Rate fitting, decay slopes, stationarity diagnostics, convergence verdicts."""

import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from sde_longtime import (ErrorCurve, MomentEstimate, UsageError, decay_slope,
                          build_ginzburg_landau, fit_order,
                          make_convergence_report, stationarity_gap)


# ---------------------------------------------------------------------------
# log-log order fits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_fit_order_recovers_exact_power_law(q):
    hs = [2.0 ** -k for k in range(1, 6)]
    errors = [3.0 * h ** q for h in hs]
    fit = fit_order(hs, errors)
    assert fit.slope == pytest.approx(q, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log2(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 5


def test_fit_order_slope_invariant_under_error_rescaling():
    hs = [0.5, 0.25, 0.125]
    errors = [0.31, 0.22, 0.16]
    base = fit_order(hs, errors)
    scaled = fit_order(hs, [10.0 * e for e in errors])
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + math.log2(10.0),
                                             abs=1e-12)


def test_fit_order_two_points_is_exact_ratio():
    fit = fit_order([0.5, 0.125], [0.2, 0.05])
    # slope = log2(0.2/0.05) / log2(0.5/0.125) = 2/2 = 1
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # flat errors: slope 0 and, as in linregress, an undefined r^2, without
    # a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = fit_order([0.5, 0.25], [1.0, 1.0])
    assert flat.slope == 0.0 and math.isnan(flat.r_squared)


def test_fit_order_recovers_half_order_from_rounded_table():
    # sqrt(h) rounded to three significant figures: regression still lands
    # on 0.5 to well within a percent
    fit = fit_order([16.0, 8.0, 4.0, 2.0, 1.0], [4.0, 2.83, 2.0, 1.41, 1.0])
    assert fit.slope == pytest.approx(0.5, abs=0.01)
    assert fit.r_squared > 0.999


def test_fit_order_validation():
    with pytest.raises(UsageError):
        fit_order([0.5], [0.1])
    with pytest.raises(UsageError):
        fit_order([0.5, 0.25], [0.1, 0.0])
    with pytest.raises(UsageError):
        fit_order([0.5, -0.25], [0.1, 0.05])
    with pytest.raises(UsageError):
        fit_order([0.25, 0.25], [0.1, 0.05])  # abscissa collapses
    with pytest.raises(UsageError):
        fit_order([0.5, 0.25], [0.1, 0.05, 0.02])


# ---------------------------------------------------------------------------
# decay slopes and stationarity
# ---------------------------------------------------------------------------

def test_decay_slope_exact_exponential():
    t = np.linspace(0.0, 5.0, 11)
    assert decay_slope(t, np.exp(-2.0 * t)) == pytest.approx(-2.0, abs=1e-12)


def test_decay_slope_skips_exact_zeros():
    t = [0.0, 1.0, 2.0, 3.0]
    v = [1.0, math.exp(-2.0), 0.0, math.exp(-6.0)]
    assert decay_slope(t, v) == pytest.approx(-2.0, abs=1e-12)


def test_decay_slope_validation():
    with pytest.raises(UsageError):
        decay_slope([0.0, 1.0], [0.0, 0.0])  # nothing positive to fit
    with pytest.raises(UsageError):
        decay_slope([0.0, 1.0], [1.0, 0.5, 0.25])
    with pytest.raises(UsageError):
        decay_slope([1.0, 1.0], [1.0, 0.5])  # all at one time


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fits_refuse_non_finite_input(bad):
    """A diverged estimate is no point of a fit: neither fit draws a line
    through it (or warns on its way to a NaN slope)."""
    for fit, good in ((fit_order, [0.5, 0.25, 0.125]),
                      (decay_slope, [0.0, 1.0, 2.0])):
        with pytest.raises(UsageError):
            fit(good, [0.1, bad, 0.05])
        with pytest.raises(UsageError):
            fit([good[0], bad, good[2]], [0.1, 0.07, 0.05])


def test_stationarity_gap_constant_trace():
    t = np.arange(16.0)
    gap, sup, ratio = stationarity_gap(t, np.full(16, 3.0))
    assert gap == 0.0
    assert sup == 3.0
    assert ratio == 0.0


def test_stationarity_gap_known_values():
    # T = 15: third quarter is t in [7.5, 11.25), fourth is t >= 11.25
    t = np.arange(16.0)
    v = np.ones(16)
    v[0] = 10.0            # early transient peak sets the sup
    v[8:12] = 2.0          # mean over Q3
    v[12:] = 1.0           # mean over Q4
    gap, sup, ratio = stationarity_gap(t, v)
    assert gap == 1.0
    assert sup == 10.0
    assert ratio == pytest.approx(0.1, rel=1e-15)


def test_stationarity_gap_validation():
    with pytest.raises(UsageError):
        stationarity_gap(np.arange(7.0), np.ones(7))
    with pytest.raises(UsageError):
        stationarity_gap(np.arange(8.0), np.ones(9))
    # eight points, but none in the third quarter [T/2, 3T/4)
    with pytest.raises(UsageError, match="^trace too short"):
        stationarity_gap([0.0] * 7 + [1.0], [1.0] * 8)


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

def _curve(hs, values, p=1.0, ses=None):
    ses = ses or [0.01 * v for v in values]
    ests = tuple(MomentEstimate(value=v, std_error=se, p=p, n_paths=1000)
                 for v, se in zip(values, ses))
    return ErrorCurve(model="gl", scheme="be", p=p, T=16.0, h_ref=2.0 ** -12,
                      hs=tuple(hs), estimates=ests)


def test_report_passes_on_clean_half_order_curve():
    hs = [2.0 ** -k for k in range(3, 8)]
    curve = _curve(hs, [0.2 * h ** 0.52 for h in hs])
    rep = make_convergence_report(curve)
    assert rep.passed
    assert rep.predicted_order == 0.5
    assert rep.slope == pytest.approx(0.52, abs=1e-12)
    assert rep.excluded_hs == ()
    assert rep.notes == ()
    assert rep.p_max_theorem is None and rep.p_within_theorem is None
    d = asdict(rep)
    assert d["passed"] is True and d["hs"] == tuple(hs)


def test_report_fails_outside_band_or_noisy():
    hs = [0.25, 0.125, 0.0625]
    off_rate = make_convergence_report(_curve(hs, [0.2 * h for h in hs]),
                                       band=0.1)
    assert not off_rate.passed  # slope 1 against predicted 1/2
    noisy = make_convergence_report(
        _curve(hs, [0.11, 0.04, 0.05]), band=2.0, r2_min=0.999)
    assert not noisy.passed  # slope fine with a huge band, r^2 is not


def test_report_refuses_bounds_no_report_can_use():
    """A NaN, non-positive or infinite band, or an r2_min outside [0, 1],
    is a usage error, not a failed report with a fitted slope."""
    hs = [0.25, 0.125, 0.0625]
    curve = _curve(hs, [0.2 * h ** 0.5 for h in hs])
    for bounds in ([{"band": v} for v in (math.nan, 0.0, -1.0, math.inf)]
                   + [{"r2_min": v} for v in (math.nan, -0.1, 1.5)]):
        name = next(iter(bounds))
        with pytest.raises(UsageError, match=f"^{name} must be"):
            make_convergence_report(curve, **bounds)


def test_report_excludes_solver_floor_points():
    hs = [0.25, 0.125, 0.0625, 0.03125]
    values = [0.2 * h ** 0.5 for h in hs[:3]] + [5e-12]
    rep = make_convergence_report(_curve(hs, values))
    assert rep.excluded_hs == (0.03125,)
    assert rep.hs == tuple(hs[:3])
    assert any("solver floor" in note for note in rep.notes)
    assert rep.passed


def test_report_excludes_an_infinite_error_and_fails():
    """A level whose error is beyond float range is excluded with a note
    naming it, without a warning, and fails the report although the
    other levels fit the predicted order exactly."""
    hs = [0.25, 0.125, 0.0625, 0.03125]
    values = [math.inf] + [0.2 * h ** 0.5 for h in hs[1:]]
    rep = make_convergence_report(_curve(hs, values))
    assert (rep.hs, rep.excluded_hs) == (tuple(hs[1:]), (0.25,))
    assert rep.notes == ("excluded h=0.25: error inf beyond float range",)
    assert rep.slope == pytest.approx(0.5, abs=1e-12)
    assert rep.passed is False


def test_report_needs_two_points_above_floor():
    """With one point left above the solver floor there is no order to fit:
    the report fails, says why, and carries no fit."""
    curve = _curve([0.25, 0.125], [0.1, 1e-13])
    rep = make_convergence_report(curve)
    assert rep.passed is False
    assert (rep.slope, rep.intercept, rep.r_squared) == (None, None, None)
    assert (rep.hs, rep.excluded_hs) == ((0.25,), (0.125,))
    assert rep.notes[-1] == ("fewer than 2 error points above the solver "
                             "floor; no order fitted")


def test_report_flags_moment_order_beyond_guarantee():
    gl = build_ginzburg_landau()
    hs = [0.25, 0.125, 0.0625]
    values = [0.2 * h ** 0.5 for h in hs]
    # p* = 5/4 and kappa = 3: the guaranteed moment half-orders stop at
    # floor(p*)/(2 kappa - 1) = 1/5, so p = 1 sits far beyond the theorem
    rep = make_convergence_report(_curve(hs, values, p=1.0),
                                  constants=gl.constants)
    assert rep.p_max_theorem == pytest.approx(0.2, abs=1e-12)
    assert rep.p_within_theorem is False
    assert any("exceeds the theorem-admissible maximum" in n for n in rep.notes)
    inside = make_convergence_report(_curve(hs, values, p=0.1),
                                     constants=gl.constants)
    assert inside.p_within_theorem is True
    assert inside.notes == ()
