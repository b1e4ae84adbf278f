"""Cutoffs, the Y functional, weak residuals, inequality checks, ODE lemma."""
from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from strauss_lab.functionals import (CheckNotApplicable, RatioSeries,
                                     SolutionSamples, _cutoff_power, cutoff,
                                     data_constants, inequality_check,
                                     ode_escape_logT, ode_lemma_fit,
                                     oracle_samples, samples_from_outcome,
                                     theta, weak_residual, y_series, y_weight)
from strauss_lab.model import ModelParams

from helpers import bump_integral, y_weight_ceiling


def _params(**kw):
    base = dict(n=3, mu=0.0, beta=3.0, p=2.0, nonlinearity="power_u", eps=1.0)
    base.update(kw)
    return ModelParams(**base)


# --- cutoff family -----------------------------------------------------------

def test_cutoff_plateaus_and_midpoint():
    eta, d1, d2 = cutoff(np.array([0.0, 0.3, 0.5, 0.75, 1.0, 1.7]))
    np.testing.assert_array_equal(eta[:3], 1.0)
    np.testing.assert_array_equal(eta[4:], 0.0)
    np.testing.assert_array_equal(d1[[0, 1, 2, 4, 5]], 0.0)
    np.testing.assert_array_equal(d2[[0, 1, 2, 4, 5]], 0.0)
    assert eta[3] == pytest.approx(0.5, abs=1e-14)  # symmetric junction


def test_cutoff_derivatives_match_finite_differences():
    t = np.linspace(0.52, 0.98, 231)
    h = 1e-5
    eta, d1, d2 = cutoff(t)
    fd1 = (cutoff(t + h)[0] - cutoff(t - h)[0]) / (2.0 * h)
    fd2 = (cutoff(t + h)[0] - 2.0 * eta + cutoff(t - h)[0]) / h**2
    np.testing.assert_allclose(d1, fd1, rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(d2, fd2, rtol=0.0, atol=2e-3)
    assert np.all(d1 <= 0.0)


def test_cutoff_measured_bounds():
    # sampled sup of |eta'| and |eta''| on the transition interval
    _, d1, d2 = cutoff(np.linspace(0.5, 1.0, 200001))
    assert float(np.max(np.abs(d1))) == pytest.approx(4.0, rel=1e-3)
    assert float(np.max(np.abs(d2))) == pytest.approx(39.4, rel=1e-2)


def test_theta_vanishes_below_half():
    t = np.array([0.0, 0.25, 0.49, 0.6, 0.75])
    th = theta(t)
    np.testing.assert_array_equal(th[:3], 0.0)
    assert np.all(th[3:] > 0.0)


# --- Y weight ------------------------------------------------------------------

def test_y_weight_support_and_plateau():
    p_conj = 2.0
    M = 10.0
    ceiling = y_weight_ceiling(p_conj)
    assert 0.0 < ceiling <= math.log(2.0)
    t = np.array([0.2, 0.5, 1.0, 2.0, 0.5 * M, M, 1.2 * M])
    w = y_weight(t, M, p_conj)
    assert w[0] == 0.0 and w[1] == 0.0
    np.testing.assert_allclose(w[2:5], ceiling, rtol=1e-12)
    assert w[5] == 0.0 and w[6] == 0.0
    with pytest.raises(ValueError):
        y_weight(t, 1.0, p_conj)


def test_y_weight_monotone_shoulders():
    p_conj = 1.8
    M = 6.0
    rising = y_weight(np.linspace(0.5, 1.0, 50), M, p_conj)
    falling = y_weight(np.linspace(0.5 * M, M, 50), M, p_conj)
    assert np.all(np.diff(rising) >= 0.0)
    assert np.all(np.diff(falling) <= 0.0)


# --- Y series -------------------------------------------------------------------

def test_y_series_derivative_identity():
    t = np.linspace(0.0, 20.0, 1601)
    r = np.linspace(0.0, 5.0, 101)
    w = np.exp(-t / 4.0)[:, None] * np.exp(-(r**2))[None, :]
    M_grid = np.linspace(4.0, 12.0, 41)
    series = y_series(w, t, r, 3, 2.0, M_grid)
    assert np.all(np.diff(series.Y_values) >= 0.0)  # widening window
    assert np.all(series.dY_direct > 0.0)
    dY = np.gradient(series.Y_values, M_grid, edge_order=2)
    gap = np.abs(dY[1:-1] - series.dY_direct[1:-1])
    assert float(np.max(gap)) <= 1e-3


def test_y_series_rejects_negative_w():
    t = np.linspace(0.0, 10.0, 11)
    r = np.linspace(0.0, 1.0, 6)
    w = -np.ones((11, 6))
    with pytest.raises(ValueError):
        y_series(w, t, r, 3, 2.0, np.array([4.0, 6.0]))


# --- samples and data constants --------------------------------------------------

def test_samples_from_outcome_requires_snapshots():
    fake = SimpleNamespace(snapshots=[], params=None, grid=None)
    with pytest.raises(ValueError):
        samples_from_outcome(fake)


def test_data_constants_undamped_reduces_to_bump_mass():
    params = _params(g_amp=2.5, f_amp=1.5, data_k=4)
    r = np.linspace(0.0, 2.0, 2001)
    t = np.array([0.0, 1.0])
    samples = SolutionSamples(params=params, t=t, r=r,
                              u=np.zeros((2, r.size)),
                              ut=np.zeros((2, r.size)))
    C1, _ = data_constants(samples)
    # mu = 0 kills the V f term, leaving the weighted g mass
    assert C1 == pytest.approx(bump_integral(3, 4, 2.5), rel=1e-6)


# --- weak residual ---------------------------------------------------------------

def test_weak_residual_zero_data_is_exactly_zero():
    params = _params(f_amp=0.0, g_amp=0.0, nonlinearity="none")
    t = np.linspace(0.0, 4.0, 41)
    r = np.linspace(0.0, 5.0, 51)
    zero = np.zeros((t.size, r.size))
    samples = SolutionSamples(params=params, t=t, r=r, u=zero, ut=zero)
    for kind in ("eta2p", "eta2p_Phi", "dtpsi"):
        assert weak_residual(samples, kind, T=3.0) == 0.0


def test_weak_residual_validation():
    params = _params(nonlinearity="none")
    t = np.linspace(0.0, 4.0, 41)
    r = np.linspace(0.0, 5.0, 51)
    zero = np.zeros((t.size, r.size))
    samples = SolutionSamples(params=params, t=t, r=r, u=zero, ut=zero)
    with pytest.raises(ValueError):
        weak_residual(samples, "bogus", T=3.0)
    with pytest.raises(ValueError):
        weak_residual(samples, "eta2p", T=9.0)  # beyond the trajectory
    shifted = SolutionSamples(params=params, t=t + 1.0, r=r, u=zero, ut=zero)
    with pytest.raises(ValueError):
        weak_residual(shifted, "eta2p", T=3.0)


def test_weak_residual_second_order_on_oracle():
    params = _params(nonlinearity="none")
    res = {}
    for m in (1, 2):
        t = np.linspace(0.0, 8.0, 81 * m - (m - 1))
        r = np.linspace(0.0, 10.0, 101 * m - (m - 1))
        samples = oracle_samples(params, t, r)
        res[m] = weak_residual(samples, "eta2p_Phi", T=6.0)
    assert res[1] < 0.05
    assert res[1] / res[2] > 3.0


@pytest.mark.parametrize("fixture, bound", [
    ("strauss_crit_samples", 3e-4),  # power_u, |u|^p: measured 3.3e-5
    ("glassey_crit_samples", 1e-2),  # power_ut, |u_t|^p: measured 2.2e-3
])
def test_weak_residual_source_term(fixture, bound, request):
    # the run's own N closes the weak identity; read as a linear run, the
    # same samples leave the whole source term as the defect
    samples = request.getfixturevalue(fixture)
    linear = replace(samples, params=replace(samples.params, nonlinearity="none"))
    ratio = (weak_residual(samples, "eta2p_Phi", T=8.0)
             / weak_residual(linear, "eta2p_Phi", T=8.0))
    assert ratio < bound


# --- inequality checks ------------------------------------------------------------

def test_inequality_check_validation(strauss_crit_samples):
    with pytest.raises(ValueError):
        inequality_check(strauss_crit_samples, "ineq_9_9")
    with pytest.raises(ValueError):  # one point: a vacuous spread of 1
        inequality_check(strauss_crit_samples, "ineq_3_16", count=1)


def test_inequality_check_short_trajectory():
    params = _params(nonlinearity="power_u")
    t = np.linspace(0.0, 2.0, 21)
    r = np.linspace(0.0, 3.0, 31)
    zero = np.zeros((t.size, r.size))
    samples = SolutionSamples(params=params, t=t, r=r, u=zero, ut=zero)
    with pytest.raises(ValueError):
        inequality_check(samples, "ineq_3_4")


def test_inequality_check_not_applicable(strauss_crit_samples,
                                         glassey_crit_samples):
    with pytest.raises(CheckNotApplicable):
        inequality_check(strauss_crit_samples, "ineq_5_11")
    for which in ("ineq_3_4", "ineq_4_9"):
        with pytest.raises(CheckNotApplicable):
            inequality_check(glassey_crit_samples, which)
    # low power_u exponent falls outside the 3_4 hypothesis
    params = _params(nonlinearity="power_u", p=1.4)
    t = np.linspace(0.0, 10.0, 101)
    r = np.linspace(0.0, 5.0, 51)
    zero = np.zeros((t.size, r.size))
    samples = SolutionSamples(params=params, t=t, r=r, u=zero, ut=zero)
    with pytest.raises(CheckNotApplicable):
        inequality_check(samples, "ineq_3_4")


def test_power_u_chain_on_critical_run(strauss_crit_samples):
    for which in ("ineq_3_4", "ineq_3_16", "ineq_4_9", "ineq_4_15"):
        series = inequality_check(strauss_crit_samples, which)
        assert series.mode == "spread"
        assert np.all(series.ratio > 0.0), which
        assert series.spread <= 20.0, which
        assert series.passed()


def test_power_ut_chain_on_critical_run(glassey_crit_samples):
    sign = inequality_check(glassey_crit_samples, "ineq_5_1")
    assert sign.mode == "sign"
    assert np.all(sign.lhs >= 0.0)
    assert sign.passed()
    series = inequality_check(glassey_crit_samples, "ineq_5_11")
    assert series.spread <= 20.0
    assert series.passed()


@pytest.mark.parametrize("name", ["strauss_crit_samples", "glassey_crit_samples"])
def test_ineq_5_1_margins_match_the_product_form(name, request):
    # the margin min((eta - eta') Phi - eta Phi) over the (t, r) rectangle,
    # taken along t alone: the same bytes, and no eigenfunction shoot
    samples = request.getfixturevalue(name)
    fresh = replace(samples)  # no cached phi
    sign = inequality_check(fresh, "ineq_5_1")
    assert "phi" not in vars(fresh)
    Phi = np.exp(-samples.t)[:, None] * samples.phi[None, :]
    want = []
    for M in sign.grid:
        e, d, _ = _cutoff_power(samples.t, M, samples.p_conj)
        want.append(float(np.min((e - d)[:, None] * Phi - e[:, None] * Phi)))
    assert sign.lhs.tobytes() == np.array(want).tobytes()


def test_ratio_series_properties():
    series = RatioSeries(grid=np.array([2.0, 4.0]),
                         lhs=np.array([2.0, 12.0]), rhs=np.array([1.0, 2.0]))
    np.testing.assert_allclose(series.ratio, [2.0, 6.0])
    assert series.spread == pytest.approx(3.0)
    assert series.passed(spread_tol=3.0)
    assert not series.passed(spread_tol=2.9)
    sign = RatioSeries(grid=np.array([2.0]),
                       lhs=np.array([-1e-15]), rhs=np.array([1.0]),
                       mode="sign")
    assert not sign.passed()


# --- extremal ODE lemma -------------------------------------------------------------

def test_ode_escape_monotone_in_delta():
    a = ode_escape_logT(2.0, 2.0, 1.0, 1.0, 1e-3)
    b = ode_escape_logT(2.0, 2.0, 1.0, 1.0, 1e-4)
    assert b > a > 1.0


def test_ode_escape_validation():
    with pytest.raises(ValueError):
        ode_escape_logT(2.0, 3.5, 1.0, 1.0, 1e-3)  # p2 >= p1 + 1
    with pytest.raises(ValueError):
        ode_escape_logT(2.0, 2.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="delta too large"):
        ode_escape_logT(2.0, 2.0, 1.0, 1.0, 1e19)
    with pytest.raises(ValueError, match="overflows float range"):
        ode_escape_logT(2.0, 2.99, 1.0, 1.0, 1e-4)
    with pytest.raises(ValueError, match="2 distinct delta values"):
        ode_lemma_fit(2.0, 2.0, delta_grid=[1e-2, 1e-2])


ODE_ORACLE_CASES = [(2.0, 2.0, 1.0, 1.0), (2.5, 2.5, 1.0, 1.0),
                    (2.5, 2.0, 1.0, 1.0), (2.0, 1.0, 1.0, 1.0),
                    (2.0, 2.9, 1.0, 1.0), (3.333, 3.726, 1.795, 1.972)]


def _ode_escape_oracle(p1, p2, K1, K2, delta):
    """Escape time of the original min-form ODE, integrated by scipy.

    In x = log phi: dtau/dx = min(K1 phi/delta, K2 tau^{p2-1} phi^{1-p1}),
    from the slope crossing (brentq on the slope ratio along the line
    phi = delta (tau-1)/K1) out to phi^{p1-1} = e^60 phi_c^{p1-1}, plus the
    frozen-tau tail beyond it.
    """
    def gap(tau):
        return (p1 * math.log(delta * (tau - 1.0) / K1)
                - (p2 - 1.0) * math.log(tau) - math.log(delta * K2 / K1))

    hi = 2.0
    while gap(hi) < 0.0:
        hi *= 2.0
    tau_c = brentq(gap, 1.0 + 1e-12, hi, xtol=1e-300, rtol=8.9e-16)
    x_c = math.log(delta * (tau_c - 1.0) / K1)
    x_end = x_c + 60.0 / (p1 - 1.0)

    def rhs(x, y):
        phi = math.exp(x)
        return [min(K1 * phi / delta,
                    K2 * y[0] ** (p2 - 1.0) * phi ** (1.0 - p1))]

    sol = solve_ivp(rhs, (x_c, x_end), [tau_c], method="DOP853",
                    rtol=1e-13, atol=1e-300)
    assert sol.success
    tau = float(sol.y[0, -1])
    return tau + K2 * tau ** (p2 - 1.0) * math.exp((1.0 - p1) * x_end) / (p1 - 1.0)


@pytest.mark.parametrize("delta", [1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("p1,p2,K1,K2", ODE_ORACLE_CASES)
def test_ode_escape_matches_scipy_oracle(p1, p2, K1, K2, delta):
    got = ode_escape_logT(p1, p2, K1, K2, delta)
    want = _ode_escape_oracle(p1, p2, K1, K2, delta)
    assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("delta", [1e-4, 1e-2])
def test_ode_escape_continuous_across_p2_2(delta):
    at_2 = ode_escape_logT(2.5, 2.0, 1.0, 1.0, delta)
    for p2 in (2.0 - 1e-9, 2.0 + 1e-9):
        assert abs(ode_escape_logT(2.5, p2, 1.0, 1.0, delta) - at_2) <= 1e-7 * at_2


def test_ode_lemma_fit_matches_theory():
    fit = ode_lemma_fit(2.0, 2.0)
    assert fit.theory_exponent == pytest.approx(1.0)
    assert abs(fit.fitted_exponent - 1.0) <= 0.1
    assert fit.logT_grid.shape == fit.delta_grid.shape
