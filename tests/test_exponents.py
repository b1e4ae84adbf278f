"""Exponent arithmetic against closed forms and branch-classifier contracts."""
from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strauss_lab.exponents import (PS_EQUALITY_TOL, critical_exponents, gamma,
                                   theory_lifespan)


def test_strauss_exponent_closed_forms():
    assert critical_exponents(3).p_strauss == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert critical_exponents(2).p_strauss == pytest.approx((3.0 + math.sqrt(17.0)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_exponent_formulas(n):
    exps = critical_exponents(n)
    assert exps.p_fujita == pytest.approx(1.0 + 2.0 / n, abs=1e-14)
    assert exps.p_glassey == pytest.approx((n + 1.0) / (n - 1.0), abs=1e-14)
    # pS is the positive root of the Strauss quadratic
    assert gamma(exps.p_strauss, n) == pytest.approx(0.0, abs=1e-9)
    # ordering pF < pG <= pS in low dimensions (equality never here)
    assert exps.p_fujita < exps.p_strauss


def test_gamma_sign_brackets_strauss():
    exps = critical_exponents(3)
    assert gamma(exps.p_strauss - 0.05, 3) > 0.0
    assert gamma(exps.p_strauss + 0.05, 3) < 0.0


def test_dimension_validation():
    with pytest.raises(ValueError):
        critical_exponents(1)
    with pytest.raises(ValueError):
        critical_exponents(2.5)


def test_theory_lifespan_power_u_branches():
    exps = critical_exponents(3)
    # n = 3 has no low branch: p = 1.4 is subcritical
    near = theory_lifespan(3, 1.4, "power_u")
    assert (near.kind, near.branch) == ("polynomial", "power_u_subcritical")
    assert near.exponent == pytest.approx(2.0 * 1.4 * 0.4 / gamma(1.4, 3), abs=1e-14)
    # the low branch p < 2/(n-1) exists for n = 2: (p-1)/(3-p)
    low = theory_lifespan(2, 1.5, "power_u")
    assert (low.kind, low.branch) == ("polynomial", "power_u_low")
    assert low.exponent == pytest.approx(1.0 / 3.0, abs=1e-14)
    # subcritical branch: the n=3, p=2 exponent is exactly 2
    sub = theory_lifespan(3, 2.0, "power_u")
    assert sub.branch == "power_u_subcritical"
    assert sub.exponent == pytest.approx(2.0 * 2.0 * 1.0 / gamma(2.0, 3), abs=1e-14)
    assert sub.exponent == pytest.approx(2.0, abs=1e-14)
    # critical: exponential with exponent p(p-1)
    crit = theory_lifespan(3, exps.p_strauss, "power_u")
    assert crit.kind == "exponential"
    assert crit.exponent == pytest.approx(exps.p_strauss * (exps.p_strauss - 1.0), abs=1e-12)
    # supercritical: no asserted bound
    sup = theory_lifespan(3, 3.0, "power_u")
    assert sup.kind == "infinite"
    assert math.isnan(sup.exponent)


def test_theory_lifespan_power_u_continuous_at_the_n2_knee():
    # the low and subcritical forms meet at p = 2/(n-1) = 2, both at 1
    below = theory_lifespan(2, math.nextafter(2.0, 1.0), "power_u")
    at, above = theory_lifespan(2, 2.0, "power_u"), theory_lifespan(2, 2.0 + 1e-12, "power_u")
    assert below.branch == "power_u_low"
    assert at.branch == above.branch == "power_u_subcritical"
    for bound in (below, at, above):
        assert bound.exponent == pytest.approx(1.0, abs=1e-11)


def test_theory_lifespan_power_ut_branches():
    sub = theory_lifespan(3, 1.5, "power_ut")
    assert sub.kind == "polynomial"
    assert sub.exponent == pytest.approx(1.0, abs=1e-14)
    crit = theory_lifespan(3, 2.0, "power_ut")
    assert crit.kind == "exponential"
    assert crit.exponent == pytest.approx(1.0, abs=1e-14)
    sup = theory_lifespan(3, 2.5, "power_ut")
    assert sup.kind == "infinite"


def test_theory_lifespan_linear():
    linear = theory_lifespan(3, 2.0, "none")
    assert (linear.kind, linear.branch) == ("infinite", "linear")
    assert math.isnan(linear.exponent)


def test_theory_lifespan_needs_beta_above_2_with_damping():
    # the bounds are proved for scattering damping, beta > 2, or for mu = 0
    for nonlinearity, p in (("power_u", 2.0), ("power_ut", 1.5)):
        for beta in (1.5, 2.0):
            out = theory_lifespan(3, p, nonlinearity, mu=1.0, beta=beta)
            assert (out.kind, out.branch) == ("needs_beta_gt_2", f"{nonlinearity}_beta_le_2")
            assert math.isnan(out.exponent)
        assert theory_lifespan(3, p, nonlinearity, mu=0.0, beta=1.5) == \
            theory_lifespan(3, p, nonlinearity, mu=1.0, beta=3.0) == \
            theory_lifespan(3, p, nonlinearity)
    assert theory_lifespan(3, 2.0, "none", mu=1.0, beta=1.5).kind == "infinite"


def test_theory_lifespan_validation():
    with pytest.raises(ValueError):
        theory_lifespan(3, 1.0, "power_u")
    with pytest.raises(ValueError):
        theory_lifespan(3, 2.0, "cubic")


def _branches(n):
    """(nonlinearity, branch, p_lo, p_hi, p_crit) for each polynomial branch
    of dimension n, the two subcritical ones first: the branch holds p in
    (p_lo, p_hi]; a subcritical branch ends just over PS_EQUALITY_TOL below
    its critical exponent p_crit, and the low one, n = 2 only, just below
    the knee p = 2/(n-1)."""
    exps = critical_exponents(n)
    knee = 2.0 / (n - 1.0) if n == 2 else 1.0
    below = 1.0 - 2.0 * PS_EQUALITY_TOL
    branches = [
        ("power_u", "power_u_subcritical", knee, exps.p_strauss * below, exps.p_strauss),
        ("power_ut", "power_ut_subcritical", 1.0, exps.p_glassey * below, exps.p_glassey)]
    if n == 2:
        branches.append(("power_u", "power_u_low", 1.0, math.nextafter(knee, 1.0), None))
    return branches


_dims = st.integers(2, 5)


@settings(deadline=None)
@given(n=_dims, b=st.integers(0, 2), t=st.floats(1e-6, 1.0 - 1e-6),
       step=st.floats(1e-6, 1.0))
def test_theory_lifespan_polynomial_exponent_rises_in_each_branch(n, b, t, step):
    # within a branch the exponent is finite, positive and strictly rising in p
    assume(b < len(_branches(n)))
    nonlinearity, branch, lo, hi, _ = _branches(n)[b]
    bounds = []
    for u in (t, min(t + step, 1.0)):
        bound = theory_lifespan(n, lo + u * (hi - lo), nonlinearity)
        assert (bound.kind, bound.branch) == ("polynomial", branch)
        assert math.isfinite(bound.exponent) and bound.exponent > 0.0
        bounds.append(bound.exponent)
    assert bounds[0] < bounds[1]


@settings(deadline=None)
@given(n=_dims, b=st.integers(0, 1), log_gap=st.floats(-8.5, -3.0))
def test_theory_lifespan_exponent_unbounded_below_the_critical_exponent(n, b, log_gap):
    # p_crit - gap, gap down to 3e-9: the exponent grows like 1/gap
    nonlinearity, branch, _, _, p_crit = _branches(n)[b]
    gap = 10.0 ** log_gap
    bound = theory_lifespan(n, p_crit - gap, nonlinearity)
    assert bound.branch == branch
    assert bound.exponent * gap > 0.1


@settings(deadline=None)
@given(n=_dims, nonlinearity=st.sampled_from(["power_u", "power_ut"]),
       offset=st.floats(-0.999, 0.999), above=st.floats(1.001, 1e9))
def test_theory_lifespan_critical_and_supercritical(n, nonlinearity, offset, above):
    # |p - p_crit| <= PS_EQUALITY_TOL is the critical case; above it, no bound
    exps = critical_exponents(n)
    p_crit = exps.p_strauss if nonlinearity == "power_u" else exps.p_glassey
    crit = theory_lifespan(n, p_crit + offset * PS_EQUALITY_TOL, nonlinearity)
    assert (crit.kind, crit.branch) == ("exponential", f"{nonlinearity}_critical")
    assert math.isfinite(crit.exponent) and crit.exponent > 0.0
    sup = theory_lifespan(n, p_crit + min(above * PS_EQUALITY_TOL, 2.0), nonlinearity)
    assert (sup.kind, sup.branch) == ("infinite", f"{nonlinearity}_supercritical")
    assert math.isnan(sup.exponent)
