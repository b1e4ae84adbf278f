"""Exponent arithmetic against closed forms and branch-classifier contracts."""
from __future__ import annotations

import math

import pytest

from strauss_lab.exponents import (critical_exponents, gamma, theory_lifespan)


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
    # low branch p <= n/(n-1)
    low = theory_lifespan(3, 1.4, "power_u")
    assert low.kind == "polynomial"
    assert low.branch == "power_u_low"
    assert low.exponent == pytest.approx(2.0 * 0.4 / (4.0 - 2.0 * 1.4), abs=1e-14)
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


def test_theory_lifespan_validation():
    with pytest.raises(ValueError):
        theory_lifespan(3, 1.0, "power_u")
    with pytest.raises(ValueError):
        theory_lifespan(3, 2.0, "cubic")
