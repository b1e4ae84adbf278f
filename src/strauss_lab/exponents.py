"""Critical exponents and theoretical lifespan upper bounds.

For the semilinear wave equation with scattering space-dependent damping and
nonlinearity |u|^p or |u_t|^p, the blow-up/lifespan landscape is organised by
three critical exponents of the spatial dimension n:

* Strauss exponent pS(n): positive root of gamma(p, n) = 2 + (n+1)p - (n-1)p^2,
* Fujita exponent pF(n) = 1 + 2/n,
* Glassey exponent pG(n) = (n+1)/(n-1).

``theory_lifespan`` returns the shape of the proved upper bound on the maximal
existence time for small data of size eps: T <= C*eps^(-a) (polynomial),
T <= exp(C*eps^(-a)) (exponential, critical case), or none (supercritical,
linear, or damping mu > 0 outside the scattering range beta > 2 the bounds
assume).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

PS_EQUALITY_TOL = 1e-9  # |p - pS| below this counts as the critical case


@dataclass(frozen=True)
class ExponentTable:
    """Critical exponents for one spatial dimension."""

    p_strauss: float
    p_fujita: float
    p_glassey: float


@dataclass(frozen=True)
class TheoryBound:
    """Shape of the proved lifespan upper bound at (n, p, nonlinearity).

    kind is one of "polynomial" (T <= C eps^-exponent), "exponential"
    (T <= exp(C eps^-exponent)), "infinite" (no upper bound asserted,
    exponent is NaN) or "needs_beta_gt_2" (damping mu > 0 with beta <= 2,
    outside the hypothesis of the theorems: no bound proved, exponent NaN).
    branch names which regime produced the bound.
    """

    kind: str
    exponent: float
    branch: str


def critical_exponents(n: int) -> ExponentTable:
    """Strauss, Fujita and Glassey exponents for dimension n >= 2."""
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n!r}")
    n = int(n)
    ps = (n + 1 + math.sqrt(n * n + 10.0 * n - 7.0)) / (2.0 * (n - 1))
    return ExponentTable(
        p_strauss=ps,
        p_fujita=1.0 + 2.0 / n,
        p_glassey=(n + 1.0) / (n - 1.0),
    )


def gamma(p: float, n: int) -> float:
    """Strauss quadratic gamma(p, n) = 2 + (n+1)p - (n-1)p^2.

    Positive iff p is below the Strauss exponent pS(n).
    """
    return 2.0 + (n + 1.0) * p - (n - 1.0) * p * p


def theory_lifespan(n: int, p: float, nonlinearity: str,
                    mu: float = 0.0, beta: float = 3.0) -> TheoryBound:
    """Classify (n, p) and return the proved lifespan upper-bound shape for
    the damping mu*(1+r)^-beta.

    nonlinearity "power_u" uses the Strauss landscape (three subcritical/
    critical regimes), "power_ut" the Glassey one; "none" (linear) has no
    finite lifespan.  The bounds are proved for mu = 0 or scattering damping,
    beta > 2: a nonlinear problem with mu > 0 and beta <= 2 has the kind
    "needs_beta_gt_2".  p <= 1 is rejected.  Ties with the critical exponent
    within PS_EQUALITY_TOL are treated as critical.

    Below pS the power_u exponent is 2p(p-1)/gamma(p, n), except on
    1 < p < 2/(n-1), where (p-1)/(n+1-(n-1)p) is the smaller bound: the
    two-dimensional lifespan eps^-(p-1)/(3-p) for 1 < p < 2.  Both forms
    meet at p = 2/(n-1), a point above 1 for n = 2 only, so the exponent is
    continuous in p.
    """
    if p <= 1.0:
        raise ValueError(f"need p > 1, got p={p}")
    exps = critical_exponents(n)
    if nonlinearity == "none":
        return TheoryBound("infinite", math.nan, "linear")
    if nonlinearity not in ("power_u", "power_ut"):
        raise ValueError(f"unknown nonlinearity {nonlinearity!r} "
                         f"(use power_u, power_ut or none)")
    if mu > 0.0 and beta <= 2.0:
        return TheoryBound("needs_beta_gt_2", math.nan, f"{nonlinearity}_beta_le_2")

    if nonlinearity == "power_u":
        ps = exps.p_strauss
        if abs(p - ps) <= PS_EQUALITY_TOL:
            return TheoryBound("exponential", p * (p - 1.0), "power_u_critical")
        if p > ps:
            return TheoryBound("infinite", math.nan, "power_u_supercritical")
        if p < 2.0 / (n - 1.0):  # n = 2 only: the smaller bound below p = 2
            expo = (p - 1.0) / (n + 1.0 - (n - 1.0) * p)
            return TheoryBound("polynomial", expo, "power_u_low")
        expo = 2.0 * p * (p - 1.0) / gamma(p, n)
        return TheoryBound("polynomial", expo, "power_u_subcritical")

    pg = exps.p_glassey
    if abs(p - pg) <= PS_EQUALITY_TOL:
        return TheoryBound("exponential", p - 1.0, "power_ut_critical")
    if p > pg:
        return TheoryBound("infinite", math.nan, "power_ut_supercritical")
    expo = 1.0 / (1.0 / (p - 1.0) - (n - 1.0) / 2.0)
    return TheoryBound("polynomial", expo, "power_ut_subcritical")
