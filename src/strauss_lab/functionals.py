"""Cutoffs, the Y[w](M) functional, and solution-level checks.

Everything here consumes immutable solution samples: the smooth-step cutoff
and its falling half, the layered functional Y[w](M) with its differentiation
identity, weak-form residuals of the space-time identity defining energy
solutions, the inequality chain evaluated along blow-up runs, and the
extremal-ODE scaling experiment behind the critical-case lifespan bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .eigen import psi_hat_batch
from .model import ModelParams, initial_data, potential, sphere_area
from .testfunc import build_bq

GRID_CAP_FRAC = 0.8  # check grids end at this fraction of t_last
CHECK_NAMES = ("ineq_3_4", "ineq_3_16", "ineq_4_9", "ineq_4_15",
               "ineq_5_1", "ineq_5_11")


class CheckNotApplicable(ValueError):
    """The run's nonlinearity or exponent range does not admit this check."""


# --- cutoffs -----------------------------------------------------------------

def cutoff(t):
    """(eta, eta', eta'') of the mollifier smooth step, elementwise.

    eta == 1 below 1/2, == 0 above 1, and on (1/2, 1) equals A/(A+B) with
    A = exp(-1/(2(1-t))), B = exp(-1/(2t-1)).  Both derivatives come from the
    closed forms, so eta' carries an exact <= 0 sign everywhere.
    """
    t = np.asarray(t, dtype=float)
    eta = np.ones_like(t)
    d1 = np.zeros_like(t)
    d2 = np.zeros_like(t)
    eta[t >= 1.0] = 0.0
    mid = (t > 0.5) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]
        a = 2.0 * (1.0 - tm)
        b = 2.0 * tm - 1.0
        A = np.exp(-1.0 / a)
        B = np.exp(-1.0 / b)
        D = A + B
        S = a**-2.0 + b**-2.0
        N = -2.0 * A * B * S
        eta[mid] = A / D
        d1[mid] = N / D**2
        Np = -4.0 * A * B * ((b**-2.0 - a**-2.0) * S + 2.0 * (a**-3.0 - b**-3.0))
        Dp = -2.0 * A / a**2 + 2.0 * B / b**2
        d2[mid] = (Np * D - 2.0 * N * Dp) / D**3
    return eta, d1, d2


def _cutoff_power(t, T: float, p_conj: float):
    """eta(t/T)^(2p') and its first two t-derivatives."""
    pp = 2.0 * p_conj
    e, e1, e2 = cutoff(t / T)
    return (e ** pp, pp * e ** (pp - 1.0) * e1 / T,
            (pp * (pp - 1.0) * e ** (pp - 2.0) * e1**2
             + pp * e ** (pp - 1.0) * e2) / T**2)


def theta(t):
    """The cutoff's falling half: eta(t) for t >= 1/2, zero below."""
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.5, cutoff(t)[0], 0.0)


# --- the Y functional --------------------------------------------------------

@lru_cache(maxsize=None)
def _y_table(p_conj: float):
    """(s, trapezoid integral of theta^{2p'}(s)/s from 1/2 to s) on 4097
    nodes of [1/2, 1].  Cached per p_conj; the arrays are read-only."""
    s = np.linspace(0.5, 1.0, 4097)
    y = theta(s) ** (2.0 * p_conj) / s
    cum = np.concatenate(([0.0], np.cumsum(np.diff(s) * (y[1:] + y[:-1]) / 2.0)))
    return _read_only(s), _read_only(cum)


def y_weight(t, M: float, p_conj: float):
    """Collapsed sigma-integral of the Y functional.

    Equals int of theta^{2p'}(s)/s over s in [max(t/M, 1/2), min(t, 1)]
    (0 when empty), evaluated from a cached cumulative table; p_conj is the
    Hoelder conjugate p' = p/(p-1).
    """
    if M <= 1.0:
        raise ValueError("M must exceed 1")
    s, cum = _y_table(p_conj)
    t = np.asarray(t, dtype=float)
    hi = np.interp(np.clip(t, 0.5, 1.0), s, cum)
    lo = np.interp(np.clip(t / M, 0.5, 1.0), s, cum)
    return np.maximum(hi - lo, 0.0)


def _y_weighted(w_t: np.ndarray, t: np.ndarray, M: float,
                p_conj: float) -> float:
    """int w_t(t) y_weight(t, M) dt with nodes planted on the moving kinks.

    y_weight is continuous but kinked at t = M/2 and t = M; letting those
    kinks drift between grid nodes would give Y(M) a sawtooth-shaped
    quadrature error whose M-derivative is only first-order small.
    """
    cuts = [c for c in (0.5, 1.0, 0.5 * M, M) if t[0] < c < t[-1]]
    t_aug = np.sort(np.concatenate([t, cuts])) if cuts else t
    w_aug = np.interp(t_aug, t, w_t)
    return float(np.trapezoid(w_aug * y_weight(t_aug, M, p_conj), t_aug))


def _theta_weighted(w_t: np.ndarray, t: np.ndarray, M: float,
                    p_conj: float) -> float:
    """int w_t(t) theta^{2p'}(t/M) dt, split at the theta jump t = M/2.

    theta leaps 0 -> 1 there, so a trapezoid straddling the jump carries an
    O(dt) error that would not shrink with the M resolution; integrating
    only above the jump (with an interpolated node exactly at M/2) restores
    second-order accuracy.
    """
    cut = 0.5 * M
    if cut >= t[-1]:
        return 0.0
    idx = int(np.searchsorted(t, cut, side="right"))
    weight = theta(t[idx:] / M) ** (2.0 * p_conj)
    t_sub = np.concatenate(([cut], t[idx:]))
    y_sub = np.concatenate(([np.interp(cut, t, w_t)], w_t[idx:] * weight))
    return float(np.trapezoid(y_sub, t_sub))


@dataclass(frozen=True)
class FunctionalSeries:
    """Y[w](M) over an M-grid, with its M-derivative by the exact identity."""

    Y_values: np.ndarray
    dY_direct: np.ndarray  # M^-1 * int int w theta_M^{2p'} (exact identity)


def y_series(w, t_grid, r_grid, n: int, p_conj: float, M_grid) -> FunctionalSeries:
    """Y[w](M) by trapezoid for nonnegative w sampled on (t_grid, r_grid).

    The radial reduction happens once; each M then costs a single weighted
    1-D quadrature.  dY_direct realizes M dY/dM = int int w theta_M^{2p'},
    the differentiation identity the critical-case argument leans on.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    r = np.asarray(r_grid, dtype=float)
    M_grid = np.asarray(M_grid, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("w must be nonnegative")
    rw = sphere_area(n) * r ** (n - 1)
    w_t = np.trapezoid(w * rw, r, axis=1)
    Y = np.array([_y_weighted(w_t, t, M, p_conj) for M in M_grid])
    dYd = np.array([_theta_weighted(w_t, t, M, p_conj) / M for M in M_grid])
    return FunctionalSeries(Y_values=Y, dY_direct=dYd)


# --- solution samples --------------------------------------------------------

@dataclass(frozen=True)
class SolutionSamples:
    """u and u_t on a (t, r) rectangle, as the functionals consume them."""

    params: ModelParams
    t: np.ndarray
    r: np.ndarray
    u: np.ndarray  # (nt, nr)
    ut: np.ndarray

    @property
    def p_conj(self) -> float:
        return self.params.p / (self.params.p - 1.0)

    # inputs that several checks share, computed on first use; read-only,
    # since every check gets the same arrays.  |u|^p itself is not kept: it
    # would add a whole (t, r) array to the b_q build's memory peak

    @cached_property
    def phi(self) -> np.ndarray:
        """phi_profile on the sample radii."""
        return _read_only(phi_profile(self.params, self.r))

    @cached_property
    def u_pow_mass(self) -> np.ndarray:
        """int |u|^p dx at each sample time (checks 3.4, 3.16)."""
        rw = sphere_area(self.params.n) * self.r ** (self.params.n - 1)
        return _read_only(np.trapezoid(np.abs(self.u) ** self.params.p * rw,
                                       self.r, axis=1))

    @cached_property
    def bq_u_pow(self) -> np.ndarray:
        """b_q |u|^p with q = (n-1)/2 - 1/p (checks 4.9, 4.15)."""
        n, p = self.params.n, self.params.p
        table = build_bq((n - 1.0) / 2.0 - 1.0 / p, self.params, self.t, self.r)
        return _read_only(table.values * np.abs(self.u) ** p)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def samples_from_outcome(outcome) -> SolutionSamples:
    """Stack a solver outcome's snapshots into a SolutionSamples."""
    snaps = outcome.snapshots
    if not snaps:
        raise ValueError("outcome holds no snapshots")
    t = np.array([s[0] for s in snaps])
    u = np.stack([s[1] for s in snaps])
    ut = np.stack([s[2] for s in snaps])
    return SolutionSamples(params=outcome.params, t=t, r=outcome.grid.r,
                           u=u, ut=ut)


def oracle_samples(params: ModelParams, t_grid, r_grid) -> SolutionSamples:
    """Exact undamped linear solution sampled on an arbitrary rectangle."""
    from .solver import exact_undamped_radial3d
    t_grid = np.asarray(t_grid, dtype=float)
    r_grid = np.asarray(r_grid, dtype=float)
    u = np.empty((t_grid.size, r_grid.size))
    ut = np.empty_like(u)
    for i, ti in enumerate(t_grid):
        u[i], ut[i] = exact_undamped_radial3d(params, r_grid, ti)
    return SolutionSamples(params=params, t=t_grid, r=r_grid, u=u, ut=ut)


def phi_profile(params: ModelParams, r) -> np.ndarray:
    """Normalized eta = 1 eigenfunction phi on the sample radii."""
    ph, _ = psi_hat_batch(np.array([1.0]), params.mu, params.beta,
                          params.n, np.asarray(r, dtype=float))
    return ph[0]


def data_constants(samples: SolutionSamples) -> tuple[float, float]:
    """(C1, C2) per unit epsilon: C1 = int g + int V f,
    C2 = int g phi + int (1 + V) f phi."""
    params = samples.params
    if params.eps <= 0.0:
        raise ValueError("data constants need eps > 0")
    r = samples.r
    u0, v0 = initial_data(params, r)
    f, g = u0 / params.eps, v0 / params.eps
    phi = samples.phi
    V = potential(r, params.mu, params.beta)
    rw = sphere_area(params.n) * r ** (params.n - 1)
    C1 = float(np.trapezoid((g + V * f) * rw, r))
    C2 = float(np.trapezoid((g * phi + (1.0 + V) * f * phi) * rw, r))
    return C1, C2


# --- weak-form residual ------------------------------------------------------

TEST_KINDS = ("eta2p", "eta2p_Phi", "dtpsi")


def weak_residual(samples: SolutionSamples, test_kind: str, T: float) -> float:
    """Relative defect of the space-time weak identity against one test kind.

    The identity (for any smooth Psi vanishing at and after T):

      int v0 Psi(0) + int V u0 Psi(0) + int int N Psi
        = -int int u_t Psi_t + int int u_r Psi_r - int int V u Psi_t

    with N the nonlinearity of the run (zero in linear mode).  Kinds:

      eta2p:     Psi = eta(t/T)^{2p'}
      eta2p_Phi: Psi = eta(t/T)^{2p'} e^{-t} phi(r)
      dtpsi:     Psi = d_t[ -eta(t/T)^{2p'} e^{-t} phi(r) ]

    u_r and Psi_r are both taken by second-order differences along r.
    Returns |LHS - RHS| / max term magnitude; second-order small under grid
    refinement when the samples hold a true solution.
    """
    if test_kind not in TEST_KINDS:
        raise ValueError(f"unknown test kind {test_kind!r}")
    t, r = samples.t, samples.r
    if t[0] != 0.0:
        raise ValueError("samples must start at t = 0")
    if T > t[-1] + 1e-12:
        raise ValueError("T exceeds the stored trajectory")
    params = samples.params
    eta_pow, d_eta_pow, dd_eta_pow = _cutoff_power(t, T, samples.p_conj)
    if test_kind == "eta2p":
        Psi = np.broadcast_to(eta_pow[:, None], samples.u.shape)
        Psi_t = np.broadcast_to(d_eta_pow[:, None], samples.u.shape)
    else:
        phi = samples.phi
        emt = np.exp(-t)
        if test_kind == "eta2p_Phi":
            c = eta_pow * emt
            ct = (d_eta_pow - eta_pow) * emt
        else:  # dtpsi: Psi = (eta_pow - d_eta_pow) Phi
            c = (eta_pow - d_eta_pow) * emt
            ct = (2.0 * d_eta_pow - dd_eta_pow - eta_pow) * emt
        Psi = c[:, None] * phi[None, :]
        Psi_t = ct[:, None] * phi[None, :]
    Psi_r = np.gradient(Psi, r, axis=1, edge_order=2)

    V = potential(r, params.mu, params.beta)
    rw = sphere_area(params.n) * r ** (params.n - 1)

    def spacetime(F):
        return float(np.trapezoid(np.trapezoid(F * rw, r, axis=1), t))

    def space(F):
        return float(np.trapezoid(F * rw, r))

    u0, v0 = initial_data(params, r)
    if params.nonlinearity == "power_u":
        N = np.abs(samples.u) ** params.p
    elif params.nonlinearity == "power_ut":
        N = np.abs(samples.ut) ** params.p
    else:
        N = None
    u_r = np.gradient(samples.u, r, axis=1, edge_order=2)
    terms = {
        "data_g": space(v0 * Psi[0]),
        "data_f": space(V * u0 * Psi[0]),
        "source": spacetime(N * Psi) if N is not None else 0.0,
        "ut_psit": -spacetime(samples.ut * Psi_t),
        "grad": spacetime(u_r * Psi_r),
        "damp": -spacetime(V * samples.u * Psi_t),
    }
    lhs = terms["data_g"] + terms["data_f"] + terms["source"]
    rhs = terms["ut_psit"] + terms["grad"] + terms["damp"]
    scale = max(abs(v) for v in terms.values())
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


# --- inequality chain --------------------------------------------------------

@dataclass(frozen=True)
class RatioSeries:
    """Both sides of one inequality over a grid of T (or M) values.

    mode "spread": the check is a positive lower bound for lhs/rhs, asserted
    as max/min ratio spread below a configured factor (the chain's constants
    are unnamed, so only uniformity is testable).  mode "sign": lhs must be
    pointwise nonnegative, exactly.
    """

    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    mode: str = "spread"

    @property
    def ratio(self) -> np.ndarray:
        return self.lhs / self.rhs

    @property
    def spread(self) -> float:
        ratio = self.ratio
        return float(np.max(ratio) / np.min(ratio))

    def passed(self, spread_tol: float = 20.0) -> bool:
        if self.mode == "sign":
            return bool(np.all(self.lhs >= 0.0))
        return bool(np.all(self.ratio > 0.0) and self.spread <= spread_tol)


def _eta_weighted(samples: SolutionSamples, w_t: np.ndarray, T: float) -> float:
    weight = _cutoff_power(samples.t, T, samples.p_conj)[0]
    return float(np.trapezoid(w_t * weight, samples.t))


def inequality_check(samples: SolutionSamples, which: str,
                     count: int = 12) -> RatioSeries:
    """Evaluate one inequality of the blow-up chain along a stored run.

    The grid is a geometric ladder of `count` (>= 2) T (resp. M) values
    between 2 (resp. 4) and GRID_CAP_FRAC * t_last, staying clear of
    under-resolved near-blow-up data.  lhs/rhs are oriented so the asserted
    bound is a positive lower bound for lhs/rhs.  ineq_5_1 is a property of
    the test function, (eta - eta')Phi >= eta Phi with eta' <= 0 and Phi > 0,
    which holds on every run: the run supplies only its time grid.
    """
    if which not in CHECK_NAMES:
        raise ValueError(f"unknown check {which!r}; choose from {CHECK_NAMES}")
    params = samples.params
    n, p, eps = params.n, params.p, params.eps
    p_conj = samples.p_conj
    t, r = samples.t, samples.r
    if count < 2:
        raise ValueError(f"a check needs at least 2 grid points, got {count}")
    floor = 2.0 if which in ("ineq_3_4", "ineq_3_16") else 4.0
    top = GRID_CAP_FRAC * t[-1]
    if top <= floor * 1.01:
        raise ValueError("stored trajectory too short for the check grid")
    grid = np.geomspace(floor, top, count)

    if which in ("ineq_3_4", "ineq_3_16"):
        if params.nonlinearity != "power_u":
            raise CheckNotApplicable(f"{which} applies to power_u runs")
        w_t = samples.u_pow_mass
        C1, C2 = data_constants(samples)
        if which == "ineq_3_4":
            if p <= n / (n - 1.0):
                raise CheckNotApplicable("ineq_3_4 needs p > n/(n-1)")
            lhs = grid ** (n - 1.0 - 2.0 / (p - 1.0))
            rhs = np.array([C1 * eps + _eta_weighted(samples, w_t, T)
                            for T in grid])
        else:
            lhs = np.array([_eta_weighted(samples, w_t, T) for T in grid])
            rhs = (C2 * eps) ** p * grid ** (n - (n - 1.0) * p / 2.0)
        return RatioSeries(grid=grid, lhs=lhs, rhs=rhs)

    if which in ("ineq_4_9", "ineq_4_15"):
        if params.nonlinearity != "power_u":
            raise CheckNotApplicable(f"{which} applies to power_u runs")
        series = y_series(samples.bq_u_pow, t, r, n, p_conj, grid)
        if which == "ineq_4_9":
            lhs = grid * series.dY_direct
            rhs = np.full_like(grid, eps**p)
        else:
            lhs = grid * np.log(grid) ** (p - 1.0) * series.dY_direct
            rhs = series.Y_values ** p
        return RatioSeries(grid=grid, lhs=lhs, rhs=rhs)

    if which == "ineq_5_1":
        # (eta - eta') Phi - eta Phi has the sign of -eta' since Phi =
        # e^{-t} phi > 0: the margin is the cutoff's alone, along t
        margins = np.empty_like(grid)
        for i, M in enumerate(grid):
            e, d, _ = _cutoff_power(t, M, p_conj)
            margins[i] = float(np.min((e - d) - e))
        return RatioSeries(grid=grid, lhs=margins,
                           rhs=np.ones_like(grid), mode="sign")

    # ineq_5_11
    if params.nonlinearity != "power_ut":
        raise CheckNotApplicable("ineq_5_11 applies to power_ut runs")
    Phi = np.exp(-t)[:, None] * samples.phi[None, :]
    series = y_series(Phi * np.abs(samples.ut) ** p, t, r, n, p_conj, grid)
    kappa = -(1.0 / (p - 1.0) - (n - 1.0) / 2.0) * (p - 1.0) + 1.0
    lhs = grid**kappa * series.dY_direct
    rhs = (eps + series.Y_values) ** p  # surrogate C3 = C4 = 1
    return RatioSeries(grid=grid, lhs=lhs, rhs=rhs)


# --- extremal ODE for the critical lifespan ----------------------------------

@dataclass(frozen=True)
class OdeLemmaResult:
    """Exact escape times of the extremal comparison ODE and their scaling."""

    p1: float
    p2: float
    delta_grid: np.ndarray
    logT_grid: np.ndarray  # tau* = log T; T itself overflows for small delta
    fitted_exponent: float

    @property
    def theory_exponent(self) -> float:
        return (self.p1 - 1.0) / (self.p1 - self.p2 + 1.0)


def ode_escape_logT(p1: float, p2: float, K1: float, K2: float,
                    delta: float) -> float:
    """tau* = log T where the extremal system escapes to phi = infinity.

    System: phi' = max(delta/(K1 t), phi^{p1}/(K2 t (log t)^{p2-1})) from
    t0 = e with phi(t0) = 0.  In tau = log t the first branch is linear,
    phi = delta (tau-1)/K1, up to the slope crossing tau_c, found by
    bisection.  After it the second branch holds for good: phi stays on or
    above that line, and the gap between the slopes rises strictly along
    it (p2 < p1 + 1).  Separating phi^{-p1} dphi = dtau / (K2 tau^{p2-1})
    and using phi_c^{p1} = delta K2 tau_c^{p2-1} / K1 at the crossing gives
    tau* = tau_c (1 + a s)^{1/a}, a = 2 - p2, s = (1 - 1/tau_c)/(p1 - 1),
    and tau_c e^s at a = 0.  Since |a| < p1 - 1 and s < 1/(p1 - 1),
    1 + a s > 0 and every escape is finite.
    """
    if not (delta > 0.0 and K1 > 0.0 and K2 > 0.0):
        raise ValueError("delta, K1 and K2 must be positive")
    if not (p1 > 1.0 and p2 < p1 + 1.0):
        raise ValueError("lemma hypothesis requires p1 > 1 and p2 < p1 + 1")

    def crossing_gap(tau):
        # log of (phi-branch slope / linear-branch slope) along phase 1
        return (p1 * math.log(delta * (tau - 1.0) / K1)
                - (p2 - 1.0) * math.log(tau)
                - math.log(delta * K2 / K1))

    lo, hi = 1.0 + 1e-9, 2.0
    if crossing_gap(lo) >= 0.0:
        raise ValueError("delta too large: no slope crossing after t0")
    while crossing_gap(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
        if math.isinf(hi):
            raise ValueError("the slope crossing overflows float range "
                             f"at delta = {delta:g}")
    # the gap increases strictly in tau (p2 < p1 + 1): bisect to the last bit
    while (tau_c := 0.5 * (lo + hi)) not in (lo, hi):
        if crossing_gap(tau_c) < 0.0:
            lo = tau_c
        else:
            hi = tau_c
    a = 2.0 - p2
    s = (1.0 - 1.0 / tau_c) / (p1 - 1.0)
    return tau_c * (math.exp(math.log1p(a * s) / a) if a else math.exp(s))


def ode_lemma_fit(p1: float, p2: float, K1: float = 1.0, K2: float = 1.0,
                  delta_grid=None) -> OdeLemmaResult:
    """Escape-time scaling of the extremal system against the lemma exponent.

    Fits the slope of log log T versus log(1/delta) over the exact escape
    times of `ode_escape_logT`; the comparison lemma predicts
    (p1-1)/(p1-p2+1).
    """
    if delta_grid is None:
        delta_grid = np.geomspace(1e-4, 1e-2, 8)
    delta_grid = np.asarray(delta_grid, dtype=float)
    distinct = len(set(delta_grid.tolist()))
    if distinct < 2:
        raise ValueError(f"need 2 distinct delta values to fit a slope, got {distinct}")
    logT = np.array([ode_escape_logT(p1, p2, K1, K2, d) for d in delta_grid])
    order = np.argsort(delta_grid)
    if not np.all(np.diff(logT[order]) < 0.0):
        raise ArithmeticError("escape times not strictly increasing as "
                              "delta decreases")
    slope = float(np.polyfit(np.log(1.0 / delta_grid), np.log(logT), 1)[0])
    return OdeLemmaResult(p1=p1, p2=p2, delta_grid=delta_grid, logT_grid=logT,
                          fitted_exponent=slope)
