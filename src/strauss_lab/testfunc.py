"""Integral-transform test functions b_q and their verification.

b_q(t, r) = int_0^1 e^{-eta t} psi_hat_eta(r) eta^{q-1} d eta, built from the
far-field-normalized damped eigenfunctions.  The family solves the adjoint
linear equation d_tt b - Lap b - V d_t b = 0 (damping reversed, as befits a
test function integrated against the forward equation), decays like
prescribed powers of (t + R +- r), and is the backbone of the blow-up
functionals.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .eigen import gauss_jacobi, psi_hat_batch
from .model import ModelParams, potential, uniform_step

DEFAULT_NODES = 64
R = 2.0  # the shift of the decay weights t + R +- r; R > 1 keeps t + R - r > 0
STRIP_ROWS = 16  # t-rows the identity residuals evaluate at a time


def eta_rule(q: float, m: int):
    """Gauss-Jacobi rule absorbing the eta^{q-1} endpoint weight.

    Returns (eta, w) with int_0^1 f(eta) eta^{q-1} d eta ~= sum w_k f(eta_k),
    exact for polynomial f up to degree 2m-1.  Building the weight into the
    rule keeps node-doubling stable for every q > 0, including q > 1 where
    the endpoint factor is merely continuous, not smooth.
    """
    if q <= 0.0:
        raise ValueError("q must be positive")
    x, w = gauss_jacobi(m, 0.0, q - 1.0)
    return 0.5 * (x + 1.0), w * 0.5**q


def _check_rows(values) -> None:
    """Raise ArithmeticError unless values is positive and strictly
    decreasing from each row to the next (b_q falls in t)."""
    if not np.all(values > 0.0):
        raise ArithmeticError("b_q lost positivity")
    if not np.all(values[1:] < values[:-1]):
        raise ArithmeticError("b_q not strictly decreasing in t")


@dataclass(frozen=True)
class BqRule:
    """The eta rule and eigenfunctions of b_q: its rows at any times.

    b_q(t, r_j) = sum_k weights_k e^{-eta_k t} psi_hat_k(r_j), so the rows
    at a set of times are one GEMM.  A rule is (nodes, nr) numbers where a
    table (BqTable, a rule with its rows on a t-grid) is (nt, nr).
    bq_rules builds the rules of several q from one shoot;
    verify_bq_identities builds those of b_{q+1} and b_{q+2} with it and
    reads their rows one block at a time.
    """

    q: float
    n: int
    mu: float
    beta: float
    eta_nodes: np.ndarray
    weights: np.ndarray
    psi_cache: np.ndarray  # (n_nodes, nr) normalized psi_hat rows
    r_grid: np.ndarray

    def at(self, t) -> np.ndarray:
        """b_q at the times t (1-d) and every radius: one (len(t), nr) GEMM."""
        E = self.weights * np.exp(-np.multiply.outer(t, self.eta_nodes))
        return E @ self.psi_cache


@dataclass(frozen=True)
class BqTable(BqRule):
    """b_q sampled on a (t, r) rectangle: its rule's rows at every t_grid."""

    t_grid: np.ndarray
    values: np.ndarray  # (nt, nr)


@dataclass(frozen=True)
class IdentityReport:
    """Max relative residuals of the four b_q identities on the cone r <= t."""

    res_dt: float  # d_t b_q = -b_{q+1}
    res_dtt: float  # d_tt b_q = b_{q+2}
    res_lap: float  # Lap b_q = V b_{q+1} + b_{q+2}
    res_wave: float  # d_tt b_q - Lap b_q - V d_t b_q = 0

    @property
    def worst(self) -> float:
        """The largest residual, NaN when any is NaN."""
        return float(np.max(astuple(self)))


@dataclass(frozen=True)
class AsymptoticReport:
    """Bracket of the compensated b_q over a light-cone sample."""

    regime: str  # "q_below" | "q_above" relative to (n-1)/2
    ratio_min: float
    ratio_max: float

    @property
    def spread(self) -> float:
        return self.ratio_max / self.ratio_min


def bq_rules(qs, params: ModelParams, r_grid,
             nodes: int = DEFAULT_NODES) -> tuple[BqRule, ...]:
    """The eta rules of b_q for each q in qs, with their eigenfunctions shot
    onto r_grid by one psi_hat_batch call over all their nodes.

    r_grid doubles as the ODE output grid: psi_hat_batch's r_out rule applies.
    The rules share one matching radius, set by the smallest node of all; at
    64 nodes every q up to 50 has a node below 0.1, so each rule keeps the
    radius of its own shoot (the b_{q+1}, b_{q+2} rows of criterion 3 are
    those of separate shoots, bit for bit).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    eta, w = zip(*(eta_rule(q, nodes) for q in qs))
    psi_hat, _ = psi_hat_batch(np.concatenate(eta), params.mu,
                               params.beta, params.n, r_grid)
    return tuple(BqRule(q=q, n=params.n, mu=params.mu, beta=params.beta,
                        eta_nodes=e, weights=wk, psi_cache=rows, r_grid=r_grid)
                 for q, e, wk, rows in zip(qs, eta, w,
                                           np.split(psi_hat, len(qs))))


def build_bq(q: float, params: ModelParams, t_grid, r_grid,
             nodes: int = DEFAULT_NODES) -> BqTable:
    """The validated BqTable of b_q on t_grid x r_grid: its rule from
    bq_rules, then the rule's rows at every t in one GEMM.

    r_grid must be rising, uniform and start at 0, as bq_rules asks.
    Raises ArithmeticError when the table is not positive and strictly
    decreasing in t.
    """
    rule, = bq_rules((q,), params, r_grid, nodes)
    t_grid = np.asarray(t_grid, dtype=float)
    table = BqTable(**vars(rule), t_grid=t_grid, values=rule.at(t_grid))
    _check_rows(table.values)
    return table


def verify_bq_identities(tq: BqTable) -> IdentityReport:
    """Centered-difference residuals of the b_q identities.

    Residuals are relative to the positive local scale V b_{q+1} + b_{q+2}
    (resp. b_{q+1}, b_{q+2} for the single-term identities), maximized over
    the interior cone r <= t with r >= dr.  Evaluation goes over blocks of 64
    t-rows, each on its cone's columns plus the two radii the five-point
    stencil reads beyond them; so the boundary formulas of a window's last
    two columns reach no cone point short of the whole grid, and every
    residual is that of a whole-rectangle evaluation, bit for bit.  Within
    a block the formulas run over strips of at most STRIP_ROWS rows on the
    block's window, so their temporaries stay cache-sized; the strip and
    block maxima combine by np.maximum, so a NaN residual anywhere on the
    cone is its field's value and fails every threshold.

    tq's t_grid must pass model.uniform_step (the t differences use its step).
    The partners b_{q+1} and b_{q+2} are built here by one bq_rules call,
    on tq's radii and model with as many eta nodes, each with its own eta
    rule and the two shot together: the identities then test the
    quadrature, which partners taken from tq's rule (its weights times eta)
    would satisfy by construction.  Each block computes their rows by one
    GEMM, the block's rows plus one on either side, so no whole partner
    table is built (a block GEMM may round an entry 1 ulp away from
    build_bq's whole-table GEMM), and the block's arrays are freed before
    the next block.  Those rows pass _check_rows, the positivity and
    strict-decrease check of build_bq; consecutive blocks share two rows,
    so every row and every pair of t-neighbours of a partner, the first and
    last included, is checked as build_bq checks a whole table
    (ArithmeticError otherwise).

    The radial first derivative feeding the (n-1)/r term uses five-point
    (fourth-order) differences: V'(0) != 0 puts a genuine r^3 component into
    b_q, so a second-order derivative error -- constant in r -- would be
    amplified to O(dr^2 / r) by the axis factor and spoil the pointwise
    order near r = 0.
    """
    t, r = tq.t_grid, tq.r_grid
    if t.size < 3 or r.size < 5:
        raise ValueError(f"the grid has {t.size} times and {r.size} radii; "
                         "the identities need >= 3 and >= 5")
    uniform_step(t, "t_grid")
    params = ModelParams(n=tq.n, mu=tq.mu, beta=tq.beta)
    tq1, tq2 = bq_rules((tq.q + 1.0, tq.q + 2.0), params, r,
                        tq.eta_nodes.size)
    V = potential(r, tq.mu, tq.beta)
    res = np.zeros(4)
    for lo in range(1, t.size - 1, 64):
        res = np.maximum(res, _block_residuals(tq, tq1, tq2, V, lo,
                                               min(lo + 64, t.size - 1)))
    return IdentityReport(res_dt=res[0], res_dtt=res[1], res_lap=res[2],
                          res_wave=res[3])


def _block_residuals(tq: BqTable, tq1: BqRule, tq2: BqRule, V, lo: int,
                     hi: int) -> np.ndarray:
    """The four identity residuals of verify_bq_identities over t-rows
    lo..hi-1, a NaN one as NaN.

    The partner rows come from one GEMM each and pass _check_rows; the
    residuals are then evaluated on the block's window over strips of at
    most STRIP_ROWS rows, so the temporaries of the formulas hold
    (STRIP_ROWS, w) numbers, not (hi - lo, w).  Every formula acts entry by
    entry along t, so a strip's entries are the block's, bit for bit.  The
    block's arrays are freed on return, before the next block.
    """
    t, r = tq.t_grid, tq.r_grid
    w = min(r.size, max(5, int(np.searchsorted(r, t[hi - 1], "right")) + 2))
    p1 = tq1.at(t[lo - 1:hi + 1])
    p2 = tq2.at(t[lo - 1:hi + 1])
    _check_rows(p1)
    _check_rows(p2)
    res = np.zeros(4)
    for top in range(lo, hi, STRIP_ROWS):
        end = min(top + STRIP_ROWS, hi)
        rows = slice(top - lo + 1, end - lo + 1)  # the strip's partner rows
        res = np.maximum(res, _strip_residuals(tq, p1[rows, :w], p2[rows, :w],
                                               V[:w], top, end))
    return res


def _strip_residuals(tq: BqTable, b1, b2, Vw, lo: int,
                     hi: int) -> tuple[float, float, float, float]:
    """The four identity residuals over t-rows lo..hi-1 on the window of
    the partner rows b1, b2 and potential Vw, a NaN one as NaN."""
    t, r = tq.t_grid, tq.r_grid
    dt = float(t[1] - t[0])
    dr = float(r[1] - r[0])
    w = Vw.size
    sl = slice(lo, hi)
    b = tq.values[sl, :w]
    b_up = tq.values[lo + 1:hi + 1, :w]
    b_dn = tq.values[lo - 1:hi - 1, :w]
    bt = (b_up - b_dn) / (2.0 * dt)
    btt = (b_up - 2.0 * b + b_dn) / (dt * dt)
    br = np.empty_like(b)
    br[:, 2:-2] = (b[:, :-4] - 8.0 * b[:, 1:-3]
                   + 8.0 * b[:, 3:-1] - b[:, 4:]) / (12.0 * dr)
    br[:, 1] = (-3.0 * b[:, 0] - 10.0 * b[:, 1] + 18.0 * b[:, 2]
                - 6.0 * b[:, 3] + b[:, 4]) / (12.0 * dr)
    br[:, -2] = (b[:, -1] - b[:, -3]) / (2.0 * dr)
    lap = np.empty_like(b)
    lap[:, 1:-1] = ((b[:, 2:] - 2.0 * b[:, 1:-1] + b[:, :-2]) / (dr * dr)
                    + (tq.n - 1) / r[1:w - 1] * br[:, 1:-1])
    lap[:, 0] = lap[:, -1] = np.nan
    scale_w = Vw * b1 + b2
    cone = r[None, 1:w - 1] <= t[sl, None]
    inner = slice(1, -1)

    def cone_max(err):
        return float(np.max(np.where(cone, err[:, inner], 0.0)))

    return (cone_max(np.abs(bt + b1) / b1),
            cone_max(np.abs(btt - b2) / b2),
            cone_max(np.abs(lap - Vw * b1 - b2) / scale_w),
            cone_max(np.abs(btt - lap - Vw * bt) / scale_w))


def _cone(table: BqTable, t_min: float):
    """(t, r, b_q) at the table points with r <= t + 1 and t >= t_min."""
    t, r = np.meshgrid(table.t_grid, table.r_grid, indexing="ij", copy=False)
    cone = (r <= t + 1.0) & (t >= t_min)
    if not np.any(cone):
        raise ValueError("no samples in the cone r <= t + 1, t >= t_min")
    return t[cone], r[cone], table.values[cone]


def verify_bq_asymptotics(table: BqTable, t_min: float = 1.0) -> AsymptoticReport:
    """Bracket the compensated b_q over the light cone r <= t + 1.

    q < (n-1)/2: ratio = b_q (t+R+r)^q;
    q > (n-1)/2: ratio = b_q (t+R+r)^{(n-1)/2} (t+R-r)^{q-(n-1)/2}.
    Bounded ratio both ways is the check; the caller judges the spread.
    """
    q, half = table.q, (table.n - 1) / 2.0
    if q == half:
        raise ValueError("boundary case q = (n-1)/2 is excluded")
    t, r, b = _cone(table, t_min)
    if q < half:
        regime, vals = "q_below", b * (t + R + r) ** q
    else:  # t + R - r > 0 on the cone (R > 1)
        regime = "q_above"
        vals = b * (t + R + r) ** half * (t + R - r) ** (q - half)
    return AsymptoticReport(regime=regime,
                            ratio_min=float(vals.min()),
                            ratio_max=float(vals.max()))


def _hyper2f1_series(a: float, b: float, c: float, z) -> np.ndarray:
    """Power series at every z of a 1-d array; each stops at 1e-15 relative."""
    total = np.ones_like(z)
    idx = np.arange(z.size)  # points still summing
    zk, term, part = z, np.ones_like(z), np.ones_like(z)
    for k in range(6000):
        term = term * ((a + k) * (b + k) / ((c + k) * (1.0 + k)) * zk)
        part = part + term
        done = np.abs(term) <= 1e-15 * np.abs(part)
        total[idx[done]] = part[done]
        idx, zk, term, part = idx[~done], zk[~done], term[~done], part[~done]
        if not idx.size:
            return total
    raise ArithmeticError("hypergeometric series did not converge")


def _euler_node_count(z: np.ndarray) -> np.ndarray:
    """Gauss node count from the Bernstein-ellipse distance of the pole 1/z.

    The counts were sized when weight noise of the Gauss rule grew with m;
    hyper2f1 returns the series value, so they only decide if the routes agree.
    A count above 40 is rounded up to a multiple of 16 (at most 600), so a
    cone of ~20,000 points needs a handful of rules, not one per count.
    """
    xi = 2.0 / np.maximum(z, 0.5) - 1.0  # pole position after mapping [0,1] -> [-1,1]
    rho = xi + np.sqrt(xi * xi - 1.0)
    m = (8.0 / np.log10(rho)).astype(int) + 10
    return np.where((z <= 0.5) | (m <= 40), 40, np.minimum(600, -(-m // 16) * 16))


def _hyper2f1_euler(a: float, b: float, c: float, z) -> np.ndarray:
    """Euler integral at every z of a 1-d array, one Gauss rule per node count.

    Gamma(c)/(Gamma(b)Gamma(c-b)) int_0^1 x^{b-1}(1-x)^{c-b-1}(1-zx)^{-a} dx
    with the beta weight absorbed into a Gauss-Jacobi rule; points go in
    blocks of 2048 so the (points, nodes) array stays below 10 MB.
    """
    out = np.empty_like(z)
    counts = _euler_node_count(z)
    scale = 0.5 ** (c - 1.0) * math.gamma(c) / (math.gamma(b) * math.gamma(c - b))
    for m in sorted(set(counts.tolist())):
        x, w = gauss_jacobi(m, c - b - 1.0, b - 1.0)
        xs = 0.5 * (x + 1.0)
        where = np.flatnonzero(counts == m)
        for lo in range(0, where.size, 2048):
            sel = where[lo:lo + 2048]
            out[sel] = (1.0 - np.multiply.outer(z[sel], xs)) ** (-a) @ w * scale
    return out


def hyper2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric 2F1 by two independent routes.

    Evaluates both the power series and the Euler integral representation
    (valid for c > b > 0, |z| < 1) at every z and demands they agree to
    1e-10 relative; returns the series value (a float for scalar z).
    """
    if not c > b > 0.0:
        raise ValueError("integral representation needs c > b > 0")
    zs = np.asarray(z, dtype=float)
    flat = zs.ravel()
    if np.any(np.abs(flat) >= 1.0):
        raise ValueError("|z| must be below 1")
    s = _hyper2f1_series(a, b, c, flat)
    e = _hyper2f1_euler(a, b, c, flat)
    bad = np.abs(s - e) > 1e-10 * np.maximum(np.maximum(np.abs(s), np.abs(e)), 1.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ArithmeticError(
            f"2F1 routes disagree at z={flat[i]!r}: series={s[i]!r} euler={e[i]!r}")
    return float(s[0]) if zs.ndim == 0 else s.reshape(zs.shape)


def hyper2f1_compensation(table: BqTable, t_min: float = 1.0):
    """Ratio b_q (t+R+r)^q / 2F1(q, (n-1)/2, n-1; 2r/(t+R+r)) over the cone.

    The hypergeometric profile captures the full r-dependence of the
    far-field b_q, so this ratio should bracket tighter than the plain
    power compensation.  Both 2F1 routes are checked at every cone point.
    Returns (ratio_min, ratio_max).
    """
    q, n = table.q, table.n
    t, r, b = _cone(table, t_min)
    tr = t + R + r
    ratio = b * tr ** q / hyper2f1(q, (n - 1) / 2.0, n - 1.0, 2.0 * r / tr)
    return float(ratio.min()), float(ratio.max())
