"""Radial eigenfunctions of Lap(psi) - eta*V*psi = eta^2*psi and their
far-field matching against the undamped profile.

psi_eta is the regular solution with psi(0) = 1, psi'(0) = 0.  It grows like
e^(eta*r), so the shooting integration works in the rescaled variable
s(r) = e^(-eta*r) * psi(r), which satisfies

    s'' + (2*eta + (n-1)/r) s' + ((n-1)*eta/r - eta*V) s = 0

and stays bounded.  The undamped comparison profile is the plane-wave average

    varphi_eta(x) = int_{S^{n-1}} e^(eta x.omega) d(omega)
                  = |S^{n-2}| int_{-1}^{1} (1-th^2)^((n-3)/2) e^(th*eta*r) dth,

and the matching constant is lambda(eta) = psi_eta(r_ref)/varphi_eta(r_ref) at
one fixed far radius r_ref, both scaled by e^(-eta r_ref) (s and `varphi`).
The ratio still creeps up there: for V ~ mu r^-beta its far-field bias falls
like r_ref^-(beta-1), so each doubling of r_ref shrinks the increment of
lambda by 2^(beta-1).  For mu = 0 the ratio is constant: psi =
varphi/|S^{n-1}| exactly (n = 3: psi = sinh(eta r)/(eta r)), and at eta = 0,
psi = 1 and lambda = 1/|S^{n-1}|.

One integrator serves every solve.  The equation for (s, s') is linear and
affine in eta, so a classical RK4 step is a 2x2 propagator matrix of
polynomials of degree <= 4 in eta.  _rk4_steps forms their coefficients once
for a block of steps and evaluates every eta with one GEMM; the propagators
match the stage-by-stage formulas to round-off and keep (s, s') = (1, 0)
exactly at eta = 0.  The near segment takes steps h <= dr aligned with the
output grid: _rk4_propagate multiplies the propagators of each output
interval together and chains the interval products into its output rows,
two numpy calls a row on the stacked (s, s') state.
The far tail, which only feeds lambda, takes graded steps
h = min(1e-3 r, 0.1) and lands exactly on r_ref: _rk4_tail reduces each
block of propagators to their one product by pairwise multiplication, so it
applies one matrix a block, not one a step.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .model import sphere_area, uniform_step

DEFAULT_DR_ODE = 1e-3
# a propagator block holds at most CHUNK_STEPS RK4 steps, so its memory is
# bounded for any output grid
CHUNK_STEPS = 640


@functools.lru_cache(maxsize=None)
def gauss_jacobi(m: int, a: float, b: float):
    """Nodes and weights of the m-point Gauss rule for (1-x)^a (1+x)^b on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the orthonormal Jacobi
    matrix, polished by one Newton step on p_m; each weight is
    1/sum_{k<m} p_k(x)^2 over the orthonormal p_k, a sum of positive terms,
    so small endpoint weights keep their relative accuracy.  One recurrence
    pass gives both: the sum moves to the polished node by its first-order
    Taylor term.  Cached per (m, a, b); the arrays are read-only.
    """
    if m < 1 or a <= -1.0 or b <= -1.0:
        raise ValueError(f"need m >= 1 and a, b > -1, got m={m}, a={a}, b={b}")
    s = 2.0 * np.arange(1.0, m) + a + b
    # recurrence coefficients alpha_0..alpha_{m-1} and beta_1..beta_m; the
    # k = 0 and k = 1 terms are written out so a+b = 0 and a+b = -1 divide no 0/0
    alpha = np.append((b - a) / (a + b + 2.0), (b * b - a * a) / (s * (s + 2.0)))
    k, s = np.arange(2.0, m + 1), s + 2.0
    beta = np.append(4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0)),
                     4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s * s - 1.0)))
    sq = np.sqrt(beta)
    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(sq[:-1], -1))
    p0 = math.sqrt(math.gamma(a + b + 2.0) / (2.0 ** (a + b + 1.0) * math.gamma(a + 1.0)
                                               * math.gamma(b + 1.0)))
    # p_j, p_j' up to j = m; total = sum_{k<m} p_k^2 and half its derivative
    p_prev, p, dp_prev, dp, total, dtotal = 0.0, np.full_like(x, p0), 0.0, 0.0, 0.0, 0.0
    for j in range(m):
        total, dtotal = total + p * p, dtotal + p * dp
        c, xa = (sq[j - 1] if j else 0.0), x - alpha[j]
        p_prev, p, dp_prev, dp = (p, (xa * p - c * p_prev) / sq[j], dp,
                                  (xa * dp + p - c * dp_prev) / sq[j])
    step = -p / dp
    x, w = x + step, 1.0 / (total + 2.0 * dtotal * step)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def varphi(eta, r, n: int):
    """The plane-wave average scaled by e^(-eta r), which never overflows
    since every quadrature exponent is <= 0.

    eta and r broadcast, so one call gives a profile (one eta, many r) or a
    family (many eta, one r).  Evaluated with Gauss-Jacobi quadrature matched
    to the (1-th^2)^((n-3)/2) endpoint weight; the node count grows with
    max(eta*r) so the rule stays spectrally accurate.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if np.any(np.asarray(eta) < 0):
        raise ValueError("eta must be >= 0")
    arg = np.asarray(eta, dtype=float) * np.asarray(r, dtype=float)
    m = int(0.6 * float(np.max(arg, initial=0.0))) + 40
    a = (n - 3) / 2.0
    nodes, weights = gauss_jacobi(m, a, a)
    expo = np.multiply.outer(arg, nodes) - arg[..., None]  # (..., m)
    return sphere_area(n - 1) * (np.exp(expo) @ weights)


def _rk4_steps(powers, mu, beta, n, r, h):
    """RK4 step matrices P00, P01, P10, P11 from r to r + h (L steps), each
    (L, eta count); powers holds the rows 1, eta, ..., eta^4.

    y' = A y with y = (s, s'), A = [[0, 1], [eta w, -q - 2 eta]], q = (n-1)/r,
    w = V - q, and P = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with K1 = A(r),
    K2 = A(r+h/2)(I + h/2 K1), K3 = A(r+h/2)(I + h/2 K2), K4 = A(r+h)(I + h K3).
    Row 0 of A X is row 1 of X, so K_(i+1) = [v_i; R_(i+1)] with v_0 = e1,
    v_i = e1 + tau_i R_i, u_i = e0 + tau_i v_(i-1) and R_(i+1) =
    -q v_i + eta (w u_i - 2 v_i), and P - I = [h e1 + h^2/6 (R1 + R2 + R3);
    h/6 (R1 + 2 R2 + 2 R3 + R4)], a GEMM of its eta^k coefficients.
    """
    x = r + h * np.array([[0.0], [0.5], [1.0]])  # r, r + h/2, r + h
    mq = (1.0 - n) / x  # -q
    w = mu * (1.0 + x) ** (-beta) + mq
    # R[i, k]: the eta^k coefficient of R_(i+1), columns then steps
    R = np.zeros((4, 5, 2, r.size))
    R[0, 0, 1], R[0, 1, 0], R[0, 1, 1] = mq[0], w[0], -2.0
    v = np.array([[[0.0], [1.0]]])  # v_0 = e1
    half = 0.5 * h
    for i, (j, tau) in enumerate(((1, half), (1, half), (2, h))):
        u = tau * v
        u[0, 0] += 1.0
        v = tau * R[i, :i + 2]
        v[0, 1] += 1.0
        np.multiply(mq[j], v, out=R[i + 1, :i + 2])
        R[i + 1, 1:i + 3] -= 2.0 * v
        R[i + 1, 1:i + 2] += w[j] * u
    C = np.empty((5, 2, 2, r.size))  # eta power, row, column, step
    T = R[0] + R[1] + R[2]
    np.multiply(h * h / 6.0, T, out=C[:, 0])
    C[0, 0, 1] += h
    np.multiply(h / 6.0, T + R[1] + R[2] + R[3], out=C[:, 1])
    P = (C.reshape(5, -1).T @ powers).reshape(4, r.size, -1)
    P[::3] += 1.0  # P00 and P11
    return P


def _mul2(a, b, out=None, tmp=None):
    """The 2x2 matrix products a b, the matrix entries on the first two axes.

    a[:, 1:] b[1:] goes into tmp and a[:, :1] b[:1] into out, and out
    takes their sum: each entry is a_i0 b_0j + a_i1 b_1j.  out and tmp are
    buffers of the product's shape that overlap neither a nor b, or None
    for new ones.
    """
    tmp = np.multiply(a[:, 1:], b[1:], out=tmp)
    out = np.multiply(a[:, :1], b[:1], out=out)
    return np.add(out, tmp, out=out)


def _interval_products(powers, mu, beta, n, e, every):
    """The product of the RK4 step matrices over each run of `every` steps
    between consecutive `e`, later steps multiplying from the left: entries
    first, (2, 2, runs, eta count).

    _rk4_steps gets the steps in (step of the run, run) order, so step j of
    every run is one slab and each of its entries one contiguous (runs, eta
    count) block; the products alternate between two buffers beside one
    for _mul2's second term.  The step matrices are freed on return.
    """
    runs = (e.size - 1) // every
    r, h = (x.reshape(runs, every).T.ravel() for x in (e[:-1], np.diff(e)))
    P = _rk4_steps(powers, mu, beta, n, r, h).reshape(2, 2, every, runs, -1)
    M = P[:, :, 0]
    if every > 1:
        bufs, tmp = (np.empty_like(M), np.empty_like(M)), np.empty_like(M)
    for j in range(1, every):
        M = _mul2(P[:, :, j], M, bufs[j % 2], tmp)
    return M


def _rk4_propagate(etas, mu, beta, n, edges, every, s, sp):
    """Classical RK4 steps between consecutive `edges`, for all etas at once.

    Starts from the state (s, s') at edges[0] and returns the (s, s') rows
    at edges[every], edges[2*every], ...
    """
    powers = np.vander(np.asarray(etas, dtype=float), 5, increasing=True).T
    n_int = (edges.size - 1) // every
    out = np.empty((n_int, 2, powers.shape[1]))  # the (s, s') rows
    state, prod = np.stack([s, sp]), np.empty((2, 2, powers.shape[1]))
    per = max(1, CHUNK_STEPS // every)
    for lo in range(0, n_int, per):
        hi = min(lo + per, n_int)
        M = _interval_products(powers, mu, beta, n,
                               edges[lo * every:hi * every + 1], every)
        for m, row in zip(M.transpose(2, 0, 1, 3), out[lo:hi]):
            np.multiply(m, state, out=prod)
            state = np.add(prod[:, 0], prod[:, 1], out=row)
    return out[:, 0], out[:, 1]


def _rk4_tail(etas, mu, beta, n, edges, s, sp):
    """Classical RK4 steps between consecutive `edges`, for all etas at once:
    the (s, s') state at edges[-1] from the state (s, s') at edges[0].

    Each block of <= CHUNK_STEPS propagators is multiplied in pairs, the
    later from the left, with an odd one carried over, until one product is
    left; that product is applied to the state.
    """
    powers = np.vander(np.asarray(etas, dtype=float), 5, increasing=True).T
    for lo in range(0, edges.size - 1, CHUNK_STEPS):
        e = edges[lo:lo + CHUNK_STEPS + 1]
        M = _interval_products(powers, mu, beta, n, e, 1)
        while M.shape[2] > 1:
            pairs = _mul2(M[:, :, 1::2], M[:, :, 0:-1:2])
            if M.shape[2] % 2:
                pairs = np.concatenate([pairs, M[:, :, -1:]], axis=2)
            M = pairs
        (m00, m01), (m10, m11) = M[:, :, 0]
        s, sp = m00 * s + m01 * sp, m10 * s + m11 * sp
    return s, sp


def _shoot(etas, mu, beta, n, r_out, dr):
    """(psi rows, last (s, s') state) on r_out for every eta.

    RK4 steps of size h <= dr aligned with the output grid r_out (uniform,
    starting at 0); the state at r = h comes from the series
    psi ~ 1 + (eta V(0) + eta^2) r^2 / (2n).  At eta = 0 every propagator
    keeps (s, s') = (1, 0) exactly.
    """
    k = max(1, int(math.ceil((r_out[1] - r_out[0]) / dr - 1e-12)))
    h = float(r_out[1] - r_out[0]) / k
    c = etas * mu + etas * etas
    p1 = 1.0 + c * h * h / (2.0 * n)
    e = np.exp(-etas * h)
    # the series gives the state at r = h, so the first step has length 0
    edges = np.maximum(np.arange((r_out.size - 1) * k + 1) * h, h)
    s, sp = _rk4_propagate(etas, mu, beta, n, edges, k,
                           e * p1, e * (c * h / n - etas * p1))
    # psi = e^(eta r) s, built in place below row 0
    psi = np.empty((r_out.size, etas.size))
    psi[0] = 1.0
    grow = psi[1:]
    np.multiply(etas, edges[k::k, None], out=grow)
    np.exp(grow, out=grow)
    grow *= s
    if np.any(psi <= 0.0):
        raise ArithmeticError("integration fault: psi lost positivity")
    return psi, (s[-1].copy(), sp[-1].copy())  # frees s and sp


def psi_hat_batch(etas, mu: float, beta: float, n: int, r_out,
                  dr: float = DEFAULT_DR_ODE, r_ref: float | None = None):
    """Normalized profiles psi_hat = psi/lambda for a family of eta >= 0.

    Returns (psi_hat, lam) with rows indexed like etas, on the output grid
    r_out (rising and uniform by model.uniform_step, starting at exactly 0).
    All eta share one integration and one matching radius, by default
    r_ref = 0.8 * max(30/max(eta_min, 0.1), 1.05 r_out[-1]), so that lambda
    is a smooth function of eta -- required when the family feeds a
    quadrature rule.  A row depends on the other rows only through eta_min
    (and, at round-off, the varphi node count).
    """
    etas = np.asarray(etas, dtype=float)
    r_out = np.asarray(r_out, dtype=float)
    if n < 2 or not (mu >= 0.0 and beta > 0.0):
        raise ValueError("need n >= 2, mu >= 0, beta > 0")
    if not np.all(etas >= 0.0):
        raise ValueError("eta must be >= 0")
    uniform_step(r_out, "r_out", start=0.0)
    if float(etas.max()) * r_out[-1] > 700.0:
        raise ValueError("eta*r_max > 700: psi ~ e^(eta r) overflows")
    if r_ref is None:
        r_ref = 0.8 * max(30.0 / max(float(etas.min()), 0.1),
                          1.05 * float(r_out[-1]))
    psi, state = _shoot(etas, mu, beta, n, r_out, dr)
    if r_ref <= r_out[-1] + 1e-12:
        i_ref = int(np.argmin(np.abs(r_out - r_ref)))
        r_ref = float(r_out[i_ref])
        s_ref = np.exp(-etas * r_ref) * psi[i_ref]
    else:
        # graded tail: the coefficients vary on the scale r, and h/r <= 1e-3
        # keeps the undamped error of the s' ~ -2 eta s mode near r_ref small
        edges = [float(r_out[-1])]
        while edges[-1] < r_ref:
            edges.append(min(edges[-1] + min(1e-3 * edges[-1], 0.1), r_ref))
        s_ref = _rk4_tail(etas, mu, beta, n, np.array(edges), *state)[0]
    phi_ref = varphi(etas, r_ref, n)
    lam = s_ref / phi_ref
    return psi.T / lam[:, None], lam
