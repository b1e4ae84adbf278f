"""Eigenfunction shooting solve against closed forms and stability checks."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from strauss_lab import eigen, testfunc
from strauss_lab.eigen import gauss_jacobi, psi_hat_batch, varphi
from strauss_lab.functionals import phi_profile
from strauss_lab.model import ModelParams, build_grid, sphere_area
from strauss_lab.testfunc import eta_rule


def _grid(r_max):
    return 0.01 * np.arange(int(round(r_max / 0.01)) + 1)


def test_undamped_sinh_oracle():
    # mu = 0, n = 3: the regular solution of Lap(psi) = eta^2 psi is sinh(r)/r
    r = _grid(40.0)
    psi_hat, lam = psi_hat_batch([1.0], 0.0, 3.0, 3, r)
    exact = np.ones_like(r)
    exact[1:] = np.sinh(r[1:]) / r[1:]
    rel = np.abs(psi_hat[0] * lam[0] - exact) / exact
    assert float(np.max(rel)) < 1e-8


def test_undamped_matches_varphi_exactly():
    # mu = 0: psi IS the plane-wave average up to one constant, so the
    # normalized profile and varphi agree on the whole grid, not just far out
    r = _grid(40.0)
    psi_hat, _ = psi_hat_batch([1.5], 0.0, 3.0, 3, r)
    phi = np.exp(1.5 * r) * varphi(1.5, r, 3)
    rel = np.abs(psi_hat[0] - phi) / np.abs(phi)
    assert float(np.max(rel)) < 1e-9


def test_varphi_closed_form_n3():
    # n = 3 plane-wave average: 4 pi sinh(eta r)/(eta r)
    r = np.linspace(0.1, 10.0, 37)
    eta = 0.7
    exact = 4.0 * np.pi * np.sinh(eta * r) / (eta * r)
    np.testing.assert_allclose(varphi(eta, r, 3), np.exp(-eta * r) * exact,
                               rtol=1e-12)


def test_varphi_family_matches_scalar():
    etas = np.array([0.25, 1.0, 2.0])
    fam = varphi(etas, 5.0, 3)
    for eta, val in zip(etas, fam):
        assert val == pytest.approx(float(varphi(eta, np.array([5.0]), 3)[0]),
                                    rel=1e-12)


def test_rescaled_profile_bounded_and_stable():
    # mu = 1, beta = 3: w = (1+r)^((n-1)/2) e^(-r) psi stays bounded, with the
    # sup stable under doubling of the domain; its tail follows the far-field
    # law w -> 2 pi lambda (1 + 1/r), closer as r_max doubles
    sups, gaps = [], []
    for r_max in (40.0, 80.0):
        r = _grid(r_max)
        psi_hat, lam = psi_hat_batch([1.0], 1.0, 3.0, 3, r)
        w = (1.0 + r) * np.exp(-r) * psi_hat[0] * lam[0]
        sups.append(float(np.max(np.abs(w))))
        gaps.append(abs(w[-1] / (1.0 + 1.0 / r[-1]) / (2.0 * math.pi * lam[0]) - 1.0))
    assert abs(sups[1] - sups[0]) <= 0.01 * sups[0]
    assert max(gaps) < 2e-4
    assert gaps[1] < gaps[0]


def test_eta_zero_profile():
    # at eta = 0 the shooting keeps s = 1, s' = 0 exactly
    psi_hat, lam = psi_hat_batch([0.0], 1.0, 3.0, 3, _grid(10.0))
    assert np.all(psi_hat == 1.0 / lam[0])


@pytest.mark.parametrize("eta, beta", [(0.5, 2.5), (0.5, 3.0), (0.0, 3.0)])
def test_lambda_far_field_law(eta, beta):
    # lambda at r_ref creeps up with a bias ~ r_ref^-(beta-1): each doubling
    # of r_ref shrinks the increment by 2^(beta-1); at eta = 0 it is exact
    r = _grid(5.0)
    lams, psi_lams = [], []
    for r_ref in (30.0, 60.0, 120.0, 240.0, 480.0):
        psi_hat, lam = psi_hat_batch([eta], 1.0, beta, 3, r, r_ref=r_ref)
        lams.append(lam[0])
        psi_lams.append(psi_hat[0] * lam[0])
    if eta == 0.0:
        np.testing.assert_allclose(psi_lams, 1.0, rtol=1e-15)
        np.testing.assert_allclose(lams, 1.0 / sphere_area(3), rtol=1e-14)
        return
    steps = np.diff(lams)
    assert np.all(steps > 0.0)
    np.testing.assert_allclose(steps[:-1] / steps[1:], 2.0 ** (beta - 1.0),
                               rtol=0.05)


def test_psi_hat_batch_rows_independent():
    # a row depends on the batch only through eta_min (the default r_ref)
    etas = np.array([0.5, 1.0, 2.0])
    r_out = np.linspace(0.0, 5.0, 11)
    full = psi_hat_batch(etas, 1.0, 2.5, 3, r_out)
    assert full[0].shape == (etas.size, r_out.size)
    for rows in ([0, 1], [0, 2]):
        part = psi_hat_batch(etas[rows], 1.0, 2.5, 3, r_out)
        for a, b in zip(full, part):
            np.testing.assert_allclose(a[rows], b, rtol=1e-12)
    # ... and not at all when r_ref is given
    fixed = psi_hat_batch(etas, 1.0, 2.5, 3, r_out, r_ref=60.0)
    for i, eta in enumerate(etas):
        one = psi_hat_batch([eta], 1.0, 2.5, 3, r_out, r_ref=60.0)
        for a, b in zip(fixed, one):
            np.testing.assert_allclose(a[i], b[0], rtol=1e-12)


def test_psi_hat_batch_node_spacing_insensitive():
    etas = np.array([0.8, 1.6])
    r_out = np.linspace(0.0, 4.0, 9)
    a = psi_hat_batch(etas, 1.0, 2.5, 3, r_out, dr=1e-3)
    b = psi_hat_batch(etas, 1.0, 2.5, 3, r_out, dr=5e-4)
    np.testing.assert_allclose(a[0], b[0], rtol=1e-8)
    np.testing.assert_allclose(a[1], b[1], rtol=1e-8)


def _peak_bytes(etas, r_out):
    """tracemalloc's peak over one psi_hat_batch call."""
    tracemalloc.start()
    try:
        psi_hat_batch(etas, 1.0, 2.5, 3, r_out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psi_hat_batch_memory_bounded_on_a_coarse_grid():
    # a block holds at most 640 RK4 steps: at output step 0.1 (100 steps an
    # interval) 64 eta peaked at 56.7 MB when a block held 64 intervals, and
    # at 9.6 MB with step matrices formed stage by stage for every eta; the
    # polynomial coefficients and one GEMM a block peak at 5.1 MB, and at
    # 3.0 MB with each block's step matrices freed once multiplied (2.97 MB
    # with the products on per-step slabs)
    eta, _ = eta_rule(0.5, 64)
    assert _peak_bytes(eta, 0.1 * np.arange(51)) < 3.2e6


def test_psi_hat_batch_memory_bounded_on_the_criterion_3_grid():
    # 64 eta on r in [0, 20] at 0.01: 12.5 MB stage by stage, 7.9 MB with
    # psi and psi' stacked from temporaries, 4.9 MB built in place, 4.40 MB
    # with each step's entries strided across the runs, 4.17 MB on per-step slabs
    eta, _ = eta_rule(0.5, 64)
    assert _peak_bytes(eta, 0.01 * np.arange(2001)) < 4.3e6


def test_psi_hat_batch_memory_bounded_for_both_partners():
    # the 128 eta of the b_{q+1} and b_{q+2} rules in one shoot on the same
    # grid: 15.5 MB stacked from temporaries, 9.6 MB built in place, 8.55 MB
    # with each step's entries strided across the runs, 7.96 MB on per-step slabs
    eta = np.concatenate([eta_rule(q, 64)[0] for q in (1.5, 2.5)])
    assert _peak_bytes(eta, 0.01 * np.arange(2001)) < 8.3e6


@pytest.mark.parametrize("step", [0.01, 0.1])
def test_psi_hat_batch_bits_independent_of_block_size(step, monkeypatch):
    # blocks only group intervals: one interval a block gives the same bits
    # (r_ref at r_out's end skips the graded tail, a block a step already)
    eta, _ = eta_rule(0.5, 16)
    r_out = step * np.arange(int(round(5.0 / step)) + 1)
    default = psi_hat_batch(eta, 1.0, 2.5, 3, r_out, r_ref=5.0)
    monkeypatch.setattr(eigen, "CHUNK_STEPS", 1)
    for a, b in zip(default, psi_hat_batch(eta, 1.0, 2.5, 3, r_out, r_ref=5.0)):
        assert a.tobytes() == b.tobytes()


def test_near_segment_rows_are_the_plain_product_chain():
    # each output interval multiplies its step matrices in order, the later
    # from the left, and each row applies that product to the row before:
    # the stacked arrays of _rk4_propagate give these bits exactly
    eta = np.linspace(0.0, 1.0, 7)
    edges = np.maximum(0.01 * np.arange(31), 0.01)  # a first step of length 0
    s0, sp0 = np.exp(-0.01 * eta), -0.5 * eta
    s, sp = eigen._rk4_propagate(eta, 1.0, 2.5, 3, edges, 3, s0, sp0)
    P = eigen._rk4_steps(np.vander(eta, 5, increasing=True).T, 1.0, 2.5, 3,
                         edges[:-1], np.diff(edges))
    for i in range(10):
        m = P[:, 3 * i]
        for a in P[:, 3 * i + 1:3 * i + 3].transpose(1, 0, 2):
            m = [a[0] * m[0] + a[1] * m[2], a[0] * m[1] + a[1] * m[3],
                 a[2] * m[0] + a[3] * m[2], a[2] * m[1] + a[3] * m[3]]
        s0, sp0 = m[0] * s0 + m[1] * sp0, m[2] * s0 + m[3] * sp0
        assert s[i].tobytes() == s0.tobytes()
        assert sp[i].tobytes() == sp0.tobytes()


def _stage_steps(etas, mu, beta, n, r, h):
    """The RK4 step matrices stage by stage, as the textbook writes them:
    (P00, P01, P10, P11), each (r rows, eta columns)."""
    r, h = r[:, None], h[:, None]

    def coeffs(x):
        """c, d of A(x) = [[0, 1], [c, d]]."""
        q = (n - 1.0) / x
        return etas * (mu * (1.0 + x) ** (-beta) - q), -2.0 * etas - q

    def times_a(c, d, K, tau):
        """A (I + tau K) for A = [[0, 1], [c, d]]; matrices as 4-tuples."""
        b00, b01 = 1.0 + tau * K[0], tau * K[1]
        b10, b11 = tau * K[2], 1.0 + tau * K[3]
        return b10, b11, c * b00 + d * b10, c * b01 + d * b11

    K1 = (0.0, 1.0, *coeffs(r))
    c_mid, d_mid = coeffs(r + 0.5 * h)
    K2 = times_a(c_mid, d_mid, K1, 0.5 * h)
    K3 = times_a(c_mid, d_mid, K2, 0.5 * h)
    K4 = times_a(*coeffs(r + h), K3, h)
    K = [h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
         for k1, k2, k3, k4 in zip(K1, K2, K3, K4)]
    return 1.0 + K[0], K[1], K[2], 1.0 + K[3]


@pytest.mark.parametrize("h, r_max", [(1e-3, 20.0), (0.1, 240.0)])
def test_rk4_steps_match_the_stage_formulas(h, r_max):
    # near steps (h = dr_ode) and graded-tail steps at their largest: the
    # polynomial coefficients evaluated by one GEMM give the stage formulas'
    # step matrices to round-off, and at eta = 0 they keep (s, s') = (1, 0)
    rng = np.random.default_rng(11)
    r = h * (r_max / h) ** rng.uniform(0.0, 1.0, 400)
    steps = np.full_like(r, h)
    etas = np.append(0.0, rng.uniform(0.0, 1.0, 31))
    powers = np.vander(etas, 5, increasing=True).T
    for n, mu in [(2, 1.0), (3, 1.0), (3, 0.0), (5, 1.0)]:
        P = eigen._rk4_steps(powers, mu, 2.5, n, r, steps)
        for new, ref in zip(P, _stage_steps(etas, mu, 2.5, n, r, steps)):
            np.testing.assert_allclose(new, ref, rtol=0.0, atol=1e-14)
        assert np.all(P[0][:, 0] == 1.0) and np.all(P[2][:, 0] == 0.0)


def test_rk4_steps_bits_independent_of_blas_threads():
    # the coefficient GEMM of a full near block against 512 eta: one and two
    # OpenBLAS threads split the rows and columns, and every entry keeps its bits
    code = ("import hashlib, numpy as np; from strauss_lab.eigen import _rk4_steps; "
            "r = 1e-3 * np.arange(1.0, 641.0); "
            "P = _rk4_steps(np.vander(np.linspace(0.0, 1.0, 512), 5, increasing=True).T, "
            "1.0, 2.5, 3, r, np.full_like(r, 1e-3)); "
            "print(hashlib.sha256(P.tobytes()).hexdigest())")
    digests = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")}
    assert len(digests) == 1


def test_guards():
    for etas, mu, beta, n, r_max in [
            ([-1.0], 1.0, 3.0, 3, 10.0),
            ([1.0, 2.0], 1.0, 3.0, 3, 400.0),  # eta*r_max > 700: psi overflows
            ([1.0], 1.0, 3.0, 1, 10.0),
            ([1.0], -1.0, 3.0, 3, 10.0),
            ([1.0], 1.0, 0.0, 3, 10.0)]:
        with pytest.raises(ValueError):
            psi_hat_batch(etas, mu, beta, n, _grid(r_max))


def test_r_out_must_rise_from_exactly_0():
    # a falling grid sent the graded tail's step below 0, away from r_ref,
    # and the call never returned; a first node of 1e-13 is not 0
    falling = -0.05 * np.arange(101)
    offset = np.append(1e-13, 0.01 * np.arange(1, 11))
    for r_out, why in ((falling, "rising and uniform"), (offset, "start at 0")):
        with pytest.raises(ValueError, match=why):
            psi_hat_batch([1.0], 1.0, 2.5, 3, r_out)


def _mp_gauss_jacobi(m, a, b, x0):
    """40-digit Gauss-Jacobi rule from the classical Jacobi polynomials.

    P_m^(a,b) comes from its three-term recurrence, P_m' from
    (2m+a+b)(1-x^2) P_m' = m(a-b-(2m+a+b)x) P_m + 2(m+a)(m+b) P_{m-1} and P_m''
    from the Jacobi equation.  One Newton step from the float node x0 is
    exact to ~1e-30; P_m' is moved to the new node by its Taylor term, and
    w = 2^(a+b+1) G(m+a+1) G(m+b+1) / (G(m+a+b+1) m! (1-x^2) P_m'(x)^2).
    """
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        s = 2 * m + a + b
        c = (2 ** (a + b + 1) * mpmath.gamma(m + a + 1) * mpmath.gamma(m + b + 1)
             / (mpmath.gamma(m + a + b + 1) * mpmath.factorial(m)))
        nodes, weights = [], []
        for x in map(mpmath.mpf, x0):
            p_prev, p = 1, (a - b + (a + b + 2) * x) / 2
            for k in range(2, m + 1):
                t = 2 * k + a + b
                p_prev, p = p, ((t - 1) * (t * (t - 2) * x + a * a - b * b) * p
                                - 2 * (k + a - 1) * (k + b - 1) * t * p_prev) / (
                                    2 * k * (k + a + b) * (t - 2))
            dp = (m * (a - b - s * x) * p + 2 * (m + a) * (m + b) * p_prev) / (s * (1 - x * x))
            ddp = ((a + b + 2) * x + a - b) * dp - m * (m + a + b + 1) * p
            ddp /= 1 - x * x
            dx = -p / dp
            x, dp = x + dx, dp + ddp * dx
            nodes.append(float(x))
            weights.append(float(c / ((1 - x * x) * dp * dp)))
    return np.array(nodes), np.array(weights)


# the rules the runtime builds: eta rules of the criterion-3 q values, varphi
# for n = 2, 3, 4, the Euler rules of the 2F1 tests, and the smallest cases;
# a literal list, so the test ids do not follow the node-count rule
EULER_Z = (0.5, 0.98)
EULER_NODE_COUNTS = (40, 80)  # _euler_node_count at EULER_Z, pinned below
GAUSS_JACOBI_CASES = list(dict.fromkeys(
    [(64, 0.0, q - 1.0) for q in (0.5, 1.5, 2.5, 2.0 - math.sqrt(2.0))]
    + [(54, 0.0, 0.0), (183, 0.0, 0.0)]
    + [(m, a, a) for m in (40, 64) for a in (-0.5, 0.5)]
    + [(m, c - b - 1.0, b - 1.0)
       for a, b, c in [(0.5, 1.0, 2.0), (2.5, 1.0, 2.0), (0.7, 1.3, 2.1), (1.2, 0.4, 2.5)]
       for m in EULER_NODE_COUNTS]
    + [(1, 0.0, 0.0), (1, 0.3, -0.7), (2, 0.0, 0.0), (2, -0.4, -0.6), (7, 0.25, -0.75)]))


def test_euler_rules_are_the_checked_cases():
    # the Euler rules the 2F1 tests build are the ones checked against mpmath
    counts = testfunc._euler_node_count(np.array(EULER_Z))
    assert tuple(int(m) for m in counts) == EULER_NODE_COUNTS


@pytest.mark.parametrize("m, a, b", GAUSS_JACOBI_CASES)
def test_gauss_jacobi_matches_mpmath(m, a, b):
    x, w = gauss_jacobi(m, a, b)
    x_ref, w_ref = _mp_gauss_jacobi(m, a, b, x)
    np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12)


def test_gauss_jacobi_guards_and_cache():
    for m, a, b in [(0, 0.0, 0.0), (4, -1.0, 0.0), (4, 0.0, -1.5)]:
        with pytest.raises(ValueError):
            gauss_jacobi(m, a, b)
    x, w = gauss_jacobi(16, 0.0, 0.5)
    assert gauss_jacobi(16, 0.0, 0.5)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


# Regression pins, recorded with the step-by-step RK4 integrator (fixed 4e-3
# far-tail step) that the propagator form replaced.  Criterion-3 family:
# q = 0.5, 64 nodes, mu = 1, beta = 2.5, n = 3, r in [0, 20], dr = 0.01.
PIN_NODES = [0, 21, 42, 63]
PIN_RADII = [50, 500, 2000]  # r = 0.5, 5, 20
PIN_LAM = [0.07959050936721149, 0.08913680391435727,
           0.09581507426619688, 0.09775299363648747]
PIN_PSI_HAT = [
    [12.564358515129555, 12.564935698332816, 12.565586669105176],
    [11.318416509436771, 15.565799336140824, 191.0564929438797],
    [10.873820333409773, 67.45551317392726, 1195112.4267373192],
    [10.922257045617116, 181.4087979498996, 150878459.30746883],
]
# phi_profile on the Strauss-critical run's grid at r = 0, 1, 5, 10, 17.02
PIN_PHI_IDX = [0, 100, 500, 1000, 1702]
PIN_PHI = [10.256891010958215, 12.828872902549676, 182.1475565706248,
           13741.850938324957, 9080921.760927938]


def test_criterion3_family_pinned(monkeypatch):
    steps = []
    propagate, tail = eigen._rk4_propagate, eigen._rk4_tail

    def counting(func):
        def run(etas, mu, beta, n, edges, *rest):
            steps.append(edges.size - 1)
            return func(etas, mu, beta, n, edges, *rest)
        return run

    monkeypatch.setattr(eigen, "_rk4_propagate", counting(propagate))
    monkeypatch.setattr(eigen, "_rk4_tail", counting(tail))
    eta, _ = eta_rule(0.5, 64)
    psi_hat, lam = psi_hat_batch(eta, 1.0, 2.5, 3, 0.01 * np.arange(2001))
    np.testing.assert_allclose(lam[PIN_NODES], PIN_LAM, rtol=1e-10)
    np.testing.assert_allclose(psi_hat[np.ix_(PIN_NODES, PIN_RADII)],
                               PIN_PSI_HAT, rtol=1e-10)
    near, tail = steps
    assert near == 20000  # h = dr_ode = 1e-3 out to r = 20
    assert 1e3 < tail < 1e4  # graded steps from r = 20 to r_ref = 240


def test_phi_profile_pinned():
    params = ModelParams(n=3, p=1.0 + np.sqrt(2.0), mu=1.0, beta=2.5,
                         nonlinearity="power_u", eps=1.0, f_amp=6.8,
                         g_amp=6.8)
    phi = phi_profile(params, build_grid(16.0, 0.01).r)
    np.testing.assert_allclose(phi[PIN_PHI_IDX], PIN_PHI, rtol=1e-10)
