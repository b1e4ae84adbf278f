"""b_q construction against closed forms, identities, and 2F1 cross-checks."""
from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from dataclasses import astuple, dataclass
from scipy.special import exp1, gammainc, hyp2f1

from strauss_lab import cli, testfunc
from strauss_lab.model import ModelParams, potential
from strauss_lab.testfunc import (BqRule, BqTable, IdentityReport, _check_rows,
                                  bq_rules, build_bq, eta_rule, hyper2f1,
                                  hyper2f1_compensation, verify_bq_asymptotics,
                                  verify_bq_identities)


def _params(mu=1.0, beta=2.5, n=3):
    return ModelParams(n=n, mu=mu, beta=beta, p=2.0, nonlinearity="power_u",
                       eps=1.0)


# --- quadrature rule -----------------------------------------------------------

def test_eta_rule_polynomial_exactness():
    q, m = 0.7, 6
    nodes, weights = eta_rule(q, m)
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    assert np.all(weights > 0.0)
    # Gauss rule with weight eta^(q-1): exact for integrands of degree 2m-1
    for k in range(2 * m):
        exact = 1.0 / (q + k)
        got = float(np.sum(weights * nodes**k))
        assert got == pytest.approx(exact, rel=1e-13)


def test_eta_rule_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        eta_rule(0.0, 8)
    with pytest.raises(ValueError):
        eta_rule(-1.0, 8)


# --- closed-form oracles for b_q ------------------------------------------------

def test_bq_origin_incomplete_gamma_undamped():
    # mu = 0: psi_hat(0) = |S^2| = 4 pi, so b_q(t, 0) is an incomplete gamma
    q = 1.3
    params = _params(mu=0.0, beta=3.0)
    t_grid = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
    r_grid = np.linspace(0.0, 1.0, 11)
    table = build_bq(q, params, t_grid, r_grid)
    exact = 4.0 * math.pi * math.gamma(q) * gammainc(q, t_grid) / t_grid**q
    np.testing.assert_allclose(table.values[:, 0], exact, rtol=1e-6)


def test_bq_q1_exponential_integral_undamped():
    # mu = 0, q = 1, r > 0:
    # b_1(t, r) = (2 pi / r) [log((t+r)/(t-r)) - E1(t-r) + E1(t+r)]
    params = _params(mu=0.0, beta=3.0)
    t_grid = np.array([2.0, 4.0, 8.0])
    r_grid = np.linspace(0.0, 1.5, 16)
    table = build_bq(1.0, params, t_grid, r_grid)
    j = 10  # r = 1.0
    r = r_grid[j]
    exact = (2.0 * math.pi / r) * (np.log((t_grid + r) / (t_grid - r))
                                   - exp1(t_grid - r) + exp1(t_grid + r))
    np.testing.assert_allclose(table.values[:, j], exact, rtol=1e-9)


def test_bq_node_count_converged():
    params = _params()
    t_grid = np.array([1.0, 5.0, 15.0])
    r_grid = np.linspace(0.0, 3.0, 31)
    a = build_bq(0.8, params, t_grid, r_grid, nodes=64)
    b = build_bq(0.8, params, t_grid, r_grid, nodes=128)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-8)


# --- table construction contracts ----------------------------------------------

def test_build_bq_validation():
    params = _params()
    t = np.array([1.0, 2.0])
    good_r = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        build_bq(0.0, params, t, good_r)
    with pytest.raises(ValueError):
        build_bq(1.0, params, t, np.linspace(0.5, 1.0, 6))  # not from 0
    with pytest.raises(ValueError):
        build_bq(1.0, params, t, np.array([0.0, 0.1, 0.3]))  # nonuniform
    for short in (np.array([]), np.array([0.0])):
        with pytest.raises(ValueError):
            build_bq(1.0, params, t, short)


def test_bq_table_validate():
    params = _params()
    t = np.array([1.0, 2.0, 3.0])
    r = np.linspace(0.0, 2.0, 21)
    table = build_bq(1.1, params, t, r)
    _check_rows(table.values)  # strictly positive, strictly decreasing in t
    with pytest.raises(ArithmeticError):
        _check_rows(np.flip(table.values, axis=0))
    for value, why in ((table.values[0, 4], "decreasing"), (np.nan, "positivity")):
        values = table.values.copy()
        values[1, 4] = value  # equal to its t-neighbour, or NaN
        with pytest.raises(ArithmeticError, match=why):
            _check_rows(values)


# --- identities ------------------------------------------------------------------

def test_bq_identities_coarse():
    params = _params()
    dt = dr = 0.02
    t = 1.0 + dt * np.arange(int(round(7.0 / dt)) + 1)     # [1, 8]
    r = dr * np.arange(int(round(8.0 / dr)) + 1)
    rep = verify_bq_identities(build_bq(0.5, params, t, r))
    assert rep.worst <= 1e-3
    assert rep.res_wave <= 1e-3


def _whole_rectangle_residuals(tq, tq1, tq2):
    """The four identity residuals at every interior (t, r) point of the
    cone, 0 elsewhere, from one whole-rectangle evaluation of the formulas."""
    t, r, n = tq.t_grid, tq.r_grid, tq.n
    dt, dr = t[1] - t[0], r[1] - r[0]
    V = potential(r, tq.mu, tq.beta)
    b, b_up, b_dn = tq.values[1:-1], tq.values[2:], tq.values[:-2]
    b1, b2 = tq1.values[1:-1], tq2.values[1:-1]
    bt = (b_up - b_dn) / (2.0 * dt)
    btt = (b_up - 2.0 * b + b_dn) / (dt * dt)
    br = np.empty_like(b)
    br[:, 2:-2] = (b[:, :-4] - 8.0 * b[:, 1:-3]
                   + 8.0 * b[:, 3:-1] - b[:, 4:]) / (12.0 * dr)
    br[:, 1] = (-3.0 * b[:, 0] - 10.0 * b[:, 1] + 18.0 * b[:, 2]
                - 6.0 * b[:, 3] + b[:, 4]) / (12.0 * dr)
    br[:, -2] = (b[:, -1] - b[:, -3]) / (2.0 * dr)
    lap = np.full_like(b, np.nan)
    lap[:, 1:-1] = ((b[:, 2:] - 2.0 * b[:, 1:-1] + b[:, :-2]) / (dr * dr)
                    + (n - 1) / r[1:-1] * br[:, 1:-1])
    scale_w = V * b1 + b2
    errs = (np.abs(bt + b1) / b1, np.abs(btt - b2) / b2,
            np.abs(lap - V * b1 - b2) / scale_w,
            np.abs(btt - lap - V * bt) / scale_w)
    cone = r[None, 1:-1] <= t[1:-1, None]
    return [np.where(cone, e[:, 1:-1], 0.0) for e in errs]


@pytest.mark.parametrize("t0", [0.0, 1.0])
def test_identity_window_matches_whole_rectangle(t0, monkeypatch):
    # smooth positive tables with a spike just beyond the cone of row 64, the
    # last row of the first 64-row block: the five-point r stencil of that
    # row's cone-edge column reads it, so the largest residual sits there,
    # and a window one column narrower turns that stencil into the boundary
    # formula, which does not.  Each is e^{-t} (1+r)^{-q}, a rule of one eta
    # node whose one-term GEMM rounds alike in every block.
    t = t0 + 0.02 * np.arange(200)
    r = 0.05 * np.arange(120)
    rules = {q: BqRule(q=q, n=3, mu=1.0, beta=2.5, eta_nodes=np.ones(1),
                       weights=np.ones(1), psi_cache=(1.0 + r[None, :]) ** -q,
                       r_grid=r)
             for q in (0.5, 1.5, 2.5)}
    tables = [BqTable(**vars(rule), t_grid=t, values=rule.at(t))
              for rule in rules.values()]
    monkeypatch.setattr(testfunc, "bq_rules",
                        lambda qs, *args: tuple(rules[q] for q in qs))
    edge = int(np.searchsorted(r, t[64], "right")) - 1
    tables[0].values[64, edge + 2] *= 1e3
    residuals = _whole_rectangle_residuals(*tables)
    row, col = np.unravel_index(np.argmax(residuals[2]), residuals[2].shape)
    assert (row + 1, col + 1) == (64, edge)
    reference = IdentityReport(*(np.max(e) for e in residuals))
    assert verify_bq_identities(tables[0]) == reference


def test_bq_identities_need_interior_points():
    # a centered difference in t needs 3 rows, the five-point r stencil 5
    # radii; fewer leave nothing to check, which must not read as a pass
    params = _params()

    def table(t, r):
        return build_bq(1.0, params, t, r, nodes=16)

    r5 = np.linspace(0.0, 0.4, 5)
    with pytest.raises(ValueError, match="2 times"):
        verify_bq_identities(table(np.array([1.0, 1.1]), r5))
    with pytest.raises(ValueError, match="4 radii"):
        verify_bq_identities(table(np.array([1.0, 1.1, 1.2]), r5[:4]))
    rep = verify_bq_identities(table(np.array([1.0, 1.1, 1.2]), r5))
    assert np.isfinite(rep.worst)


def test_bq_identities_refuse_nonuniform_t():
    # the t differences use the first step: growing steps are bad input,
    # not an identity failure (this grid read worst = 6.76 when accepted)
    t = 1.0 + 0.02 * np.arange(80) ** 1.05
    tq = build_bq(0.5, _params(), t, 0.05 * np.arange(41), nodes=16)
    with pytest.raises(ValueError, match="uniform"):
        verify_bq_identities(tq)


def test_bq_identities_refuse_jittered_t():
    # steps of 0.01 +- 4e-9 (8e-7 relative): an absolute slack of 1e-8 once
    # admitted this grid, and res_dtt read 1.64e-4 against 4.19e-6 on the
    # clean grid
    k = np.arange(32)
    t = 1.0 + 0.01 * k + 4e-9 * (k % 2)
    tq = build_bq(0.5, _params(), t, 0.01 * np.arange(101))
    with pytest.raises(ValueError, match="uniform"):
        verify_bq_identities(tq)


def test_identities_from_rules_match_tables():
    # build_bq is bq_rules plus one GEMM, so a rule's rows are the table's;
    # the partners the check builds and reads block by block give the
    # whole-rectangle residuals of tables with tq's eta-node count
    params = _params()
    t = 1.0 + 0.02 * np.arange(301)  # four full 64-row blocks and a partial one
    r = 0.02 * np.arange(351)
    tables = [build_bq(q, params, t, r, nodes=32) for q in (0.5, 1.5, 2.5)]
    for table in tables[1:]:
        rule, = bq_rules((table.q,), params, r, nodes=32)
        np.testing.assert_array_equal(rule.at(t), table.values)
        np.testing.assert_array_equal(rule.psi_cache, table.psi_cache)
    got = astuple(verify_bq_identities(tables[0]))
    want = [np.max(e) for e in _whole_rectangle_residuals(*tables)]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rows", [1, 64])
def test_identities_bits_independent_of_strip_height(rows, monkeypatch):
    # strips only group a block's rows: one row or a whole block a strip gives
    # the 16-row strips' residuals, bit for bit, on the grid of four full
    # blocks and a partial one (its last strip is partial at 16 and 64 rows)
    params = _params()
    t = 1.0 + 0.02 * np.arange(301)
    tq = build_bq(0.5, params, t, 0.02 * np.arange(351), nodes=32)
    assert testfunc.STRIP_ROWS == 16
    default = verify_bq_identities(tq)
    monkeypatch.setattr(testfunc, "STRIP_ROWS", rows)
    assert verify_bq_identities(tq) == default


def test_identity_nan_residual_fails(monkeypatch, capsys):
    # a NaN residual in one strip, the second of the second block, is the
    # report's worst and fails bq; np.fmax would have read it as 0, a pass
    strip = testfunc._strip_residuals

    def nan_at_81(tq, b1, b2, Vw, lo, hi):
        res = strip(tq, b1, b2, Vw, lo, hi)
        return (res[0], math.nan, *res[2:]) if lo == 81 else res

    monkeypatch.setattr(testfunc, "_strip_residuals", nan_at_81)
    t = 1.0 + 0.02 * np.arange(130)  # two 64-row blocks: rows 1-64, 65-128
    rep = verify_bq_identities(build_bq(0.5, _params(), t, 0.05 * np.arange(41),
                                        nodes=16))
    assert math.isnan(rep.res_dtt) and math.isnan(rep.worst)
    assert np.isfinite([rep.res_dt, rep.res_lap, rep.res_wave]).all()
    assert cli.main(["bq", "--q", "0.5", "--t-max", "3.58", "--dr", "0.02",
                     "--nodes", "16"]) == 1
    out = capsys.readouterr().out
    assert "identity dtt: max residual nan FAIL" in out
    assert out.count(" pass ") == 3


def test_identities_shoot_both_partners_at_once(monkeypatch):
    # b_{q+1} and b_{q+2} come from one psi_hat_batch call over their nodes
    calls = []
    shoot = testfunc.psi_hat_batch

    def counting(etas, *args, **kwargs):
        calls.append(len(etas))
        return shoot(etas, *args, **kwargs)

    tq = build_bq(0.5, _params(), 1.0 + 0.05 * np.arange(41),
                  0.05 * np.arange(41), nodes=16)
    monkeypatch.setattr(testfunc, "psi_hat_batch", counting)
    assert np.isfinite(verify_bq_identities(tq).worst)
    assert calls == [32]


def test_joint_shoot_rows_match_separate_shoots():
    # at 64 nodes every family's smallest node is below 0.1, so the joint
    # shoot has each family's own matching radius and its rows bit for bit
    params = _params()
    t = 1.0 + 0.05 * np.arange(101)
    r = 0.05 * np.arange(121)
    joint = bq_rules((1.5, 2.5), params, r)
    for rule in joint:
        alone, = bq_rules((rule.q,), params, r)
        assert rule.eta_nodes.min() < 0.1
        assert rule.eta_nodes.tobytes() == alone.eta_nodes.tobytes()
        assert rule.weights.tobytes() == alone.weights.tobytes()
        assert rule.psi_cache.tobytes() == alone.psi_cache.tobytes()
        assert rule.at(t).tobytes() == alone.at(t).tobytes()


def test_identities_build_no_whole_partner_table(monkeypatch):
    # the partner rules give their rows one 64-row block at a time, and each
    # block's arrays are freed before the next block, so the identity walk
    # holds a few (64, nr) arrays, nothing near one (nt, nr) table; the
    # rules are shot before the trace, whose peak is then the walk's alone
    params = _params()
    t = 1.0 + 0.001 * np.arange(8192)  # 128 blocks
    r = 0.05 * np.arange(101)
    tq = build_bq(0.5, params, t, r, nodes=16)
    rules = dict(zip((1.5, 2.5), bq_rules((1.5, 2.5), params, r, 16)))
    monkeypatch.setattr(testfunc, "bq_rules",
                        lambda qs, *args: tuple(rules[q] for q in qs))
    tracemalloc.start()
    try:
        rep = verify_bq_identities(tq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(rep.worst)
    # two (66, nr) partner blocks and ten (16, nr) strip arrays: the walk
    # peaked at 217,592 bytes with 16-row strips, 532,344 with whole blocks
    assert peak < (2 * 66 + 10 * 16) * r.size * 8


@dataclass(frozen=True)
class _PlantedRule(BqRule):
    """A rule whose row at time `row_t` is `scale` times its row at `src_t`."""

    row_t: float = 0.0
    src_t: float = 0.0
    scale: float = 1.0

    def at(self, t):
        out = super().at(t)
        out[t == self.row_t] = self.scale * super().at(np.array([self.src_t]))[0]
        return out


@pytest.mark.parametrize("partner, row, src, scale, why", [
    (1, 65, 64, 1.001, "decreasing"),  # rises from row 64, the first block's last, to 65
    (2, 0, 0, -1.0, "positivity"),  # the first row, below every block
    (1, 129, 129, 0.0, "positivity"),  # the last row, above every block
])
def test_identities_check_every_partner_row(partner, row, src, scale, why,
                                           monkeypatch):
    # a partner rule's rows are checked like a whole table: every row
    # positive, every pair of t-neighbours strictly decreasing, including
    # rows 0 and nt-1, which no residual reads, and pairs across blocks
    t = 1.0 + 0.02 * np.arange(130)  # two 64-row blocks: rows 1-64, 65-128
    tq = build_bq(0.5, _params(), t, 0.05 * np.arange(41), nodes=16)
    assert np.isfinite(verify_bq_identities(tq).worst)
    rules = testfunc.bq_rules

    def planted(qs, *args):
        return tuple(_PlantedRule(**vars(rule), row_t=t[row], src_t=t[src],
                                  scale=scale) if q == tq.q + partner else rule
                     for q, rule in zip(qs, rules(qs, *args)))

    monkeypatch.setattr(testfunc, "bq_rules", planted)
    with pytest.raises(ArithmeticError, match=why):
        verify_bq_identities(tq)


# --- asymptotics ------------------------------------------------------------------

def test_bq_asymptotic_brackets():
    params = _params()
    dt, t_hi = 0.125, 25.0
    t = 1.0 + dt * np.arange(int(round((t_hi - 1.0) / dt)) + 1)
    r = 0.125 * np.arange(int(round(t_hi / 0.125)) + 1)
    below = verify_bq_asymptotics(build_bq(0.5, params, t, r))
    above = verify_bq_asymptotics(build_bq(2.0, params, t, r))
    assert below.regime == "q_below" and above.regime == "q_above"
    assert below.spread <= 10.0
    assert above.spread <= 10.0
    with pytest.raises(ValueError):
        verify_bq_asymptotics(build_bq(1.0, params, t, r))  # q = (n-1)/2


def test_compensation_tightens_bracket():
    params = _params()
    dt = 0.125
    t = 1.0 + dt * np.arange(int(round(24.0 / dt)) + 1)
    r = 0.125 * np.arange(int(round(25.0 / 0.125)) + 1)
    table = build_bq(0.5, params, t, r)
    plain = verify_bq_asymptotics(table)
    lo, hi = hyper2f1_compensation(table)
    assert hi / lo < plain.spread


# --- Gauss hypergeometric -------------------------------------------------------

def test_hyper2f1_elementary_oracles():
    for z in (0.1, 0.5, 0.9, -0.5):
        assert hyper2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log1p(-z) / z, rel=1e-13)
    assert hyper2f1(0.7, 1.3, 2.1, 0.0) == 1.0
    # a <-> b symmetry
    assert hyper2f1(0.4, 1.2, 2.5, 0.6) == pytest.approx(
        hyper2f1(1.2, 0.4, 2.5, 0.6), rel=1e-13)


def test_hyper2f1_scipy_crosscheck():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.uniform(0.1, 2.5)
        b = rng.uniform(0.1, 2.0)
        c = b + rng.uniform(0.1, 2.0)
        z = rng.uniform(-0.8, 0.95)
        assert hyper2f1(a, b, c, z) == pytest.approx(
            float(hyp2f1(a, b, c, z)), rel=1e-9)


@pytest.mark.parametrize("a, b, c", [(0.5, 1.0, 2.0), (2.5, 1.0, 2.0),
                                     (0.7, 1.3, 2.1), (1.2, 0.4, 2.5)])
def test_hyper2f1_routes_match_mpmath(a, b, c):
    # z up to 0.98 covers the cone's 2r/(t+R+r) <= 42/43 ~ 0.977 at t = 20
    z = np.array([-0.8, -0.3, 0.0, 0.2, 0.5, 0.7, 0.9, 0.95, 42.0 / 43.0, 0.98])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyp2f1(a, b, c, zi)) for zi in z])
    np.testing.assert_allclose(testfunc._hyper2f1_series(a, b, c, z), ref,
                               rtol=1e-12)
    np.testing.assert_allclose(testfunc._hyper2f1_euler(a, b, c, z), ref,
                               rtol=1e-12)


@pytest.fixture(scope="module")
def small_table():
    t = 1.0 + 0.5 * np.arange(21)
    r = 0.5 * np.arange(25)
    return build_bq(0.5, _params(), t, r, nodes=32)


def test_compensation_matches_pointwise_loop(small_table):
    tab = small_table
    R = testfunc.R
    ratios = [tab.values[i, j] * (t + R + r) ** tab.q
              / hyper2f1(tab.q, 1.0, 2.0, 2.0 * r / (t + R + r))
              for i, t in enumerate(tab.t_grid)
              for j, r in enumerate(tab.r_grid) if r <= t + 1.0]
    lo, hi = hyper2f1_compensation(tab)
    assert lo == pytest.approx(min(ratios), rel=1e-14)
    assert hi == pytest.approx(max(ratios), rel=1e-14)


def test_compensation_checks_every_point(small_table, monkeypatch):
    # one cone point's Euler value off by 1e-8 must fail the whole check
    euler = testfunc._hyper2f1_euler

    def off_at_max(a, b, c, z):
        return euler(a, b, c, z) * np.where(z == z.max(), 1.0 + 1e-8, 1.0)

    monkeypatch.setattr(testfunc, "_hyper2f1_euler", off_at_max)
    with pytest.raises(ArithmeticError):
        hyper2f1_compensation(small_table)


def test_hyper2f1_validation():
    with pytest.raises(ValueError):
        hyper2f1(1.0, 2.0, 2.0, 0.5)  # needs c > b
    with pytest.raises(ValueError):
        hyper2f1(1.0, -0.2, 1.0, 0.5)  # needs b > 0
    with pytest.raises(ValueError):
        hyper2f1(1.0, 1.0, 2.0, 1.0)  # |z| < 1
