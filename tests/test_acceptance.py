"""Acceptance battery: the nine headline checks, one pass/fail line each.

Each criterion prints a single summary line (bypassing capture) and enforces
its runtime budget.  Heavy sweeps run at the resolutions the budgets assume;
everything else reuses the session fixtures.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.special import gammainc

from strauss_lab.cli import main as cli_main
from strauss_lab.eigen import psi_hat_batch
from strauss_lab.exponents import critical_exponents, gamma, theory_lifespan
from strauss_lab.functionals import (inequality_check, ode_lemma_fit,
                                     oracle_samples, weak_residual)
from strauss_lab.model import ModelParams, RunConfig, build_grid
from strauss_lab.solver import exact_undamped_radial3d, mms_order, run
from strauss_lab.sweep import (SWEEP_HEADER, csv_text, fit_powerlaw, fit_table,
                               run_sweep, sweep_rows, write_csv)
from strauss_lab.testfunc import (build_bq, verify_bq_asymptotics,
                                  verify_bq_identities)

from helpers import energy_functional


def _finish(capsys, num: int, budget: float, t0: float, fails: list,
            detail: str):
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < budget
    line = (f"[criterion {num}] {'PASS' if ok else 'FAIL'} "
            f"in {elapsed:.1f}s (budget {budget:.0f}s): "
            f"{detail if not fails else '; '.join(fails)}")
    with capsys.disabled():
        print(line)
    assert not fails, "; ".join(fails)
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.1f}s"


def _check(fails: list, cond: bool, msg: str):
    if not cond:
        fails.append(msg)


def test_criterion_1_exponent_arithmetic(capsys):
    t0 = time.perf_counter()
    fails = []
    e3, e2 = critical_exponents(3), critical_exponents(2)
    _check(fails, abs(e3.p_strauss - (1.0 + math.sqrt(2.0))) < 1e-12,
           "pS(3) != 1+sqrt(2)")
    _check(fails, abs(e2.p_strauss - (3.0 + math.sqrt(17.0)) / 2.0) < 1e-12,
           "pS(2) != (3+sqrt(17))/2")
    for n in range(2, 9):
        e = critical_exponents(n)
        _check(fails, e.p_fujita == pytest.approx(1.0 + 2.0 / n, abs=1e-12),
               f"pF({n})")
        _check(fails, e.p_glassey == pytest.approx((n + 1.0) / (n - 1.0),
                                                   abs=1e-12), f"pG({n})")
        _check(fails, abs(gamma(e.p_strauss, n)) < 1e-9,
               f"gamma(pS({n}),{n}) = {gamma(e.p_strauss, n):.2e}")
    # branch classifier: exponents exactly as the closed forms evaluate
    low = theory_lifespan(2, 1.5, "power_u")  # p < 2/(n-1): n = 2 only
    _check(fails, low.kind == "polynomial" and low.exponent ==
           (1.5 - 1.0) / (2 + 1.0 - (2 - 1.0) * 1.5), "low power_u branch")
    n = 3
    near = theory_lifespan(n, 1.4, "power_u")
    _check(fails, near.branch == "power_u_subcritical" and near.exponent ==
           2.0 * 1.4 * (1.4 - 1.0) / gamma(1.4, n), "power_u branch at p = 1.4")
    sub = theory_lifespan(n, 2.0, "power_u")
    _check(fails, sub.exponent == 2.0 * 2.0 * 1.0 / gamma(2.0, n),
           "subcritical power_u branch")
    crit = theory_lifespan(n, e3.p_strauss, "power_u")
    _check(fails, crit.kind == "exponential" and crit.exponent ==
           e3.p_strauss * (e3.p_strauss - 1.0), "critical power_u branch")
    sup = theory_lifespan(n, 3.0, "power_u")
    _check(fails, sup.kind == "infinite" and math.isnan(sup.exponent),
           "supercritical power_u branch")
    dsub = theory_lifespan(n, 1.5, "power_ut")
    _check(fails, dsub.kind == "polynomial" and dsub.exponent ==
           1.0 / (1.0 / 0.5 - 1.0), "subcritical power_ut branch")
    dcrit = theory_lifespan(n, 2.0, "power_ut")
    _check(fails, dcrit.kind == "exponential" and dcrit.exponent == 1.0,
           "critical power_ut branch")
    _check(fails, theory_lifespan(n, 2.5, "power_ut").kind == "infinite",
           "supercritical power_ut branch")
    _finish(capsys, 1, 1.0, t0, fails,
            "closed forms, gamma roots n=2..8, all branches exact")


def test_criterion_2_eigenfunction_oracle(capsys):
    t0 = time.perf_counter()
    fails = []
    r = 0.01 * np.arange(4001)
    psi_hat, lam = psi_hat_batch([1.0], 0.0, 3.0, 3, r)
    exact = np.ones_like(r)
    exact[1:] = np.sinh(r[1:]) / r[1:]
    rel = float(np.max(np.abs(psi_hat[0] * lam[0] - exact) / exact))
    _check(fails, rel < 1e-8, f"sinh(r)/r oracle rel err {rel:.2e}")
    sups, gaps, lams = [], [], []
    for r_max in (40.0, 80.0):
        r = 0.01 * np.arange(int(round(r_max / 0.01)) + 1)
        psi_hat, lam = psi_hat_batch([1.0], 1.0, 3.0, 3, r)
        w = (1.0 + r) * np.exp(-r) * psi_hat[0] * lam[0]
        sups.append(float(np.max(np.abs(w))))
        lams.append(float(lam[0]))
        # far-field law w -> 2 pi lambda (1 + 1/r) at the outer radius
        gap = abs(w[-1] / (1.0 + 1.0 / r[-1]) / (2.0 * math.pi * lam[0]) - 1.0)
        gaps.append(float(gap))
        _check(fails, gap < 2e-4, f"far-field law off by {gap:.2e} at r_max {r_max:g}")
    # psi = psi_hat lambda is the same function for either r_max, so the
    # doubling can move only its far-field normalisation lambda
    drift = abs(lams[1] - lams[0]) / lams[0]
    _check(fails, math.isfinite(sups[0]) and sups[0] > 0.0, "w not bounded")
    _check(fails, drift <= 0.01, f"lambda drift {drift:.2e} on doubling")
    _finish(capsys, 2, 10.0, t0, fails,
            f"oracle rel {rel:.1e}; sup|w|={sups[0]:.4g}; lambda drift "
            f"{drift:.1e}; far-field gaps {gaps[0]:.1e}, {gaps[1]:.1e}")


def test_criterion_3_bq_validity(capsys):
    t0 = time.perf_counter()
    fails = []
    params = ModelParams(n=3, mu=1.0, beta=2.5, p=2.0,
                         nonlinearity="power_u", eps=1.0)
    q = 0.5
    worsts = []
    for h in (1e-2, 5e-3):
        t = 1.0 + h * np.arange(int(round(19.0 / h)) + 1)
        r = h * np.arange(int(round(20.0 / h)) + 1)
        worsts.append(verify_bq_identities(build_bq(q, params, t, r)).worst)
    _check(fails, worsts[0] <= 1e-3,
           f"identity residual {worsts[0]:.2e} at h=1e-2")
    gain = worsts[0] / worsts[1]
    _check(fails, gain >= 3.0, f"halving gain {gain:.2f} < 3")
    h = 0.1
    t = 1.0 + h * np.arange(int(round(49.0 / h)) + 1)
    r = h * np.arange(int(round(51.0 / h)) + 1)
    spreads = {}
    for qa in (0.5, 2.0):
        rep = verify_bq_asymptotics(build_bq(qa, params, t, r))
        spreads[qa] = rep.spread
        _check(fails, rep.spread <= 10.0,
               f"asymptotic spread {rep.spread:.2f} at q={qa}")
    undamped = ModelParams(n=3, mu=0.0, beta=3.0, p=2.0,
                           nonlinearity="power_u", eps=1.0)
    tg = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
    table0 = build_bq(1.3, undamped, tg, np.linspace(0.0, 1.0, 11))
    closed = 4.0 * math.pi * math.gamma(1.3) * gammainc(1.3, tg) / tg**1.3
    gap = float(np.max(np.abs(table0.values[:, 0] / closed - 1.0)))
    _check(fails, gap < 1e-6, f"incomplete-gamma check {gap:.2e}")
    _finish(capsys, 3, 120.0, t0, fails,
            f"residual {worsts[0]:.1e} -> {worsts[1]:.1e} (x{gain:.1f}); "
            f"spreads q=0.5: {spreads[0.5]:.2f}, q=2: {spreads[2.0]:.2f}; "
            f"gamma gap {gap:.1e}")


def test_criterion_4_solver_validation(capsys):
    t0 = time.perf_counter()
    fails = []
    orders = {}
    for case in ("linear", "power_u", "power_ut"):
        orders[case] = mms_order(case).order
        _check(fails, 1.8 <= orders[case] <= 2.2,
               f"{case} MMS order {orders[case]:.3f}")
    oracle = ModelParams(n=3, mu=0.0, beta=3.0, p=2.0, nonlinearity="none",
                         eps=1.0, f_amp=1.0, g_amp=1.0)
    errs = []
    for dr in (0.04, 0.02):
        grid = build_grid(2.0, dr)
        out = run(oracle, grid, snapshot_times=[2.0])
        t_s, u_s, _ = out.snapshots[-1]
        exact, _ = exact_undamped_radial3d(oracle, grid.r, t_s)
        errs.append(float(np.max(np.abs(u_s - exact))))
    _check(fails, errs[0] / errs[1] >= 3.0,
           f"oracle error ratio {errs[0] / errs[1]:.2f}")
    damped = ModelParams(n=3, mu=1.0, beta=2.5, p=2.0,
                         nonlinearity="power_u", eps=0.5)
    grid = build_grid(6.0, 0.02)
    strict = run(damped, grid, enforce_support=True)
    _check(fails, strict.support_violation == 0.0, "enforced support leaked")
    free = run(damped, grid, enforce_support=False)
    _check(fails, free.support_violation < grid.dr**2,
           f"per-step support tail {free.support_violation:.2e}")
    lin = ModelParams(n=3, mu=1.0, beta=2.5, p=2.0, nonlinearity="none",
                      eps=1.0)
    grid = build_grid(4.0, 0.02)
    out = run(lin, grid, snapshot_times=grid.dt * np.arange(grid.n_steps))
    E = np.array([energy_functional(u, v, grid.dr, lin.n)
                  for _, u, v in out.snapshots])
    mono = bool(np.all(np.diff(E) <= 1e-12 * E[0]))
    _check(fails, mono, "damped energy not monotone")
    _finish(capsys, 4, 120.0, t0, fails,
            f"orders lin/pu/put {orders['linear']:.2f}/{orders['power_u']:.2f}"
            f"/{orders['power_ut']:.2f}; oracle x{errs[0] / errs[1]:.1f}; "
            f"support tail {free.support_violation:.1e}; energy monotone")


def _sweep(mu: float, beta: float, p: float, nonlinearity: str, amp: float,
           t_max: float, dr: float):
    cfg = RunConfig(n=3, mu=mu, beta=beta, p=p, nonlinearity=nonlinearity,
                    eps=1.0, data_k=4, f_amp=amp, g_amp=amp, t_max=t_max,
                    dr=dr, refine_levels=2)
    return cfg, run_sweep(cfg, np.geomspace(0.2, 1.0, 6))


def _damping_delays_blowup(fails: list, undamped, damped) -> list:
    """T(mu > 0)/T(mu = 0) per eps of two sweeps on one grid: damping must
    delay every blow-up, so each ratio must exceed 1 (NaN fails too)."""
    ratios = [r1.T_extrapolated / r0.T_extrapolated
              for r0, r1 in zip(undamped, damped)]
    _check(fails, all(q > 1.0 for q in ratios),
           f"damped/undamped T {[round(q, 4) for q in ratios]} not all above 1")
    return ratios


def test_criterion_5_subcritical_strauss_scaling(capsys):
    t0 = time.perf_counter()
    fails = []
    cfg0, res0 = _sweep(0.0, 3.0, 2.0, "power_u", 20.0, 45.0, 5e-3)
    _check(fails, all(not (r.censored or r.unreliable) for r in res0),
           "mu=0 sweep has censored/unreliable points")
    fit0 = fit_table(cfg0, sweep_rows(res0))
    _check(fails, fit0.theory_exponent == pytest.approx(2.0), "theory exponent")
    _check(fails, abs(fit0.slope - 2.0) <= 0.3,
           f"mu=0 slope {fit0.slope:.4f} not within 2 +/- 0.3")
    _check(fails, fit0.r_squared >= 0.95, f"mu=0 r2 {fit0.r_squared:.4f}")
    cfg1, res1 = _sweep(1.0, 3.0, 2.0, "power_u", 20.0, 45.0, 5e-3)
    _check(fails, all(not (r.censored or r.unreliable) for r in res1),
           "mu=1 sweep has censored/unreliable points")
    fit1 = fit_table(cfg1, sweep_rows(res1), tolerance=0.4)
    _check(fails, abs(fit1.slope - 2.0) <= 0.4,
           f"mu=1 slope {fit1.slope:.4f} not within 2 +/- 0.4")
    # upper-bound shape consistency: damped T under a fixed multiple of the
    # undamped fit at every eps
    C = 1.5
    for r1 in res1:
        cap = C * float(fit0.predict_T(r1.eps))
        _check(fails, r1.T_extrapolated <= cap,
               f"T(eps={r1.eps:.3g})={r1.T_extrapolated:.3g} above "
               f"{C}x mu=0 fit {cap:.3g}")
    ratios = _damping_delays_blowup(fails, res0, res1)
    _finish(capsys, 5, 900.0, t0, fails,
            f"mu=0 slope {fit0.slope:.4f} (r2 {fit0.r_squared:.5f}); "
            f"mu=1 slope {fit1.slope:.4f}; all T under {1.5}x mu=0 curve; "
            f"damped/undamped T {min(ratios):.4f}..{max(ratios):.4f}")


def test_criterion_6_glassey_scaling(capsys):
    t0 = time.perf_counter()
    fails = []
    cfg, res = _sweep(1.0, 3.0, 1.5, "power_ut", 2.0, 50.0, 1e-2)
    _check(fails, all(not (r.censored or r.unreliable) for r in res),
           "sweep has censored/unreliable points")
    fit = fit_table(cfg, sweep_rows(res), tolerance=0.25)
    _check(fails, fit.theory_exponent == pytest.approx(1.0), "theory exponent")
    _check(fails, abs(fit.slope - 1.0) <= 0.25,
           f"slope {fit.slope:.4f} not within 1 +/- 0.25")
    _check(fails, fit.r_squared >= 0.95, f"r2 {fit.r_squared:.4f}")
    _, res0 = _sweep(0.0, 3.0, 1.5, "power_ut", 2.0, 50.0, 1e-2)
    ratios = _damping_delays_blowup(fails, res0, res)
    _finish(capsys, 6, 900.0, t0, fails,
            f"slope {fit.slope:.4f}, r2 {fit.r_squared:.5f}; "
            f"damped/undamped T {min(ratios):.4f}..{max(ratios):.4f}")


def test_criterion_7_critical_case_evidence(capsys, strauss_crit_samples,
                                            glassey_crit_samples):
    t0 = time.perf_counter()
    fails = []
    devs = {}
    for p1, p2 in ((2.0, 2.0), (2.5, 2.5), (2.5, 2.0)):
        fit = ode_lemma_fit(p1, p2)
        dev = abs(fit.fitted_exponent - fit.theory_exponent) \
            / fit.theory_exponent
        devs[(p1, p2)] = dev
        _check(fails, dev <= 0.10,
               f"ODE lemma ({p1},{p2}) slope off by {dev:.1%}")
    crit = inequality_check(strauss_crit_samples, "ineq_4_15")
    _check(fails, np.all(crit.ratio > 0.0) and crit.spread <= 20.0,
           f"critical ratio spread {crit.spread:.2f}")
    sign = inequality_check(glassey_crit_samples, "ineq_5_1")
    _check(fails, bool(np.all(sign.lhs >= 0.0)),
           f"pointwise positivity violated: min {float(sign.lhs.min()):.2e}")
    _finish(capsys, 7, 600.0, t0, fails,
            f"ODE slope devs {max(devs.values()):.1%} max; "
            f"critical spread {crit.spread:.2f}; positivity exact")


def test_criterion_8_weak_solution_fidelity(capsys):
    t0 = time.perf_counter()
    fails = []
    params = ModelParams(n=3, mu=0.0, beta=3.0, p=2.0, nonlinearity="none",
                         eps=1.0, f_amp=1.0, g_amp=1.0)
    levels = {}
    for m in (1, 2):
        t = np.linspace(0.0, 8.0, 80 * m + 1)
        r = np.linspace(0.0, 10.0, 100 * m + 1)
        samples = oracle_samples(params, t, r)
        levels[m] = {kind: weak_residual(samples, kind, T=6.0)
                     for kind in ("eta2p", "eta2p_Phi", "dtpsi")}
    ratios = {kind: levels[1][kind] / levels[2][kind]
              for kind in levels[1]}
    for kind, ratio in ratios.items():
        _check(fails, ratio >= 3.0, f"{kind} residual ratio {ratio:.2f} < 3")
        _check(fails, levels[2][kind] < 1e-2,
               f"{kind} fine residual {levels[2][kind]:.2e}")
    _finish(capsys, 8, 120.0, t0, fails,
            "residual ratios " + ", ".join(f"{k} x{v:.1f}"
                                           for k, v in ratios.items()))


def test_criterion_9_infrastructure_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    fails = []
    cfg = RunConfig(n=3, mu=0.0, beta=3.0, p=2.2, nonlinearity="power_u",
                    eps=1.0, f_amp=20.0, g_amp=20.0, t_max=8.0, dr=0.04,
                    refine_levels=2)
    texts = []
    for jobs in (1, 2, 3):
        results = run_sweep(cfg, np.geomspace(0.5, 1.0, 4), jobs)
        texts.append(csv_text(SWEEP_HEADER, sweep_rows(results)))
    _check(fails, texts[0] == texts[1] == texts[2],
           "sweep CSV differs across worker counts")
    eps = np.geomspace(0.2, 1.0, 6)
    fit = fit_powerlaw(list(zip(eps, 3.0 * eps**-2.0)), theory_exponent=2.0)
    _check(fails, abs(fit.slope - 2.0) <= 1e-12,
           f"synthetic fit slope error {abs(fit.slope - 2.0):.2e}")
    _check(fails, abs(math.exp(fit.intercept) - 3.0) <= 1e-12,
           "synthetic fit intercept")
    sweep_csv = tmp_path / "synthetic.csv"
    write_csv(str(sweep_csv), SWEEP_HEADER,
              [(e, 3.0 * e**-2.0, 0.0, False, False) for e in eps])
    rc_bad = cli_main(["fit", "--in", str(sweep_csv),
                       "--theory-exponent", "3.0"])
    _check(fails, rc_bad != 0, "injected fit failure did not set exit code")
    rc_bq = cli_main(["bq", "--q", "1.0", "--t-max", "3", "--dr", "0.1",
                      "--dt", "0.1", "--nodes", "32", "--threshold", "1e-9"])
    _check(fails, rc_bq != 0, "injected bq failure did not set exit code")
    capsys.readouterr()  # swallow the injected-failure chatter
    _finish(capsys, 9, 60.0, t0, fails,
            "CSV identical for 1/2/3 workers; fit exact; injected failures "
            f"exit {rc_bad} and {rc_bq}")
