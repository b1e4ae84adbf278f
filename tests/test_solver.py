"""Solver checks: oracle convergence, support, energy, blow-up detection."""
from __future__ import annotations

import hashlib
import math
import mmap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from strauss_lab import solver
from strauss_lab.model import ModelParams, RunConfig, build_grid, initial_data
from strauss_lab.solver import _abs_power, exact_undamped_radial3d, mms_order, run, run_block
from strauss_lab.sweep import lifespan_from_levels, run_sweep

from helpers import energy_functional, radial_laplacian


def _oracle_params(**kw):
    base = dict(n=3, mu=0.0, beta=3.0, p=2.0, nonlinearity="none",
                eps=1.0, data_k=4, f_amp=1.0, g_amp=1.0)
    base.update(kw)
    return ModelParams(**base)


def test_zero_data_stays_zero():
    params = ModelParams(nonlinearity="power_u", f_amp=0.0, g_amp=0.0)
    grid = build_grid(2.0, 0.05)
    out = run(params, grid, snapshot_times=[1.0, 2.0])
    assert out.status == "completed"
    for _, u, v in out.snapshots:
        assert np.all(u == 0.0) and np.all(v == 0.0)


def test_radial_laplacian_on_polynomial():
    # Lap(r^2) = 2n in R^n; exact for the second-order stencil
    dr, n = 0.05, 3
    r = np.arange(0, 101) * dr
    lap = radial_laplacian(r**2, dr, n)
    assert np.allclose(lap[:-2], 2.0 * n, atol=1e-9)


def test_oracle_self_consistency_at_origin():
    params = _oracle_params()
    r = np.linspace(0.0, 5.0, 501)
    u0, v0 = exact_undamped_radial3d(params, r, 0.0)
    b0 = params.eps * params.f_amp
    assert u0[0] == pytest.approx(b0)
    assert v0[0] == pytest.approx(b0)
    # strong Huygens: data leave the ball r < 1 + t completely (n = 3)
    u3, _ = exact_undamped_radial3d(params, r, 3.5)
    assert np.max(np.abs(u3[r < 2.0])) == pytest.approx(0.0, abs=1e-15)


# data_k >= 4: the bump is then C^3, so second differences are O(h^2) even
# across the support edges r +- t = 1
@pytest.mark.parametrize("k, f_amp, g_amp", [(4, 2.0, 0.5), (5, 1.0, 1.0),
                                              (6, 0.0, 1.5)])
def test_oracle_profile_matches_data_and_wave_equation(k, f_amp, g_amp):
    params = _oracle_params(data_k=k, f_amp=f_amp, g_amp=g_amp, eps=0.7)
    r = np.linspace(0.0, 5.0, 1001)
    u0, v0 = exact_undamped_radial3d(params, r, 0.0)
    f, g = initial_data(params, r)
    np.testing.assert_allclose(u0, f, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(v0, g, rtol=0.0, atol=1e-14)
    # the axis values are the r -> 0 limits of the off-axis formula
    for t in (0.4, 0.8):
        u_ax, ut_ax = exact_undamped_radial3d(params, np.array([0.0, 1e-7]), t)
        assert u_ax[0] == pytest.approx(u_ax[1], rel=1e-6, abs=1e-12)
        assert ut_ax[0] == pytest.approx(ut_ax[1], rel=1e-6, abs=1e-12)
    # u_tt - u_rr - (2/r) u_r by centered differences: O(h^2) off the axis.
    # Unequal steps in t and r, since the discrete d'Alembert identity would
    # cancel the leading error terms on a square lattice
    ri = np.linspace(0.1, 4.0, 391)
    resid = []
    for h in (0.01, 0.005):
        hr = 0.6 * h

        def u(dr, dt):
            return exact_undamped_radial3d(params, ri + dr, 1.3 + dt)[0]
        u_tt = (u(0.0, h) - 2.0 * u(0.0, 0.0) + u(0.0, -h)) / h**2
        u_rr = (u(hr, 0.0) - 2.0 * u(0.0, 0.0) + u(-hr, 0.0)) / hr**2
        u_r = (u(hr, 0.0) - u(-hr, 0.0)) / (2.0 * hr)
        resid.append(float(np.max(np.abs(u_tt - u_rr - 2.0 / ri * u_r))))
    scale = float(np.max(np.abs(exact_undamped_radial3d(params, ri, 1.3)[0])))
    assert resid[1] < 1e-2 * scale
    assert resid[0] / resid[1] > 3.5  # ~4 for an O(h^2) residual


def test_oracle_requires_undamped_3d():
    with pytest.raises(ValueError):
        exact_undamped_radial3d(_oracle_params(mu=1.0), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        exact_undamped_radial3d(_oracle_params(n=4), np.array([0.0]), 1.0)


def test_solver_second_order_against_oracle():
    params = _oracle_params()
    errs = []
    for dr in (0.04, 0.02):
        grid = build_grid(2.0, dr)
        out = run(params, grid, snapshot_times=[2.0])
        t_s, u_s, _ = out.snapshots[-1]
        exact, _ = exact_undamped_radial3d(params, grid.r, t_s)
        errs.append(float(np.max(np.abs(u_s - exact))))
    assert errs[0] / errs[1] > 3.0  # ~4 for a second-order scheme


def test_mms_orders_fast():
    # coarse two-level smoke; the acceptance test runs the full ladder
    rep = mms_order("linear", drs=(0.04, 0.02, 0.01), t_final=0.5)
    assert 1.7 <= rep.order <= 2.3
    assert rep.errors[0] > rep.errors[-1]


def test_mms_rejects_bad_input():
    with pytest.raises(ValueError):
        mms_order("nope")
    with pytest.raises(ValueError):
        mms_order("linear", drs=(0.02, 0.01))


def test_discrete_support_enforced_and_physical():
    params = _oracle_params(mu=1.0)  # damped linear run
    grid = build_grid(3.0, 0.05)
    snap = [1.0, 2.0, 3.0]
    out = run(params, grid, snapshot_times=snap, enforce_support=True)
    for t_s, u_s, _ in out.snapshots:
        outside = grid.r > t_s + 1.0 + 2.0 * grid.dr
        assert np.all(u_s[outside] == 0.0)
    # without enforcement the spurious tail stays far below scheme accuracy
    out2 = run(params, grid, enforce_support=False)
    assert out2.support_violation < grid.dr**2


def _energies(params, grid, stride):
    """Energy of the snapshots at every stride-th step before the last."""
    out = run(params, grid, snapshot_times=grid.dt * np.arange(0, grid.n_steps, stride))
    return np.array([energy_functional(u, v, grid.dr, params.n)
                     for _, u, v in out.snapshots])


def test_energy_monotone_linear_damped():
    params = _oracle_params(mu=1.0)
    E = _energies(params, build_grid(4.0, 0.02), 10)
    assert E[0] > 0.0
    assert np.all(np.diff(E) <= 1e-12 * E[0])


def test_energy_drift_undamped_second_order():
    params = _oracle_params(mu=0.0)
    drifts = []
    for dr in (0.04, 0.02):
        grid = build_grid(4.0, dr)
        E = _energies(params, grid, max(1, int(0.2 / grid.dt)))
        drifts.append(float(np.max(np.abs(E - E[0])) / E[0]))
    assert drifts[1] < 2e-3          # small in absolute terms
    assert drifts[0] / drifts[1] > 3.0  # and vanishing at second order


def test_energy_functional_matches_manual():
    dr, n = 0.01, 3
    r = np.arange(0, 301) * dr
    u = np.exp(-(r**2))
    v = 0.5 * np.exp(-(r**2))
    manual = 4.0 * math.pi * np.trapezoid(
        0.5 * (v**2 + np.gradient(u, dr) ** 2) * r**2, dx=dr)
    assert energy_functional(u, v, dr, n) == pytest.approx(float(manual), rel=1e-12)


def test_blow_up_detection_and_threshold():
    params = ModelParams(n=3, p=2.0, mu=0.0, beta=3.0, nonlinearity="power_u",
                         eps=1.0, f_amp=20.0, g_amp=20.0)
    grid = build_grid(6.0, 0.02)
    out_lo = run(params, grid, threshold=1e4)
    out_hi = run(params, grid, threshold=1e8)
    assert out_lo.status == out_hi.status == "blew_up"
    assert out_lo.t_end <= out_hi.t_end
    # near blow-up growth is so fast the two thresholds are hit within ~0.1
    assert out_hi.t_end - out_lo.t_end < 0.2


def test_lifespan_richardson_and_monotonicity():
    cfg = RunConfig(n=3, p=2.0, mu=0.0, beta=3.0, nonlinearity="power_u",
                    f_amp=20.0, g_amp=20.0, t_max=15.0, dr=0.04, refine_levels=2)
    r1, r2 = run_sweep(cfg, [0.5, 1.0])
    for res in (r1, r2):
        assert not res.censored and not res.unreliable
        T_fine, T_prev = res.T_levels[-1], res.T_levels[-2]
        assert res.T_extrapolated == pytest.approx(T_fine + (T_fine - T_prev) / 3.0)
        assert res.uncertainty == pytest.approx(abs(T_fine - T_prev))
    assert r1.T_extrapolated > r2.T_extrapolated  # smaller data live longer


def test_lifespan_censored():
    cfg = RunConfig(n=3, p=2.0, mu=0.0, beta=3.0, nonlinearity="power_u",
                    f_amp=1.0, g_amp=1.0, t_max=3.0, dr=0.05, refine_levels=1)
    (res,) = run_sweep(cfg, [0.05])
    assert res.censored
    assert math.isnan(res.T_extrapolated)


def test_taylor_step_exit():
    # max|u| at t = dt is 1.9487: the Taylor start is step 0 of the step
    # loop, so the run leaves there through the exit every step takes
    params = ModelParams(n=3, p=2.0, mu=1.0, beta=3.0, nonlinearity="power_u",
                         eps=1.0, f_amp=1.0, g_amp=20.0)
    grid = build_grid(2.0, 0.05, 1.0)
    out = run(params, grid, threshold=1.5, snapshot_times=[0.0, grid.dt])
    assert out.status == "blew_up" and out.t_end == grid.dt == 0.05
    assert out.max_abs_u.tolist() == [1.0, pytest.approx(1.9487, abs=1e-4)]
    assert [t for t, _, _ in out.snapshots] == [0.0, 0.05]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stencil_spectrum_real_and_cfl_half_stable_up_to_n5(n):
    # leapfrog is stable iff every eigenvalue of the stencil is real and
    # negative with dt^2 |lambda| <= 4: both hold at cfl 0.5 up to n = 5,
    # while from n = 6 some eigenvalues are complex and no dt is stable
    A = np.stack([radial_laplacian(e, 1.0, n) for e in np.eye(60)], axis=1)
    ev = np.linalg.eigvals(A)
    assert (np.abs(ev.imag).max() > 0.1) == (n >= 6)
    assert 2.0 / math.sqrt(-ev.real.min()) > 0.5


def test_linear_run_completes_at_n5_and_is_refused_at_n6():
    params = ModelParams(n=5, mu=0.0, nonlinearity="none")
    out = run(params, build_grid(40.0, 0.02))
    assert out.status == "completed" and out.t_end == 40.0
    assert float(out.max_abs_u.max()) == pytest.approx(0.506, abs=1e-3)
    with pytest.raises(ValueError, match="n <= 5"):
        run(replace(params, n=6), build_grid(1.0, 0.1))


def test_step_above_half_dr_refused_but_the_unit_step_of_n3():
    # a hand-built grid cannot take n = 2, 4 or 5 into the unit step's
    # instability, nor n = 3 into a step between dr/2 and dr
    grid = build_grid(1.0, 0.1)
    for n, dt_over_dr in [(2, 1.0), (4, 1.0), (5, 1.0), (3, 0.75), (3, 0.51)]:
        with pytest.raises(ValueError, match=r"dt <= dr/2, or dt = dr for n = 3"):
            run(ModelParams(n=n, nonlinearity="none"),
                replace(grid, dt=dt_over_dr * grid.dr))
    assert run(ModelParams(n=3), replace(grid, dt=grid.dr)).status == "completed"


@pytest.mark.parametrize("dr, bound", [(0.02, 2e-6), (0.01, 5e-7)])
def test_free_wave_at_the_unit_step(dr, bound):
    # n = 3 leapfrog at dt = dr moves v = r*u without dispersion: the error
    # against d'Alembert at t = 20 is 1.669e-6 and 4.168e-7, about 1% of
    # dt = dr/2's 1.584e-4 and 4.042e-5.  The origin rule alone would make
    # the run unstable; it reports blew_up at t = 0.44
    params = _oracle_params()
    grid = RunConfig(**vars(params), t_max=20.0, dr=dr).grid()
    assert grid.dt == dr
    out = run(params, grid, snapshot_times=[20.0])
    assert out.status == "completed"
    t, u, _ = out.snapshots[-1]
    exact, _ = exact_undamped_radial3d(params, grid.r, t)
    assert t == 20.0 and np.max(np.abs(u - exact)) <= bound


def test_long_lifespan_at_the_unit_step():
    # criterion 5's mu = 1 sweep at eps 0.1357: T = 74.498 from dt = dr/2 at
    # dr 0.01 and 0.005 with the /3 step; one dt = dr level at dr 0.02 reads
    # 74.54, where dt = dr/2 reads 75.71 (+1.6%)
    cfg = RunConfig(n=3, mu=1.0, beta=3.0, p=2.0, nonlinearity="power_u",
                    eps=0.1357, data_k=4, f_amp=20.0, g_amp=20.0, t_max=80.0)
    out = run(cfg.model_params(), cfg.grid(0.02), threshold=cfg.u_threshold)
    assert out.status == "blew_up"
    assert out.t_end == pytest.approx(74.498, rel=1e-3)


def test_completed_run_ends_at_its_last_step():
    # dt = 0.05 and round(1.03 / dt) = 21 steps: the run ends at 1.05, not 1.03
    out = run(ModelParams(), build_grid(1.03, 0.1), snapshot_times=[1.03])
    assert out.status == "completed"
    assert out.t_end == out.snapshots[-1][0] == 21 * 0.05


# --- the |x|^p rule -------------------------------------------------------------

@pytest.mark.parametrize("p, max_ulp", [
    (2.0, 0),                  # a square, as numpy evaluates |x| ** 2
    (1.0 + math.sqrt(2.0), 0),  # pow itself
    (1.5, 1),
    (2.5, 2),
    (3.0, 2),
    (5.0, 0),                  # beyond p = 4: pow
])
def test_abs_power_matches_pow(p, max_ulp):
    rng = np.random.default_rng(7)
    tiny = np.logspace(-323.0, -100.0, 400)  # subnormal x and subnormal x^p
    x = np.concatenate([rng.standard_normal(2000) * 10.0 ** rng.uniform(-8, 8, 2000),
                        tiny, -tiny, [0.0, -0.0, 1e-300, -1e-300, 5e-324, -3e-310]])
    ref = np.abs(x) ** p
    out, scratch = x.copy(), np.empty_like(x)
    _abs_power(p)(out, out, scratch)  # in place, as the power_ut step calls it
    assert np.all(np.abs(out - ref) <= max_ulp * np.spacing(ref))


# --- the folded step against the unfolded arithmetic --------------------------------

# u snapshots at t = 1, 2, 3 and max |u| over the first 90% of the steps,
# recorded with the update evaluated unfolded, node by node, as
# u+ = (2u/dt^2 - (1/dt^2 - V/(2dt)) u- + Lap_h(u) + N)/D
UNFOLDED_RUNS = Path(__file__).parent / "data" / "unfolded_step.npz"


@pytest.mark.parametrize("mode, p, amp, status, t_end", [
    ("none", 2.0, 1.0, "completed", 6.0),
    ("power_u", 2.0, 20.0, "blew_up", 5.85),
    ("power_ut", 1.5, 1.0, "completed", 6.0),
])
def test_folded_step_matches_unfolded_arithmetic(mode, p, amp, status, t_end):
    params = ModelParams(n=3, mu=1.0, beta=3.0, p=p, nonlinearity=mode,
                         eps=0.5, f_amp=amp, g_amp=amp)
    out = run(params, build_grid(6.0, 0.02), snapshot_times=[1.0, 2.0, 3.0])
    assert out.status == status and out.t_end == t_end
    with np.load(UNFOLDED_RUNS) as ref:
        ref_u, ref_max = ref[f"{mode}_u"], ref[f"{mode}_max"]
    assert [t for t, _, _ in out.snapshots] == [1.0, 2.0, 3.0]
    # round-off is relative to the snapshot's scale, not to each node's value
    u = np.stack([u for _, u, _ in out.snapshots])
    err = np.max(np.abs(u - ref_u), axis=1)
    assert np.all(err <= 1e-11 * np.max(np.abs(ref_u), axis=1))
    np.testing.assert_allclose(out.max_abs_u[:ref_max.size], ref_max,
                               rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("case, order", [
    # observed with the unfolded arithmetic
    ("linear", 2.012567359632484),
    ("power_u", 2.012163282839351),
    ("power_ut", 2.0100324880069564),
])
def test_mms_orders_match_unfolded_arithmetic(case, order):
    assert mms_order(case).order == pytest.approx(order, abs=1e-6)


# --- block runs -------------------------------------------------------------------

def _assert_same_outcome(a, b):
    # bytes, not values: a block row must not flip the sign of a zero either
    assert a.status == b.status and a.t_end == b.t_end
    assert a.max_abs_u.tobytes() == b.max_abs_u.tobytes()
    assert a.support_violation == b.support_violation
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, ua, va), (tb, ub, vb) in zip(a.snapshots, b.snapshots):
        assert ta == tb and ua.tobytes() == ub.tobytes() and va.tobytes() == vb.tobytes()


def _assert_block_matches_single_runs(grid, mode, p, amp, eps, statuses):
    base = ModelParams(n=3, p=p, mu=1.0, beta=3.0, nonlinearity=mode,
                       f_amp=amp, g_amp=amp)
    params = [replace(base, eps=e) for e in eps]
    # a snapshot every step catches the blow-up and the final snapshots
    kw = dict(threshold=1e4,
              snapshot_times=grid.dt * np.arange(grid.n_steps + 1))
    block = run_block(params, grid, **kw)
    assert tuple(out.status for out in block) == statuses
    assert len({out.t_end for out in block}) == len(eps)
    for q, out in zip(params, block):
        _assert_same_outcome(out, run(q, grid, **kw))


@pytest.mark.parametrize("mode, p, amp, eps, statuses", [
    # rows blow up at different steps; the first rows leave the block first
    ("power_u", 2.0, 20.0, (1.0, 0.7, 0.5), ("blew_up",) * 3),
    ("power_ut", 1.5, 2.0, (3.0, 2.0, 2.5), ("blew_up",) * 3),
    # the middle row is censored at t_max
    ("power_u", 2.2, 20.0, (0.7, 0.05, 1.0), ("blew_up", "completed", "blew_up")),
    # |u|^2.5 by multiplies and a square root
    ("power_u", 2.5, 8.0, (1.0, 0.9, 0.5), ("blew_up", "blew_up", "completed")),
    # the middle row leaves first and the row after it moves up
    ("power_u", 2.0, 20.0, (0.5, 1.0, 0.7), ("blew_up",) * 3),
])
def test_block_rows_match_single_runs(mode, p, amp, eps, statuses):
    _assert_block_matches_single_runs(build_grid(6.0, 0.04), mode, p, amp, eps, statuses)


@pytest.mark.parametrize("mode, p, amp, eps, t_max, dr", [
    # eps = 1.1 leaves at step 67 (t = 1.36), the step on which the window
    # reaches 62 nodes and the row stride grows from 63 to 96
    ("power_u", 2.0, 20.0, (0.5, 1.1, 0.6, 0.76), 8.0, 0.04),
    # the row stride grows 14 times, with four live rows down to one
    ("power_ut", 1.5, 2.0, (2.0, 3.0, 1.0, 2.5), 10.0, 0.02),
])
def test_block_rows_match_single_runs_as_the_stride_grows(mode, p, amp, eps, t_max, dr):
    _assert_block_matches_single_runs(build_grid(t_max, dr), mode, p, amp, eps,
                                      ("blew_up",) * len(eps))


@pytest.mark.parametrize("mode, p, amp, eps, t_max, dr, statuses", [
    # the stride grows as rows leave, as in the dt = dr/2 cases above
    ("power_u", 2.0, 20.0, (0.5, 1.1, 0.6, 0.76), 8.0, 0.04, ("blew_up",) * 4),
    ("power_ut", 1.5, 2.0, (2.0, 3.0, 1.0, 2.5), 10.0, 0.02, ("blew_up",) * 4),
    ("power_u", 2.2, 20.0, (0.7, 0.05, 1.0), 6.0, 0.04,
     ("blew_up", "completed", "blew_up")),
])
def test_block_rows_match_single_runs_at_the_unit_step(mode, p, amp, eps, t_max,
                                                        dr, statuses):
    # the even origin value is written into every live row of the block
    _assert_block_matches_single_runs(build_grid(t_max, dr, 1.0), mode, p, amp,
                                      eps, statuses)


@pytest.mark.parametrize("mode, p, amp, eps, t_max, dr, lasts, digest", [
    # the middle row leaves first, at step 35, on the step (34) the row
    # stride grows; the last row then moves up and leaves at step 68, on
    # the next growth (67)
    ("power_u", 2.0, 20.0, (0.5, 1.09, 0.755), 8.0, 0.04, (146, 35, 68),
     "b347e0641c7af5565dccbc8e1cbf065e38c20e99b8bd515de3d318f6bf19247c"),
    # the first row leaves first, then the one that moved up into its
    # place, at step 233, as the stride grows (232)
    ("power_ut", 1.5, 2.0, (3.0, 2.25, 2.0), 10.0, 0.02, (182, 233, 257),
     "7595cc1305895f050cdb528870e52873da2d11e1f89a364f4433cb780d3ba82c"),
])
def test_unit_step_block_histories_pinned(mode, p, amp, eps, t_max, dr, lasts, digest):
    # status, t_end and the max|u| history of every row, bit for bit, as a
    # block moves its rows' histories when one leaves
    base = ModelParams(n=3, p=p, mu=1.0, beta=3.0, nonlinearity=mode,
                       f_amp=amp, g_amp=amp)
    block = run_block([replace(base, eps=e) for e in eps], build_grid(t_max, dr, 1.0),
                      threshold=1e4)
    assert tuple(out.max_abs_u.size - 1 for out in block) == lasts
    h = hashlib.sha256()
    for out in block:
        h.update(out.status.encode())
        h.update(np.float64(out.t_end).tobytes())
        h.update(out.max_abs_u.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("mode, p, amp, eps, t_max, dr, cfl, threshold, statuses", [
    # the middle eps is censored: its coarse row completes at step 150
    # while the fine rows run on to step 300
    ("power_u", 2.2, 20.0, (0.7, 0.05, 1.0), 6.0, 0.04, 1.0, 1e4,
     (("blew_up", "completed", "blew_up"),) * 2),
    # three levels at dt = dr/2; coarse rows leave before finer ones
    ("power_ut", 1.5, 2.0, (2.0, 3.0, 1.0, 2.5), 6.0, 0.04, 0.5, 1e4,
     (("blew_up", "blew_up", "completed", "blew_up"),) * 3),
    ("none", 2.0, 1.0, (1.0, 0.5), 3.0, 0.04, 1.0, 1e4, (("completed",) * 2,) * 2),
    # max|u| overflows before it passes the threshold: unstable rows, and a
    # censored coarse row beside them
    ("power_u", 2.0, 20.0, (1.0, 0.7, 0.5), 6.0, 0.04, 1.0, 1e300,
     (("unstable", "unstable", "completed"), ("unstable", "blew_up", "unstable"))),
    ("power_u", 2.0, 20.0, (1.0, 0.7, 0.5), 6.0, 0.04, 1.0, 1e4, (("blew_up",) * 3,)),
    # the coarse grid takes one step: its rows complete after the Taylor start
    ("power_u", 2.0, 20.0, (1.0, 0.05), 0.08, 0.08, 1.0, 1e4, (("completed",) * 2,) * 2),
])
def test_ladder_block_rows_match_single_runs(mode, p, amp, eps, t_max, dr, cfl,
                                             threshold, statuses):
    # every eps on every level of a dr ladder in one block, the rows given
    # eps by eps, so each grid's rows are gathered from across the block
    grids = [build_grid(t_max, dr / 2 ** lev, cfl) for lev in range(len(statuses))]
    base = ModelParams(n=3, p=p, mu=1.0, beta=3.0, nonlinearity=mode,
                       f_amp=amp, g_amp=amp)
    rows = [(replace(base, eps=e), grid) for e in eps for grid in grids]
    kw = dict(threshold=threshold,
              snapshot_times=grids[-1].dt * np.arange(grids[-1].n_steps + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        block = run_block([q for q, _ in rows], [grid for _, grid in rows], **kw)
        singles = [run(q, grid, **kw) for q, grid in rows]
    # statuses are listed level by level, the rows eps by eps
    assert [out.status for out in block] == [s for per_eps in zip(*statuses)
                                             for s in per_eps]
    for (q, grid), out, single in zip(rows, block, singles):
        assert out.grid is grid and out.params == q
        _assert_same_outcome(out, single)


def test_block_groups_equal_grids_by_value():
    # two equal grids built apart are one grid of the block, given eps by eps
    base = ModelParams(n=3, p=2.0, mu=1.0, beta=3.0, nonlinearity="power_u",
                       f_amp=20.0, g_amp=20.0)
    params = [replace(base, eps=e) for e in (1.0, 0.7, 0.5, 0.9)]
    grid, again = build_grid(6.0, 0.04), build_grid(6.0, 0.04)
    kw = dict(threshold=1e4, snapshot_times=grid.dt * np.arange(grid.n_steps + 1))
    apart = run_block(params, [grid, again, grid, again], **kw)
    shared = run_block(params, grid, **kw)
    assert [out.grid for out in apart] == [grid, again, grid, again]
    assert apart[1].grid is again
    for a, b in zip(apart, shared):
        _assert_same_outcome(a, b)


@pytest.mark.parametrize("mode, p, eps, f_amp, g_amp, threshold, lasts", [
    # the linear rows "blow up" as u passes a low threshold
    ("none", 2.0, 1.0, 0.0, 1.0, 0.15, (5, 10)),
    ("power_u", 2.5, 1.0, 8.0, 8.0, 1e4, (52, 104)),
    ("power_ut", 1.5, 3.0, 2.0, 2.0, 1e4, (93, 182)),
])
def test_step_writes_start_on_64_byte_lines(monkeypatch, mode, p, eps, f_amp, g_amp,
                                            threshold, lasts):
    # An out-of-place ufunc whose output starts off a 64-byte line costs
    # about twice as much a node, so every such write into the block's
    # buffers (fresh mmap pages) starts on one; in-place ops are exempt.
    # The bits are the same either way: only the addresses can show it.
    writes = []

    def on_block_pages(x):
        while isinstance(x, np.ndarray):
            x = x.base
        return isinstance(x, memoryview) and isinstance(x.obj, mmap.mmap)

    def recorded(ufunc):
        def call(*args, out=None, **kw):
            if (out is not None and on_block_pages(out)
                    and not any(x is out for x in args)):
                writes.append((ufunc.__name__, out.ctypes.data % 64))
            return ufunc(*args, out=out, **kw)
        return call

    wrapped = {name: recorded(getattr(np, name))
               for name in ("multiply", "add", "subtract", "abs", "sqrt")}
    proxy = type("NumpyProxy", (), {
        "__getattr__": lambda self, name: wrapped.get(name) or getattr(np, name)})()
    monkeypatch.setattr(solver, "np", proxy)
    base = ModelParams(n=3, p=p, mu=1.0, beta=3.0, nonlinearity=mode, eps=eps,
                       f_amp=f_amp, g_amp=g_amp)
    grids = [build_grid(10.0 if mode == "power_ut" else 6.0, dr, 1.0)
             for dr in (0.04, 0.02)]
    block = run_block([base, base], grids, threshold=threshold)
    assert [(out.status, out.max_abs_u.size - 1) for out in block] == \
        [("blew_up", last) for last in lasts]
    # the P, M and Bd products of every step were checked, at least
    assert sum(name == "multiply" for name, _ in writes) >= 3 * (max(lasts) - 1)
    assert [w for w in writes if w[1] != 0] == []


def test_support_window_holds_in_every_row():
    # run() is a block's last row, so the tests above cannot see a defect
    # there; here every row must hold +0 beyond r = t + 1 + 2dr.  eps = 1.1
    # leaves at step 67, as the row stride grows, and it grows twice more
    # with the last row live
    grid = build_grid(8.0, 0.04)
    base = ModelParams(n=3, p=2.0, mu=1.0, beta=3.0, nonlinearity="power_u",
                       f_amp=20.0, g_amp=20.0)
    block = run_block([replace(base, eps=e) for e in (0.5, 1.1, 0.6)], grid,
                      threshold=1e4,
                      snapshot_times=grid.dt * np.arange(grid.n_steps + 1))
    assert [out.t_end for out in block] == pytest.approx([5.82, 1.36, 4.12])
    for out in block:
        for t, u, _ in out.snapshots:
            beyond = u[grid.r > t + 1.0 + 2.0 * grid.dr + 1e-9]
            assert beyond.size and beyond.tobytes() == bytes(8 * beyond.size)


def test_block_without_support_enforcement():
    grid = build_grid(3.0, 0.05)
    params = [_oracle_params(mu=1.0, eps=e) for e in (1.0, 0.3)]
    block = run_block(params, grid, enforce_support=False,
                      snapshot_times=[0.0, 1.5, 3.0])
    assert block[0].support_violation > 0.0
    for q, out in zip(params, block):
        _assert_same_outcome(out, run(q, grid, enforce_support=False,
                                      snapshot_times=[0.0, 1.5, 3.0]))


def test_block_rejects_mixed_problems():
    grid = build_grid(1.0, 0.1)
    with pytest.raises(ValueError):
        run_block([ModelParams(p=2.0), ModelParams(p=3.0)], grid)
    with pytest.raises(ValueError, match="at least one problem"):
        run_block([], grid)
    # a ladder's grids share dt/dr; these step at dr/2 and at dr
    with pytest.raises(ValueError, match="share dt/dr"):
        run_block([ModelParams()] * 2, [grid, build_grid(1.0, 0.05, 1.0)])
    with pytest.raises(ValueError, match="one grid per problem"):
        run_block([ModelParams()] * 2, [grid])


def test_wide_initial_data_cut_to_window():
    # data reaching past the t = 0 window are cut like the scheme's tail, and
    # the first centered velocity differences the cut data the solver used
    grid = build_grid(1.0, 0.05)
    u0 = (1.0 - np.minimum(grid.r / 2.0, 1.0) ** 2) ** 4
    v0 = 0.0 * u0
    initial = (u0.copy(), v0.copy())
    out = run(_oracle_params(), grid, initial=initial,
              snapshot_times=grid.dt * np.arange(grid.n_steps + 1))
    assert out.snapshots[0][0] == 0.0
    for t_s, u_s, _ in out.snapshots:
        assert np.all(u_s[grid.r > t_s + 1.0 + 2.0 * grid.dr] == 0.0)
    t_1, _, ut_1 = out.snapshots[1]
    beyond = grid.r > t_1 + 1.0 + 2.0 * grid.dr
    assert t_1 == grid.dt
    assert np.abs(ut_1[beyond]).max() <= np.abs(ut_1[~beyond]).max()
    assert np.array_equal(initial[0], u0) and np.array_equal(initial[1], v0)


# --- an exact lifespan: data constant in r, mu = 0 ----------------------------
# The center follows u'' = N(u) until the Dirichlet row's signal reaches it.
# That signal moves one node per step, speed 2 at cfl 0.5, so from r_max ~ 11
# it arrives at t ~ 5.5, after both T*.

ORACLE_DRS = (0.04, 0.02, 0.01, 0.005, 0.0025)


def _constant_data_t_end(params, dr, u0, v0):
    grid = build_grid(10.0, dr)
    one = np.ones(grid.r.size)
    out = run_block([params], grid, initial=[(u0 * one, v0 * one)],
                    enforce_support=False)[0]
    assert out.status == "blew_up"
    return out.t_end, grid.dt


def _power_u_T_star(p):
    # u'' = u^p, u(0) = 1, u'(0) = 0: T* = sqrt((p+1)/2) B(1/2 - 1/(p+1), 1/2)/(p+1)
    a = 0.5 - 1.0 / (p + 1.0)
    return (math.sqrt((p + 1.0) / 2.0) * math.gamma(a) * math.gamma(0.5)
            / math.gamma(a + 0.5) / (p + 1.0))


@pytest.mark.parametrize("dr, bound", zip(ORACLE_DRS, (
    0.02553, 0.01553, 0.005523, 0.0005226, 0.001978)))
def test_exact_lifespan_power_u(dr, bound):
    # the bounds are the errors of the grid t_end measured when they were pinned
    p = 2.0
    T_star = _power_u_T_star(p)
    assert T_star == pytest.approx(2.974477425, abs=1e-9)
    t_end, _ = _constant_data_t_end(_oracle_params(nonlinearity="power_u", p=p),
                                    dr, 1.0, 0.0)
    assert abs(t_end - T_star) <= bound


@pytest.mark.parametrize("dr", ORACLE_DRS)
def test_exact_lifespan_power_ut(dr):
    # u'' = |u'|^p, u'(0) = 1: T* = 1/(p-1) = 2 at p = 1.5, reached 3 steps late
    t_end, dt = _constant_data_t_end(_oracle_params(nonlinearity="power_ut", p=1.5),
                                     dr, 0.0, 1.0)
    assert t_end == pytest.approx(2.0 + 3.0 * dt, abs=1e-9)


# --- the Richardson step on the exact lifespan: levels dr and dr/2 -------------

def _richardson(params, dr, u0, v0):
    """lifespan_from_levels on the constant-data blow-up times at dr and dr/2,
    with the fine level's t_end and dt."""
    (T_coarse, _), (T_fine, dt) = (_constant_data_t_end(params, h, u0, v0)
                                   for h in (dr, dr / 2.0))
    res = lifespan_from_levels(1.0, (T_coarse, T_fine))
    assert res.T_levels == (T_coarse, T_fine)
    assert not (res.censored or res.unreliable)
    assert res.uncertainty == abs(T_fine - T_coarse)
    return res.T_extrapolated, T_fine, dt


@pytest.mark.parametrize("dr", [0.04, 0.02, 0.01])
def test_richardson_step_exact_power_ut(dr):
    # each level ends 3 steps after T* = 2, so the step lands on 2 + 2 dt_fine,
    # nearer T* than the fine level's 2 + 3 dt_fine
    T_ext, _, dt = _richardson(_oracle_params(nonlinearity="power_ut", p=1.5),
                               dr, 0.0, 1.0)
    assert T_ext == pytest.approx(2.0 + 2.0 * dt, abs=1e-9)


@pytest.mark.parametrize("dr", [0.04, 0.02])
def test_richardson_step_exact_power_u(dr):
    # the step moves T nearer T* (errors 1.219e-2 and 2.189e-3 against the
    # fine level's 1.552e-2 and 5.523e-3).  From dr 0.01 on, t_end's
    # quantisation to the grid outweighs the second-order error, and the
    # step overshoots
    T_star = _power_u_T_star(2.0)
    T_ext, T_fine, _ = _richardson(_oracle_params(nonlinearity="power_u", p=2.0),
                                   dr, 1.0, 0.0)
    assert abs(T_ext - T_star) < abs(T_fine - T_star)
