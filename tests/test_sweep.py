"""Sweep orchestration, CSV cells, power-law fits, and SVG plots."""
from __future__ import annotations

import concurrent.futures
import hashlib
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from strauss_lab import sweep
from strauss_lab.exponents import critical_exponents, theory_lifespan
from strauss_lab.model import RunConfig
from strauss_lab.sweep import (FIT_MIN_POINTS, SWEEP_HEADER, LifespanResult,
                               ScalingFit, csv_text, emit_plot, fit_powerlaw,
                               fit_table, format_value, lifespan_from_levels,
                               read_sweep_csv, run_sweep, sweep_rows, write_csv)


def _blowup_config(**kw):
    base = dict(n=3, mu=0.0, beta=3.0, p=critical_exponents(3).p_strauss,
                nonlinearity="power_u", eps=1.0, f_amp=20.0, g_amp=20.0,
                t_max=12.0, dr=0.02, refine_levels=2)
    base.update(kw)
    return RunConfig(**base)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --- CSV cells ------------------------------------------------------------------

def test_format_value_cells():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(float("nan")) == "NaN"
    assert format_value(np.float64(np.nan)) == "NaN"
    assert format_value(0.1) == "%.17g" % 0.1
    assert float(format_value(math.pi)) == math.pi  # round-trip
    assert format_value(3) == "3"


@settings(deadline=None)
@given(x=st.floats())
@example(-0.0)
@example(5e-324)  # the least subnormal
@example(-2.225e-308)
@example(math.inf)
@example(-math.inf)
def test_format_value_float_round_trip(x):
    # every float cell reads back bit for bit; every NaN is written "NaN"
    cell = format_value(x)
    if math.isnan(x):
        assert cell == "NaN"
    else:
        assert _bits(float(cell)) == _bits(x)
    assert format_value(np.float64(x)) == cell


def test_csv_text_shape():
    text = csv_text(("a", "b"), [(1.0, True), (float("nan"), False)])
    lines = text.split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,true"
    assert lines[2] == "NaN,false"
    assert text.endswith("\n") and "\r" not in text
    with pytest.raises(ValueError):
        csv_text(("a", "b"), [(1.0,)])


_R = np.linspace(0.0, 0.4, 5)
_X = np.array([np.nan, -0.0, 1.5])
_R6 = np.linspace(0.0, 0.5, 6)
ARRAY_ROWS = {
    # solve snapshots (t, r, u, ut): r repeats, u and ut hold NaN, inf, -0.0
    "snapshots": (("t", "r", "u", "ut"), [
        (0.0, _R, np.array([1.0, 0.1, -0.0, 1e-300, 0.0]), np.zeros(5)),
        (0.25, _R, np.array([np.nan, 2.5, np.inf, -np.inf, 1.0 / 3.0]),
         np.array([0.5, np.nan, -1e20, 7.0, -np.nan])),
    ]),
    # str (with "nan" and "%"), bool and NaN scalars beside array columns;
    # x repeats, then changes
    "mixed": (("name", "flag", "missing", "x", "y"), [
        ("banana nan 5%", True, math.nan, _X, np.array([1e-300, -np.inf, 2.0])),
        ("nan", np.False_, np.float64(np.nan), _X, np.array([0.1, 0.2, np.nan])),
        ("", 7, -0.0, _X + 1.0, _X),
    ]),
    "ragged": (("a", "b", "c"), [(1.0, np.zeros(2), np.zeros(3))]),
    # solve rows whose float cells end in runs of +0.0 (a zero tail, written
    # as text) beside a repeated r and a scalar with "%" in it
    "zero_tail": (("note", "t", "r", "u", "ut"), [
        ("5% nan", 0.0, _R6, np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0]),
         np.array([np.inf, 0.25, 0.0, 0.0, 0.0, 0.0])),
        # r repeats: a text column beside two floats that end in +0.0
        ("5% nan", 0.1, _R6, np.array([0.5, -1.0, 0.0, 0.0, 0.0, 0.0]),
         np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])),
        # the last float cell is -0.0: no tail, and it stays "-0"
        ("%%", 0.2, _R6, np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
         np.array([0.0, 0.0, 0.0, 0.0, 0.0, -0.0])),
        # the would-be tail holds a NaN
        ("", 0.3, _R6, np.array([1.0, 0.0, 0.0, np.nan, 0.0, 0.0]),
         np.zeros(6)),
        # every float cell is +0.0: every line is tail
        ("%", 0.4, _R6, np.zeros(6), np.zeros(6)),
        # only u ends in zeros
        ("", 0.5, _R6, np.zeros(6), np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0])),
    ]),
}


@pytest.mark.parametrize("case", sorted(ARRAY_ROWS))
def test_write_csv_array_cells_match_csv_text(case, tmp_path):
    header, rows = ARRAY_ROWS[case]
    path = tmp_path / "out.csv"
    if case == "ragged":
        with pytest.raises(ValueError, match="different lengths"):
            write_csv(str(path), header, rows)
        return
    size = next(v.size for v in rows[0] if isinstance(v, np.ndarray))
    cells = [tuple(v[j] if isinstance(v, np.ndarray) else v for v in row)
             for row in rows for j in range(size)]
    text = csv_text(header, cells)
    assert text == "".join(",".join(map(format_value, line)) + "\n"
                           for line in [header, *cells])
    assert "NaN" in text and "inf" in text
    write_csv(str(path), header, rows)
    assert path.read_bytes() == text.encode("utf-8")


@st.composite
def _array_table(draw):
    """A header and rows whose columns each hold either 1-d float arrays, of
    one length within a row, or scalars; an array cell may repeat the one a
    row up, and it may end in a run of +0.0 and -0.0."""
    kinds = draw(st.lists(st.sampled_from(["array", "float", "flag", "text"]),
                          min_size=1, max_size=5))
    scalars = {"float": st.floats(), "flag": st.booleans(),
               "text": st.text(alphabet="abn%5 ", max_size=6)}
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        size, row = draw(st.integers(1, 6)), []
        for k, kind in enumerate(kinds):
            if kind != "array":
                row.append(draw(scalars[kind]))
            elif rows and rows[-1][k].size == size and draw(st.booleans()):
                row.append(rows[-1][k].copy())
            else:
                zeros = draw(st.integers(0, size))
                row.append(np.array(
                    draw(st.lists(st.floats(), min_size=size - zeros,
                                  max_size=size - zeros))
                    + draw(st.lists(st.sampled_from([0.0, 0.0, -0.0]),
                                    min_size=zeros, max_size=zeros))))
        rows.append(tuple(row))
    return tuple(f"c{k}" for k in range(len(kinds))), rows


@settings(deadline=None)
@given(table=_array_table())
def test_csv_text_array_rows_match_scalar_rows(table):
    # a row with array cells is the lines of its elements, scalars repeated
    header, rows = table
    lines = []
    for row in rows:
        size = max((v.size for v in row if isinstance(v, np.ndarray)), default=1)
        lines += [tuple(v[j] if isinstance(v, np.ndarray) else v for v in row)
                  for j in range(size)]
    assert csv_text(header, rows) == csv_text(header, lines)


# --- sweep execution --------------------------------------------------------------

def test_run_sweep_worker_count_invariant():
    cfg = _blowup_config()
    eps = np.geomspace(0.5, 1.0, 4)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(cfg, eps, 0)
    res1 = run_sweep(cfg, eps, 1)
    res2 = run_sweep(cfg, eps, 2)
    assert csv_text(SWEEP_HEADER, sweep_rows(res1)) == \
        csv_text(SWEEP_HEADER, sweep_rows(res2))
    T = [r.T_extrapolated for r in res1]
    assert all(not r.censored for r in res1)
    assert all(a > b for a, b in zip(T, T[1:]))  # larger eps dies sooner


def test_run_sweep_without_eps_solves_nothing(monkeypatch):
    def solve(*args):
        raise AssertionError("a sweep without eps values solved a level")
    monkeypatch.setattr(sweep, "_blowup_times", solve)
    for jobs in (1, 2):
        assert run_sweep(_blowup_config(), [], jobs) == []


@pytest.mark.parametrize("jobs, parts, workers", [
    (1, ([0, 1, 2, 3],), None),
    (2, ([0, 2], [1, 3]), 2),
    (3, ([0, 3], [1], [2]), 2),
    # one part per eps, in at most the CPU count (patched to 2) of processes
    (64, ([0], [1], [2], [3]), 2),
])
def test_run_sweep_deals_eps_into_whole_ladders(monkeypatch, jobs, parts, workers):
    # the eps are dealt round-robin into min(jobs, eps count) parts, and
    # each part's whole ladder is one _blowup_times call; the pool's map
    # runs in this process, so no worker process starts
    cfg = _blowup_config(t_max=4.0, dr=0.1)
    eps = np.geomspace(0.5, 1.0, 4)
    table = csv_text(SWEEP_HEADER, sweep_rows(run_sweep(cfg, eps)))
    calls, pools, solve = [], [], sweep._blowup_times

    def spy(params_list, grids, threshold):
        calls.append(([q.eps for q in params_list], grids))
        return solve(params_list, grids, threshold)

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweep, "_blowup_times", spy)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = run_sweep(cfg, eps, jobs)
    assert [got for got, _ in calls] == [[eps[i] for i in part] for part in parts]
    assert all(grids == [cfg.grid(), cfg.grid(cfg.dr / 2)] for _, grids in calls)
    assert pools == ([] if workers is None else [workers])
    assert csv_text(SWEEP_HEADER, sweep_rows(results)) == table


@pytest.mark.parametrize("jobs", [1, 2])
def test_overflowing_ladder_row_raises(jobs):
    # max|u| overflows at t = 1.96 before it passes 1e300: that lifespan is
    # unknown, so the sweep stops rather than call the eps censored
    cfg = RunConfig(n=3, mu=1.0, beta=3.0, p=2.0, nonlinearity="power_u",
                    f_amp=20.0, g_amp=20.0, t_max=6.0, dr=0.04, u_threshold=1e300)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ArithmeticError, match=r"eps = 1\.0, dr = 0\.04, t = 1\.96$"):
        run_sweep(cfg, [1.0, 0.5], jobs)


# SHA-256 of the sweep CSV text at the unit step dt = dr of n = 3, computed
# with a one-row run per eps and level; the rows must not change by a bit
@pytest.mark.parametrize("config, eps_min, eps_max, count, digest", [
    (dict(mu=0.0, p=2.2, f_amp=20.0, g_amp=20.0, t_max=8.0, dr=0.04),
     0.5, 1.0, 4,
     "f910f2a78bdc94cde9620659ab87b87f3fa8013fc6cff97c7967747832336269"),
    (dict(p=1.5, nonlinearity="power_ut", f_amp=2.0, g_amp=2.0, t_max=12.0,
          dr=0.04), 0.6, 1.5, 4,
     "a13093248520bff91e87e77643a031f887a57215fb4747f66bd1ecbbe191aae3"),
    (dict(p=2.0, f_amp=20.0, g_amp=20.0, t_max=4.0, dr=0.04,
          refine_levels=3), 0.3, 1.0, 5,
     "1e7294d6cc7b07aba8329537ab761a6d9fb0d40facd8f853ca6159e882fc82fb"),
], ids=["power_u_mu0", "power_ut", "power_u_3_levels"])
def test_sweep_csv_pinned(config, eps_min, eps_max, count, digest):
    cfg = RunConfig(**{"mu": 1.0, "beta": 3.0, **config})
    results = run_sweep(cfg, np.geomspace(eps_min, eps_max, count))
    text = csv_text(SWEEP_HEADER, sweep_rows(results))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, p, t_max, exponent", [
    # the low power_u branch, n = 2 only: T ~ eps^-(p-1)/(3-p) = eps^-1/3
    (2, 1.5, 150.0, 1.0 / 3.0),
    # n = 3 has no low branch: 2p(p-1)/gamma(p, 3) = 0.3043 at p = 1.4
    (3, 1.4, 210.0, 2.0 * 1.4 * 0.4 / 3.68),
], ids=["n2_p1.5", "n3_p1.4"])
def test_low_p_power_u_sweep_reads_consistent(n, p, t_max, exponent):
    # one level at dr 0.04 fits slopes 0.003 below the bound
    cfg = RunConfig(n=n, p=p, nonlinearity="power_u", mu=1.0, beta=3.0,
                    f_amp=1.0, g_amp=1.0, t_max=t_max, dr=0.04, refine_levels=1)
    results = run_sweep(cfg, np.geomspace(5e-4, 0.05, 6))
    assert max(r.T_extrapolated for r in results) < cfg.t_max
    fit = fit_table(cfg, sweep_rows(results), tolerance=0.05)
    assert fit.theory_exponent == pytest.approx(exponent, abs=1e-14)
    assert fit.verdict == "consistent"
    assert abs(fit.slope - fit.theory_exponent) < 0.01


def test_sweep_rows_censored_to_nan():
    # lifespan_from_levels gives a censored eps T = NaN, whether one level
    # or every level reached t_max, and sweep_rows copies the result
    partly = lifespan_from_levels(0.1, (math.nan, 9.5))
    wholly = lifespan_from_levels(0.2, (math.nan, math.nan))
    for res, unreliable in ((partly, True), (wholly, False)):
        assert res.censored is True and res.unreliable is unreliable
        assert math.isnan(res.T_extrapolated) and math.isnan(res.uncertainty)
    ((eps, T, unc, cen, unrel),) = sweep_rows([partly])
    assert eps == 0.1 and math.isnan(T) and math.isnan(unc)
    assert cen is True and unrel is True
    res = LifespanResult(eps=0.1, T_levels=(9.0, 9.5), T_extrapolated=9.7,
                         uncertainty=0.5, censored=False, unreliable=True)
    assert sweep_rows([res]) == [(0.1, 9.7, 0.5, False, True)]


def _same_cell(a, b) -> bool:
    """Equal cells: bit-equal floats (NaN matching NaN), equal flags."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isnan(a) and math.isnan(b) or _bits(a) == _bits(b)
    return type(a) is type(b) and a == b


# eps and T are sweep-like about half the time and any float otherwise (T
# NaN in censored rows), and each flag is set one time in four
_any_float = st.floats(allow_nan=False)
_flag = st.sampled_from([False, False, False, True])
_results = st.lists(st.builds(
    LifespanResult,
    eps=st.one_of(st.floats(1e-3, 1e3), _any_float),
    T_levels=st.tuples(st.floats(), st.floats()),
    T_extrapolated=st.one_of(st.floats(1e-3, 1e3), _any_float),
    uncertainty=st.floats(),
    censored=_flag,
    unreliable=_flag), max_size=12)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(results=_results)
def test_sweep_csv_round_trip(results, tmp_path):
    # the table a sweep writes reads back cell for cell, so fit --in sees
    # the rows the sweep fitted
    path = tmp_path / "sweep.csv"
    rows = sweep_rows(results)
    write_csv(str(path), SWEEP_HEADER, rows)
    back = read_sweep_csv(str(path))
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert all(map(_same_cell, got, want)), (got, want)


# --- fits ------------------------------------------------------------------------

def test_fit_powerlaw_exact():
    eps = np.geomspace(0.2, 1.0, 6)
    T = 3.7 * eps**-2.0
    fit = fit_powerlaw(list(zip(eps, T)), theory_exponent=2.0)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.verdict == "consistent"
    np.testing.assert_allclose(fit.predict_T(eps), T, rtol=1e-10)


def test_fit_powerlaw_noise_and_verdicts():
    rng = np.random.default_rng(3)
    eps = np.geomspace(0.2, 1.0, 8)
    T = 2.0 * eps**-1.5 * np.exp(rng.normal(0.0, 0.02, eps.size))
    fit = fit_powerlaw(list(zip(eps, T)), theory_exponent=1.5)
    assert abs(fit.slope - 1.5) < 0.1
    assert fit.verdict == "consistent"
    off = fit_powerlaw(list(zip(eps, T)), theory_exponent=2.5)
    assert off.verdict == "inconsistent"
    tight = fit_powerlaw(list(zip(eps, T)), theory_exponent=1.5,
                         tolerance=1e-6)
    assert tight.verdict == "inconsistent"


def test_fit_sweep_not_applicable_paths():
    critical = _blowup_config(p=2.0, nonlinearity="power_ut")
    fit = fit_table(critical, sweep_rows([]))
    assert fit.theory_exponent == theory_lifespan(3, 2.0, "power_ut").exponent
    assert fit.verdict == "not_applicable"
    assert math.isnan(fit.slope) and fit.points == ()

    censored = [LifespanResult(eps=e, T_levels=(1.0, 1.0),
                               T_extrapolated=1.0, uncertainty=0.0,
                               censored=True, unreliable=False)
                for e in np.geomspace(0.2, 1.0, 4)]
    fit2 = fit_table(_blowup_config(p=2.0), sweep_rows(censored))
    assert fit2.theory_exponent == 2.0
    assert fit2.verdict == "not_applicable"
    assert fit2.refusal.startswith(f"fewer than {FIT_MIN_POINTS} clean points")


def test_fit_table_clean_rows_and_override():
    eps = np.geomspace(0.2, 1.0, FIT_MIN_POINTS)
    rows = [(e, 3.0 * e**-2.0, 0.0, False, False) for e in eps]
    # rows that are flagged, or lack a finite positive eps or T, are not clean
    noise = [(0.1, 1e9, 0.0, True, False), (0.15, 1e9, 0.0, False, True),
             (0.3, math.nan, 0.0, False, False), (0.4, math.inf, 0.0, False, False),
             (0.5, -1.0, 0.0, False, False), (0.0, 1.0, 0.0, False, False),
             (math.inf, 1.0, 0.0, False, False), (math.nan, 1.0, 0.0, False, False)]
    fit = fit_table(_blowup_config(p=2.0), rows + noise)
    assert fit.refusal == "" and fit.theory_exponent == 2.0
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert len(fit.points) == FIT_MIN_POINTS
    crit = _blowup_config()  # Strauss-critical: refused unless overridden
    assert fit_table(crit, rows).verdict == "not_applicable"
    forced = fit_table(crit, rows, theory=2.0)
    assert forced.verdict == "consistent"
    short = fit_table(crit, rows[:-1], theory=2.0)
    assert short.verdict == "not_applicable" and short.theory_exponent == 2.0
    with pytest.raises(ValueError, match="tolerance"):
        fit_table(crit, rows, tolerance=-1e-9)
    with pytest.raises(ValueError, match="tolerance"):
        fit_table(crit, rows, tolerance=math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theory exponent must be finite"):
            fit_table(crit, rows, theory=bad)


def test_fit_table_skips_eps_with_infinite_reciprocal(capfd):
    # 1/5e-324 overflows to inf: the row is not clean, so three rows remain
    # and the fit is refused before LAPACK sees an infinite abscissa
    rows = [(5e-324, 1.0, 0.0, False, False), (0.5, 2.0, 0.0, False, False),
            (0.6, 2.0, 0.0, False, False), (0.7, 1.0, 0.0, False, False)]
    fit = fit_table(_blowup_config(p=2.0), rows)
    assert fit.verdict == "not_applicable"
    assert fit.refusal == f"fewer than {FIT_MIN_POINTS} clean points: fit not applicable"
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("T", [(4.0,) * 4, (4.0, 5.0, 6.0, 7.0)])
def test_fit_table_needs_a_spread_in_eps(T, recwarn):
    # one eps four times is one point: no line through it, whatever T does
    rows = [(0.5, t, 0.0, False, False) for t in T]
    fit = fit_table(_blowup_config(p=2.0), rows, theory=1.0)
    assert fit.verdict == "not_applicable"
    assert fit.refusal == f"fewer than {FIT_MIN_POINTS} clean points: fit not applicable"
    # a repeated eps beside enough distinct ones is fitted with the rest
    eps = np.geomspace(0.2, 1.0, FIT_MIN_POINTS)
    spread = [(e, 3.0 * e**-2.0, 0.0, False, False) for e in eps]
    assert len(fit_table(_blowup_config(p=2.0), spread + rows[:1]).points) == 5
    assert fit_table(_blowup_config(p=2.0), spread[:2] + rows).verdict == "not_applicable"
    assert not recwarn.list


def test_fit_table_refused_outside_beta_above_2():
    rows = [(e, 3.0 * e**-2.0, 0.0, False, False) for e in np.geomspace(0.2, 1.0, 6)]
    cfg = _blowup_config(p=2.0, mu=1.0, beta=1.5)
    fit = fit_table(cfg, rows)
    assert fit.verdict == "not_applicable" and math.isnan(fit.theory_exponent)
    assert fit.refusal == ("bound kind is needs_beta_gt_2 [power_u_beta_le_2]: power-law "
                           "fit not applicable; the bounds assume beta > 2, got beta = 1.5")
    # the theory exponent lifts it as it lifts the other refusals; mu = 0 has no damping
    assert fit_table(cfg, rows, theory=2.0).verdict == "consistent"
    assert fit_table(_blowup_config(p=2.0, beta=1.5), rows).verdict == "consistent"


CRITICAL_HINT = "use the odelemma and verify subcommands for critical-case evidence"
NO_BOUND_HINT = "no finite-time blow-up bound exists to fit"


@pytest.mark.parametrize("p, nonlinearity, kind, branch, hint", [
    # only a critical (exponential) bound has critical-case evidence to point to
    (critical_exponents(3).p_strauss, "power_u", "exponential", "power_u_critical",
     CRITICAL_HINT),
    (2.0, "power_ut", "exponential", "power_ut_critical", CRITICAL_HINT),
    (4.0, "power_u", "infinite", "power_u_supercritical", NO_BOUND_HINT),
    (2.5, "power_ut", "infinite", "power_ut_supercritical", NO_BOUND_HINT),
    (2.0, "none", "infinite", "linear", NO_BOUND_HINT),
])
def test_fit_table_refusal_names_its_branch(p, nonlinearity, kind, branch, hint):
    rows = [(e, 3.0 * e**-2.0, 0.0, False, False) for e in np.geomspace(0.2, 1.0, 6)]
    fit = fit_table(_blowup_config(p=p, nonlinearity=nonlinearity), rows)
    assert fit.verdict == "not_applicable"
    assert fit.refusal == (f"bound kind is {kind} [{branch}]: power-law fit not "
                           f"applicable; {hint}")


# --- plots -----------------------------------------------------------------------

def test_emit_plot_deterministic_fit(tmp_path):
    eps = np.geomspace(0.2, 1.0, 5)
    fit = fit_powerlaw(list(zip(eps, 2.0 * eps**-2.0)), theory_exponent=2.0)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot(fit, str(a))
    emit_plot(fit, str(b))
    text = a.read_text()
    assert text == b.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "120caa5f34e1083a13590f8a6a209f9120f2848491a2e4c522b9210b014a228a")
    assert text.count("<circle") == 5
    assert "#1f6fb2" in text and "#b23a1f" in text  # fit and theory lines
    assert text.startswith("<?xml") and text.rstrip().endswith("</svg>")

