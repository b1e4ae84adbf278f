"""Potential, bump data, grid sizing and config parsing."""
from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strauss_lab.model import (NONLINEARITIES, ConfigError, ModelParams,
                               RunConfig, bump, build_grid, initial_data,
                               load_config, parse_config_text, potential,
                               sphere_area, uniform_step)
from strauss_lab.sweep import format_value

from helpers import bump_integral


def test_potential_values_and_decay():
    r = np.array([0.0, 1.0, 3.0])
    V = potential(r, mu=2.0, beta=2.0)
    assert V == pytest.approx([2.0, 0.5, 0.125], abs=1e-15)
    assert np.all(np.diff(potential(np.linspace(0, 10, 50), 1.0, 2.5)) < 0)
    assert np.all(potential(r, 0.0, 2.0) == 0.0)


def test_sphere_area_closed_forms():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, abs=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, abs=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, abs=1e-13)


def test_bump_shape_and_support():
    r = np.linspace(0.0, 2.0, 201)
    b = bump(r, k=4, amp=3.0)
    assert b[0] == pytest.approx(3.0)
    assert np.all(b[r >= 1.0] == 0.0)
    assert np.all(b[r < 1.0] >= 0.0)
    # value check at r = 0.5
    assert b[np.argmin(np.abs(r - 0.5))] == pytest.approx(3.0 * 0.75**4, rel=1e-12)


def test_bump_integral_matches_quadrature():
    n, k, amp = 3, 4, 2.5
    r = np.linspace(0.0, 1.0, 20001)
    quad = sphere_area(n) * np.trapezoid(bump(r, k, amp) * r ** (n - 1), r)
    assert bump_integral(n, k, amp) == pytest.approx(float(quad), rel=1e-8)


def test_initial_data_scaling():
    params = ModelParams(eps=0.25, f_amp=2.0, g_amp=4.0, data_k=4)
    r = np.linspace(0.0, 1.5, 31)
    u0, v0 = initial_data(params, r)
    assert u0[0] == pytest.approx(0.25 * 2.0)
    assert v0[0] == pytest.approx(0.25 * 4.0)
    np.testing.assert_allclose(v0, 2.0 * u0, atol=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(n=1), dict(n=2.5), dict(mu=-0.1), dict(beta=0.0), dict(p=1.0),
    dict(nonlinearity="cubic"), dict(eps=0.0), dict(data_k=2),
    dict(f_amp=-1.0),
])
def test_model_params_validation(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_build_grid_contract():
    g = build_grid(t_max=10.0, dr=0.02)
    assert g.dt == pytest.approx(0.01)
    assert g.r[0] == 0.0
    assert g.r[-1] >= 10.0 + 1.0 + 2.0 * 0.02 - 1e-12
    assert np.allclose(np.diff(g.r), 0.02)
    assert g.n_steps == 1000
    with pytest.raises(ValueError):
        build_grid(10.0, 0.02, cfl=1.5)
    with pytest.raises(ValueError):
        build_grid(-1.0, 0.02)
    # cfl 0.5 sits below the leapfrog bound of every n <= 5 (0.688 at n = 5);
    # cfl 1 is the unit step of n = 3, and nothing lies between
    for cfl in (0.6, 0.75, 0.99, 1.01, 0.0):
        with pytest.raises(ValueError, match="cfl"):
            build_grid(10.0, 0.02, cfl)
    assert build_grid(10.0, 0.02, 1.0).dt == 0.02
    assert build_grid(6.0, 0.05, 0.5).dt == 0.025  # perfbench/selftest.py's call
    assert build_grid(0.03, 0.1).n_steps == 1
    for t_max in (0.01, 0.025):  # t_max / dt rounds to 0
        with pytest.raises(ValueError, match="0 steps"):
            build_grid(t_max, 0.1)


def test_grids_compare_and_hash_by_value():
    # r follows from (dr, dt, t_max), so equal grids built apart are equal
    a, b = build_grid(1.0, 0.1), build_grid(1.0, 0.1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in (replace(a, dr=0.05), replace(a, dt=0.1), replace(a, t_max=2.0),
                  build_grid(1.0, 0.1, 1.0), build_grid(2.0, 0.1)):
        assert other != a


def test_parse_config_text_roundtrip():
    cfg = parse_config_text("""
        # comment line
        n = 4
        p = 2.5          # trailing comment
        nonlinearity = power_ut
        t_max = 30.0
        refine_levels = 3
    """)
    assert cfg.n == 4 and cfg.p == 2.5
    assert cfg.nonlinearity == "power_ut"
    assert cfg.t_max == 30.0 and cfg.refine_levels == 3
    # untouched keys keep defaults
    assert cfg.dr == RunConfig().dr


@settings(deadline=None)
@given(a=st.sampled_from([0.0, 1.0]), h=st.floats(1e-4, 1.0),
       n=st.integers(3, 5000), data=st.data())
def test_uniform_step_admits_the_command_grids_only(a, h, n, data):
    # a + h*k is how the commands build their t and r grids
    x = a + h * np.arange(n)
    assert uniform_step(x, "x") == x[1] - x[0]
    moved = x.copy()
    moved[data.draw(st.integers(1, n - 1)):] += 1e-8 * h  # one step, 1e-8 relative
    not_rising = a + data.draw(st.floats(-1.0, 0.0)) * np.arange(n)
    for bad in (moved, not_rising):
        with pytest.raises(ValueError, match="x must be rising and uniform"):
            uniform_step(bad, "x")


def test_uniform_step_needs_two_nodes():
    for x in (np.array([]), np.array([0.0]), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="at least two nodes"):
            uniform_step(x, "x")


def _finite(**kw):
    return st.floats(allow_nan=False, allow_infinity=False, **kw)


_positive = _finite(min_value=0.0, exclude_min=True)
_configs = st.builds(
    RunConfig, n=st.integers(2, 9), mu=_finite(min_value=0.0),
    beta=_positive, p=_finite(min_value=1.0, exclude_min=True),
    nonlinearity=st.sampled_from(NONLINEARITIES), eps=_positive,
    data_k=st.integers(3, 12), f_amp=_finite(min_value=0.0),
    g_amp=_finite(min_value=0.0), t_max=_finite(), dr=_finite(),
    u_threshold=_positive, refine_levels=st.integers(1, 6))


@settings(deadline=None)
@given(cfg=_configs)
def test_config_text_round_trip(cfg):
    # a config written as key = format_value(value) lines reads back equal,
    # each value of its field's type and every float bit for bit
    text = "".join(f"{f.name} = {format_value(getattr(cfg, f.name))}\n"
                   for f in fields(cfg))
    back = parse_config_text(text)
    assert back == cfg and repr(back) == repr(cfg)


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("unknown_key = 1")
    with pytest.raises(ConfigError):
        parse_config_text("p = banana")
    with pytest.raises(ConfigError):
        parse_config_text("just a line without equals")
    with pytest.raises(ConfigError):
        parse_config_text("nonlinearity = cubic")
    with pytest.raises(ConfigError, match="refine_levels must be >= 1"):
        parse_config_text("refine_levels = 0")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 0.0\nbeta = 2.5\n", encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg.mu == 0.0 and cfg.beta == 2.5
    assert cfg == RunConfig(mu=0.0, beta=2.5)  # the other keys keep their defaults


def test_run_config_builders():
    cfg = RunConfig(n=3, p=2.0, t_max=4.0, dr=0.1)
    params = cfg.model_params()
    assert params.n == 3 and params.p == 2.0
    grid = cfg.grid()
    assert grid.dt == grid.dr == 0.1  # the unit step of n = 3
    assert grid.t_max == 4.0
    assert cfg.grid(0.05).dt == cfg.grid(0.05).dr == 0.05
    for n in (2, 4, 5):  # every other n steps at dr/2
        grid = replace(cfg, n=n).grid()
        assert grid.dr == 0.1 and grid.dt == pytest.approx(0.05)
