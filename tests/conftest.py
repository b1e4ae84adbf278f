"""Shared fixtures: small calibrated runs reused across test modules."""
from __future__ import annotations

import numpy as np
import pytest

from strauss_lab.exponents import critical_exponents
from strauss_lab.functionals import samples_from_outcome
from strauss_lab.model import ModelParams, build_grid
from strauss_lab.solver import run


@pytest.fixture(scope="session")
def strauss_crit_samples():
    """Blow-up run at the n=3 Strauss exponent (power_u), snapshots on a
    regular time grid; blows up near t = 15.3."""
    p_s = critical_exponents(3).p_strauss
    params = ModelParams(n=3, p=p_s, mu=1.0, beta=2.5, nonlinearity="power_u",
                         eps=1.0, f_amp=6.8, g_amp=6.8)
    grid = build_grid(16.0, 0.01)
    snap = np.arange(0.0, 16.0 + 1e-9, 0.1)
    out = run(params, grid, snapshot_times=snap)
    assert out.status == "blew_up"
    return samples_from_outcome(out)


@pytest.fixture(scope="session")
def glassey_crit_samples():
    """Blow-up run at the n=3 Glassey exponent (power_ut); blows up near
    t = 13.3."""
    params = ModelParams(n=3, p=2.0, mu=1.0, beta=2.5, nonlinearity="power_ut",
                         eps=1.0, f_amp=2.0, g_amp=2.0)
    grid = build_grid(15.0, 0.01)
    snap = np.arange(0.0, 15.0 + 1e-9, 0.1)
    out = run(params, grid, snapshot_times=snap)
    assert out.status == "blew_up"
    return samples_from_outcome(out)
