"""Reference quantities the tests check the lab against; the package's
commands do not use them."""
from __future__ import annotations

import math

import numpy as np

from strauss_lab.functionals import _y_table
from strauss_lab.model import sphere_area
from strauss_lab.solver import _laplacian


def radial_laplacian(u: np.ndarray, dr: float, n: int) -> np.ndarray:
    """The solver's discrete radial Laplacian; last node uses a zero
    Dirichlet ghost."""
    nr = u.size
    return _laplacian(np.append(u, 0.0), nr, dr, n,
                      (n - 1.0) / (np.arange(1, nr) * dr))


def energy_functional(u: np.ndarray, v: np.ndarray, dr: float, n: int) -> float:
    """E = 1/2 * int (u_t^2 + |grad u|^2) dx over R^n (radial trapezoid)."""
    r = np.arange(u.size) * dr
    ur = np.gradient(u, dr)
    dens = 0.5 * (v * v + ur * ur) * r ** (n - 1)
    return sphere_area(n) * float(np.trapezoid(dens, dx=dr))


def y_weight_ceiling(p_conj: float) -> float:
    """The constant value of y_weight on t in [1, M/2]:
    int_{1/2}^1 theta^{2p'}/s ds."""
    _, cum = _y_table(p_conj)
    return float(cum[-1])


def bump_integral(n: int, k: int, amp: float) -> float:
    """Integral of the bump over R^n: omega_{n-1} * int_0^1 amp*(1-r^2)^k r^(n-1) dr.

    Closed form via the Beta function (substitute s = r^2).
    """
    omega = sphere_area(n)
    return omega * amp * 0.5 * math.gamma(n / 2.0) * math.gamma(k + 1.0) \
        / math.gamma(n / 2.0 + k + 1.0)
