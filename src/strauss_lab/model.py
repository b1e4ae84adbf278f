"""Model parameters, damping potential, initial data and grid construction.

The Cauchy problem under study is

    u_tt - Lap(u) + V(|x|) u_t = |u|^p  (or |u_t|^p),   V(r) = mu*(1+r)^-beta,

with radial initial data u(0) = eps*f, u_t(0) = eps*g supported in the unit
ball.  beta > 2 is the scattering range the lifespan theorems cover; smaller
beta is accepted, and with mu > 0 theory_lifespan then returns no bound (kind
"needs_beta_gt_2"), so fits are refused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

NONLINEARITIES = ("power_u", "power_ut", "none")


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one Cauchy problem.

    f_amp/g_amp scale the polynomial bump (1-r^2)^data_k on r < 1 used for
    initial displacement/velocity.  Both zero gives the trivial solution and
    is allowed (useful as a null test) but is outside the theorems' scope.
    """

    n: int = 3
    mu: float = 1.0
    beta: float = 3.0
    p: float = 2.0
    nonlinearity: str = "power_u"
    eps: float = 0.5
    data_k: int = 4
    f_amp: float = 1.0
    g_amp: float = 1.0

    def __post_init__(self):
        for f in fields(self):  # RunConfig's fields too
            value = getattr(self, f.name)
            if not isinstance(value, str) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.p <= 1:
            raise ValueError(f"p must be > 1, got {self.p}")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(
                f"nonlinearity must be one of {NONLINEARITIES}, got {self.nonlinearity!r}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if int(self.data_k) != self.data_k or self.data_k < 3:
            raise ValueError(f"data_k must be an integer >= 3, got {self.data_k!r}")
        if self.f_amp < 0 or self.g_amp < 0:
            raise ValueError("data amplitudes must be >= 0")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with time step locked to a fixed fraction of dr
    (dr/2 by default, dr on the n = 3 grids of RunConfig.grid).

    The last radius r[-1] is sized so the outer Dirichlet row is exact: data
    start in the unit ball and propagate at speed one, so nothing reaches it
    before t_max as long as r[-1] >= t_max + 1 + 2*dr.  Grids compare and
    hash by (dr, dt, t_max), which fix r.
    """

    dr: float
    dt: float
    t_max: float
    r: np.ndarray = field(repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


def potential(r, mu: float, beta: float):
    """Damping coefficient V(r) = mu*(1+r)^-beta."""
    return mu * (1.0 + np.asarray(r, dtype=float)) ** (-beta)


def bump(r, k: int, amp: float):
    """Radial bump amp*(1-r^2)^k on r < 1, zero outside (C^(k-1) at r=1)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = amp * (1.0 - r[inside] ** 2) ** k
    return out


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1) in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def uniform_step(x, name: str, start: float | None = None) -> float:
    """The step of the grid x; ValueError naming x unless x is 1-d with two
    or more nodes, its first step is in (0, inf), every step equals the
    first to 1e-9 relative (no absolute slack) and x[0] is start, if given."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"{name} must be a 1-d grid with at least two nodes")
    h = float(x[1] - x[0])
    if not (0.0 < h < math.inf and np.allclose(np.diff(x), h, rtol=1e-9, atol=0.0)):
        raise ValueError(f"{name} must be rising and uniform")
    if start is not None and x[0] != start:
        raise ValueError(f"{name} must start at {start:g}")
    return h


def build_grid(t_max: float, dr: float, cfl: float = 0.5) -> RadialGrid:
    """Grid sized so the Dirichlet boundary at r_max is never reached.

    dt = cfl*dr with cfl in (0, 0.5], under the leapfrog bound of every n the
    solver takes (0.688 at n = 5), or cfl = 1, the unit step that only n = 3
    takes (the solver refuses it for any other n); t_max must round to at
    least one step.
    """
    if t_max <= 0 or dr <= 0:
        raise ValueError("t_max and dr must be positive")
    if not (0.0 < cfl <= 0.5 or cfl == 1.0):
        raise ValueError(f"cfl must be in (0, 0.5] or 1, got {cfl}")
    if round(t_max / (cfl * dr)) == 0:
        raise ValueError(f"t_max {t_max} rounds to 0 steps of dt {cfl * dr}")
    need = t_max + 1.0 + 2.0 * dr
    nr = int(math.ceil(need / dr - 1e-12)) + 1
    return RadialGrid(dr=dr, dt=cfl * dr, t_max=t_max, r=np.arange(nr) * dr)


def initial_data(params: ModelParams, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u(0), u_t(0)) = (eps*f, eps*g) sampled on the grid."""
    u0 = params.eps * bump(r, params.data_k, params.f_amp)
    v0 = params.eps * bump(r, params.data_k, params.g_amp)
    return u0, v0


# --- run configuration -------------------------------------------------------

class ConfigError(ValueError):
    """Invalid or unknown key in a run-configuration file."""


@dataclass(frozen=True)
class RunConfig(ModelParams):
    """Flat key=value run configuration: the model's fields (validated as in
    ModelParams) and the numerics'; unknown keys fail closed."""

    t_max: float = 10.0
    dr: float = 0.01
    u_threshold: float = 1e6
    refine_levels: int = 2

    def __post_init__(self):
        super().__post_init__()
        if self.u_threshold <= 0:
            raise ValueError(f"u_threshold must be > 0, got {self.u_threshold}")
        if self.refine_levels < 1:
            raise ValueError(f"refine_levels must be >= 1, got {self.refine_levels}")

    def model_params(self) -> ModelParams:
        return ModelParams(**{f.name: getattr(self, f.name)
                              for f in fields(ModelParams)})

    def grid(self, dr: float | None = None) -> RadialGrid:
        """The grid of a run at dr (default self.dr) by the lab's one step
        rule: dt = dr for n = 3, where the solver's origin rule allows the
        unit step and the scheme has no dispersion, and dt = dr/2 otherwise."""
        return build_grid(self.t_max, self.dr if dr is None else dr,
                          1.0 if self.n == 3 else 0.5)


# key -> type of every RunConfig field, in field order: the config-file keys
# and the CLI's override flags
CONFIG_TYPES = get_type_hints(RunConfig)


def parse_config_text(text: str) -> RunConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown keys raise."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key] = CONFIG_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    try:
        return RunConfig(**updates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
