"""Lifespan sweeps, scaling-law fits and deterministic CSV/SVG output.

run_sweep is the lifespan ladder: the eps are dealt round-robin into
min(jobs, eps count) parts, and each part's whole ladder, its every eps at
every refinement level, is one solver block, solver.run_block, so its rows
share each array pass of a step and each step's fixed cost.  One part runs
in this process and more run in worker processes; the pool is imported when
first used, so a one-process run never loads concurrent.futures or
multiprocessing.  Every blow-up time is a pure function of (config, eps,
level), bit for bit what a one-row run gives, and the pure
lifespan_from_levels turns one eps's times into its T (NaN if censored) and
flags, so the table is identical for any worker count.

sweep_rows builds the lifespan table, one SWEEP_HEADER row per eps, and
read_sweep_csv reads its CSV back bit for bit.  fit_table alone picks the
clean rows of a table (sweep and fit alike); fit_powerlaw regresses log T on
log(1/eps) and compares the slope with the exponent of the proved
polynomial bound.  Other bounds refuse the fit (verdict "not_applicable"): a
critical bound is exponential, T <= exp(C eps^-a), and ln T is linear in
eps^-a, not in log(1/eps), so a power-law fit is the wrong form for it and
the refusal points to the odelemma and verify subcommands instead;
supercritical and linear cases have no finite-time blow-up bound to fit, and
damping with beta <= 2 lies outside the hypothesis beta > 2 of the bounds.

CSV rules used everywhere: header row mandatory, floats at full round-trip
precision (%.17g), NaN spelled literally, booleans as true/false, LF endings.
write_csv is the one CSV writer.  A row may hold equal-length 1-d float arrays
beside scalars: it stands for one line per array element, with its scalars
repeated on every line, and gives the same bytes as those lines written as
scalar rows.  Only float cells go through %.17g; a reused array (r) and the
all-+0.0 trailing lines are written as text, with the same bytes.  SVG plots
are assembled from strings only, so identical input gives identical bytes.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .exponents import theory_lifespan
from .model import ConfigError, RunConfig
from .solver import run_block

FIT_MIN_POINTS = 4
SWEEP_HEADER = ("eps", "T", "uncertainty", "censored", "unreliable")


# --- formatting ---------------------------------------------------------------

def format_value(v) -> str:
    """One CSV cell: round-trip floats, literal NaN, true/false booleans."""
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        if math.isnan(v):
            return "NaN"
        return "%.17g" % v
    return str(v)


def _joined_lines(parts, texts, start, stop):
    """Lines start..stop-1 of a row: parts with texts' cells joined in."""
    if not texts or start == stop:
        return parts[0] * (stop - start)
    mids = texts[0][start:stop]
    for part, cells in zip(parts[1:-1], texts[1:]):
        mids = list(map(part.join, zip(mids, cells[start:stop])))
    return parts[0] + (parts[-1] + parts[0]).join(mids) + parts[-1]


def _csv_chunks(header, rows):
    """The header line, then the lines of each row as text.

    Only float cells pass through "%.17g", as one interleaved list per row.
    An array that holds a NaN ("%.17g" spells it "nan") or repeats its cell
    one row up, like r, is a text column: its format_value cells are reused
    and joined in.  So is a zero tail, the trailing lines whose float cells
    are all +0.0, with the literal "0".  Each cell reads as format_value's.
    """
    yield ",".join(header) + "\n"
    last = {}  # cell index -> (dtype, bytes) of its array and that array's cells
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        parts, texts, floats = [[]], [], []  # a line's pieces between text columns
        for k, v in enumerate(row):
            parts[-1] += [","] if k else []
            if not (isinstance(v, np.ndarray) and v.ndim == 1):
                parts[-1].append(format_value(v).replace("%", "%%"))
                continue
            key = (v.dtype.str, v.tobytes())
            seen, cells = last.get(k, (None, None))
            if key != seen or cells is None:
                cells = ([format_value(x) for x in v.tolist()]
                         if key == seen or np.isnan(v).any() else None)
            last[k] = (key, cells)
            if cells is None:
                floats.append(v)
                parts[-1].append("%.17g")
            else:
                texts.append(cells)
                parts.append([])
        parts[-1].append("\n")
        sizes = {len(c) for c in texts} | {v.size for v in floats}
        if len(sizes) > 1:
            raise ValueError(f"array cells of different lengths {sorted(sizes)}")
        size, live = (sizes.pop() if sizes else 1), 0
        if floats:  # the lines up to the last float cell other than +0.0
            cols = np.column_stack(floats)
            cell = np.flatnonzero((cols != 0) | np.signbit(cols)).max(initial=-1)
            live = int(cell) // len(floats) + 1
            yield (_joined_lines(["".join(p) for p in parts], texts, 0, live)
                   % tuple(cols[:live].ravel().tolist()))
        tail = ["".join(p) % ((0,) * p.count("%.17g")) for p in parts]
        yield _joined_lines(tail, texts, live, size)


def csv_text(header, rows) -> str:
    return "".join(_csv_chunks(header, rows))


def write_csv(path: str, header, rows) -> None:
    """Write header and rows to path one row (block of lines) at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_chunks(header, rows))


# --- sweep --------------------------------------------------------------------

@dataclass
class LifespanResult:
    eps: float
    T_levels: tuple
    T_extrapolated: float
    uncertainty: float
    censored: bool
    unreliable: bool


def lifespan_from_levels(eps: float, T_levels) -> LifespanResult:
    """The lifespan at eps from its blow-up times on a dr ladder, coarse to
    fine, NaN where a level did not blow up.

    The scheme is second order, so halving dr (with dt locked to it) gives
    T* ~ T_fine + (T_fine - T_prev)/3.  censored: some level reached t_max
    without blow-up, and T is NaN.  unreliable: consecutive levels moved by
    > 20%, or only some levels blew up.
    """
    Ts = tuple(T_levels)
    censored = any(math.isnan(T) for T in Ts)
    if censored or len(Ts) == 1:
        T_ext, unc = math.nan if censored else Ts[-1], math.nan
        unreliable = censored and not all(math.isnan(T) for T in Ts)
    else:
        T_ext, unc = Ts[-1] + (Ts[-1] - Ts[-2]) / 3.0, abs(Ts[-1] - Ts[-2])
        unreliable = any(abs(b - a) > 0.2 * abs(b) for a, b in zip(Ts, Ts[1:]))
    return LifespanResult(eps=eps, T_levels=Ts, T_extrapolated=T_ext,
                          uncertainty=unc, censored=censored, unreliable=unreliable)


def _blowup_times(params_list, grids, threshold: float) -> list[tuple]:
    """Each problem's blow-up times on the ladder's grids, NaN where it did
    not blow up, from one run_block.  A row whose max|u| overflowed before
    it passed the threshold raises ArithmeticError: its lifespan is
    unknown, not censored."""
    outs = run_block([q for q in params_list for _ in grids], grids * len(params_list),
                     threshold=threshold)
    for out in outs:
        if out.status == "unstable":
            raise ArithmeticError(f"max|u| overflowed at eps = {out.params.eps!r}, "
                                  f"dr = {out.grid.dr!r}, t = {out.t_end!r}")
    times = [out.t_end if out.status == "blew_up" else math.nan for out in outs]
    return [tuple(times[i:i + len(grids)]) for i in range(0, len(times), len(grids))]


def run_sweep(cfg: RunConfig, eps_values, jobs: int = 1) -> list[LifespanResult]:
    """One LifespanResult per eps, in eps order, worker-count independent.

    The ladder's cfg.refine_levels levels start at cfg.dr and halve it.
    Each of the min(jobs, eps count) round-robin parts of the eps is one
    whole-ladder run_block: one part in this process, more in at most the
    CPU count of worker processes, the lab's one pool, imported only here.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    params_list = [replace(cfg, eps=float(eps)).model_params() for eps in eps_values]
    grids = [cfg.grid(cfg.dr / 2 ** lev) for lev in range(cfg.refine_levels)]
    parts = min(jobs, len(params_list))
    dealt = [params_list[w::parts] for w in range(parts)]
    if parts > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(parts, os.cpu_count() or 1)) as pool:
            times = list(pool.map(_blowup_times, dealt, [grids] * parts,
                                  [cfg.u_threshold] * parts))
    else:
        times = [_blowup_times(part, grids, cfg.u_threshold) for part in dealt]
    per_eps = [None] * len(params_list)
    for w, part_times in enumerate(times):
        per_eps[w::parts] = part_times
    return [lifespan_from_levels(params.eps, Ts)
            for params, Ts in zip(params_list, per_eps)]


def sweep_rows(results: list[LifespanResult]) -> list[tuple]:
    """The lifespan table: one SWEEP_HEADER row per result."""
    return [(res.eps, res.T_extrapolated, res.uncertainty, res.censored,
             res.unreliable) for res in results]


def _flag_cell(row: dict, key: str) -> bool:
    """A flag as format_value writes it, true or false; a missing one is false."""
    cell = row.get(key, "false")
    if cell not in ("true", "false"):
        raise ValueError(f"{key} cell {cell!r} is neither true nor false")
    return cell == "true"


def read_sweep_csv(path: str) -> list[tuple]:
    """The SWEEP_HEADER rows of a lifespan table CSV, in file order.

    eps and T are required; a missing uncertainty reads as NaN and a missing
    flag as false.  A malformed file (a repeated column name, a cell that is
    not a number or a flag cell other than true or false) raises ConfigError
    naming it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty file")
        names = reader.fieldnames
        for name in names:
            if names.count(name) > 1:
                raise ConfigError(f"{path}: header row repeats column {name!r}")
        for need in ("eps", "T"):
            if need not in reader.fieldnames:
                raise ConfigError(f"{path}: missing column {need!r}")
        rows = []
        for k, row in enumerate(reader, start=1):
            if None in row or None in row.values():
                raise ConfigError(f"{path}: row {k} has a cell count unlike "
                                  f"the header's {len(reader.fieldnames)}")
            try:
                rows.append((float(row["eps"]), float(row["T"]),
                             float(row.get("uncertainty", "NaN")),
                             _flag_cell(row, "censored"),
                             _flag_cell(row, "unreliable")))
            except ValueError as exc:
                raise ConfigError(f"{path}: row {k}: {exc}") from exc
    return rows


# --- power-law fit --------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (log(1/eps), log T) vs the proved exponent."""

    points: tuple          # ((log(1/eps), log T), ...)
    slope: float
    intercept: float
    r_squared: float
    theory_exponent: float
    verdict: str
    refusal: str = ""      # why a "not_applicable" fit (NaN line) was refused

    def predict_T(self, eps) -> np.ndarray:
        """Fitted curve T(eps) (natural scale)."""
        x = np.log(1.0 / np.asarray(eps, dtype=float))
        return np.exp(self.intercept + self.slope * x)


def fit_powerlaw(points, theory_exponent: float,
                 tolerance: float = 0.3) -> ScalingFit:
    """Fit T = C eps^-slope through clean (eps, T) pairs and judge against
    theory: the regression and verdict of fit_table, which cleans the rows."""
    x = np.log(1.0 / np.array([e for e, _ in points]))
    y = np.log(np.array([T for _, T in points]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    ok = abs(slope - theory_exponent) <= tolerance and r2 >= 0.95
    return ScalingFit(points=tuple(zip(x.tolist(), y.tolist())),
                      slope=float(slope), intercept=float(intercept),
                      r_squared=r2, theory_exponent=float(theory_exponent),
                      verdict="consistent" if ok else "inconsistent")


def fit_table(cfg: RunConfig, rows, tolerance: float = 0.3,
              theory: float | None = None) -> ScalingFit:
    """Fit SWEEP_HEADER rows (sweep_rows, read_sweep_csv) against the proved
    bound.

    theory, which must be finite, overrides the bound's exponent and lifts a
    non-polynomial refusal; clean rows (unflagged, finite eps and T > 0,
    finite 1/eps) at fewer than FIT_MIN_POINTS distinct eps refuse the fit."""
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if theory is not None and not math.isfinite(theory):
        raise ValueError(f"theory exponent must be finite, got {theory}")
    bound = theory_lifespan(cfg.n, cfg.p, cfg.nonlinearity, cfg.mu, cfg.beta)
    exponent = bound.exponent if theory is None else theory
    clean = [(eps, T) for eps, T, _, censored, unreliable in rows
             if not (censored or unreliable)
             and 0.0 < eps < math.inf and math.isfinite(1.0 / eps)
             and 0.0 < T < math.inf]
    if theory is None and bound.kind != "polynomial":
        hints = {"exponential": "use the odelemma and verify subcommands for "
                                "critical-case evidence",
                 "infinite": "no finite-time blow-up bound exists to fit",
                 "needs_beta_gt_2": f"the bounds assume beta > 2, got beta = {cfg.beta:g}"}
        refusal = (f"bound kind is {bound.kind} [{bound.branch}]: power-law fit "
                   f"not applicable; {hints[bound.kind]}")
    elif len({eps for eps, _ in clean}) < FIT_MIN_POINTS:
        refusal = f"fewer than {FIT_MIN_POINTS} clean points: fit not applicable"
    else:
        return fit_powerlaw(clean, exponent, tolerance)
    return ScalingFit(points=(), slope=math.nan, intercept=math.nan,
                      r_squared=math.nan, theory_exponent=exponent,
                      verdict="not_applicable", refusal=refusal)


# --- SVG plots ------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins


def emit_plot(fit: ScalingFit, path: str, title: str = "lifespan scaling") -> None:
    """Write a deterministic SVG of a ScalingFit: points, fit and theory lines.

    Fixed size, text assembled in order; y grows upward in data space."""
    if not fit.points:
        raise ValueError("cannot plot an empty fit")
    xs = [p[0] for p in fit.points]
    ys = [p[1] for p in fit.points]
    x0, x1 = _ML, _SVG_W - _MR
    y0, y1 = _SVG_H - _MB, _MT
    limits = []  # the data range padded by 6% each side, a flat one spanning 1
    for lo, hi in ((min(xs), max(xs)), (min(ys), max(ys))):
        if hi <= lo:
            hi = lo + 1.0
        pad = 0.06 * (hi - lo)
        limits.append((lo - pad, hi + pad))
    (xlo, xhi), (ylo, yhi) = limits

    def px(x):
        return x0 + (x - xlo) / (xhi - xlo) * (x1 - x0)

    def py(y):
        return y0 + (y - ylo) / (yhi - ylo) * (y1 - y0)

    def text(x, y, anchor, size, body, extra=""):
        return (f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="monospace" '
                f'font-size="{size}"{extra}>{body}</text>\n')

    def line(lxs, lys, color, dash=""):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(lxs, lys))
        return (f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"{dash}/>\n')

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">\n',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n',
        text(_SVG_W // 2, 24, "middle", 14, title),
        f'<rect x="{_ML}" y="{_MT}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="black"/>\n',
    ]
    for xv in np.linspace(xlo, xhi, 6):
        parts.append(f'<line x1="{px(xv):.2f}" y1="{y0}" x2="{px(xv):.2f}" '
                     f'y2="{y0 + 5}" stroke="black"/>\n'
                     + text(f"{px(xv):.2f}", y0 + 20, "middle", 11, f"{xv:.6g}"))
    for yv in np.linspace(ylo, yhi, 6):
        parts.append(f'<line x1="{x0 - 5}" y1="{py(yv):.2f}" x2="{x0}" '
                     f'y2="{py(yv):.2f}" stroke="black"/>\n'
                     + text(x0 - 8, f"{py(yv) + 4:.2f}", "end", 11, f"{yv:.6g}"))
    parts.append(text((x0 + x1) // 2, _SVG_H - 12, "middle", 12, "log(1/eps)"))
    parts.append(text(16, (y0 + y1) // 2, "middle", 12, "log T",
                      f' transform="rotate(-90 16 {(y0 + y1) // 2})"'))
    grid = np.linspace(min(xs), max(xs), 2)
    parts.append(line(grid, fit.intercept + fit.slope * grid, "#1f6fb2"))
    anchor = ys[0] - fit.theory_exponent * xs[0]
    parts.append(line(grid, anchor + fit.theory_exponent * grid, "#b23a1f",
                      ' stroke-dasharray="6 4"'))
    parts += [f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3.5" fill="black"/>\n'
              for x, y in zip(xs, ys)]
    for slot, note in enumerate((
            f"fit slope {fit.slope:.6g} (r2 {fit.r_squared:.6g})",
            f"theory slope {fit.theory_exponent:.6g} [{fit.verdict}]")):
        parts.append(text(x1 - 6, _MT + 18 + 16 * slot, "end", 12, note))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(parts) + "</svg>\n")
