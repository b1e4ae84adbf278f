"""Command-line front end: config resolution, sweeps, fits, reports.

Every subcommand reads an optional flat key=value config file; command-line
flags override file values.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 usage or configuration error.  main alone maps exceptions to
exit codes: a non-finite number among the flags, a value the library rejects
(a ValueError, ConfigError included) or a path that cannot be read or written
(an OSError) exits 2; a numerical fault (an ArithmeticError) keeps its
traceback.  All output paths come from flags, and main checks them all before
the command computes or prints anything; nothing is written implicitly.
"""
from __future__ import annotations

import argparse
import errno
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np

from .eigen import psi_hat_batch
from .exponents import critical_exponents, gamma, theory_lifespan
from .functionals import (CHECK_NAMES, CheckNotApplicable, SolutionSamples,
                          inequality_check, ode_lemma_fit)
from .model import CONFIG_TYPES, ConfigError, RunConfig, load_config, uniform_step
from .solver import run
from .sweep import (FIT_MIN_POINTS, SWEEP_HEADER, csv_text, emit_plot, fit_table,
                    read_sweep_csv, run_sweep, sweep_rows, write_csv)
from .testfunc import build_bq, verify_bq_identities

# verify-subcommand tokens (external interface) -> internal check names:
# "3.4" -> "ineq_3_4"
CHECK_TOKENS = {name.removeprefix("ineq_").replace("_", "."): name
                for name in CHECK_NAMES}


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", metavar="FILE",
                        help="flat key=value config file")
    for key, typ in CONFIG_TYPES.items():
        parent.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                            default=None, help=f"override config key {key}")
    return parent


def resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {key: val for key in CONFIG_TYPES
                 if (val := getattr(args, key, None)) is not None}
    cfg = replace(cfg, **overrides)
    cfg.grid()  # a bad value stops the command here, before any solve
    return cfg


def _float_list(raw: str, what: str) -> list[float]:
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {raw!r}") from exc
    if not vals:
        raise ConfigError(f"empty {what} list")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"non-finite value in {what} list {raw!r}")
    return vals


def _check_outputs(*paths) -> None:
    """Raise the OSError that writing any of these paths would raise, so a
    command stops before it computes, prints or writes anything."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        parent = os.path.dirname(path) or "."
        os.stat(parent)  # a missing parent or a file on the way raises here
        if not os.path.isdir(parent):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


# --- subcommand handlers --------------------------------------------------------

def cmd_exponents(args) -> int:
    cfg = resolve_config(args)
    n = cfg.n
    exps = critical_exponents(n)
    bound = theory_lifespan(n, cfg.p, cfg.nonlinearity, cfg.mu, cfg.beta)
    g = gamma(cfg.p, n)
    print(f"n            = {n}")
    print(f"p_strauss    = {exps.p_strauss:.15g}")
    print(f"p_fujita     = {exps.p_fujita:.15g}")
    print(f"p_glassey    = {exps.p_glassey:.15g}")
    print(f"p            = {cfg.p:.15g}  ({cfg.nonlinearity})")
    print(f"gamma(p, n)  = {g:.15g}")
    if bound.kind == "polynomial":
        shape = f"T <= C eps^-{bound.exponent:.15g}"
    elif bound.kind == "exponential":
        shape = f"T <= exp(C eps^-{bound.exponent:.15g})"
    elif bound.kind == "needs_beta_gt_2":
        shape = f"no bound proved: the theorems assume beta > 2, got beta = {cfg.beta:g}"
    else:
        shape = "no upper bound asserted"
    print(f"bound        = {bound.kind}  {shape}  [{bound.branch}]")
    header = ("n", "pS", "pF", "pG", "gamma", "bound_kind", "bound_exponent")
    row = (n, exps.p_strauss, exps.p_fujita, exps.p_glassey, g,
           bound.kind, bound.exponent)
    print(csv_text(header, [row]), end="")
    if args.out:
        write_csv(args.out, header, [row])
    return 0


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    params = cfg.model_params()
    grid = cfg.grid()
    snap_times = (_float_list(args.snap_times, "snapshot time")
                  if args.snap_times else
                  list(np.linspace(0.0, cfg.t_max, 9)))
    out = run(params, grid, threshold=cfg.u_threshold, snapshot_times=snap_times)
    print(f"status={out.status} t_end={out.t_end:.6g} "
          f"max|u|={float(np.max(out.max_abs_u)):.6g} "
          f"snapshots={len(out.snapshots)}")
    if args.out:
        write_csv(args.out, ("t", "r", "u", "ut"),
                  ((t, grid.r, u, ut) for t, u, ut in out.snapshots))
    if args.summary:
        write_csv(args.summary,
                  ("eps", "status", "t_end", "dr", "dt", "threshold"),
                  [(params.eps, out.status, out.t_end, grid.dr, grid.dt,
                    cfg.u_threshold)])
    return 1 if out.status == "unstable" else 0


def cmd_lifespan(args) -> int:
    cfg = resolve_config(args)
    res = run_sweep(cfg, [cfg.eps])[0]
    print(f"eps={res.eps:.6g} T_levels={tuple(round(T, 6) for T in res.T_levels)} "
          f"T={res.T_extrapolated:.6g} uncertainty={res.uncertainty:.3g} "
          f"censored={res.censored} unreliable={res.unreliable}")
    if args.out:
        write_csv(args.out, SWEEP_HEADER, sweep_rows([res]))
    return 1 if res.unreliable else 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if not 0.0 < args.eps_min < args.eps_max:
        raise ConfigError("need 0 < eps_min < eps_max")
    if args.eps_count < FIT_MIN_POINTS:
        raise ConfigError(f"need at least {FIT_MIN_POINTS} eps points for a fit")
    fit_table(cfg, (), args.tolerance)  # a bad --tolerance stops before any solve
    eps = np.geomspace(args.eps_min, args.eps_max, args.eps_count)
    results = run_sweep(cfg, eps, args.jobs)  # --jobs 0 or n >= 6 stops here
    rows = sweep_rows(results)
    write_csv(args.out, SWEEP_HEADER, rows)
    for res in results:
        print(f"eps={res.eps:.6g} T={res.T_extrapolated:.6g} "
              f"censored={res.censored} unreliable={res.unreliable}")
    title = f"lifespan scaling n={cfg.n} p={cfg.p:.6g} mu={cfg.mu:.6g}"
    return _report_fit(fit_table(cfg, rows, args.tolerance), args.plot, title)


def _report_fit(fit, plot, title, out=None) -> int:
    """Print a fit's verdict line or its refusal, write its files, give the exit code."""
    if fit.refusal:
        print(fit.refusal)
        return 0
    print(f"slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
          f"r2={fit.r_squared:.6g} theory={fit.theory_exponent:.6g} "
          f"verdict={fit.verdict}")
    if out:
        header = ("slope", "intercept", "r_squared", "theory_exponent", "verdict")
        write_csv(out, header, [tuple(getattr(fit, key) for key in header)])
    if plot:
        emit_plot(fit, plot, title)
    return 0 if fit.verdict == "consistent" else 1


def cmd_fit(args) -> int:
    cfg = resolve_config(args)
    fit = fit_table(cfg, read_sweep_csv(args.infile), args.tolerance,
                    args.theory_exponent)
    return _report_fit(fit, args.plot, "lifespan scaling fit", args.out)


def cmd_eigen(args) -> int:
    cfg = resolve_config(args)
    etas = _float_list(args.etas, "eta")
    if not 0.0 < args.r_max:
        raise ConfigError(f"r-max must be positive, got {args.r_max}")
    r = 0.01 * np.arange(int(round(args.r_max / 0.01)) + 1)
    rows = []
    for eta in etas:
        # one eta per call, so no lambda depends on the other --etas values
        psi_hat, (lam,) = psi_hat_batch([eta], cfg.mu, cfg.beta, cfg.n, r)
        psi = psi_hat[0] * lam
        w = (1.0 + r) ** ((cfg.n - 1) / 2.0) * np.exp(-eta * r) * psi
        rows.append((eta, r, psi, w, lam))
        print(f"eta={eta:.6g} lambda={lam:.12g} sup|w|={float(np.max(np.abs(w))):.6g}")
    if args.out:
        write_csv(args.out, ("eta", "r", "psi", "w", "lambda"), rows)
    return 0


def cmd_bq(args) -> int:
    cfg = resolve_config(args)
    dt = args.dt if args.dt is not None else cfg.dr
    if dt <= 0.0:
        raise ConfigError(f"dt must be > 0, got {dt}")
    t_max = cfg.t_max
    r_max = args.r_max if args.r_max is not None else t_max
    t_grid = 1.0 + dt * np.arange(int(round((t_max - 1.0) / dt)) + 1)
    r_grid = cfg.dr * np.arange(int(round(r_max / cfg.dr)) + 1)
    tq = build_bq(args.q, cfg.model_params(), t_grid, r_grid, nodes=args.nodes)
    rep = verify_bq_identities(tq)
    failed = False
    for name, res in (("dt", rep.res_dt), ("dtt", rep.res_dtt),
                      ("lap", rep.res_lap), ("wave", rep.res_wave)):
        ok = res <= args.threshold
        failed = failed or not ok
        print(f"identity {name}: max residual {res:.3e} "
              f"{'pass' if ok else 'FAIL'} (threshold {args.threshold:g})")
    if args.out:
        write_csv(args.out, ("t", "r", "bq"),
                  ((t, r_grid, row) for t, row in zip(t_grid, tq.values)))
    return 1 if failed else 0


SOLUTION_CHUNK_ROWS = 16384  # rows the solution reader aims to parse at a time
TEXT_FIELD = 32  # characters a t or r text field holds; a full one may be cut


def _cell_values(texts: np.ndarray) -> np.ndarray:
    """The float64 values of t or r cell texts, each parsed as np.loadtxt
    parses a cell.  A text that fills its TEXT_FIELD bytes, whose last byte
    is not NUL, may have been cut, and is refused."""
    if (texts.view(np.uint8).reshape(texts.size, TEXT_FIELD)[:, -1] != 0).any():
        raise ValueError(f"a t or r cell is longer than {TEXT_FIELD - 1} characters")
    cells = texts.astype(str).tolist()
    values = np.loadtxt(cells, delimiter=",", ndmin=1)
    if values.size != len(cells):  # loadtxt skips an empty cell as a blank line
        raise ValueError("an empty t or r cell")
    return values


def _refuse_bytes(path: str) -> None:
    """Refuse a file that is not ASCII text, read in 1 MiB blocks:
    np.loadtxt drops the NULs that end a text field, so a t or r cell 1\\0
    would read as 1, and the byte-string t and r fields cannot hold every
    character beyond ASCII."""
    with open(path, "rb") as fh:
        offset = 0
        while block := fh.read(1 << 20):
            if (at := block.find(b"\0")) >= 0:
                raise ConfigError(f"{path}: a NUL byte at byte {offset + at}")
            if not block.isascii():
                at = next(i for i, byte in enumerate(block) if byte > 127)
                raise ConfigError(f"{path}: a byte beyond ASCII at byte {offset + at}")
            offset += len(block)


def _read_solution_csv(path: str):
    """(t, r, u, ut) from a solve CSV of snapshot blocks, in time order.

    Only the named file is read, as ASCII text: no URL is fetched, no name
    is decompressed, and no other file stands in for a missing one.
    np.loadtxt converts only u and ut cell by cell; t and r come in as text.
    The first snapshot is the rows up to the first change of the t text,
    searched SOLUTION_CHUNK_ROWS rows at a time; the next read completes the
    snapshot the search cut off, and every later read holds whole snapshots.
    Each snapshot spells its t one way and repeats the first snapshot's r
    texts, as solve --out writes them, or the file is refused: both rules
    are one comparison of 8-byte words per buffer of whole snapshots.  Each
    distinct t text and the first snapshot's r texts are parsed once, by
    np.loadtxt's conversion, so snapshots may spell their times any way.  A
    t or r cell that fills its TEXT_FIELD characters is refused, never cut;
    a cell np.loadtxt cannot parse is refused with the whole-file parse's
    message, which names its row and column.  A file with a NUL byte or a
    byte beyond ASCII anywhere is refused before any parse.
    """
    _refuse_bytes(path)
    cell = f"S{TEXT_FIELD}"
    row = np.dtype([("t", cell), ("r", cell), ("u", float), ("ut", float)])
    k = TEXT_FIELD // 8  # words a text holds
    uus, t_texts = [], []  # uus: (2, rows) blocks of u and ut; one t text a snapshot
    alike = shared = True  # each snapshot so far spells one t and the first's r
    held = []  # reads not yet checked, together less than one snapshot
    nr = 0  # rows a snapshot; 0 until the first snapshot ends, or in a file of no rows
    n = SOLUTION_CHUNK_ROWS
    try:
        with warnings.catch_warnings(), open(path, encoding="ascii") as fh:
            # neither an empty read nor a blank line is an event
            warnings.filterwarnings("ignore", ".*contained no data")
            fh.readline()
            while (chunk := np.loadtxt(fh, row, delimiter=",", max_rows=n,
                                       ndmin=1)).size or held:
                if not nr:  # the first snapshot ends where the t text first changes
                    t0 = held[0]["t"][0] if held else chunk["t"][0]
                    ends = np.flatnonzero(chunk["t"] != t0)
                    if not ends.size and chunk.size == n:
                        held.append(chunk)
                        continue
                    nr = sum(map(len, held)) + (ends[0] if ends.size else chunk.size)
                buf = np.concatenate([*held, chunk]) if held else chunk
                if not t_texts:  # the first snapshot's r texts, from the first buffer
                    r_texts = buf["r"][:nr].copy()
                    ref = r_texts.view(np.uint64).reshape(nr, k)
                full = buf.size - buf.size % nr
                w = buf[:full].view(np.uint64).reshape(full // nr, nr,
                                                        row.itemsize // 8)
                alike = alike and (w[..., :k] == w[:, :1, :k]).all()
                shared = shared and (w[..., k:2 * k] == ref).all()
                t_texts.append(buf["t"][:full:nr].copy())
                uus.append(np.stack((buf["u"][:full], buf["ut"][:full])))
                held = [buf[full:].copy()] if full < buf.size else []
                if chunk.size < n:
                    break
                n = (nr - held[0].size if held
                     else max(1, SOLUTION_CHUNK_ROWS // nr) * nr)
            chunk = buf = w = None  # free the last read before the joins
        if nr:
            texts, at = np.unique(np.concatenate(t_texts), return_inverse=True)
            t, r = _cell_values(texts)[at], _cell_values(r_texts)
    except ValueError as exc:
        try:
            with open(path, encoding="ascii") as fh:
                data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as whole:
            raise ConfigError(f"{path}: {whole}") from whole
        if data.shape[1] != 4:
            raise ConfigError(f"{path}: expected 4 columns t,r,u,ut") from exc
        raise ConfigError(f"{path}: {exc}") from exc
    if not nr:
        raise ConfigError(f"{path}: no snapshot rows")
    if not (np.isfinite(t).all() and np.isfinite(r).all()):
        raise ConfigError(f"{path}: a t or r cell is not finite")
    if not alike or len(set(t.tolist())) != t.size:
        raise ConfigError(f"{path}: rows of one snapshot are not contiguous")
    if held:
        raise ConfigError(f"{path}: rows not a whole number of snapshots")
    if not shared:
        raise ConfigError(f"{path}: snapshots do not share one r column")
    u, ut = np.concatenate(uus, axis=1).reshape(2, t.size, nr)
    if not np.all(t[1:] > t[:-1]):  # else no reordering copy
        order = np.argsort(t, kind="stable")
        return t[order], r, u[order], ut[order]
    return t, r, u, ut


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    tokens = [tok.strip() for tok in args.checks.split(",") if tok.strip()]
    if not tokens:
        raise ConfigError(f"no check named in --checks {args.checks!r}")
    for tok in tokens:
        if tok not in CHECK_TOKENS:
            raise ConfigError(f"unknown check {tok!r}; valid: "
                              f"{','.join(CHECK_TOKENS)}")
    t, r, u, ut = _read_solution_csv(args.solution)
    uniform_step(r, f"{args.solution}: the r column", start=0.0)
    samples = SolutionSamples(params=cfg.model_params(), t=t, r=r, u=u, ut=ut)
    rows = []
    failed = []
    for tok in tokens:
        try:
            series = inequality_check(samples, CHECK_TOKENS[tok],
                                      count=args.points)
        except CheckNotApplicable as exc:
            print(f"check {tok}: skipped ({exc})")
            continue
        ok = series.passed(args.spread_tol)
        if series.mode == "sign":
            detail = f"min margin {float(series.lhs.min()):.3e} >= 0"
            rows.append((tok, series.grid, series.lhs, 0.0, math.nan))
        else:
            detail = f"ratio spread {series.spread:.3g} <= {args.spread_tol:g}"
            rows.append((tok, series.grid, series.lhs, series.rhs, series.ratio))
        print(f"check {tok}: {'pass' if ok else 'FAIL'} ({detail})")
        if not ok:
            failed.append(tok)
    if args.out:
        write_csv(args.out, ("check", "Tgrid_point", "lhs", "rhs", "ratio"),
                  rows)
    if failed:
        print(f"FAILED checks: {','.join(failed)}")
        return 1
    print("all checks passed")
    return 0


def cmd_odelemma(args) -> int:
    deltas = np.geomspace(args.delta_min, args.delta_max, args.delta_count)
    result = ode_lemma_fit(args.p1, args.p2, K1=args.k1, K2=args.k2,
                           delta_grid=deltas)
    rows = []
    for d, logT in zip(result.delta_grid, result.logT_grid):
        try:
            T = math.exp(logT)
        except OverflowError:
            T = math.inf
        rows.append((d, T, math.log(logT)))
    if args.out:
        write_csv(args.out, ("delta", "T", "loglogT"), rows)
    theory = result.theory_exponent
    dev = abs(result.fitted_exponent - theory) / theory
    print(f"fitted slope={result.fitted_exponent:.6g} theory={theory:.6g} "
          f"relative deviation={dev:.3g}")
    return 0 if dev <= args.tol else 1


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parent = _config_parent()
    parser = argparse.ArgumentParser(
        prog="strauss-lab",
        description="Numerical laboratory for blow-up and lifespan of "
                    "semilinear wave equations with scattering damping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", parents=[parent],
                       help="critical exponents and proved bound shape")
    p.add_argument("--out", help="write the CSV row here")
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("solve", parents=[parent], help="single forward run")
    p.add_argument("--snap-times", help="comma-separated snapshot times")
    p.add_argument("--out", help="snapshot CSV (t,r,u,ut)")
    p.add_argument("--summary", help="one-row outcome summary CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("lifespan", parents=[parent],
                       help="blow-up time with refinement levels")
    p.add_argument("--out", help="one-row lifespan CSV")
    p.set_defaults(func=cmd_lifespan)

    p = sub.add_parser("sweep", parents=[parent],
                       help="parallel eps sweep plus scaling fit")
    p.add_argument("--eps-min", type=float, default=0.2)
    p.add_argument("--eps-max", type=float, default=1.0)
    p.add_argument("--eps-count", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--tolerance", type=float, default=0.3,
                   help="|slope - theory| tolerance for the verdict")
    p.add_argument("--out", required=True, help="sweep table CSV")
    p.add_argument("--plot", help="scaling plot SVG")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", parents=[parent],
                       help="power-law fit of an existing sweep CSV")
    p.add_argument("--in", dest="infile", required=True, help="sweep CSV")
    p.add_argument("--theory-exponent", type=float, default=None,
                   help="override the exponent from the config's (n, p, mode)")
    p.add_argument("--tolerance", type=float, default=0.3)
    p.add_argument("--out", help="one-row fit summary CSV")
    p.add_argument("--plot", help="scaling plot SVG")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eigen", parents=[parent],
                       help="radial eigenfunctions psi_eta and profiles")
    p.add_argument("--etas", default="1.0", help="comma-separated eta values")
    p.add_argument("--r-max", type=float, default=40.0)
    p.add_argument("--out", help="CSV eta,r,psi,w,lambda")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("bq", parents=[parent],
                       help="b_q table construction and identity report")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--dt", type=float, default=None,
                   help="table time step (default: config dr)")
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--threshold", type=float, default=1e-3,
                   help="identity residual pass threshold")
    p.add_argument("--out", help="CSV t,r,bq")
    p.set_defaults(func=cmd_bq)

    p = sub.add_parser("verify", parents=[parent],
                       help="inequality checks along a stored solution")
    p.add_argument("--solution", required=True, help="snapshot CSV from solve")
    p.add_argument("--checks", default=",".join(CHECK_TOKENS),
                   help=f"comma list out of {','.join(CHECK_TOKENS)}")
    p.add_argument("--points", type=int, default=12,
                   help="number of T (or M) grid points per check")
    p.add_argument("--spread-tol", type=float, default=20.0)
    p.add_argument("--out", help="CSV check,Tgrid_point,lhs,rhs,ratio")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("odelemma",
                       help="escape-time experiment for the critical ODE lemma")
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--k1", type=float, default=1.0)
    p.add_argument("--k2", type=float, default=1.0)
    p.add_argument("--delta-min", type=float, default=1e-4)
    p.add_argument("--delta-max", type=float, default=1e-2)
    p.add_argument("--delta-count", type=int, default=8)
    p.add_argument("--tol", type=float, default=0.10,
                   help="allowed relative slope deviation from theory")
    p.add_argument("--out", help="CSV delta,T,loglogT")
    p.set_defaults(func=cmd_odelemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, val in vars(args).items():
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{key.replace('_', ' ')} must be finite, got {val}")
        _check_outputs(*(getattr(args, key, None) for key in ("out", "summary", "plot")))
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"file error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
