"""The benchmark's three workloads, built from a seed, with their output gates.

Seed 0 is exactly the acceptance-battery configuration.  Other seeds jitter
the inputs within small fixed ranges that keep the work within a few percent:

- lifespan_sweep: eps_min by +-0.5%, eps_max down by up to 2%;
- bq_tables: q by +-0.01 around 0.5;
- critical_verify: the snapshot spacing by +-2% around 0.1.

Every operation is one `strauss_lab.cli.main(argv)` call or one public API
call.  An operation fails on a non-zero exit, an exception or a failed
gate; each workload's accuracy anchor is the largest value its operations
report.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

ANCHORS = {
    "lifespan_sweep": "fit_slope_err",
    "bq_tables": "bq_identity_residual",
    "critical_verify": "check_spread_max",
}

# The speed.py kernel that matches the bulk of each workload's CPU time:
# the solver's ufuncs on whole grids, or interpreter-bound Python (narrow
# 64-eta shooting, the 2F1 loop, CSV formatting and parsing)
SPEED_KERNEL = {
    "lifespan_sweep": "array",
    "bq_tables": "python",
    "critical_verify": "python",
}


class GateFailed(Exception):
    """An operation finished but its output failed a gate."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], None]  # adds to ctx["anchors"]; raises on failure


def _num(x: float) -> str:
    return repr(float(x))


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    from strauss_lab import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _exit_ok(rc: int, out: str) -> None:
    if rc != 0:
        tail = " | ".join(out.strip().splitlines()[-3:])
        raise GateFailed(f"exit code {rc}: {tail}")


def _plain(argv: list[str]):
    """Op body for a command whose only gate is its exit code."""
    def run(ctx):
        _exit_ok(*_cli(argv))
    return run


def _anchor(ctx: dict, value: float, what: str) -> None:
    """Record an anchor value, before the exit-code gate, so that a failed
    operation still reports it; a non-finite value fails the gate."""
    ctx["anchors"].append(value)
    if not math.isfinite(value):
        raise GateFailed(f"{what} is not finite: {value!r}")


# --- lifespan_sweep -----------------------------------------------------------

# (tag, config flags, proved exponent, fit tolerance): criteria 5 (mu = 1)
# and 6 of the acceptance battery
SWEEPS = (
    ("power_u", ["--mu", "1", "--beta", "3", "--p", "2",
                 "--nonlinearity", "power_u", "--f-amp", "20", "--g-amp", "20",
                 "--t-max", "45", "--dr", "5e-3"], 2.0, 0.4),
    ("power_ut", ["--mu", "1", "--beta", "3", "--p", "1.5",
                  "--nonlinearity", "power_ut", "--f-amp", "2", "--g-amp", "2",
                  "--t-max", "50", "--dr", "1e-2"], 1.0, 0.25),
)


def _sweep_slope(path: str) -> float:
    """Power-law slope of T = C eps^-slope over the clean rows of a sweep CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    pts = [(float(r["eps"]), float(r["T"])) for r in rows
           if r["censored"] == "false" and r["unreliable"] == "false"]
    if len(pts) < 4:
        raise GateFailed(f"only {len(pts)} clean sweep rows")
    eps, T = np.array(pts).T
    return float(np.polyfit(np.log(1.0 / eps), np.log(T), 1)[0])


def sweep_endpoints(seed: int) -> list[tuple[float, float]]:
    """(eps_min, eps_max) of each sweep: 0.2 and 1.0 at seed 0."""
    if not seed:
        return [(0.2, 1.0)] * len(SWEEPS)
    rng = random.Random(seed)
    return [(0.2 * (1.0 + rng.uniform(-0.005, 0.005)),
             1.0 - rng.uniform(0.0, 0.02)) for _ in SWEEPS]


def lifespan_sweep(seed: int, work: str) -> list[Op]:
    ops = []
    for (tag, flags, theory, tol), (eps_min, eps_max) in zip(
            SWEEPS, sweep_endpoints(seed)):
        out = os.path.join(work, f"sweep_{tag}.csv")
        argv = ["sweep", *flags, "--refine-levels", "2",
                "--eps-min", _num(eps_min), "--eps-max", _num(eps_max),
                "--eps-count", "6", "--tolerance", _num(tol), "--jobs", "1",
                "--out", out]

        def run(ctx, argv=argv, out=out, theory=theory, tag=tag):
            rc, text = _cli(argv)
            with open(out, "rb") as fh:
                ctx["hashes"][f"sweep_{tag}"] = hashlib.sha256(fh.read()).hexdigest()
            _anchor(ctx, abs(_sweep_slope(out) - theory), "fit slope error")
            _exit_ok(rc, text)

        ops.append(Op(f"sweep_{tag}", run))
    return ops


# --- bq_tables ----------------------------------------------------------------

def bq_q(seed: int) -> float:
    """Table exponent q: 0.5 at seed 0."""
    return 0.5 + (random.Random(seed).uniform(-0.01, 0.01) if seed else 0.0)


def bq_tables(seed: int, work: str) -> list[Op]:
    argv = ["bq", "--q", _num(bq_q(seed)), "--t-max", "20", "--dr", "0.01",
            "--mu", "1", "--beta", "2.5"]

    def run_bq(ctx):
        from strauss_lab import cli
        tables, reports = [], []
        build, verify = cli.build_bq, cli.verify_bq_identities

        def keep_table(*a, **k):
            tables.append(build(*a, **k))
            return tables[-1]

        def keep_report(*a, **k):
            reports.append(verify(*a, **k))
            return reports[-1]

        cli.build_bq, cli.verify_bq_identities = keep_table, keep_report
        try:
            rc, text = _cli(argv)
        finally:
            cli.build_bq, cli.verify_bq_identities = build, verify
        if tables:
            ctx["bq_table"] = tables[0]
        if reports:
            _anchor(ctx, reports[0].worst, "identity residual")
        _exit_ok(rc, text)

    def run_compensation(ctx):
        from strauss_lab import testfunc
        if "bq_table" not in ctx:
            raise GateFailed("no b_q table from the bq command")
        tq = ctx["bq_table"]
        sub = replace(tq, t_grid=tq.t_grid[::10], r_grid=tq.r_grid[::10],
                      values=tq.values[::10, ::10],
                      psi_cache=tq.psi_cache[:, ::10])
        lo, hi = testfunc.hyper2f1_compensation(sub)
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise GateFailed(f"compensation range ({lo!r}, {hi!r})")

    return [Op("bq", run_bq), Op("hyper2f1_compensation", run_compensation)]


# --- critical_verify ----------------------------------------------------------

# (tag, config flags, t_max, checks): the Strauss- and Glassey-critical runs
# of the test fixtures
CRITICAL_RUNS = (
    ("strauss", ["--n", "3", "--p", _num(1.0 + math.sqrt(2.0)), "--mu", "1",
                 "--beta", "2.5", "--nonlinearity", "power_u", "--eps", "1",
                 "--f-amp", "6.8", "--g-amp", "6.8", "--dr", "0.01"],
     16.0, "3.4,3.16,4.9,4.15,5.1"),
    ("glassey", ["--n", "3", "--p", "2", "--mu", "1", "--beta", "2.5",
                 "--nonlinearity", "power_ut", "--eps", "1", "--f-amp", "2",
                 "--g-amp", "2", "--dr", "0.01"],
     15.0, "5.1,5.11"),
)
ODE_LEMMA = ((2.0, 2.0), (2.5, 2.5), (2.5, 2.0))  # criterion 7


def _spread_max(path: str) -> float:
    """Largest max/min lhs/rhs ratio over the spread-mode checks of a verify CSV."""
    ratios: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ratio = float(row["ratio"])
            if not math.isnan(ratio):  # sign-mode rows carry no ratio
                ratios.setdefault(row["check"], []).append(ratio)
    if not ratios:
        raise GateFailed("no spread-mode check rows")
    return max(max(v) / min(v) for v in ratios.values())


def snapshot_spacing(seed: int) -> float:
    """Time between stored snapshots: 0.1 at seed 0."""
    return 0.1 * (1.0 + (random.Random(seed).uniform(-0.02, 0.02) if seed else 0.0))


def critical_verify(seed: int, work: str) -> list[Op]:
    spacing = snapshot_spacing(seed)
    ops = []
    for tag, flags, t_max, checks in CRITICAL_RUNS:
        snaps = ",".join(_num(k * spacing)
                         for k in range(int(t_max / spacing + 1e-9) + 1))
        sol = os.path.join(work, f"solution_{tag}.csv")
        chk = os.path.join(work, f"checks_{tag}.csv")
        solve = ["solve", *flags, "--t-max", _num(t_max),
                 "--snap-times", snaps, "--out", sol]
        verify = ["verify", "--solution", sol, *flags, "--checks", checks,
                  "--out", chk]

        def run_verify(ctx, verify=verify, chk=chk):
            rc, text = _cli(verify)
            _anchor(ctx, _spread_max(chk), "check spread")
            _exit_ok(rc, text)

        ops.append(Op(f"solve_{tag}", _plain(solve)))
        ops.append(Op(f"verify_{tag}", run_verify))
    for p1, p2 in ODE_LEMMA:
        argv = ["odelemma", "--p1", _num(p1), "--p2", _num(p2)]
        ops.append(Op(f"odelemma_{p1}_{p2}", _plain(argv)))
    return ops


BUILDERS = {
    "lifespan_sweep": lifespan_sweep,
    "bq_tables": bq_tables,
    "critical_verify": critical_verify,
}
