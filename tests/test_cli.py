"""End-to-end CLI behavior: artifacts, exit codes, determinism."""
from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
import urllib.request
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strauss_lab import cli
from strauss_lab.cli import _read_solution_csv, build_parser, main, resolve_config
from strauss_lab.eigen import psi_hat_batch
from strauss_lab.model import ConfigError, RunConfig
from strauss_lab.sweep import csv_text, write_csv
from strauss_lab.testfunc import build_bq

P_STRAUSS3 = "2.414213562373095"


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def crit_solution_csv(tmp_path_factory, strauss_crit_samples):
    """The Strauss-critical blow-up run, thinned and stored as a solve CSV."""
    s = strauss_crit_samples
    t, r = s.t[::2], s.r[::2]
    u, ut = s.u[::2, ::2], s.ut[::2, ::2]
    rows = []
    for i in range(t.size):
        for j in range(r.size):
            rows.append((t[i], r[j], u[i, j], ut[i, j]))
    path = tmp_path_factory.mktemp("sol") / "crit.csv"
    write_csv(str(path), ("t", "r", "u", "ut"), rows)
    return str(path)


# --- exponents ---------------------------------------------------------------

def test_exponents_cmd(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--n", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "p_strauss" in text and "bound" in text
    (row,) = _read_rows(out)
    assert float(row["pS"]) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert float(row["gamma"]) == pytest.approx(2.0)  # p = 2 default
    assert row["bound_kind"] == "polynomial"
    assert float(row["bound_exponent"]) == pytest.approx(2.0)


def test_exponents_mode_flag(capsys):
    assert main(["exponents", "--n", "3", "--p", "2.0",
                 "--nonlinearity", "power_ut"]) == 0
    text = capsys.readouterr().out
    assert "exponential" in text  # Glassey-critical in ut mode


def test_exponents_linear_has_no_bound(tmp_path, capsys):
    # the linear problem is not read as power_u: it has no finite lifespan
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--nonlinearity", "none", "--out", str(out)]) == 0
    assert "[linear]" in capsys.readouterr().out
    (row,) = _read_rows(out)
    assert row["bound_kind"] == "infinite" and row["bound_exponent"] == "NaN"


def test_exponents_refuses_beta_at_most_2_with_damping(tmp_path, capsys):
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--mu", "1", "--beta", "1.5", "--out", str(out)]) == 0
    assert ("bound        = needs_beta_gt_2  no bound proved: the theorems assume "
            "beta > 2, got beta = 1.5  [power_u_beta_le_2]\n") in capsys.readouterr().out
    (row,) = _read_rows(out)
    assert row["bound_kind"] == "needs_beta_gt_2" and row["bound_exponent"] == "NaN"


# --- solve ---------------------------------------------------------------------

def test_solve_blowup_artifacts(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    summary = tmp_path / "sum.csv"
    rc = main(["solve", "--mu", "0", "--p", "2.2", "--eps", "1.0",
               "--f-amp", "20", "--g-amp", "20", "--t-max", "6",
               "--dr", "0.04", "--out", str(out), "--summary", str(summary)])
    assert rc == 0
    assert "status=blew_up" in capsys.readouterr().out
    (row,) = _read_rows(summary)
    assert row["status"] == "blew_up"
    assert float(row["t_end"]) < 6.0
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[1] == 4
    assert data.shape[0] > 0


def test_solve_leaves_at_the_taylor_step(tmp_path, capsys):
    # max|u| is 1.9487 at t = dt = 0.05, past the threshold: the run blew up
    # there, at the first step, not one step later
    summary = tmp_path / "sum.csv"
    assert main(["solve", "--t-max", "2", "--dr", "0.05", "--f-amp", "1",
                 "--g-amp", "20", "--eps", "1", "--u-threshold", "1.5",
                 "--summary", str(summary)]) == 0
    assert "status=blew_up t_end=0.05 " in capsys.readouterr().out
    (row,) = _read_rows(summary)
    assert row["status"] == "blew_up" and row["t_end"] == "0.050000000000000003"


# SHA-256 of two solve CSVs (t_max 3, dr 0.05, a snapshot every 0.1; n = 3,
# so dt = dr): they pin the %.17g digits and the spelling of every zero
@pytest.mark.parametrize("flags, digest", [
    (["--nonlinearity", "power_u", "--p", "2"],
     "0d15dcbce5cc337f10a5d22dedd2894b1afd2e4e4f0a574b8909251978ce2eb2"),
    (["--nonlinearity", "power_ut", "--p", "1.5"],
     "263a1dfce995d92a4da6e1efa43fad27190a7cc07d2e6d4160082ab28c9aacb7"),
], ids=["power_u", "power_ut"])
def test_solve_csv_pinned(flags, digest, tmp_path, capsys):
    out = tmp_path / "sol.csv"
    snaps = ",".join(f"{k / 10:g}" for k in range(31))
    assert main(["solve", *flags, "--t-max", "3", "--dr", "0.05",
                 "--snap-times", snaps, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_solve_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max = 99\ndr = 0.1\nmu = 0.0\nnonlinearity = none\n"
                   "f_amp = 0.1\ng_amp = 0.1\n# comment line\n")
    summary = tmp_path / "sum.csv"
    rc = main(["solve", "--config", str(cfg), "--t-max", "4",
               "--summary", str(summary)])
    assert rc == 0
    assert "status=completed" in capsys.readouterr().out
    (row,) = _read_rows(summary)
    assert float(row["t_end"]) == pytest.approx(4.0, abs=0.1)


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 1\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    cfg.write_text("u_threshold = nan\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "u_threshold must be finite" in capsys.readouterr().err
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("argv", [
    ["lifespan", "--refine-levels", "0", "--dr", "0.1"],
    ["solve", "--p", "0.5", "--dr", "0.1"],
    ["solve", "--dr", "-1"],
    ["solve", "--t-max", "0.01", "--dr", "0.1"],  # 0 steps of dt 0.1
    ["sweep", "--eps-min", "2", "--eps-max", "1", "--dr", "0.1"],
    ["sweep", "--jobs", "0", "--dr", "0.1"],
    ["solve", "--nonlinearity", "cubic", "--dr", "0.1"],
    # non-finite values, and a threshold that every step would exceed
    ["solve", "--u-threshold", "-1", "--dr", "0.1"],
    ["solve", "--u-threshold", "nan", "--dr", "0.1"],
    ["solve", "--p", "nan", "--dr", "0.1"],
    ["solve", "--eps", "inf", "--dr", "0.1"],
    ["solve", "--mu", "nan", "--dr", "0.1"],
    ["solve", "--beta", "nan", "--dr", "0.1"],
    ["solve", "--t-max", "inf", "--dr", "0.1"],
    ["solve", "--snap-times", "0.5,nan", "--dr", "0.1"],
    ["solve", "--snap-times", "abc", "--dr", "0.1"],
    ["solve", "--snap-times", ",", "--dr", "0.1"],
    ["sweep", "--eps-max", "inf", "--dr", "0.1"],
    ["lifespan", "--t-max", "0.01", "--dr", "0.1"],
    # from n = 6 the stencil's eigenvalues are complex: no dt is stable
    ["solve", "--n", "6", "--dr", "0.1"],
    ["lifespan", "--n", "6", "--dr", "0.1"],
    ["sweep", "--n", "6", "--dr", "0.1"],
    # a fit needs 4 points from a rising eps range
    ["sweep", "--eps-count", "3", "--dr", "0.1"],
    ["sweep", "--eps-min", "1", "--eps-max", "0.5", "--dr", "0.1"],
    # a snapshot time beyond the run is refused, not dropped
    ["solve", "--snap-times", "0.5,5", "--dr", "0.1"],
    ["solve", "--snap-times", "5", "--dr", "0.1"],
])
def test_bad_values_exit_2(argv, tmp_path, capsys):
    # a short coarse run, should a check be missed; a --t-max in argv wins
    cmd, *rest = argv
    out = tmp_path / "out.csv"
    assert main([cmd, "--t-max", "1", *rest, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_commands_without_the_solver_take_n_above_5(capsys):
    # only the commands that run the solver refuse n >= 6
    assert main(["exponents", "--n", "8"]) == 0
    assert main(["eigen", "--n", "6", "--etas", "1", "--r-max", "10"]) == 0
    assert "p_strauss" in capsys.readouterr().out


def test_every_config_key_has_a_flag(tmp_path):
    # a value for every RunConfig field that differs from its default
    other = dict(n=4, mu=2.0, beta=2.5, p=3.0, nonlinearity="power_ut",
                 eps=0.25, data_k=5, f_amp=2.0, g_amp=3.0, t_max=5.0, dr=0.02,
                 u_threshold=1e5, refine_levels=3)
    assert list(other) == [f.name for f in fields(RunConfig)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {val}\n" for key, val in other.items()))
    flags = [tok for f in fields(RunConfig)
             for tok in ("--" + f.name.replace("_", "-"), str(f.default))]
    args = build_parser().parse_args(["solve", "--config", str(cfg)])
    assert resolve_config(args) == RunConfig(**other)
    args = build_parser().parse_args(["solve", "--config", str(cfg), *flags])
    assert resolve_config(args) == RunConfig()


VERIFY_5_1 = ["verify", "--checks", "5.1", "--solution"]
# solution files that verify refuses, by test id
BAD_SOLUTIONS = {
    "verify-non-numeric": "t,r,u,ut\n0,0,x,1\n",
    "verify-inf-t": "t,r,u,ut\ninf,0,1,1\n",
    "verify-nan-t": "t,r,u,ut\nnan,0,1,1\n",
    "verify-inf-r": "t,r,u,ut\n0,inf,1,1\n",
    "verify-nan-r": "t,r,u,ut\n0,nan,1,1\n",
    # two runs of t over three rows; then a second block that starts at t = 0
    "verify-partial-snapshot": "t,r,u,ut\n0,0,1,1\n0,0.1,1,1\n1,0,1,1\n",
    "verify-time-splits-block": "t,r,u,ut\n0,0,1,1\n0,0.1,1,1\n0,0,1,1\n1,0.1,1,1\n",
    "verify-no-rows": "t,r,u,ut\n",
    # a falling r column sent the eigen solve's graded tail away from r_ref,
    # and verify never returned
    "verify-falling-r": "t,r,u,ut\n10,0,0,0\n10,-0.05,0,0\n10,-0.1,0,0\n",
    # a uniform r column that starts above 0 reached the eigen solve, which
    # refused it as "r_out must start at 0", naming no file
    "verify-offset-r": "t,r,u,ut\n0,0.05,0,0\n0,0.1,0,0\n0,0.15,0,0\n"
                       "10,0.05,0,0\n10,0.1,0,0\n10,0.15,0,0\n",
}


@pytest.mark.parametrize("argv, text", [
    (["fit", "--in"], "eps,T\n0.5,abc\n"),
    (["fit", "--in"], "eps,uncertainty,T\n0.5,0.1\n"),
    (["fit", "--in"], ""),
    (["fit", "--in"], "eps,T,uncertainty\n0.5,4,abc\n"),
    # a flag cell reads exactly true or false, as format_value writes it
    (["fit", "--in"], "eps,T,censored\n0.5,4,TRUE\n"),
    (["fit", "--in"], "eps,T,censored\n0.5,4,yes\n"),
    (["fit", "--in"], "eps,T,unreliable\n0.5,4,1\n"),
    (["fit", "--in"], "eps,T,censored\n0.5,4,\n"),
    (["fit", "--in"], "eps,T,T\n0.5,4,2\n"),
    *((VERIFY_5_1, text) for text in BAD_SOLUTIONS.values()),
], ids=["fit-non-numeric", "fit-short-row", "fit-empty", "fit-bad-uncertainty",
        "fit-flag-TRUE", "fit-flag-yes", "fit-flag-1", "fit-flag-empty",
        "fit-repeated-column", *BAD_SOLUTIONS])
def test_malformed_csv_exits_2(argv, text, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


@pytest.mark.parametrize("argv", [
    ["solve", "--t-max", "1", "--dr", "0.1", "--out"],
    ["solve", "--t-max", "1", "--dr", "0.1", "--config"],
    ["fit", "--in"],
], ids=["solve-out", "config", "fit-in"])
def test_directory_as_file_exits_2(argv, tmp_path, capsys):
    assert main([*argv, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("file error:")
    assert not any(tmp_path.iterdir())


def test_numerical_fault_keeps_its_traceback(monkeypatch):
    def fault(*args, **kwargs):
        raise ArithmeticError("psi lost positivity")
    monkeypatch.setattr(cli, "run", fault)
    with pytest.raises(ArithmeticError, match="psi lost positivity"):
        main(["solve", "--t-max", "1", "--dr", "0.1"])


# --- lifespan / sweep / fit -------------------------------------------------------

def test_lifespan_cmd(tmp_path, capsys):
    out = tmp_path / "life.csv"
    rc = main(["lifespan", "--mu", "0", "--p", "2.2", "--eps", "1.0",
               "--f-amp", "20", "--g-amp", "20", "--t-max", "6",
               "--dr", "0.04", "--out", str(out)])
    assert rc == 0
    (row,) = _read_rows(out)
    assert row["censored"] == "false"
    assert 0.0 < float(row["T"]) < 6.0
    assert "T_levels" in capsys.readouterr().out


# the power_ut ladder at eps = 0.74869: the coarse level reaches t_max 12,
# the fine one blows up at 11.98
PARTLY_CENSORED = ["--mu", "1", "--beta", "3", "--p", "1.5", "--nonlinearity",
                   "power_ut", "--f-amp", "2", "--g-amp", "2", "--t-max", "12",
                   "--dr", "0.04"]


def test_partly_censored_eps_reads_nan(tmp_path, capsys):
    # a censored eps has no lifespan: T is NaN on stdout as in the table
    out = tmp_path / "life.csv"
    assert main(["lifespan", *PARTLY_CENSORED, "--eps", "0.74869",
                 "--out", str(out)]) == 1  # unreliable
    assert ("eps=0.74869 T_levels=(nan, 11.98) T=nan uncertainty=nan "
            "censored=True unreliable=True") in capsys.readouterr().out
    (row,) = _read_rows(out)
    assert row["T"] == "NaN" and row["censored"] == "true"
    main(["sweep", *PARTLY_CENSORED, "--eps-min", "0.74869", "--eps-max", "0.8",
          "--eps-count", "4", "--out", str(tmp_path / "sweep.csv")])
    assert "eps=0.74869 T=nan censored=True" in capsys.readouterr().out


# max|u| overflows before it passes 1e300 (solve: unstable at t = 1.96)
OVERFLOWING = ["--mu", "1", "--p", "2", "--f-amp", "20", "--g-amp", "20",
               "--t-max", "6", "--dr", "0.04", "--u-threshold", "1e300"]


@pytest.mark.parametrize("argv", [
    ["lifespan", *OVERFLOWING, "--eps", "1"],
    ["sweep", *OVERFLOWING, "--eps-min", "0.9", "--eps-max", "1", "--eps-count", "4"],
], ids=["lifespan", "sweep"])
def test_overflowing_ladder_keeps_its_traceback(argv, tmp_path, capsys):
    # an unknown lifespan is a numerical fault, not a censored eps
    table = tmp_path / "sweep.csv"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ArithmeticError, match=r"overflowed at eps = .*, dr = 0\.04, t = "):
        main([*argv, "--out", str(table)])
    assert not table.exists() and capsys.readouterr().out == ""


def test_sweep_csv_worker_invariant(tmp_path, capsys):
    args = ["sweep", "--mu", "0", "--p", "2.2", "--f-amp", "20",
            "--g-amp", "20", "--t-max", "8", "--dr", "0.04",
            "--eps-min", "0.5", "--eps-max", "1.0", "--eps-count", "4",
            "--tolerance", "99"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = main(args + ["--jobs", "1", "--out", str(a)])
    rc2 = main(args + ["--jobs", "2", "--out", str(b)])
    capsys.readouterr()
    assert rc1 == rc2
    assert a.read_bytes() == b.read_bytes()
    rows = _read_rows(a)
    assert len(rows) == 4
    assert all(row["censored"] == "false" for row in rows)


def test_sweep_critical_bound_refusal(tmp_path, capsys):
    out = tmp_path / "crit.csv"
    rc = main(["sweep", "--mu", "0", "--p", P_STRAUSS3, "--f-amp", "20",
               "--g-amp", "20", "--t-max", "8", "--dr", "0.04",
               "--eps-min", "0.5", "--eps-max", "1.0", "--eps-count", "4",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "not applicable" in text and "odelemma" in text
    assert len(_read_rows(out)) == 4  # table still written


def test_fit_synthetic_roundtrip(tmp_path, capsys):
    sweep = tmp_path / "sweep.csv"
    eps = np.geomspace(0.2, 1.0, 6)
    rows = [(e, 3.0 * e**-2.0, 0.01, False, False) for e in eps]
    rows.append((0.15, float("nan"), 0.0, True, False))  # censored extra
    write_csv(str(sweep), ("eps", "T", "uncertainty", "censored",
                           "unreliable"), rows)
    out = tmp_path / "fit.csv"
    plot = tmp_path / "fit.svg"
    rc = main(["fit", "--in", str(sweep), "--theory-exponent", "2.0",
               "--tolerance", "1e-6", "--out", str(out), "--plot", str(plot)])
    assert rc == 0
    (row,) = _read_rows(out)
    assert float(row["slope"]) == pytest.approx(2.0, abs=1e-12)
    assert row["verdict"] == "consistent"
    assert plot.read_text().count("<circle") == 6
    capsys.readouterr()
    # injected failure: wrong theory exponent
    assert main(["fit", "--in", str(sweep), "--theory-exponent", "3.0"]) == 1
    capsys.readouterr()


def test_fit_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("eps,uncertainty\n0.5,0.1\n")
    assert main(["fit", "--in", str(bad)]) == 2  # missing T column
    good = tmp_path / "good.csv"
    eps = np.geomspace(0.2, 1.0, 5)
    write_csv(str(good), ("eps", "T", "uncertainty", "censored", "unreliable"),
              [(e, 2.0 * e**-2.0, 0.0, False, False) for e in eps])
    # critical config without an explicit exponent: declines to fit
    rc = main(["fit", "--in", str(good), "--p", P_STRAUSS3])
    assert rc == 0
    text = capsys.readouterr().out
    assert "not applicable" in text


SWEEP_FLAGS = ["--mu", "0", "--p", "2.2", "--f-amp", "20", "--g-amp", "20",
               "--t-max", "8", "--dr", "0.04"]


@pytest.mark.parametrize("flags", [[], ["--tolerance", "99"],
                                   ["--p", P_STRAUSS3]],
                         ids=["inconsistent", "consistent", "critical"])
def test_sweep_and_fit_report_alike(flags, tmp_path, capsys):
    # fit --in on a sweep's own table gives the sweep's last line and exit code
    table = tmp_path / "sweep.csv"
    rc_sweep = main(["sweep", *SWEEP_FLAGS, "--eps-min", "0.5", "--eps-count",
                     "4", *flags, "--out", str(table)])
    sweep_line = capsys.readouterr().out.splitlines()[-1]
    rc_fit = main(["fit", *SWEEP_FLAGS, *flags, "--in", str(table)])
    assert capsys.readouterr().out.splitlines() == [sweep_line]
    assert rc_fit == rc_sweep


@pytest.mark.parametrize("argv", [
    ["solve", "--t-max", "1", "--dr", "0.1", "--out", "{dir}/sol.csv",
     "--summary", "{dir}"],
    ["fit", "--in", "{table}", "--out", "{dir}/fit.csv", "--plot", "{dir}"],
    ["sweep", *SWEEP_FLAGS, "--eps-min", "0.5", "--eps-count", "4",
     "--out", "{dir}/sweep.csv", "--plot", "{dir}"],
    ["bq", "--q", "1", "--t-max", "2", "--dr", "0.1", "--out", "{dir}/nodir/bq.csv"],
    ["lifespan", *SWEEP_FLAGS, "--out", "{dir}"],
    ["eigen", "--etas", "1", "--r-max", "10", "--out", "{dir}/nodir/eigen.csv"],
    ["verify", "--solution", "{table}", "--out", "{dir}"],
    ["odelemma", "--p1", "2", "--p2", "2", "--out", "{dir}"],
    ["exponents", "--out", "{dir}/nodir/exponents.csv"],
], ids=["solve", "fit", "sweep", "bq", "lifespan", "eigen", "verify", "odelemma",
        "exponents"])
def test_unwritable_output_leaves_no_file(argv, tmp_path, capsys, monkeypatch):
    # every output path is checked before the command computes, prints or writes
    def compute(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")
    for name in ("run", "run_sweep", "build_bq", "verify_bq_identities",
                 "psi_hat_batch", "_read_solution_csv", "ode_lemma_fit",
                 "critical_exponents"):
        monkeypatch.setattr(cli, name, compute)
    table = tmp_path / "table.csv"
    table.write_text("eps,T\n0.25,16\n0.5,4\n0.75,1.7777777777777777\n1,1\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main([a.format(dir=out_dir, table=table) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("file error:")
    assert not any(out_dir.iterdir())


def test_fit_too_few_clean_rows_is_refused(tmp_path, capfd):
    three = tmp_path / "three.csv"
    write_csv(str(three), ("eps", "T", "uncertainty", "censored", "unreliable"),
              [(e, 2.0 * e**-2.0, 0.0, False, False) for e in (0.5, 0.7, 1.0)])
    # 1/eps of a subnormal eps overflows, so that row is not clean either
    subnormal = tmp_path / "subnormal.csv"
    subnormal.write_text("eps,T\n5e-324,1\n0.5,2\n0.6,2\n0.7,1\n")
    life = tmp_path / "life.csv"
    assert main(["lifespan", *SWEEP_FLAGS, "--out", str(life)]) == 0
    capfd.readouterr()
    for table in (three, subnormal, life):
        assert main(["fit", "--in", str(table)]) == 0
        captured = capfd.readouterr()
        assert "fewer than 4 clean points: fit not applicable" in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("T", ["4,4,4,4", "4,5,6,7"])
def test_fit_without_a_spread_in_eps_is_refused(T, tmp_path, capfd):
    table = tmp_path / "one_eps.csv"
    table.write_text("eps,T\n" + "".join(f"0.5,{t}\n" for t in T.split(",")))
    assert main(["fit", "--in", str(table), "--theory-exponent", "1"]) == 0
    captured = capfd.readouterr()
    assert captured.out == "fewer than 4 clean points: fit not applicable\n"
    assert captured.err == ""


def test_linear_sweep_and_fit_are_refused(tmp_path, capsys):
    table = tmp_path / "linear.csv"
    flags = ["--nonlinearity", "none", "--t-max", "1", "--dr", "0.1"]
    assert main(["sweep", *flags, "--out", str(table)]) == 0
    assert all(row["censored"] == "true" for row in _read_rows(table))
    assert main(["fit", *flags, "--in", str(table)]) == 0
    text = capsys.readouterr().out
    assert text.count("bound kind is infinite [linear]: power-law fit not "
                      "applicable; no finite-time blow-up bound exists to fit") == 2
    assert "critical-case" not in text


def test_supercritical_fit_is_refused_without_critical_hint(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    write_csv(str(table), ("eps", "T", "uncertainty", "censored", "unreliable"),
              [(e, 2.0 * e**-2.0, 0.0, False, False) for e in np.geomspace(0.2, 1.0, 5)])
    assert main(["fit", "--in", str(table), "--p", "4"]) == 0
    assert capsys.readouterr().out == (
        "bound kind is infinite [power_u_supercritical]: power-law fit not "
        "applicable; no finite-time blow-up bound exists to fit\n")


@pytest.mark.parametrize("theory", ["nan", "inf", "-inf"])
def test_fit_non_finite_theory_exponent_exits_2(theory, tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    write_csv(str(table), ("eps", "T", "uncertainty", "censored", "unreliable"),
              [(e, 2.0 * e**-2.0, 0.0, False, False) for e in np.geomspace(0.2, 1.0, 5)])
    assert main(["fit", "--in", str(table), f"--theory-exponent={theory}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "theory exponent must be finite" in captured.err


def test_negative_tolerance_exits_2(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("sweep ran a solve")

    monkeypatch.setattr(cli, "run_sweep", no_solve)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--tolerance", "-0.1", "--out", str(out)]) == 2
    assert not out.exists()
    write_csv(str(out), ("eps", "T"), [(e, e**-2.0) for e in (0.2, 0.4, 0.6, 0.8)])
    assert main(["fit", "--in", str(out), "--tolerance", "-0.1"]) == 2
    err = capsys.readouterr().err
    assert err.count("config error: tolerance must be >= 0") == 2


# --- eigen -----------------------------------------------------------------------

def test_eigen_cmd(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    rc = main(["eigen", "--mu", "1.0", "--beta", "2.5",
               "--etas", "1.0,2.0", "--r-max", "40", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count("lambda=") == 2
    rows = _read_rows(out)
    assert set(rows[0]) == {"eta", "r", "psi", "w", "lambda"}
    assert len({row["eta"] for row in rows}) == 2
    r = 0.01 * np.arange(4001)
    cells = []
    for eta in (1.0, 2.0):
        # one eta per call: lambda does not depend on the other --etas values
        psi_hat, (lam,) = psi_hat_batch([eta], 1.0, 2.5, 3, r)
        psi = psi_hat[0] * lam
        w = (1.0 + r) * np.exp(-eta * r) * psi
        cells += [(eta, r[j], psi[j], w[j], lam) for j in range(r.size)]
    assert out.read_bytes() == csv_text(("eta", "r", "psi", "w", "lambda"),
                                        cells).encode()


def test_eigen_guards_exit_2(capsys):
    assert main(["eigen", "--etas", "-1.0"]) == 2
    assert main(["eigen", "--etas", "20.0", "--r-max", "40"]) == 2
    for r_max in ("0", "nan", "inf"):
        assert main(["eigen", "--r-max", r_max]) == 2
    capsys.readouterr()


# --- bq ---------------------------------------------------------------------------

def test_bq_cmd(tmp_path, capsys):
    out = tmp_path / "bq.csv"
    rc = main(["bq", "--q", "1.0", "--t-max", "6", "--dr", "0.05",
               "--dt", "0.05", "--nodes", "48", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.count(": max residual") == 4
    assert "FAIL" not in text
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[1] == 3
    assert np.all(data[:, 2] > 0.0)
    t_grid = 1.0 + 0.05 * np.arange(101)
    r_grid = 0.05 * np.arange(121)
    tq = build_bq(1.0, RunConfig().model_params(), t_grid, r_grid, nodes=48)
    cells = [(t, r, tq.values[i, j]) for i, t in enumerate(t_grid)
             for j, r in enumerate(r_grid)]
    assert out.read_bytes() == csv_text(("t", "r", "bq"), cells).encode()


@pytest.mark.parametrize("flags", [
    ["--dt", "0"], ["--dt", "-0.1"], ["--r-max", "-1"], ["--t-max", "0.5"],
    ["--nodes", "0"], ["--q", "0"], ["--q", "-1"],
    ["--t-max", "1.1"],  # two table times: no interior row to check
    ["--dt", "inf"], ["--r-max", "inf"], ["--threshold", "nan"],
])
def test_bq_bad_values_exit_2(flags, tmp_path, capsys):
    # the last occurrence of a flag wins, so each case overrides a good run
    argv = ["bq", "--q", "1", "--t-max", "2", "--dr", "0.1", "--nodes", "8",
            "--out", str(tmp_path / "bq.csv")]
    assert main([*argv, *flags]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "bq.csv").exists()


def test_bq_threshold_failure(capsys):
    rc = main(["bq", "--q", "1.0", "--t-max", "4", "--dr", "0.1",
               "--dt", "0.1", "--nodes", "32", "--threshold", "1e-9"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# --- verify -----------------------------------------------------------------------

VERIFY_FLAGS = ["--mu", "1.0", "--beta", "2.5", "--p", P_STRAUSS3,
                "--eps", "1.0", "--f-amp", "6.8", "--g-amp", "6.8"]


def test_verify_all_checks(crit_solution_csv, tmp_path, capsys):
    out = tmp_path / "checks.csv"
    rc = main(["verify", "--solution", crit_solution_csv, *VERIFY_FLAGS,
               "--points", "8", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "check 5.11: skipped" in text
    assert "all checks passed" in text
    assert text.count(": pass") == 5
    rows = _read_rows(out)
    assert {row["check"] for row in rows} == {"3.4", "3.16", "4.9", "4.15",
                                              "5.1"}
    sign_rows = [row for row in rows if row["check"] == "5.1"]
    assert all(row["ratio"] == "NaN" for row in sign_rows)


def test_verify_builds_shared_inputs_once(crit_solution_csv, tmp_path,
                                          monkeypatch, capsys):
    from strauss_lab import functionals, testfunc
    calls = {"psi_hat_batch": [], "build_bq": []}

    def counting(name, fn):
        def wrapped(*args, **kw):
            calls[name].append(tuple(
                a.tobytes() if isinstance(a, np.ndarray) else a
                for a in (*args, *sorted(kw.items()))))
            return fn(*args, **kw)
        return wrapped

    for mod in (functionals, testfunc):
        monkeypatch.setattr(mod, "psi_hat_batch",
                            counting("psi_hat_batch", mod.psi_hat_batch))
    monkeypatch.setattr(functionals, "build_bq",
                        counting("build_bq", functionals.build_bq))
    both = tmp_path / "all.csv"
    assert main(["verify", "--solution", crit_solution_csv, *VERIFY_FLAGS,
                 "--points", "8", "--out", str(both)]) == 0
    for name, keys in calls.items():
        assert keys and len(keys) == len(set(keys)), name
    # a run of one check computes its inputs afresh: same rows, same bytes
    rows = []
    for tok in ("3.4", "3.16", "4.9", "4.15", "5.1"):
        one = tmp_path / f"{tok}.csv"
        assert main(["verify", "--solution", crit_solution_csv, *VERIFY_FLAGS,
                     "--points", "8", "--checks", tok, "--out", str(one)]) == 0
        rows += one.read_text().splitlines()[1:]
    assert both.read_text().splitlines()[1:] == rows
    capsys.readouterr()


def test_verify_tight_tolerance_fails(crit_solution_csv, capsys):
    rc = main(["verify", "--solution", crit_solution_csv, *VERIFY_FLAGS,
               "--checks", "3.16", "--points", "8",
               "--spread-tol", "1.000001"])
    assert rc == 1
    assert "FAILED checks: 3.16" in capsys.readouterr().out


def test_verify_unknown_check(crit_solution_csv, capsys):
    rc = main(["verify", "--solution", crit_solution_csv, "--checks", "9.9"])
    assert rc == 2
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize("checks", [",", "", " , "])
def test_verify_no_check_named_exits_2(checks, crit_solution_csv, capsys):
    # no check run is no evidence: not "all checks passed"
    rc = main(["verify", "--solution", crit_solution_csv, "--checks", checks])
    assert rc == 2
    captured = capsys.readouterr()
    assert "all checks passed" not in captured.out
    assert captured.err.startswith("config error: no check named")


@pytest.mark.parametrize("points", ["0", "-3", "1"])
def test_verify_bad_points_exit_2(points, crit_solution_csv, capsys):
    # one point would pass every spread check vacuously (spread 1)
    assert main(["verify", "--solution", crit_solution_csv, *VERIFY_FLAGS,
                 "--checks", "3.16", "--points", points]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_verify_short_solution_exit_2(tmp_path, capsys):
    # t_last = 1 leaves no room for the default T grid from 2 to 0.8 t_last
    path = str(tmp_path / "short.csv")
    assert main(["solve", "--t-max", "1", "--dr", "0.1", "--out", path]) == 0
    assert main(["verify", "--solution", path, "--checks", "3.4"]) == 2
    assert "too short" in capsys.readouterr().err


def test_verify_malformed_solution(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,r,u\n0.0,0.0,1.0\n")
    assert main(["verify", "--solution", str(bad), "--checks", "5.1"]) == 2
    capsys.readouterr()


def _snapshot_csv(path, t_vals, r_blocks):
    rows = [(t, r, t + 10.0 * r, -r) for t, r_col in zip(t_vals, r_blocks)
            for r in r_col]
    write_csv(str(path), ("t", "r", "u", "ut"), rows)


def test_solution_csv_time_order(tmp_path):
    # snapshot blocks stored out of time order read back like the sorted file
    r = [0.0, 0.1, 0.2]
    _snapshot_csv(tmp_path / "sorted.csv", [0.0, 0.5, 1.0], [r] * 3)
    _snapshot_csv(tmp_path / "shuffled.csv", [1.0, 0.0, 0.5], [r] * 3)
    ref = _read_solution_csv(str(tmp_path / "sorted.csv"))
    got = _read_solution_csv(str(tmp_path / "shuffled.csv"))
    for a, b in zip(ref, got):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(got[2][:, 1], [1.0, 1.5, 2.0])  # u = t + 10 r


def test_solution_csv_keeps_no_parse_buffer(tmp_path):
    # the reader keeps exactly the four arrays it returns: none is a view
    # that pins the whole parsed (rows, 4) array
    path = tmp_path / "sol.csv"
    _snapshot_csv(path, np.linspace(0.0, 1.0, 40), [np.linspace(0.0, 2.0, 300)] * 40)
    _read_solution_csv(str(path))  # first-call imports and caches
    tracemalloc.start()
    try:
        got = _read_solution_csv(str(path))
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept == pytest.approx(sum(a.nbytes for a in got), rel=0.05)


# signed zeros, subnormals and the ends of the float range beside any finite
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                -1.7976931348623157e308]
_cells = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
                   st.floats(1e307, 1.7976931348623157e308),
                   st.floats(-1.7976931348623157e308, -1e307),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _snapshots(draw):
    """(t, r, u, ut, order): distinct times, one r column, the rows of u and
    ut per time, and the order in which the snapshots are written."""
    t = draw(st.lists(_cells, min_size=1, max_size=6, unique=True))
    nr = draw(st.integers(1, 6))

    def grid(rows):
        return np.array(draw(st.lists(st.lists(_cells, min_size=nr, max_size=nr),
                                      min_size=rows, max_size=rows)))
    return (np.array(t), grid(1)[0], grid(len(t)), grid(len(t)),
            draw(st.permutations(range(len(t)))))


def _check_round_trip(tmp_path, snap):
    """Snapshots written in any time order read back bit for bit, in time order."""
    t, r, u, ut, order = snap
    path = str(tmp_path / "sol.csv")
    write_csv(path, ("t", "r", "u", "ut"), ((t[i], r, u[i], ut[i]) for i in order))
    by_t = np.argsort(t)
    for got, want in zip(_read_solution_csv(path), (t[by_t], r, u[by_t], ut[by_t])):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snap=_snapshots())
def test_solution_csv_round_trip(tmp_path, snap):
    _check_round_trip(tmp_path, snap)


# --- the solution reader's text path: t and r parsed once per distinct text ---

@pytest.fixture(params=[1, 2, 3], ids=["chunk1", "chunk2", "chunk3"])
def small_chunks(request, monkeypatch):
    """The solution reader searches for the end of the first snapshot 1, 2
    or 3 rows at a time, so the first snapshot crosses read boundaries; each
    later read holds whole snapshots, at least one."""
    monkeypatch.setattr(cli, "SOLUTION_CHUNK_ROWS", request.param)


def _float_parse(path, nt):
    """(t, r, u, ut) of a well-formed solution file of nt snapshots, from
    np.loadtxt's float parse of every cell."""
    blocks = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(nt, -1, 4)
    by_t = np.argsort(blocks[:, 0, 0], kind="stable")
    return (blocks[by_t, 0, 0], blocks[0, :, 1], blocks[by_t, :, 2],
            blocks[by_t, :, 3])


def _assert_reads_as_float_parse(path, nt):
    for got, want in zip(_read_solution_csv(str(path)), _float_parse(path, nt)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(snap=_snapshots())
def test_solution_csv_round_trip_in_small_chunks(small_chunks, tmp_path, snap):
    _check_round_trip(tmp_path, snap)


@pytest.mark.parametrize("text", BAD_SOLUTIONS.values(), ids=BAD_SOLUTIONS)
def test_malformed_solution_in_small_chunks(text, small_chunks, tmp_path, capsys,
                                            monkeypatch):
    # the same refusal, word for word, as when the file is one chunk
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main([*VERIFY_5_1, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err
    monkeypatch.undo()  # back to the reader's own chunk size
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("text, nt", [
    # three snapshots spell their times three ways, one text each
    ("0.1,0,1,2\n0.1,0.5,3,4\n2e-1,0,5,6\n2e-1,0.5,7,8\n"
     "+0.30,0,9,10\n+0.30,0.5,11,12\n", 3),
    # padded, signed and exponent spellings of t, one a snapshot; r alike
    ("+1,-0,1,2\n+1,.5,3,4\n 0e0 ,-0,5,6\n 0e0 ,.5,7,8\n", 2),
], ids=["t", "t-mixed"])
def test_solution_spellings_read_as_their_values(text, nt, tmp_path):
    path = tmp_path / "sol.csv"
    path.write_text("t,r,u,ut\n" + text)
    _assert_reads_as_float_parse(path, nt)


@pytest.mark.parametrize("text", [
    # one snapshot spells its t three ways, all the value 0.1
    "0.1,0,1,2\n0.10000000000000001,0.5,3,4\n1e-1,1,5,6\n"
    "0.2,0,7,8\n0.2,0.5,9,10\n0.2,1,11,12\n",
    # padded, signed and exponent spellings of t within each snapshot
    "+1,-0,1,2\n 1.0 ,.5,3,4\n0,-0,5,6\n0e0,.5,7,8\n",
    # only the last row spells its snapshot's t another way
    "0,0,1,2\n0,0.5,3,4\n1,0,5,6\n1.0,0.5,7,8\n",
], ids=["t", "t-mixed", "t-last"])
def test_solution_t_respelled_within_a_snapshot_exits_2(
        text, small_chunks, tmp_path, capsys, monkeypatch):
    # solve --out writes one t text a snapshot; the refusal reads word for
    # word as in one read
    path = tmp_path / "bad.csv"
    path.write_text("t,r,u,ut\n" + text)
    assert main([*VERIFY_5_1, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not contiguous" in err
    monkeypatch.undo()  # back to the reader's own chunk size
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("text, message", [
    # two snapshots spell one r two ways
    ("0,0,1,2\n0,0.05,3,4\n1,0,5,6\n1,5e-2,7,8\n", "r column"),
    # padded, signed and exponent spellings of t and r; t alike in a snapshot
    ("+1,-0,1,2\n+1,.5,3,4\n 0e0 ,-0.0,5,6\n 0e0 ,5E-1,7,8\n", "r column"),
    # r cells padded with a space beyond ASCII, spelled alike in both snapshots
    ("0,0\xa0,1,2\n0,0.5\xa0,3,4\n1,0\xa0,5,6\n1,0.5\xa0,7,8\n", "beyond ASCII"),
    ("0,0\u2003,1,2\n0,0.5\u2003,3,4\n1,0\u2003,5,6\n1,0.5\u2003,7,8\n",
     "beyond ASCII"),
], ids=["r", "mixed", "r-nbsp", "r-em-space"])
def test_solution_r_spelled_unlike_or_beyond_ascii_exits_2(
        text, message, small_chunks, tmp_path, capsys, monkeypatch):
    # r is the first snapshot's text, which every snapshot repeats as solve
    # --out writes it; the refusal reads word for word as in one chunk
    path = tmp_path / "bad.csv"
    path.write_text("t,r,u,ut\n" + text, encoding="utf-8")
    assert main([*VERIFY_5_1, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    monkeypatch.undo()  # back to the reader's own chunk size
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("text, message", [
    # 0.10000000000000002 is not 0.1: the first snapshot is split
    ("0.1,0,1,1\n0.10000000000000002,0.5,1,1\n0.1,1,1,1\n"
     "0.2,0,1,1\n0.2,0.5,1,1\n0.2,1,1,1\n", "not contiguous"),
    ("0,0,1,1\n0,0.05,1,1\n1,0,1,1\n1,0.05000000000000001,1,1\n", "r column"),
], ids=["t", "r"])
def test_solution_spellings_of_other_values_are_refused(text, message, tmp_path,
                                                        capsys):
    path = tmp_path / "bad.csv"
    path.write_text("t,r,u,ut\n" + text)
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "0.1000000000000000055511151231257827021,0,1,1",
    "0.1,0.1000000000000000055511151231257827021,1,1",
], ids=["t", "r"])
def test_solution_cell_longer_than_its_field_exits_2(row, tmp_path, capsys):
    # a whole-file float parse reads this 0.1, but the text field would cut it
    path = tmp_path / "long.csv"
    path.write_text(f"t,r,u,ut\n{row}\n")
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert (f"longer than {cli.TEXT_FIELD - 1} characters"
            in capsys.readouterr().err)


def test_solution_r_cell_of_31_characters_reads_and_32_are_refused(tmp_path):
    # a text that fills its TEXT_FIELD bytes may have been cut: the last byte
    # of the field decides, whatever the cell
    for digits, refused in ((29, False), (30, True)):
        text = "0." + "1" * digits
        path = tmp_path / f"r{len(text)}.csv"
        path.write_text(f"t,r,u,ut\n0,{text},1,1\n")
        if refused:
            with pytest.raises(ConfigError, match="longer than 31 characters"):
                _read_solution_csv(str(path))
        else:
            assert len(text) == cli.TEXT_FIELD - 1
            assert _read_solution_csv(str(path))[1].tolist() == [float(text)]


@pytest.mark.parametrize("row, at", [
    ("0\0,1,1,1", 10),
    ("0,1\0,1,1", 12),
], ids=["t", "r"])
def test_solution_nul_cell_exits_2(row, at, tmp_path, capsys):
    # np.loadtxt drops the NULs that end a text field, so 1\0 would read as 1
    path = tmp_path / "nul.csv"
    path.write_bytes(f"t,r,u,ut\n{row}\n".encode())
    with pytest.raises(ConfigError, match=f"NUL byte at byte {at}$"):
        _read_solution_csv(str(path))
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert "NUL byte" in capsys.readouterr().err


SHORT_SOLVE = ["solve", "--t-max", "6", "--dr", "0.05", "--out"]
SHORT_VERIFY = ["verify", "--checks", "3.4,5.1", "--points", "3", "--solution"]


def test_solution_named_gz_reads_as_text(tmp_path, capsys):
    # solve --out writes text whatever the name: verify reads it back as text
    checks = []
    for name in ("sol.csv", "sol.csv.gz"):
        path = str(tmp_path / name)
        assert main([*SHORT_SOLVE, path]) == 0
        out = tmp_path / f"checks_{name}"
        assert main([*SHORT_VERIFY, path, "--out", str(out)]) == 0
        checks.append(out.read_bytes())
    capsys.readouterr()
    assert checks[0] == checks[1]


def test_archive_does_not_stand_in_for_a_missing_solution(tmp_path, capsys):
    # only sol.csv.gz, a gzip of a good solution, is there: sol.csv is missing
    text = tmp_path / "text.csv"
    assert main([*SHORT_SOLVE, str(text)]) == 0
    capsys.readouterr()
    (tmp_path / "sol.csv.gz").write_bytes(gzip.compress(text.read_bytes()))
    text.unlink()
    path = str(tmp_path / "sol.csv")
    assert main([*SHORT_VERIFY, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error:") and path in err


def test_solution_url_is_not_fetched(tmp_path, monkeypatch, capsys):
    # the path is a file name: no download, and nothing written beside it
    def urlopen(*args, **kwargs):
        pytest.fail("verify --solution opened a URL")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.chdir(tmp_path)
    assert main([*VERIFY_5_1, "http://example.invalid/sol.csv"]) == 2
    assert capsys.readouterr().err.startswith("file error:")
    assert list(tmp_path.iterdir()) == []


def test_solution_times_alike_in_their_first_24_chars_stay_apart(tmp_path):
    # 1e5 and 1e6, spelled alike in their first 25 characters: two snapshots
    path = tmp_path / "long_t.csv"
    path.write_text("t,r,u,ut\n1.00000000000000000000000e5,0,1,1\n"
                    "1.00000000000000000000000e6,0,2,2\n")
    _assert_reads_as_float_parse(path, 2)
    np.testing.assert_array_equal(_read_solution_csv(str(path))[0], [1e5, 1e6])


def test_solution_times_cut_alike_are_refused(tmp_path):
    # 1e5 and 1e6 would read alike, both cut to TEXT_FIELD characters
    zeros = "0" * cli.TEXT_FIELD
    path = tmp_path / "cut_t.csv"
    path.write_text(f"t,r,u,ut\n1.{zeros}e5,0,1,1\n1.{zeros}e6,0,2,2\n")
    np.testing.assert_array_equal(_float_parse(path, 2)[0], [1e5, 1e6])
    with pytest.raises(ConfigError, match=f"longer than {cli.TEXT_FIELD - 1}"):
        _read_solution_csv(str(path))


def test_first_snapshot_spans_chunks(small_chunks, tmp_path):
    # 7 rows a snapshot: the first snapshot and each t run span several chunks
    path = tmp_path / "sol.csv"
    _snapshot_csv(path, [0.5, 0.0, 1.0], [0.1 * np.arange(7)] * 3)
    _assert_reads_as_float_parse(path, 3)


def test_r_change_in_a_later_chunk_exits_2(small_chunks, tmp_path, capsys):
    # the last snapshot's last r differs from the first snapshot's, and only
    # the file's last chunk holds it
    path = tmp_path / "bad_r.csv"
    r = [0.0, 0.1, 0.2, 0.3]
    _snapshot_csv(path, [0.0, 0.5, 1.0], [r, r, [0.0, 0.1, 0.2, 0.35]])
    assert main([*VERIFY_5_1, str(path)]) == 2
    assert "r column" in capsys.readouterr().err


def test_verify_mismatched_r_blocks(tmp_path, capsys):
    path = tmp_path / "bad_r.csv"
    _snapshot_csv(path, [0.0, 0.5], [[0.0, 0.1, 0.2], [0.0, 0.1, 0.3]])
    assert main(["verify", "--solution", str(path), "--checks", "5.1"]) == 2
    assert "r column" in capsys.readouterr().err
    # rows of two snapshots interleaved instead of stored block by block
    write_csv(str(path), ("t", "r", "u", "ut"),
              [(t, r, 1.0, 0.0) for r in (0.0, 0.1) for t in (0.0, 0.5)])
    assert main(["verify", "--solution", str(path), "--checks", "5.1"]) == 2
    assert "not contiguous" in capsys.readouterr().err


def test_solution_without_rows_is_refused_without_a_warning(tmp_path, recwarn):
    path = tmp_path / "header_only.csv"
    path.write_text("t,r,u,ut\n")
    with pytest.raises(ConfigError, match="no snapshot rows"):
        _read_solution_csv(str(path))
    assert not recwarn.list


@pytest.mark.parametrize("nr", [2, 3])
def test_verify_repeated_time_exits_2(nr, tmp_path, capsys):
    # blocks at t = 0, 0.5, 0: the snapshot at t = 0 is split in two
    path = tmp_path / "split.csv"
    _snapshot_csv(path, [0.0, 0.5, 0.0], [0.1 * np.arange(nr)] * 3)
    assert main(["verify", "--solution", str(path), "--checks", "5.1"]) == 2
    assert "not contiguous" in capsys.readouterr().err


# --- odelemma ---------------------------------------------------------------------

def test_odelemma_cmd(tmp_path, capsys):
    out = tmp_path / "ode.csv"
    rc = main(["odelemma", "--p1", "2.0", "--p2", "2.0",
               "--delta-count", "6", "--out", str(out)])
    assert rc == 0
    assert "fitted slope" in capsys.readouterr().out
    rows = _read_rows(out)
    assert len(rows) == 6
    assert all(math.isfinite(float(row["loglogT"])) for row in rows)


def test_odelemma_tight_tolerance(capsys):
    rc = main(["odelemma", "--p1", "2.0", "--p2", "2.0",
               "--delta-count", "6", "--tol", "1e-9"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--p1", "2", "--p2", "2.9"],
    ["--p1", "3.333", "--p2", "3.726", "--k1", "1.795", "--k2", "1.972",
     "--delta-min", "1e-5", "--delta-max", "2e-5"],
])
def test_odelemma_far_crossings_match_theory(flags, capsys):
    assert main(["odelemma", *flags, "--tol", "1e-6"]) == 0
    assert "fitted slope" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--p1", "2", "--p2", "3.5"],  # the lemma needs p2 < p1 + 1
    ["--p1", "1", "--p2", "0.5"],  # ... and p1 > 1
    ["--p1", "2", "--p2", "2", "--delta-min", "0"],
    ["--p1", "2", "--p2", "2", "--k1", "0"],
    ["--p1", "2", "--p2", "2", "--k2", "0"],
    ["--p1", "2", "--p2", "2", "--delta-count", "1"],
    ["--p1", "2", "--p2", "2", "--delta-min", "inf"],
    ["--p1", "2", "--p2", "2", "--tol", "nan"],
    # the slope crossing overflows float range
    ["--p1", "2", "--p2", "2.99"],
    # delta too large: no slope crossing after t0
    ["--p1", "2", "--p2", "2", "--delta-min", "1e18", "--delta-max", "1e19"],
    # one distinct delta leaves no slope to fit
    ["--p1", "2", "--p2", "2", "--delta-count", "2", "--delta-min", "1e-2",
     "--delta-max", "1e-2"],
])
def test_odelemma_bad_values_exit_2(flags, tmp_path, capsys):
    out = tmp_path / "ode.csv"
    assert main(["odelemma", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


# --- console entry -----------------------------------------------------------------

# the commands that build Gauss-Jacobi rules, and one that builds none
RULE_COMMANDS = ("['bq', '--q', '1', '--t-max', '3', '--dr', '0.05', '--nodes', '16'], "
                 "['eigen', '--etas', '0.5,1', '--r-max', '60'], ['exponents']")


def _run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_scipy():
    code = ("import sys; from strauss_lab.cli import main; "
            f"[main(argv) for argv in ({RULE_COMMANDS})]; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _run_python(code) == "[]"


# a run at --jobs 1 loads no process pool, and no command loads numpy.ma
LAZY_PACKAGES = ("concurrent.futures", "multiprocessing", "numpy.ma")
TINY_SWEEP_CFG = ["--mu", "0", "--p", "2.2", "--f-amp", "20", "--g-amp", "20",
                  "--t-max", "4", "--dr", "0.1"]
TINY_SWEEP = ["sweep", *TINY_SWEEP_CFG, "--eps-min", "0.5", "--eps-count", "4"]


def _codes_and_modules(code: str) -> tuple[list, set]:
    """The list code leaves in `codes` and the modules a fresh interpreter
    holds after running it."""
    line = _run_python(code + "\nimport json, sys\n"
                       "print(json.dumps([codes, sorted(sys.modules)]))")
    codes, modules = json.loads(line)
    return codes, set(modules)


def _lazy(modules) -> list[str]:
    return sorted(m for m in modules for pkg in LAZY_PACKAGES
                  if m == pkg or m.startswith(pkg + "."))


def test_one_process_commands_load_no_pool_and_no_numpy_ma(tmp_path):
    sol, table = str(tmp_path / "sol.csv"), str(tmp_path / "sweep.csv")
    commands = [["exponents"],
                ["solve", "--t-max", "6", "--dr", "0.1", "--out", sol],
                ["verify", "--solution", sol],
                ["lifespan", *TINY_SWEEP_CFG],
                [*TINY_SWEEP, "--jobs", "1", "--out", table],
                ["fit", *TINY_SWEEP_CFG, "--in", table],
                ["bq", "--q", "1", "--t-max", "3", "--dr", "0.05", "--nodes", "16"],
                ["eigen", "--etas", "0.5,1", "--r-max", "10"],
                ["odelemma", "--p1", "2", "--p2", "2", "--delta-count", "4"]]
    codes, loaded = _codes_and_modules(
        "import numpy as np\n"
        "from strauss_lab.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "from strauss_lab.model import RunConfig\n"
        "from strauss_lab.testfunc import build_bq, hyper2f1_compensation\n"
        "table = build_bq(0.5, RunConfig().model_params(), 1.0 + 0.5 * np.arange(9),"
        " 0.5 * np.arange(11), nodes=16)\n"
        "codes.append(len(hyper2f1_compensation(table)))")
    # every command ran to its verdict; the tiny sweep's fit is inconsistent
    assert codes == [0, 0, 0, 0, 1, 1, 0, 0, 0, 2]
    _, baseline = _codes_and_modules("import numpy\ncodes = []")
    assert _lazy(loaded - baseline) == []
    # the pool is there when --jobs asks for it, and changes no byte
    two = str(tmp_path / "sweep2.csv")
    codes, loaded = _codes_and_modules(
        "from strauss_lab.cli import main\n"
        f"codes = [main({[*TINY_SWEEP, '--jobs', '2', '--out', two]!r})]")
    assert codes == [1]
    assert {"concurrent.futures", "multiprocessing"} <= loaded
    assert Path(two).read_bytes() == Path(table).read_bytes()


def test_commands_run_with_scipy_blocked():
    code = ("import sys; sys.modules['scipy'] = None; "
            "from strauss_lab.cli import main; "
            f"print([main(argv) for argv in ({RULE_COMMANDS})])")
    assert _run_python(code) == "[0, 0, 0]"


def test_module_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "strauss_lab.cli",
                           "exponents", "--n", "4"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "p_strauss" in proc.stdout
