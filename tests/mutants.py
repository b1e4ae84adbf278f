"""Planted defects that the test suite must catch.

Each mutant is one exact-text substitution in a temporary copy of src/.  The
test the mutant was planted for (a pytest node) then runs alone against that
copy and must fail: a mutant that passes it has survived, and that test
cannot see the defect, whatever other tests may.  A target text that does
not occur exactly once is an error, so an edit to the code cannot disarm a
mutant without notice.  pytest does not collect this file.  Run it from
anywhere in the checkout:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

Exit 0 when every mutant is killed, 1 when one survives, 2 on a target that
does not match or a test run that ends without a verdict (a node that names
no test, say).
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/strauss_lab, exact text, its replacement, the pytest
# node of the test that must catch it)
MUTANTS = {
    "damping_removed": (
        "solver.py",
        "    Vs = [potential(g.r, first.mu, first.beta) for g in levels]\n",
        "    Vs = [0.0 * potential(g.r, first.mu, first.beta) for g in levels]\n",
        "tests/test_acceptance.py::test_criterion_4_solver_validation"),
    "beta_ignored": (
        "model.py",
        "    return mu * (1.0 + np.asarray(r, dtype=float)) ** (-beta)\n",
        "    return mu + 0.0 * np.asarray(r, dtype=float)\n",
        "tests/test_acceptance.py::test_criterion_3_bq_validity"),
    "power_ut_corrector_dropped": (
        "solver.py",
        "zip((um, un), scales)",
        "zip((um,), scales)",
        "tests/test_acceptance.py::test_criterion_6_glassey_scaling"),
    "last_row_gap_kept": (
        "solver.py",
        "            gn[a:b, ms[L]:] = gap[ms[L] - S:]\n",
        "            gn[a:b - 1, ms[L]:] = gap[ms[L] - S:]\n",
        "tests/test_solver.py::test_support_window_holds_in_every_row"),
    "gap_reset_at_the_finest_window": (
        "solver.py",
        "            gn[a:b, ms[L]:] = gap[ms[L] - S:]\n",
        "            gn[a:b, m:] = gap[m - S:]\n",
        "tests/test_solver.py::test_ladder_block_rows_match_single_runs"),
    "coefficients_left_behind": (
        "solver.py",
        "            tile()\n            live, span",
        "            if live is None or S != live[1]:\n"
        "                tile()\n            live, span",
        "tests/test_solver.py::test_ladder_block_rows_match_single_runs"),
    "window_one_node_short": (
        "solver.py",
        "+ 2.0 * g.dr) / g.dr",
        "+ 1.0 * g.dr) / g.dr",
        "tests/test_solver.py::test_folded_step_matches_unfolded_arithmetic"),
    "origin_rule_at_unit_step": (
        "solver.py",
        "        if even:  # (4u_1 - u_2)/3",
        "        if False:  # (4u_1 - u_2)/3",
        "tests/test_solver.py::test_free_wave_at_the_unit_step"),
    "centre_term_dropped_off_unit_step": (
        "solver.py",
        "        if not even:  # at the unit step C is +0",
        "        if False:  # at the unit step C is +0",
        "tests/test_solver.py::test_solver_second_order_against_oracle"),
    "m_term_written_off_line": (
        "solver.py",
        "tmp, tmp1 = tmp_b[:span], tmp_b[:span - 1]",
        "tmp, tmp1 = tmp_b[:span], tmp_b[1:span]",
        "tests/test_solver.py::test_step_writes_start_on_64_byte_lines"),
    "taylor_step_exit_skipped": (
        "solver.py",
        "        if over or step + 1 in ends:",
        "        if step and over or step + 1 in ends:",
        "tests/test_solver.py::test_taylor_step_exit"),
    "growth_skips_u_prev": (
        "solver.py",
        "for x in (u_prev, u):",
        "for x in (u,):",
        "tests/test_solver.py::test_ladder_block_rows_match_single_runs"),
    "low_branch_factor_2": (
        "exponents.py",
        "            expo = (p - 1.0) / (n + 1.0 - (n - 1.0) * p)\n",
        "            expo = 2.0 * (p - 1.0) / (n + 1.0 - (n - 1.0) * p)\n",
        "tests/test_sweep.py::test_low_p_power_u_sweep_reads_consistent"),
    "richardson_dropped": (
        "sweep.py",
        "T_ext, unc = Ts[-1] + (Ts[-1] - Ts[-2]) / 3.0, abs(Ts[-1] - Ts[-2])",
        "T_ext, unc = Ts[-1], abs(Ts[-1] - Ts[-2])",
        "tests/test_solver.py::test_richardson_step_exact_power_ut"),
    "eta4_term_dropped": (
        "eigen.py",
        "(C.reshape(5, -1).T @ powers)",
        "(C[:4].reshape(4, -1).T @ powers[:4])",
        "tests/test_eigen.py::test_rk4_steps_match_the_stage_formulas"),
    "tail_odd_step_dropped": (
        "eigen.py",
        "                pairs = np.concatenate([pairs, M[:, :, -1:]], axis=2)\n",
        "                pass\n",
        "tests/test_eigen.py::test_criterion3_family_pinned"),
    "slab_steps_in_run_order": (
        "eigen.py",
        "x.reshape(runs, every).T.ravel()",
        "x",
        "tests/test_eigen.py::test_near_segment_rows_are_the_plain_product_chain"),
    "identity_window_narrowed": (
        "testfunc.py",
        '"right")) + 2))',
        '"right")) + 1))',
        "tests/test_testfunc.py::test_identity_window_matches_whole_rectangle"),
    "partner_rows_unchecked": (
        "testfunc.py",
        "    _check_rows(p1)\n    _check_rows(p2)\n",
        "",
        "tests/test_testfunc.py::test_identities_check_every_partner_row"),
    "strip_drops_partial_rows": (
        "testfunc.py",
        "    for top in range(lo, hi, STRIP_ROWS):\n",
        "    for top in range(lo, hi - (hi - lo) % STRIP_ROWS, STRIP_ROWS):\n",
        "tests/test_testfunc.py::test_identities_bits_independent_of_strip_height"),
    "second_partner_at_q_plus_1": (
        "testfunc.py",
        "(tq.q + 1.0, tq.q + 2.0)",
        "(tq.q + 1.0, tq.q + 1.0)",
        "tests/test_testfunc.py::test_bq_identities_coarse"),
    "eps_dealt_in_blocks": (
        "sweep.py",
        "dealt = [params_list[w::parts] for w in range(parts)]",
        "dealt = [params_list[w * len(params_list) // parts:"
        "(w + 1) * len(params_list) // parts] for w in range(parts)]",
        "tests/test_sweep.py::test_run_sweep_deals_eps_into_whole_ladders"),
    "pool_past_the_cpu_count": (
        "sweep.py",
        "max_workers=min(parts, os.cpu_count() or 1)",
        "max_workers=parts",
        "tests/test_sweep.py::test_run_sweep_deals_eps_into_whole_ladders"),
    "flagged_rows_fitted": (
        "sweep.py",
        "if not (censored or unreliable)",
        "if True",
        "tests/test_sweep.py::test_fit_table_clean_rows_and_override"),
    "late_start_verified": (
        "functionals.py",
        '    if t[0] != 0.0:  # the chain\'s integrals run from t = 0\n'
        '        raise ValueError("samples must start at t = 0")\n',
        "",
        "tests/test_functionals.py::test_inequality_check_refuses_a_late_start"),
    "escape_at_p2_2_limit": (
        "functionals.py",
        "(math.exp(math.log1p(a * s) / a) if a else math.exp(s))",
        "math.exp(s)",
        "tests/test_functionals.py::test_ode_escape_matches_scipy_oracle"),
    "psi_r_along_t": (
        "functionals.py",
        "    Psi_r = np.gradient(Psi, r, axis=1, edge_order=2)\n",
        "    Psi_r = np.gradient(Psi, t, axis=0, edge_order=2)\n",
        "tests/test_functionals.py::test_weak_residual_second_order_on_oracle"),
    "cutoff_margin_sign_flipped": (
        "functionals.py",
        "np.min((e - d) - e)",
        "np.min((e + d) - e)",
        "tests/test_acceptance.py::test_criterion_7_critical_case_evidence"),
    "zero_tail_takes_negative_zero": (
        "sweep.py",
        "(cols != 0) | np.signbit(cols)",
        "(cols != 0)",
        "tests/test_sweep.py::test_write_csv_array_cells_match_csv_text[zero_tail]"),
    "t_checked_on_first_rows_only": (
        "cli.py",
        "                alike = alike and (w[..., :k] == w[:, :1, :k]).all()\n",
        "",
        "tests/test_cli.py::test_solution_t_respelled_within_a_snapshot_exits_2"),
    "r_checked_first_read_only": (
        "cli.py",
        "                shared = shared and (w[..., k:2 * k] == ref).all()\n",
        "                shared = shared and (bool(ts) or (w[..., k:2 * k] == ref).all())\n",
        "tests/test_cli.py::test_r_change_in_a_later_chunk_exits_2"),
    "first_snapshot_one_row_short": (
        "cli.py",
        "        fh.seek(0)\n        fh.readline()\n",
        "        nr -= 1\n        fh.seek(0)\n        fh.readline()\n",
        "tests/test_cli.py::test_first_snapshot_spans_chunks"),
    "blank_line_counted": (
        "cli.py",
        ' for line in fh if line != "\\n")\n',
        " for line in fh)\n",
        "tests/test_cli.py::test_solution_blank_lines_are_no_rows"),
    "header_skipped": (
        "cli.py",
        '        if fh.readline().rstrip("\\n") != "t,r,u,ut":\n'
        '            raise ConfigError(f"{path}: the first line is not the header t,r,u,ut")\n',
        "        fh.readline()\n",
        "tests/test_cli.py::test_solution_header_other_than_solves_exits_2"),
    "skipped_run_passes": (
        "cli.py",
        "    if not rows:  # every named check was skipped: no evidence either way\n"
        '        raise ConfigError("no check named in --checks applies to this run")\n',
        "",
        "tests/test_cli.py::test_verify_with_every_named_check_skipped_exits_2"),
    "reader_opens_through_numpy": (
        "cli.py",
        '    with open(path, "rb") as fh:\n',
        '    with np.lib.npyio.DataSource(os.curdir).open(path, "rb") as fh:\n',
        "tests/test_cli.py::test_solution_url_is_not_fetched"),
    "eager_pool_import": (
        "sweep.py",
        "from dataclasses import dataclass, replace\n",
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from dataclasses import dataclass, replace\n",
        "tests/test_cli.py::test_one_process_commands_load_no_pool_and_no_numpy_ma"),
}


class TargetError(Exception):
    """A mutant's target text does not occur exactly once."""


def plant(src: Path, name: str) -> None:
    """Apply mutant name to the copy of src/ at src."""
    module, old, new, _ = MUTANTS[name]
    path = src / "strauss_lab" / module
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise TargetError(f"{name}: {old.strip()!r} occurs {text.count(old)} "
                          f"times in {module}, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_mutant(name: str) -> int:
    """pytest's exit code on the mutant's own test, run alone against a
    mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        plant(src, name)
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        where = subprocess.run(
            [sys.executable, "-c", "import strauss_lab; print(strauss_lab.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).is_relative_to(src):
            raise TargetError(f"{name}: the tests would import {where.strip()}, "
                              f"not the mutated copy")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             MUTANTS[name][3]], env=env, cwd=ROOT, capture_output=True).returncode


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s) {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    status = 0
    for name in names:
        start = time.monotonic()
        try:
            rc = run_mutant(name)
        except TargetError as exc:
            print(f"error    {exc}")
            status = 2
            continue
        # pytest exits 1 when a test failed; 2 to 5 mean no verdict
        verdict = {0: "SURVIVED", 1: "killed"}.get(rc, f"error (pytest exit {rc})")
        print(f"{verdict:8} {name} {'by' if rc == 1 else 'against'} "
              f"{MUTANTS[name][3]} [{time.monotonic() - start:.1f} s]", flush=True)
        if rc == 0:
            status = max(status, 1)
        elif rc != 1:
            status = 2
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
