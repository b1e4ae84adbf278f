"""Self-test of the benchmark harness at toy sizes (a few seconds).

    python3 perfbench/selftest.py      # from the checkout root; exit 0 = pass

Checks that the metric names and units in BENCHMARK.json are well formed
and match what the tracer reports, that traced child spans nest inside their parents, that
self times add up to the traced wall, that wrapping reaches imported
aliases (which wrapping only the defining module would miss), that the
speed meter leaves its kernel out and restores SIGPROF, and that the
workload builders and output gates behave as documented.
"""
from __future__ import annotations

import io
import math
import os
import re
import shutil
import signal
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import SPEC  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
FAILS: list[str] = []


def check(cond: bool, msg: str) -> None:
    if not cond:
        FAILS.append(msg)


def check_metric_tables() -> None:
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    check(len(names) == len(set(names)), "metric names are not unique")
    for m in metrics:
        check(NAME_RE.fullmatch(m["name"]) is not None,
              f"bad metric name {m['name']!r}")
        check(UNIT_RE.fullmatch(m["unit"]) is not None,
              f"{m['name']}: bad unit {m['unit']!r}")
    for name in tracer.COMPUTED:
        check(name in names, f"computed metric {name} is not a metric")
    check([w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS),
          "BENCHMARK.json workloads != workloads.BUILDERS")
    check(set(workloads.SPEED_KERNEL) == set(workloads.BUILDERS)
          and set(workloads.SPEED_KERNEL.values()) <= {"array", "python"},
          "workloads.SPEED_KERNEL does not name a kernel for each workload")


def _cli(argv):
    from strauss_lab import cli
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def traced_toy_run(work: str) -> tracer.Tracer:
    """Toy-sized calls through every aliased path the workloads use."""
    import strauss_lab.cli  # noqa: F401
    from strauss_lab import functionals
    from strauss_lab.model import ModelParams, build_grid
    from strauss_lab.solver import run

    params = ModelParams(n=3, p=1.0 + math.sqrt(2.0), mu=1.0, beta=2.5,
                         nonlinearity="power_u", eps=1.0, f_amp=6.8, g_amp=6.8)
    out = run(params, build_grid(6.0, 0.05, 0.5),
              snapshot_times=np.arange(0.0, 6.0 + 1e-9, 0.25))
    samples = functionals.samples_from_outcome(out)

    tr = tracer.Tracer()
    tr.install()
    root = tr.begin("pass")
    try:
        check(_cli(["solve", "--t-max", "1", "--dr", "0.05", "--snap-times",
                    "0,0.5,1", "--out", os.path.join(work, "sol.csv")]) == 0,
              "toy solve failed")
        # large q keeps the eta nodes away from 0 and the far tail short; at
        # this resolution the identity threshold may fail (exit 1)
        check(_cli(["bq", "--q", "30", "--t-max", "3", "--dr", "0.1",
                    "--dt", "0.1", "--nodes", "4"]) in (0, 1), "toy bq crashed")
        check(_cli(["sweep", "--p", "2.2", "--mu", "0", "--f-amp", "20",
                    "--g-amp", "20", "--t-max", "8", "--dr", "0.04",
                    "--eps-min", "0.5", "--eps-max", "1", "--eps-count", "4",
                    "--jobs", "1", "--out", os.path.join(work, "sw.csv")])
              in (0, 1), "toy sweep crashed")
        functionals.inequality_check(samples, "ineq_4_9", count=4)
        functionals.phi_profile(params, samples.r)
    finally:
        tr.end(root)
        tr.uninstall()
    return tr


def check_spans(tr: tracer.Tracer) -> None:
    spans = tr.spans
    for s in spans[1:]:
        p = spans[s.parent] if s.parent >= 0 else None
        check(p is not None, f"{s.name} has no parent span")
        if p is not None:
            check(p.start <= s.start <= s.end <= p.end,
                  f"{s.name} not nested in {p.name}")
    wall = spans[0].duration
    total = sum(tr.self_times())
    check(abs(total - wall) <= 1e-9 * max(wall, 1.0),
          f"self times sum {total!r} != traced wall {wall!r}")

    def parents(name):
        return {spans[s.parent].name for s in spans if s.name == name}

    direct = [s for s in spans if s.name == "solver.run"
              and spans[s.parent].name == "cli.main"]
    check(len(direct) == 1, "cli.run alias (solve command) not traced")
    check("cli.main" in parents("sweep.write_csv"), "cli.write_csv alias not traced")
    check("cli.main" in parents("testfunc.build_bq"), "cli.build_bq alias not traced")
    check("sweep.run_sweep" in parents("solver.run"),
          "solver.run inside the sweep not traced")
    check("testfunc.build_bq" in parents("eigen.psi_hat_batch"),
          "testfunc.psi_hat_batch alias not traced")
    check("functionals.inequality_check" in parents("testfunc.build_bq"),
          "functionals.build_bq alias not traced")
    check("pass" in parents("eigen.psi_hat_batch"),
          "functionals.psi_hat_batch alias (phi_profile) not traced")
    metrics = tracer.layer_metrics(tr)
    expected = {m["name"] for m in SPEC["per_layer"]
                if not m["name"].startswith("trace.")}
    check(set(metrics) == expected, "layer_metrics keys != BENCHMARK.json per_layer")
    check(all(math.isfinite(v) for v in metrics.values()),
          "non-finite layer metric")
    check(metrics["eigen.calls"] >= 3 and metrics["solver.steps"] > 0,
          "toy trace recorded too little work")


def check_naive_wrapping_misses_aliases() -> None:
    """Patching only eigen.psi_hat_batch does not reach functionals' alias."""
    from strauss_lab import eigen, functionals
    from strauss_lab.model import ModelParams
    calls = []
    orig = eigen.psi_hat_batch

    def counting(*a, **k):
        calls.append(1)
        return orig(*a, **k)

    eigen.psi_hat_batch = counting
    try:
        functionals.phi_profile(ModelParams(), np.linspace(0.0, 2.0, 21))
    finally:
        eigen.psi_hat_batch = orig
    check(not calls, "naive wrapping unexpectedly caught the alias")
    check(functionals.psi_hat_batch is orig, "tracer left a wrapper installed")


def check_speed_meter() -> None:
    handler = signal.getsignal(signal.SIGPROF)
    meter = speed.SpeedMeter(period=0.02, kernel=speed.python_kernel)
    c0 = time.process_time()
    meter.start()
    acc = 0
    while time.process_time() - c0 < 0.3:
        acc += 1
    m = meter.stop()
    total = time.process_time() - c0
    kernel_s = sum(k for _, _, k in meter.samples)
    check(m["kernels"] >= 5, f"speed meter ran its kernel {m['kernels']} times")
    check(all(k > 0.0 for _, _, k in meter.samples), "a kernel run timed as 0")
    check(0.0 < m["cpu_s"] < total - 0.5 * kernel_s,
          f"speed meter cpu_s {m['cpu_s']!r} does not leave out its kernel")
    scaled = [m["cpu_s"] * speed.REF_KERNEL_S / k for _, _, k in meter.samples]
    check(min(scaled) <= m["ref_s"] <= max(scaled),
          "ref_s outside the range the kernel times allow")
    check(signal.getsignal(signal.SIGPROF) is handler, "SIGPROF handler not restored")
    check(signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0), "ITIMER_PROF left armed")
    # a SIGPROF handled during stop(), raised just before the timer was
    # disarmed, must not re-arm it: the next one would meet the default
    # action and kill the process
    meter = speed.SpeedMeter(period=0.05, kernel=lambda: 0.0)
    fired = []

    def tick_once() -> float:
        if not fired:
            fired.append(True)
            meter._tick(signal.SIGPROF, None)
        return 0.0

    meter.start()
    meter.kernel = tick_once
    meter.stop()
    armed = signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
    signal.setitimer(signal.ITIMER_PROF, 0)
    check(fired and not armed, "a SIGPROF handled in stop() re-armed ITIMER_PROF")


def check_workloads(work: str) -> None:
    """Seed 0 gives the acceptance inputs; other seeds stay in range."""
    check(workloads.sweep_endpoints(0) == [(0.2, 1.0), (0.2, 1.0)],
          "seed 0 eps endpoints")
    check(workloads.bq_q(0) == 0.5, "seed 0 q")
    check(workloads.snapshot_spacing(0) == 0.1, "seed 0 snapshot spacing")
    for seed in range(1, 50):
        for lo, hi in workloads.sweep_endpoints(seed):
            check(abs(lo / 0.2 - 1.0) <= 0.005 and 0.98 <= hi <= 1.0,
                  f"seed {seed}: eps range ({lo}, {hi})")
        check(abs(workloads.bq_q(seed) - 0.5) <= 0.01, f"seed {seed}: q")
        check(abs(workloads.snapshot_spacing(seed) / 0.1 - 1.0) <= 0.02,
              f"seed {seed}: snapshot spacing")
    check(workloads.bq_q(7) == workloads.bq_q(7), "q not reproducible")
    names = {w: [op.name for op in workloads.BUILDERS[w](0, work)]
             for w in workloads.BUILDERS}
    check(names == {
        "lifespan_sweep": ["sweep_power_u", "sweep_power_ut"],
        "bq_tables": ["bq", "hyper2f1_compensation"],
        "critical_verify": ["solve_strauss", "verify_strauss", "solve_glassey",
                            "verify_glassey", "odelemma_2.0_2.0",
                            "odelemma_2.5_2.5", "odelemma_2.5_2.0"],
    }, f"workload operations {names}")


def check_gates(work: str) -> None:
    path = os.path.join(work, "sweep.csv")
    eps = np.geomspace(0.2, 1.0, 6)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eps,T,uncertainty,censored,unreliable\n")
        for e in eps:
            fh.write(f"{float(e)!r},{3.0 * float(e) ** -1.5!r},0,false,false\n")
        fh.write("0.1,NaN,NaN,true,false\n")
    check(abs(workloads._sweep_slope(path) - 1.5) < 1e-12, "sweep slope")
    path = os.path.join(work, "checks.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("check,Tgrid_point,lhs,rhs,ratio\n"
                 "4.9,2,1,1,2.0\n4.9,3,1,1,5.0\n5.1,2,0.1,0,NaN\n"
                 "3.4,2,1,1,1.0\n3.4,3,1,1,3.0\n")
    check(workloads._spread_max(path) == 3.0, "spread max")
    ctx = {"anchors": []}
    try:
        workloads._anchor(ctx, float("nan"), "anchor")
        check(False, "non-finite anchor passed the gate")
    except workloads.GateFailed:
        check(len(ctx["anchors"]) == 1, "anchor not recorded before its gate")


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_work", "selftest")
    os.makedirs(work, exist_ok=True)
    try:
        check_metric_tables()
        check_spans(traced_toy_run(work))
        check_naive_wrapping_misses_aliases()
        check_speed_meter()
        check_workloads(work)
        check_gates(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in FAILS:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if FAILS else "passed"))
    return 1 if FAILS else 0


if __name__ == "__main__":
    raise SystemExit(main())
