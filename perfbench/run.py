"""strauss-lab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/).  Each
pass runs in a fresh interpreter (bench_pass.py) with BLAS pinned to one
thread.  A run times `import strauss_lab.cli` in three extra interpreters,
then runs passes until `--seconds` would be exceeded (always at least one).
With `--trace 1` one traced pass follows the untraced ones and the
per-layer metrics are reported instead of the end-to-end ones.  No pass
starts later than PASS_ROOM_S after `--seconds`, and none runs past it.

The end-to-end times are CPU seconds of the pass interpreters, corrected
for the machine's speed at the time (see speed.py); the raw CPU and wall
times are printed beside them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric by
name and unit, the output gates and the environment.  A metric that no pass
produced is reported as null, with correct false and exit code 1.
"""
from __future__ import annotations

import argparse
import compileall
import glob
import hashlib
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
PROBES = 3
PASS_ROOM_S = 140.0  # time after --seconds for the last passes to finish
WORK_DIR = ".perfbench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("STRAUSS_LAB_JOBS", None)
    for key in BLAS_ENV:
        env[key] = "1"
    return env


def child(args: list[str], env: dict, timeout: float) -> tuple[dict | None, str]:
    """Run bench_pass.py; return its JSON result (None on failure) and a note."""
    cmd = [sys.executable, os.path.join(HERE, "bench_pass.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:g} s"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def machine() -> dict:
    info = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                               if ln.startswith("model name"))
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size",
                  encoding="utf-8") as fh:
            info["l3"] = fh.read().strip()
    except (OSError, StopIteration):
        pass
    return info


def code_digest(src: str) -> str:
    """SHA-256 over the strauss_lab sources, so that sweep hashes are only
    compared between passes of one version of the code."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def check_determinism(root_work: str, build: str, workload: str, seed: int,
                      res: dict) -> list[str]:
    """Compare a pass's sweep CSV hashes with every earlier pass of the same
    code, numpy and Python versions, workload and seed in this checkout."""
    path = os.path.join(root_work, "sweep_hashes.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    env = res["env"]
    failures = []
    for op, digest in sorted(res["hashes"].items()):
        key = (f"{build}/numpy-{env['numpy']}/python-{env['python']}/"
               f"{workload}/{seed}/{op}")
        if seen.setdefault(key, digest) != digest:
            failures.append(f"{op}: sweep CSV bytes differ from an earlier pass")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=0, sort_keys=True)
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src", "strauss_lab")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"no strauss_lab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)  # the "build": byte-compile once
    env = child_env(root)
    build = code_digest(src)
    work = os.path.join(root, WORK_DIR)
    pass_dir = os.path.join(work, f"{args.workload}-{os.getpid()}")
    os.makedirs(pass_dir, exist_ok=True)

    deadline = time.perf_counter() + args.seconds + PASS_ROOM_S

    def left():
        return deadline - time.perf_counter()

    attempted, failures = 0, []
    setups = []  # import times of the probes, then of the passes
    for _ in range(PROBES):
        res, note = child(["--probe"], env, left())
        attempted += 1
        if res is None:
            failures.append(f"import probe: {note}")
        else:
            setups.append(res)

    def pass_args(k):
        out = os.path.join(pass_dir, str(k))  # fresh output files per pass
        os.makedirs(out)
        return ["--workload", args.workload, "--seed", str(args.seed),
                "--work", out]

    def run_pass(k, extra=()):
        """One pass, its gates counted; returns its result or None."""
        nonlocal attempted
        if left() <= 0:
            attempted += 1
            failures.append(f"pass {k}: not started, the run is out of time")
            return None
        res, note = child([*pass_args(k), *extra], env, left())
        if res is None:
            attempted += 1
            failures.append(f"pass {k}: {note}")
            return None
        attempted += res["attempted"]
        failures.extend(res["failures"])
        failures.extend(check_determinism(work, build, args.workload,
                                          args.seed, res))
        return res

    passes, env_info = [], {}
    t_start = time.perf_counter()
    for k in itertools.count():
        t0 = time.perf_counter()
        res = run_pass(k)
        took = time.perf_counter() - t0
        if res is not None:
            setups.append(res)
            passes.append(res)
            env_info = res["env"]
        if time.perf_counter() - t_start + took > args.seconds:
            break
    traced = run_pass("traced", ["--trace"]) if args.trace else None
    shutil.rmtree(pass_dir, ignore_errors=True)

    def median(vals):
        vals = [v for v in vals if math.isfinite(v)]
        return statistics.median(vals) if vals else None

    e2e = {
        "ref_cpu_s": median([p["ref_s"] for p in passes]),
        "setup_s": median([s["setup_s"] for s in setups]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "accuracy_anchor": median([p["anchor"] for p in passes]),
    }
    anchor = workloads.ANCHORS[args.workload]

    def samples(vals):
        return [round(v, 4) for v in vals]

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes; "
          f"samples ref_cpu_s {samples([p['ref_s'] for p in passes])}, "
          f"cpu {samples([p['cpu_s'] for p in passes])}, "
          f"wall {samples([p['wall_s'] for p in passes])}; "
          f"setup_s {samples([s['setup_s'] for s in setups])}, "
          f"cpu {samples([s['setup_cpu_s'] for s in setups])}, "
          f"wall {samples([s['setup_wall_s'] for s in setups])}")
    metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    if args.trace:
        layers = dict(traced["layers"]) if traced else {}
        if traced and e2e["ref_cpu_s"] is not None:
            layers["trace.wall_s"] = traced["wall_s"]
            layers["trace.overhead_s"] = traced["ref_s"] - e2e["ref_cpu_s"]
        metrics = {m["name"]: {"value": layers.get(m["name"]),
                               "unit": m["unit"]} for m in SPEC["per_layer"]}
    for m in metrics.values():
        if m["value"] is not None and not math.isfinite(m["value"]):
            m["value"] = None
    for name, m in metrics.items():
        label = f"{name} ({anchor})" if name == "accuracy_anchor" else name
        note = " (computed)" if name in tracer.COMPUTED else ""
        value = "no value" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {label:<40} {value} {m['unit']}{note}")
    print(f"  {'error_rate':<40} {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted} operations failed)")
    for msg in failures:
        print(f"  FAILED {msg}")
    print("env " + json.dumps({**machine(), **env_info}, sort_keys=True))
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({"correct": not failures and not missing,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    raise SystemExit(main())
