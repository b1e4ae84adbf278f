"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/bench_pass.py --workload NAME --seed N --work DIR [--trace]
    python3 perfbench/bench_pass.py --probe

`--probe` only times `import strauss_lab.cli`.  A pass times the same
import, then runs the workload's operations in order and times them.  Each
time is taken three ways: in reference seconds (CPU seconds corrected for
the machine's speed, see speed.py), in CPU seconds and in wall seconds.
With `--trace` the layer functions are wrapped (see tracer.py) and the
per-layer metrics are added.  Operation failures are counted, never raised: a failed
pass still reports all its metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
import traceback

import speed


def _import_cli() -> dict:
    """Time `import strauss_lab.cli` in reference seconds (setup_s), CPU
    seconds and wall seconds."""
    meter = speed.SpeedMeter(period=0.05, kernel=speed.python_kernel)
    meter.start()
    t0 = time.perf_counter()
    import strauss_lab.cli  # noqa: F401
    wall_s = time.perf_counter() - t0
    m = meter.stop()
    times = {"setup_s": m["ref_s"], "setup_cpu_s": m["cpu_s"],
             "setup_wall_s": wall_s}
    src = os.path.join(os.getcwd(), "src", "strauss_lab")
    if os.path.dirname(os.path.abspath(sys.modules["strauss_lab"].__file__)) != src:
        raise SystemExit(f"strauss_lab imported from outside {src}")
    return times


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, if its library is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def run_pass(workload: str, seed: int, work: str, trace: bool) -> dict:
    setup = _import_cli()
    import workloads
    ops = workloads.BUILDERS[workload](seed, work)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    ctx = {"hashes": {}, "anchors": []}
    failures = []
    kernel = (speed.array_kernel() if workloads.SPEED_KERNEL[workload] == "array"
              else speed.python_kernel)
    meter = speed.SpeedMeter(period=0.25, kernel=kernel)
    meter.start()
    t0 = time.perf_counter()
    root = tracer.begin("pass") if tracer else None
    for op in ops:
        idx = tracer.begin(f"op.{op.name}") if tracer else None
        try:
            op.run(ctx)
        except workloads.GateFailed as exc:
            failures.append(f"{op.name}: {exc}")
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, reported
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            if tracer:
                tracer.end(idx)
    if tracer:
        tracer.end(root)
    wall_s = time.perf_counter() - t0
    m = meter.stop()
    anchors = [a for a in ctx["anchors"] if math.isfinite(a)]
    result = {
        **setup,
        "wall_s": wall_s,
        "cpu_s": m["cpu_s"],
        "ref_s": m["ref_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "anchor": max(anchors) if anchors else float("nan"),
        "attempted": len(ops),
        "failures": failures,
        "hashes": ctx["hashes"],
        "env": environment(),
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--work")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.probe:
        result = _import_cli()
    else:
        result = run_pass(args.workload, args.seed, args.work, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
