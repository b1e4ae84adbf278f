"""Spans around strauss_lab's layer functions, recorded from outside src/.

The tracer replaces each listed public function with a timing wrapper in
every loaded strauss_lab module that holds it, so imported aliases
(``cli.run``, ``testfunc.psi_hat_batch``, ``functionals.build_bq``, ...) are
traced too.  Spans live in memory; `layer_metrics` turns them into the
per-layer numbers of the benchmark.
"""
from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# layer module -> public functions wrapped at that layer's boundary
LAYER_FUNCS = {
    "cli": ("main",),
    "sweep": ("run_sweep", "write_csv"),
    "solver": ("run",),
    "eigen": ("psi_hat_batch",),
    "testfunc": ("build_bq", "verify_bq_identities", "hyper2f1_compensation"),
    "functionals": ("inequality_check", "ode_lemma_fit"),
}

# per-layer metrics that follow from the inputs alone, whatever the
# implementation (the metric list itself is in BENCHMARK.json)
COMPUTED = ("solver.node_updates", "eigen.profile_values",
            "testfunc.gemm_gflop", "testfunc.cone_points")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def input_key(bound: inspect.BoundArguments) -> str:
    """Hash of a call's inputs: array bytes plus the repr of everything else."""
    h = hashlib.sha1()
    for name, value in bound.arguments.items():
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def node_updates(grid, steps: int) -> int:
    """Nodes inside the physical support r <= t + 1 + 2dr, summed over steps.

    Mirrors the solver's active window, so the count depends on the grid and
    the step count only.
    """
    t = grid.dt * np.arange(1, steps + 1)
    m = np.floor((t + 1.0 + 2.0 * grid.dr) / grid.dr + 1e-9).astype(np.int64) + 1
    return int(np.minimum(m, grid.r.size - 1).sum())


def _describe_run(b, out):
    steps = int(out.max_abs_u.size - 1)
    return {"steps": steps, "mode": b.arguments["params"].nonlinearity,
            "node_updates": node_updates(b.arguments["grid"], steps)}


def _describe_psi_hat_batch(b, out):
    n_etas = int(np.size(b.arguments["etas"]))
    return {"n_etas": n_etas,
            "profile_values": n_etas * int(np.size(b.arguments["r_out"])),
            "key": input_key(b)}


def _describe_build_bq(b, table):
    nt, nr = table.values.shape
    return {"key": input_key(b),
            "gemm_flop": 2 * nt * table.eta_nodes.size * nr}


def _describe_compensation(b, out):
    table = b.arguments["table"]
    t = table.t_grid[:, None]
    r = table.r_grid[None, :]
    cone = (r <= t + 1.0) & (t >= b.arguments["t_min"])
    return {"cone_points": int(cone.sum())}


def _describe_write_csv(b, out):
    return {"bytes": os.path.getsize(b.arguments["path"])}


def _describe_run_sweep(b, out):
    return {"eps": len(out)}


DESCRIBE = {
    "solver.run": _describe_run,
    "eigen.psi_hat_batch": _describe_psi_hat_batch,
    "testfunc.build_bq": _describe_build_bq,
    "testfunc.hyper2f1_compensation": _describe_compensation,
    "sweep.write_csv": _describe_write_csv,
    "sweep.run_sweep": _describe_run_sweep,
}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx].attrs = describe(bound, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every LAYER_FUNCS entry under all the names it is bound to."""
        mods = [m for name, m in list(sys.modules.items())
                if name == "strauss_lab" or name.startswith("strauss_lab.")]
        for layer, names in LAYER_FUNCS.items():
            home = sys.modules[f"strauss_lab.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the trace.* entries)."""
    spans = tracer.spans
    own = tracer.self_times()

    def pick(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def busy(name):
        return sum(spans[i].duration for i in pick(name))

    def self_s(name):
        return sum(own[i] for i in pick(name))

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct(name):
        keys = [spans[i].attrs.get("key", i) for i in pick(name)]
        return ratio(len(set(keys)), len(keys))

    runs = [spans[i] for i in pick("solver.run")]
    per_mode = {}
    for mode in ("power_u", "power_ut"):
        sel = [s for s in runs if s.attrs.get("mode") == mode]
        per_mode[mode] = ratio(1e6 * sum(s.duration for s in sel),
                               sum(s.attrs.get("steps", 0) for s in sel))
    nodes = sum(s.attrs.get("node_updates", 0) for s in runs)
    eig = [spans[i] for i in pick("eigen.psi_hat_batch")]
    wide = [s.duration for s in eig if s.attrs.get("n_etas", 0) > 1]
    narrow = [s.duration for s in eig if s.attrs.get("n_etas") == 1]
    sweeps = [spans[i] for i in pick("sweep.run_sweep")]
    csvs = [spans[i] for i in pick("sweep.write_csv")]
    comp = [spans[i] for i in pick("testfunc.hyper2f1_compensation")]
    cone = sum(s.attrs.get("cone_points", 0) for s in comp)
    return {
        "solver.run_s": busy("solver.run"),
        "solver.steps": sum(s.attrs.get("steps", 0) for s in runs),
        "solver.us_per_step.power_u": per_mode["power_u"],
        "solver.us_per_step.power_ut": per_mode["power_ut"],
        "solver.node_updates": nodes,
        "solver.ns_per_node_update": ratio(1e9 * busy("solver.run"), nodes),
        "sweep.s_per_eps": ratio(busy("sweep.run_sweep"),
                                 sum(s.attrs.get("eps", 0) for s in sweeps)),
        "sweep.csv_write_s": busy("sweep.write_csv"),
        "sweep.csv_mb": sum(s.attrs.get("bytes", 0) for s in csvs) / 1e6,
        "cli.self_s": self_s("cli.main"),
        "eigen.psi_hat_batch_s": busy("eigen.psi_hat_batch"),
        "eigen.calls": len(eig),
        "eigen.s_per_call.wide": ratio(sum(wide), len(wide)),
        "eigen.s_per_call.narrow": ratio(sum(narrow), len(narrow)),
        "eigen.profile_values": sum(s.attrs.get("profile_values", 0) for s in eig),
        "eigen.distinct_ratio": distinct("eigen.psi_hat_batch"),
        "testfunc.build_bq_self_s": self_s("testfunc.build_bq"),
        "testfunc.build_bq.distinct_ratio": distinct("testfunc.build_bq"),
        "testfunc.gemm_gflop": sum(spans[i].attrs.get("gemm_flop", 0)
                                   for i in pick("testfunc.build_bq")) / 1e9,
        "testfunc.identities_s": busy("testfunc.verify_bq_identities"),
        "testfunc.compensation_s": busy("testfunc.hyper2f1_compensation"),
        "testfunc.cone_points": cone,
        "testfunc.us_per_cone_point": ratio(
            1e6 * busy("testfunc.hyper2f1_compensation"), cone),
        "functionals.check_self_s": self_s("functionals.inequality_check"),
        "functionals.checks": len(pick("functionals.inequality_check")),
        "functionals.ode_lemma_s": busy("functionals.ode_lemma_fit"),
    }
