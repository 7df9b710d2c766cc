"""Spans around entropic_fx's public functions, installed from outside.

The tracer replaces each traced function at every module attribute that
holds it, so a caller that did ``from .dynamics import simulate_paths``
is traced as well as one that calls ``pricing.mc_price``.  The CLI's
subcommand handlers are wrapped inside ``cli._COMMANDS``, which is where
``main`` looks them up.  Spans stay in memory until the run ends.  A
wrapper returns exactly what the wrapped function returned.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
import tracemalloc

# Span name -> (defining module, function).
TARGETS = {
    "cli.main": ("entropic_fx.cli", "main"),
    "pricing.closed_form_price": ("entropic_fx.pricing", "closed_form_price"),
    "pricing.quadrature_price": ("entropic_fx.pricing", "quadrature_price"),
    "pricing.mc_price": ("entropic_fx.pricing", "mc_price"),
    "pricing.pde_price": ("entropic_fx.pricing", "pde_price"),
    "pricing.parity_residual": ("entropic_fx.pricing", "parity_residual"),
    "fokker_planck.evolve_density": ("entropic_fx.fokker_planck", "evolve_density"),
    "dynamics.simulate_paths": ("entropic_fx.dynamics", "simulate_paths"),
    "dynamics.paths_to_csv": ("entropic_fx.dynamics", "paths_to_csv"),
    "maxent.solve_maxent": ("entropic_fx.maxent", "solve_maxent"),
    "grids.density_to_csv": ("entropic_fx.grids", "density_to_csv"),
}
HANDLER = "cli.handler"
# Functions whose peak allocation, as tracemalloc sees it, is recorded.
ALLOC_TRACED = {"pricing.mc_price"}


def _evolve_steps(bound) -> int:
    # evolve_density takes ceil(t / dt_step) steps, as its spec documents.
    t, spec = bound.arguments["t"], bound.arguments["spec"]
    return max(1, math.ceil(t / spec.dt_step - 1e-12))


# Span name -> function(bound arguments, result) -> attributes.
EXTRACT = {
    "pricing.pde_price": lambda b, r: {
        "time_steps": r.diagnostics["n_time_steps"],
        "residual": r.diagnostics["residual"],
    },
    "pricing.mc_price": lambda b, r: {
        "n_paths": r.diagnostics["n_paths"],
        "zero_variance": r.std_error == 0.0,
    },
    "pricing.quadrature_price": lambda b, r: {
        "abs_error_bound": r.diagnostics.get("abs_error_bound", 0.0),
    },
    "fokker_planck.evolve_density": lambda b, r: {"steps": _evolve_steps(b)},
    "dynamics.simulate_paths": lambda b, r: {"bytes_computed": r.log_paths.nbytes},
    "dynamics.paths_to_csv": lambda b, r: {"bytes_out": len(r)},  # ASCII text
    "maxent.solve_maxent": lambda b, r: {
        "iterations": r.iterations,
        "residual_norm": r.residual_norm,
    },
}


class Tracer:
    """Collects spans ``[id, parent, name, start_ns, end_ns, op, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        extract = EXTRACT.get(name)
        signature = inspect.signature(fn) if extract else None
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            # tracemalloc runs only inside these calls: left on, it slows
            # every small numpy allocation of the grid solvers severalfold.
            alloc_now = alloc and not tracemalloc.is_tracing()
            if alloc_now:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if alloc_now:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            attrs = {"peak_alloc": peak} if alloc_now else {}
            if extract:
                attrs.update(extract(signature.bind(*args, **kwargs), result))
            self.spans.append([span_id, parent, name, start, end, self.op, attrs])
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "entropic_fx" or n.startswith("entropic_fx.")]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        cli = sys.modules.get("entropic_fx.cli")
        if cli is not None:
            commands = cli._COMMANDS
            for key, handler in list(commands.items()):
                commands[key] = self.wrap(HANDLER, handler)
                self._undo.append((commands, key, handler))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


def self_times_ns(spans: list[list]) -> dict[int, int]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span_id, parent, _, start, end, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, _, start, end, _, _ in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import times in ms from ``python -X importtime`` output.

    Returns the cumulative time of the top-level ``entropic_fx`` imports
    (key ``"total"``), and of the outermost ``numpy`` and ``scipy``
    entries.  An entry nested inside a numpy or scipy entry is already in
    that entry's cumulative time, so numpy modules that scipy pulls in
    count towards scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    # importtime lists children before their parent; walk it backwards so
    # every entry is seen after its ancestors.
    ancestors: list[tuple[int, str]] = []
    for depth, cumulative_us, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if depth == 0 and package == "entropic_fx":
            totals["total"] += cumulative_us / 1000.0
        if package in ("numpy", "scipy") and not any(
            a.split(".")[0] in ("numpy", "scipy") for _, a in ancestors
        ):
            totals[package] += cumulative_us / 1000.0
        ancestors.append((depth, name))
    return totals


# Per-layer metrics: name -> unit.  Every one is reported by every traced
# run; a function the workload never calls reads 0.
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.price.ms": "ms",
    "cli.price_all.ms": "ms",
    "cli.parity.ms": "ms",
    "cli.simulate.ms": "ms",
    "cli.fokker-planck.ms": "ms",
    "cli.maxent-check.ms": "ms",
    "fokker_planck.evolve_density.ms": "ms",
    "fokker_planck.evolve_density.us_per_step": "us/step",
    "fokker_planck.evolve_density.steps": "steps",
    "pricing.pde_price.ms": "ms",
    "pricing.pde_price.us_per_step": "us/step",
    "pricing.pde_price.time_steps": "steps",
    "pricing.pde_price.residual": "1",
    "pricing.mc_price.ms": "ms",
    "pricing.mc_price.ns_per_path": "ns/path",
    "pricing.mc_price.peak_alloc_mb": "MB",
    "pricing.mc_price.zero_variance_ops": "count",
    "pricing.closed_form_price.us": "us",
    "pricing.parity_residual.us": "us",
    "pricing.quadrature_price.us": "us",
    "pricing.quadrature_price.abs_error_bound": "1",
    "dynamics.simulate_paths.ms": "ms",
    "dynamics.simulate_paths.bytes_computed": "B",
    "dynamics.paths_to_csv.ms": "ms",
    "dynamics.paths_to_csv.bytes_out": "B",
    "maxent.solve_maxent.ms": "ms",
    "maxent.solve_maxent.iterations": "count",
    "maxent.solve_maxent.residual_norm": "1",
    "grids.density_to_csv.ms": "ms",
    "trace.overhead_frac": "frac",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def span_metrics(spans: list[list], op_kinds: list[str]) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times are medians over calls, diagnostics are medians (counts) or
    maxima (residuals, error bounds), and op_kinds[i] names the kind of
    op i, which splits the CLI handler spans by subcommand.
    """
    calls: dict[str, list[tuple[float, dict]]] = {}
    for _, _, name, start, end, op, attrs in spans:
        key = f"cli.{op_kinds[op]}" if name == HANDLER else name
        calls.setdefault(key, []).append(((end - start) / 1e6, attrs))
    selfs = self_times_ns(spans)

    def ms(name):
        return _median(d for d, _ in calls.get(name, ()))

    def per(name, attr, scale):
        return _median(d * scale / a[attr] for d, a in calls.get(name, ()))

    def attr(name, key, reduce=_median):
        values = [a[key] for _, a in calls.get(name, ())]
        return float(reduce(values)) if values else 0.0

    out = {
        "cli.main.self_ms": _median(
            selfs[s[0]] / 1e6 for s in spans if s[2] == "cli.main"
        ),
        "fokker_planck.evolve_density.ms": ms("fokker_planck.evolve_density"),
        "fokker_planck.evolve_density.us_per_step":
            per("fokker_planck.evolve_density", "steps", 1e3),
        "fokker_planck.evolve_density.steps": attr("fokker_planck.evolve_density", "steps"),
        "pricing.pde_price.ms": ms("pricing.pde_price"),
        "pricing.pde_price.us_per_step": per("pricing.pde_price", "time_steps", 1e3),
        "pricing.pde_price.time_steps": attr("pricing.pde_price", "time_steps"),
        "pricing.pde_price.residual": attr("pricing.pde_price", "residual", max),
        "pricing.mc_price.ms": ms("pricing.mc_price"),
        "pricing.mc_price.ns_per_path": per("pricing.mc_price", "n_paths", 1e6),
        "pricing.mc_price.peak_alloc_mb":
            attr("pricing.mc_price", "peak_alloc", max) / 2**20,
        "pricing.mc_price.zero_variance_ops": attr("pricing.mc_price", "zero_variance", sum),
        "pricing.closed_form_price.us": 1e3 * ms("pricing.closed_form_price"),
        "pricing.parity_residual.us": 1e3 * ms("pricing.parity_residual"),
        "pricing.quadrature_price.us": 1e3 * ms("pricing.quadrature_price"),
        "pricing.quadrature_price.abs_error_bound":
            attr("pricing.quadrature_price", "abs_error_bound", max),
        "dynamics.simulate_paths.ms": ms("dynamics.simulate_paths"),
        "dynamics.simulate_paths.bytes_computed":
            attr("dynamics.simulate_paths", "bytes_computed"),
        "dynamics.paths_to_csv.ms": ms("dynamics.paths_to_csv"),
        "dynamics.paths_to_csv.bytes_out": attr("dynamics.paths_to_csv", "bytes_out"),
        "maxent.solve_maxent.ms": ms("maxent.solve_maxent"),
        "maxent.solve_maxent.iterations": attr("maxent.solve_maxent", "iterations"),
        "maxent.solve_maxent.residual_norm":
            attr("maxent.solve_maxent", "residual_norm", max),
        "grids.density_to_csv.ms": ms("grids.density_to_csv"),
    }
    for name in PER_LAYER:  # cli.<op kind>.ms
        if name.startswith("cli.") and name.endswith(".ms") and name.count(".") == 2:
            out[name] = ms(name[: -len(".ms")])
    return out
