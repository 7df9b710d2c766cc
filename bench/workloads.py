"""The benchmark's three seeded workloads and the loop that times them.

Each workload is a closed loop with one client: an op starts only after
the previous op and its output check have finished.  Inputs come from the
workload seed alone; the library only ever sees the generated inputs.
Market inputs are drawn from the domain of the pricing battery in
tests/conftest.py: moneyness 0.5-2, sigma 0.05-0.6, expiry 0.1-5 and rates
-0.01-0.1.

cli_mix       one ``python -m entropic_fx`` subprocess per op, cycling
              through six subcommands; interpreter start and import are
              most of every op.
grid_solvers  in process: pde_price, evolve_density and a maxent recovery
              of the GBM kernel per op; a seeded quarter of ops use grids
              eight times finer.
mc_paths      in process: mc_price with 10^6 paths, simulate_paths of
              10^5 x 52, and four seeded mc_price ops with 10^7 paths;
              threads alternate 1 and 2.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One CLI op may take this long before it counts as failed.
CLI_TIMEOUT_S = 120


def import_library():
    """Import entropic_fx from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import entropic_fx

    found = Path(entropic_fx.__file__).resolve().parent
    if found != SRC / "entropic_fx":
        raise RuntimeError(f"imported entropic_fx from {found}, not {SRC}")
    return entropic_fx


def draw_market(rng: random.Random) -> dict:
    u0 = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return {
        "kind": rng.choice(("call", "put")),
        "u0": u0,
        "strike": u0 * math.exp(rng.uniform(math.log(0.5), math.log(2.0))),
        "sigma": rng.uniform(0.05, 0.6),
        "expiry": math.exp(rng.uniform(math.log(0.1), math.log(5.0))),
        "rd": rng.uniform(-0.01, 0.1),
        "rf": rng.uniform(-0.01, 0.1),
    }


class Workload:
    name = ""
    # Ops are counted in whole cycles, so every op kind appears equally.
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.zero_variance_ops = 0

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed, *key))))

    def setup(self) -> None:
        """Import what the ops need."""

    def planned_ops(self, seconds: float, min_ops: int) -> int | None:
        """A fixed op count for a run of ``seconds``, or None to run by time."""
        return None

    def spec(self, i: int) -> dict:
        raise NotImplementedError

    def warmup_spec(self) -> dict:
        return self.spec(0)

    def run(self, spec: dict):
        raise NotImplementedError

    def check(self, spec: dict, out) -> list[str]:
        raise NotImplementedError


class InProcess(Workload):
    def setup(self) -> None:
        import_library()
        import numpy as np

        from entropic_fx import dynamics, fokker_planck, grids, maxent, pricing

        self.np = np
        self.dynamics, self.fp, self.grids = dynamics, fokker_planck, grids
        self.maxent, self.pricing = maxent, pricing

    def market(self, m: dict):
        return self.dynamics.MarketParams.risk_neutral(m["u0"], m["rd"], m["rf"], m["sigma"])

    def option(self, m: dict):
        return self.pricing.OptionSpec(m["kind"], m["strike"], m["expiry"])


class GridSolvers(InProcess):
    name = "grid_solvers"
    # Grid intervals of the ordinary op; fine ops use FINE times as many.
    PDE_INTERVALS, FP_INTERVALS, MAXENT_INTERVALS = 1600, 2000, 2000
    FINE = 8
    PDE_STEPS, FP_STEPS = 400, 1000
    # Half-width of the maxent log-ratio grid in standard deviations.
    MAXENT_SDS = 12.0

    def spec(self, i: int) -> dict:
        block, pos = divmod(i, 4)
        fine = pos == self.rng("block", block).randrange(4)
        return {"kind": "fine" if fine else "base", "market": draw_market(self.rng(i))}

    def warmup_spec(self) -> dict:
        return {"kind": "base", "market": draw_market(self.rng("warmup"))}

    def run(self, spec: dict):
        m = spec["market"]
        scale = self.FINE if spec["kind"] == "fine" else 1
        market, option, t = self.market(m), self.option(m), m["expiry"]
        pricing, fp, maxent = self.pricing, self.fp, self.maxent

        grid = pricing.default_pde_grid(
            market, option, self.PDE_INTERVALS * scale + 1, self.PDE_STEPS
        )
        price = pricing.pde_price(market, option, grid)

        fp_spec = fp.default_grid(market, t, self.FP_INTERVALS * scale + 1, self.FP_STEPS)
        initial = fp.point_mass_density(fp_spec.points(), math.log(m["u0"]))
        evolved = fp.evolve_density(initial, market, t, fp_spec)

        mean, var = market.log_drift * t, m["sigma"] ** 2 * t
        half = abs(mean) + self.MAXENT_SDS * math.sqrt(var)
        points = self.np.linspace(-half, half, self.MAXENT_INTERVALS * scale + 1)
        constraints = maxent.ConstraintSpec(
            (maxent.FirstMoment(), maxent.SecondCentralMoment(0.0)),
            (mean, var + mean * mean),
        )
        solution = maxent.solve_maxent(points, self.grids.uniform_density(points), constraints)
        return price, evolved, solution, (mean, var)

    def check(self, spec: dict, out) -> list[str]:
        import checks

        m = spec["market"]
        price, evolved, solution, (mean, var) = out
        return (
            checks.check_pde(price.premium, m, checks.gk_reference(m))
            + checks.check_evolved_density(
                evolved.points, evolved.weights, math.log(m["u0"]), m, m["expiry"]
            )
            + checks.check_maxent_kernel(
                solution.density.points, solution.density.weights,
                solution.multipliers, mean, var,
            )
        )


class McPaths(InProcess):
    name = "mc_paths"
    MC_PATHS, BIG_PATHS = 10**6, 10**7
    SIM_PATHS, SIM_STEPS = 10**5, 52
    # Two mc_price ops to one simulate_paths op.  In each of the first
    # BIG_OPS blocks of BLOCK ops, one op is mc_price with BIG_PATHS; so
    # few that the tail percentile (10 samples beyond it) stays on the
    # other ops.  It sits at a seeded one of BIG_SLOTS, right after a
    # single-threaded simulate_paths op: peak RSS depends on what the
    # allocator kept from the op before, and this keeps it the same from
    # seed to seed.
    BLOCK = 24
    BIG_OPS = 4
    BIG_SLOTS = (3, 9, 15, 21)

    def spec(self, i: int) -> dict:
        rng = self.rng(i)
        kind = "sim" if i % 3 == 2 else "mc"
        block, pos = divmod(i, self.BLOCK)
        if block < self.BIG_OPS and pos == self.rng("block", block).choice(self.BIG_SLOTS):
            kind = "big"
        return {
            "kind": kind,
            "market": draw_market(rng),
            "threads": 1 + i % 2,
            "seed": rng.randrange(2**31),
        }

    def warmup_spec(self) -> dict:
        rng = self.rng("warmup")
        return {"kind": "mc", "market": draw_market(rng), "threads": 1,
                "seed": rng.randrange(2**31)}

    def run(self, spec: dict):
        m = spec["market"]
        if spec["kind"] == "sim":
            return self.dynamics.simulate_paths(
                self.market(m), m["expiry"], self.SIM_STEPS, self.SIM_PATHS,
                spec["seed"], spec["threads"],
            )
        n_paths = self.BIG_PATHS if spec["kind"] == "big" else self.MC_PATHS
        return self.pricing.mc_price(
            self.market(m), self.option(m), n_paths, spec["seed"],
            antithetic=True, n_partitions=spec["threads"],
        )

    def check(self, spec: dict, out) -> list[str]:
        import checks

        m = spec["market"]
        if spec["kind"] == "sim":
            return checks.check_paths(
                out.times, out.log_paths, m, m["expiry"], self.SIM_PATHS, self.SIM_STEPS
            )
        if out.std_error == 0.0:
            self.zero_variance_ops += 1
        return checks.check_mc(out.premium, out.std_error, m, checks.gk_reference(m))


class CliMix(Workload):
    name = "cli_mix"
    KINDS = ("price", "price_all", "parity", "simulate", "fokker-planck", "maxent-check")
    cycle = len(KINDS)
    MC_PATHS, SWEEP = 1_000_000, 10_000
    SIM_PATHS, SIM_STEPS = 1000, 252
    # A run is seconds / CYCLE_S cycles, rounded.  Cycles take 5-7 s, so
    # stopping by time would flip between neighbouring cycle counts, and
    # with them the ranks the median and tail sit on.
    CYCLE_S = 6.0
    # Settings of `fokker-planck` and `maxent-check` when given no flags.
    FP_DEFAULT = {"u0": 1.0, "rd": 0.05, "rf": 0.02, "sigma": 0.2, "t": 1.0}
    MAXENT_DEFAULT = {"k": 0.04, "k_prime": 0.01, "bound": 1e-6}

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        # Set by the traced run: a file the traced launcher writes spans to,
        # the index of the op being run, and the spans collected so far.
        self.spans_out: Path | None = None
        self.op = 0
        self.spans: list[list] = []

    def planned_ops(self, seconds: float, min_ops: int) -> int:
        cycles = max(-(-min_ops // self.cycle), round(seconds / self.CYCLE_S))
        return cycles * self.cycle

    def spec(self, i: int) -> dict:
        rng = self.rng(i)
        return {
            "kind": self.KINDS[i % self.cycle],
            "market": draw_market(rng),
            "seed": rng.randrange(2**31),
        }

    def argv(self, spec: dict) -> list[str]:
        m, seed = spec["market"], str(spec["seed"])
        rates = ["--u0", repr(m["u0"]), "--rd", repr(m["rd"]), "--rf", repr(m["rf"]),
                 "--sigma", repr(m["sigma"])]
        option = ["--strike", repr(m["strike"]), "--expiry", repr(m["expiry"])]
        kind = spec["kind"]
        if kind == "price":
            return ["price", "--kind", m["kind"], *rates, *option]
        if kind == "price_all":
            return ["price", "--kind", m["kind"], "--method", "all", *rates, *option,
                    "--n-paths", str(self.MC_PATHS), "--seed", seed]
        if kind == "parity":
            return ["parity", *rates, *option, "--sweep", str(self.SWEEP),
                    "--sweep-seed", seed]
        if kind == "simulate":
            return ["simulate", "--n-paths", str(self.SIM_PATHS),
                    "--n-steps", str(self.SIM_STEPS), "--horizon", repr(m["expiry"]),
                    "--seed", seed, *rates, "--output", str(self.output(kind))]
        if kind == "fokker-planck":
            return ["fokker-planck", "--output", str(self.output(kind))]
        return ["maxent-check"]

    def output(self, kind: str) -> Path:
        return self.workdir / f"{kind}.csv"

    def run(self, spec: dict):
        # The worker's environment, set by run.py, puts src/ on PYTHONPATH.
        if self.spans_out is None:
            launcher = ["-m", "entropic_fx"]
        else:
            launcher = [str(BENCH / "traced_cli.py"), str(self.spans_out)]
        proc = subprocess.run(
            [sys.executable, *launcher, *self.argv(spec)],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            cwd=self.workdir,
        )
        if self.spans_out is not None and self.spans_out.exists():
            # Span ids restart in every process; key them by op as well.
            base = self.op * 10**7
            for span_id, parent, *rest in json.loads(self.spans_out.read_text()):
                rest[3] = self.op
                self.spans.append(
                    [base + span_id, None if parent is None else base + parent, *rest]
                )
            self.spans_out.unlink()
        return proc

    def check(self, spec: dict, out) -> list[str]:
        import checks

        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr.strip()[-300:]}"]
        kind, m = spec["kind"], spec["market"]
        if kind in ("simulate", "fokker-planck"):
            path = self.output(kind)
            try:
                header, rows = checks.read_csv_columns(path)
            finally:
                path.unlink(missing_ok=True)
        else:
            payload = json.loads(out.stdout)

        if kind == "price":
            return checks.check_closed_form(payload["premium"], m, checks.gk_reference(m))
        if kind == "price_all":
            ref = checks.gk_reference(m)
            routes = {r["method"]: r for r in payload["results"]}
            if sorted(routes) != ["closed_form", "monte_carlo", "pde", "quadrature"]:
                return [f"price --method all returned routes {sorted(routes)}"]
            mc = routes["monte_carlo"]
            if mc["std_error"] == 0.0:
                self.zero_variance_ops += 1
            return (
                checks.check_closed_form(routes["closed_form"]["premium"], m, ref)
                + checks.check_quadrature(routes["quadrature"]["premium"], m, ref)
                + checks.check_mc(mc["premium"], mc["std_error"], m, ref)
                + checks.check_pde(routes["pde"]["premium"], m, ref)
            )
        if kind == "parity":
            # Every sweep strike lies within a factor e^0.7 of spot.
            bound = 1e-12 * m["u0"] * math.exp(0.7)
            worst = payload["max_abs_residual"]
            if payload["n_cases"] != self.SWEEP or not 0.0 <= worst <= bound:
                return [f"parity sweep {payload!r} (bound {bound!r})"]
            return []
        if kind == "simulate":
            names = ["time"] + [f"path_{j}" for j in range(self.SIM_PATHS)]
            if header != names or rows.shape != (self.SIM_STEPS + 1, self.SIM_PATHS + 1):
                return [f"simulate CSV header or shape {rows.shape}"]
            return checks.check_paths(
                rows[:, 0], rows[:, 1:].T, m, m["expiry"], self.SIM_PATHS, self.SIM_STEPS
            )
        if kind == "fokker-planck":
            if header != ["x", "p"] or rows.shape[1] != 2:
                return [f"fokker-planck CSV header {header!r}"]
            d = self.FP_DEFAULT
            return checks.check_evolved_density(
                rows[:, 0], rows[:, 1], math.log(d["u0"]),
                {"rd": d["rd"], "rf": d["rf"], "sigma": d["sigma"]}, d["t"],
            )
        d = self.MAXENT_DEFAULT
        expected = -0.5 * (1.0 / d["k_prime"] - 1.0 / d["k"])
        bad = []
        if not abs(payload["multiplier"] - expected) <= 1e-6 * abs(expected):
            bad.append(f"maxent-check multiplier {payload['multiplier']!r} vs {expected!r}")
        if not abs(payload["recovered_variance"] - d["k_prime"]) <= 1e-6 * d["k_prime"]:
            bad.append(f"maxent-check variance {payload['recovered_variance']!r}")
        if not payload["max_pointwise_error"] <= d["bound"]:
            bad.append(f"maxent-check pointwise error {payload['max_pointwise_error']!r}")
        return bad


WORKLOADS = {w.name: w for w in (CliMix, GridSolvers, McPaths)}


def run_op(wl: Workload, spec: dict) -> tuple[float, list[str]]:
    """Time one op, then check its output outside the timed region.

    Returns the latency in seconds and the failures found; an op that
    raises fails with its traceback.
    """
    start = time.perf_counter()
    try:
        out = wl.run(spec)
    except Exception:
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    latency = time.perf_counter() - start
    try:
        return latency, wl.check(spec, out)
    except Exception:
        return latency, ["check raised: " + traceback.format_exc(limit=3)]


def run_ops(wl: Workload, seconds: float, min_ops: int, deadline: float = math.inf,
            trace=None) -> dict:
    """Run ops 0, 1, ... of the schedule and check each output.

    Runs the workload's planned op count if it has one; otherwise stops
    at a whole cycle once the ops took ``seconds`` in total and at least
    ``min_ops`` ran.  Stops early once ``time.monotonic()`` passes
    ``deadline``.  With ``trace`` (an object with ``start(op)`` and
    ``stop()``), every op runs a second time with spans, traced run first
    on odd ops, so that the two timings are paired; ``seconds`` then
    counts untraced time only.
    """
    latencies, traced, kinds, failures = [], [], [], []
    failed = 0
    timed = 0.0
    i = 0
    planned = wl.planned_ops(seconds, min_ops)
    while not (i % wl.cycle == 0 and (
        (i >= planned if planned is not None else timed >= seconds and i >= min_ops)
        or time.monotonic() > deadline
    )):
        spec = wl.spec(i)
        kinds.append(spec["kind"])
        modes = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for with_spans in modes:
            if with_spans:
                trace.start(i)
            try:
                latency, bad = run_op(wl, spec)
            finally:
                if with_spans:
                    trace.stop()
            (traced if with_spans else latencies).append(latency * 1000.0)
            if bad:
                failed += 1
                failures.append(f"op {i} ({kinds[-1]}): " + "; ".join(bad))
        timed += latencies[-1] / 1000.0
        i += 1
    return {
        "latencies_ms": latencies,
        "traced_ms": traced,
        "kinds": kinds,
        "attempted": len(latencies) + len(traced),
        "failed": failed,
        "failures": failures[:5],
    }
