"""entropic-fx benchmark: three seeded workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli_mix,grid_solvers,mc_paths} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it sets the workload up SETUP_REPEATS times in fresh
processes, times ops for about S seconds in the last of them, checks
every output, and prints the end-to-end metrics.  With ``--trace 1`` it runs
each op twice, once as before and once with spans around the library's
public functions, until the untraced runs took S/2 seconds, and prints
the per-layer metrics.  The
line before the result holds the environment and the details behind the
numbers.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See bench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_mix", "grid_solvers", "mc_paths")

# Set-up is measured in this many fresh processes; the median is reported.
SETUP_REPEATS = 5
# At least this many timed ops, so the tail percentile sits above the median.
MIN_OPS = 20
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
# No new cycle of ops starts after this many seconds of the run, and
# every process is given up after HARD_LIMIT_S, inside the 180 s a run
# may take.
SOFT_LIMIT_S = 120
HARD_LIMIT_S = 170
IMPORT_PROBES = 3
INTERPRETER_PROBES = 5

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def library_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTROPIC_FX_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "seed": seed,
    }


def worker(mode: str, args, workdir: Path, started: float) -> dict:
    """Run bench/worker.py in a fresh process and return its JSON result."""
    left = HARD_LIMIT_S - (time.monotonic() - started)
    soft = max(0.0, SOFT_LIMIT_S - (time.monotonic() - started))
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), str(MIN_OPS), str(soft), str(workdir)]
    # A session of its own, so that a timeout also stops the CLI processes
    # a cli_mix worker started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=BENCH, env=library_env(),
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Returns its value, the percentile and the number of samples beyond.
    With too few samples for any such percentile, the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(args, workdir: Path, started: float) -> tuple[dict, dict, int, int]:
    setups = [worker("setup", args, workdir, started) for _ in range(SETUP_REPEATS - 1)]
    main_run = worker("run", args, workdir, started)
    runs = setups + [main_run]
    latencies = main_run["latencies_ms"]
    tail_ms, tail_pct, beyond = tail(latencies)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(main_run["kinds"], latencies):
        by_kind.setdefault(kind, []).append(latency)
    values = {
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": main_run["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    details = {
        "timed_ops": len(latencies),
        "timed_s": sum(latencies) / 1000.0,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": [r["setup_s"] for r in runs],
        "p50_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
        "ops_by_kind": {k: len(v) for k, v in by_kind.items()},
        "zero_variance_ops": main_run["zero_variance_ops"],
        "failures": [f for r in runs for f in r["failures"]][:10],
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, details, attempted, failed


def import_probes() -> dict:
    """Interpreter floor and ``-X importtime`` breakdown of ``import entropic_fx.cli``."""
    env = library_env()
    interpreter = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        interpreter.append((time.perf_counter() - start) * 1000.0)
    imports = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import entropic_fx.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        imports.append(tracing.parse_importtime(proc.stderr))
    return {
        "cli.interpreter_ms": statistics.median(interpreter),
        "cli.import_ms": statistics.median(i["total"] for i in imports),
        "cli.import_scipy_ms": statistics.median(i["scipy"] for i in imports),
        "cli.import_numpy_ms": statistics.median(i["numpy"] for i in imports),
    }


def per_layer(args, workdir: Path, started: float) -> tuple[dict, dict, int, int]:
    result = worker("trace", args, workdir, started)
    values = {**result["layers"], **import_probes()}
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracing.PER_LAYER.items()}
    details = {
        "spans_file": result["spans_file"],
        "failures": result["failures"][:10],
    }
    return metrics, details, result["attempted"], result["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entropic_fx" / "__init__.py").is_file():
        print(f"bench: no entropic_fx sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("bench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix="tmp-", dir=BENCH))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, details, attempted, failed = measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": environment(args.seed), "details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
