"""Record alternating parent/change benchmark runs into a BENCH JSON file.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --out BENCH_<n>.json --seed 7301 --runs 10 \\
        --parent ../parent --change . --workload mc_paths --workload cli_mix

For each workload it runs N pairs, parent first in even pairs and change
first in odd ones, of

    python3 bench/run.py --workload W --seed S --seconds 30 --trace 0

in each checkout.  It writes, once all runs are done, the environment line
and the result line that ``run.py`` prints for every run, the git sha of
both checkouts, and for each end-to-end metric in BENCHMARK.json the
median and quartiles of both sides, the pairs the change won, the change
in median and the parent's interquartile range.  Nothing under ``bench/``
is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 30
RUN_TIMEOUT_S = 600
SIDES = ("parent", "change")


def git_sha(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_command(workload: str, seed: int) -> list[str]:
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", "0"]


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *run_command(workload, seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall_s = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {"wall_s": wall_s, "env": json.loads(env_line), "result": json.loads(result_line)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        parent, change = ([p[side]["result"]["metrics"][name]["value"] for p in pairs]
                          for side in SIDES)
        sign = 1.0 if metric["better"] == "higher" else -1.0
        entry = {"parent": quartiles(parent), "change": quartiles(change)}
        base = entry["parent"]["median"]
        entry["comparison"] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(pairs),
            "median_change": (entry["change"]["median"] - base) / base if base else None,
            "parent_iqr": entry["parent"]["q3"] - entry["parent"]["q1"],
        }
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, required=True, help="pairs per workload")
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for workload in args.workload:
        pairs = []
        for i in range(args.runs):
            pair = {"first": SIDES[i % 2]}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(trees[side], workload, args.seed)
                result = pair[side]["result"]["metrics"]
                print(f"{workload} pair {i} {side}: "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result.items()),
                      file=sys.stderr, flush=True)
            pairs.append(pair)
        workloads[workload] = {
            "command": "python3 " + " ".join(run_command(workload, args.seed)),
            "pairs": pairs,
            "summary": summarize(pairs, metrics),
        }

    record = {"trees": {side: {"git_sha": git_sha(path)} for side, path in trees.items()},
              "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
