"""One benchmark process: set a workload up, then time it.

Usage: python3 bench/worker.py MODE WORKLOAD SEED SECONDS MIN_OPS DEADLINE_S WORKDIR

MODE is ``setup`` (set up and run the warm-up op only), ``run`` (then
time ops) or ``trace`` (time ops, each once without and once with spans).
No new cycle of ops starts after DEADLINE_S seconds.  Prints one JSON
object as the last line of stdout.  bench/run.py starts this process.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class InProcessTrace:
    """Spans in this process, installed only while a traced op runs."""

    def __init__(self):
        self.tracer = tracing.Tracer()
        self.spans = self.tracer.spans

    def start(self, op: int) -> None:
        self.tracer.op = op
        self.tracer.install()

    def stop(self) -> None:
        self.tracer.uninstall()


class CliTrace:
    """Runs traced CLI ops through bench/traced_cli.py."""

    def __init__(self, wl: workloads.CliMix, spans_file: Path):
        self.wl, self.spans_file = wl, spans_file
        self.spans = wl.spans

    def start(self, op: int) -> None:
        self.wl.op, self.wl.spans_out = op, self.spans_file

    def stop(self) -> None:
        self.wl.spans_out = None


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, min_ops, deadline_s, workdir = argv
    seconds, min_ops = float(seconds), int(min_ops)
    deadline = time.monotonic() + float(deadline_s)
    wl = workloads.WORKLOADS[name](int(seed), Path(workdir))
    wl.setup()
    before_warmup = time.perf_counter()
    latency, bad = workloads.run_op(wl, wl.warmup_spec())
    out = {
        "setup_s": before_warmup - T0 + latency,
        "attempted": 1,
        "failed": int(bool(bad)),
        "failures": [f"warm-up: {'; '.join(bad)}"] if bad else [],
    }
    if mode == "setup":
        print(json.dumps(out))
        return 0

    trace = None
    if mode == "trace":
        if isinstance(wl, workloads.CliMix):
            trace = CliTrace(wl, Path(workdir) / "spans.json")
        else:
            trace = InProcessTrace()
    # A traced run times every op twice; half the time keeps it as long.
    budget = seconds / 2 if trace else seconds
    timed = workloads.run_ops(wl, budget, min_ops, deadline=deadline, trace=trace)
    out["attempted"] += timed["attempted"]
    out["failed"] += timed["failed"]
    out["failures"] += timed["failures"]
    out["latencies_ms"] = timed["latencies_ms"]
    out["kinds"] = timed["kinds"]
    out["zero_variance_ops"] = wl.zero_variance_ops
    if trace is None:
        out["peak_rss_mb"] = peak_rss_mb(children=isinstance(wl, workloads.CliMix))
    else:
        untraced_ms, traced_ms = sum(timed["latencies_ms"]), sum(timed["traced_ms"])
        out["layers"] = tracing.span_metrics(trace.spans, timed["kinds"])
        out["layers"]["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
        spans_path = workloads.BENCH / "out" / f"spans-{name}-seed{seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(trace.spans))
        out["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
