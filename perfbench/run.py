#!/usr/bin/env python3
"""qforge benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload forge --seed 20260828 --seconds 30 --trace 0

Workloads: forge, amalgamate, certify (see perfbench/README.md).  With
--trace 0 the run measures for about --seconds seconds and prints the
end-to-end metrics; with --trace 1 it runs one round untraced and one
traced, and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is the full record of the run, which is also
written under .bench_out/.  --smoke runs tiny sizes for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
RUN_DEADLINE_S = 150.0      # no operation starts after this; exit is < 180 s

sys.path.insert(0, str(HERE))

from clock import Clock  # noqa: E402
from tracing import Tracer, layer_metric_units  # noqa: E402
from workloads import CRITERION_8_SEED, WORKLOADS, Run, import_qforge  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "check_p50_ms": "ms",
    "output_bytes": "B",
    "peak_rss_mb": "MB",
}


def calibration_rate():
    """Fraction additions per second on a fixed loop; shows which runs
    landed in a slow phase of the machine.  Recorded, never gated."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, 20001):
        s += Fraction(1, k % 97 + 1)
    return 20000 / (time.perf_counter() - t0)


def git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record():
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit()}


def tail(samples):
    """Highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100 * (n - 10) // n
    return ordered[-1], 100


def set_up(workload, work, tracer=None):
    """One set-up: import qforge afresh, make the temp dir, build inputs."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    qf = import_qforge()
    if tracer is not None:
        tracer.install(qf)
    return workload.setup(qf, work)


def measure(workload, seconds, work, clock):
    """Set up several times, then repeat rounds for about `seconds`."""
    setups = []
    for _ in range(SETUP_REPEATS):
        state, window = clock.call(RUN_DEADLINE_S, set_up, workload, work)
        setups.append([window])
    run = Run(clock, deadline=time.monotonic() + RUN_DEADLINE_S)
    t_start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        workload.round(state, run, len(rounds))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= workload.min_rounds and (
                elapsed + statistics.median(rounds) > seconds):
            break
        if time.monotonic() > run.deadline:
            break
    if hasattr(workload, "recheck"):
        workload.recheck(state, run)
    return run, setups, rounds


def trace(workload, work, clock):
    """One untraced round, then one traced round of the same work; returns
    the clock windows of both (set-up included)."""
    run = Run(clock, deadline=time.monotonic() + RUN_DEADLINE_S)
    t0 = time.perf_counter()
    state = set_up(workload, work)
    workload.round(state, run, 0)
    untraced = (t0, time.perf_counter())
    tracer = Tracer()
    run.tracer = tracer
    t0 = time.perf_counter()
    state = set_up(workload, work, tracer)
    workload.round(state, run, 1)
    traced = (t0, time.perf_counter())
    return run, tracer, untraced, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=CRITERION_8_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qforge" / "__init__.py").is_file():
        sys.stderr.write("error: no qforge sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](smoke=args.smoke, seed=args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = OUT_DIR / ("work-%s-%d" % (tag, os.getpid()))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "machine": machine_record()}
    record["machine"]["calibration_before"] = calibration_rate()
    try:
        if args.trace:
            with Clock() as clock:
                run, tracer, untraced, traced = trace(workload, work, clock)
            trace_path = OUT_DIR / ("trace-%s.jsonl" % tag)
            tracer.write_jsonl(trace_path)
            round_s = {name: {"raw": clock.raw(w),
                              "corrected": clock.corrected(w)}
                       for name, w in (("untraced", untraced),
                                       ("traced", traced))}
            values = tracer.layer_metrics()
            values["bench.tracing_overhead_s"] = (
                round_s["traced"]["corrected"]
                - round_s["untraced"]["corrected"])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layer_metric_units()}
            record.update(trace_file=str(trace_path.relative_to(ROOT)),
                          round_s=round_s,
                          tracing_overhead_s=values["bench.tracing_overhead_s"])
        else:
            with Clock() as clock:
                run, setups, rounds = measure(workload, args.seconds, work,
                                              clock)
            run.samples["setup"] = setups
            seconds = {kind: {"raw": [sum(map(clock.raw, s)) for s in ws],
                              "corrected": [sum(map(clock.corrected, s))
                                            for s in ws]}
                       for kind, ws in run.samples.items()}
            metrics = end_to_end(run, seconds)
            record.update(round_s=rounds, samples_s=seconds,
                          probe_rate_quartiles=clock.probe_rate_quartiles(),
                          op_tail_percentile=tail(seconds["op"]["raw"])[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine"]["calibration_after"] = calibration_rate()
    record.update(attempted=run.attempted, failed=run.failed,
                  failed_ratio=run.failed / run.attempted,
                  errors=run.errors, sha256=run.digests)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record["result"] = result
    with open(OUT_DIR / ("record-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def end_to_end(run, seconds):
    """The gated metrics, from speed-corrected times (see clock.py)."""
    op = seconds["op"]["corrected"]
    check = seconds["check"]["corrected"]
    values = {
        "setup_s": statistics.median(seconds["setup"]["corrected"]),
        "op_p50_ms": 1000 * statistics.median(op),
        "op_tail_ms": 1000 * tail(op)[0],
        "ops_per_s": len(op) / sum(op),
        "check_p50_ms": 1000 * statistics.median(check) if check else 0.0,
        "output_bytes": run.output_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
