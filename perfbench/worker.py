"""One benchmark process: set up a workload, say READY, then run timed rounds of jobs.

Started by run.py, which times set-up from process start to the READY line.
A ``probe`` worker exits after READY; the ``main`` worker goes on to measure
and prints one JSON object as its last line.  The result keeps end-to-end
metrics (``--trace 0``) or per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = HERE.parent / "src"

UNITS = {"ms": "ms", "calls": "count", "x_vdot": "x", "mib": "MiB", "overhead_ms": "ms", "overhead_pct": "%"}


def tail(latencies):
    """The highest percentile that has at least ten jobs beyond it: the 11th slowest job.

    With fewer than 21 jobs that would fall below the median, so such a run
    (cli has about ten jobs) reports its slowest job instead.
    """
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) >= 21 else ordered[-1]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest child (children run one at a time); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(wl, tracer, seconds: float, trace: bool, workloads):
    """Whole rounds until ``seconds`` have passed; with tracing, odd rounds are traced."""
    tally = workloads.Tally(wl.known_defects)
    latencies = []
    rounds = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        traced = trace and r % 2 == 1
        tracer.enabled = traced
        if traced:
            workloads.start_probe(tracer)
        busy = 0.0
        for i in range(wl.jobs_per_round):
            tracer.job = r * wl.jobs_per_round + i
            if traced:
                wl.probe()
            with tracer.span("job"):
                start = time.perf_counter()
                out = wl.run_job(i)
                elapsed = time.perf_counter() - start
            wl.check(i, out, tally)
            del out
            busy += elapsed
            if not traced:
                latencies.append(elapsed)
        rounds[traced].append(busy)
        r += 1
        if time.perf_counter() >= deadline and (not trace or r >= 2):
            break
    tracer.enabled = False
    return tally, latencies, rounds


def per_layer(tracer, rounds, workloads) -> dict:
    floor = tracer.mean_ms("floor.vdot")
    untraced = statistics.median(rounds[False])
    overhead = statistics.median(rounds[True]) - untraced
    metrics = {}
    for name in workloads.per_layer_names():
        layer, _, kind = name.rpartition(".")
        if kind == "ms":
            value = tracer.mean_ms(layer)
        elif kind == "calls":
            value = tracer.calls(layer)
        elif kind == "x_vdot":
            value = tracer.mean_ms(layer) / floor if floor else 0.0
        elif kind == "mib":
            value = tracer.mean_mib(layer)
        elif kind == "overhead_ms":
            value = overhead * 1e3
        else:
            value = 100.0 * overhead / untraced
        metrics[name] = {"value": value, "unit": UNITS[kind]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("probe", "main"), required=True)
    args = parser.parse_args()

    import spinforms

    if not Path(spinforms.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported spinforms from {spinforms.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    tracer = Tracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, OUT / f"work-{args.workload}-{os.getpid()}")
    try:
        wl.run_job(0)  # the untimed warm-up job
        print("READY", flush=True)
        if args.role == "probe":
            return 0
        wl.prepare()
        tally, latencies, rounds = measure(wl, tracer, args.seconds, bool(args.trace), workloads)
    finally:
        wl.close()

    if args.trace:
        metrics = per_layer(tracer, rounds, workloads)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds[False]), "unit": "s"},
            "job_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "job_tail_ms": {"value": tail(latencies) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mib(), "unit": "MiB"},
        }
    for line in tally.unexpected[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "info": {"jobs": len(latencies), "rounds": len(rounds[False]) + len(rounds[True]),
                 "jobs_per_round": wl.jobs_per_round},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
