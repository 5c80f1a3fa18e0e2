"""Run one spinforms benchmark workload and print its metrics as the last line, in JSON.

    python3 perfbench/run.py --workload large-state --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the checkout's ``src``.  Set-up
is timed from the start of a worker process to its READY line, on three
workers in a row, and reported as the median; the third worker also runs the
timed jobs.  The traced run (``--trace 1``) starts one worker and reports
per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("large-state", "coefficients", "operators", "cli")
SETUP_SAMPLES = 3
# every run must end within 180 s; leave room to kill and reap a stuck worker
DEADLINE_S = 170.0
# BLAS and OpenMP pools at one thread: with two, sub-millisecond dense products stall
# for tens of milliseconds now and then (README, "Threads").
SINGLE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in SINGLE_THREAD})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@contextmanager
def worker(args, role: str, deadline: float):
    """Start a worker and wait for its READY line; yield (process, set-up seconds).

    The worker runs in its own process group, which is killed on the way out
    if it is still running, so no CLI subprocess outlives the run.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        while True:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise RunError(f"{role} worker did not finish set-up in time")
            line = proc.stdout.readline()
            if line == "READY\n":
                break
            if not line:
                raise RunError(f"{role} worker exited with code {proc.wait()} during set-up")
        yield proc, time.perf_counter() - start
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "spinforms" / "__init__.py").is_file():
        raise RunError(f"no spinforms package under {ROOT / 'src'}")
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            with worker(args, "probe", deadline) as (proc, seconds):
                finish(proc, deadline)
            setup.append(seconds)
    with worker(args, "main", deadline) as (proc, seconds):
        lines = finish(proc, deadline).strip().splitlines()
    setup.append(seconds)
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **result["metrics"]}
        result["info"]["setup_samples_s"] = setup
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds normally, so its workers are killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
