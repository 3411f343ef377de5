#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload mmf_siso --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the result holds
the end-to-end metrics of the workload, with ``--trace 1`` the per-layer
metrics of the traced run (see layers.py).  The next-to-last stdout line is
``{"info": ...}`` with the run's metadata (seed, versions, git SHA, nproc,
failed_frac, tail percentile); the last line is the result
``{"correct", "attempted", "failed", "metrics"}``.  Both are also written to
``.bench_out/``.  Exit code 0 when every output check passed, 1 when one
failed, 2 when the sources or the arguments are unusable.

The workload runs in one worker process with OMP, OpenBLAS and MKL pinned to
one thread.  ``setup_s`` is the median, over that worker and eight set-up
probes, of the time from spawning the process to its first timed operation.
The gated times are in reference seconds: each is divided by the host
slowdown that the fixed kernel of hostspeed.py measures next to it.  The raw
figures are in the info line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mmf_siso", "mc_crosscheck", "gadget_audit")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 8
TRACE_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 20.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(argv: list, timeout: float):
    """Run worker.py; returns (seconds from spawn to its ``ready`` line, last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    ready_s, last = None, None
    try:
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return ready_s, last


def git_sha() -> str:
    """HEAD commit of the checkout; ``unknown`` outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="timed seconds (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds < 0:
        ap.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so run_worker's cleanup stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "outagebf" / "__init__.py").is_file():
        print(f"error: no outagebf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            _, line = run_worker(common + ["--trace"], TRACE_TIMEOUT_S)
            result = json.loads(line)
        else:
            # the untimed make, check and host-speed work stays well below the timed seconds
            timeout = 2.0 * args.seconds + 60.0
            ready_s, line = run_worker(common + ["--seconds", str(args.seconds)], timeout)
            result = json.loads(line)
            setups = [(ready_s, result["info"]["setup_slowdown"])]
            for _ in range(SETUP_PROBES):
                probe_s, probe = run_worker(common + ["--setup-only"], PROBE_TIMEOUT_S)
                setups.append((probe_s, json.loads(probe)["setup_slowdown"]))
            if any(s is None or v is None for s, v in setups):
                raise WorkerError("a worker never reached its first operation")
            scaled = [s / v for s, v in setups]
            result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
            result["info"]["raw"]["setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s"}
            result["info"]["setup_samples_s"] = [s for s, _ in setups]
    except (WorkerError, TypeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": {v: "1" for v in THREAD_VARS},
        **result["info"],
    }
    correct = result["failed"] == 0
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, **final}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
