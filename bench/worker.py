"""Benchmark worker: the one process that runs a workload.

Started by ``run.py`` with the thread pins and ``PYTHONPATH`` already set.
It prints ``ready`` on stdout just before its first timed operation (so the
launcher can time set-up from process start) and one JSON result as its last
line.  Modes:

    worker.py --workload W --seed N --seconds S   timed run
    worker.py --workload W --seed N --setup-only  set-up probe
    worker.py --workload W --seed N --trace       traced run

After ``ready`` the timed run and the set-up probe time the host-speed kernels
(hostspeed.py) and report the host's slowdown as ``setup_slowdown``, by
which the launcher divides the set-up time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import hostspeed
import outagebf
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TRACE_OPS = 6
# an op's time is scaled by the mean of its kernel's samples taken before it
# and the HOST_WINDOW ops on either side: the host changes speed within seconds
HOST_WINDOW = 2


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` operations beyond it."""
    return max(p for p in TAIL_LADDER if p == 50.0 or n * (1.0 - p / 100.0) >= 10.0)


def _sample_host(slowdowns: dict) -> None:
    for name, samples in slowdowns.items():
        samples.append(hostspeed.sample((name,)))


def _ready() -> None:
    print("ready", flush=True)


def _report(wl: Workload, j: int, exc: Exception, first: bool) -> None:
    print(f"{wl.name} op {j} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    if first:
        traceback.print_exception(exc, file=sys.stderr)


def measure(wl: Workload, seed: int, seconds: float) -> dict:
    """Closed loop over whole passes of the workload's ``ops_per_pass`` operations.

    Runs at least one pass, and another one while the timed seconds after it
    are expected to stay within ``seconds``.  Inputs are generated, outputs
    checked and the host-speed kernels timed outside the timed region; an
    exception or a failed check counts the operation as failed and the loop
    goes on.  Each operation's time is divided by the host slowdown that its
    matching kernel measured around it (see hostspeed.py).
    """
    n = wl.ops_per_pass
    times, failed, timed = [], 0, 0.0
    slowdowns = {name: [] for name in hostspeed.KERNELS}  # one sample per op
    probes = []  # the kernel that matches each op, None when it never ran
    setup_slowdown = None
    for j in itertools.count():
        passes = j // n
        if j % n == 0 and passes and (timed * (passes + 1) / passes > seconds or failed == j):
            break
        try:
            inp = wl.make(seed, j)
        except Exception as e:
            _report(wl, j, e, not failed)
            failed += 1
            times.append(0.0)
            probes.append(None)
            _sample_host(slowdowns)
            continue
        if setup_slowdown is None:
            _ready()
            setup_slowdown = hostspeed.setup_slowdown()
        probes.append(wl.probe(inp))
        _sample_host(slowdowns)
        error = None
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as e:
            error = e
        dt = time.perf_counter() - t0
        timed += dt
        times.append(dt)
        if error is None:
            try:
                wl.check(inp, out)
            except Exception as e:
                error = e
        if error is not None:
            _report(wl, j, error, not failed)
            failed += 1
    attempted = j
    ok_ops = attempted - failed
    pct = tail_percentile(n)
    raw = np.array(times)
    ran = np.array([p is not None for p in probes])
    w = HOST_WINDOW
    slow = [np.mean(slowdowns[p][max(0, i - w):i + w + 1]) if p else 1.0 for i, p in enumerate(probes)]
    scaled = raw / np.array(slow)

    def figures(t):
        t = t[ran]
        return {
            "ops_per_s": (ok_ops / t.sum() if t.sum() > 0 else 0.0, "1/s"),
            "op_p50_s": (float(np.median(t)) if t.size else None, "s"),
            "op_tail_s": (float(np.percentile(t, pct)) if t.size else None, "s"),
        }

    metrics = {
        **figures(scaled),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
            "raw": {k: {"value": v, "unit": u} for k, (v, u) in figures(raw).items()},
            "host_slowdown": {name: float(np.median(v)) for name, v in slowdowns.items()},
            "setup_slowdown": setup_slowdown,
            "tail_percentile": pct,
            "ops_per_pass": n,
            "passes": attempted // n,
            "timed_s": timed,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(outagebf.__file__).resolve().parents:
        print(f"error: outagebf imported from {outagebf.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.make(args.seed, 0)
        _ready()
        print(json.dumps({"setup_slowdown": hostspeed.setup_slowdown()}), flush=True)
        return 0
    if args.trace:
        from layers import run_traced

        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        result = run_traced(args.seed, TRACE_OPS, ROOT, spans)
        result["info"] = {"spans_file": str(spans.relative_to(ROOT)), "failures": result.pop("failures")}
    else:
        result = measure(wl, args.seed, args.seconds)
    result["info"]["numpy"] = np.__version__
    result["info"]["python"] = sys.version.split()[0]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
