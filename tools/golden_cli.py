"""Check that CLI output stays the same across a change.

Usage: python tools/golden_cli.py [--against OTHER/src]

Writes seeded inputs (drawn with ``outagebf.sampling``) into a temporary
directory and runs each invocation there as ``python -m outagebf.cli`` against
the ``src/`` tree next to this script.  Paths are relative because reports
echo their input paths.

Without ``--against`` it prints one ``sha256  exit=N  argv`` line per
invocation, so two checkouts print identical text exactly when their CLI
output and exit codes are identical.  The hashes are last-bit sensitive, so
they cannot tell a rounding change from a real one.  With ``--against`` it
runs every invocation under both trees, on identical inputs in separate
directories, and prints per invocation whether the exit codes match, whether
every non-float field of the JSON output matches (keys, lengths, strings,
integers, booleans, verdicts), the largest relative and absolute
differences between float fields, how many floats flip between 0.0 and
-0.0 (equal as numbers, different as text), and the fields whose floats
differ (list indices written as []); it exits 1 when an exit code or a
non-float field differs.
This is a manual refactoring check and not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from outagebf import model, sampling  # noqa: E402
from outagebf.reductions import (  # noqa: E402
    beamformers_from_assignment,
    powers_from_cut,
    reduce_3sat,
    reduce_maxcut,
)

INVOCATIONS = [
    ["zeta", "--sigma2", "0.5", "--rho", "0.9"],
    ["zeta", "--sigma2", "0.1", "--rho", "0.95", "--terms", "0.4"],
    ["zeta", "--sigma2", "0.1", "--rho", "0.95", "--terms", "0.3,0.8"],
    ["eval-outage", "siso.json", "siso_p.json", "--rates", "0.2,0.1,0.3,0.15", "--samples", "3000"],
    ["eval-outage", "miso.json", "miso_w.json", "--rates", "0.3,0.2,0.4", "--samples", "3000"],
    # crosses a 65536-sample chunk boundary of the Monte-Carlo stream
    ["eval-outage", "miso.json", "miso_w.json", "--rates", "0.3,0.2,0.4", "--samples", "100000"],
    ["solve-mmf-siso", "siso.json", "--trace"],
    ["solve-mmf-siso", "siso.json", "--delta", "1e-8"],
    ["solve-balancing", "siso.json", "--rates", "0.2,0.3,0.1,0.25"],
    ["reduce-maxcut", "graph.txt", "--out", "maxcut.json"],
    ["reduce-3sat", "formula.cnf", "--out", "sat.json"],
    ["verify-certificate", "maxcut.json", "cut.json"],
    ["verify-certificate", "sat.json", "assignment.json"],
    ["verify", "lemma2"],
    ["verify", "lemma2", "--step", "0.05"],
    ["verify", "lemma3", "--seed", "3"],
    ["verify", "lemma5"],
    ["verify", "maxcut-equiv", "--seed", "4"],
    ["verify", "maxcut-equiv", "--in", "maxcut.json"],
    ["verify", "sat-equiv", "--seed", "5"],
    ["verify", "algorithm1", "--seed", "6"],
    # batches of the rate evaluator: lattices for K = 1-3, cut patterns for V up to 6
    ["verify", "algorithm1", "--trials", "20", "--seed", "7"],
    ["verify", "maxcut-equiv", "--trials", "12", "--seed", "8"],
    ["paper-constants"],
]


def write_inputs(d: Path) -> None:
    rng = np.random.default_rng(2024)
    siso = sampling.random_siso_instance(rng, 4)
    (d / "siso.json").write_text(model.dumps(siso))
    p = rng.uniform(0.2, 1.0, size=siso.K) * siso.P
    (d / "siso_p.json").write_text(
        json.dumps({"type": "PowerVector", "version": model.SCHEMA_VERSION, "p": p.tolist()})
    )
    miso = sampling.random_miso_instance(rng, 3, 2)
    (d / "miso.json").write_text(model.dumps(miso))
    (d / "miso_w.json").write_text(model.dumps(sampling.random_beamformers(rng, miso)))
    graph = sampling.random_connected_graph(rng, 4)
    (d / "graph.txt").write_text(model.write_graph_dimacs(graph))
    cut = powers_from_cut([1, 3], reduce_maxcut(graph))
    (d / "cut.json").write_text(
        json.dumps({"type": "PowerVector", "version": model.SCHEMA_VERSION, "p": cut.tolist()})
    )
    cnf = sampling.random_3cnf(rng, 4, 5)
    (d / "formula.cnf").write_text(model.write_cnf_dimacs(cnf))
    beams = beamformers_from_assignment((1, 0, 1, 1), reduce_3sat(cnf))
    (d / "assignment.json").write_text(model.dumps(beams))


def run_all(src: Path, cwd: Path) -> list:
    """(exit code, stdout bytes) of every invocation, run against ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    results = []
    for argv in INVOCATIONS:
        proc = subprocess.run(
            [sys.executable, "-m", "outagebf.cli", *argv],
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            check=False,
        )
        results.append((proc.returncode, proc.stdout))
    return results


def compare(a, b, path="$"):
    """Differences between two parsed outputs.

    Returns (first non-float difference or None, largest relative float
    difference, largest absolute float difference, number of floats that
    flip between 0.0 and -0.0, which compare equal but print differently,
    set of paths with list indices written as [] whose floats differ).
    """
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return None, 0.0, 0.0, 0, set()
        if a == b:
            return None, 0.0, 0.0, int(math.copysign(1.0, a) != math.copysign(1.0, b)), set()
        return None, abs(a - b) / max(abs(a), abs(b)), abs(a - b), 0, {path}
    if type(a) is not type(b):
        return path, 0.0, 0.0, 0, set()
    if isinstance(a, dict):
        if list(a) != list(b):
            return path + " keys", 0.0, 0.0, 0, set()
        pairs = [(a[k], b[k], f"{path}.{k}") for k in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return path + " length", 0.0, 0.0, 0, set()
        pairs = [(x, y, f"{path}[]") for x, y in zip(a, b)]
    else:
        return (None if a == b else path), 0.0, 0.0, 0, set()
    first, rel, absolute, flips, where = None, 0.0, 0.0, 0, set()
    for x, y, p in pairs:
        diff, r, d, f, w = compare(x, y, p)
        first = first or diff
        rel, absolute, flips = max(rel, r), max(absolute, d), flips + f
        where |= w
    return first, rel, absolute, flips, where


def parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError:
        return stdout.decode(errors="replace")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path, help="the src/ directory of another checkout")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "here"), Path(tmp, "there")
        here.mkdir()
        write_inputs(here)
        if args.against is None:
            for argv, (rc, out) in zip(INVOCATIONS, run_all(SRC, here)):
                print(f"{hashlib.sha256(out).hexdigest()}  exit={rc}  {' '.join(argv)}")
            return 0
        shutil.copytree(here, there)
        ok = True
        mine, theirs = run_all(SRC, here), run_all(args.against.resolve(), there)
        for argv, (rc_a, out_a), (rc_b, out_b) in zip(INVOCATIONS, mine, theirs):
            diff, rel, absolute, flips, where = compare(parse(out_a), parse(out_b))
            exits = "exit same" if rc_a == rc_b else f"exit {rc_a} vs {rc_b}"
            fields = "fields same" if diff is None else f"fields differ at {diff}"
            ok &= rc_a == rc_b and diff is None
            print(
                f"{exits:<14} {fields:<30} max_rel_float={rel:.2g} max_abs_float={absolute:.2g}"
                f" signed_zero_flips={flips}  {' '.join(argv)}"
            )
            if where:
                print(f"{'':<14} floats differ at {', '.join(sorted(where))}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
