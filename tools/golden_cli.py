"""Hash the stdout of a fixed set of CLI invocations.

Usage: python tools/golden_cli.py

Writes seeded inputs (drawn with ``outagebf.sampling``) into a temporary
directory and runs each invocation there as ``python -m outagebf.cli`` against
the ``src/`` tree next to this script.  Paths are relative because reports
echo their input paths.  Prints one ``sha256  exit=N  argv`` line per
invocation, so two checkouts print identical text exactly when their CLI
output and exit codes are identical.  The numbers compared are last-bit sensitive, which is why
this is a manual refactoring check and not part of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import os
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
    ["solve-mmf-siso", "siso.json", "--trace"],
    ["solve-mmf-siso", "siso.json", "--delta", "1e-8"],
    ["solve-balancing", "siso.json", "--rates", "0.2,0.3,0.1,0.25"],
    ["reduce-maxcut", "graph.txt", "--out", "maxcut.json"],
    ["reduce-3sat", "formula.cnf", "--out", "sat.json"],
    ["verify-certificate", "maxcut.json", "cut.json"],
    ["verify-certificate", "sat.json", "assignment.json"],
    ["verify", "lemma2"],
    ["verify", "lemma3", "--seed", "3"],
    ["verify", "lemma5"],
    ["verify", "maxcut-equiv", "--seed", "4"],
    ["verify", "maxcut-equiv", "--in", "maxcut.json"],
    ["verify", "sat-equiv", "--seed", "5"],
    ["verify", "algorithm1", "--seed", "6"],
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


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for argv in INVOCATIONS:
            proc = subprocess.run(
                [sys.executable, "-m", "outagebf.cli", *argv],
                cwd=tmp,
                env=env,
                stdin=subprocess.DEVNULL,
                capture_output=True,
                check=False,
            )
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{digest}  exit={proc.returncode}  {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
