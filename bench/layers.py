"""Traced run: per-layer metrics from spans around each public call.

Each per-layer metric belongs to the workload whose end-to-end figures it
moves, so a traced run samples every workload (``ops`` operations each, with
the seed's first inputs) whatever workload it is started for.  Every sampled
operation runs once untraced and once traced, in alternating order, which
gives the tracing overhead.  The spans (name, start, end, parent, op id)
stay in memory until the run ends.

Work counts (zeta iterations, bisection midpoints, sweeps, lattice points)
are exact and repeat for a seed.  The layer's own work is re-derived from
public results only: ``sol.tested`` gives the midpoints, the ``keep_trace``
iterates of ``feasibility_fixed_point`` give the per-sweep zeta contexts.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import outagebf
from outagebf import cli, model, sampling

from workloads import (
    MC_K,
    MC_NT,
    MC_SAMPLES,
    MMF_DELTA,
    MMF_K,
    SAT_ASSIGNMENTS,
    WORKLOADS,
    check_mmf,
    no_span,
    require,
    rng_for,
)

ZETA_TOL = 1e-13  # the tolerance the solvers pass to the zeta kernel
K_SCALING = (32, 64)
CLI_MC_SAMPLES = 10_000
CLI_REPEATS = 5  # back-to-back library/CLI pairs; medians
IMPORT_PROBES = 5
CLI_OK, CLI_INFEASIBLE = 0, 1  # outagebf exit codes

UNITS = {
    "zeta.solve_s.t7": "s",
    "zeta.solve_s.t0": "s",
    "zeta.solve_s.t2": "s",
    "zeta.iters_per_solve": "count",
    "zeta.iters_ge20_frac": "ratio",
    "solvers.mmf_s": "s",
    "solvers.feasibility_tests_per_solve": "count",
    "solvers.sweeps_per_test": "count",
    "solvers.feasibility_s": "s",
    "solvers.sweep_s": "s",
    "solvers.feasible_frac": "ratio",
    "solvers.feasibility_share": "ratio",
    "solvers.srm_rates_s.siso8": "s",
    "solvers.zeta_solves_per_solve": "count",
    "solvers.srm_rates_s.gadget": "s",
    "solvers.mmf_s.K32": "s",
    "solvers.mmf_s.K64": "s",
    "outage.lhs_all_s.siso8": "s",
    "outage.lhs_all_s.sat": "s",
    "outage.lhs_all_s.miso8x4": "s",
    "outage.mc_s": "s",
    "outage.mc_samples_per_s": "1/s",
    "outage.mc_draw_bytes_per_s": "B/s",
    "reductions.reduce_maxcut_s": "s",
    "reductions.reduce_3sat_s": "s",
    "reductions.check_certificate_s": "s",
    "reductions.certificates_per_s": "1/s",
    "oracles.exhaustive_maxcut_s": "s",
    "oracles.discrete_srm_search_s": "s",
    "oracles.patterns_per_s": "1/s",
    "oracles.lattice_setup_s": "s",
    "oracles.lattice_points_per_s": "1/s",
    "oracles.lattice_points": "count",
    "sampling.instance_s": "s",
    "model.validate_s": "s",
    "model.json_roundtrip_s": "s",
    "cli.import_s": "s",
    **{f"cli.main_s.{w}": "s" for w in WORKLOADS},
    **{f"cli.overhead_s.{w}": "s" for w in WORKLOADS},
    **{f"trace.overhead_frac.{w}": "ratio" for w in WORKLOADS},
}


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def mean(self, name: str) -> float:
        return statistics.fmean(self.durations(name))

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def _terms(Q, p, i):
    return tuple(
        float(Q[k, i] * p[k]) for k in range(len(p)) if k != i and Q[k, i] * p[k] > 0
    )


def sweep_contexts(inst, iterates):
    """The zeta contexts of each Jacobi sweep: sweep s reads iterate s - 1."""
    return [
        outagebf.ZetaContext(float(inst.sigma2[i]), float(inst.rho[i]), _terms(inst.Q, p, i))
        for p in iterates[:-1]
        for i in range(inst.K)
    ]


def rate_contexts(inst, p):
    """The zeta contexts of ``srm_rates_from_powers``: one per transmitting user."""
    return [
        outagebf.ZetaContext(float(inst.sigma2[i]), float(inst.rho[i]), _terms(inst.Q, p, i))
        for i in range(inst.K)
        if p[i] > 0
    ]


class LayerRun:
    def __init__(self, seed: int, ops: int, root: Path):
        self.seed = seed
        self.ops = ops
        self.root = root
        self.tracer = Tracer()
        self.values = {}
        self.attempted = 0
        self.failures = []
        self.samples = {}

    def put(self, name: str, value) -> None:
        self.values[name] = float(value)

    @contextlib.contextmanager
    def step(self, what: str):
        """One checked unit of work; an exception is a failure, not an abort."""
        self.attempted += 1
        try:
            yield
        except Exception as e:
            self.failures.append(f"{what}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)

    def zeta_timed(self, contexts, label):
        """(seconds per solve, iteration counts) over the given contexts."""
        with self.tracer.span(f"zeta.solve_zeta.{label}"):
            t0 = time.perf_counter()
            iters = [outagebf.solve_zeta(c, tol=ZETA_TOL, full_output=True)[2] for c in contexts]
            dt = time.perf_counter() - t0
        return dt / len(contexts), iters

    # -- workload samples ---------------------------------------------------

    def sample_workloads(self):
        tr = self.tracer
        for wl in WORKLOADS.values():
            kept, untraced, traced = [], 0.0, 0.0
            for j in range(self.ops):
                with self.step(f"{wl.name} op {j}"):
                    tr.op = f"{wl.name}/{j}"
                    with tr.span("sampling.make"):
                        inp = wl.make(self.seed, j)

                    for traced_run in ((True, False) if j % 2 else (False, True)):
                        t0 = time.perf_counter()
                        if traced_run:
                            with tr.span(f"op.{wl.name}"):
                                out = wl.run(inp, tr.span)
                            traced += time.perf_counter() - t0
                        else:
                            out = wl.run(inp, no_span)
                            untraced += time.perf_counter() - t0
                    wl.check(inp, out)
                    kept.append((inp, out))
            tr.op = None
            self.samples[wl.name] = kept
            if untraced > 0:
                self.put(f"trace.overhead_frac.{wl.name}", traced / untraced)
        self.put("sampling.instance_s", tr.mean("sampling.make"))

    # -- zeta + solvers on mmf_siso --------------------------------------------

    def solver_layers(self):
        tr = self.tracer
        tests = sweeps = feasible = 0
        feas_time = solve_time = 0.0
        zeta_solves = []
        for inst, sol in self.samples["mmf_siso"]:
            with self.step("mmf_siso feasibility re-run"):
                # the solve is timed again next to its re-run tests, so the
                # share compares two runs made under the same machine load
                t0 = time.perf_counter()
                outagebf.mmf_bisection(inst, delta=MMF_DELTA)
                solve_time += time.perf_counter() - t0
                solve_sweeps = 0
                for mid, verdict in sol.tested:
                    t0 = time.perf_counter()
                    with tr.span("solvers.feasibility_fixed_point"):
                        res = outagebf.feasibility_fixed_point(inst, mid)
                    feas_time += time.perf_counter() - t0
                    require(res.feasible == verdict, f"verdict at {mid} changed on re-run")
                    solve_sweeps += res.iterations
                    feasible += res.feasible
                tests += len(sol.tested)
                sweeps += solve_sweeps
                zeta_solves.append(solve_sweeps * inst.K + inst.K)
                with tr.span("solvers.srm_rates_from_powers.siso8"):
                    outagebf.srm_rates_from_powers(inst, sol.p)
                with tr.span("outage.outage_lhs_all.siso8"):
                    outagebf.outage_lhs_all(inst, sol.p, inst.alpha * sol.R)
        # contexts are gathered only after the timing above: thousands of live
        # objects would slow the timed calls through garbage collection
        contexts = []
        for inst, sol in self.samples["mmf_siso"]:
            for mid, _ in sol.tested:
                kept = outagebf.feasibility_fixed_point(inst, mid, keep_trace=True)
                contexts += sweep_contexts(inst, kept.trace)
            contexts += rate_contexts(inst, sol.p)
        n = len(self.samples["mmf_siso"])
        self.put("solvers.mmf_s", statistics.median(tr.durations("solvers.mmf_bisection")))
        self.put("solvers.feasibility_tests_per_solve", tests / n)
        self.put("solvers.sweeps_per_test", sweeps / tests)
        self.put("solvers.feasibility_s", feas_time / tests)
        self.put("solvers.sweep_s", feas_time / sweeps)
        self.put("solvers.feasible_frac", feasible / tests)
        self.put("solvers.feasibility_share", feas_time / solve_time)
        self.put("solvers.zeta_solves_per_solve", statistics.fmean(zeta_solves))
        self.put("solvers.srm_rates_s.siso8", tr.mean("solvers.srm_rates_from_powers.siso8"))
        self.put("outage.lhs_all_s.siso8", tr.mean("outage.outage_lhs_all.siso8"))
        with self.step("zeta on mmf_siso contexts"):
            iters = []
            for t in sorted({len(c.terms) for c in contexts}):
                per_solve, its = self.zeta_timed([c for c in contexts if len(c.terms) == t], f"t{t}")
                iters += its
                if t == MMF_K - 1:
                    self.put("zeta.solve_s.t7", per_solve)
            self.put("zeta.iters_per_solve", statistics.fmean(iters))
            self.put("zeta.iters_ge20_frac", sum(i >= 20 for i in iters) / len(iters))

    def k_scaling(self):
        for K in K_SCALING:
            with self.step(f"mmf_siso K={K}"):
                inst = sampling.random_siso_instance(rng_for(self.seed, 5, K), K=K)
                with self.tracer.span(f"solvers.mmf_bisection.K{K}"):
                    t0 = time.perf_counter()
                    sol = outagebf.mmf_bisection(inst, delta=MMF_DELTA)
                    self.put(f"solvers.mmf_s.K{K}", time.perf_counter() - t0)
                check_mmf(inst, sol)

    # -- gadget_audit layers ------------------------------------------------------

    def gadget_layers(self):
        tr = self.tracer
        by_kind = {"maxcut": [], "sat": [], "lattice": []}
        for (kind, data), out in self.samples["gadget_audit"]:
            by_kind[kind].append((data, out))
        with self.step("gadget_audit maxcut layers"):
            patterns = [
                (gadget, outagebf.powers_from_cut(
                    [v for v in range(1, graph.V + 1) if (mask >> (v - 1)) & 1], gadget))
                for graph, (gadget, _, _, _) in by_kind["maxcut"]
                for mask in range(1 << graph.V)
            ]
            for gadget, p in patterns:
                with tr.span("solvers.srm_rates_from_powers.gadget"):
                    outagebf.srm_rates_from_powers(gadget.instance, p)
            self.put("solvers.srm_rates_s.gadget", tr.mean("solvers.srm_rates_from_powers.gadget"))
            contexts = [c for gadget, p in patterns for c in rate_contexts(gadget.instance, p)]
            for t in (0, 2):
                group = [c for c in contexts if len(c.terms) == t]
                self.put(f"zeta.solve_s.t{t}", self.zeta_timed(group, f"t{t}")[0])
            self.put("reductions.reduce_maxcut_s", tr.mean("reductions.reduce_maxcut"))
            self.put("oracles.exhaustive_maxcut_s", tr.mean("oracles.exhaustive_maxcut"))
            search = tr.durations("oracles.discrete_srm_search")
            self.put("oracles.discrete_srm_search_s", statistics.fmean(search))
            self.put("oracles.patterns_per_s", len(patterns) / sum(search))
        with self.step("gadget_audit sat layers"):
            gadget = by_kind["sat"][0][1][0]
            targets = gadget.instance.alpha * gadget.rbar
            for a in SAT_ASSIGNMENTS:
                beams = outagebf.beamformers_from_assignment(a, gadget)
                with tr.span("outage.outage_lhs_all.sat"):
                    outagebf.outage_lhs_all(gadget.instance, beams, targets)
            self.put("outage.lhs_all_s.sat", tr.mean("outage.outage_lhs_all.sat"))
            self.put("reductions.reduce_3sat_s", tr.mean("reductions.reduce_3sat"))
            checks = tr.durations("reductions.check_feasibility_certificate")
            self.put("reductions.check_certificate_s", statistics.fmean(checks))
            self.put("reductions.certificates_per_s", len(checks) / sum(checks))
        with self.step("gadget_audit lattice layers"):
            points = [n for _, (n, _) in by_kind["lattice"]]
            self.put("oracles.lattice_setup_s", tr.mean("oracles.gadget_grid_objective"))
            self.put("oracles.lattice_points_per_s", sum(points) / sum(tr.durations("oracles.grid_search")))
            self.put("oracles.lattice_points", points[0])

    # -- mc_crosscheck layers -----------------------------------------------------

    def outage_layers(self):
        tr = self.tracer
        with self.step("mc_crosscheck layers"):
            mc = tr.mean("outage.mc_outage")
            self.put("outage.lhs_all_s.miso8x4", tr.mean("outage.outage_lhs_all"))
            self.put("outage.mc_s", mc)
            self.put("outage.mc_samples_per_s", MC_SAMPLES / mc)
            # computed, not measured: two float64 normals per complex draw
            self.put("outage.mc_draw_bytes_per_s", MC_SAMPLES * MC_K * MC_NT * 16 / mc)

    # -- model + cli --------------------------------------------------------------

    def model_layers(self):
        tr = self.tracer
        with self.step("model layers"):
            for inst, _ in self.samples["mmf_siso"]:
                with tr.span("model.validate"):
                    rep = model.validate(inst)
                require(rep.ok, f"sampled instance fails validation: {rep.violations}")
                with tr.span("model.json_roundtrip"):
                    back = model.loads(model.dumps(inst))
                require(np.array_equal(back.Q, inst.Q), "JSON round trip changed Q")
            self.put("model.validate_s", tr.mean("model.validate"))
            self.put("model.json_roundtrip_s", tr.mean("model.json_roundtrip"))

    def cli_layers(self):
        with self.step("cli import"):
            self.put("cli.import_s", self._import_seconds())
        work = self.root / ".bench_out"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            tmp = Path(tmp)
            for name, prepare in (
                ("mmf_siso", self._cli_mmf),
                ("mc_crosscheck", self._cli_mc),
                ("gadget_audit", self._cli_gadget),
            ):
                with self.step(f"cli {name}"):
                    argv, library, check = prepare(tmp)
                    cli_times, overheads = [], []
                    for _ in range(CLI_REPEATS):
                        t0 = time.perf_counter()
                        expected = library()
                        lib_s = time.perf_counter() - t0
                        with self.tracer.span(f"cli.main.{name}"):
                            dt, code, text = _cli_main(argv)
                        check(code, json.loads(text), expected)
                        cli_times.append(dt)
                        overheads.append(dt - lib_s)
                    self.put(f"cli.main_s.{name}", statistics.median(cli_times))
                    self.put(f"cli.overhead_s.{name}", statistics.median(overheads))

    def _import_seconds(self) -> float:
        def spawn(code):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, cwd=self.root, timeout=60)
            return time.perf_counter() - t0

        bare, full = [], []
        for _ in range(IMPORT_PROBES):
            bare.append(spawn("pass"))
            full.append(spawn("import outagebf.cli"))
        return statistics.median(full) - statistics.median(bare)

    def _cli_mmf(self, tmp: Path):
        path = tmp / "siso.json"
        path.write_text(model.dumps(self.samples["mmf_siso"][0][0]))
        inst = model.loads(path.read_text())  # the instance the CLI solves

        def check(code, doc, sol):
            require(code == CLI_OK, f"solve-mmf-siso exit code {code}")
            require(doc["report"]["R"] == sol.R, "CLI and library MMF rates differ")

        argv = ["solve-mmf-siso", str(path), "--delta", repr(MMF_DELTA)]
        return argv, lambda: outagebf.mmf_bisection(inst, delta=MMF_DELTA), check

    def _cli_mc(self, tmp: Path):
        x = self.samples["mc_crosscheck"][0][0]
        inst_path, beams_path = tmp / "miso.json", tmp / "beams.json"
        inst_path.write_text(model.dumps(x.inst))
        beams_path.write_text(model.dumps(x.beams))
        # the CLI reads the decoded (re-symmetrized) instance; time that one too
        inst = model.loads(inst_path.read_text())
        beams = model.loads(beams_path.read_text())

        def library():
            outagebf.outage_lhs_all(inst, beams, x.rates)
            return [
                outagebf.mc_outage(inst, beams, float(x.rates[i]), i, CLI_MC_SAMPLES, x.mc_seed)[0]
                for i in range(inst.K)
            ]

        def check(code, doc, estimates):
            require(code == CLI_OK, f"eval-outage exit code {code}")
            got = [row["estimate"] for row in doc["report"]["mc"]]
            require(got == estimates, "CLI and library Monte-Carlo estimates differ")

        argv = [
            "eval-outage", str(inst_path), str(beams_path),
            "--rates", ",".join(repr(float(r)) for r in x.rates),
            "--samples", str(CLI_MC_SAMPLES), "--seed", str(x.mc_seed),
        ]
        return argv, library, check

    def _cli_gadget(self, tmp: Path):
        cnf = next(data for (kind, data), _ in self.samples["gadget_audit"] if kind == "sat")
        cnf_path, bundle_path, cert_path = tmp / "f.cnf", tmp / "bundle.json", tmp / "cert.json"
        cnf_path.write_text(model.write_cnf_dimacs(cnf))
        _, code, _ = _cli_main(["reduce-3sat", str(cnf_path), "--out", str(bundle_path)])
        require(code == CLI_OK, f"reduce-3sat exit code {code}")
        assignment = next((a for a in SAT_ASSIGNMENTS if cnf.evaluate(a)), SAT_ASSIGNMENTS[0])
        gadget = outagebf.reduce_3sat(cnf)
        cert_path.write_text(model.dumps(outagebf.beamformers_from_assignment(assignment, gadget)))
        beams = model.loads(cert_path.read_text())

        def library():
            g = outagebf.reduce_3sat(cnf)
            rep = outagebf.check_feasibility_certificate(g, beams)
            outagebf.assignment_from_beamformers(beams, g)
            return rep.feasible

        def check(code, doc, feasible):
            require(code == (CLI_OK if feasible else CLI_INFEASIBLE), f"verify-certificate exit code {code}")
            require(doc["report"]["feasible"] == feasible, "CLI and library verdicts differ")

        return ["verify-certificate", str(bundle_path), str(cert_path)], library, check


def _cli_main(argv):
    """In-process ``outagebf`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def run_traced(seed: int, ops: int, root: Path, spans_path: Path) -> dict:
    """Every per-layer metric of ``UNITS``; a metric whose step failed is None."""
    run = LayerRun(seed, ops, root)
    run.sample_workloads()
    for stage in (run.solver_layers, run.gadget_layers, run.outage_layers,
                  run.k_scaling, run.model_layers, run.cli_layers):
        with run.step(stage.__name__):
            stage()
    run.tracer.dump(spans_path)
    return {
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": {
            name: {"value": run.values.get(name), "unit": unit} for name, unit in UNITS.items()
        },
    }
