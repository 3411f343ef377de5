"""The benchmark workloads: seeded inputs, the operation, and its output check.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operation ``j`` of a run draws its
input from its own generator seeded by ``(seed, workload tag, j)``, so a
seed fixes every input whatever the speed of the code under test.

Operations call only public names of ``outagebf`` and resolve them at call
time, so a renamed or broken public function shows up as failed operations
rather than as a crash of the harness.  Each operation takes a ``span``
factory; the timed run passes :func:`no_span`, the traced run a recorder.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import outagebf
from outagebf import oracles, sampling

MMF_K = 8
MMF_DELTA = 1e-5
MC_K, MC_NT = 8, 4
MC_SAMPLES = 100_000
GRAPH_V = 6
SAT_N, SAT_M = 6, 25
LATTICE_STEP = 0.1
LATTICE_POINTS = 937_024  # 11^4 vertex powers x 8^2 edge powers
LHS_SLACK = 1e-9
POWER_SLACK = 1e-12
MC_SIGMAS = 5.0

SAT_ASSIGNMENTS = tuple(itertools.product((0, 1), repeat=SAT_N))

_OFF = contextlib.nullcontext()


def no_span(name: str):
    """Span factory of the timed run: records nothing."""
    return _OFF


class CheckFailed(Exception):
    """An operation returned an output that fails its correctness check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rng_for(seed: int, tag: int, j: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, j])


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_pass: int  # the fixed operation count the tail percentile refers to
    probe: Callable[[Any], str]  # input -> the host-speed kernel doing its kind of work
    make: Callable[[int, int], Any]  # (seed, op index) -> input
    run: Callable[..., Any]  # (input, span) -> output
    check: Callable[[Any, Any], None]  # raises CheckFailed


# ---------------------------------------------------------------------------
# mmf_siso
# ---------------------------------------------------------------------------

def make_mmf(seed: int, j: int):
    return sampling.random_siso_instance(rng_for(seed, 1, j), K=MMF_K)


def run_mmf(inst, span=no_span):
    with span("solvers.mmf_bisection"):
        return outagebf.mmf_bisection(inst, delta=MMF_DELTA)


def check_mmf(inst, sol) -> None:
    ub = outagebf.mmf_upper_bound(inst)
    lhs = outagebf.outage_lhs_all(inst, sol.p, inst.alpha * sol.R)
    require(np.all(lhs <= 1.0 + LHS_SLACK), f"witness LHS {lhs.max():.12g} > 1")
    require(np.all(sol.p <= inst.P + POWER_SLACK), "witness exceeds a power budget")
    expected = math.ceil(math.log2(ub / MMF_DELTA))
    require(sol.iterations == expected, f"{sol.iterations} bisection steps, expected {expected}")
    if sol.R + MMF_DELTA < ub:
        above = outagebf.feasibility_fixed_point(inst, sol.R + MMF_DELTA)
        require(not above.feasible, "R + delta is feasible: bisection stopped short")


# ---------------------------------------------------------------------------
# mc_crosscheck
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McInput:
    inst: Any
    beams: Any
    rates: np.ndarray
    user: int
    mc_seed: int


def tight_rates(inst, beams) -> np.ndarray:
    """R_i = log2(1 + s_i zeta_i): every closed-form constraint holds with equality."""
    w = beams.w
    G = np.einsum("ka,kiab,kb->ki", w.conj(), inst.Qcov, w).real
    R = np.empty(inst.K)
    for i in range(inst.K):
        terms = tuple(max(float(G[k, i]), 0.0) for k in range(inst.K) if k != i)
        ctx = outagebf.ZetaContext(sigma2=float(inst.sigma2[i]), rho=float(inst.rho[i]), terms=terms)
        R[i] = math.log2(1.0 + float(G[i, i]) * outagebf.solve_zeta(ctx))
    return R


def make_mc(seed: int, j: int) -> McInput:
    rng = rng_for(seed, 2, j)
    inst = sampling.random_miso_instance(rng, MC_K, MC_NT)
    beams = sampling.random_beamformers(rng, inst)
    return McInput(
        inst=inst,
        beams=beams,
        rates=tight_rates(inst, beams),
        user=int(rng.integers(MC_K)),
        mc_seed=int(rng.integers(2**62)),
    )


def run_mc(x: McInput, span=no_span):
    with span("outage.outage_lhs_all"):
        lhs = outagebf.outage_lhs_all(x.inst, x.beams, x.rates)
    with span("outage.mc_outage"):
        est, _ = outagebf.mc_outage(
            x.inst, x.beams, float(x.rates[x.user]), x.user, MC_SAMPLES, x.mc_seed
        )
    return lhs, est


def check_mc(x: McInput, out) -> None:
    lhs, est = out
    gap = float(np.max(np.abs(lhs - 1.0)))
    require(gap <= LHS_SLACK, f"closed-form LHS off 1 by {gap:.3g} at tight rates")
    rho = float(x.inst.rho[x.user])
    band = MC_SIGMAS * math.sqrt(rho * (1.0 - rho) / MC_SAMPLES)
    require(abs(est - (1.0 - rho)) <= band, f"MC outage {est} vs exact {1.0 - rho}")


# ---------------------------------------------------------------------------
# gadget_audit: maxcut, sat and lattice ops in equal shares
# ---------------------------------------------------------------------------

GADGET_KINDS = ("maxcut", "sat", "lattice")


def _lattice_gadget():
    return outagebf.reduce_maxcut(outagebf.WeightedGraph(V=2, edges=((1, 2, 1.0),)))


def make_gadget(seed: int, j: int):
    """(kind, input); each block of three ops holds every kind once, seeded order."""
    order = rng_for(seed, 4, j // 3).permutation(len(GADGET_KINDS))
    kind = GADGET_KINDS[int(order[j % 3])]
    rng = rng_for(seed, 3, j)
    if kind == "maxcut":
        return kind, sampling.random_connected_graph(rng, GRAPH_V)
    if kind == "sat":
        return kind, sampling.random_3cnf(rng, SAT_N, SAT_M)
    return kind, _lattice_gadget()  # the same V=2 input every time


def run_maxcut(graph, span=no_span):
    with span("reductions.reduce_maxcut"):
        gadget = outagebf.reduce_maxcut(graph)
    with span("oracles.exhaustive_maxcut"):
        _, w_opt = oracles.exhaustive_maxcut(graph)
    with span("oracles.discrete_srm_search"):
        p_best, value = oracles.discrete_srm_search(gadget)
    return gadget, w_opt, p_best, value


def run_sat(cnf, span=no_span):
    with span("reductions.reduce_3sat"):
        gadget = outagebf.reduce_3sat(cnf)
    feasible = 0
    for a in SAT_ASSIGNMENTS:
        with span("reductions.beamformers_from_assignment"):
            beams = outagebf.beamformers_from_assignment(a, gadget)
        with span("reductions.check_feasibility_certificate"):
            feasible += outagebf.check_feasibility_certificate(gadget, beams).feasible
    return gadget, feasible


def run_lattice(gadget, span=no_span):
    with span("oracles.gadget_grid_objective"):
        grid, objective = oracles.gadget_grid_objective(gadget, LATTICE_STEP)
    with span("oracles.grid_search"):
        best, _ = oracles.grid_search(objective, grid)
    return grid.n_points(), best


def probe_gadget(x) -> str:
    """The lattice scan is vectorized numpy; max-cut and sat run Python loops."""
    return "numpy" if x[0] == "lattice" else "python"


_GADGET_RUN = {"maxcut": run_maxcut, "sat": run_sat, "lattice": run_lattice}


def run_gadget(x, span=no_span):
    kind, data = x
    return _GADGET_RUN[kind](data, span)


def check_gadget(x, out) -> None:
    kind, data = x
    if kind == "maxcut":
        gadget, w_opt, p_best, value = out
        S = outagebf.cut_from_powers(p_best, gadget)
        w = data.cut_weight(S)
        require(abs(w - w_opt) <= 1e-12 * max(1.0, w_opt), f"cut weight {w} != optimum {w_opt}")
        gap = abs(outagebf.srm_value_identity(data, S, gadget) - value)
        require(gap <= 1e-9, f"sum-rate identity off by {gap:.3g}")
    elif kind == "sat":
        _, feasible = out
        satisfying = sum(data.evaluate(a) for a in SAT_ASSIGNMENTS)
        require(feasible == satisfying, f"{feasible} feasible certificates, {satisfying} models")
    else:
        n_points, best = out
        require(n_points == LATTICE_POINTS, f"lattice has {n_points} points")
        outagebf.cut_from_powers(best, data)  # raises unless the argmax is a cut pattern


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mmf_siso", 40, lambda _: "python", make_mmf, run_mmf, check_mmf),
        Workload("mc_crosscheck", 40, lambda _: "numpy", make_mc, run_mc, check_mc),
        Workload("gadget_audit", 42, probe_gadget, make_gadget, run_gadget, check_gadget),
    )
}
