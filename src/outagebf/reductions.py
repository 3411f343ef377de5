"""Polynomial-time reductions from Max-Cut and 3-SAT into power control.

Max-Cut gadget (SISO sum-rate): every vertex i contributes two mutually
interfering users v_i0, v_i1 (budget 1, weight 1), every edge {i, j} two
listen-only users e_ij, e_ji (budget 0.7, weight w_ij / (2 * total weight)).
The edge user e_ij hears interference from v_i0 and v_j1 only.  At the
optimal powers each vertex activates exactly one of its two users, edge users
transmit at full budget, and the weighted sum rate is an affine function of
the cut weight of the activated side with a strictly positive slope — so
maximizing the sum rate solves Max-Cut.

3-SAT gadget (MISO feasibility, Nt = 2): every variable contributes five
users v_n0..v_n4 and every clause one user c_m, all with identity direct
links, unit budget, unit weight, and common rate target 1 at outage floor
rho = 0.9.  The noise levels make v_n0's own constraint bind at full power
and the four coupling matrices A_1..A_4 force v_n0's beam onto one of the two
coordinate axes; the axis encodes the truth value.  The clause user hears
(1/25) of one beam coordinate per literal and tolerates at most two
unsatisfied literals, so the rate profile is feasible iff the formula is
satisfiable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BeamformerSet,
    CnfFormula,
    MisoInstance,
    SisoInstance,
    UserMap,
    WeightedGraph,
)
from .outage import LHS_SLACK, POWER_SLACK, outage_lhs_all
from .zeta import ZetaContext, zeta_root, zeta_upper_bound

__all__ = [
    "CertificateError",
    "MaxCutGadget",
    "reduce_maxcut",
    "powers_from_cut",
    "cut_from_powers",
    "srm_value_identity",
    "SatGadget",
    "reduce_3sat",
    "beamformers_from_assignment",
    "assignment_from_beamformers",
    "CertificateReport",
    "check_feasibility_certificate",
    "gadget_constants",
]

_LN2 = math.log(2.0)

GADGET_SIGMA2 = 0.1
GADGET_RHO = 0.95
EDGE_BUDGET = 0.7
_CUT_TOL = 1e-6  # largest power deviation cut_from_powers still decodes

SAT_RHO = 0.9
SAT_CLAUSE_SIGMA2 = 0.01
SAT_RBAR = 1.0
_BEAM_TOL = 1e-8  # largest beam deviation assignment_from_beamformers still decodes


class CertificateError(ValueError):
    """Raised when a claimed certificate is not in the certificate set."""


@dataclass(frozen=True, eq=False)
class MaxCutGadget:
    """Reduced sum-rate instance plus the constants of its cut identity."""

    instance: SisoInstance
    usermap: UserMap
    graph: WeightedGraph
    total_weight: float
    zeta_solo: float       # zeta of a vertex user whose partner is silent
    zeta_paired: float     # zeta of a vertex user whose partner is at full power
    rate_solo: float       # log2(1 + zeta_solo)
    edge_rates: dict       # (a, b) -> log2(1 + 0.7 * zeta(a, b)), a, b in {0, 1}
    cut_gain: float        # c00 + c11 - c01 - c10 > 0


def reduce_maxcut(graph: WeightedGraph) -> MaxCutGadget:
    """Build the sum-rate gadget for a connected weighted graph."""
    if not graph.is_connected():
        raise ValueError("disconnected graph")
    V, E = graph.V, graph.E
    K = 2 * (V + E)
    W = graph.total_weight()

    roles = []
    for i in range(1, V + 1):
        roles.append(("vertex", i, 0))
        roles.append(("vertex", i, 1))
    for i, j, _ in graph.edges:
        roles.append(("edge", i, j))
        roles.append(("edge", j, i))
    usermap = UserMap(roles=tuple(roles))

    Q = np.zeros((K, K))
    for i in range(1, V + 1):
        for a in (0, 1):
            for b in (0, 1):
                Q[usermap.vertex(i, a), usermap.vertex(i, b)] = 1.0
    for i, j, _ in graph.edges:
        for tail, head in ((i, j), (j, i)):
            e = usermap.edge(tail, head)
            Q[e, e] = 1.0
            Q[usermap.vertex(tail, 0), e] = 1.0
            Q[usermap.vertex(head, 1), e] = 1.0

    P = np.empty(K)
    alpha = np.empty(K)
    for k, role in enumerate(usermap.roles):
        if role[0] == "vertex":
            P[k] = 1.0
            alpha[k] = 1.0
        else:
            P[k] = EDGE_BUDGET
            i, j = role[1], role[2]
            lo, hi = min(i, j), max(i, j)
            w = next(w for a, b, w in graph.edges if (a, b) == (lo, hi))
            alpha[k] = w / (2.0 * W)

    instance = SisoInstance(
        Q=Q,
        sigma2=np.full(K, GADGET_SIGMA2),
        rho=np.full(K, GADGET_RHO),
        P=P,
        alpha=alpha,
    )

    zeta_solo = zeta_root(GADGET_SIGMA2, GADGET_RHO, ())[0]
    zeta_paired = zeta_root(GADGET_SIGMA2, GADGET_RHO, (1.0,))[0]
    edge_rates = {}
    for a in (0, 1):
        for b in (0, 1):
            ze = zeta_root(GADGET_SIGMA2, GADGET_RHO, (a, b))[0]
            edge_rates[(a, b)] = math.log1p(EDGE_BUDGET * ze) / _LN2
    cut_gain = (
        edge_rates[(0, 0)] + edge_rates[(1, 1)] - edge_rates[(0, 1)] - edge_rates[(1, 0)]
    )
    if not cut_gain > 0:
        raise AssertionError("cut-weight coefficient must be strictly positive")
    return MaxCutGadget(
        instance=instance,
        usermap=usermap,
        graph=graph,
        total_weight=W,
        zeta_solo=zeta_solo,
        zeta_paired=zeta_paired,
        rate_solo=math.log1p(zeta_solo) / _LN2,
        edge_rates=edge_rates,
        cut_gain=cut_gain,
    )


def powers_from_cut(S, gadget: MaxCutGadget) -> np.ndarray:
    """Discrete power pattern encoding the cut (S, complement).

    Vertices in S activate their sub-1 user, vertices outside S their sub-0
    user; edge users transmit at full budget 0.7.
    """
    S = set(int(v) for v in S)
    if not S <= set(range(1, gadget.graph.V + 1)):
        raise ValueError("cut contains vertices outside the graph")
    p = np.zeros(gadget.usermap.K)
    for i in range(1, gadget.graph.V + 1):
        p[gadget.usermap.vertex(i, 1 if i in S else 0)] = 1.0
    for i, j, _ in gadget.graph.edges:
        p[gadget.usermap.edge(i, j)] = EDGE_BUDGET
        p[gadget.usermap.edge(j, i)] = EDGE_BUDGET
    return p


def cut_from_powers(p, gadget: MaxCutGadget):
    """Recover the cut from a discrete pattern; rejects anything else."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (gadget.usermap.K,):
        raise ValueError(f"power vector must have shape ({gadget.usermap.K},)")
    S = []
    for i in range(1, gadget.graph.V + 1):
        p0 = p[gadget.usermap.vertex(i, 0)]
        p1 = p[gadget.usermap.vertex(i, 1)]
        if abs(p0 - 1.0) <= _CUT_TOL and abs(p1) <= _CUT_TOL:
            pass
        elif abs(p0) <= _CUT_TOL and abs(p1 - 1.0) <= _CUT_TOL:
            S.append(i)
        else:
            raise CertificateError(
                f"non-certificate power vector: vertex {i} pattern ({p0:.6g}, {p1:.6g})"
            )
    for i, j, _ in gadget.graph.edges:
        for tail, head in ((i, j), (j, i)):
            pe = p[gadget.usermap.edge(tail, head)]
            if abs(pe - EDGE_BUDGET) > _CUT_TOL:
                raise CertificateError(
                    f"non-certificate power vector: edge user e_{tail}{head} power {pe:.6g}"
                )
    return tuple(S)


def srm_value_identity(graph: WeightedGraph, S, gadget: MaxCutGadget) -> float:
    """Closed-form weighted sum rate of the pattern encoding cut S.

    value = V * rate_solo + (c01 + c10)/2 + cut_gain/(2W) * cutweight(S);
    cut edges contribute c00 + c11, uncut edges c01 + c10.
    """
    c = gadget.edge_rates
    base = graph.V * gadget.rate_solo
    if graph.E == 0:
        return base
    return (
        base
        + 0.5 * (c[(0, 1)] + c[(1, 0)])
        + gadget.cut_gain / (2.0 * gadget.total_weight) * graph.cut_weight(S)
    )


# ---------------------------------------------------------------------------
# 3-SAT feasibility gadget
# ---------------------------------------------------------------------------

def _coupling_matrices():
    return (
        np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.complex128),
        np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.complex128),
        np.array([[1.0, 1.0j], [-1.0j, 1.0]], dtype=np.complex128),
        np.array([[1.0, -1.0j], [1.0j, 1.0]], dtype=np.complex128),
    )


@dataclass(frozen=True, eq=False)
class SatGadget:
    """Reduced feasibility instance: common rate target ``rbar`` for all users."""

    instance: MisoInstance
    usermap: UserMap
    cnf: CnfFormula
    rbar: float


def reduce_3sat(cnf: CnfFormula) -> SatGadget:
    """Build the MISO feasibility gadget of a 3-CNF formula."""
    N, M = cnf.N, cnf.M
    K = 5 * N + M
    A = _coupling_matrices()

    roles = []
    for n in range(1, N + 1):
        for l in range(5):
            roles.append(("vertex", n, l))
    for m in range(1, M + 1):
        roles.append(("clause", m))
    usermap = UserMap(roles=tuple(roles))

    sigma2 = np.empty(K)
    s2_anchor = math.log(1.0 / SAT_RHO)
    s2_forcing = math.log((10.0 / 11.0) / SAT_RHO)
    Qcov = np.zeros((K, K, 2, 2), dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)
    for k, role in enumerate(usermap.roles):
        Qcov[k, k] = eye
        if role[0] == "vertex":
            sigma2[k] = s2_anchor if role[2] == 0 else s2_forcing
        else:
            sigma2[k] = SAT_CLAUSE_SIGMA2

    for n in range(1, N + 1):
        u0 = usermap.vertex(n, 0)
        for l in range(1, 5):
            Qcov[u0, usermap.vertex(n, l)] = A[l - 1] / 10.0
    for m, clause in enumerate(cnf.clauses, start=1):
        cm = usermap.clause(m)
        for lit in clause:
            u0 = usermap.vertex(abs(lit), 0)
            picked = np.diag([0.0, 1.0]) if lit > 0 else np.diag([1.0, 0.0])
            Qcov[u0, cm] = picked.astype(np.complex128) / 25.0

    instance = MisoInstance(
        Qcov=Qcov,
        sigma2=sigma2,
        rho=np.full(K, SAT_RHO),
        P=np.ones(K),
        alpha=np.ones(K),
    )
    return SatGadget(instance=instance, usermap=usermap, cnf=cnf, rbar=SAT_RBAR)


def beamformers_from_assignment(assignment, gadget: SatGadget) -> BeamformerSet:
    """Canonical certificate of a 0/1 assignment.

    Variable beams ride the first axis for true, the second for false; every
    other user transmits [1, 0].  All beams have unit power (budgets bind).
    """
    assignment = tuple(int(a) for a in assignment)
    if len(assignment) != gadget.cnf.N or any(a not in (0, 1) for a in assignment):
        raise ValueError("assignment must be 0/1 of length N")
    w = np.zeros((gadget.usermap.K, 2), dtype=np.complex128)
    w[:, 0] = 1.0
    for n, a in enumerate(assignment, start=1):
        if a == 0:
            u0 = gadget.usermap.vertex(n, 0)
            w[u0] = (0.0, 1.0)
    return BeamformerSet(w=w)


def assignment_from_beamformers(beams: BeamformerSet, gadget: SatGadget):
    """Decode an assignment from axis-aligned variable beams.

    Accepts any unit-modulus phase on either axis; anything off-axis (or off
    unit norm beyond _BEAM_TOL) is not a certificate.
    """
    if beams.w.shape != (gadget.usermap.K, 2):
        raise ValueError(f"beamformer set must have shape ({gadget.usermap.K}, 2)")
    out = []
    for n in range(1, gadget.cnf.N + 1):
        w = beams.w[gadget.usermap.vertex(n, 0)]
        a0, a1 = abs(w[0]), abs(w[1])
        if a1 <= _BEAM_TOL and abs(a0 - 1.0) <= _BEAM_TOL:
            out.append(1)
        elif a0 <= _BEAM_TOL and abs(a1 - 1.0) <= _BEAM_TOL:
            out.append(0)
        else:
            raise CertificateError(
                f"non-certificate beamformer for variable {n}: |w| = ({a0:.6g}, {a1:.6g})"
            )
    return tuple(out)


@dataclass
class CertificateReport:
    """Constraint-by-constraint audit of a beamformer certificate."""

    feasible: bool
    lhs: np.ndarray
    powers: np.ndarray
    max_constraint_violation: float
    max_power_violation: float


def check_feasibility_certificate(gadget: SatGadget, beams: BeamformerSet) -> CertificateReport:
    """Evaluate every outage constraint at the common target rate plus budgets.

    Feasible iff every closed-form LHS is <= 1 + LHS_SLACK and every transmit
    power is within its budget + POWER_SLACK.
    """
    inst = gadget.instance
    targets = inst.alpha * gadget.rbar
    lhs = outage_lhs_all(inst, beams, targets)
    powers = beams.powers()
    viol = float(np.max(lhs - 1.0))
    pviol = float(np.max(powers - inst.P))
    return CertificateReport(
        feasible=bool(viol <= LHS_SLACK and pviol <= POWER_SLACK),
        lhs=lhs,
        powers=powers,
        max_constraint_violation=viol,
        max_power_violation=pviol,
    )


def gadget_constants() -> dict:
    """Recompute the hard-coded gadget reference constants.

    Returns name -> (computed, reference); every computed value must sit
    within 5e-4 of its 4-digit reference.
    """
    g = reduce_maxcut(WeightedGraph(V=2, edges=((1, 2, 1.0),)))
    zbar = zeta_upper_bound(ZetaContext(sigma2=GADGET_SIGMA2, rho=GADGET_RHO, terms=(1.0,)))
    s2 = GADGET_SIGMA2
    lr = math.log(1.0 / GADGET_RHO)
    rate_paired = math.log1p(g.zeta_paired) / _LN2
    return {
        "vertex_rate_solo": (g.rate_solo, 0.5973),
        "vertex_rate_paired": (rate_paired, 0.0671),
        "edge_rate_quiet": (g.edge_rates[(0, 0)], 0.4426),
        "double_activation_penalty": (g.rate_solo - 2.0 * rate_paired, 0.4631),
        "paired_product_bound": (lr * (1.0 + zbar), 0.0537),
        "edge_slope_bound": (
            (lr / s2) * ((1.0 + zbar) * (1.0 + s2 * (1.0 + zbar)) + zbar),
            0.6181,
        ),
    }
