"""Power-control solvers for the single-antenna outage-constrained channel.

The closed-form outage constraint of user i at rate R,

    rho_i exp(c sigma2_i / (Q_ii p_i)) prod_{k!=i}(1 + c Q_ki p_k / (Q_ii p_i)) <= 1,
    c = 2^R - 1,

is strictly decreasing in p_i and strictly increasing in every interferer
power, so the componentwise minimal-power response is a standard interference
function.  Iterating it from p = 0 yields monotone nondecreasing iterates that
converge to the minimal feasible point whenever one exists, which gives a
polynomial-time feasibility test and, via bisection on the common rate, the
max-min-fair solution.

Each Jacobi sweep solves the zeta of every targeted user in one
``zeta.zeta_roots`` call on the cross-gain columns Q_ki p_k (built once per
test), warm-started from the previous sweep's zetas: any start is valid for
that kernel.  The public ``feasibility_fixed_point`` decides by these sweeps
alone, from p = 0, until a sweep moves no power by more than 1e-12 (feasible)
or one exceeds its budget (infeasible).

The bisections (``mmf_bisection``, ``outage_balancing_siso``) decide each
midpoint with a Newton sandwich on the two certificates of Yates (IEEE JSAC
1995) for a standard interference function I:

- every Jacobi iterate climbing from a subsolution (p <= I(p)) stays below
  each fixed point, so one that climbs past the budget proves infeasibility;
- any q with I(q) <= q <= P proves feasibility: the iterates from q descend
  to a fixed point below q.

After each sweep from the subsolution x that neither converges nor leaves
the budget, one Newton step on p = I(p), (Id - J)(q - x) = I(x) - x, gives a
candidate q from the zetas the sweep returned.  One more response checks it:
0 <= q <= P + POWER_SLACK and I(q) <= q (1 + _SWEEP_TOL), the margin covering
the rounding of I (a fixed point computed in floats satisfies I(q) = q only to
a few ulps).  With that margin a checked q keeps every constraint at
LHS_i(q) <= exp(1e-12 |log rho_i|), below 1 + 7.5e-10 for every float rho_i
and so inside LHS_SLACK.  A checked q is polished by Newton steps from
above, each checked the same way, until max(q - I(q)) <= _SWEEP_TOL; the
last one is the witness.  A candidate that fails a check, or a polish that
does not converge in _POLISH_CAP steps, is discarded and the sweeps go on,
so no verdict rests on the shape of I (on sampled instances every candidate
within budget was a supersolution).  The witness takes the same closed-form
recheck (LHS <= 1 + LHS_SLACK, p <= P + POWER_SLACK) as a Jacobi witness.

Both bisections run one driver, ``_bisect``.  It starts each midpoint from
the last Jacobi iterate of the last feasible midpoint, a subsolution below
the fixed point of every harder midpoint (the response grows with the rate
and with rho), so the iterates still climb and the verdict is the cold one;
the witness from above is returned, never used as a start.  A test cut off
by the sweep cap has no verdict and raises ArithmeticError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import SisoInstance, validate
from .outage import LHS_SLACK, POWER_SLACK, _check_user, outage_lhs_all
from .reductions import EDGE_BUDGET, GADGET_RHO, GADGET_SIGMA2
from .zeta import _dzeta_dp, zeta_root, zeta_roots

__all__ = [
    "srm_rates_from_powers",
    "min_power_response",
    "FeasibilityResult",
    "feasibility_fixed_point",
    "MmfSolution",
    "mmf_bisection",
    "mmf_upper_bound",
    "mmf_modulus_bound",
    "outage_balancing_siso",
    "VertexSliceContext",
    "single_user_objective_F",
    "single_user_objective_f",
]

_LN2 = math.log(2.0)
_SWEEP_CAP = 10_000
_SWEEP_TOL = 1e-12
_POLISH_CAP = 8
_RATE_BLOCK = 1 << 14  # lane entries per rate block; 2^16 (512 KiB arrays) page-faulted every call


def _check(instance: SisoInstance) -> None:
    """Entry check of the public SISO solvers: reject what model.validate rejects."""
    rep = validate(instance)
    if not rep.ok:
        raise ValueError("invalid instance: " + "; ".join(rep.violations))


class _Lanes(NamedTuple):
    """Receivers ``users`` of an instance as zeta lanes, built once per call."""

    users: np.ndarray
    sigma2: np.ndarray
    rho: np.ndarray
    direct: np.ndarray  # Q_ii
    cross: np.ndarray  # Q[:, users] with each user's own link zeroed


def _lanes(instance: SisoInstance, users) -> _Lanes:
    users = np.asarray(users, dtype=np.intp)
    cross = instance.Q[:, users]
    cross[users, np.arange(users.size)] = 0.0
    return _Lanes(
        users, instance.sigma2[users], instance.rho[users], instance.Q[users, users], cross
    )


def _response(lanes: _Lanes, c, p: np.ndarray, z0=None):
    """Minimal own powers c_i / (Q_ii zeta_i) meeting SINR thresholds c_i = 2^R_i - 1.

    zeta_i is taken at the interference Q_ki p_k the other users cause.
    Returns the powers and the zetas, which warm-start the next sweep.
    """
    z = zeta_roots(lanes.sigma2, lanes.rho, lanes.cross * p[:, None], z0)
    return c / (lanes.direct * z), z


def srm_rates_from_powers(instance: SisoInstance, p) -> np.ndarray:
    """Largest outage-feasible rate of every user at the given powers.

    R_i = log2(1 + zeta_i * Q_ii * p_i), where zeta_i solves the implicit
    interference equation at user i's received interference; plugging R_i back
    into the closed-form constraint gives equality.  p_i = 0 yields R_i = 0.

    ``p`` is one power vector (K,) or a batch (n, K).  Each transmitting
    (row, user) pair is one ``zeta_roots`` lane, in row blocks of about
    _RATE_BLOCK lane entries; lanes stop and sum on their own, so every row
    equals the call on that row alone, bit for bit.

    Equality holds to rounding only while R_i is a normal float, above about
    2.2e-308 (powers of order 1e-307 and up).  A smaller, subnormal R_i has
    fewer than 53 significant bits, and the constraint at it is tight only to
    about 2^-1074 / R_i (1e-11 near R_i = 5e-313); a rate that underflows to
    0 leaves the constraint at LHS_i = rho_i.
    """
    K = instance.K
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[-1] != K:
        raise ValueError(f"powers must have shape ({K},) or (n, {K}), got {p.shape}")
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    P = p.reshape(-1, K)
    R = np.zeros(P.shape)
    rows = max(1, _RATE_BLOCK // K**2)
    for m0 in range(0, len(P), rows):
        B = P[m0 : m0 + rows]
        m, on = np.nonzero(B > 0)
        lanes = _lanes(instance, on)
        z = zeta_roots(lanes.sigma2, lanes.rho, lanes.cross * B[m].T)
        R[m0 + m, on] = np.log1p(z * lanes.direct * B[m, on]) / _LN2
    return R.reshape(p.shape)


def min_power_response(instance: SisoInstance, i: int, p_others, R_target: float) -> float:
    """Smallest own power satisfying user i's constraint at rate ``R_target``.

    Monotone inversion of the closed-form constraint in p_i: with c = 2^R - 1
    the root is c / (Q_ii * zeta_i), zeta_i evaluated at the fixed interferer
    powers (entry i of ``p_others`` is ignored).  R_target = 0 needs no power.
    """
    _check_user(instance.K, i)
    p = np.asarray(p_others, dtype=np.float64)
    if p.shape != (instance.K,):
        raise ValueError(f"p_others must have shape ({instance.K},)")
    if R_target < 0:
        raise ValueError("R_target must be nonnegative")
    if R_target == 0.0:
        return 0.0
    c = math.expm1(R_target * _LN2)
    return float(_response(_lanes(instance, [i]), c, p)[0][0])


@dataclass
class FeasibilityResult:
    """Outcome of a fixed-point feasibility test.

    ``residual`` is the worst constraint violation max_i max(0, LHS_i - 1) at
    the returned point; for an infeasible verdict ``p`` is the last iterate,
    kept as a diagnostic.  ``reason`` says why the sweeps stopped:
    "converged" (the only feasible outcome), "over_budget" (a response
    exceeded its power budget), "sweep_cap" (no fixed point within the sweep
    cap, so no verdict) or "residual" (converged, but the witness fails the
    closed-form recheck).
    """

    status: str  # "feasible" | "infeasible"
    p: np.ndarray
    iterations: int
    residual: float
    reason: str
    trace: tuple | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _newton_step(lanes: _Lanes, x: np.ndarray, Ix: np.ndarray, z: np.ndarray):
    """Newton step on p = I(p) from x, given I(x) and zeta(x) on the lanes.

    Solves (Id - J) d = I(x) - x with J_ik = I_i Q_ki / ((1 + t_k zeta_i) D_i),
    t_k = Q_ki x_k and D_i = sigma2_i + sum_k t_k / (1 + t_k zeta_i), the slope
    of log psi_i at zeta_i.  Returns x + d, zero off the lanes; raises
    LinAlgError when Id - J is singular.
    """
    u = lanes.users
    A = lanes.cross / (1.0 + lanes.cross * x[:, None] * z)  # Q_ki / (1 + t_k zeta_i)
    D = lanes.sigma2 + x @ A
    J = (Ix / D)[:, None] * A[u].T
    q = np.zeros(x.size)
    q[u] = x[u] + np.linalg.solve(np.eye(u.size) - J, Ix - x[u])
    return q


def _probe(lanes: _Lanes, c, budget_on, x, Ix, z):
    """Polished supersolution from a Newton step at x, or None to keep sweeping.

    Each Newton point q is checked with one response: 0 <= q <= budget and
    I(q) <= q (1 + _SWEEP_TOL).  The first step climbs from the subsolution x;
    later ones polish downwards from the last checked point until
    max(q - I(q)) <= _SWEEP_TOL.  A failed check, a singular system or
    _POLISH_CAP steps without convergence give None.
    """
    for _ in range(_POLISH_CAP):
        try:
            q = _newton_step(lanes, x, Ix, z)
        except np.linalg.LinAlgError:
            return None
        q_on = q[lanes.users]
        if not np.all((q_on >= 0.0) & (q_on <= budget_on)):
            return None
        Ix, z = _response(lanes, c, q, z)
        if not np.all(Ix <= q_on * (1.0 + _SWEEP_TOL)):
            return None
        if float((q_on - Ix).max()) <= _SWEEP_TOL:
            return q
        x = q
    return None


def _feasible_at_targets(
    instance: SisoInstance,
    targets,
    start=None,
    keep_trace: bool = False,
    sandwich: bool = False,
):
    """Fixed point of the minimal-power response at per-user rate targets.

    Jacobi sweeps from p = 0, or from ``start = (p, zetas)`` of an earlier
    test with the same users targeted.  Each sweep solves the zeta of every
    user with a positive target in one zeta_roots call, warm-started from the
    previous sweep's zetas.  With ``sandwich`` every sweep that neither
    converges nor leaves the budget is followed by a ``_probe``, whose
    supersolution ends the test as its witness; without cross coupling the
    response is constant, the first sweep is the fixed point and no probe
    runs.  Returns the result and the last Jacobi iterate with its sweep's
    zetas, the warm start of a harder test.
    """
    budget = instance.P + POWER_SLACK
    c = np.array([math.expm1(t * _LN2) for t in targets])
    on = np.flatnonzero(c)
    lanes, c = _lanes(instance, on), c[on]
    sandwich = sandwich and np.count_nonzero(lanes.cross) > 0
    p, z = (np.zeros(instance.K), None) if start is None else start
    trace = [tuple(p.tolist())] if keep_trace else None
    witness = None
    reason = "sweep_cap"
    it = 0
    for it in range(1, _SWEEP_CAP + 1):
        x, p = p, np.zeros(instance.K)
        p[on], z = _response(lanes, c, x, z)
        if keep_trace:
            trace.append(tuple(p.tolist()))
        if np.count_nonzero(p > budget):
            reason = "over_budget"
            break
        if float(abs(p - x).max()) <= _SWEEP_TOL:
            reason = "converged"
            break
        if sandwich:
            witness = _probe(lanes, c, budget[on], x, p[on], z)
            if witness is not None:
                reason = "converged"
                break
    w = p if witness is None else witness
    lhs = outage_lhs_all(instance, w, np.where(w > 0, targets, 0.0))
    residual = max(0.0, float(np.max(lhs)) - 1.0)
    if reason == "converged" and not (
        residual <= LHS_SLACK and bool(np.all(w <= budget))
    ):
        reason = "residual"
    return FeasibilityResult(
        status="feasible" if reason == "converged" else "infeasible",
        p=w,
        iterations=it,
        residual=residual,
        reason=reason,
        trace=tuple(trace) if keep_trace else None,
    ), (p, z)


def _bisect(name: str, lo: float, hi: float, tol: float, problem):
    """Bisect [lo, hi] until it is narrower than ``tol``, keeping lo feasible.

    ``problem(mid)`` gives the (instance, targets) of a midpoint's test: a
    Newton sandwich warm-started from the last Jacobi iterate of the last
    feasible midpoint.  Returns lo with its witness (None if no midpoint was
    feasible), the bracket after every step from the first, and every
    (mid, verdict).  A sweep-capped test, named by ``name = mid``, raises
    ArithmeticError.
    """
    p, start = None, None
    trace, tested = [(lo, hi)], []
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        res, sub = _feasible_at_targets(*problem(mid), start, sandwich=True)
        if res.reason == "sweep_cap":
            raise ArithmeticError(
                f"feasibility test at {name} = {mid!r}: no fixed point within {_SWEEP_CAP} sweeps"
            )
        tested.append((mid, res.feasible))
        if res.feasible:
            lo, p, start = mid, res.p, sub
        else:
            hi = mid
        trace.append((lo, hi))
    return lo, p, tuple(trace), tuple(tested)


def feasibility_fixed_point(
    instance: SisoInstance, R_bar: float, keep_trace: bool = False
) -> FeasibilityResult:
    """Decide whether the common weighted rate ``R_bar`` is supportable.

    Tests per-user targets alpha_i * R_bar by iterating the minimal-power
    response from p = 0 (Jacobi sweeps, sup-norm tolerance 1e-12, at most
    10,000 sweeps, early exit once a response exceeds its budget).  The final
    verdict re-checks the witness against the closed-form constraints
    (LHS <= 1 + 1e-9, p <= P + 1e-12); ``reason`` on the result says why the
    sweeps stopped.
    """
    _check(instance)
    if R_bar < 0:
        raise ValueError("R_bar must be nonnegative")
    targets = instance.alpha * R_bar
    return _feasible_at_targets(instance, targets, keep_trace=keep_trace)[0]


def mmf_upper_bound(instance: SisoInstance) -> float:
    """Interference-free cap on the max-min weighted rate.

    Dropping all interference, user i at full power supports at most
    log2(1 + P_i Q_ii log(1/rho_i) / sigma2_i); the bound is the weighted min
    over users and is tight when the instance has no cross coupling.
    """
    d = instance.Q.diagonal()
    vals = np.log1p(instance.P * d * np.log(1.0 / instance.rho) / instance.sigma2)
    return float((vals / _LN2 / instance.alpha).min())


@dataclass
class MmfSolution:
    """Max-min-fairness bisection output.

    ``trace`` records (lower, upper) after every iteration starting from the
    initial bracket; ``tested`` records each midpoint with its feasibility
    verdict; ``binding_users`` lists every index attaining min_i R_i/alpha_i
    at the witness (ties within 1e-9 included).
    """

    R: float
    p: np.ndarray
    trace: tuple
    tested: tuple
    iterations: int
    binding_users: tuple


def mmf_bisection(instance: SisoInstance, delta: float) -> MmfSolution:
    """Bisection on the common weighted rate, accurate to within ``delta``.

    Brackets [0, mmf_upper_bound] and halves until the bracket is narrower
    than delta; the returned rate is the last feasible lower end with its
    fixed-point witness.  The iteration count equals ceil(log2(upper/delta))
    whenever upper/delta is not an exact power of two.  Midpoints are
    decided by the bisection driver of the module docstring; a test cut off
    by the sweep cap raises ArithmeticError instead of counting as infeasible.
    """
    _check(instance)
    if not delta > 0:
        raise ValueError("delta must be positive")
    R, p, trace, tested = _bisect(
        "R", 0.0, mmf_upper_bound(instance), delta, lambda R: (instance, instance.alpha * R)
    )
    p = np.zeros(instance.K) if p is None else p
    weighted = srm_rates_from_powers(instance, p) / instance.alpha
    mn = float(np.min(weighted))
    binding = np.flatnonzero(weighted <= mn + 1e-9 * max(1.0, abs(mn)))
    return MmfSolution(
        R=R,
        p=p,
        trace=trace,
        tested=tested,
        iterations=len(tested),
        binding_users=tuple(binding.tolist()),
    )


def mmf_modulus_bound(instance: SisoInstance, step: float) -> float:
    """Bound on how far the min weighted rate can move across half a grid cell.

    Uses sup bounds on the rate gradients: zeta_i <= log(1/rho_i)/sigma2_i,
    |dzeta_i/dp_k| <= Q_ki zeta_i / sigma2_i, so the min weighted rate is
    Lipschitz with constant max_i L_i/alpha_i in the sup norm, where
    L_i = (Q_ii/ln2) zeta_max_i (1 + P_i/sigma2_i * sum_{k!=i} Q_ki).
    Returned value is (step/2) times that constant.
    """
    sigma2, d = instance.sigma2, instance.Q.diagonal()
    cross = instance.Q.sum(axis=0, where=~np.eye(instance.K, dtype=bool))
    zmax = np.log(1.0 / instance.rho) / sigma2
    L = d / _LN2 * zmax * (1.0 + instance.P / sigma2 * cross)
    return 0.5 * step * float((L / instance.alpha).max())


def outage_balancing_siso(instance: SisoInstance, R_targets, tol: float = 1e-6):
    """Largest common secure-probability floor supporting fixed rate targets.

    Bisects the shared rho over (0, 1): the constraint LHS scales linearly in
    rho, so feasibility at fixed targets is monotone decreasing in rho.
    Returns (rho_star, witness powers); raises if even the smallest tested
    rho is infeasible ("targets unachievable").  Midpoints are decided as in
    :func:`mmf_bisection`, and a sweep-capped test raises ArithmeticError.
    """
    _check(instance)
    if not tol > 0:
        raise ValueError("tol must be positive")
    R_targets = np.asarray(R_targets, dtype=np.float64)
    if R_targets.shape != (instance.K,):
        raise ValueError(f"R_targets must have shape ({instance.K},)")
    if np.any(R_targets < 0):
        raise ValueError("rate targets must be nonnegative")
    rho, p, _, _ = _bisect(
        "rho",
        0.0,
        1.0,
        tol,
        lambda rho: (dataclasses.replace(instance, rho=np.full(instance.K, rho)), R_targets),
    )
    if p is None:
        raise ValueError("targets unachievable")
    return rho, p


# ---------------------------------------------------------------------------
# Single-coordinate slice of the gadget sum-rate objective
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _zeta1(t: float) -> float:
    return zeta_root(GADGET_SIGMA2, GADGET_RHO, (t,))[0]


@dataclass(frozen=True)
class VertexSliceContext:
    """Environment of one vertex user's power coordinate in the cut gadget.

    ``partner_power`` is the other user on the same vertex; ``neighbors``
    holds one (partner_power_of_neighbor, edge_weight_alpha) pair per incident
    edge user.  Noise, outage floor and edge power are the gadget's
    GADGET_SIGMA2, GADGET_RHO and EDGE_BUDGET.
    """

    partner_power: float
    neighbors: tuple = ()


def single_user_objective_F(p: float, ctx: VertexSliceContext) -> float:
    """Weighted rate contribution of one vertex user's power, all else fixed.

    F(p) = log2(1 + p zeta(partner)) + log2(1 + partner zeta(p))
           + sum_j alpha_j log2(1 + EDGE_BUDGET zeta(p, q_j)).
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    q = ctx.partner_power
    F = math.log1p(p * _zeta1(q)) / _LN2 + math.log1p(q * _zeta1(p)) / _LN2
    for qj, alpha in ctx.neighbors:
        ze = zeta_root(GADGET_SIGMA2, GADGET_RHO, (p, qj))[0]
        F += alpha * math.log1p(EDGE_BUDGET * ze) / _LN2
    return F


def single_user_objective_f(p: float, ctx: VertexSliceContext) -> float:
    """Derivative dF/dp via the implicit-function form of dzeta/dp.

    f * ln 2 = zeta(q)/(1 + p zeta(q)) + q zeta'(p)/(1 + q zeta(p))
               + sum_j alpha_j c d_p zeta(p, q_j) / (1 + c zeta(p, q_j)),
    c = EDGE_BUDGET.  F has at most one stationary point on p >= 0: the sign
    of f makes at most one minus-to-plus transition.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    q = ctx.partner_power
    zp, zv = _zeta1(q), _zeta1(p)
    val = zp / (1.0 + p * zp) + q * _dzeta_dp(GADGET_SIGMA2, zv, p) / (1.0 + q * zv)
    for qj, alpha in ctx.neighbors:
        ze = zeta_root(GADGET_SIGMA2, GADGET_RHO, (p, qj))[0]
        dze = _dzeta_dp(GADGET_SIGMA2, ze, p, qj)
        val += alpha * EDGE_BUDGET * dze / (1.0 + EDGE_BUDGET * ze)
    return val / _LN2
