"""Implicit interference functions.

For a receiver with noise power ``sigma2``, outage floor ``rho`` and received
interference powers ``terms = (t_1, ..., t_n)``, define

    psi(x) = rho * exp(sigma2 * x) * prod_k (1 + t_k * x).

psi is continuous and strictly increasing on [0, inf) with psi(0) = rho < 1,
so psi(x) = 1 has a unique positive root ``zeta``.  The closed-form outage
constraint of a user then holds at rate R iff (2^R - 1) / (signal power) <=
zeta, which turns every outage-constrained rate into the explicit form
log2(1 + zeta * signal).  The root is the SINR-threshold-per-signal-power the
user can support at its outage target.

``zeta_upper_bound`` replaces exp and the product by their tangent
minorants, giving the positive root of a quadratic that always dominates
zeta; it appears in the gadget rate bounds.  The root itself comes from
Newton's method on log(psi), which is increasing and concave, so Newton
started at x = 0 climbs to the root without overshooting and needs no
bracket.

Two kernels run that iteration.  ``zeta_roots`` solves many receivers at
once, one lane per column of a term matrix, and may be warm-started: it
serves the Jacobi sweeps of the power-control fixed point, the rate profile
``srm_rates_from_powers`` and the lattice tables of the gadget scan.
``zeta_root`` solves one receiver in plain Python floats and serves every
caller that needs a single root (``solve_zeta``, the derivatives, the vertex
slice, ``reduce_maxcut`` and the CLI ``zeta`` command).  Both stay because a
numpy call pays a fixed cost per array operation, about 20 operations per
Newton step whatever the lane count: one lane with two terms costs about
90 us through the numpy iteration against 7 us in the scalar loop (on a
2-vCPU VM), and routing every root through the lanes kernel took the
derivative sign-pattern acceptance test from 1.9 s to 15.3 s and the whole
test suite from 30 s to 48 s.  The same fixed cost makes MMF solves of one
to three users slower than with the scalar sweeps this kernel replaced,
about 0.3, 0.6 and 0.9 times as fast; from four users up, where the Newton
sandwich of ``solvers`` saves more sweeps than it adds numpy calls, they
run faster (see ROADMAP.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZetaContext",
    "psi",
    "solve_zeta",
    "zeta_root",
    "zeta_roots",
    "zeta_upper_bound",
    "dzeta_v_dp",
    "dzeta_e_dp",
]

_DEFAULT_TOL = 1e-12
_MAX_STEPS = 200


@dataclass(frozen=True)
class ZetaContext:
    """Receiver-side context: noise power, outage floor, interference powers."""

    sigma2: float
    rho: float
    terms: tuple = ()

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 = {self.sigma2} must be > 0")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho = {self.rho} must lie in (0, 1)")
        terms = tuple(float(t) for t in self.terms)
        if any(t < 0 or not math.isfinite(t) for t in terms):
            raise ValueError("interference terms must be finite and nonnegative")
        object.__setattr__(self, "terms", terms)


def psi(x: float, ctx: ZetaContext) -> float:
    """Evaluate psi(x); exact at x = 0 (returns rho), overflow-safe otherwise."""
    if x < 0:
        raise ValueError("psi is defined on x >= 0")
    return ctx.rho * math.exp(
        ctx.sigma2 * x + sum(math.log1p(t * x) for t in ctx.terms)
    )


def zeta_upper_bound(ctx: ZetaContext) -> float:
    """Quadratic upper bound on the psi-root.

    Uses the aggregate interference sum(terms) as a single pseudo-interferer:
    since exp(s*x) >= 1 + s*x and prod(1 + t_k x) >= 1 + sum(t_k) x, the root
    of rho*(1 + sigma2*x)*(1 + sum(t) x) = 1 dominates zeta.  For an empty
    context this degenerates to the linear root (1/rho - 1)/sigma2.
    """
    sigma2, aggregate = ctx.sigma2, math.fsum(ctx.terms)
    c = 1.0 - 1.0 / ctx.rho  # < 0
    if aggregate == 0.0:
        return -c / sigma2
    a = sigma2 * aggregate
    b = sigma2 + aggregate
    # cancellation-free form of (-b + sqrt(b^2 - 4ac)) / (2a)
    return 2.0 * c / (-b - math.sqrt(b * b - 4.0 * a * c))


def zeta_root(sigma2: float, rho: float, terms, tol: float = _DEFAULT_TOL):
    """Monotone Newton root of log(psi); returns (root, residual, iters).

    The single-receiver kernel (:func:`zeta_roots` is its many-lane twin).
    Zero terms are dropped, so callers pass raw interference powers.  No
    input is validated; :func:`solve_zeta` is the checked entry point.

    log(psi) is increasing and concave with log(psi(0)) = log(rho) < 0, so
    Newton started at x = 0 never overshoots: every iterate lies at or below
    the root and they climb towards it.  The iteration stops when a step no
    longer increases x, or right after a step of at most ``tol * x``; by
    concavity such a step bounds the relative error of x by ``tol`` before it
    is taken, and quadratic convergence leaves far less after.  Raises
    ArithmeticError when the root is not a positive finite float or 200 steps
    do not reach it.
    """
    terms = [t for t in terms if t > 0.0]
    log_rho = math.log(rho)
    if not terms:
        x = -log_rho / sigma2
        fx, it = log_rho + sigma2 * x, 0
    else:
        x, fx = 0.0, log_rho
        for it in range(1, _MAX_STEPS + 1):
            x_new = x - fx / (sigma2 + sum(t / (1.0 + t * x) for t in terms))
            if not x_new > x:
                break
            step, x = x_new - x, x_new
            fx = log_rho + sigma2 * x + sum(math.log1p(t * x) for t in terms)
            if step <= tol * x:
                break
        else:
            raise ArithmeticError(f"zeta: no convergence in {_MAX_STEPS} Newton steps (x = {x!r})")
    if not 0.0 < x < math.inf:
        raise ArithmeticError(f"zeta: root {x!r} is not a positive finite float")
    return x, fx, it


def zeta_roots(sigma2, rho, T, x0=None) -> np.ndarray:
    """Roots of many receivers at once: lane j has the terms in column j of T.

    ``sigma2`` and ``rho`` are scalars or one value per lane; ``T`` is an
    (m, n) array of nonnegative interference powers, zeros allowed.  Each
    lane runs the iteration of :func:`zeta_root`, with its stop rule, step
    cap and errors; numpy's log1p and sums may differ from the scalar
    kernel's in the last bit, so the roots agree with zeta_root's within a
    few ulps (tested to 2e-15 relative).  A lane with no positive term gets
    the closed form -log(rho)/sigma2, equal to zeta_root's bit for bit.

    ``x0`` (one value >= 0 per lane) warm-starts the iteration.  Where
    log(psi(x0)) <= 0, x0 is at or below the root and Newton climbs from it;
    elsewhere one Newton step, clamped at 0, lands at or below the root,
    because a concave function lies under its tangent at x0.
    """
    T = np.asarray(T, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    # math.log, not np.log: the closed form must equal zeta_root's bit for bit
    if np.ndim(rho) == 0:
        log_rho = math.log(rho)
    else:
        log_rho = np.array(list(map(math.log, np.asarray(rho).tolist())))

    def log_psi(x, TX):
        return log_rho + sigma2 * x + np.log1p(TX).sum(axis=0)

    def newton(x, fx, TX):
        return x - fx / (sigma2 + (T / (1.0 + TX)).sum(axis=0))

    # np.count_nonzero tests the lane masks: ndarray.any costs three times more
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        live = (T > 0.0).any(axis=0)
        x = np.where(live, 0.0 if x0 is None else x0, -log_rho / sigma2)
        TX = T * x
        if x0 is None:
            fx = log_rho
        else:
            fx = log_psi(x, TX)
            down = live & (fx > 0.0)  # warm starts above their root
            if np.count_nonzero(down):
                np.copyto(x, np.fmax(newton(x, fx, TX), 0.0), where=down)
                TX = T * x
                fx = log_psi(x, TX)
        active, steps = live, 0
        while np.count_nonzero(active):
            if steps == _MAX_STEPS:
                j = int(np.argmax(active))
                raise ArithmeticError(
                    f"zeta: no convergence in {_MAX_STEPS} Newton steps (lane {j}, x = {float(x[j])!r})"
                )
            if steps:
                TX = T * x
                fx = log_psi(x, TX)
            steps += 1
            x_new = newton(x, fx, TX)
            grow = active & (x_new > x)
            step = x_new - x
            np.copyto(x, x_new, where=grow)
            active = grow & (step > _DEFAULT_TOL * x)
    ok = (x > 0.0) & (x < math.inf)
    if np.count_nonzero(ok) < ok.size:
        j = int(np.argmin(ok))
        raise ArithmeticError(
            f"zeta: root {float(x[j])!r} of lane {j} is not a positive finite float"
        )
    return x


def solve_zeta(ctx: ZetaContext, tol: float = _DEFAULT_TOL, full_output: bool = False):
    """Unique positive root of psi(x) = 1.

    With no interferers the root is the exact closed form log(1/rho)/sigma2;
    otherwise it comes from the monotone Newton iteration of :func:`zeta_root`,
    stopped at a relative step of ``tol``.  Raises ArithmeticError when the
    root is not a positive finite float (e.g. sigma2 = 1e-310, rho = 1e-300).
    ``full_output=True`` returns (zeta, log-psi residual, iterations).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x, res, it = zeta_root(ctx.sigma2, ctx.rho, ctx.terms, tol)
    if full_output:
        return x, res, it
    return x


def _dzeta_dp(sigma2: float, z: float, p: float, p_bar: float = 0.0) -> float:
    """dz/dp at a known root z = zeta(p, p_bar) (implicit differentiation).

    dz/dp = -z (1 + p_bar z) /
            ((1 + p z)(p_bar + sigma2 (1 + p_bar z)) + p (1 + p_bar z));
    p_bar = 0 is the single interferer, -z / (sigma2 + sigma2 p z + p).
    """
    u = 1.0 + p_bar * z
    return -z * u / ((1.0 + p * z) * (p_bar + sigma2 * u) + p * u)


def dzeta_v_dp(p: float, ctx: ZetaContext) -> float:
    """d zeta / dp for a single interferer at power p.

    ``ctx`` supplies sigma2 and rho; its own terms are ignored.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    return _dzeta_dp(ctx.sigma2, zeta_root(ctx.sigma2, ctx.rho, (p,))[0], p)


def dzeta_e_dp(p: float, p_bar: float, ctx: ZetaContext) -> float:
    """Partial derivative in the first argument for two interferers (p, p_bar).

    The function is symmetric, so the p_bar-partial is dzeta_e_dp(p_bar, p, ctx).
    """
    if p < 0 or p_bar < 0:
        raise ValueError("powers must be nonnegative")
    z = zeta_root(ctx.sigma2, ctx.rho, (p, p_bar))[0]
    return _dzeta_dp(ctx.sigma2, z, p, p_bar)
