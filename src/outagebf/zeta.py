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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ZetaContext",
    "psi",
    "solve_zeta",
    "zeta_root",
    "zeta_upper_bound",
    "dzeta_v_dp",
    "dzeta_e_dp",
]

_DEFAULT_TOL = 1e-12


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

    The one zeta kernel: every root in the package comes from here.  Zero
    terms are dropped, so callers pass raw interference powers.  No input is
    validated; :func:`solve_zeta` is the checked entry point.

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
        for it in range(1, 201):
            x_new = x - fx / (sigma2 + sum(t / (1.0 + t * x) for t in terms))
            if not x_new > x:
                break
            step, x = x_new - x, x_new
            fx = log_rho + sigma2 * x + sum(math.log1p(t * x) for t in terms)
            if step <= tol * x:
                break
        else:
            raise ArithmeticError(f"zeta: no convergence in 200 Newton steps (x = {x!r})")
    if not 0.0 < x < math.inf:
        raise ArithmeticError(f"zeta: root {x!r} is not a positive finite float")
    return x, fx, it


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
