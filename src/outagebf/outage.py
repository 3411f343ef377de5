"""Rate-outage machinery: instantaneous rates, closed-form constraints, Monte Carlo.

For user i at rate R with c = 2^R - 1, signal power s_i = w_i^H Q_ii w_i and
interference powers g_k = w_k^H Q_ki w_k, the rate-outage probability under
circularly-symmetric Gaussian channels satisfies

    Pr[rate_i < R] <= 1 - rho_i
        <=>  LHS_i = rho_i * exp(c*sigma2_i/s_i) * prod_{k!=i} (1 + c*g_k/s_i) <= 1,

and the inequality is exact (the LHS equals rho_i / Pr[rate_i >= R]).  The
SISO specialization substitutes s_i = Q_ii p_i, g_k = Q_ki p_k.

One evaluator computes the LHS: ``outage_lhs_all``, a numpy expression over
the gains matrix G[k, i] for all users at once; ``outage_lhs`` and
``outage_lhs_siso`` read one entry of it.  numpy's exp and log1p differ from
the C library's by a few ulps, so a value can differ from a scalar
transcription of the formula in its last digits (exp amplifies the error of
the exponent, to about 1e-13 relative for large exponents).
"""

from __future__ import annotations

import math

import numpy as np

from .model import PSD_TOL, BeamformerSet, MisoInstance, SisoInstance

__all__ = [
    "instantaneous_rate",
    "outage_lhs",
    "outage_lhs_siso",
    "outage_lhs_all",
    "mc_outage",
]

_LN2 = math.log(2.0)
_MC_CHUNK = 65536
LHS_SLACK = 1e-9  # a constraint counts as met at LHS <= 1 + LHS_SLACK
POWER_SLACK = 1e-12  # and a power as within budget at p <= P + POWER_SLACK


def instantaneous_rate(channels, beams: BeamformerSet, i: int, sigma2_i: float) -> float:
    """Shannon rate of receiver i for one channel realization.

    ``channels[k]`` is the realized vector from transmitter k into receiver i.
    """
    h = np.asarray(channels, dtype=np.complex128)
    _check_user(len(h), i)
    g = np.abs(np.einsum("kn,kn->k", h.conj(), beams.w)) ** 2
    return math.log1p(g[i] / (float(np.sum(g)) - float(g[i]) + sigma2_i)) / _LN2


def _gains(instance, x) -> np.ndarray:
    """G[k, i] = power of transmitter k received at receiver i, clipped at 0.

    Accepts a MisoInstance with a BeamformerSet (or raw beam array) or a
    SisoInstance with a power vector; the SISO gains are Q_ki p_k.
    """
    if isinstance(instance, MisoInstance):
        w = x.w if isinstance(x, BeamformerSet) else np.asarray(x, dtype=np.complex128)
        G = np.einsum("ka,kiab,kb->ki", w.conj(), instance.Qcov, w).real
    else:
        p = np.asarray(x, dtype=np.float64)
        G = instance.Q * p[:, None]
    return np.maximum(G, 0.0)


def _check_user(K: int, i: int) -> None:
    if not 0 <= i < K:  # numpy would read a negative index from the end
        raise ValueError(f"user index {i} out of range for K = {K}")


def _one_rate(K: int, i: int, R_i: float) -> np.ndarray:
    """Rate vector that is R_i at user i and 0 elsewhere."""
    _check_user(K, i)
    return np.where(np.eye(K, dtype=bool)[i], R_i, 0.0)


def outage_lhs(instance: MisoInstance, beams: BeamformerSet, R_i: float, i: int) -> float:
    """Closed-form outage-constraint LHS for user i; the constraint is LHS <= 1."""
    return float(outage_lhs_all(instance, beams, _one_rate(instance.K, i, R_i))[i])


def outage_lhs_siso(instance: SisoInstance, p, R_i: float, i: int) -> float:
    """SISO specialization of :func:`outage_lhs` for a power vector p."""
    return float(outage_lhs_all(instance, p, _one_rate(instance.K, i, R_i))[i])


def outage_lhs_all(instance, x, R) -> np.ndarray:
    """Vector of constraint LHS values for all users at per-user rates R.

    Accepts a MisoInstance with a BeamformerSet or a SisoInstance with a power
    vector; every quadratic form is evaluated once, for all (k, i) pairs, and
    the LHS of every user in one array expression over the gains.  A user at
    rate 0 gets rho_i exactly; a positive rate needs a positive signal.
    """
    R = np.asarray(R, dtype=np.float64)
    K = instance.K
    if R.shape != (K,):
        raise ValueError(f"R must have shape ({K},)")
    G = _gains(instance, x)
    if (R < 0).any():
        raise ValueError("rate must be nonnegative")
    s = G.diagonal()
    off = R == 0.0
    if (~off & ~(s > 0.0)).any():
        raise ValueError(
            "undefined constraint: zero received signal power with positive rate"
        )
    with np.errstate(over="raise"):  # 2^R - 1 has no float for R >= 1024
        c = np.expm1(R * _LN2)
    # rate-0 columns (s may be 0) are replaced below; an overflow reads +inf
    with np.errstate(all="ignore"):
        # (G_ki c_i) / s_i in this order: c_i / s_i overflows at a subnormal
        # s_i, and a zero gain times that inf is nan, not 0
        T = G * c / s
        np.fill_diagonal(T, 0.0)
        lhs = instance.rho * np.exp(c * instance.sigma2 / s + np.log1p(T).sum(axis=0))
    return np.where(off, instance.rho, lhs)


def mc_outage(
    instance: MisoInstance,
    beams: BeamformerSet,
    R_i: float,
    i: int,
    n_samples: int,
    seed: int,
):
    """Monte-Carlo estimate of Pr[rate_i < R_i] with binomial standard error.

    For h_ki ~ CN(0, Qcov[k, i]), h_ki^H w_k is CN(0, g_k) with g_k the gain
    w_k^H Qcov[k, i] w_k of ``_gains``, so the power |h_ki^H w_k|^2 is exactly
    g_k times an Exp(1) draw: one draw per user and sample, from one Philox
    stream in fixed chunks of 65536 samples, users in index order inside a
    chunk.  The estimate is bit-reproducible given (seed, n_samples).  A
    covariance Qcov[k, i] with an eigenvalue below -PSD_TOL raises ValueError.

    Returns (estimate, stderr).
    """
    K = instance.K
    _check_user(K, i)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if R_i < 0:
        raise ValueError("rate must be nonnegative")
    if R_i == 0.0:
        return 0.0, 0.0  # rate is a.s. nonnegative
    lam = float(np.linalg.eigvalsh(instance.Qcov[:, i]).min())
    if lam < -PSD_TOL:
        raise ValueError(f"covariance is not PSD (min eigenvalue {lam:.3g} < -{PSD_TOL:g})")
    scale = _gains(instance, beams)[:, i]  # mean power of transmitter k at i
    thresh = math.expm1(R_i * _LN2)
    rng = np.random.Generator(np.random.Philox(key=seed))
    count = 0
    for done in range(0, n_samples, _MC_CHUNK):
        g = scale[:, None] * rng.standard_exponential((K, min(_MC_CHUNK, n_samples - done)))
        interf = np.sum(g, axis=0) - g[i]
        count += int(np.count_nonzero(g[i] < thresh * (interf + instance.sigma2[i])))
    est = count / n_samples
    return est, math.sqrt(est * (1.0 - est) / n_samples)
