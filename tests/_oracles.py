"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way — plain bisection and direct
formula transcription, no shared code with the package beyond the data model —
so that agreement with the library is evidence, not tautology.
"""

import math

import numpy as np


def lhs_direct(rho, sigma2, s, interference, R):
    """Closed-form outage constraint LHS, transcribed literally."""
    if R == 0.0:
        return rho
    c = 2.0**R - 1.0
    val = rho * math.exp(c * sigma2 / s)
    for g in interference:
        val *= 1.0 + c * g / s
    return val


def zeta_bisect(sigma2, rho, terms=(), tol=1e-14):
    """Root of rho * exp(sigma2 x) * prod(1 + t x) = 1 by plain bisection."""

    def log_psi(x):
        return math.log(rho) + sigma2 * x + sum(math.log(1.0 + t * x) for t in terms)

    hi = 1.0
    while log_psi(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if log_psi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rate_cap(rho, sigma2, s, interference, tol=1e-13):
    """Largest rate with lhs_direct <= 1, by bisection directly on R."""
    hi = 1.0
    while lhs_direct(rho, sigma2, s, interference, hi) <= 1.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs_direct(rho, sigma2, s, interference, mid) <= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, lo):
            break
    return lo


def user_rate(instance, p, i):
    """rate_cap specialized to user i of a SISO instance at powers p."""
    if p[i] == 0.0:
        return 0.0
    s = float(instance.Q[i, i] * p[i])
    interference = [
        float(instance.Q[k, i] * p[k]) for k in range(instance.K) if k != i
    ]
    return rate_cap(float(instance.rho[i]), float(instance.sigma2[i]), s, interference)


def siso_grid_mmf(instance, step):
    """Brute-force max-min weighted rate over a lattice covering [0, P].

    Each axis holds ceil(P_i/step)+1 evenly spaced points from 0 to P_i
    inclusive, so every lattice cell has diameter at most ``step``.  Rates come
    from per-user root tables built with :func:`zeta_bisect`.  Returns the best
    min_i rate_i/alpha_i over the lattice.  Exponential in K — keep K <= 3.
    """
    K = instance.K
    axes = []
    for i in range(K):
        n = int(math.ceil(float(instance.P[i]) / step)) + 1
        axes.append(np.linspace(0.0, float(instance.P[i]), n))
    shapes = tuple(len(a) for a in axes)

    weighted = np.empty((K,) + shapes)
    for i in range(K):
        others = [k for k in range(K) if k != i]
        table_shape = tuple(shapes[k] for k in others)
        zt = np.empty(table_shape)
        for idx in np.ndindex(*table_shape):
            terms = [
                float(instance.Q[k, i]) * axes[k][idx[pos]]
                for pos, k in enumerate(others)
            ]
            zt[idx] = zeta_bisect(
                float(instance.sigma2[i]),
                float(instance.rho[i]),
                [t for t in terms if t > 0.0],
            )
        # broadcast: own power varies along axis i, the table along the rest
        own = axes[i].reshape([-1 if k == i else 1 for k in range(K)])
        ztab = np.expand_dims(zt, axis=i)
        rate = np.log1p(float(instance.Q[i, i]) * own * ztab) / math.log(2.0)
        weighted[i] = rate / float(instance.alpha[i])
    return float(np.max(np.min(weighted, axis=0)))


def mmf_upper_bound_direct(instance):
    """Interference-free MMF cap, min_i log2(1 + P_i Q_ii log(1/rho_i) / sigma2_i) / alpha_i."""
    vals = []
    for i in range(instance.K):
        snr = float(instance.P[i] * instance.Q[i, i]) * math.log(1.0 / float(instance.rho[i]))
        rate = math.log1p(snr / float(instance.sigma2[i])) / math.log(2.0)
        vals.append(rate / float(instance.alpha[i]))
    return min(vals)


def mmf_modulus_bound_direct(instance, step):
    """(step/2) max_i L_i/alpha_i with L_i = (Q_ii/ln2) zmax_i (1 + P_i/sigma2_i sum_{k!=i} Q_ki)."""
    worst = 0.0
    for i in range(instance.K):
        zmax = math.log(1.0 / float(instance.rho[i])) / float(instance.sigma2[i])
        cross = 0.0
        for k in range(instance.K):
            if k != i:
                cross += float(instance.Q[k, i])
        L = (
            float(instance.Q[i, i])
            / math.log(2.0)
            * zmax
            * (1.0 + float(instance.P[i]) / float(instance.sigma2[i]) * cross)
        )
        worst = max(worst, L / float(instance.alpha[i]))
    return 0.5 * step * worst


def mc_outage_direct(instance, w, R, i, n_samples, seed):
    """Pr[rate_i < R] by drawing every channel vector h_ki ~ CN(0, Qcov[k, i]).

    Each covariance is factored by SVD (Q = U S U^H for a Hermitian PSD Q),
    each realization is h = U sqrt(S) z with z ~ CN(0, I) from numpy's
    default generator, and a realization is an outage when
    log2(1 + SINR_i) < R.  Returns the fraction of outages.
    """
    rng = np.random.default_rng(seed)
    power = np.empty((instance.K, n_samples))
    for k in range(instance.K):
        U, S, _ = np.linalg.svd(instance.Qcov[k, i])
        shape = (instance.Nt, n_samples)
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        h = (U * np.sqrt(S)) @ z  # column n is the n-th realization of h_ki
        power[k] = np.abs(h.conj().T @ w[k]) ** 2
    sinr = power[i] / (power.sum(axis=0) - power[i] + instance.sigma2[i])
    return np.count_nonzero(np.log2(1.0 + sinr) < R) / n_samples


def discrete_srm_search_loop(gadget, rates, pattern):
    """Best cut pattern of a gadget, scored one pattern per call.

    ``pattern(S)`` is the power vector of cut S and ``rates(p)`` the rate
    profile at one power vector.  The weighted sums alpha @ rates(p) of the
    2^V patterns are compared in cut bitmask order (vertex 1 least
    significant), so a tie keeps the lowest bitmask.  Returns (power vector,
    weighted sum rate).
    """
    V = gadget.graph.V
    best_p, best_val = None, -math.inf
    for mask in range(1 << V):
        p = pattern([v for v in range(1, V + 1) if (mask >> (v - 1)) & 1])
        val = float(gadget.instance.alpha @ rates(p))
        if val > best_val:
            best_p, best_val = p, val
    return best_p, best_val
