import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import zeta_bisect
from outagebf import zeta
from outagebf.zeta import (
    ZetaContext,
    dzeta_e_dp,
    dzeta_v_dp,
    psi,
    solve_zeta,
    zeta_root,
    zeta_roots,
    zeta_upper_bound,
)

# root values frozen from the plain-bisection oracle at tol 1e-14
FROZEN = [
    ((0.1, 0.95, ()), 0.5129329438755086),
    ((0.1, 0.95, (1.0,)), 0.04762983335018944),
    ((0.1, 0.95, (1.0, 1.0)), 0.024711463579034643),
    ((0.1, 0.95, (0.7,)), 0.06538736080629448),
    ((0.5, 0.9, (0.2, 0.3)), 0.10607830900158532),
    ((1.3, 0.75, (0.05, 0.4, 1.1)), 0.10334639771988563),
    ((2.0, 0.99, ()), 0.005025167926749674),
]


@pytest.mark.parametrize("params,expected", FROZEN)
def test_solve_zeta_frozen(params, expected):
    s2, rho, terms = params
    z = solve_zeta(ZetaContext(sigma2=s2, rho=rho, terms=terms))
    assert z == pytest.approx(expected, rel=1e-12)


def test_no_interferer_closed_form():
    ctx = ZetaContext(sigma2=0.3, rho=0.8)
    assert solve_zeta(ctx) == pytest.approx(math.log(1.0 / 0.8) / 0.3, rel=1e-15)


def test_psi_at_root_is_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(0, 5))
        ctx = ZetaContext(
            sigma2=float(rng.uniform(0.05, 2.0)),
            rho=float(rng.uniform(0.5, 0.99)),
            terms=tuple(float(t) for t in rng.uniform(0.0, 2.0, size=n)),
        )
        assert psi(solve_zeta(ctx), ctx) == pytest.approx(1.0, abs=1e-11)


def test_psi_basics():
    ctx = ZetaContext(sigma2=0.1, rho=0.95, terms=(1.0,))
    assert psi(0.0, ctx) == 0.95  # exact, no rounding through exp
    assert psi(0.5, ctx) > psi(0.25, ctx) > 0.95
    with pytest.raises(ValueError):
        psi(-0.1, ctx)


def test_upper_bound_brackets_root():
    rng = np.random.default_rng(5)
    for _ in range(40):
        ctx = ZetaContext(
            sigma2=float(rng.uniform(0.05, 2.0)),
            rho=float(rng.uniform(0.5, 0.99)),
            terms=tuple(float(t) for t in rng.uniform(0.0, 2.0, size=rng.integers(0, 4))),
        )
        ub = zeta_upper_bound(ctx)
        z = solve_zeta(ctx)
        assert z <= ub
        assert psi(ub, ctx) >= 1.0 - 1e-12


def test_upper_bound_without_interference_is_linear_root():
    # exp(s x) >= 1 + s x makes the bound strict even with no interferers
    ctx = ZetaContext(sigma2=0.4, rho=0.9)
    assert zeta_upper_bound(ctx) == pytest.approx((1.0 / 0.9 - 1.0) / 0.4, rel=1e-14)
    assert zeta_upper_bound(ctx) > solve_zeta(ctx)


def test_root_decreases_with_interference():
    z_prev = math.inf
    for t in (0.0, 0.2, 0.5, 1.0, 2.0):
        terms = (t,) if t > 0 else ()
        z = solve_zeta(ZetaContext(sigma2=0.1, rho=0.95, terms=terms))
        assert z < z_prev
        z_prev = z


def test_zero_terms_are_dropped():
    with_zero = solve_zeta(ZetaContext(sigma2=0.2, rho=0.9, terms=(0.0, 0.5, 0.0)))
    without = solve_zeta(ZetaContext(sigma2=0.2, rho=0.9, terms=(0.5,)))
    assert with_zero == without


def test_full_output_residual_and_iterations():
    ctx = ZetaContext(sigma2=0.1, rho=0.95, terms=(1.0, 0.3))
    z, res, its = solve_zeta(ctx, full_output=True)
    assert abs(res) <= 1e-12
    assert 0 < its < 50
    assert z == solve_zeta(ctx)


def test_coarse_tolerance_still_bracketed():
    ctx = ZetaContext(sigma2=0.7, rho=0.85, terms=(0.4,))
    z_coarse = solve_zeta(ctx, tol=1e-4)
    z_fine = solve_zeta(ctx, tol=1e-14)
    assert z_coarse == pytest.approx(z_fine, abs=1e-3)


def test_context_validation():
    with pytest.raises(ValueError):
        ZetaContext(sigma2=0.0, rho=0.9)
    with pytest.raises(ValueError):
        ZetaContext(sigma2=0.1, rho=1.0)
    with pytest.raises(ValueError):
        ZetaContext(sigma2=0.1, rho=0.0)
    with pytest.raises(ValueError):
        ZetaContext(sigma2=0.1, rho=0.9, terms=(-0.1,))
    with pytest.raises(ValueError):
        solve_zeta(ZetaContext(sigma2=0.1, rho=0.9), tol=0.0)


def test_matches_oracle_on_random_contexts():
    rng = np.random.default_rng(23)
    for _ in range(30):
        s2 = float(rng.uniform(0.05, 3.0))
        rho = float(rng.uniform(0.4, 0.995))
        terms = tuple(float(t) for t in rng.uniform(0.0, 3.0, size=rng.integers(0, 6)))
        pkg = solve_zeta(ZetaContext(sigma2=s2, rho=rho, terms=terms))
        ref = zeta_bisect(s2, rho, [t for t in terms if t > 0])
        assert pkg == pytest.approx(ref, rel=1e-11)


def test_dzeta_v_matches_finite_difference():
    ctx = ZetaContext(sigma2=0.1, rho=0.95)
    h = 1e-6
    for p in (0.05, 0.3, 1.0, 1.7):
        z_plus = solve_zeta(ZetaContext(0.1, 0.95, (p + h,)))
        z_minus = solve_zeta(ZetaContext(0.1, 0.95, (p - h,)))
        fd = (z_plus - z_minus) / (2 * h)
        assert dzeta_v_dp(p, ctx) == pytest.approx(fd, rel=1e-6)
        assert dzeta_v_dp(p, ctx) < 0


def test_dzeta_e_matches_finite_difference():
    ctx = ZetaContext(sigma2=0.1, rho=0.95)
    h = 1e-6
    for p, pbar in ((0.2, 0.9), (1.0, 1.0), (0.6, 0.05)):
        z_plus = solve_zeta(ZetaContext(0.1, 0.95, (p + h, pbar)))
        z_minus = solve_zeta(ZetaContext(0.1, 0.95, (p - h, pbar)))
        fd = (z_plus - z_minus) / (2 * h)
        assert dzeta_e_dp(p, pbar, ctx) == pytest.approx(fd, rel=1e-6)


def test_dzeta_e_symmetry():
    ctx = ZetaContext(sigma2=0.1, rho=0.95)
    # swapping the arguments gives the other partial of the same symmetric root
    assert dzeta_e_dp(0.3, 0.8, ctx) != dzeta_e_dp(0.8, 0.3, ctx)
    z1 = solve_zeta(ZetaContext(0.1, 0.95, (0.3, 0.8)))
    z2 = solve_zeta(ZetaContext(0.1, 0.95, (0.8, 0.3)))
    assert z1 == pytest.approx(z2, rel=1e-13)


def test_derivative_rejects_negative_powers():
    ctx = ZetaContext(sigma2=0.1, rho=0.95)
    with pytest.raises(ValueError):
        dzeta_v_dp(-1.0, ctx)
    with pytest.raises(ValueError):
        dzeta_e_dp(0.1, -0.2, ctx)


def _log_psi(x, ctx):
    return math.fsum([math.log(ctx.rho), ctx.sigma2 * x, *(math.log1p(t * x) for t in ctx.terms)])


def _brackets_root(z, ctx, eps):
    return _log_psi(z * (1.0 - eps), ctx) <= 0.0 <= _log_psi(z * (1.0 + eps), ctx)


def test_stalled_newton_still_reaches_root():
    # rho = 1e-300 puts the root far above every early Newton iterate
    z = solve_zeta(ZetaContext(1.0, 1e-300, (1.0,)))
    assert z == pytest.approx(684.2457503646339, rel=1e-12)


def test_non_finite_root_raises():
    with pytest.raises(ArithmeticError):
        solve_zeta(ZetaContext(1e-310, 1e-300))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    sigma2=st.floats(0.05, 3.0),
    rho=st.floats(0.4, 0.995),
    terms=st.lists(st.floats(0.0, 3.0), max_size=8),
)
def test_root_brackets_sign_change(sigma2, rho, terms):
    ctx = ZetaContext(sigma2, rho, tuple(terms))
    assert _brackets_root(solve_zeta(ctx), ctx, 1e-14)


EXTREME_TERMS = [(), (1e-6,), (1.0,), (1e6,), (1.0,) * 8, (1e-9, 1e9)]


@pytest.mark.parametrize("sigma2", [1e-12, 1e-6, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("rho", [1e-300, 1e-12, 0.5, 0.9999, 1.0 - 1e-12])
def test_root_at_parameter_extremes(sigma2, rho):
    for terms in EXTREME_TERMS:
        ctx = ZetaContext(sigma2, rho, terms)
        z, _, its = solve_zeta(ctx, full_output=True)
        assert math.isfinite(z) and its < 200, (terms, z, its)
        assert _brackets_root(z, ctx, 1e-12), terms


def _random_lanes(seed, m, n):
    """Per-lane sigma2 and rho, and an (m, n) term matrix with zeros and empty lanes."""
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.0, 3.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.7)
    T[:, rng.uniform(size=n) < 0.2] = 0.0
    return rng.uniform(0.05, 3.0, n), rng.uniform(0.4, 0.995, n), T


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 9), n=st.integers(1, 40))
def test_lanes_match_scalar_kernel(seed, m, n):
    sigma2, rho, T = _random_lanes(seed, m, n)
    z = zeta_roots(sigma2, rho, T)
    for j in range(n):
        ref = zeta_root(float(sigma2[j]), float(rho[j]), T[:, j].tolist())[0]
        assert abs(z[j] - ref) <= 2e-15 * ref, (j, z[j], ref)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), n=st.integers(1, 40))
def test_warm_start_reaches_the_same_root(seed, m, n):
    sigma2, rho, T = _random_lanes(seed, m, n)
    z = zeta_roots(sigma2, rho, T)
    for scale in (0.0, 0.5, 1.0, 2.0, 1e3):
        warm = zeta_roots(sigma2, rho, T, x0=scale * z)
        assert np.all(np.abs(warm - z) <= 1e-12 * z), scale


def test_empty_lanes_are_the_closed_form():
    # the last rho is one where a SIMD np.log can differ from math.log
    sigma2 = np.array([0.3, 1e-6, 2.0, 1e6, 1.0])
    rho = np.array([0.8, 1e-300, 0.999, 0.5, 0.973150378946863])
    T = np.zeros((3, 5))
    z = zeta_roots(sigma2, rho, T, x0=np.ones(5))
    assert z.tolist() == [-math.log(r) / s for s, r in zip(sigma2.tolist(), rho.tolist())]
    assert zeta_roots(0.1, 0.95, np.zeros((0, 2))).tolist() == [zeta_root(0.1, 0.95, ())[0]] * 2


@pytest.mark.parametrize("sigma2", [1e-12, 1e-6, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("rho", [1e-300, 1e-12, 0.5, 0.9999, 1.0 - 1e-12])
def test_lanes_at_parameter_extremes(sigma2, rho):
    # one lane per term set of the scalar extremes test, no overflow warnings
    m = max(len(t) for t in EXTREME_TERMS)
    T = np.zeros((m, len(EXTREME_TERMS)))
    for j, terms in enumerate(EXTREME_TERMS):
        T[: len(terms), j] = terms
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = zeta_roots(sigma2, rho, T)
        warm = zeta_roots(sigma2, rho, T, x0=1e3 * z)
    for j, terms in enumerate(EXTREME_TERMS):
        ctx = ZetaContext(sigma2, rho, terms)
        assert _brackets_root(z[j], ctx, 1e-12), terms
        assert _brackets_root(warm[j], ctx, 1e-12), terms


def test_lanes_raise_on_non_finite_root():
    # the closed form of lane 1 and the Newton root of lane 3 overflow, the
    # other roots are 1e300
    with pytest.raises(ArithmeticError, match="lane 1"):
        zeta_roots(1e-310, 1e-300, np.array([[1.0, 0.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ArithmeticError, match="lane 3"):
        zeta_roots(1e-310, 1e-300, np.array([[1.0, 1.0, 1.0, 1e-100, 1.0]]))
    with pytest.raises(ArithmeticError, match="not a positive finite float"):
        zeta_roots(1e-310, 1e-300, np.array([[0.0]]))


def test_step_cap_raises_in_both_kernels(monkeypatch):
    # rho = 1e-300 takes 136 steps from 0; a cap of 20 cuts it off
    sigma2, rho, terms = 1e-300, 1e-300, (1.0,)
    assert zeta_root(sigma2, rho, terms)[2] > 20
    monkeypatch.setattr(zeta, "_MAX_STEPS", 20)
    with pytest.raises(ArithmeticError, match="no convergence in 20"):
        zeta_root(sigma2, rho, terms)
    with pytest.raises(ArithmeticError, match="no convergence in 20"):
        zeta_roots(sigma2, rho, np.array([[1.0]]))


# Both properties below hold for exact roots; each computed root lies within
# 1e-14 of its exact one (the bracket tests above), so two of them may cross
# by up to twice that.
_ROOT_PAIR_SLACK = 2e-14


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    sigma2=st.floats(1e-3, 1e3),
    rho=st.floats(1e-6, 0.999),
    terms=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8),
    grow=st.floats(1e-12, 1e6),
)
def test_root_does_not_increase_when_one_term_grows(sigma2, rho, terms, grow):
    # lane 0 holds the terms; lane 1 + k holds them with term k grown
    n = len(terms)
    T = np.tile(np.array(terms)[:, None], (1, 1 + n))
    T[np.arange(n), 1 + np.arange(n)] += grow
    z = zeta_roots(sigma2, rho, T)
    assert np.all(z[1:] <= z[0] * (1.0 + _ROOT_PAIR_SLACK)), (z[0], z[1:])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    sigma2=st.floats(1e-3, 1e3),
    rho=st.floats(1e-6, 0.999),
    gains=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6),
    powers=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=12),
)
def test_power_times_root_does_not_decrease_in_power(sigma2, rho, gains, powers):
    # interferers at powers p * g: p * zeta(p g) does not decrease in p, which
    # is the scalability of the minimal-power response c / zeta (Yates)
    p = np.sort(np.array(powers))
    z = zeta_roots(sigma2, rho, np.array(gains)[:, None] * p[None, :])
    pz = p * z
    assert np.all(pz[1:] >= pz[:-1] * (1.0 - _ROOT_PAIR_SLACK)), pz
