import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    mmf_modulus_bound_direct,
    mmf_upper_bound_direct,
    siso_grid_mmf,
    user_rate,
)
from outagebf import sampling, solvers
from outagebf.model import SisoInstance
from outagebf.outage import LHS_SLACK, POWER_SLACK, outage_lhs_all, outage_lhs_siso
from outagebf.solvers import (
    VertexSliceContext,
    feasibility_fixed_point,
    min_power_response,
    mmf_bisection,
    mmf_modulus_bound,
    mmf_upper_bound,
    outage_balancing_siso,
    single_user_objective_F,
    single_user_objective_f,
    srm_rates_from_powers,
)
from outagebf.zeta import zeta_roots

LN2 = math.log(2.0)


def test_rates_match_independent_bisection(two_user_instance):
    p = [0.8, 0.6]
    rates = srm_rates_from_powers(two_user_instance, p)
    for i in range(2):
        assert rates[i] == pytest.approx(user_rate(two_user_instance, p, i), abs=1e-9)


def test_rates_silent_user_zero(two_user_instance):
    rates = srm_rates_from_powers(two_user_instance, [0.0, 0.5])
    assert rates[0] == 0.0
    assert rates[1] > 0.0
    with pytest.raises(ValueError):
        srm_rates_from_powers(two_user_instance, [-0.1, 0.5])


def test_rates_saturate_constraints(three_user_instance):
    # plugging the rate profile back in gives equality for every active user
    p = np.array([0.9, 0.5, 0.8])
    rates = srm_rates_from_powers(three_user_instance, p)
    lhs = outage_lhs_all(three_user_instance, p, rates)
    assert np.allclose(lhs, 1.0, atol=1e-11)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    share=st.lists(st.just(0.0) | st.floats(1e-300, 1.0), min_size=6, max_size=6),
)
def test_rates_make_every_active_constraint_tight(seed, K, share):
    # silent users (share 0) included; subnormal powers are left out, since a
    # subnormal rate cannot carry 1e-11 relative precision
    inst = sampling.random_siso_instance(np.random.default_rng(seed), K)
    p = np.array(share[:K]) * inst.P
    rates = srm_rates_from_powers(inst, p)
    lhs = outage_lhs_all(inst, p, rates)
    active = p > 0
    assert np.all(np.abs(lhs[active] - 1.0) <= 1e-11)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    exponent=st.lists(st.floats(-325.0, -290.0), min_size=6, max_size=6),
)
def test_rates_are_tight_down_to_the_subnormal_floor(seed, K, exponent):
    # power shares 10^-325 .. 10^-290 straddle the smallest normal rate, 2.2e-308;
    # below it a rate has fewer bits and is tight only to about 2^-1074 / R
    inst = sampling.random_siso_instance(np.random.default_rng(seed), K)
    p = 10.0 ** np.array(exponent[:K]) * inst.P
    rates = srm_rates_from_powers(inst, p)
    lhs = outage_lhs_all(inst, p, rates)
    on = rates > 0
    floor = 4.0 * (2.0**-1074 / rates[on])
    assert np.all(np.abs(lhs[on] - 1.0) <= 1e-11 + floor)
    assert np.all(np.abs(lhs[rates >= np.finfo(float).tiny] - 1.0) <= 1e-11)
    # a rate that underflows to 0 leaves the constraint at rho
    assert np.array_equal(lhs[~on], inst.rho[~on])


def test_rates_reject_powers_of_the_wrong_shape(three_user_instance):
    # a length-2K vector must not read as two rows of a batch
    for p in ([0.5] * 2, [0.5] * 4, [0.5] * 6, np.full((2, 4), 0.5), np.full((2, 2, 3), 0.5), 0.5):
        with pytest.raises(ValueError, match="shape"):
            srm_rates_from_powers(three_user_instance, p)


def _power_batch(seed, K, n, share):
    """n power vectors of a random K-user instance: exact zeros, whole zero rows."""
    inst = sampling.random_siso_instance(np.random.default_rng(seed), K)
    p = np.resize(np.array(share), (n, K)) * inst.P
    p[::3] = 0.0
    return inst, p


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 10),
    n=st.integers(0, 7),
    share=st.lists(st.just(0.0) | st.floats(1e-12, 1.0), min_size=1, max_size=70),
)
def test_batch_rows_equal_single_vector_calls_bit_for_bit(seed, K, n, share):
    # K up to 10 reaches numpy's pairwise sums, which start at 8 terms
    inst, p = _power_batch(seed, K, n, share)
    R = srm_rates_from_powers(inst, p)
    assert R.shape == (n, K)
    for row, r in zip(p, R):
        assert r.tobytes() == srm_rates_from_powers(inst, row).tobytes()
        assert np.all(r[row == 0.0] == 0.0)


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_batch_blocks_do_not_change_rates(rows, monkeypatch):
    inst, p = _power_batch(7, 9, 11, np.linspace(0.0, 1.0, 13).tolist())
    whole = srm_rates_from_powers(inst, p)
    calls = []

    def counting(*args):
        calls.append(args[2].shape[1])
        return zeta_roots(*args)

    monkeypatch.setattr(solvers, "zeta_roots", counting)
    # K = 9: a block of rows * K^2 + K^2 - 1 lane entries holds `rows` rows
    monkeypatch.setattr(solvers, "_RATE_BLOCK", rows * 81 + 80)
    assert srm_rates_from_powers(inst, p).tobytes() == whole.tobytes()
    assert len(calls) == -(-11 // rows)
    assert sum(calls) == np.count_nonzero(p)


def test_min_power_response_inverts_constraint(two_user_instance):
    resp = min_power_response(two_user_instance, 0, [0.0, 0.6], 0.3)
    assert outage_lhs_siso(two_user_instance, [resp, 0.6], 0.3, 0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert min_power_response(two_user_instance, 0, [0.0, 0.6], 0.0) == 0.0
    with pytest.raises(ValueError):
        min_power_response(two_user_instance, 0, [0.0, 0.6], -0.2)


def test_min_power_response_rejects_bad_user_or_powers(three_user_instance):
    # a negative index must not wrap around to user K - 1
    for i in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            min_power_response(three_user_instance, i, [0.5] * 3, 0.2)
    for p in ([0.5] * 2, [0.5] * 4, [[0.5] * 3]):
        with pytest.raises(ValueError, match="shape"):
            min_power_response(three_user_instance, 0, p, 0.2)


def test_min_power_response_monotone(two_user_instance):
    resp = [
        min_power_response(two_user_instance, 1, [0.5, 0.0], R)
        for R in (0.05, 0.1, 0.2, 0.4)
    ]
    assert resp == sorted(resp)
    more_interf = min_power_response(two_user_instance, 1, [0.9, 0.0], 0.2)
    assert more_interf > resp[2]


def test_feasibility_fixed_point_low_rate(two_user_instance):
    res = feasibility_fixed_point(two_user_instance, 0.2, keep_trace=True)
    assert res.feasible
    assert res.status == "feasible"
    assert res.residual <= 1e-9
    assert np.all(res.p <= two_user_instance.P + 1e-12)
    # iterates grow monotonically from zero
    tr = np.array(res.trace)
    assert tr[0].tolist() == [0.0, 0.0]
    assert np.all(np.diff(tr, axis=0) >= -1e-15)


def test_feasibility_fixed_point_high_rate(two_user_instance):
    res = feasibility_fixed_point(two_user_instance, 5.0)
    assert not res.feasible
    res2 = feasibility_fixed_point(two_user_instance, 0.0)
    assert res2.feasible
    assert np.all(res2.p == 0.0)
    with pytest.raises(ValueError):
        feasibility_fixed_point(two_user_instance, -0.1)


def test_witness_is_fixed_point_of_min_power_response(three_user_instance):
    # the public response is the map the feasibility sweep iterates
    R_bar = 0.08
    res = feasibility_fixed_point(three_user_instance, R_bar)
    assert res.feasible
    for i in range(three_user_instance.K):
        target = three_user_instance.alpha[i] * R_bar
        resp = min_power_response(three_user_instance, i, res.p, target)
        assert resp == pytest.approx(res.p[i], abs=1e-12)


def test_feasibility_witness_meets_targets(two_user_instance):
    R_bar = 0.15
    res = feasibility_fixed_point(two_user_instance, R_bar)
    targets = two_user_instance.alpha * R_bar
    lhs = outage_lhs_all(two_user_instance, res.p, targets)
    assert np.all(lhs <= 1.0 + 1e-9)


def test_feasibility_monotone_in_rate(two_user_instance):
    # once infeasible, larger targets stay infeasible
    verdicts = [
        feasibility_fixed_point(two_user_instance, r).feasible
        for r in np.linspace(0.0, 0.5, 11)
    ]
    assert verdicts == sorted(verdicts, reverse=True)


def test_mmf_upper_bound_no_interference_exact():
    inst = SisoInstance(
        Q=[[1.3]], sigma2=[0.8], rho=[0.88], P=[0.9], alpha=[1.4]
    )
    exact = math.log1p(0.9 * 1.3 * math.log(1 / 0.88) / 0.8) / LN2 / 1.4
    assert mmf_upper_bound(inst) == pytest.approx(exact, rel=1e-15)
    sol = mmf_bisection(inst, 1e-7)
    assert exact - 1e-7 < sol.R <= exact


def test_mmf_bisection_frozen(two_user_instance):
    sol = mmf_bisection(two_user_instance, 1e-6)
    assert sol.R == pytest.approx(0.23503278502250963, rel=1e-12)
    assert sol.iterations == 19  # ceil(log2(upper/delta))
    assert sol.binding_users == (0, 1)
    ub = mmf_upper_bound(two_user_instance)
    assert sol.iterations == math.ceil(math.log2(ub / 1e-6))


def test_mmf_bisection_trace_contract(two_user_instance):
    sol = mmf_bisection(two_user_instance, 1e-5)
    lo, hi = sol.trace[-1]
    assert hi - lo < 1e-5
    assert sol.R == lo
    # bracket never widens, and feasible midpoints sit below infeasible ones
    for (l0, h0), (l1, h1) in zip(sol.trace, sol.trace[1:]):
        assert l1 >= l0 and h1 <= h0
    feas = [m for m, ok in sol.tested if ok]
    infeas = [m for m, ok in sol.tested if not ok]
    if feas and infeas:
        assert max(feas) < min(infeas)


def test_mmf_agrees_with_grid_oracle(two_user_instance, three_user_instance):
    for inst in (two_user_instance, three_user_instance):
        sol = mmf_bisection(inst, 1e-6)
        r_grid = siso_grid_mmf(inst, 0.02)
        band = 1e-6 + mmf_modulus_bound(inst, 0.02)
        assert r_grid - 1e-6 <= sol.R <= r_grid + band


def test_mmf_witness_feasible(three_user_instance):
    sol = mmf_bisection(three_user_instance, 1e-6)
    lhs = outage_lhs_all(three_user_instance, sol.p, three_user_instance.alpha * sol.R)
    assert np.all(lhs <= 1.0 + 1e-9)
    assert np.all(sol.p <= three_user_instance.P + 1e-12)
    assert sol.binding_users  # someone must sit at the minimum


def test_mmf_rejects_bad_delta(two_user_instance):
    with pytest.raises(ValueError):
        mmf_bisection(two_user_instance, 0.0)


def _with(inst, name, index, value):
    arr = np.array(getattr(inst, name))
    arr[index] = value
    return dataclasses.replace(inst, **{name: arr})


@pytest.mark.parametrize(
    "name, index, value",
    [("Q", (0, 0), 0.0), ("P", 1, -0.5), ("alpha", 0, 0.0), ("sigma2", 1, 0.0)],
    ids=["direct-link-zero", "negative-budget", "zero-weight", "zero-noise"],
)
def test_mmf_rejects_invalid_instance(two_user_instance, name, index, value):
    bad = _with(two_user_instance, name, index, value)
    with pytest.raises(ValueError, match="invalid instance: "):
        mmf_bisection(bad, 1e-5)


def test_siso_solvers_validate_on_entry(two_user_instance):
    bad = _with(two_user_instance, "Q", (1, 1), 0.0)
    with pytest.raises(ValueError, match=r"invalid instance: Q\[1,1\]"):
        feasibility_fixed_point(bad, 0.1)
    with pytest.raises(ValueError, match=r"invalid instance: Q\[1,1\]"):
        outage_balancing_siso(bad, [0.1, 0.1])


def test_bounds_match_per_user_transcriptions():
    rng = np.random.default_rng(91)
    insts = [sampling.random_siso_instance(rng, int(K)) for K in rng.integers(1, 41, size=40)]
    uncoupled = SisoInstance(
        Q=np.diag([1.3, 0.9, 1.1]),
        sigma2=[0.8, 0.5, 1.2],
        rho=[0.88, 0.9, 0.75],
        P=[0.9, 1.0, 0.6],
        alpha=[1.4, 1.0, 0.8],
    )
    insts.append(uncoupled)
    for inst in insts:
        assert mmf_upper_bound(inst) == pytest.approx(mmf_upper_bound_direct(inst), rel=1e-15)
        for step in (0.02, 0.5):
            assert mmf_modulus_bound(inst, step) == pytest.approx(
                mmf_modulus_bound_direct(inst, step), rel=1e-15
            )


def test_modulus_bound_scales_linearly(two_user_instance):
    m1 = mmf_modulus_bound(two_user_instance, 0.1)
    m2 = mmf_modulus_bound(two_user_instance, 0.2)
    assert m1 > 0
    assert m2 == pytest.approx(2 * m1, rel=1e-12)


def test_balancing_frozen(two_user_instance):
    rho_star, p = outage_balancing_siso(two_user_instance, [0.1, 0.1])
    assert rho_star == pytest.approx(0.9423789978027344, abs=1e-12)
    inst_at = SisoInstance(
        Q=two_user_instance.Q,
        sigma2=two_user_instance.sigma2,
        rho=np.full(2, rho_star),
        P=two_user_instance.P,
        alpha=two_user_instance.alpha,
    )
    lhs = outage_lhs_all(inst_at, p, np.array([0.1, 0.1]))
    assert np.all(lhs <= 1.0 + 1e-9)


def test_balancing_monotone_in_targets(two_user_instance):
    lo_targets, _ = outage_balancing_siso(two_user_instance, [0.05, 0.05])
    hi_targets, _ = outage_balancing_siso(two_user_instance, [0.2, 0.2])
    assert lo_targets > hi_targets  # easier targets admit a stricter floor


def test_balancing_unachievable(two_user_instance):
    with pytest.raises(ValueError, match="unachievable"):
        outage_balancing_siso(two_user_instance, [50.0, 50.0])
    with pytest.raises(ValueError, match="shape"):
        outage_balancing_siso(two_user_instance, [0.1])


def test_single_user_objective_derivative():
    rng = np.random.default_rng(31)
    h = 1e-5
    for _ in range(15):
        ctx = sampling.random_vertex_slice(rng)
        for p in rng.uniform(0.05, 0.95, size=2):
            fd = (
                single_user_objective_F(p + h, ctx)
                - single_user_objective_F(p - h, ctx)
            ) / (2 * h)
            f = single_user_objective_f(float(p), ctx)
            assert abs(f - fd) <= 1e-6 * max(1.0, abs(f))


def test_single_user_objective_no_neighbors_monotone():
    # without edge terms the slice reduces to own-rate gain vs partner loss
    ctx = VertexSliceContext(partner_power=0.0)
    vals = [single_user_objective_F(p, ctx) for p in (0.0, 0.3, 0.6, 1.0)]
    assert vals == sorted(vals)  # own rate only: strictly increasing
    ctx2 = VertexSliceContext(partner_power=1.0)
    assert single_user_objective_f(0.0, ctx2) != 0.0


def test_random_instances_keep_bisection_inside_box():
    rng = np.random.default_rng(44)
    for _ in range(10):
        K = int(rng.integers(1, 4))
        inst = sampling.random_siso_instance(rng, K)
        sol = mmf_bisection(inst, 1e-4)
        assert 0.0 <= sol.R <= mmf_upper_bound(inst)
        assert np.all(sol.p >= 0.0)
        assert np.all(sol.p <= inst.P + 1e-12)


@pytest.mark.parametrize("K, seeds", [(8, range(4)), (32, range(1))])
def test_warm_started_bisection_keeps_every_cold_verdict(K, seeds):
    # each midpoint starts from the last feasible witness; the cold test from
    # p = 0 must reach the same verdict at every midpoint
    for seed in seeds:
        inst = sampling.random_siso_instance(np.random.default_rng(seed), K)
        sol = mmf_bisection(inst, 1e-5)
        for mid, ok in sol.tested:
            assert feasibility_fixed_point(inst, mid).feasible == ok, (K, seed, mid)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 6), frac=st.floats(0.0, 1.0))
def test_cold_iterates_never_decrease_and_witness_is_feasible(seed, K, frac):
    inst = sampling.random_siso_instance(np.random.default_rng(seed), K)
    R_bar = frac * mmf_upper_bound(inst)
    res = feasibility_fixed_point(inst, R_bar, keep_trace=True)
    tr = np.array(res.trace)
    assert tr[0].tolist() == [0.0] * K
    assert np.all(np.diff(tr, axis=0) >= 0.0)
    assert res.reason in ("converged", "over_budget")
    if res.feasible:
        lhs = outage_lhs_all(inst, res.p, inst.alpha * R_bar)
        assert np.all(lhs <= 1.0 + 1e-9)
        assert np.all(res.p <= inst.P + 1e-12)


def test_feasibility_reason(two_user_instance, monkeypatch):
    assert feasibility_fixed_point(two_user_instance, 0.2).reason == "converged"
    assert feasibility_fixed_point(two_user_instance, 5.0).reason == "over_budget"
    # a recheck no witness can pass: converged, but infeasible
    monkeypatch.setattr(solvers, "LHS_SLACK", -1.0)
    res = feasibility_fixed_point(two_user_instance, 0.2)
    assert (res.reason, res.status) == ("residual", "infeasible")


def test_sweep_cap_is_no_verdict(two_user_instance, monkeypatch):
    monkeypatch.setattr(solvers, "_SWEEP_CAP", 2)
    res = feasibility_fixed_point(two_user_instance, 0.2)
    assert (res.reason, res.status, res.iterations) == ("sweep_cap", "infeasible", 2)
    with pytest.raises(ArithmeticError, match="no fixed point within 2 sweeps"):
        mmf_bisection(two_user_instance, 1e-5)
    with pytest.raises(ArithmeticError, match="no fixed point within 2 sweeps"):
        outage_balancing_siso(two_user_instance, [0.1, 0.1])


def _record_probes(mp, calls):
    probe = solvers._probe

    def recording(*args):
        w = probe(*args)
        calls.append((args, w))
        return w

    mp.setattr(solvers, "_probe", recording)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    frac=st.just(0.0) | st.floats(1e-9, 1.0),
    lower=st.floats(0.01, 1.0),
)
def test_newton_candidates_are_supersolutions_or_fall_back(seed, K, frac, lower):
    # the test at R_bar starts, as in a bisection, from the last Jacobi
    # iterate of an easier test at lower * R_bar with the same users targeted
    inst = sampling.random_siso_instance(np.random.default_rng(seed), K)
    R_bar = frac * mmf_upper_bound(inst)
    tests = []
    start = None
    for R in (lower * R_bar, R_bar):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _record_probes(mp, calls)
            res, start = solvers._feasible_at_targets(
                inst, inst.alpha * R, start, sandwich=True
            )
        tests.append((R, res, calls))
    for R, res, calls in tests:
        assert res.feasible == feasibility_fixed_point(inst, R).feasible
        for (lanes, c, budget_on, x, Ix, z), w in calls:
            q = solvers._newton_step(lanes, x, Ix, z)
            q_on = q[lanes.users]
            certified = bool(np.all((q_on >= 0.0) & (q_on <= budget_on)))
            if certified:
                Iq = solvers._response(lanes, c, q, z)[0]
                certified = bool(np.all(Iq <= q_on * (1.0 + solvers._SWEEP_TOL)))
            if certified:
                lhs = outage_lhs_all(inst, q, np.where(q > 0, inst.alpha * R, 0.0))
                assert lhs.max() <= 1.0 + solvers.LHS_SLACK
            else:
                assert w is None
        if res.feasible and calls and calls[-1][1] is not None:
            assert res.p is calls[-1][1]


@pytest.mark.parametrize(
    "name, patch",
    [
        ("_probe", lambda *args: None),
        # a Newton point at the subsolution itself fails I(q) <= q
        ("_newton_step", lambda lanes, x, Ix, z: x.copy()),
    ],
    ids=["no-probe", "rejected-candidates"],
)
def test_forced_fallback_is_plain_jacobi(two_user_instance, monkeypatch, name, patch):
    insts = [two_user_instance] + [
        sampling.random_siso_instance(np.random.default_rng(seed), 8) for seed in range(3)
    ]
    sandwich = [mmf_bisection(inst, 1e-5) for inst in insts]
    monkeypatch.setattr(solvers, name, patch)
    for inst, sol in zip(insts, sandwich):
        jacobi = mmf_bisection(inst, 1e-5)
        assert (jacobi.tested, jacobi.R, jacobi.iterations) == (sol.tested, sol.R, sol.iterations)
        np.testing.assert_allclose(sol.p, jacobi.p, rtol=1e-10, atol=0.0)
    # with every candidate dropped, the first, cold, feasible midpoint needs
    # more than 2 sweeps
    monkeypatch.setattr(solvers, "_SWEEP_CAP", 2)
    with pytest.raises(ArithmeticError, match="no fixed point within 2 sweeps"):
        mmf_bisection(two_user_instance, 1e-5)
    with pytest.raises(ArithmeticError, match="no fixed point within 2 sweeps"):
        outage_balancing_siso(two_user_instance, [0.1, 0.1])


def test_uncoupled_instance_runs_no_probe(monkeypatch):
    # without cross gains the response is constant and its first sweep exact
    def probe(*args):
        raise AssertionError("probe on an uncoupled instance")

    monkeypatch.setattr(solvers, "_probe", probe)
    inst = SisoInstance(
        Q=[[1.3, 0.0], [0.0, 0.9]],
        sigma2=[0.8, 0.5],
        rho=[0.88, 0.9],
        P=[0.9, 1.0],
        alpha=[1.4, 1.0],
    )
    ub = mmf_upper_bound(inst)
    sol = mmf_bisection(inst, 1e-7)
    assert ub - 1e-7 < sol.R <= ub


@pytest.mark.parametrize("K", [8, 32])
def test_bisection_witness_is_the_fixed_point_and_warm_starts_climb(K, monkeypatch):
    inst = sampling.random_siso_instance(np.random.default_rng(K), K)
    starts = []
    feasible_at = solvers._feasible_at_targets

    def recording(instance, targets, start=None, **kwargs):
        if start is not None:
            starts.append((targets, start[0]))
        return feasible_at(instance, targets, start, **kwargs)

    monkeypatch.setattr(solvers, "_feasible_at_targets", recording)
    sol = mmf_bisection(inst, 1e-5)
    cold = feasibility_fixed_point(inst, sol.R)
    np.testing.assert_allclose(sol.p, cold.p, rtol=1e-10, atol=0.0)
    assert starts
    # each warm start is a subsolution of the map of the midpoint it starts
    for targets, p in starts:
        Ip = [min_power_response(inst, i, p, t) for i, t in enumerate(targets)]
        assert np.all(p <= Ip)


def _extreme_instance(K, sigma2_scale, coupling):
    inst = sampling.random_siso_instance(np.random.default_rng(K), K)
    Q = np.array(inst.Q)
    if coupling == "near-singular":
        # every column almost equal to every other: Q = 1 1^T + 1e-9 Id
        Q = np.ones((K, K)) + 1e-9 * np.eye(K)
    return dataclasses.replace(inst, Q=Q, sigma2=sigma2_scale * inst.sigma2)


def _assert_witness(inst, p, targets):
    assert np.all(p >= 0.0) and np.all(p <= inst.P + POWER_SLACK)
    lhs = outage_lhs_all(inst, p, np.where(p > 0, targets, 0.0))
    assert not np.isnan(lhs).any() and lhs.max() <= 1.0 + LHS_SLACK


@pytest.mark.parametrize("coupling", ["random", "near-singular"])
@pytest.mark.parametrize("sigma2_scale", [1e-12, 1.0, 1e6])
@pytest.mark.parametrize("K", [1, 2, 5])
def test_bisections_at_extremes_give_a_checked_witness_or_raise(
    K, sigma2_scale, coupling, monkeypatch
):
    # both bisections share one driver; at extreme noise, near-singular
    # coupling and K = 1 each returns a witness that passes the closed-form
    # recheck or raises, never a nan rate or a point over its budget.  At
    # sigma2 = 1e-12 an infeasible midpoint climbs from powers near 1e-12 to
    # the budget by a ratio close to 1 per sweep and meets any sweep cap; the
    # cap is lowered so that those cases raise in 1000 sweeps, not 10,000
    monkeypatch.setattr(solvers, "_SWEEP_CAP", 1000)
    inst = _extreme_instance(K, sigma2_scale, coupling)
    ub = mmf_upper_bound(inst)
    try:
        sol = mmf_bisection(inst, 1e-6 * ub)
    except (ValueError, ArithmeticError):
        pass
    else:
        assert 0.0 <= sol.R <= ub
        _assert_witness(inst, sol.p, inst.alpha * sol.R)
    targets = 0.25 * ub * inst.alpha
    try:
        rho, p = outage_balancing_siso(inst, targets)
    except (ValueError, ArithmeticError):
        return
    assert 0.0 < rho < 1.0
    _assert_witness(dataclasses.replace(inst, rho=np.full(K, rho)), p, targets)


@pytest.mark.parametrize("rho", [1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12])
@pytest.mark.parametrize("K", [1, 3, 8])
def test_bisections_at_extreme_rho(K, rho):
    # a floor near 0 makes every rate large; near 1 the interference-free
    # bound log2(1 + P_i Q_ii log(1/rho) / sigma2_i) falls toward 0, and
    # below a fixed delta the bisection has nothing to halve, so a delta
    # relative to the bound is tried as well
    inst = sampling.random_siso_instance(np.random.default_rng(100 + K), K)
    inst = dataclasses.replace(inst, rho=np.full(K, rho))
    ub = mmf_upper_bound(inst)
    for delta in (1e-5, 1e-6 * ub):
        sol = mmf_bisection(inst, delta)
        assert 0.0 <= sol.R <= ub
        _assert_witness(inst, sol.p, inst.alpha * sol.R)
        assert (sol.iterations == 0) == (ub < delta)
        if sol.iterations == 0:
            assert sol.R == 0.0
        assert sol.R + delta >= ub or not feasibility_fixed_point(inst, sol.R + delta).feasible
        # the MMF rates are supportable at rho, so the largest supporting
        # floor is at least rho, to within the bisection's tolerance
        tol = 0.1 * min(rho, 1.0 - rho)
        targets = inst.alpha * sol.R
        rho_star, p = outage_balancing_siso(inst, targets, tol=tol)
        assert rho - tol <= rho_star < 1.0
        _assert_witness(dataclasses.replace(inst, rho=np.full(K, rho_star)), p, targets)
