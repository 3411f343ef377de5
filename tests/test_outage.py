import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import lhs_direct, mc_outage_direct, rate_cap
from outagebf import sampling
from outagebf.model import BeamformerSet, MisoInstance, beams_from_powers
from outagebf.outage import (
    instantaneous_rate,
    mc_outage,
    outage_lhs,
    outage_lhs_all,
    outage_lhs_siso,
)
from outagebf.zeta import ZetaContext, solve_zeta


def test_lhs_siso_frozen(two_user_instance):
    p = [0.8, 0.6]
    # values frozen from a literal transcription of the closed form
    assert outage_lhs_siso(two_user_instance, p, 0.25, 0) == pytest.approx(
        1.0273521064701827, rel=1e-12
    )
    assert outage_lhs_siso(two_user_instance, p, 0.4, 1) == pytest.approx(
        1.3270280650851043, rel=1e-12
    )


def test_lhs_zero_rate_returns_rho(two_user_instance):
    assert outage_lhs_siso(two_user_instance, [0.5, 0.5], 0.0, 0) == 0.9
    assert outage_lhs_siso(two_user_instance, [0.0, 0.0], 0.0, 1) == 0.85


def test_lhs_zero_signal_positive_rate_raises(two_user_instance):
    with pytest.raises(ValueError, match="zero received signal power"):
        outage_lhs_siso(two_user_instance, [0.0, 0.5], 0.1, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        outage_lhs_siso(two_user_instance, [0.5, 0.5], -0.1, 0)


def test_lhs_matches_oracle_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(25):
        K = int(rng.integers(1, 5))
        inst = sampling.random_siso_instance(rng, K)
        p = rng.uniform(0.0, 1.0, size=K)
        i = int(rng.integers(K))
        if p[i] == 0.0:
            p[i] = 0.5
        R = float(rng.uniform(0.01, 1.0))
        s = inst.Q[i, i] * p[i]
        g = [inst.Q[k, i] * p[k] for k in range(K) if k != i]
        assert outage_lhs_siso(inst, p, R, i) == pytest.approx(
            lhs_direct(inst.rho[i], inst.sigma2[i], s, g, R), rel=1e-12
        )


def test_lhs_increasing_in_rate(two_user_instance):
    p = [0.9, 0.7]
    vals = [outage_lhs_siso(two_user_instance, p, R, 0) for R in (0.0, 0.1, 0.2, 0.5)]
    assert vals == sorted(vals)
    assert vals[0] == 0.9


def test_lhs_one_at_zeta_rate(two_user_instance):
    # R = log2(1 + s * zeta(interference)) makes the constraint an equality
    p = [0.8, 0.6]
    i = 0
    s = float(two_user_instance.Q[i, i] * p[i])
    g = tuple(float(two_user_instance.Q[k, i] * p[k]) for k in (1,))
    z = solve_zeta(ZetaContext(sigma2=0.5, rho=0.9, terms=g))
    R = math.log1p(s * z) / math.log(2.0)
    assert outage_lhs_siso(two_user_instance, p, R, i) == pytest.approx(1.0, abs=1e-12)


def test_miso_lhs_equals_siso_on_lifted_instance(two_user_instance):
    p = np.array([0.7, 0.45])
    miso = two_user_instance.to_miso()
    beams = beams_from_powers(p)
    for i, R in ((0, 0.3), (1, 0.12)):
        assert outage_lhs(miso, beams, R, i) == pytest.approx(
            outage_lhs_siso(two_user_instance, p, R, i), rel=1e-13
        )


def test_miso_lhs_phase_invariant():
    rng = np.random.default_rng(9)
    inst = sampling.random_miso_instance(rng, 3, 2)
    beams = sampling.random_beamformers(rng, inst)
    phased = BeamformerSet(w=beams.w * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 1))))
    for i in range(3):
        assert outage_lhs(inst, phased, 0.4, i) == pytest.approx(
            outage_lhs(inst, beams, 0.4, i), rel=1e-12
        )


def test_lhs_all_matches_per_user(two_user_instance):
    p = np.array([0.8, 0.6])
    R = np.array([0.25, 0.4])
    lhs = outage_lhs_all(two_user_instance, p, R)
    for i in range(2):
        assert lhs[i] == outage_lhs_siso(two_user_instance, p, float(R[i]), i)

    rng = np.random.default_rng(13)
    miso = sampling.random_miso_instance(rng, 3, 2)
    beams = sampling.random_beamformers(rng, miso)
    R3 = np.array([0.2, 0.0, 0.7])
    lhs3 = outage_lhs_all(miso, beams, R3)
    for i in range(3):
        assert lhs3[i] == outage_lhs(miso, beams, float(R3[i]), i)


def test_lhs_all_shape_check(two_user_instance):
    with pytest.raises(ValueError, match="shape"):
        outage_lhs_all(two_user_instance, [0.5, 0.5], [0.1])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 12),
    zero_rate=st.integers(0, 2**12 - 1),
    zero_power=st.integers(0, 2**12 - 1),
    lifted=st.booleans(),
)
def test_lhs_all_matches_oracle_and_reads_each_user_alone(seed, K, zero_rate, zero_power, lifted):
    # bit i of zero_rate sets R_i = 0, bit i of zero_power also p_i = 0
    rng = np.random.default_rng(seed)
    inst = sampling.random_siso_instance(rng, K)
    bits = 1 << np.arange(K)
    p = np.where(zero_power & bits, 0.0, rng.uniform(0.05, 1.2, size=K))
    R = np.where((zero_rate | zero_power) & bits, 0.0, rng.uniform(1e-3, 2.0, size=K))
    x = inst, p
    if lifted:
        x = inst.to_miso(), beams_from_powers(p)
    lhs = outage_lhs_all(*x, R)
    for i in range(K):
        s = inst.Q[i, i] * p[i]
        g = [inst.Q[k, i] * p[k] for k in range(K) if k != i]
        want = lhs_direct(inst.rho[i], inst.sigma2[i], s, g, R[i])
        assert lhs[i] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert lhs[i] == outage_lhs_all(*x, np.where(np.arange(K) == i, R, 0.0))[i]
        if R[i] == 0.0:
            assert lhs[i] == inst.rho[i]
    with pytest.raises(ValueError, match="shape"):
        outage_lhs_all(*x, np.append(R, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        outage_lhs_all(*x, np.where(np.arange(K) == K - 1, -1e-300, R))
    if p.any():
        with pytest.raises(ArithmeticError):  # 2^R - 1 overflows: an error, not nan
            outage_lhs_all(*x, np.where(p > 0, 1100.0, 0.0))
    if zero_power & (1 << (K - 1)):
        with pytest.raises(ValueError, match="zero received signal power"):
            outage_lhs_all(*x, np.where(np.arange(K) == K - 1, 0.5, R))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 6),
    tiny=st.floats(5e-324, 2e-308),
    rate=st.floats(0.01, 2.0),
)
def test_subnormal_signal_at_positive_rate_is_inf_not_nan(seed, K, tiny, rate):
    # user 0 receives a subnormal signal; zero gains from silent users must
    # not turn its LHS into nan
    rng = np.random.default_rng(seed)
    inst = sampling.random_siso_instance(rng, K)
    p = rng.uniform(0.05, 1.2, size=K) * (rng.uniform(size=K) < 0.5)
    p[0] = tiny
    assume(inst.Q[0, 0] * tiny > 0.0)
    R = np.where(p > 0, rng.uniform(0.01, 2.0, size=K), 0.0)
    R[0] = rate
    lhs = outage_lhs_all(inst, p, R)
    assert lhs[0] == math.inf
    assert not np.isnan(lhs).any()


def test_instantaneous_rate():
    beams = BeamformerSet(w=np.array([[2.0 + 0.0j], [1.0 + 0.0j]]))
    channels = np.array([[1.0 + 0.0j], [1.0 + 0.0j]])
    # |h_0^H w_0|^2 = 4 signal, |h_1^H w_1|^2 = 1 interference, noise 1
    assert instantaneous_rate(channels, beams, 0, 1.0) == pytest.approx(
        math.log2(1.0 + 4.0 / 2.0)
    )
    assert instantaneous_rate(channels, beams, 1, 1.0) == pytest.approx(
        math.log2(1.0 + 1.0 / 5.0)
    )


def test_mc_outage_matches_closed_form_target():
    rng = np.random.default_rng(4)
    inst = sampling.random_miso_instance(rng, 2, 2)
    beams = sampling.random_beamformers(rng, inst)
    i = 0
    wi = beams.w[i]
    s = float(np.real(wi.conj() @ inst.Qcov[i, i] @ wi))
    g = tuple(
        max(float(np.real(beams.w[k].conj() @ inst.Qcov[k, i] @ beams.w[k])), 0.0)
        for k in range(2)
        if k != i
    )
    z = solve_zeta(ZetaContext(sigma2=float(inst.sigma2[i]), rho=float(inst.rho[i]), terms=g))
    R = math.log1p(s * z) / math.log(2.0)
    assert outage_lhs(inst, beams, R, i) == pytest.approx(1.0, abs=1e-10)
    est, se = mc_outage(inst, beams, R, i, 200_000, seed=17)
    target = 1.0 - float(inst.rho[i])
    assert se == pytest.approx(math.sqrt(est * (1 - est) / 200_000))
    assert abs(est - target) <= 3.0 * se


def test_mc_outage_deterministic():
    rng = np.random.default_rng(21)
    inst = sampling.random_miso_instance(rng, 2, 3)
    beams = sampling.random_beamformers(rng, inst)
    a = mc_outage(inst, beams, 0.5, 1, 70_000, seed=5)
    b = mc_outage(inst, beams, 0.5, 1, 70_000, seed=5)
    c = mc_outage(inst, beams, 0.5, 1, 70_000, seed=6)
    assert a == b
    assert a != c


def test_mc_outage_chunking_invariant():
    # one chunk boundary inside the run must not alter the stream
    rng = np.random.default_rng(2)
    inst = sampling.random_miso_instance(rng, 1, 2)
    beams = sampling.random_beamformers(rng, inst)
    est_small, _ = mc_outage(inst, beams, 0.3, 0, 65_536, seed=3)
    est_two, _ = mc_outage(inst, beams, 0.3, 0, 131_072, seed=3)
    # the first chunk of the longer run reproduces the shorter run exactly
    count_small = round(est_small * 65_536)
    count_two = round(est_two * 131_072)
    assert count_two >= count_small  # prefix counts can only grow


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537])
def test_mc_outage_reproducible_at_chunk_boundary(n):
    rng = np.random.default_rng(2)
    inst = sampling.random_miso_instance(rng, 2, 2)
    beams = sampling.random_beamformers(rng, inst)
    assert mc_outage(inst, beams, 2.0, 0, n, seed=1) == mc_outage(inst, beams, 2.0, 0, n, seed=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mc_outage_one_sample_past_a_chunk_adds_zero_or_one(seed):
    # n = 65537 is the 65536-sample run plus one sample in a second chunk
    rng = np.random.default_rng(2)
    inst = sampling.random_miso_instance(rng, 2, 2)
    beams = sampling.random_beamformers(rng, inst)
    count_full = round(mc_outage(inst, beams, 2.0, 0, 65_536, seed=seed)[0] * 65_536)
    count_next = round(mc_outage(inst, beams, 2.0, 0, 65_537, seed=seed)[0] * 65_537)
    assert count_next - count_full in (0, 1)


def test_mc_outage_zero_rate():
    rng = np.random.default_rng(8)
    inst = sampling.random_miso_instance(rng, 1, 1)
    beams = sampling.random_beamformers(rng, inst)
    assert mc_outage(inst, beams, 0.0, 0, 1000, seed=0) == (0.0, 0.0)


def test_mc_outage_argument_validation():
    rng = np.random.default_rng(8)
    inst = sampling.random_miso_instance(rng, 1, 1)
    beams = sampling.random_beamformers(rng, inst)
    with pytest.raises(ValueError):
        mc_outage(inst, beams, 0.1, 0, 0, seed=0)
    with pytest.raises(ValueError):
        mc_outage(inst, beams, -0.1, 0, 100, seed=0)


def test_mc_outage_rejects_indefinite_covariance():
    Qcov = np.zeros((1, 1, 2, 2), dtype=np.complex128)
    Qcov[0, 0] = np.diag([1.0, -1e-6])
    inst = MisoInstance(Qcov=Qcov, sigma2=[1.0], rho=[0.9], P=[1.0], alpha=[1.0])
    beams = BeamformerSet(w=np.array([[1.0 + 0.0j, 0.0]]))
    with pytest.raises(ValueError, match="not PSD"):
        mc_outage(inst, beams, 0.2, 0, 1000, seed=0)


def test_user_index_out_of_range_raises():
    # a negative index must not wrap around to user K - 1
    rng = np.random.default_rng(8)
    miso = sampling.random_miso_instance(rng, 3, 2)
    beams = sampling.random_beamformers(rng, miso)
    siso = sampling.random_siso_instance(rng, 3)
    for i in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            mc_outage(miso, beams, 0.2, i, 100, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            mc_outage(miso, beams, 0.0, i, 100, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            outage_lhs(miso, beams, 0.2, i)
        with pytest.raises(ValueError, match="out of range"):
            outage_lhs_siso(siso, [0.5, 0.5, 0.5], 0.2, i)
        with pytest.raises(ValueError, match="out of range"):
            instantaneous_rate(np.ones((3, 2)), beams, i, 1.0)


def _rank_one_instance(rng, K, Nt):
    Qcov = np.zeros((K, K, Nt, Nt), dtype=np.complex128)
    for k in range(K):
        for i in range(K):
            v = rng.standard_normal(Nt) + 1j * rng.standard_normal(Nt)
            Qcov[k, i] = (1.0 if k == i else 0.2) * np.outer(v, v.conj())
    return MisoInstance(
        Qcov=Qcov, sigma2=[0.8] * K, rho=[0.85] * K, P=[1.0] * K, alpha=[1.0] * K
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: sampling.random_miso_instance(rng, 1, 1),
        lambda rng: sampling.random_miso_instance(rng, 3, 4),
        lambda rng: _rank_one_instance(rng, 2, 3),
    ],
    ids=["K1-Nt1", "K3-Nt4", "rank-one"],
)
def test_mc_outage_agrees_with_channel_level_oracle(make):
    # the oracle draws whole channel vectors through its own factorization;
    # at the tight rate both estimates are binomial with mean 1 - rho_i, so
    # each must sit within 5 standard deviations of it and of each other
    rng = np.random.default_rng(31)
    inst = make(rng)
    beams = sampling.random_beamformers(rng, inst)
    w, n = beams.w, 100_000

    def quad(k, i):
        return float(np.real(w[k].conj() @ inst.Qcov[k, i] @ w[k]))

    for i in range(inst.K):
        rho = float(inst.rho[i])
        interference = [quad(k, i) for k in range(inst.K) if k != i]
        R = rate_cap(rho, float(inst.sigma2[i]), quad(i, i), interference)
        direct = mc_outage_direct(inst, w, R, i, n, seed=1000 + i)
        est, _ = mc_outage(inst, beams, R, i, n, seed=2000 + i)
        sd = math.sqrt(rho * (1.0 - rho) / n)
        assert abs(direct - (1.0 - rho)) <= 5.0 * sd
        assert abs(est - direct) <= 5.0 * math.sqrt(2.0) * sd


def test_rate_cap_oracle_consistency(three_user_instance):
    # the largest feasible rate found by direct bisection satisfies LHS = 1
    inst = three_user_instance
    p = [0.9, 0.5, 0.8]
    for i in range(3):
        s = float(inst.Q[i, i] * p[i])
        g = [float(inst.Q[k, i] * p[k]) for k in range(3) if k != i]
        R = rate_cap(float(inst.rho[i]), float(inst.sigma2[i]), s, g)
        assert outage_lhs_siso(inst, p, R, i) == pytest.approx(1.0, abs=1e-9)
