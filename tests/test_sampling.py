import numpy as np

from outagebf.model import (
    BeamformerSet,
    CnfFormula,
    MisoInstance,
    SisoInstance,
    WeightedGraph,
    validate,
)
from outagebf.oracles import exhaustive_3sat
from outagebf.sampling import (
    random_3cnf,
    random_beamformers,
    random_connected_graph,
    random_miso_instance,
    random_siso_instance,
    random_vertex_slice,
)


def test_siso_instances_validate_and_repeat():
    rng = np.random.default_rng(7)
    inst = random_siso_instance(rng, K=4)
    assert isinstance(inst, SisoInstance)
    assert validate(inst).ok
    again = random_siso_instance(np.random.default_rng(7), K=4)
    assert np.array_equal(inst.Q, again.Q)
    assert np.array_equal(inst.sigma2, again.sigma2)
    other = random_siso_instance(np.random.default_rng(8), K=4)
    assert not np.array_equal(inst.Q, other.Q)


def test_siso_instance_ranges():
    rng = np.random.default_rng(123)
    for _ in range(20):
        inst = random_siso_instance(rng, K=3)
        d = np.diag(inst.Q)
        off = inst.Q[~np.eye(3, dtype=bool)]
        assert np.all((d >= 0.6) & (d <= 1.6))
        assert np.all((off >= 0.0) & (off <= 0.35))
        assert np.all((inst.rho > 0) & (inst.rho < 1))
        assert np.all(inst.P > 0) and np.all(inst.alpha > 0)


def test_miso_instances_validate():
    rng = np.random.default_rng(11)
    for K, Nt in ((1, 1), (2, 2), (4, 3)):
        inst = random_miso_instance(rng, K=K, Nt=Nt)
        assert isinstance(inst, MisoInstance)
        assert inst.Qcov.shape == (K, K, Nt, Nt)
        assert validate(inst).ok


def test_random_beamformers_respect_budgets():
    rng = np.random.default_rng(5)
    inst = random_miso_instance(rng, K=3, Nt=2)
    beams = random_beamformers(rng, inst)
    assert isinstance(beams, BeamformerSet)
    assert np.all(beams.powers() <= inst.P + 1e-12)
    assert np.all(beams.powers() > 0)


def test_random_graphs_connected_and_weighted():
    rng = np.random.default_rng(3)
    for _ in range(25):
        V = int(rng.integers(2, 8))
        g = random_connected_graph(rng, V)
        assert isinstance(g, WeightedGraph)
        assert g.is_connected()
        assert g.E >= V - 1
        assert all(0 < w <= 1 for _, _, w in g.edges)


def test_random_3cnf_well_formed():
    rng = np.random.default_rng(9)
    seen_sat = seen_unsat = False
    for _ in range(60):
        cnf = random_3cnf(rng, N=3, M=10)
        assert isinstance(cnf, CnfFormula)
        assert len(cnf.clauses) == 10
        for clause in cnf.clauses:
            assert len({abs(l) for l in clause}) == 3
            assert all(1 <= abs(l) <= 3 for l in clause)
        sat, _ = exhaustive_3sat(cnf)
        seen_sat |= sat
        seen_unsat |= not sat
    # dense formulas on 3 variables: both outcomes show up across 60 draws
    assert seen_sat and seen_unsat


def test_random_vertex_slice_shape():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ctx = random_vertex_slice(rng)
        assert 0.0 <= ctx.partner_power < 1.0
        assert len(ctx.neighbors) <= 3
        for q, a in ctx.neighbors:
            assert 0.0 <= q < 1.0 and a > 0
        total = sum(a for _, a in ctx.neighbors)
        assert total < 0.5  # neighbor weights sum below one half by design


def test_vertex_slice_determinism():
    a = random_vertex_slice(np.random.default_rng(2))
    b = random_vertex_slice(np.random.default_rng(2))
    assert a.partner_power == b.partner_power
    assert a.neighbors == b.neighbors


def test_sampled_streams_are_frozen():
    # exact draws of one seed per generator: a changed range or draw order shows here
    siso = random_siso_instance(np.random.default_rng(0), K=2)
    assert siso.Q.tolist() == [
        [1.4132702392002723, 0.0944253498173546],
        [0.01434073337766814, 1.5127555772777217],
    ]
    assert siso.sigma2.tolist() == [1.067299353343898, 1.2024462170823984]
    assert siso.rho.tolist() == [0.8359062478663557, 0.933768105946942]
    assert siso.P.tolist() == [1.0710974878850723, 0.5019169501191036]
    assert siso.alpha.tolist() == [1.786106414881354, 0.5503783629581965]

    miso = random_miso_instance(np.random.default_rng(0), K=2, Nt=1)
    assert miso.Qcov.reshape(2, 2).tolist() == [
        [0.03325978340140712, 0.017949257035852886],
        [0.7225618442591929, 2.096534781500679],
    ]
    assert miso.sigma2.tolist() == [1.3158535541215322, 0.5027385001701481]
    assert miso.rho.tolist() == [0.9143510691468923, 0.708396393826366]

    # seed 36 draws 0.398 and 0.403 for two extra edges, so the 0.4 edge
    # probability is pinned from both sides
    graph = random_connected_graph(np.random.default_rng(36), 4)
    assert graph.edges == (
        (1, 2, 0.3169953769720284),
        (1, 3, 0.48891908478640533),
        (1, 4, 0.464573446917695),
        (2, 3, 0.12464554317970933),
    )

    ctx = random_vertex_slice(np.random.default_rng(4))
    assert ctx.partner_power == 0.8019012069858072
    assert ctx.neighbors == (
        (0.6073558319950296, 0.15724128856723113),
        (0.37648658437727256, 0.27468902951512003),
    )
