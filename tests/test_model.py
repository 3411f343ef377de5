
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from outagebf import model
from outagebf.model import (
    BeamformerSet,
    CnfFormula,
    MisoInstance,
    ParseError,
    SisoInstance,
    UserMap,
    WeightedGraph,
    beams_from_powers,
    validate,
)


def test_siso_instance_locks_arrays(two_user_instance):
    inst = two_user_instance
    assert inst.K == 2
    with pytest.raises(ValueError):
        inst.Q[0, 0] = 5.0
    with pytest.raises(ValueError):
        inst.rho[0] = 0.5


def test_siso_instance_shape_errors():
    with pytest.raises(ValueError, match="square"):
        SisoInstance(Q=[[1.0, 0.0]], sigma2=[1.0], rho=[0.9], P=[1.0], alpha=[1.0])
    with pytest.raises(ValueError, match="shape"):
        SisoInstance(Q=[[1.0]], sigma2=[1.0, 2.0], rho=[0.9], P=[1.0], alpha=[1.0])
    with pytest.raises(ValueError, match="non-finite"):
        SisoInstance(Q=[[np.inf]], sigma2=[1.0], rho=[0.9], P=[1.0], alpha=[1.0])


def test_to_miso_roundtrip(two_user_instance):
    miso = two_user_instance.to_miso()
    assert miso.Nt == 1
    assert np.allclose(miso.Qcov[:, :, 0, 0].real, two_user_instance.Q)
    assert np.all(miso.Qcov.imag == 0)


def test_validate_accepts_good_instance(two_user_instance):
    rep = validate(two_user_instance)
    assert rep.ok and rep.violations == []


def test_validate_flags_bad_scalars():
    inst = SisoInstance(
        Q=[[1.0, 0.1], [0.1, 1.0]],
        sigma2=[1.0, 1.0],
        rho=[1.0, 0.5],  # rho must be strictly inside (0, 1)
        P=[1.0, -1.0],
        alpha=[1.0, 1.0],
    )
    rep = validate(inst)
    assert not rep.ok
    text = "\n".join(rep.violations)
    assert "rho[0]" in text and "P[1]" in text


def test_validate_flags_negative_coupling_and_dead_link():
    inst = SisoInstance(
        Q=[[1.0, -0.1], [0.1, 0.0]],
        sigma2=[1.0, 1.0],
        rho=[0.9, 0.9],
        P=[1.0, 1.0],
        alpha=[1.0, 1.0],
    )
    rep = validate(inst)
    assert not rep.ok
    text = "\n".join(rep.violations)
    assert "Q[0,1]" in text
    assert "direct link" in text


def test_validate_flags_hermitian_drift_and_indefinite_block():
    Qcov = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    eye = np.eye(2)
    Qcov[0, 0] = eye
    Qcov[1, 1] = eye
    Qcov[0, 1] = np.array([[1.0, 0.5], [0.2, 1.0]])  # visibly non-Hermitian
    Qcov[1, 0] = np.diag([1.0, -1e-6])  # Hermitian but indefinite
    inst = MisoInstance(
        Qcov=Qcov, sigma2=[1.0, 1.0], rho=[0.9, 0.9], P=[1.0, 1.0], alpha=[1.0, 1.0]
    )
    rep = validate(inst)
    text = "\n".join(rep.violations)
    assert "Hermitian drift" in text
    assert "min eigenvalue" in text


def test_beamformer_powers():
    w = np.array([[1.0, 1.0j], [0.0, 2.0]])
    assert np.allclose(BeamformerSet(w=w).powers(), [2.0, 4.0])


def test_beams_from_powers():
    beams = beams_from_powers([0.25, 1.0, 0.0])
    assert beams.Nt == 1
    assert np.allclose(beams.powers(), [0.25, 1.0, 0.0])
    with pytest.raises(ValueError):
        beams_from_powers([-0.1])


def test_graph_normalizes_and_rejects():
    g = WeightedGraph(V=3, edges=((3, 1, 2.0), (1, 2, 1.0)))
    assert g.edges == ((1, 3, 2.0), (1, 2, 1.0))
    assert g.E == 2
    assert g.total_weight() == 3.0
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(V=2, edges=((1, 1, 1.0),))
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph(V=2, edges=((1, 2, 1.0), (2, 1, 3.0)))
    with pytest.raises(ValueError, match="out of vertex range"):
        WeightedGraph(V=2, edges=((1, 3, 1.0),))
    with pytest.raises(ValueError, match="positive"):
        WeightedGraph(V=2, edges=((1, 2, 0.0),))


def test_graph_cut_weight_and_connectivity(path_graph):
    assert path_graph.cut_weight({2}) == 2.0
    assert path_graph.cut_weight({1, 3}) == 2.0
    assert path_graph.cut_weight(()) == 0.0
    assert path_graph.cut_weight({1}) == 1.0
    assert path_graph.is_connected()
    assert not WeightedGraph(V=3, edges=((1, 2, 1.0),)).is_connected()
    assert WeightedGraph(V=1, edges=()).is_connected()


def test_cnf_validation():
    with pytest.raises(ValueError, match="exactly 3"):
        CnfFormula(N=3, clauses=((1, 2),))
    with pytest.raises(ValueError, match="repeats"):
        CnfFormula(N=3, clauses=((1, -1, 2),))
    with pytest.raises(ValueError, match="outside"):
        CnfFormula(N=3, clauses=((1, 2, 4),))


def test_cnf_evaluate(small_cnf):
    assert small_cnf.evaluate((0, 0, 1, 0))
    assert not small_cnf.evaluate((0, 0, 0, 0))  # first clause all false
    assert not small_cnf.evaluate((0, 0, 1, 1))  # second clause all false
    with pytest.raises(ValueError):
        small_cnf.evaluate((0, 0, 0))


def test_usermap_bijection():
    um = UserMap(roles=(("vertex", 1, 0), ("vertex", 1, 1), ("edge", 1, 2)))
    assert um.K == 3
    assert um.vertex(1, 1) == 1
    assert um.edge(1, 2) == 2
    assert um.role(0) == ("vertex", 1, 0)
    with pytest.raises(KeyError):
        um.clause(1)
    with pytest.raises(ValueError, match="duplicate"):
        UserMap(roles=(("clause", 1), ("clause", 1)))


# -- JSON round trips --------------------------------------------------------

def test_json_roundtrip_siso(two_user_instance):
    back = model.loads(model.dumps(two_user_instance))
    assert isinstance(back, SisoInstance)
    assert np.array_equal(back.Q, two_user_instance.Q)
    assert np.array_equal(back.rho, two_user_instance.rho)


def test_json_roundtrip_miso():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    Qcov = np.zeros((1, 1, 2, 2), dtype=np.complex128)
    Qcov[0, 0] = A @ A.conj().T
    inst = MisoInstance(Qcov=Qcov, sigma2=[1.0], rho=[0.9], P=[1.0], alpha=[1.0])
    back = model.loads(model.dumps(inst))
    assert np.allclose(back.Qcov, inst.Qcov)


def test_json_decode_resymmetrizes_miso():
    d = model.to_json_dict(
        MisoInstance(
            Qcov=np.eye(2, dtype=np.complex128).reshape(1, 1, 2, 2),
            sigma2=[1.0],
            rho=[0.9],
            P=[1.0],
            alpha=[1.0],
        )
    )
    d["Qcov"][0][0][0][1] = [0.3, 0.0]  # introduce one-sided asymmetry
    back = model.from_json_dict(d)
    drift = np.max(np.abs(back.Qcov[0, 0] - back.Qcov[0, 0].conj().T))
    assert drift == 0.0
    assert back.Qcov[0, 0, 0, 1] == pytest.approx(0.15)


def test_json_roundtrip_other_types(path_graph, small_cnf):
    beams = BeamformerSet(w=np.array([[1.0 + 2.0j, 0.5], [0.0, -1.0j]]))
    um = UserMap(roles=(("vertex", 1, 0), ("clause", 2)))
    for obj in (path_graph, small_cnf, beams, um):
        back = model.loads(model.dumps(obj))
        assert type(back) is type(obj)
    assert model.loads(model.dumps(path_graph)).edges == path_graph.edges
    assert model.loads(model.dumps(small_cnf)).clauses == small_cnf.clauses
    assert np.array_equal(model.loads(model.dumps(beams)).w, beams.w)
    assert model.loads(model.dumps(um)).roles == um.roles


def test_json_rejects_bad_payloads(two_user_instance):
    d = model.to_json_dict(two_user_instance)
    d["version"] = 99
    with pytest.raises(ValueError, match="version"):
        model.from_json_dict(d)
    d = model.to_json_dict(two_user_instance)
    d["K"] = 3
    with pytest.raises(ValueError, match="does not match"):
        model.from_json_dict(d)
    with pytest.raises(ValueError, match="type"):
        model.from_json_dict({"version": 1})
    with pytest.raises(ValueError, match="unknown"):
        model.from_json_dict({"version": 1, "type": "Gadget"})
    d = model.to_json_dict(two_user_instance)
    del d["rho"]
    with pytest.raises(ValueError, match="missing field"):
        model.from_json_dict(d)


# -- DIMACS-like text formats ------------------------------------------------

def test_read_graph_dimacs():
    text = "c comment\np edge 3 2\ne 1 2 1.5\ne 2 3\n"
    g = model.read_graph_dimacs(text)
    assert g.V == 3
    assert g.edges == ((1, 2, 1.5), (2, 3, 1.0))  # weight defaults to 1


def test_graph_dimacs_roundtrip(path_graph):
    back = model.read_graph_dimacs(model.write_graph_dimacs(path_graph))
    assert back.V == path_graph.V and back.edges == path_graph.edges


def test_read_graph_dimacs_errors():
    with pytest.raises(ParseError, match="missing 'p edge"):
        model.read_graph_dimacs("c nothing here\n")
    with pytest.raises(ParseError, match="before 'p edge'"):
        model.read_graph_dimacs("e 1 2 1.0\n")
    with pytest.raises(ParseError, match="header declares"):
        model.read_graph_dimacs("p edge 2 2\ne 1 2 1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        model.read_graph_dimacs("p edge 2 1\nz 1 2\n")
    err = None
    try:
        model.read_graph_dimacs("p edge 2 2\ne 1 2 1.0\ne 2 1 1.0\n")
    except ParseError as e:
        err = e
    assert err is not None and err.line == 3  # duplicate reported at its line


def test_read_cnf_dimacs_multiline_and_percent():
    text = "c header\np cnf 4 2\n1 2\n3 0\n2 -3 -4 0\n%\n0\n"
    f = model.read_cnf_dimacs(text)
    assert f.N == 4
    assert f.clauses == ((1, 2, 3), (2, -3, -4))


def test_cnf_dimacs_roundtrip(small_cnf):
    back = model.read_cnf_dimacs(model.write_cnf_dimacs(small_cnf))
    assert back.N == small_cnf.N and back.clauses == small_cnf.clauses


def test_read_cnf_dimacs_errors():
    with pytest.raises(ParseError, match="unterminated"):
        model.read_cnf_dimacs("p cnf 3 1\n1 2 3\n")
    with pytest.raises(ParseError, match="exactly 3"):
        model.read_cnf_dimacs("p cnf 3 1\n1 2 0\n")
    with pytest.raises(ParseError, match="header declares"):
        model.read_cnf_dimacs("p cnf 3 2\n1 2 3 0\n")
    with pytest.raises(ParseError, match="before 'p cnf'"):
        model.read_cnf_dimacs("1 2 3 0\n")
    with pytest.raises(ParseError, match="non-integer literal"):
        model.read_cnf_dimacs("p cnf 3 1\n1 x 3 0\n")


def test_parse_error_carries_line():
    try:
        model.read_graph_dimacs("p edge 1 1\np edge 1 1\n")
    except ParseError as e:
        assert e.line == 2
        assert "line 2" in str(e)
    else:
        pytest.fail("duplicate problem line not caught")


# -- round-trip properties ---------------------------------------------------

# magnitudes up to 1e300, so that the Hermitian blocks below cannot overflow
_FLOATS = st.floats(-1e300, 1e300, allow_subnormal=True)
_POSITIVE = st.floats(0.0, 1e300, exclude_min=True, allow_subnormal=True)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _model_objects(draw):
    K = draw(st.integers(1, 4))
    vec = arrays(np.float64, K, elements=_FLOATS)
    kind = draw(st.sampled_from(["siso", "miso", "beams"]))
    if kind == "siso":
        return SisoInstance(
            Q=draw(arrays(np.float64, (K, K), elements=_FLOATS)),
            sigma2=draw(vec), rho=draw(vec), P=draw(vec), alpha=draw(vec),
        )
    Nt = draw(st.integers(1, 3))
    re, im = (draw(arrays(np.float64, (K, K, Nt, Nt), elements=_FLOATS)) for _ in range(2))
    B = re + 1j * im
    if kind == "beams":
        return BeamformerSet(w=B[0, :, 0, :])
    # B + B^H is Hermitian to the bit, which the decoder's symmetrization keeps
    Qcov = B + np.conj(np.swapaxes(B, 2, 3))
    return MisoInstance(Qcov=Qcov, sigma2=draw(vec), rho=draw(vec), P=draw(vec), alpha=draw(vec))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(obj=_model_objects())
def test_json_roundtrip_keeps_every_bit(obj):
    back = model.loads(model.dumps(obj))
    assert type(back) is type(obj)
    for name in ("Q", "Qcov", "sigma2", "rho", "P", "alpha", "w"):
        if hasattr(obj, name):
            assert _same_bits(getattr(back, name), getattr(obj, name)), name
    assert model.dumps(back) == model.dumps(obj)


@st.composite
def _graphs(draw):
    V = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(1, V + 1) for j in range(i + 1, V + 1)]
    edges = []
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])):
        w = draw(_POSITIVE)
        edges.append((j, i, w) if draw(st.booleans()) else (i, j, w))  # stored as i < j
    return WeightedGraph(V=V, edges=tuple(edges))


@st.composite
def _formulas(draw):
    N = draw(st.integers(3, 8))
    clause = st.lists(st.integers(1, N), min_size=3, max_size=3, unique=True).flatmap(
        lambda vs: st.tuples(*(st.sampled_from([v, -v]) for v in vs))
    )
    return CnfFormula(N=N, clauses=tuple(draw(st.lists(clause, max_size=12))))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(g=_graphs())
def test_graph_roundtrips_through_json_and_dimacs(g):
    text = model.write_graph_dimacs(g)
    for back in (model.read_graph_dimacs(text), model.loads(model.dumps(g))):
        assert back.V == g.V and back.edges == g.edges
    assert model.write_graph_dimacs(model.read_graph_dimacs(text)) == text


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(f=_formulas())
def test_cnf_roundtrips_through_json_and_dimacs(f):
    text = model.write_cnf_dimacs(f)
    for back in (model.read_cnf_dimacs(text), model.loads(model.dumps(f))):
        assert back.N == f.N and back.clauses == f.clauses
    assert model.write_cnf_dimacs(model.read_cnf_dimacs(text)) == text
