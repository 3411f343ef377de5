"""Seeded random instance generators for verification runs and tests."""

from __future__ import annotations

import numpy as np

from .model import BeamformerSet, CnfFormula, MisoInstance, SisoInstance, WeightedGraph
from .solvers import VertexSliceContext

__all__ = [
    "random_siso_instance",
    "random_miso_instance",
    "random_beamformers",
    "random_connected_graph",
    "random_3cnf",
    "random_vertex_slice",
]


def random_siso_instance(rng: np.random.Generator, K: int) -> SisoInstance:
    """Moderately coupled SISO instance with all parameters in sane ranges."""
    Q = rng.uniform(0.0, 0.35, size=(K, K))
    Q[np.diag_indices(K)] = rng.uniform(0.6, 1.6, size=K)
    return SisoInstance(
        Q=Q,
        sigma2=rng.uniform(0.4, 1.5, size=K),
        rho=rng.uniform(0.7, 0.95, size=K),
        P=rng.uniform(0.5, 1.2, size=K),
        alpha=rng.uniform(0.5, 2.0, size=K),
    )


def _random_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A @ A.conj().T) / n


def random_miso_instance(rng: np.random.Generator, K: int, Nt: int) -> MisoInstance:
    Qcov = np.zeros((K, K, Nt, Nt), dtype=np.complex128)
    for k in range(K):
        for i in range(K):
            scale = 1.0 if k == i else rng.uniform(0.05, 0.3)
            Qcov[k, i] = scale * _random_psd(rng, Nt)
    return MisoInstance(
        Qcov=Qcov,
        sigma2=rng.uniform(0.5, 1.5, size=K),
        rho=rng.uniform(0.7, 0.95, size=K),
        P=np.ones(K),
        alpha=np.ones(K),
    )


def random_beamformers(rng: np.random.Generator, instance: MisoInstance) -> BeamformerSet:
    """Random directions with powers strictly inside the budgets."""
    w = rng.standard_normal((instance.K, instance.Nt)) + 1j * rng.standard_normal(
        (instance.K, instance.Nt)
    )
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    target = np.sqrt(rng.uniform(0.4, 1.0, size=(instance.K, 1)) * instance.P[:, None])
    return BeamformerSet(w=w / norms * target)


def random_connected_graph(rng: np.random.Generator, V: int) -> WeightedGraph:
    """Random spanning tree plus Bernoulli(0.4) extra edges; weights in (0, 1]."""
    edges = set()
    for v in range(2, V + 1):
        u = int(rng.integers(1, v))
        edges.add((u, v))
    for i in range(1, V + 1):
        for j in range(i + 1, V + 1):
            if (i, j) not in edges and rng.uniform() < 0.4:
                edges.add((i, j))
    weighted = tuple((i, j, float(1.0 - rng.uniform())) for i, j in sorted(edges))
    return WeightedGraph(V=V, edges=weighted)


def random_3cnf(rng: np.random.Generator, N: int, M: int) -> CnfFormula:
    if N < 3:
        raise ValueError("need at least 3 variables for 3-literal clauses")
    clauses = []
    for _ in range(M):
        vars_ = rng.choice(N, size=3, replace=False) + 1
        signs = rng.choice([-1, 1], size=3)
        clauses.append(tuple(int(s * v) for s, v in zip(signs, vars_)))
    return CnfFormula(N=N, clauses=tuple(clauses))


def random_vertex_slice(rng: np.random.Generator) -> VertexSliceContext:
    """Random single-coordinate context with 0 to 3 incident edges."""
    n = int(rng.integers(0, 4))
    weights = rng.uniform(0.1, 1.0, size=n)
    total = float(np.sum(weights) + rng.uniform(0.0, 3.0))
    neighbors = tuple(
        (float(rng.uniform()), float(w / (2.0 * total))) for w in weights
    )
    return VertexSliceContext(
        partner_power=float(rng.uniform()), neighbors=neighbors
    )
