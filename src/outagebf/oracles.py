"""Brute-force references the solvers and reductions are tested against.

Everything here trades time for certainty: exhaustive enumeration and dense
lattice scans with hard size guards, first-found tie-breaking, and no reuse
of the code paths under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CnfFormula, WeightedGraph
from .reductions import EDGE_BUDGET, GADGET_RHO, GADGET_SIGMA2, MaxCutGadget, powers_from_cut
from .solvers import srm_rates_from_powers
from .zeta import zeta_roots

__all__ = [
    "exhaustive_maxcut",
    "exhaustive_3sat",
    "discrete_srm_search",
    "GridSpec",
    "grid_search",
    "vectorize_scalar",
    "gadget_grid_objective",
    "SignChangeSummary",
    "sign_pattern",
]

_MAXCUT_LIMIT = 24
_SAT_LIMIT = 24
_SRM_LIMIT = 20
_GRID_LIMIT = 100_000_000


def exhaustive_maxcut(graph: WeightedGraph):
    """Optimal cut by enumerating all 2^V subsets (V <= 24).

    Ties break to the lowest subset bitmask with vertex 1 as the least
    significant bit, i.e. the three-vertex path prefers S = (2,) over (1, 3).
    Returns (S, cutweight) with S a sorted vertex tuple.
    """
    if graph.V > _MAXCUT_LIMIT:
        raise ValueError(f"exhaustive max-cut limited to {_MAXCUT_LIMIT} vertices")
    masks = np.arange(1 << graph.V, dtype=np.int64)
    total = np.zeros(len(masks))
    for i, j, w in graph.edges:
        crossing = ((masks >> (i - 1)) & 1) != ((masks >> (j - 1)) & 1)
        total += w * crossing
    best = int(np.argmax(total))  # first max = lowest mask
    S = tuple(v for v in range(1, graph.V + 1) if (best >> (v - 1)) & 1)
    return S, graph.cut_weight(S)


def exhaustive_3sat(cnf: CnfFormula):
    """Satisfiability by enumerating all 2^N assignments (N <= 24).

    Returns (satisfiable, witness); the witness is the lexicographically
    smallest satisfying assignment as a 0/1 tuple with x_1 most significant,
    or None when unsatisfiable.
    """
    if cnf.N > _SAT_LIMIT:
        raise ValueError(f"exhaustive 3-SAT limited to {_SAT_LIMIT} variables")
    N = cnf.N
    masks = np.arange(1 << N, dtype=np.int64)
    sat = np.ones(len(masks), dtype=bool)
    for clause in cnf.clauses:
        csat = np.zeros(len(masks), dtype=bool)
        for lit in clause:
            bit = (masks >> (N - abs(lit))) & 1
            csat |= (bit == 1) if lit > 0 else (bit == 0)
        sat &= csat
    idx = np.flatnonzero(sat)
    if idx.size == 0:
        return False, None
    a = int(idx[0])
    return True, tuple((a >> (N - n)) & 1 for n in range(1, N + 1))


def discrete_srm_search(gadget: MaxCutGadget):
    """Best discrete pattern by scoring all 2^V cut encodings (V <= 20).

    Evaluates the weighted sum of srm_rates_from_powers at every
    powers_from_cut pattern; ties break to the lowest cut bitmask.
    Returns (best power vector, weighted sum rate).
    """
    V = gadget.graph.V
    if V > _SRM_LIMIT:
        raise ValueError(f"discrete pattern search limited to {_SRM_LIMIT} vertices")
    alpha = gadget.instance.alpha
    best_val = -math.inf
    best_p = None
    for mask in range(1 << V):
        S = [v for v in range(1, V + 1) if (mask >> (v - 1)) & 1]
        p = powers_from_cut(S, gadget)
        val = float(alpha @ srm_rates_from_powers(gadget.instance, p))
        if val > best_val:
            best_val = val
            best_p = p
    return best_p, best_val


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lattice: per-dimension lower/upper bounds and step."""

    lower: tuple
    upper: tuple
    step: tuple

    def __post_init__(self):
        lo = tuple(float(x) for x in self.lower)
        hi = tuple(float(x) for x in self.upper)
        st = tuple(float(x) for x in self.step)
        if not len(lo) == len(hi) == len(st):
            raise ValueError("lower/upper/step must have equal lengths")
        if any(s <= 0 for s in st) or any(h < l for l, h in zip(lo, hi)):
            raise ValueError("need step > 0 and upper >= lower")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "step", st)

    def axes(self):
        out = []
        for l, h, s in zip(self.lower, self.upper, self.step):
            n = int(math.floor((h - l) / s + 1e-9)) + 1
            out.append(l + s * np.arange(n))
        return out

    def n_points(self) -> int:
        return math.prod(len(a) for a in self.axes())


def vectorize_scalar(f):
    """Adapt a scalar objective f(point) to the batch contract of grid_search."""

    def batched(points):
        return np.array([f(p) for p in points], dtype=np.float64)

    return batched


def grid_search(objective, grid: GridSpec, batch_size: int = 1 << 18):
    """Exhaustive lattice maximization (at most 1e8 points).

    ``objective`` receives an (n, d) array of lattice points and returns n
    values (wrap plain scalar functions with :func:`vectorize_scalar`).
    Points are visited in lexicographic order, first dimension slowest; ties
    break to the first point visited, so a constant objective returns the
    all-lower-bounds corner.  Returns (best point, best value).
    """
    axes = grid.axes()
    shape = tuple(len(a) for a in axes)
    # plain-int product: np.prod would wrap silently on huge grids
    total = math.prod(shape)
    if total > _GRID_LIMIT:
        raise ValueError(f"grid has {total} points, limit is {_GRID_LIMIT}")
    # A batch is a run of leading-axis points, each with the whole lattice of
    # the trailing axes that fit in one batch.  Those trailing columns repeat
    # from batch to batch, so they are laid out once; columns are contiguous
    # (Fortran order), which is how the objectives read them.
    d, split, tail = len(shape), len(shape), 1
    while split > 0 and tail * shape[split - 1] <= batch_size:
        split -= 1
        tail *= shape[split]
    per_batch = batch_size // tail  # leading points per batch
    rows = per_batch * tail
    tail_cols = np.empty((rows, d - split), order="F")
    inner = tail
    for k in range(split, d):
        inner //= shape[k]
        tail_cols[:, k - split] = np.tile(np.repeat(axes[k], inner), rows // (shape[k] * inner))
    head_shape = shape[:split]
    n_head = math.prod(head_shape)
    best_val = -math.inf
    best_idx = 0
    for h0 in range(0, n_head, per_batch):
        h1 = min(h0 + per_batch, n_head)
        n = (h1 - h0) * tail
        pts = np.empty((n, d), order="F")
        pts[:, split:] = tail_cols[:n]
        if split:
            head = np.unravel_index(np.arange(h0, h1), head_shape)
            for k in range(split):
                pts[:, k] = np.repeat(axes[k][head[k]], tail)
        vals = np.asarray(objective(pts), dtype=np.float64).reshape(n)
        arg = int(np.argmax(vals))
        if vals[arg] > best_val:
            best_val = float(vals[arg])
            best_idx = h0 * tail + arg
    multi = np.unravel_index(best_idx, shape)
    best_point = np.array([axes[d][multi[d]] for d in range(len(axes))])
    return best_point, best_val


def gadget_grid_objective(gadget: MaxCutGadget, step: float):
    """Full-lattice scan setup for a cut gadget's weighted sum rate.

    Returns (GridSpec over all 2(V+E) powers, batched objective) where the
    objective evaluates exactly the weighted sum of srm_rates_from_powers but
    through tables of pre-solved interference roots, so scanning tens of
    millions of lattice points stays cheap.  Vertex powers run over [0, 1]
    and edge powers over [0, 0.7]; both ranges must be integer multiples of
    ``step``.
    """
    graph, um = gadget.graph, gadget.usermap
    V = graph.V
    ln2 = math.log(2.0)
    for span in (1.0, EDGE_BUDGET):
        if abs(round(span / step) - span / step) > 1e-9:
            raise ValueError(f"step {step} does not divide the power range {span}")
    vaxis = step * np.arange(round(1.0 / step) + 1)
    zv = zeta_roots(GADGET_SIGMA2, GADGET_RHO, vaxis[None, :])
    ia, ib = np.triu_indices(len(vaxis))
    ze = np.empty((len(vaxis), len(vaxis)))
    ze[ia, ib] = ze[ib, ia] = zeta_roots(GADGET_SIGMA2, GADGET_RHO, np.stack([vaxis[ia], vaxis[ib]]))

    vertex_cols = [
        (um.vertex(i, a), um.vertex(i, 1 - a)) for i in range(1, V + 1) for a in (0, 1)
    ]
    edge_cols = [
        (um.edge(t, h), um.vertex(t, 0), um.vertex(h, 1), float(gadget.instance.alpha[um.edge(t, h)]))
        for i, j, _ in graph.edges
        for t, h in ((i, j), (j, i))
    ]

    def objective(pts):
        iv = np.rint(pts[:, : 2 * V] / step).astype(np.intp)
        total = np.zeros(len(pts))
        for u, partner in vertex_cols:
            total += np.log1p(pts[:, u] * zv[iv[:, partner]]) / ln2
        for e, t0, h1, alpha in edge_cols:
            total += alpha * np.log1p(pts[:, e] * ze[iv[:, t0], iv[:, h1]]) / ln2
        return total

    K = um.K
    grid = GridSpec(
        lower=(0.0,) * K,
        upper=(1.0,) * 2 * V + (EDGE_BUDGET,) * (K - 2 * V),
        step=(step,) * K,
    )
    return grid, objective


@dataclass(frozen=True)
class SignChangeSummary:
    """Sign transitions of a sampled function, zeros skipped.

    ``transitions`` is a tuple of (direction, x) pairs with direction "-+" or
    "+-" and x the grid point where the new sign is first seen.
    """

    transitions: tuple

    @property
    def minus_to_plus(self) -> int:
        return sum(1 for d, _ in self.transitions if d == "-+")

    @property
    def plus_to_minus(self) -> int:
        return sum(1 for d, _ in self.transitions if d == "+-")


def sign_pattern(f, grid: GridSpec) -> SignChangeSummary:
    """Scan a scalar function on a 1-D lattice and summarize its sign changes."""
    axes = grid.axes()
    if len(axes) != 1:
        raise ValueError("sign_pattern needs a 1-D grid")
    transitions = []
    prev = 0
    for x in axes[0]:
        v = f(float(x))
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s != 0:
            if prev != 0 and s != prev:
                transitions.append(("-+" if s > 0 else "+-", float(x)))
            prev = s
    return SignChangeSummary(transitions=tuple(transitions))
