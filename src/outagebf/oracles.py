"""Brute-force references the solvers and reductions are tested against.

Everything here trades time for certainty: exhaustive enumeration and dense
lattice scans with hard size guards, first-found tie-breaking, and no reuse
of the code paths under test.

``grid_search`` scans a lattice in one of two ways.  A plain objective gets
batches of lattice points and returns one value per point.  A
:class:`SeparableObjective` is a sum of small tables, each over a few axes;
the scan adds those tables broadcast over a block of the lattice, in the
objective's term order, so it never lays out the points and its values equal
the objective's own, bit for bit.  ``gadget_grid_objective`` returns one:
every term of a cut gadget's weighted sum rate depends on two or three
powers.  A separable objective is defined on its lattice only, and calling
it on a point off the lattice raises ``ValueError``.
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
    "SeparableObjective",
    "grid_search",
    "vectorize_scalar",
    "gadget_grid_objective",
    "SignChangeSummary",
    "sign_pattern",
]

_MAXCUT_LIMIT = 24
_SAT_LIMIT = 24
_SRM_LIMIT = 20
_PATTERN_BLOCK = 1 << 12
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

    Scores alpha @ srm_rates_from_powers at every powers_from_cut pattern, in
    blocks of _PATTERN_BLOCK cut bitmasks; ties break to the lowest bitmask.
    Returns (best power vector, weighted sum rate).
    """
    V = gadget.graph.V
    if V > _SRM_LIMIT:
        raise ValueError(f"discrete pattern search limited to {_SRM_LIMIT} vertices")
    alpha = gadget.instance.alpha
    best_val, best_p = -math.inf, None
    for m0 in range(0, 1 << V, _PATTERN_BLOCK):
        P = np.array([
            powers_from_cut([v for v in range(1, V + 1) if (mask >> (v - 1)) & 1], gadget)
            for mask in range(m0, min(m0 + _PATTERN_BLOCK, 1 << V))
        ])
        for p, r in zip(P, srm_rates_from_powers(gadget.instance, P)):
            # one dot product per row, as for a lone pattern: R @ alpha sums in another order
            val = float(alpha @ r)
            if val > best_val:
                best_val, best_p = val, p.copy()
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

    def shape(self) -> tuple:
        """Number of lattice points along each axis."""
        return tuple(
            int(math.floor((h - l) / s + 1e-9)) + 1
            for l, h, s in zip(self.lower, self.upper, self.step)
        )

    def axes(self):
        return [l + s * np.arange(n) for l, s, n in zip(self.lower, self.step, self.shape())]

    def n_points(self) -> int:
        return math.prod(self.shape())

    def indices(self, points) -> np.ndarray:
        """Per-axis lattice indices of an (n, d) array of lattice points.

        A coordinate is on the lattice when it lies within 1e-9 steps of an
        axis value, the tolerance :meth:`axes` uses for the upper end, so
        0.7 is the point 14 * 0.05 = 0.7000000000000001.  Raises ValueError
        for a coordinate off the lattice, outside the bounds or not finite.
        """
        pts = np.asarray(points, dtype=np.float64)
        d = len(self.step)
        if pts.ndim != 2 or pts.shape[1] != d:
            raise ValueError(f"expected (n, {d}) points, got shape {pts.shape}")
        q = (pts - self.lower) / self.step
        k = np.rint(q)
        with np.errstate(invalid="ignore"):
            bad = ~(np.abs(q - k) <= 1e-9) | (k < 0) | (k >= self.shape())
        if np.count_nonzero(bad):
            r, c = (int(i) for i in np.argwhere(bad)[0])
            raise ValueError(f"coordinate {c} of point {r}, {pts[r, c]!r}, is not on the lattice")
        return k.astype(np.intp)


def vectorize_scalar(f):
    """Adapt a scalar objective f(point) to the batch contract of grid_search."""

    def batched(points):
        return np.array([f(p) for p in points], dtype=np.float64)

    return batched


@dataclass(frozen=True, eq=False)
class SeparableObjective:
    """A lattice objective that is a sum of small per-term tables.

    ``terms`` is a list of ``(axes, table)`` pairs: at the lattice point with
    per-axis indices ``i`` the term adds ``table[i[axes[0]], i[axes[1]], ...]``,
    and the terms are added in list order.  Calling the objective on an
    (n, d) array of points of ``grid`` returns n values and raises
    ValueError for a point off the lattice (see :meth:`GridSpec.indices`).
    :func:`grid_search` over ``grid`` adds the tables broadcast over blocks
    of the lattice instead, with the same bits.
    """

    grid: GridSpec
    terms: list

    def __post_init__(self):
        shape = self.grid.shape()
        for axes, table in self.terms:
            if np.shape(table) != tuple(shape[a] for a in axes):
                raise ValueError(f"table of shape {np.shape(table)} does not fit axes {axes}")

    def __call__(self, points):
        idx = self.grid.indices(points)
        return self.total(list(idx.T), len(idx))

    def total(self, index, shape):
        """Sum of the terms at per-axis index arrays that broadcast to ``shape``."""
        total = np.zeros(shape)
        for axes, table in self.terms:
            total += table[tuple(index[a] for a in axes)]
        return total


def _batches(objective, grid: GridSpec, batch_size: int):
    """(flat index of its first point, values) of each batch, in visiting order."""
    shape = grid.shape()
    # plain-int product: np.prod would wrap silently on huge grids
    total = math.prod(shape)
    if total > _GRID_LIMIT:
        raise ValueError(f"grid has {total} points, limit is {_GRID_LIMIT}")
    # A batch is a block of shape (head points, *tail shape): a run of
    # leading-axis ("head") points, each with the whole lattice of the
    # trailing ("tail") axes that fit in one batch.  Head indices run down the
    # block's first dimension and each tail axis along its own.
    d, split, tail = len(shape), len(shape), 1
    while split > 0 and tail * shape[split - 1] <= batch_size:
        split -= 1
        tail *= shape[split]
    per_batch = batch_size // tail  # head points per batch
    head_shape = shape[:split]
    n_head = math.prod(head_shape)
    tail_index = [
        np.arange(shape[k]).reshape((1,) * (k - split + 1) + (-1,) + (1,) * (d - k - 1))
        for k in range(split, d)
    ]
    separable = isinstance(objective, SeparableObjective) and objective.grid == grid
    axes = grid.axes()
    for h0 in range(0, n_head, per_batch):
        h1 = min(h0 + per_batch, n_head)
        head = np.unravel_index(np.arange(h0, h1), head_shape) if split else ()
        index = [h.reshape((-1,) + (1,) * (d - split)) for h in head] + tail_index
        block = (h1 - h0,) + shape[split:]
        n = math.prod(block)
        if separable:
            vals = objective.total(index, block)
        else:
            # columns are contiguous (Fortran order), which is how the
            # objectives read them
            pts = np.empty((n, d), order="F")
            for k in range(d):
                pts[:, k].reshape(block)[...] = axes[k][index[k]]
            vals = objective(pts)
        yield h0 * tail, np.asarray(vals, dtype=np.float64).reshape(n)


def grid_search(objective, grid: GridSpec, batch_size: int = 1 << 18):
    """Exhaustive lattice maximization (at most 1e8 points).

    A :class:`SeparableObjective` built on ``grid`` is scanned by adding its
    tables broadcast over blocks of the lattice, in its term order, so each
    value has the bits of the objective's own call at that lattice point.
    Any other ``objective`` receives an (n, d) array of lattice points and
    returns n values (wrap plain scalar functions with
    :func:`vectorize_scalar`).  Either way a batch holds at most
    ``batch_size`` points.  Points are visited in lexicographic order, first
    dimension slowest; ties break to the first point visited, so a constant
    objective returns the all-lower-bounds corner; two sums equal in exact
    arithmetic but rounded differently are not a tie.  Returns (best point,
    best value).
    """
    best_val = -math.inf
    best_idx = 0
    for first, vals in _batches(objective, grid, batch_size):
        arg = int(np.argmax(vals))
        if vals[arg] > best_val:
            best_val = float(vals[arg])
            best_idx = first + arg
    multi = np.unravel_index(best_idx, grid.shape())
    best_point = np.array([ax[i] for ax, i in zip(grid.axes(), multi)])
    return best_point, best_val


def gadget_grid_objective(gadget: MaxCutGadget, step: float):
    """Full-lattice scan setup for a cut gadget's weighted sum rate.

    Returns (GridSpec over all 2(V+E) powers, :class:`SeparableObjective`)
    where the objective evaluates exactly the weighted sum of
    srm_rates_from_powers but from tables of pre-solved interference roots,
    so scanning tens of millions of lattice points stays cheap.  A vertex
    user's rate depends on its own power and its partner's, an edge user's
    on its own and the two vertex powers that interfere with it, so each
    term is an 11 x 11 or 8 x 11 x 11 table at step 0.1.  Vertex powers run
    over [0, 1] and edge powers over [0, 0.7]; both ranges must be integer
    multiples of ``step``.
    """
    graph, um = gadget.graph, gadget.usermap
    V = graph.V
    ln2 = math.log(2.0)
    for span in (1.0, EDGE_BUDGET):
        if abs(round(span / step) - span / step) > 1e-9:
            raise ValueError(f"step {step} does not divide the power range {span}")
    K = um.K
    grid = GridSpec(
        lower=(0.0,) * K,
        upper=(1.0,) * 2 * V + (EDGE_BUDGET,) * (K - 2 * V),
        step=(step,) * K,
    )
    axes = grid.axes()
    vaxis = axes[0]
    zv = zeta_roots(GADGET_SIGMA2, GADGET_RHO, vaxis[None, :])
    ia, ib = np.triu_indices(len(vaxis))
    ze = np.empty((len(vaxis), len(vaxis)))
    ze[ia, ib] = ze[ib, ia] = zeta_roots(GADGET_SIGMA2, GADGET_RHO, np.stack([vaxis[ia], vaxis[ib]]))

    # [own power, partner power]: the same table for every vertex user
    vertex_table = np.log1p(vaxis[:, None] * zv[None, :]) / ln2
    terms = [
        ((um.vertex(i, a), um.vertex(i, 1 - a)), vertex_table)
        for i in range(1, V + 1)
        for a in (0, 1)
    ]
    # [own power, tail vertex power, head vertex power].  The order of
    # alpha * log / ln2 is kept: alpha * (log / ln2) can round differently
    # when alpha is not a power of two, and the scan returns the first of
    # tied maxima (such as the two orientations of a cut), so one changed
    # bit can change the point it returns.
    for i, j, _ in graph.edges:
        for t, h in ((i, j), (j, i)):
            e = um.edge(t, h)
            alpha = float(gadget.instance.alpha[e])
            table = alpha * np.log1p(axes[e][:, None, None] * ze[None, :, :]) / ln2
            terms.append(((e, um.vertex(t, 0), um.vertex(h, 1)), table))
    return grid, SeparableObjective(grid, terms)


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
