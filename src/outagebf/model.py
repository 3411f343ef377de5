"""Problem data model: interference-channel instances, beamformers, graphs, formulas.

Conventions used throughout the package:

* ``Q[k, i]`` (SISO) and ``Qcov[k, i]`` (MISO) describe the link from
  *transmitter* ``k`` into *receiver* ``i``; the diagonal carries the direct
  links.  User indices are 0-based array positions.
* Graph vertices and CNF variables are 1-based, following DIMACS.
* Instances are immutable value objects.  Constructors only enforce shape and
  finiteness; value-level invariants (positivity, Hermitian/PSD drift) are
  reported by :func:`validate` so that malformed instances can be inspected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SCHEMA_VERSION = 1

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10


class ParseError(ValueError):
    """Raised on malformed text input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_locked(a, dtype, shape=None, name="array"):
    arr = np.array(a, dtype=dtype)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64) if np.iscomplexobj(arr) else arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SisoInstance:
    """Single-antenna interference channel with per-user outage parameters.

    Fields
    ------
    Q : (K, K) float array
        Channel variances, ``Q[k, i]`` = transmitter k into receiver i.
    sigma2, rho, P, alpha : (K,) float arrays
        Noise powers, outage parameters (secure probability floor, so the
        outage target of user i is ``1 - rho[i]``), power budgets, and
        positive rate weights.
    """

    Q: np.ndarray
    sigma2: np.ndarray
    rho: np.ndarray
    P: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        Q = np.array(self.Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        K = Q.shape[0]
        object.__setattr__(self, "Q", _as_locked(Q, np.float64, (K, K), "Q"))
        for name in ("sigma2", "rho", "P", "alpha"):
            object.__setattr__(
                self, name, _as_locked(getattr(self, name), np.float64, (K,), name)
            )

    @property
    def K(self) -> int:
        return self.Q.shape[0]

    def to_miso(self) -> "MisoInstance":
        """Lift to an equivalent single-antenna MisoInstance (Nt = 1)."""
        return MisoInstance(
            Qcov=self.Q.astype(np.complex128).reshape(self.K, self.K, 1, 1),
            sigma2=self.sigma2,
            rho=self.rho,
            P=self.P,
            alpha=self.alpha,
        )


@dataclass(frozen=True, eq=False)
class MisoInstance:
    """Multi-antenna-transmitter interference channel under covariance knowledge.

    ``Qcov[k, i]`` is the Nt x Nt covariance of the channel from transmitter k
    into receiver i; remaining fields are as in :class:`SisoInstance`.
    """

    Qcov: np.ndarray
    sigma2: np.ndarray
    rho: np.ndarray
    P: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        Qcov = np.array(self.Qcov, dtype=np.complex128)
        if Qcov.ndim != 4 or Qcov.shape[0] != Qcov.shape[1] or Qcov.shape[2] != Qcov.shape[3]:
            raise ValueError(f"Qcov must have shape (K, K, Nt, Nt), got {Qcov.shape}")
        K, _, Nt, _ = Qcov.shape
        object.__setattr__(self, "Qcov", _as_locked(Qcov, np.complex128, (K, K, Nt, Nt), "Qcov"))
        for name in ("sigma2", "rho", "P", "alpha"):
            object.__setattr__(
                self, name, _as_locked(getattr(self, name), np.float64, (K,), name)
            )

    @property
    def K(self) -> int:
        return self.Qcov.shape[0]

    @property
    def Nt(self) -> int:
        return self.Qcov.shape[2]


@dataclass(frozen=True, eq=False)
class BeamformerSet:
    """One transmit beamformer per user: ``w[i]`` is a length-Nt complex vector.

    Power feasibility (||w_i||^2 <= P_i) is checked by operations, not here.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=np.complex128)
        if w.ndim != 2:
            raise ValueError(f"w must have shape (K, Nt), got {w.shape}")
        object.__setattr__(self, "w", _as_locked(w, np.complex128, w.shape, "w"))

    @property
    def K(self) -> int:
        return self.w.shape[0]

    @property
    def Nt(self) -> int:
        return self.w.shape[1]

    def powers(self) -> np.ndarray:
        """Transmit powers ||w_i||^2."""
        return np.sum(np.abs(self.w) ** 2, axis=1)


def beams_from_powers(p) -> BeamformerSet:
    """Embed a nonnegative power vector as 1-antenna beamformers w_i = sqrt(p_i)."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("powers must be nonnegative")
    return BeamformerSet(w=np.sqrt(p).astype(np.complex128).reshape(-1, 1))


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights; vertices are 1..V.

    Edges are stored as (i, j, w) with i < j; duplicates are rejected.
    """

    V: int
    edges: tuple

    def __post_init__(self):
        if self.V < 1:
            raise ValueError("graph needs at least one vertex")
        norm = []
        seen = set()
        for e in self.edges:
            i, j, w = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= self.V and 1 <= j <= self.V):
                raise ValueError(f"edge ({i},{j}) out of vertex range 1..{self.V}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"edge ({i},{j}) weight {w} must be positive and finite")
            seen.add((i, j))
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def E(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return math.fsum(w for _, _, w in self.edges)

    def cut_weight(self, S: Iterable[int]) -> float:
        """Total weight of edges crossing the cut (S, V \\ S)."""
        S = set(S)
        return math.fsum(w for i, j, w in self.edges if (i in S) != (j in S))

    def is_connected(self) -> bool:
        if self.V == 1:
            return True
        adj = {v: [] for v in range(1, self.V + 1)}
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {1}
        stack = [1]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.V


@dataclass(frozen=True, eq=False)
class CnfFormula:
    """3-CNF formula in DIMACS signed-literal form.

    Each clause is a tuple of exactly three nonzero ints over three distinct
    variables; literal v means x_v, literal -v means NOT x_v (v in 1..N).
    """

    N: int
    clauses: tuple

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("formula needs at least one variable")
        norm = []
        for c in self.clauses:
            lits = tuple(int(l) for l in c)
            if len(lits) != 3:
                raise ValueError(f"clause {lits} must have exactly 3 literals")
            if any(l == 0 or abs(l) > self.N for l in lits):
                raise ValueError(f"clause {lits} has a literal outside 1..{self.N}")
            if len({abs(l) for l in lits}) != 3:
                raise ValueError(f"clause {lits} repeats a variable")
            norm.append(lits)
        object.__setattr__(self, "clauses", tuple(norm))

    @property
    def M(self) -> int:
        return len(self.clauses)

    def clause_satisfied(self, clause: Sequence[int], assignment: Sequence[int]) -> bool:
        return any(
            (assignment[abs(l) - 1] == 1) == (l > 0) for l in clause
        )

    def evaluate(self, assignment: Sequence[int]) -> bool:
        """True iff the 0/1 assignment (x_1, ..., x_N) satisfies every clause."""
        if len(assignment) != self.N:
            raise ValueError(f"assignment length {len(assignment)} != N = {self.N}")
        return all(self.clause_satisfied(c, assignment) for c in self.clauses)


@dataclass(frozen=True, eq=False)
class UserMap:
    """Role tag per user index of a reduced instance.

    Roles are tagged tuples: ``("vertex", i, sub)`` for vertex/variable users,
    ``("edge", i, j)`` for the directed edge user e_ij, ``("clause", m)`` for
    clause users.  Roles must be unique (the map is a bijection).
    """

    roles: tuple

    def __post_init__(self):
        roles = tuple(tuple(r) for r in self.roles)
        if len(set(roles)) != len(roles):
            raise ValueError("duplicate role in user map")
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "_index", {r: k for k, r in enumerate(roles)})

    @property
    def K(self) -> int:
        return len(self.roles)

    def index(self, role) -> int:
        try:
            return self._index[tuple(role)]
        except KeyError:
            raise KeyError(f"no user with role {role}") from None

    def vertex(self, i: int, sub: int) -> int:
        return self.index(("vertex", i, sub))

    def edge(self, i: int, j: int) -> int:
        return self.index(("edge", i, j))

    def clause(self, m: int) -> int:
        return self.index(("clause", m))

    def role(self, k: int):
        return self.roles[k]


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)


def validate(instance) -> ValidationReport:
    """Check value-level instance invariants; returns pass/fail plus messages.

    For MISO instances each covariance block must be Hermitian within 1e-12
    (the reported drift is the max absolute asymmetry) and PSD up to
    eigenvalue -1e-10; direct-link blocks must not vanish identically.
    Scalar parameters: sigma2 > 0, 0 < rho < 1, P > 0, alpha > 0, and for
    SISO instances Q >= 0 with Q[i, i] > 0.
    """
    v: list[str] = []
    K = instance.K
    for name in ("sigma2", "P", "alpha"):
        arr = getattr(instance, name)
        for i in range(K):
            if not arr[i] > 0:
                v.append(f"{name}[{i}] = {arr[i]:g} must be > 0")
    for i in range(K):
        r = instance.rho[i]
        if not (0.0 < r < 1.0):
            v.append(f"rho[{i}] = {r:g} out of open interval (0, 1)")

    if isinstance(instance, SisoInstance):
        for k in range(K):
            for i in range(K):
                q = instance.Q[k, i]
                if q < 0:
                    v.append(f"Q[{k},{i}] = {q:g} must be nonnegative")
        for i in range(K):
            if not instance.Q[i, i] > 0:
                v.append(f"Q[{i},{i}] = {instance.Q[i, i]:g} direct link must be > 0")
    elif isinstance(instance, MisoInstance):
        for k in range(K):
            for i in range(K):
                Qki = instance.Qcov[k, i]
                drift = float(np.max(np.abs(Qki - Qki.conj().T)))
                if drift > HERMITIAN_TOL:
                    v.append(
                        f"Qcov[{k}][{i}] Hermitian drift {drift:.3g} exceeds {HERMITIAN_TOL:g}"
                    )
                    continue
                w = np.linalg.eigvalsh(0.5 * (Qki + Qki.conj().T))
                if w[0] < -PSD_TOL:
                    v.append(
                        f"Qcov[{k}][{i}] min eigenvalue {w[0]:.3g} below -{PSD_TOL:g}"
                    )
        for i in range(K):
            if not np.any(np.abs(instance.Qcov[i, i]) > 0):
                v.append(f"Qcov[{i}][{i}] direct-link covariance is identically zero")
    else:
        raise TypeError(f"cannot validate object of type {type(instance).__name__}")
    return ValidationReport(ok=not v, violations=v)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _c_enc(z: complex):
    return [float(z.real), float(z.imag)]


def _cmat_enc(M: np.ndarray):
    return [[_c_enc(M[r, c]) for c in range(M.shape[1])] for r in range(M.shape[0])]


def _cmat_dec(rows, name="matrix") -> np.ndarray:
    try:
        return np.array(
            [[complex(c[0], c[1]) for c in row] for row in rows], dtype=np.complex128
        )
    except (TypeError, IndexError) as e:
        raise ValueError(f"malformed complex {name}: {e}") from None


def to_json_dict(obj) -> dict:
    """Encode a model object as a versioned, JSON-ready dict.

    Complex scalars become [re, im] pairs; matrices are nested row-major lists.
    """
    d = {"version": SCHEMA_VERSION, "type": type(obj).__name__}
    if isinstance(obj, SisoInstance):
        d.update(
            K=obj.K,
            Q=obj.Q.tolist(),
            sigma2=obj.sigma2.tolist(),
            rho=obj.rho.tolist(),
            P=obj.P.tolist(),
            alpha=obj.alpha.tolist(),
        )
    elif isinstance(obj, MisoInstance):
        d.update(
            K=obj.K,
            Nt=obj.Nt,
            Qcov=[
                [_cmat_enc(obj.Qcov[k, i]) for i in range(obj.K)] for k in range(obj.K)
            ],
            sigma2=obj.sigma2.tolist(),
            rho=obj.rho.tolist(),
            P=obj.P.tolist(),
            alpha=obj.alpha.tolist(),
        )
    elif isinstance(obj, BeamformerSet):
        d.update(w=[[_c_enc(z) for z in row] for row in obj.w])
    elif isinstance(obj, WeightedGraph):
        d.update(V=obj.V, edges=[[i, j, w] for i, j, w in obj.edges])
    elif isinstance(obj, CnfFormula):
        d.update(N=obj.N, clauses=[list(c) for c in obj.clauses])
    elif isinstance(obj, UserMap):
        d.update(users=[list(r) for r in obj.roles])
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
    return d


def from_json_dict(d: dict):
    """Decode :func:`to_json_dict` output.

    MISO covariance blocks are re-symmetrized (Q + Q^H)/2 on ingestion to
    absorb the ~1e-16 asymmetry that decimal text round-trips introduce.
    """
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError("not a serialized model object (missing 'type')")
    ver = d.get("version")
    if ver != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {ver!r}")
    t = d["type"]
    try:
        if t == "SisoInstance":
            inst = SisoInstance(
                Q=d["Q"], sigma2=d["sigma2"], rho=d["rho"], P=d["P"], alpha=d["alpha"]
            )
            if inst.K != d["K"]:
                raise ValueError(f"K = {d['K']} does not match Q shape {inst.Q.shape}")
            return inst
        if t == "MisoInstance":
            K, Nt = int(d["K"]), int(d["Nt"])
            Qcov = np.empty((K, K, Nt, Nt), dtype=np.complex128)
            rows = d["Qcov"]
            if len(rows) != K:
                raise ValueError("Qcov row count does not match K")
            for k in range(K):
                if len(rows[k]) != K:
                    raise ValueError("Qcov column count does not match K")
                for i in range(K):
                    M = _cmat_dec(rows[k][i], name=f"Qcov[{k}][{i}]")
                    if M.shape != (Nt, Nt):
                        raise ValueError(
                            f"Qcov[{k}][{i}] has shape {M.shape}, expected ({Nt}, {Nt})"
                        )
                    Qcov[k, i] = 0.5 * (M + M.conj().T)
            return MisoInstance(
                Qcov=Qcov, sigma2=d["sigma2"], rho=d["rho"], P=d["P"], alpha=d["alpha"]
            )
        if t == "BeamformerSet":
            return BeamformerSet(w=_cmat_dec(d["w"], name="w"))
        if t == "WeightedGraph":
            return WeightedGraph(V=int(d["V"]), edges=tuple(tuple(e) for e in d["edges"]))
        if t == "CnfFormula":
            return CnfFormula(N=int(d["N"]), clauses=tuple(tuple(c) for c in d["clauses"]))
        if t == "UserMap":
            return UserMap(roles=tuple(tuple(r) for r in d["users"]))
    except KeyError as e:
        raise ValueError(f"serialized {t} is missing field {e}") from None
    raise ValueError(f"unknown serialized type {t!r}")


def dumps(obj, **kw) -> str:
    return json.dumps(to_json_dict(obj), **kw)


def loads(text: str):
    return from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# DIMACS-style text formats
# ---------------------------------------------------------------------------

def read_graph_dimacs(text: str) -> WeightedGraph:
    """Parse a DIMACS-like weighted edge list.

    Format: optional ``c`` comment lines, one ``p edge V E`` header, then E
    lines ``e i j w`` (weight defaults to 1 when omitted).
    """
    V = E = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if V is not None:
                raise ParseError("duplicate problem line", ln)
            if len(tok) != 4 or tok[1] != "edge":
                raise ParseError(f"expected 'p edge V E', got {line!r}", ln)
            try:
                V, E = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError(f"non-integer sizes in {line!r}", ln) from None
        elif tok[0] == "e":
            if V is None:
                raise ParseError("edge line before 'p edge' header", ln)
            if len(tok) not in (3, 4):
                raise ParseError(f"expected 'e i j [w]', got {line!r}", ln)
            try:
                i, j = int(tok[1]), int(tok[2])
                w = float(tok[3]) if len(tok) == 4 else 1.0
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", ln) from None
            key = (min(i, j), max(i, j))
            if i != j and key in (e[:2] for e in edges):
                raise ParseError(f"duplicate edge {key}", ln)
            edges.append((key[0], key[1], w, ln))
        else:
            raise ParseError(f"unrecognized line {line!r}", ln)
    if V is None:
        raise ParseError("missing 'p edge V E' header")
    if E != len(edges):
        raise ParseError(f"header declares {E} edges but {len(edges)} found")
    try:
        return WeightedGraph(V=V, edges=tuple((i, j, w) for i, j, w, _ in edges))
    except ValueError as e:
        bad = str(e)
        for i, j, w, ln in edges:
            if f"({min(i,j)},{max(i,j)})" in bad or f"vertex {i}" in bad:
                raise ParseError(bad, ln) from None
        raise ParseError(bad) from None


def write_graph_dimacs(g: WeightedGraph) -> str:
    lines = [f"p edge {g.V} {g.E}"]
    lines += [f"e {i} {j} {w:.17g}" for i, j, w in g.edges]
    return "\n".join(lines) + "\n"


def read_cnf_dimacs(text: str) -> CnfFormula:
    """Parse standard DIMACS CNF restricted to exactly-3-literal clauses."""
    N = M = None
    clauses = []
    current: list[int] = []
    current_ln = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        tok = line.split()
        if tok[0] == "p":
            if N is not None:
                raise ParseError("duplicate problem line", ln)
            if len(tok) != 4 or tok[1] != "cnf":
                raise ParseError(f"expected 'p cnf N M', got {line!r}", ln)
            try:
                N, M = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError(f"non-integer sizes in {line!r}", ln) from None
            continue
        if N is None:
            raise ParseError("clause line before 'p cnf' header", ln)
        for t in tok:
            try:
                lit = int(t)
            except ValueError:
                raise ParseError(f"non-integer literal {t!r}", ln) from None
            if lit == 0:
                if len(current) != 3:
                    raise ParseError(
                        f"clause has {len(current)} literals, exactly 3 required", ln
                    )
                clauses.append(tuple(current))
                current = []
                current_ln = None
            else:
                if not current:
                    current_ln = ln
                current.append(lit)
    if current:
        raise ParseError("unterminated clause (missing trailing 0)", current_ln)
    if N is None:
        raise ParseError("missing 'p cnf N M' header")
    if M != len(clauses):
        raise ParseError(f"header declares {M} clauses but {len(clauses)} found")
    try:
        return CnfFormula(N=N, clauses=tuple(clauses))
    except ValueError as e:
        raise ParseError(str(e)) from None


def write_cnf_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.N} {f.M}"]
    lines += [" ".join(str(l) for l in c) + " 0" for c in f.clauses]
    return "\n".join(lines) + "\n"
