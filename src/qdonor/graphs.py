"""Weighted qudit graphs and graph-state verification.

A graph on n qudits of dimension d is a symmetric adjacency matrix over Z_d;
the graph state applies CZ^{A_ij} to a uniform-superposition product state.
Verification checks the stabilizer fixed-point condition S_v|psi> = |psi>
with S_v = X_v prod_w Z_w^{A_vw}; measurement byproducts are undone by a
deterministic local-correction search.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import statevec as sv

STABILIZER_ATOL = 1e-10


@dataclass(frozen=True)
class GraphSpec:
    """n-vertex, dimension-d weighted graph over Z_d."""

    n: int
    d: int
    adjacency: tuple

    def __post_init__(self):
        a = self.matrix()
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be {self.n}x{self.n}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have zero diagonal")
        if np.any((a < 0) | (a >= self.d)):
            raise ValueError(f"weights must lie in [0, {self.d})")

    @classmethod
    def from_matrix(cls, d, matrix):
        m = np.asarray(matrix, dtype=int)
        return cls(m.shape[0], int(d), tuple(int(x) for x in m.reshape(-1)))

    def matrix(self):
        return np.array(self.adjacency, dtype=int).reshape(self.n, self.n)

    def edges(self):
        m = self.matrix()
        return [(i, j, int(m[i, j]))
                for i in range(self.n) for j in range(i + 1, self.n)
                if m[i, j] != 0]

    def to_dict(self):
        return {"n": self.n, "d": self.d, "adjacency": list(self.adjacency)}

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)

    @classmethod
    def from_dict(cls, obj):
        return cls(int(obj["n"]), int(obj["d"]),
                   tuple(int(x) for x in obj["adjacency"]))

    @classmethod
    def from_json(cls, s):
        return cls.from_dict(json.loads(s))


def make_linear(n, d):
    """Path graph 0-1-...-(n-1), all edges weight 1."""
    if n < 2:
        raise ValueError("a linear graph needs n >= 2")
    m = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1
    return GraphSpec.from_matrix(d, m)


def make_ring(n, d):
    """Cycle graph, each vertex of degree two, all edges weight 1."""
    if n < 3:
        raise ValueError("a ring needs n >= 3")
    m = np.zeros((n, n), dtype=int)
    for i in range(n):
        j = (i + 1) % n
        m[i, j] = m[j, i] = 1
    return GraphSpec.from_matrix(d, m)


def make_ladder(rows, cols, d):
    """Grid graph, all edges weight 1; vertex (r, c) has index r*cols + c.

    A 2x3 ladder has two rails of two edges each plus three rungs.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"bad ladder shape {rows}x{cols}")
    n = rows * cols
    m = np.zeros((n, n), dtype=int)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                m[v, v + 1] = m[v + 1, v] = 1
            if r + 1 < rows:
                m[v, v + cols] = m[v + cols, v] = 1
    return GraphSpec.from_matrix(d, m)


# -- construction ---------------------------------------------------------


def build_graph_state(g):
    """Apply F_d to every |0> then CZ powers per the adjacency."""
    reg = sv.init_register((g.d,) * g.n, (0,) * g.n,
                           labels=(sv.ROLE_PHOTON,) * g.n)
    for v in range(g.n):
        reg = sv.apply_fourier(reg, v)
    for i, j, w in g.edges():
        reg = sv.apply_cz_power(reg, i, j, w)
    return reg


# -- stabilizer checks ----------------------------------------------------


def _require_vertex_register(reg, g):
    if reg.radices != (g.d,) * g.n:
        raise ValueError(
            f"register radices {reg.radices} do not match the {g.n}-vertex, "
            f"d={g.d} graph")


def _dressed_stabilizer(reg, m, v, fvec):
    """The amplitudes of F^-f S_v F^f |psi>, as a Pauli product on N[v].

    With F|j> = sum_k omega^{jk} |k> / sqrt(d), F^dag X F = Z^-1 and
    F^dag Z F = X, so each F power on w turns X^a into Z^-a and Z^b into
    X^b, with period 4.  S_v carries a single Pauli power on each vertex of
    N[v], so the conjugated product is again one power per vertex: one roll
    over the X axes, then the Z phases in increasing axis order.  No gate
    runs; at f = 0 this is S_v |psi> itself.
    """
    x_axes, x_shifts, z_powers = [], [], []
    for w in range(m.shape[0]):
        if w != v and not m[v, w]:
            continue
        kind, p = ("X", 1) if w == v else ("Z", int(m[v, w]))
        for _ in range(fvec[w] % 4):
            kind, p = ("Z", -p) if kind == "X" else ("X", p)
        if kind == "X":
            x_axes.append(w)
            x_shifts.append(p)
        else:
            z_powers.append((w, p))
    out = (np.roll(reg.amps, x_shifts, axis=x_axes) if x_axes
           else reg.amps.copy())
    for w, p in z_powers:
        out *= sv._z_phases(reg, w, p)
    return out


def stabilizer_apply(reg, g, v):
    """S_v |psi> with S_v = X_v prod_w Z_w^{A_vw}."""
    _require_vertex_register(reg, g)
    out = _dressed_stabilizer(reg, g.matrix(), v, (0,) * g.n)
    return sv.Register(reg.radices, out, reg.labels, reg.cap)


def _dressed_expectation(reg, m, v, fvec):
    """<psi| F^-f S_v F^f |psi>; at f = 0 exactly ``stabilizer_apply`` and
    ``overlap``."""
    return complex(np.vdot(reg.amps, _dressed_stabilizer(reg, m, v, fvec)))


def stabilizer_expectations(reg, g):
    """<psi|S_v|psi> for every vertex; unit modulus iff graph-basis state."""
    _require_vertex_register(reg, g)
    m = g.matrix()
    zeros = (0,) * g.n
    return [_dressed_expectation(reg, m, v, zeros) for v in range(g.n)]


@dataclass(frozen=True)
class StabilizerReport:
    """Per-vertex deviations; a vertex passes at or below STABILIZER_ATOL."""

    deviations: tuple

    @property
    def max_deviation(self):
        return max(self.deviations)

    @property
    def passed(self):
        return self.max_deviation <= STABILIZER_ATOL

    def failing_vertices(self):
        return [v for v, dev in enumerate(self.deviations)
                if dev > STABILIZER_ATOL]


def stabilizer_verify(reg, g):
    """Per-vertex deviation ||S_v psi - psi||_2; reported, never thrown."""
    _require_vertex_register(reg, g)
    devs = []
    for v in range(g.n):
        diff = stabilizer_apply(reg, g, v).amps - reg.amps
        devs.append(float(np.linalg.norm(diff)))
    return StabilizerReport(tuple(devs))


# -- local corrections ----------------------------------------------------


@dataclass(frozen=True)
class CorrectionSet:
    """Per-vertex byproduct inverses.

    The correction operator on vertex v is X^{x_v} Z^{z_v} F^{f_v}, applied
    in that right-to-left order (Fourier conjugation first).  Depth-1
    searches leave every f_v at zero.  A search also attaches the
    ``report`` of the corrected state it verified; it takes no part in
    equality and is not serialised.
    """

    x_powers: tuple
    z_powers: tuple
    fourier_powers: tuple = None
    report: StabilizerReport | None = field(default=None, compare=False,
                                            repr=False)

    def __post_init__(self):
        if self.fourier_powers is None:
            object.__setattr__(self, "fourier_powers",
                               (0,) * len(self.x_powers))
        if not (len(self.x_powers) == len(self.z_powers)
                == len(self.fourier_powers)):
            raise ValueError("per-vertex power tuples must share a length")

    @property
    def n(self):
        return len(self.x_powers)

    def is_identity(self):
        return (not any(self.x_powers) and not any(self.z_powers)
                and not any(self.fourier_powers))

    def to_dict(self):
        return {"x_powers": list(self.x_powers),
                "z_powers": list(self.z_powers),
                "fourier_powers": list(self.fourier_powers)}


def apply_correction(reg, corr):
    out = reg
    for v in range(corr.n):
        f = corr.fourier_powers[v] % 4
        for _ in range(f):
            out = sv.apply_fourier(out, v)
        if corr.x_powers[v]:
            out = sv.apply_pauli_power(out, v, "X", corr.x_powers[v])
        if corr.z_powers[v]:
            out = sv.apply_pauli_power(out, v, "Z", corr.z_powers[v])
    return out


@functools.lru_cache(maxsize=8)
def _fourier_vectors(n):
    """F-power assignments ordered sparse-first, then lexicographically.

    Cached: at n=6 the sort takes about 7 ms, half of a depth-2 search that
    exhausts all 4096 vectors (about 14 ms) and several times one that
    exits early (about 2.5 ms).
    """
    return tuple(sorted(itertools.product(range(4), repeat=n),
                        key=lambda v: (sum(1 for x in v if x), v)))


def _candidates(n, search_depth):
    """The zero vector, then at depth 2 every other Fourier-power vector.

    Lazy: the 4^n vectors are only built once the zero vector has failed.
    """
    yield (0,) * n
    if search_depth == 2:
        yield from itertools.islice(_fourier_vectors(n), 1, None)


def _z_power(mu, d):
    """The power k with <S_v> = omega^k, or None unless |<S_v>| = 1 and its
    phase is a multiple of 2 pi / d (both to 1e-6)."""
    theta = np.angle(mu) * d / (2 * np.pi)
    if abs(abs(mu) - 1.0) > 1e-6 or abs(theta - round(theta)) > 1e-6:
        return None
    return int(round(theta)) % d


def local_correction_search(reg, g, search_depth=1):
    """Deterministic search for a correction making ``reg`` verify against g.

    Each candidate is a Fourier-power vector f: the zero vector first, then
    at depth 2 the rest, sparse-first then lexicographic.  If F^f |psi> lies
    in the graph basis, <S_v> = omega^{theta_v} with unit modulus, and
    Z^theta applied everywhere returns the canonical |G>; an X-type
    byproduct is equivalent to Z's modulo the stabilizer group, so Z powers
    cover every Pauli byproduct.  The first candidate whose correction
    verifies wins; it carries the report of that verification.  Returns
    None when nothing is found.

    <S_v> depends only on the powers on v's closed neighbourhood N[v], so
    its Z power (or failure) is cached per (v, powers on N[v]): the zero
    vector's come from one ``stabilizer_expectations`` pass, the others
    from the F-conjugated Pauli product on N[v], with no gate run.  Vertices
    are read smallest neighbourhood first, and a candidate is dropped at its
    first failing vertex; only a survivor is dressed, to be verified.
    """
    _require_vertex_register(reg, g)
    if search_depth not in (1, 2):
        raise ValueError("search_depth must be 1 or 2")
    m = g.matrix()
    hoods = [tuple(w for w in range(g.n) if w == v or m[v, w])
             for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: len(hoods[v]))
    zeros = (0,) * g.n
    powers = {(v, (0,) * len(hoods[v])): _z_power(mu, g.d)
              for v, mu in enumerate(stabilizer_expectations(reg, g))}
    for fvec in _candidates(g.n, search_depth):
        z = [0] * g.n
        for v in order:
            key = (v, tuple(fvec[w] for w in hoods[v]))
            if key not in powers:
                powers[key] = _z_power(
                    _dressed_expectation(reg, m, v, fvec), g.d)
            z[v] = powers[key]
            if z[v] is None:
                break
        else:
            corr = CorrectionSet(zeros, tuple(z), fvec)
            rep = stabilizer_verify(apply_correction(reg, corr), g)
            if rep.passed:
                return replace(corr, report=rep)
    return None


# -- block encoding --------------------------------------------------------


def block_encoding_map(index, d):
    """Big-endian binary expansion of a level index; d must be a power of two.

    An 8-dimensional photon carries three qubits, so a 24-qubit resource
    state fits in eight photonic qudits.
    """
    m = _log2_exact(d)
    if not 0 <= index < d:
        raise IndexError(f"index {index} out of range for d={d}")
    return format(index, f"0{m}b")


def block_encoding_index(bits, d):
    m = _log2_exact(d)
    if len(bits) != m or set(bits) - {"0", "1"}:
        raise ValueError(f"expected {m} binary digits, got {bits!r}")
    return int(bits, 2)


def _log2_exact(d):
    m = int(round(math.log2(d)))
    if 2**m != d:
        raise ValueError(f"d={d} is not a power of two")
    return m
