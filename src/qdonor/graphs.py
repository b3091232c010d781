"""Weighted qudit graphs and graph-state verification.

A graph on n qudits of dimension d is a symmetric adjacency matrix over Z_d;
the graph state applies CZ^{A_ij} to a uniform-superposition product state.
Verification checks the stabilizer fixed-point condition S_v|psi> = |psi>
with S_v = X_v prod_w Z_w^{A_vw}; measurement byproducts are undone by a
deterministic local-correction search.
"""

from __future__ import annotations

import cmath
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


def make_linear(n, d):
    """Path graph 0-1-...-(n-1), all edges weight 1."""
    if n < 2:
        raise ValueError("a linear graph needs n >= 2")
    m = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = 1
    return GraphSpec.from_matrix(d, m)


# -- construction ---------------------------------------------------------


def build_graph_state(g):
    """F_d on every |0>, in closed form, then CZ powers per the adjacency.

    F_d^n |0...0> holds F[0, 0]^n on every basis state.  The amplitude is
    formed as n successive products with F[0, 0], the rounding sequence of
    n Fourier gates applied to |0...0> (their contractions add only exact
    zeros), so the state is the same bit for bit without those gates or
    their full-size temporaries.
    """
    reg = sv.init_register((g.d,) * g.n, (0,) * g.n)
    f00 = sv.fourier_matrix(g.d)[0, 0]
    amp = 1 + 0j
    for _ in range(g.n):
        amp *= f00
    reg.amps.fill(amp)
    for i, j, w in g.edges():
        sv.apply_cz_power(reg, i, j, w)
    return reg


# -- stabilizer checks ----------------------------------------------------


def _require_vertex_register(reg, g):
    if reg.radices != (g.d,) * g.n:
        raise ValueError(
            f"register radices {reg.radices} do not match the {g.n}-vertex, "
            f"d={g.d} graph")


def _stabilizer_factors(m, v):
    """S_v = X_v prod_w Z_w^{A_vw} as ((w, kind, power), ...) over N[v],
    vertices ascending."""
    return tuple((w, "X", 1) if w == v else (w, "Z", int(m[v, w]))
                 for w in range(m.shape[0]) if w == v or m[v, w])


# F^-f P^p F^f = Q^(s p) as (Q, s), for P in {X, Z} and f = 0..3
_F_CONJUGATES = {"X": (("X", 1), ("Z", -1), ("X", -1), ("Z", 1)),
                 "Z": (("Z", 1), ("X", 1), ("Z", -1), ("X", -1))}


def _conjugate(factors, fvec, d):
    """The factors of F^-f S F^f, powers reduced mod d.

    With F|j> = sum_k omega^{jk} |k> / sqrt(d), F^dag X F = Z^-1 and
    F^dag Z F = X, so each F power on w turns X^a into Z^-a and Z^b into
    X^b, with period 4; a Pauli product stays one power per vertex.
    """
    out = []
    for w, kind, p in factors:
        kind, sign = _F_CONJUGATES[kind][fvec[w] % 4]
        out.append((w, kind, sign * p % d))
    return tuple(out)


def _pauli_product(reg, factors):
    """The amplitudes of a Pauli product applied to ``reg``: the X factors
    roll their axes, then the Z phases multiply in, vertices ascending.
    No gate runs, and a rolled result keeps ``reg``'s memory layout."""
    out = reg.amps
    for w, kind, p in factors:
        if kind == "X":
            out = sv._roll(out, w, p)
    if out is reg.amps:
        out = out.copy()
    for w, kind, p in factors:
        if kind == "Z":
            out *= sv._z_phases(reg, w, p)
    return out


def _expectation(reg, factors):
    """<psi| P |psi> for the Pauli product P."""
    return complex(np.vdot(reg.amps, _pauli_product(reg, factors)))


def stabilizer_expectations(reg, g):
    """<psi|S_v|psi> for every vertex; unit modulus iff graph-basis state."""
    _require_vertex_register(reg, g)
    m = g.matrix()
    return [_expectation(reg, _stabilizer_factors(m, v)) for v in range(g.n)]


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


def stabilizer_verify(reg, g):
    """Per-vertex deviation ||S_v psi - psi||_2; reported, never thrown."""
    _require_vertex_register(reg, g)
    m = g.matrix()
    return StabilizerReport(tuple(
        float(np.linalg.norm(_pauli_product(reg, _stabilizer_factors(m, v))
                             - reg.amps))
        for v in range(g.n)))


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


def _z_power(mu, d):
    """The power k with <S_v> = omega^k, or None unless |<S_v>| = 1 and its
    phase is a multiple of 2 pi / d (both to 1e-6)."""
    theta = cmath.phase(mu) * d / (2 * cmath.pi)
    if abs(abs(mu) - 1.0) > 1e-6 or abs(theta - round(theta)) > 1e-6:
        return None
    return int(round(theta)) % d


def local_correction_search(reg, g, search_depth):
    """Deterministic search for a correction making ``reg`` verify against g.

    Each candidate is a Fourier-power vector f: the zero vector first, then
    at depth 2 the rest, sparse-first then lexicographic.  If F^f |psi> lies
    in the graph basis, <S_v> = omega^{theta_v} with unit modulus, and
    Z^theta applied everywhere returns the canonical |G>; an X-type
    byproduct is equivalent to Z's modulo the stabilizer group, so Z powers
    cover every Pauli byproduct.  The first candidate whose correction
    verifies wins; it carries the report of that verification.  Returns
    None when nothing is found.

    The candidates are not walked but solved for.  <S_v> on F^f |psi> is
    <psi| F^-f S_v F^f |psi>, a Pauli product on N[v], so it depends only on
    the powers on N[v]; its Z power (or failure) is cached per conjugated
    product, from one ``stabilizer_expectations`` pass at f = 0 and the
    Pauli-product kernel elsewhere, with no gate run.  For k = 0, 1, ..., n
    nonzero powers (only k = 0 at depth 1), a depth-first search sets the
    powers of vertices 0..n-1 in turn, each 0..3 ascending, and checks
    every vertex v whose neighbourhood closes there (max N[v] is the vertex
    just set); a failing vertex prunes the whole subtree.  Only a leaf is
    dressed, to be verified.  Within one k this depth-first order is the
    lexicographic order, so the first leaf that verifies is the candidate
    the sparse-first walk would have found.

    Limits: the vertex order must stay index order, or the winner can
    differ from that walk's.  How much is pruned depends on how early each
    neighbourhood closes: a ring's closing vertex is checked only at the
    last position, and a dense target such as K_n, whose neighbourhoods
    all close there, still costs 4^n candidates.

    Layout: every <S_v> of the screen, the f = 0 pass included, is read
    from one C-ordered copy of ``reg`` taken at the start of the search.
    ``np.vdot`` copies an operand that is not C-ordered to C order before
    it sums, so each expectation keeps its bits, and no read copies the
    register again.  The leaf check reads ``reg`` in its own layout: its
    ``np.linalg.norm`` sums in memory order, and the report's deviations
    are written to the outputs, so their bits are pinned.
    """
    _require_vertex_register(reg, g)
    if search_depth not in (1, 2):
        raise ValueError("search_depth must be 1 or 2")
    n, d = g.n, g.d
    m = g.matrix()
    factors = [_stabilizer_factors(m, v) for v in range(n)]
    closes = [[] for _ in range(n)]
    for v, fs in enumerate(factors):
        closes[fs[-1][0]].append(v)
    ordered = sv.Register(np.ascontiguousarray(reg.amps))
    powers = {fs: _z_power(mu, d) for fs, mu
              in zip(factors, stabilizer_expectations(ordered, g))}
    zeros = (0,) * n
    fvec, z = [0] * n, [0] * n

    def screened(p):
        """Z powers of the vertices closing at p; False once one fails."""
        for v in closes[p]:
            key = _conjugate(factors[v], fvec, d)
            if key not in powers:
                powers[key] = _z_power(_expectation(ordered, key), d)
            z[v] = powers[key]
            if z[v] is None:
                return False
        return True

    def verified():
        corr = CorrectionSet(zeros, tuple(z), tuple(fvec))
        rep = stabilizer_verify(apply_correction(reg, corr), g)
        return replace(corr, report=rep) if rep.passed else None

    for k in range(n + 1 if search_depth == 2 else 1):
        found = _depth_first(fvec, 0, k, screened, verified)
        if found is not None:
            return found
    return None


def _depth_first(fvec, p, k, screened, leaf):
    """The first non-None ``leaf()`` over the powers 0..3 on ``fvec[p:]``
    with exactly k nonzero, in lexicographic order; a subtree is skipped as
    soon as ``screened(p)`` fails.

    A module function, not a closure that calls itself: that would be a
    reference cycle, and each search's register would then stay alive until
    the garbage collector ran.
    """
    if p == len(fvec):
        return leaf()
    for f in range(4) if k else (0,):
        if f == 0 and k == len(fvec) - p:
            continue
        fvec[p] = f
        if screened(p):
            found = _depth_first(fvec, p + 1, k - (f != 0), screened, leaf)
            if found is not None:
                return found
    fvec[p] = 0
    return None
