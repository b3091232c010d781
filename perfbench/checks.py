"""Answer checks for the benchmark, written with numpy only.

Nothing here imports qdonor.  Graph states, local corrections, Bell
projections and Schmidt ranks are rebuilt from their definitions, so a check
passes only when the engine's output agrees with the mathematics, not with
another copy of the engine:

* a graph state on n qudits of dimension d with adjacency A has amplitude
  omega^(sum_{i<j} A_ij x_i x_j) / sqrt(d^n), omega = exp(2 pi i / d);
* F|k> = sum_j omega^(jk) |j> / sqrt(d), X|k> = |k+1 mod d>,
  Z|k> = omega^k |k>;
* a correction (x, z, f) acts on vertex v as F^f first, then X^x, then Z^z.

Every check raises :class:`CheckFailure` with a reason on a wrong answer.
"""

from __future__ import annotations

import itertools

import numpy as np

FIDELITY_TOL = 1e-10
PROBABILITY_TOL = 1e-10


class CheckFailure(AssertionError):
    """An output of the program is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


# -- adjacencies ----------------------------------------------------------


def ring_adjacency(n):
    a = np.zeros((n, n), dtype=int)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return a


def path_adjacency(n):
    a = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return a


def ladder_adjacency(cols):
    """2 x cols ladder; vertex (r, c) is r * cols + c."""
    n = 2 * cols
    a = np.zeros((n, n), dtype=int)
    for r in range(2):
        for c in range(cols - 1):
            v = r * cols + c
            a[v, v + 1] = a[v + 1, v] = 1
    for c in range(cols):
        a[c, c + cols] = a[c + cols, c] = 1
    return a


# -- states and local operators --------------------------------------------


def graph_state(adj, d):
    """omega^(sum_{i<j} A_ij x_i x_j) / sqrt(d^n) as an n-axis array."""
    adj = np.asarray(adj, dtype=np.int64)
    n = adj.shape[0]
    x = np.indices((d,) * n, dtype=np.int64)
    expo = np.zeros((d,) * n, dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j] % d:
                expo += adj[i, j] * x[i] * x[j]
    return np.exp(2j * np.pi * (expo % d) / d) / np.sqrt(float(d) ** n)


def fourier(d):
    j, k = np.indices((d, d))
    return np.exp(2j * np.pi * (j * k % d) / d) / np.sqrt(d)


def apply_local(psi, v, matrix):
    out = np.tensordot(matrix, psi, axes=([1], [v]))
    return np.moveaxis(out, 0, v)


def apply_correction(psi, x_powers, z_powers, fourier_powers):
    """F^f, then X^x, then Z^z on every vertex."""
    d = psi.shape[0]
    f_mat = fourier(d)
    out = psi
    for v in range(psi.ndim):
        for _ in range(int(fourier_powers[v]) % 4):
            out = apply_local(out, v, f_mat)
        if x_powers[v] % d:
            out = np.roll(out, int(x_powers[v]) % d, axis=v)
        if z_powers[v] % d:
            shape = [1] * psi.ndim
            shape[v] = d
            phase = np.exp(2j * np.pi * (int(z_powers[v]) * np.arange(d) % d)
                           / d)
            out = out * phase.reshape(shape)
    return out


def fidelity(psi, phi):
    """|<psi|phi>|^2, with no renormalisation: a lost norm fails too."""
    return float(abs(np.vdot(psi, phi)) ** 2)


def bell_projection(psi, i, j, a, b):
    """Project qudits i, j onto the Fourier-frame Bell state (a, b).

    The Bell state is (I x F X^a Z^b) sum_k |kk> / sqrt(d), whose table is
    B[k, m] = omega^(b k + m (k + a)) / d.  Returns (probability, normalised
    state of the remaining qudits).
    """
    d = psi.shape[i]
    k, m = np.indices((d, d))
    bell = np.exp(2j * np.pi * ((b * k + m * (k + a)) % d) / d) / d
    out = np.tensordot(np.conj(bell), psi, axes=([0, 1], [i, j]))
    prob = float(np.sum(np.abs(out) ** 2))
    require(prob > 1e-14, f"Bell outcome ({a},{b}) has zero probability")
    return prob, out / np.sqrt(prob)


def schmidt_rank(psi, cut, tol=1e-9):
    """Rank of the state across the bipartition cut | rest."""
    rest = [ax for ax in range(psi.ndim) if ax not in cut]
    mat = np.transpose(psi, list(cut) + rest).reshape(
        int(np.prod([psi.shape[c] for c in cut])), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(s > tol * max(s[0], 1e-300)))


def bipartitions(n):
    """Each unordered cut once: sizes below n/2, plus half cuts holding 0."""
    for size in range(1, n // 2 + 1):
        for cut in itertools.combinations(range(n), size):
            if 2 * size == n and 0 not in cut:
                continue
            yield cut


def differing_cuts(psi, target):
    """Cuts whose Schmidt ranks differ; local unitaries preserve them all."""
    return [cut for cut in bipartitions(psi.ndim)
            if schmidt_rank(psi, cut) != schmidt_rank(target, cut)]


# -- checks ----------------------------------------------------------------


def check_probability(p, expected, what):
    require(abs(p - expected) <= PROBABILITY_TOL,
            f"{what}: probability {p!r}, expected {expected!r}")


def check_corrected_state(psi, adj, correction, what):
    """psi, corrected by (x, z, f) in this module's code, equals |G(adj)>."""
    d = psi.shape[0]
    x, z, f = correction
    fid = fidelity(graph_state(adj, d), apply_correction(psi, x, z, f))
    require(fid >= 1 - FIDELITY_TOL,
            f"{what}: fidelity {fid!r} with the target graph state")


def check_adjacency(reported, expected, what):
    require(np.array_equal(np.asarray(reported), np.asarray(expected)),
            f"{what}: verified against adjacency {np.asarray(reported)}, "
            f"expected {np.asarray(expected)}")


def check_no_local_correction(psi, adj, what):
    """An SVD certificate: some cut's Schmidt rank differs from |G(adj)>'s."""
    cuts = differing_cuts(psi, graph_state(adj, psi.shape[0]))
    require(cuts, f"{what}: every Schmidt rank matches the target, so a "
                  "local correction is not ruled out")
    return cuts


def fusion_success_probability(d):
    """Type-II fusion: 2/d^2 for even d, 2/(d(d+1)) for odd d."""
    return 2.0 / d**2 if d % 2 == 0 else 2.0 / (d * (d + 1))


def check_close(value, expected, what, rtol=1e-12):
    require(abs(value - expected) <= rtol * abs(expected),
            f"{what}: {value!r}, expected {expected!r}")
