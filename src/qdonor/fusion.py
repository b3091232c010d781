"""Type-II qudit fusion at the probability and projective level.

The linear-optics internals of the fusion gate are out of scope; what is
modeled is (a) the analytic success probability per attempt and (b) the
graph transformation of a successful fusion, realized as a projection of the
two fused photons onto a generalized Bell state.  Projecting the ends of a
linear chain creates the missing edge between their neighbours: an
eight-qudit chain becomes a six-ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import budget as bg
from . import graphs as gm
from . import protocols as pr
from . import statevec as sv


def success_probability(d):
    """2/(d(d+1)) for odd d, 2/d^2 for even d; 1/2 at d=2.

    The even-d figure is quoted as approximate; it is treated as exact here
    and flagged approximate in reports.
    """
    if d < 2:
        raise ValueError("fusion needs d >= 2")
    if d % 2:
        return 2.0 / (d * (d + 1))
    return 2.0 / d**2


def ancilla_modes(d):
    """Ancilla modes a d-dimensional type-II fusion attempt needs, d(d-2)."""
    return d * (d - 2)


# geometric draws are made and summed this many at a time, so the memory
# sample_attempts takes does not grow with the number of trials
DRAW_CHUNK = 1 << 16


def sample_attempts(p, trials, master_seed):
    """Seeded geometric sampling; used to cross-check the closed form 1/p."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < p <= 1:
        raise ValueError("probability must lie in (0, 1]")
    expected = 1.0 / p
    rng = np.random.default_rng(master_seed)
    trials = int(trials)
    total = 0
    for start in range(0, trials, DRAW_CHUNK):
        size = min(DRAW_CHUNK, trials - start)
        total += int(rng.geometric(p, size=size).sum(dtype=np.int64))
    mean = total / trials
    se = math.sqrt((1 - p) / p**2 / trials)
    return {
        "p": p,
        "trials": trials,
        "empirical_mean": mean,
        "expected_mean": expected,
        "std_error_of_mean": se,
        "within_3_sigma": bool(abs(mean - expected) <= 3 * se),
    }


# -- projective fusion -------------------------------------------------------


def bell_state(d, a, b):
    """Generalized Bell vector of label (a, b) as a d x d amplitude table.

    The vector is (I x F X^a Z^b) sum_k |kk>/sqrt(d).  The Fourier on the
    second port is what converts a shared bond into a CZ edge: projecting
    the ends of a chain onto this family joins their neighbours, for every
    outcome.  The computational-basis family (I x X^a Z^b) sum_k |kk>/sqrt(d)
    does not: for no outcome does the depth-2 correction search turn the
    fused 6- or 8-chain at d=2, or the 6-chain at d=3, into the contracted
    chain graph.
    """
    base = np.zeros((d, d), dtype=np.complex128)
    omega = np.exp(2j * np.pi / d)
    for k in range(d):
        base[k, (k + a) % d] = omega ** ((b * k) % d) / math.sqrt(d)
    return base @ sv.fourier_matrix(d).T


def project_pair(reg, i, j, a, b):
    """Project subsystems i, j onto Bell (a, b); both qudits are consumed.

    Returns (probability, collapsed register without i and j); errors on a
    zero-probability projection.
    """
    if i == j:
        raise ValueError("fusion needs two distinct qudits")
    d = reg.radices[i]
    if reg.radices[j] != d:
        raise ValueError("fused qudits must share a dimension")
    bell = bell_state(d, a, b)
    amps = np.tensordot(np.conj(bell), reg.amps, axes=([0, 1], [i, j]))
    prob = float(np.sum(np.abs(amps) ** 2))
    if prob <= sv.ZERO_PROBABILITY:
        raise ValueError(f"zero-probability projection onto Bell ({a},{b})")
    return prob, sv.Register(amps / math.sqrt(prob))


def check_fusable_chain(n):
    """Fusing the ends of an n-chain needs two vertices left between them."""
    if n < 4:
        raise ValueError("need a chain of at least 4 to fuse the ends")


def fused_chain_graph(n, d):
    """Target after fusing the ends of an n-chain: the middle n-2 vertices
    with one extra unit of weight joining the old ends' neighbours."""
    check_fusable_chain(n)
    m = gm.make_linear(n - 2, d).matrix()
    m[0, -1] = m[-1, 0] = (m[0, -1] + 1) % d
    return gm.GraphSpec.from_matrix(d, m)


@dataclass(frozen=True)
class FusionOutcome:
    success: bool
    outcome: tuple                      # Bell label (a, b)
    probability: float
    register: sv.Register | None       # corrected post-fusion state
    correction: gm.CorrectionSet | None
    max_deviation: float

    def to_dict(self):
        return {
            "success": self.success,
            "outcome": list(self.outcome),
            "probability": self.probability,
            "correction": None if self.correction is None
            else self.correction.to_dict(),
            "max_deviation": self.max_deviation,
            "attempts": None,           # sampled by the file's writer
        }


def _require_chain(reg):
    """Raise unless ``reg`` holds the canonical n-chain graph state |C>, up
    to a global phase, with n >= 4; return (n, d).

    One pass over a copy: undoing the chain's CZ edges turns |C> into the
    uniform product state |G>, so subtracting the mean amplitude leaves
    U^dag(psi - <C|psi> C) for the unitary U of the edges.  Its norm must be
    at most ``STABILIZER_ATOL / 2``.  Because S_v C = C, every stabilizer
    deviation ||(S_v - 1) psi|| is at most twice that norm, so a register
    accepted here also passes ``stabilizer_verify`` against the chain.
    """
    n = reg.n_subsystems
    check_fusable_chain(n)
    d = reg.radices[0]
    if reg.radices != (d,) * n:
        raise ValueError(f"a chain to fuse needs one dimension throughout, "
                         f"got radices {reg.radices}")
    plus = reg.copy()
    for v in range(n - 1):
        sv.apply_cz_power(plus, v, v + 1, -1)
    plus.amps -= plus.amps.mean()
    if np.linalg.norm(plus.amps) > gm.STABILIZER_ATOL / 2:
        raise ValueError("register does not verify against the linear chain")
    return n, d


def fuse_chain_ends(reg, outcome):
    """Fuse the end photons of a verified linear chain on Bell ``outcome``.

    The register must hold a canonical n-chain graph state, up to a global
    phase; this is checked once per call, to half the stabilizer tolerance
    (see ``_require_chain``), and byproduct-carrying states should be
    corrected first.  The Bell label (a, b) is projected out of the first
    and last qudits, both are removed, and the result is verified against
    the contracted chain graph by a depth-2 local-correction search.
    """
    n, d = _require_chain(reg)
    prob, collapsed = project_pair(reg, 0, n - 1, outcome[0], outcome[1])
    target = fused_chain_graph(n, d)
    corr = gm.local_correction_search(collapsed, target, search_depth=2)
    if corr is None:
        return FusionOutcome(False, tuple(outcome), prob, None, None,
                             float("inf"))
    return FusionOutcome(True, tuple(outcome), prob,
                         gm.apply_correction(collapsed, corr), corr,
                         corr.report.max_deviation)


# -- scheme comparison -------------------------------------------------------

# target -> (scheme B's protocol, its compiler, fusions scheme A needs)
_TARGETS = {
    "ring6": ("six-ring", pr.compile_six_ring, 1),
    "ladder23": ("ladder", pr.compile_ladder, 2),
}


def compare_schemes(d, target):
    """Fusion-built versus directly-coupled resource-state costs.

    Scheme A grows one linear chain per pass and fuses; a failed fusion
    destroys the two measured photons and the pass restarts, so the expected
    pass count is p^-k for k required fusions.  Scheme B compiles the
    coupled-emitter protocol once, deterministically.  Ancilla modes
    (d(d-2) per fusion attempt) are reported, not simulated.  Budgets use
    the default cavity with the single-donor table for scheme A and the
    SB2 table for scheme B.
    """
    if target not in _TARGETS:
        raise ValueError(f"unsupported target {target!r}; "
                         f"choose from {sorted(_TARGETS)}")
    protocol, compile_b, n_fusions = _TARGETS[target]
    p = success_probability(d)      # checks d before the graph is built
    graph, _ = pr.target_graph(protocol, d)
    cavity = bg.CavityParams()
    passes = 1.0 / p**n_fusions     # mean of the geometric pass count

    chain_n = graph.n + 2 * n_fusions
    chain_budget = bg.timing_fidelity_budget(
        pr.compile_linear(d, chain_n), bg.single_donor_table(), cavity)
    program_b = compile_b(d)
    direct_budget = bg.timing_fidelity_budget(program_b, bg.sb2_table(),
                                              cavity)

    scheme_a = {
        "deterministic": p**n_fusions >= 1.0,
        "fusions_required": n_fusions,
        "p_success": p,
        "p_success_note": "even-d formula 2/d^2 is quoted approximate"
        if d % 2 == 0 else "odd-d formula 2/(d(d+1))",
        "expected_attempts": passes,
        "photons_per_attempt": chain_n,
        "photons_destroyed_mean": 2 * n_fusions * passes,
        "expected_photons": chain_n * passes,
        "ancilla_modes_per_fusion": ancilla_modes(d),
        "fusion_permitted": True,
        "time_mean_us": chain_budget.duration_us[1] * passes,
        "chain_budget": chain_budget.to_dict(),
    }
    scheme_b = {
        "deterministic": True,
        "fusions_required": 0,
        "expected_attempts": 1.0,
        "photons_per_attempt": graph.n,
        "photons_destroyed_mean": 0.0,
        "expected_photons": float(graph.n),
        "time_mean_us": direct_budget.duration_us[1],
        "cz_gates": program_b.count("cz"),
        "budget": direct_budget.to_dict(),
    }
    return {
        "d": d,
        "target": target,
        "graph": graph.to_dict(),
        "schemeA": scheme_a,
        "schemeB": scheme_b,
    }
