"""Donor spin Hamiltonians, spectra, transitions, and sensitivity sweeps.

Single donor: one I=7/2 nucleus hyperfine-coupled to a bound electron
(16 levels).  Two-donor molecule: two I=7/2 nuclei asymmetrically coupled to
one shared electron (2 x 8 x 8 = 128 levels).  All energies are stored in
MHz (h = 1), which spans the kHz quadrupole terms and the ~28 GHz electron
Zeeman splitting comfortably in double precision.

Quadrupole convention: the electric-field-gradient tensor is reduced to a
scalar f_q with the term -(f_q/2) I_z^2.  The -1/2 coefficient is chosen so
that the secular EDSR frequency comes out exactly as
B0 (gamma_n + gamma_e) + (m_I - 1/2)(f_q + A), the closed form used for the
cavity detuning estimates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

VALID_SPINS = (0.5, 1.5, 2.5, 3.5, 4.5)

# largest |H - H^dag| accepted, relative to the largest |H| entry
HERMITIAN_RTOL = 1e-12

# smallest product-basis weight an eigenstate may have and still be labelled
MIN_DOMINANCE = 0.9

# Measured constants for the bulk donor and the two-donor molecule.
GAMMA_N_MHZ_PER_T = 5.55
GAMMA_E_GHZ_PER_T = 27.97
HYPERFINE_MHZ = 101.52
B0_TESLA = 1.0
A_WEAK_KHZ = 239.0
A_STRONG_MHZ = 96.0
FQ_STRONG_KHZ = 44.3
FQ_WEAK_KHZ = 35.6

# Nuclear level a "fixed" EDSR spectator is held at: the top projection.
SPECTATOR_LEVEL = 0

# Cavity reference: the quoted |7/2,dn> <-> |5/2,up> transition frequency.
EDSR_CAVITY_REFERENCE_GHZ = 28.41


class LabelingAmbiguityError(RuntimeError):
    """Two eigenvectors claim the same product-basis label."""


def _check_nonnegative(record, names):
    """Each named field is a finite number >= 0; a bool is not a number."""
    for name in names:
        v = getattr(record, name)
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not math.isfinite(v) or v < 0):
            raise ValueError(f"{name}={v} must be finite and >= 0")


def _check_object(cls, obj):
    """``obj`` is a mapping whose keys all name fields of ``cls``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} needs a JSON object, "
                         f"got {type(obj).__name__}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s): "
                         f"{', '.join(unknown)}")


@dataclass(frozen=True)
class SpinParams:
    """Single-donor constants; field units follow the common data sheets."""

    gamma_n: float = GAMMA_N_MHZ_PER_T   # MHz/T
    gamma_e: float = GAMMA_E_GHZ_PER_T   # GHz/T
    A: float = HYPERFINE_MHZ             # MHz
    B0: float = B0_TESLA                 # T
    f_q: float = 0.0                     # kHz
    I: float = 3.5

    def __post_init__(self):
        if self.I not in VALID_SPINS:
            raise ValueError(f"nuclear spin {self.I} not a supported "
                             f"half-integer {VALID_SPINS}")
        _check_nonnegative(self, ("gamma_n", "gamma_e", "A", "B0", "f_q"))

    @property
    def nuclear_dim(self):
        return int(2 * self.I + 1)

    @property
    def gamma_e_mhz(self):
        return self.gamma_e * 1e3

    @property
    def f_q_mhz(self):
        return self.f_q * 1e-3

    @classmethod
    def from_dict(cls, obj):
        _check_object(cls, obj)
        return cls(**obj)


@dataclass(frozen=True)
class DoubleSpinParams:
    """Two nuclei sharing one electron; strong/weak hyperfine asymmetry."""

    base: SpinParams = field(default_factory=SpinParams)
    A_w: float = A_WEAK_KHZ        # kHz
    A_s: float = A_STRONG_MHZ      # MHz
    f_q_w: float = FQ_WEAK_KHZ     # kHz
    f_q_s: float = FQ_STRONG_KHZ   # kHz

    def __post_init__(self):
        _check_nonnegative(self, ("A_w", "A_s", "f_q_w", "f_q_s"))
        if self.A_s <= self.A_w * 1e-3:
            raise ValueError("strong coupling must exceed the weak one")

    @property
    def A_w_mhz(self):
        return self.A_w * 1e-3

    @classmethod
    def from_dict(cls, obj):
        """A ``base.A`` or ``base.f_q`` off its default is rejected: the
        molecule's couplings are its own ``A_s``/``A_w`` and ``f_q_s``/
        ``f_q_w``, and the Hamiltonian reads nothing else."""
        _check_object(cls, obj)
        obj = dict(obj)
        base = SpinParams.from_dict(obj.pop("base", {}))
        default = SpinParams()
        if base.A != default.A or base.f_q != default.f_q:
            raise ValueError(
                "the molecule ignores base.A and base.f_q; set A_s and A_w "
                "(hyperfine) or f_q_s and f_q_w (quadrupole) instead")
        return cls(base=base, **obj)


# -- operators ----------------------------------------------------------------


def spin_matrices(j):
    """(Jx, Jy, Jz) for spin j via ladder operators, m = +j..-j ordering."""
    dim = int(round(2 * j + 1))
    if abs(2 * j + 1 - dim) > 1e-12:
        raise ValueError(f"spin {j} is not half-integer or integer")
    m = j - np.arange(dim)
    jp = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(1, dim):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag(m).astype(np.complex128)
    return jx, jy, jz


def _quadrupole(f_q_mhz, iz):
    """-(f_q/2) I_z^2; the sign convention is fixed by the EDSR closed form."""
    return -0.5 * f_q_mhz * (iz @ iz)


def build_single_donor_hamiltonian(p: SpinParams):
    """Zeeman + hyperfine + quadrupole on the electron x nucleus space (MHz).

    H = B0 (-gamma_n I_z + gamma_e S_z) + A (S.I) + quadrupole.
    """
    sx, sy, sz = spin_matrices(0.5)
    ix, iy, iz = spin_matrices(p.I)
    dim_n = p.nuclear_dim
    eye_e = np.eye(2)
    eye_n = np.eye(dim_n)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        h = p.B0 * (-p.gamma_n * np.kron(eye_e, iz)
                    + p.gamma_e_mhz * np.kron(sz, eye_n))
        h = h + p.A * (np.kron(sx, ix) + np.kron(sy, iy) + np.kron(sz, iz))
        h = h + np.kron(eye_e, _quadrupole(p.f_q_mhz, iz))
    _check_hermitian(h)
    return h


def build_double_donor_hamiltonian(dp: DoubleSpinParams):
    """Five-term molecule Hamiltonian on electron x strong x weak (MHz)."""
    p = dp.base
    sx, sy, sz = spin_matrices(0.5)
    ix, iy, iz = spin_matrices(p.I)
    dim_n = p.nuclear_dim
    eye_e, eye_n = np.eye(2), np.eye(dim_n)

    def on_e(op):
        return np.kron(np.kron(op, eye_n), eye_n)

    def on_s(op):
        return np.kron(np.kron(eye_e, op), eye_n)

    def on_w(op):
        return np.kron(np.kron(eye_e, eye_n), op)

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        h = -p.gamma_n * p.B0 * (on_s(iz) + on_w(iz))
        h = h + p.gamma_e_mhz * p.B0 * on_e(sz)
        for se, sn in ((sx, ix), (sy, iy), (sz, iz)):
            coupl = np.kron(np.kron(se, sn), eye_n) * dp.A_s
            coupl = coupl + np.kron(np.kron(se, eye_n), sn) * dp.A_w_mhz
            h = h + coupl
        h = h + on_s(_quadrupole(dp.f_q_s * 1e-3, iz))
        h = h + on_w(_quadrupole(dp.f_q_w * 1e-3, iz))
    _check_hermitian(h)
    return h


def _check_hermitian(h):
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian overflows: an entry is not finite")
    scale = np.abs(h).max() or 1.0
    dev = np.abs(h - h.conj().T).max()
    if dev > HERMITIAN_RTOL * scale:
        raise ValueError(f"Hamiltonian not Hermitian: deviation {dev}")


# -- spectra ------------------------------------------------------------------


def half_label(m):
    """Half-integer as a compact string, e.g. +7/2 or -1/2."""
    num = int(round(2 * m))
    return f"{'+' if num >= 0 else '-'}{abs(num)}/2"


def electron_structure():
    return ("up", "dn")  # m_s = +1/2 first, matching operator ordering


def nuclear_structure(I):
    dim = int(2 * I + 1)
    return tuple(half_label(I - k) for k in range(dim))


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenenergies with dominant product-basis labels.

    ``levels[i]`` is the per-subsystem level-index tuple of eigenstate i;
    ``labels[i]`` the matching display string, electron part first.
    """

    energies_mhz: tuple
    levels: tuple
    labels: tuple
    structure: tuple

    def label_to_index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    def energy_of(self, label):
        return self.energies_mhz[self.label_to_index()[label]]


def spectrum(h, structure):
    """Diagonalize and label by dominant product-basis amplitude.

    ``structure`` is one label tuple per subsystem, ordered like the kron
    factors.  Raises LabelingAmbiguityError when two eigenvectors claim the
    same basis state or dominance falls below ``MIN_DOMINANCE``.
    """
    h = np.asarray(h)
    _check_hermitian(h)
    dims = tuple(len(s) for s in structure)
    if math.prod(dims) != h.shape[0]:
        raise ValueError(f"structure {dims} does not factor dim {h.shape[0]}")
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    levels, labels, doms = [], [], []
    for i in range(h.shape[0]):
        weights = np.abs(vecs[:, i]) ** 2
        flat = int(np.argmax(weights))
        dom = float(weights[flat])
        idx = np.unravel_index(flat, dims)
        levels.append(tuple(int(x) for x in idx))
        labels.append(":".join(structure[k][idx[k]] for k in range(len(dims))))
        doms.append(dom)
    if len(set(labels)) != len(labels):
        dupes = {l for l in labels if labels.count(l) > 1}
        raise LabelingAmbiguityError(
            f"ambiguous dominant-basis labeling: {sorted(dupes)}")
    if min(doms) < MIN_DOMINANCE:
        worst = min(range(len(doms)), key=lambda i: doms[i])
        raise LabelingAmbiguityError(
            f"eigenstate {labels[worst]} dominance {doms[worst]:.3f} below "
            f"{MIN_DOMINANCE}")
    return SpectrumResult(tuple(float(v) for v in vals), tuple(levels),
                          tuple(labels), tuple(structure))


def donor_spectrum(params):
    """Labelled spectrum of either device, told apart by the record's type.

    A ``SpinParams`` is the single donor (electron x nucleus, 16 levels); a
    ``DoubleSpinParams`` is the molecule (electron x strong x weak, 128).
    """
    if isinstance(params, DoubleSpinParams):
        h = build_double_donor_hamiltonian(params)
        nuclei = (nuclear_structure(params.base.I),) * 2
    else:
        h = build_single_donor_hamiltonian(params)
        nuclei = (nuclear_structure(params.I),)
    return spectrum(h, (electron_structure(),) + nuclei)


# -- transitions --------------------------------------------------------------


@dataclass(frozen=True)
class SpectatorConvention:
    """Which nucleus an EDSR/NMR drive targets and how spectators are held.

    ``target`` indexes the driven nucleus (1 = first nucleus after the
    electron; the strong one for the molecule, 2 = weak).  policy "fixed"
    keeps the spectator nucleus at ``SPECTATOR_LEVEL`` (the top projection);
    "resolved" enumerates every spectator value as its own transition.
    """

    target: int = 1
    policy: str = "fixed"

    def __post_init__(self):
        if self.policy not in ("fixed", "resolved"):
            raise ValueError(f"unknown spectator policy {self.policy!r}")


def enumerate_transitions(spec: SpectrumResult, kind,
                          convention: SpectatorConvention | None = None):
    """Allowed transitions under the stated selection rules, as a tuple of
    (from_label, to_label, frequency_mhz) sorted by frequency.

    ESR: electron flips, every nuclear level fixed.  NMR: electron fixed,
    one nucleus moves by one projection (the targeted one if a convention
    names it).  EDSR: electron flips while the targeted nucleus moves one
    projection the other way, conserving total angular momentum; the other
    nucleus is a spectator held or resolved per the convention.
    """
    kind = kind.lower()
    if kind not in ("esr", "nmr", "edsr"):
        raise ValueError(f"unknown transition kind {kind!r}")
    n_nuclei = len(spec.structure) - 1
    conv = convention or SpectatorConvention()
    if not 1 <= conv.target <= n_nuclei:
        raise ValueError(f"convention targets nucleus {conv.target}, but the "
                         f"spectrum has {n_nuclei}")
    # NMR with no explicit convention drives either nucleus
    nmr_targets = ([conv.target] if convention is not None
                   else list(range(1, n_nuclei + 1)))
    entries = []
    index = {lv: i for i, lv in enumerate(spec.levels)}
    for i, lv in enumerate(spec.levels):
        for j_lv in _partners(lv, kind, conv, spec.structure, n_nuclei,
                              nmr_targets):
            j = index[j_lv]
            f = abs(spec.energies_mhz[j] - spec.energies_mhz[i])
            # energies ascend with the index, ties kept in index order
            lo, hi = min(i, j), max(i, j)
            entries.append((spec.labels[hi], spec.labels[lo], float(f)))
    entries.sort(key=lambda e: (e[2], e[0], e[1]))
    return tuple(entries)


def _partners(lv, kind, conv, structure, n_nuclei, nmr_targets):
    """Destination level tuples of the transitions that start at ``lv``.

    Each transition is generated once, from one end: ESR and EDSR from
    electron index 0, NMR from the lower index of the moving nucleus.
    """
    out = []
    if kind == "nmr":
        for t in nmr_targets:
            if lv[t] + 1 < len(structure[t]):
                out.append(lv[:t] + (lv[t] + 1,) + lv[t + 1:])
        return out
    if lv[0] != 0:
        return out
    if kind == "esr":
        out.append((1,) + lv[1:])
        return out
    # EDSR: flip-flop conserving m_S + m_I.  Level index counts DOWN from
    # +I, so electron index 0 (up, m_S=+1/2) pairs with a nucleus one index
    # higher (m_I one lower).
    t = conv.target
    held = conv.policy == "fixed" and any(
        lv[s] != SPECTATOR_LEVEL
        for s in range(1, n_nuclei + 1) if s != t)
    if lv[t] + 1 < len(structure[t]) and not held:
        out.append((1,) + lv[1:t] + (lv[t] + 1,) + lv[t + 1:])
    return out


# -- closed forms and sweeps --------------------------------------------------


def edsr_frequency_closed_form(m_i, p: SpinParams):
    """Secular |m_I, dn> <-> |m_I - 1, up> frequency in MHz.

    B0 (gamma_n + gamma_e) + (m_I - 1/2)(f_q + A); exact to first order in
    the hyperfine/Zeeman ratio.
    """
    two_m = round(2 * m_i)
    if abs(2 * m_i - two_m) > 1e-9 or abs(m_i) > p.I or m_i - 1 < -p.I:
        raise ValueError(f"m_I={m_i} has no EDSR partner for I={p.I}")
    gamma_plus = p.gamma_n + p.gamma_e_mhz
    return p.B0 * gamma_plus + (m_i - 0.5) * (p.f_q_mhz + p.A)


def edsr_comparison(p: SpinParams):
    """Closed form versus full diagonalization for every valid m_I.

    The report carries the quoted cavity frequency alongside; the quoted
    value sits ~130 MHz above the closed form at B0 = 1 T exactly, and the
    field calibration behind it is not pinned down, so both are shown and
    nothing is tuned.
    """
    spec = donor_spectrum(p)
    rows = []
    steps = int(2 * p.I)
    for k in range(steps):
        m_i = p.I - k
        closed = edsr_frequency_closed_form(m_i, p)
        lab_dn = f"dn:{half_label(m_i)}"
        lab_up = f"up:{half_label(m_i - 1)}"
        exact = abs(spec.energy_of(lab_up) - spec.energy_of(lab_dn))
        rows.append({
            "m_I": half_label(m_i),
            "closed_form_mhz": closed,
            "diagonalized_mhz": exact,
            "relative_error": abs(closed - exact) / exact,
        })
    return {
        "rows": rows,
        "cavity_reference_ghz": EDSR_CAVITY_REFERENCE_GHZ,
        "note": "reference transition |+7/2,dn> <-> |+5/2,up>; quoted cavity "
                "frequency reported alongside, not fitted",
    }


# the fields a sweep may move, where the record carries them; the
# molecule's B0 is its base's
_SWEPT = ("B0", "A", "f_q", "A_w", "A_s", "f_q_w", "f_q_s")


def sensitivity_sweep(params, perturbations, kind):
    """Re-diagonalize under parameter shifts and report transition moves.

    ``perturbations`` is a list of (name, delta, mode) with mode "absolute"
    (same unit as the field) or "relative".  ``name`` is B0, A or f_q for a
    single donor, and B0, A_w, A_s, f_q_w or f_q_s for the molecule.
    Transitions are matched by their labels against the unperturbed
    reference.
    """
    kind = kind.lower()
    base_tr = enumerate_transitions(donor_spectrum(params), kind)
    base = {(f, t): x for f, t, x in base_tr}
    rows = []
    for name, delta, mode in perturbations:
        record = getattr(params, "base", params) if name == "B0" else params
        if name not in _SWEPT or not hasattr(record, name):
            raise ValueError(f"unknown parameter {name!r} for "
                             f"{type(params).__name__}")
        if mode not in ("absolute", "relative"):
            raise ValueError(f"unknown perturbation mode {mode!r}; expected "
                             "'absolute' or 'relative'")
        current = getattr(record, name)
        new_val = current * (1 + delta) if mode == "relative" \
            else current + delta
        moved = replace(record, **{name: new_val})
        newp = (moved if record is params
                else replace(params, base=moved))
        new_tr = enumerate_transitions(donor_spectrum(newp), kind)
        shifts = []
        for f, t, x in new_tr:
            if (f, t) in base:
                shifts.append((f, t, x - base[(f, t)]))
        rows.append({
            "parameter": name,
            "delta": delta,
            "mode": mode,
            "shifts_mhz": shifts,
            "max_abs_shift_mhz": max((abs(s[2]) for s in shifts), default=0.0),
        })
    baseline = {"kind": kind, "entries": [list(e) for e in base_tr]}
    return {"kind": kind, "baseline": baseline, "perturbed": rows}


def default_perturbations(double):
    """Quoted device-to-device variation scales: field, hyperfine, quadrupole."""
    if double:
        return [("B0", 1e-3, "absolute"), ("A_s", 5.0, "absolute"),
                ("A_w", 5e3, "absolute"), ("f_q_s", 4.0, "absolute"),
                ("f_q_s", 50.0, "absolute")]
    return [("B0", 1e-3, "absolute"), ("A", 5.0, "absolute"),
            ("f_q", 4.0, "absolute"), ("f_q", 50.0, "absolute")]
