"""Pulse-level protocol compiler and executor.

Programs are flat lists of tagged instructions (fourier, permute, edsr, emit,
cz, measure, idle) over one or two donor emitters sharing an electron.  The
executor runs them on the dense state-vector engine, enumerates or samples
the final donor measurements, and hands the photonic branches to the graph
verifier.

Register layout during execution: donors first (one d-level subsystem per
emitter), then the shared electron, then photons in emission order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import statevec as sv
from . import graphs as gm

MAX_SINGLE_PHOTON_D = 8


@dataclass(frozen=True)
class Op:
    """What one instruction tag carries and what the budget charges for it.

    ``fields`` maps each field to int or float, and ``optional`` names the
    ones that may be left out.  ``row`` is the operation-table row charged
    per step, None where the charge is a duration.  ``distinct`` names
    fields whose values must all differ, as execution requires.
    """

    fields: dict
    row: str | None
    optional: tuple = ()
    distinct: tuple = ()


OPS = {
    "fourier": Op({"emitter": int}, "fourier"),
    "permute": Op({"emitter": int, "a": int, "b": int}, "nmr"),
    "edsr": Op({"emitter": int, "control_level": int}, "edsr"),
    "emit": Op({"emitter": int, "photon": int, "bin": int}, None),
    "cz": Op({"emitter": int, "other": int, "weight": int}, "cz",
             distinct=("emitter", "other")),
    "measure": Op({"emitter": int}, "measure"),
    "idle": Op({"emitter": int, "duration": float}, None, ("duration",)),
}

# Index fields and the Program header entry that bounds them.
_INDEX_BOUNDS = {"emitter": "n_emitters", "other": "n_emitters",
                 "a": "d", "b": "d", "control_level": "d",
                 "photon": "n_photons"}


def _has_type(val, typ):
    if typ is None or isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if typ is float else typ)


@dataclass(frozen=True)
class Instruction:
    """One pulse-level step; fields the tag does not carry stay None."""

    op: str
    emitter: int | None = None
    a: int | None = None               # permute source
    b: int | None = None               # permute target
    control_level: int | None = None   # edsr
    photon: int | None = None          # emit
    bin: int | None = None             # emit
    other: int | None = None           # cz partner emitter
    weight: int | None = None          # cz power
    duration: float | None = None      # idle, in microseconds

    def __post_init__(self):
        checks = _FIELD_CHECKS.get(self.op)
        if checks is None:
            raise ValueError(f"unknown instruction tag {self.op!r}")
        for name, typ, required in checks:
            val = getattr(self, name)
            if val is None:
                if required:
                    raise ValueError(f"{self.op} instruction needs {name!r}")
            elif not _has_type(val, typ):
                raise ValueError(
                    f"{self.op} instruction cannot have {name}={val!r}")
        spec = OPS[self.op]
        if self.duration is not None and not 0 <= self.duration < math.inf:
            raise ValueError("idle duration must be finite and >= 0, got "
                             f"{self.duration}")
        vals = [val for name in spec.distinct
                if (val := getattr(self, name)) is not None]
        if len(set(vals)) != len(vals):
            raise ValueError(f"{self.op} instruction repeats a value among "
                             f"{', '.join(spec.distinct)}: {vals}")

    def to_dict(self):
        return {name: val for name in _FIELD_NAMES
                if (val := getattr(self, name)) is not None}

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError(f"instruction must be an object, got {obj!r}")
        extra = sorted(set(obj) - _KEYS)
        if extra:
            raise ValueError(f"instruction has no field {extra[0]!r}")
        kw = dict(obj)
        return cls(kw.pop("op", None), **kw)


# Every instruction built, serialised or loaded reads these, so they are
# built once, here, from the dataclass fields, OPS and _INDEX_BOUNDS.
# _FIELD_NAMES keeps declaration order, which is to_dict's key order.
# _FIELD_CHECKS holds, per tag, (name, type, required) for every field after
# op; the type is None for a field the tag does not carry.  _BOUNDED holds,
# per tag, the (index field, Program header entry) pairs that bound it.
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(Instruction))
_KEYS = frozenset(_FIELD_NAMES)
_FIELD_CHECKS = {
    op: tuple((name, spec.fields.get(name),
               name in spec.fields and name not in spec.optional)
              for name in _FIELD_NAMES[1:])
    for op, spec in OPS.items()}
_BOUNDED = {op: tuple((name, bound) for name, bound in _INDEX_BOUNDS.items()
                      if name in spec.fields)
            for op, spec in OPS.items()}


def fourier(emitter):
    return Instruction("fourier", emitter=emitter)


def permute(emitter, a, b):
    return Instruction("permute", emitter=emitter, a=a, b=b)


def edsr(emitter, control_level):
    return Instruction("edsr", emitter=emitter, control_level=control_level)


def emit(emitter, photon, bin):
    return Instruction("emit", emitter=emitter, photon=photon, bin=bin)


def cz(emitter, other, weight=1):
    return Instruction("cz", emitter=emitter, other=other, weight=weight)


def measure_donor(emitter):
    return Instruction("measure", emitter=emitter)


def idle(emitter, duration=0.0):
    return Instruction("idle", emitter=emitter, duration=duration)


@dataclass(frozen=True)
class Program:
    """Compiled protocol: header plus ordered instruction list."""

    d: int
    n_emitters: int
    n_photons: int
    instructions: tuple

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("d", "n_emitters", "n_photons"):
            if not _has_type(getattr(self, name), int):
                raise ValueError(f"program {name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        seen_measure = set()
        bins_seen = {}
        for ins in self.instructions:
            for name, bound in _BOUNDED[ins.op]:
                val = getattr(ins, name)
                limit = getattr(self, bound)
                if val is not None and not 0 <= val < limit:
                    raise ValueError(f"{name} out of range [0, {limit}) in "
                                     f"{ins.to_dict()}")
            if ins.op == "measure":
                if ins.emitter in seen_measure:
                    raise ValueError(
                        f"emitter {ins.emitter} measured more than once")
                seen_measure.add(ins.emitter)
            elif ((ins.emitter in seen_measure or ins.other in seen_measure)
                  and ins.op != "idle"):
                raise ValueError(
                    f"instruction {ins} follows emitter measurement")
            if ins.op == "emit":
                prev = bins_seen.setdefault(ins.photon, -1)
                if ins.bin != prev + 1:
                    raise ValueError(
                        f"photon {ins.photon} bins must increase: saw bin "
                        f"{ins.bin} after {prev}")
                bins_seen[ins.photon] = ins.bin
        for p, last in bins_seen.items():
            if last != self.d - 1:
                raise ValueError(f"photon {p} only emitted through bin {last}")
        if len(bins_seen) != self.n_photons:
            raise ValueError("not every photon is emitted")

    def count(self, op):
        return sum(1 for ins in self.instructions if ins.op == op)

    def to_dict(self):
        return {
            "d": self.d,
            "n_emitters": self.n_emitters,
            "n_photons": self.n_photons,
            "instructions": [ins.to_dict() for ins in self.instructions],
        }

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError("program must be an object, got a "
                             f"{type(obj).__name__}")
        instructions = obj.get("instructions")
        if not isinstance(instructions, list):
            raise ValueError("program instructions must be a list, got "
                             f"{instructions!r}")
        return cls(obj.get("d"), obj.get("n_emitters"), obj.get("n_photons"),
                   tuple(Instruction.from_dict(i) for i in instructions))


# -- compilers --------------------------------------------------------------


def _emission_block(emitter, photon, d):
    """EDSR + cavity exchange per bin, permuting the next level in.

    No closing permutation: the net cyclic relabel of the donor levels is
    absorbed by the measurement byproduct corrections.
    """
    ins = [edsr(emitter, 0), emit(emitter, photon, 0)]
    for b in range(1, d):
        ins.append(permute(emitter, 0, b))
        ins.append(edsr(emitter, 0))
        ins.append(emit(emitter, photon, b))
    return ins


def _emission_round(n_emitters, first_photon, d):
    """Each emitter in turn emits one photon while every other one idles."""
    ins = []
    for e in range(n_emitters):
        ins += [idle(other) for other in range(n_emitters) if other != e]
        ins += _emission_block(e, first_photon + e, d)
    return ins


def _columns(d, n_emitters, n_columns, rungs):
    """The emission cycle both schemes run, then donor readout.

    Each column is a Fourier on every emitter, a CZ between the two
    emitters if the column is in ``rungs``, then one emission round.  One
    final Fourier precedes the donor measurements, matching the worked two-
    and three-photon sequences rather than the terser step table.
    """
    _check_dim(d)
    if n_columns < 1:
        raise ValueError("need at least one photon")
    emitters = range(n_emitters)
    ins = []
    for col in range(n_columns):
        ins += [fourier(e) for e in emitters]
        if col in rungs:
            ins.append(cz(0, 1))
        ins += _emission_round(n_emitters, n_emitters * col, d)
    ins += [fourier(e) for e in emitters]
    ins += [measure_donor(e) for e in emitters]
    return Program(d, n_emitters, n_emitters * n_columns, tuple(ins))


def compile_linear(d, n):
    """n-photon linear graph state from one emitter: n columns, no CZ."""
    return _columns(d, 1, n, ())


# Each two-emitter protocol: its column count, the columns that carry a CZ
# rung, and the published vertex order (vertex i is photon order[i]).
_COUPLED = {"six-ring": (3, (0, 2), (4, 2, 0, 1, 3, 5)),
            "ladder": (3, (0, 1, 2), (0, 2, 4, 1, 3, 5))}


def _column_graph(n_emitters, n_columns, rungs):
    """Adjacency of the graph ``_columns`` makes, photon p as vertex p.

    Each emitter's photons form a rail: photon p joins photon
    p + n_emitters.  Each rung column c joins photons 2c and 2c + 1.  All
    edges have weight 1.
    """
    n = n_emitters * n_columns
    m = np.zeros((n, n), dtype=int)
    for p in range(n - n_emitters):
        m[p, p + n_emitters] = m[p + n_emitters, p] = 1
    for c in rungs:
        m[2 * c, 2 * c + 1] = m[2 * c + 1, 2 * c] = 1
    return m


def compile_six_ring(d):
    """Two coupled emitters close a six-photon ring with two CZ gates.

    Rung columns 0 and 2: one CZ follows the first Fourier pair, and the
    ring-closing CZ follows the third, before the final emission round.
    """
    n_columns, rungs, _ = _COUPLED["six-ring"]
    return _columns(d, 2, n_columns, rungs)


def compile_ladder(d, step_order="verified"):
    """2x3 ladder from two coupled emitters and three CZ gates.

    The published step table places the second CZ after the second emission
    round and omits the final Fourier; executed literally that order fails
    ladder verification (the middle rung never forms).  The default
    "verified" order applies each CZ right after the Fourier pair that
    precedes its emission round: one CZ per vertical edge, which is what the
    figure caption describes.  The literal order is written out as printed.
    """
    _check_dim(d)
    if step_order not in ("verified", "literal"):
        raise ValueError(f"unknown step_order {step_order!r}")
    if step_order == "verified":
        n_columns, rungs, _ = _COUPLED["ladder"]
        return _columns(d, 2, n_columns, rungs)
    ins = [fourier(0), fourier(1), cz(0, 1)]
    ins += _emission_round(2, 0, d)
    ins += [fourier(0), fourier(1)]
    ins += _emission_round(2, 2, d)
    ins += [cz(0, 1), fourier(0), fourier(1), cz(0, 1)]
    ins += _emission_round(2, 4, d)
    ins += [measure_donor(0), measure_donor(1)]
    return Program(d, 2, 6, tuple(ins))


def _check_dim(d):
    """A dimension below 2 is malformed input; one above the donor's eight
    nuclear levels is a resource limit."""
    if d < 2:
        raise ValueError(f"qudit dimension must be at least 2, got {d}")
    if d > MAX_SINGLE_PHOTON_D:
        raise sv.CapacityError(
            f"qudit dimension {d} outside supported range "
            f"[2, {MAX_SINGLE_PHOTON_D}]")


def target_graph(protocol, d, n=None):
    """Canonical target GraphSpec and the vertex -> photon-id order.

    The single photon is the one-vertex graph state.  A coupled target is
    read from its ``_COUPLED`` row (columns, rungs, published order): the
    graph ``_columns`` makes from those columns and rungs, two rails plus
    one rung per CZ column, with its vertices in the published order.
    """
    if protocol == "single-photon":
        return gm.GraphSpec.from_matrix(d, [[0]]), (0,)
    if protocol == "linear":
        if n is None:
            raise ValueError("linear target needs n")
        return gm.make_linear(n, d), tuple(range(n))
    if protocol not in _COUPLED:
        raise ValueError(f"no graph target for protocol {protocol!r}")
    n_columns, rungs, order = _COUPLED[protocol]
    m = _column_graph(2, n_columns, rungs)
    return gm.GraphSpec.from_matrix(d, m[np.ix_(order, order)]), order


# -- execution ---------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeBranch:
    """One enumerated donor-readout branch."""

    outcomes: tuple          # measured level per emitter, in measure order
    probability: float
    photons: sv.Register     # photonic register, emission order


@dataclass(frozen=True)
class ExecutionTrace:
    program: Program
    checksums: tuple
    final_register: sv.Register        # state before donor measurement
    branches: tuple | None = None      # enumerate mode
    records: tuple = ()                # sampled mode (emitter, level, p)


def _checksum(reg):
    """SHA-256 of the int64 radices and the amplitudes rounded to 12
    decimals, in C order, after checking the state's norm to NORM_ATOL.
    Both read one C-ordered float64 view: its dot with itself is the squared
    norm, and rounding it rounds the real and imaginary parts exactly as
    rounding the complex array does."""
    flat = np.ascontiguousarray(reg.amps).reshape(-1).view(np.float64)
    norm = math.sqrt(flat @ flat)
    if abs(norm - 1.0) > sv.NORM_ATOL:
        raise ValueError(f"state norm drifted to {norm}")
    h = hashlib.sha256()
    h.update(np.asarray(reg.radices, dtype=np.int64).tobytes())
    h.update(np.round(flat, 12))
    return h.hexdigest()


def execute(program, seed=0, *, enumerate_all, cap=sv.DEFAULT_AMPLITUDE_CAP):
    """Run a program; donor readout either samples (seeded) or enumerates.

    Measurement instructions must come last (the Program invariant), so the
    unitary prefix runs once and the readout branches share it.  The
    register is execute's own: permutations, flips, emissions and CZ update
    it in place.  The program fixes how the register grows, so the cap is
    checked for every photon before the first gate.
    """
    d, ne = program.d, program.n_emitters
    reg = sv.init_register(
        (d,) * ne + (2,), (0,) * ne + (sv.ELECTRON_DOWN,), cap=cap)
    _check_growth(program, reg.size, cap)
    electron = ne
    photon_axis = {}
    checksums = []
    measures = []
    for ins in program.instructions:
        if ins.op == "fourier":
            reg = sv.apply_fourier(reg, ins.emitter)
        elif ins.op == "permute":
            sv.apply_permutation(reg, ins.emitter, ins.a, ins.b)
        elif ins.op == "edsr":
            sv.apply_conditional_flip(
                reg, (ins.emitter, ins.control_level), electron)
        elif ins.op == "emit":
            if ins.photon not in photon_axis:
                reg, axis = sv.add_photon(reg, d)
                photon_axis[ins.photon] = axis
            sv.apply_emission(reg, photon_axis[ins.photon], ins.bin, electron)
            if ins.bin == d - 1:
                reg = sv.finalize_photon(reg, photon_axis[ins.photon])
        elif ins.op == "cz":
            sv.apply_cz_power(reg, ins.emitter, ins.other, ins.weight)
        elif ins.op == "idle":
            pass
        elif ins.op == "measure":
            measures.append(ins.emitter)
        # idle and measure leave the state as it is (readout runs below)
        if checksums and ins.op in ("idle", "measure"):
            checksums.append(checksums[-1])
        else:
            checksums.append(_checksum(reg))
    final = reg

    # Each measurement consumes its donor, so an emitter's axis is its index
    # less the donors measured before it.  Branches nest in measure order:
    # enumeration follows every possible level, ascending, and sampling the
    # one level the seeded generator draws.
    rng = np.random.default_rng(seed)
    branches = [((), 1.0, final)]
    records = []
    for k, emitter in enumerate(measures):
        axis = emitter - sum(m < emitter for m in measures[:k])
        nxt = []
        for outcomes, prob, state in branches:
            probs = sv.outcome_probabilities(state, axis)
            if enumerate_all:
                levels = [level for level, p in enumerate(probs)
                          if p > sv.ZERO_PROBABILITY]
            else:
                levels = [int(rng.choice(len(probs), p=probs / probs.sum()))]
            for level in levels:
                p = float(probs[level])
                nxt.append((outcomes + (level,), prob * p,
                            sv.collapse(state, axis, level, p)))
                if not enumerate_all:
                    records.append((emitter, level, p))
        branches = nxt
    left = ne - len(measures)   # donors still held, ahead of the electron
    if enumerate_all:
        return ExecutionTrace(program, tuple(checksums), final, branches=tuple(
            OutcomeBranch(o, p, _extract_photons(s, left))
            for o, p, s in branches))
    return ExecutionTrace(program, tuple(checksums), final,
                          records=tuple(records))


def _check_growth(program, size, cap):
    """Raise CapacityError if the register, ``size`` amplitudes before the
    first gate, would outgrow ``cap``: a photon's first emission multiplies
    it by d + 1, and its last bin leaves d / (d + 1) of that."""
    d = program.d
    for ins in program.instructions:
        if ins.op == "emit" and ins.bin == 0:
            size *= d + 1
            if size > cap:
                raise sv.CapacityError(f"adding a photon needs {size} "
                                       f"amplitudes, cap is {cap}")
        if ins.op == "emit" and ins.bin == d - 1:
            size = size // (d + 1) * d


def _extract_photons(state, n_donors):
    """Drop the unmeasured donors and the spin-down electron."""
    for _ in range(n_donors + 1):
        state = sv.remove_subsystem(state, 0)
    return state


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class BranchResult:
    outcomes: tuple
    probability: float
    correction: gm.CorrectionSet | None
    max_deviation: float
    passed: bool

    def to_dict(self):
        return {
            "outcomes": list(self.outcomes),
            "probability": self.probability,
            "correction": None if self.correction is None
            else self.correction.to_dict(),
            "max_deviation": self.max_deviation,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    graph: gm.GraphSpec
    photon_order: tuple
    branches: tuple

    @property
    def passed(self):
        return all(b.passed for b in self.branches)

    def to_dict(self):
        return {
            "graph": self.graph.to_dict(),
            "photon_order": list(self.photon_order),
            "passed": bool(self.passed),
            "branches": [b.to_dict() for b in self.branches],
            "notes": [],
        }


def verify_against_target(trace, graph, photon_order):
    """Stabilizer report per enumerated donor outcome, with the corrections
    of a local-correction search: depth 2, but depth 1 (Z only) on a
    one-vertex target, which a Fourier reaches from any one-bin photon.
    ``photon_order`` maps graph vertex i to the photon id at it.  A branch
    passes when the search returns a correction, the report when all do.
    """
    if trace.branches is None:
        raise ValueError("verification needs an outcome-enumerated trace "
                         "(execute with enumerate_all=True)")
    if trace.program.n_photons != graph.n:
        raise ValueError(
            f"photon count {trace.program.n_photons} does not match the "
            f"{graph.n}-vertex target")
    order = tuple(photon_order)
    # numpy alone would accept a negative axis, and the order is written out
    if sorted(order) != list(range(graph.n)):
        raise ValueError(f"photon order {order} is not a permutation of "
                         f"the {graph.n} graph vertices")
    depth = 1 if graph.n == 1 else 2
    results = []
    for br in trace.branches:
        reg = sv.Register(np.transpose(br.photons.amps, order))
        corr = gm.local_correction_search(reg, graph, search_depth=depth)
        results.append(BranchResult(
            br.outcomes, br.probability, corr,
            float("inf") if corr is None else corr.report.max_deviation,
            corr is not None))
    return VerificationReport(graph, order, tuple(results))
