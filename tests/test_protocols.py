"""Protocol compilation, execution, and target verification."""

import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdonor import budget as bg
from qdonor import cli
from qdonor import fusion as fu
from qdonor import graphs as gm
from qdonor import protocols as pr
from qdonor import statevec as sv

# Worked two-photon pre-measurement expansion, donor branch -> signs on the
# photon level strings (photon 1 first, string char = occupied time-bin).
TWO_PHOTON_EXPANSION = {
    0: {"10": 1, "00": 1, "11": 1, "01": -1},
    1: {"11": 1, "01": -1, "10": -1, "00": -1},
}


def expansion_register(table, n_photons):
    """Target tensor over (donor, electron, photons); electron spin-down."""
    amps = np.zeros((2, 2) + (2,) * n_photons, dtype=complex)
    for branch, terms in table.items():
        for string, sign in terms.items():
            idx = (branch, sv.ELECTRON_DOWN) + tuple(int(c) for c in string)
            amps[idx] = sign
    amps /= np.linalg.norm(amps)
    return amps


class TestCompilers:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_single_photon_instruction_count(self, d):
        prog = pr.compile_linear(d, 1)
        # fourier + d emission pairs + (d-1) permutes + fourier + measure
        assert len(prog.instructions) == 3 * d + 2

    def test_dimension_above_range_is_a_capacity_error(self):
        with pytest.raises(sv.CapacityError):
            pr.compile_linear(9, 1)

    @pytest.mark.parametrize("d", [1, 0, -2])
    def test_dimension_below_two_is_malformed(self, d):
        with pytest.raises(ValueError, match="at least 2"):
            pr.compile_linear(d, 2)
        with pytest.raises(ValueError, match="at least 2"):
            pr.compile_six_ring(d)

    def test_linear_photon_budget(self):
        prog = pr.compile_linear(3, 4)
        assert prog.n_photons == 4
        assert prog.count("measure") == 1
        assert prog.instructions[-1].op == "measure"

    def test_six_ring_shape(self):
        prog = pr.compile_six_ring(2)
        assert prog.n_emitters == 2
        assert prog.count("cz") == 2
        assert prog.count("measure") == 2
        # emission rounds alternate emitters with an explicit idle
        idles = [i.emitter for i in prog.instructions if i.op == "idle"]
        assert idles == [1, 0, 1, 0, 1, 0]

    def test_ladder_has_three_cz(self):
        for order in ("verified", "literal"):
            assert pr.compile_ladder(3, order).count("cz") == 3

    def test_program_json_round_trip(self):
        prog = pr.compile_six_ring(3)
        back = pr.Program.from_dict(json.loads(json.dumps(prog.to_dict())))
        assert back == prog

    def test_program_tags_are_canonical(self):
        prog = pr.compile_ladder(2)
        tags = {i["op"] for i in prog.to_dict()["instructions"]}
        assert tags <= {"fourier", "permute", "edsr", "emit", "cz",
                        "measure", "idle"}

    def test_bin_order_validation(self):
        with pytest.raises(ValueError, match="bins must increase"):
            pr.Program(2, 1, 1, (
                pr.fourier(0), pr.edsr(0, 0), pr.emit(0, 0, 1)))

    @pytest.mark.parametrize("gate", [pr.cz(0, 1), pr.cz(1, 0)])
    def test_no_gate_on_a_read_out_donor(self, gate):
        # a CZ names two emitters; either one read out rejects it
        with pytest.raises(ValueError, match="follows emitter measurement"):
            pr.Program(2, 2, 0, (pr.fourier(0), pr.fourier(1),
                                 pr.measure_donor(0), gate))

    def test_every_compiled_program_is_pinned(self):
        # one SHA-256 over every program the compilers make at d = 2..8,
        # the ones too large to execute included
        h = hashlib.sha256()
        for d in range(2, 9):
            progs = [pr.compile_linear(d, 1), pr.compile_six_ring(d),
                     pr.compile_ladder(d), pr.compile_ladder(d, "literal")]
            progs += [pr.compile_linear(d, n) for n in range(1, 9)]
            for p in progs:
                h.update(json.dumps(p.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == (
            "398c85dae5a1a4ca7647ed83546885f1b2bfb49c04af54f25c1d2bfcca2007d7")
        # the dimension is checked before anything else
        with pytest.raises(sv.CapacityError):
            pr.compile_linear(9, 0)
        with pytest.raises(sv.CapacityError):
            pr.compile_ladder(9, "bogus")
        with pytest.raises(ValueError, match="need at least one photon"):
            pr.compile_linear(2, 0)

    def test_every_target_is_pinned(self):
        # one SHA-256 over every target graph and photon order at d = 2..8
        h = hashlib.sha256()
        for d in range(2, 9):
            targets = [pr.target_graph(p, d) for p in ("six-ring", "ladder")]
            targets += [pr.target_graph("linear", d, n) for n in range(2, 9)]
            for graph, order in targets:
                h.update(json.dumps([graph.to_dict(), list(order)]).encode())
        assert h.hexdigest() == (
            "08dc5e9ef16a68af821a1dbf7b27dd9713c7ddf3de696107b74d25f15b41e35f")

    @pytest.mark.parametrize("d", range(2, 9))
    def test_fused_ring_is_the_coupled_ring(self, d):
        # scheme A's fused eight-chain and scheme B's six-ring are one graph
        assert fu.fused_chain_graph(8, d) == pr.target_graph("six-ring", d)[0]


def one_of_every_tag():
    """A d=3, two-emitter program with every instruction tag.

    The Fourier spreads emitter 0 over its three levels and the emission
    block empties each in turn, so the photon leaves no vacuum amplitude.
    """
    return pr.Program(3, 2, 1, (
        pr.fourier(0), pr.cz(0, 1, weight=2), pr.idle(1, 2.5),
        pr.edsr(0, 0), pr.emit(0, 0, 0),
        pr.permute(0, 0, 1), pr.edsr(0, 0), pr.emit(0, 0, 1),
        pr.permute(0, 0, 2), pr.edsr(0, 0), pr.emit(0, 0, 2),
        pr.measure_donor(0), pr.measure_donor(1)))


@functools.lru_cache(maxsize=None)
def _steps(d, n_emitters):
    """Up to twelve valid non-emission, non-readout instructions.  Built
    once per header, because Hypothesis validates every new strategy."""
    emitter = st.integers(0, n_emitters - 1)
    level = st.integers(0, d - 1)
    kinds = [
        st.builds(pr.fourier, emitter),
        st.builds(pr.permute, emitter, level, level),
        st.builds(pr.edsr, emitter, level),
        st.builds(pr.idle, emitter, st.floats(0, 1e6)),
        st.builds(pr.Instruction, st.just("idle"), emitter=emitter),
    ]
    if n_emitters == 2:   # a CZ joins two distinct emitters
        kinds.append(st.builds(lambda p, w: pr.cz(*p, weight=w),
                               st.permutations([0, 1]),
                               st.integers(-2 * d, 2 * d)))
    return st.lists(st.one_of(kinds), max_size=12)


@st.composite
def valid_programs(draw):
    """Random programs that pass validation: d=2..8, one or two emitters,
    every photon emitted through its bins in order, readout last.

    A photon comes as the compilers' emission block from one emitter, which
    leaves no vacuum behind, unless a draw of 7 in 0..7 makes it bare: one
    emission per bin, each from its own emitter, that other steps may fall
    between.  The readout measures a suffix of a random emitter order, and
    the count skipped leans to zero, since an unmeasured donor must end in
    one definite level.  About two draws in three run through the readout,
    and every program of the all-bare form can still be drawn.  Half the
    two-emitter draws also hold a Fourier on each emitter followed by a CZ,
    which acts on two superposed donors, where the sign of its phase shows;
    those read out both donors, as neither is left in a definite level.
    """
    d = draw(st.integers(2, 8))
    n_emitters = draw(st.integers(1, 2))
    n_photons = draw(st.integers(0, 3))
    others = [[step] for step in draw(_steps(d, n_emitters))]
    entangled = n_emitters == 2 and draw(st.booleans())
    if entangled:
        others.insert(draw(st.integers(0, len(others))), [
            pr.fourier(0), pr.fourier(1),
            pr.cz(0, 1, weight=draw(st.integers(1, d - 1)))])
    # bit k of one integer picks the emitter of emission k (one draw)
    mask = draw(st.integers(0, n_emitters ** (n_photons * d) - 1))
    units = []
    for p in range(n_photons):
        if draw(st.integers(0, 7)) < 7:
            units.append(pr._emission_block(mask >> p * d & 1, p, d))
        else:
            units += [[pr.emit(mask >> k & 1, p, k % d)]
                      for k in range(p * d, (p + 1) * d)]
    # others[i] follows the first cuts[i] units: every interleaving once
    cuts = sorted(draw(st.lists(st.integers(0, len(units)),
                                min_size=len(others), max_size=len(others))))
    ins, placed = [], 0
    for cut, step in zip(cuts, others):
        ins += sum(units[placed:cut], []) + step
        placed = cut
    ins += sum(units[placed:], [])
    order = draw(st.permutations(range(n_emitters)))
    for e in order[0 if entangled else draw(st.integers(0, n_emitters)):]:
        ins.append(pr.measure_donor(e))
    return pr.Program(d, n_emitters, n_photons, tuple(ins))


def reference_field_error(op, kw):
    """The loop over ``dataclasses.fields`` that the import-time tables
    replaced: the message of the first failing field, in field order, or
    None when every field passes."""
    spec = pr.OPS.get(op)
    if spec is None:
        return f"unknown instruction tag {op!r}"
    for f in dataclasses.fields(pr.Instruction)[1:]:
        val, typ = kw.get(f.name), spec.fields.get(f.name)
        if val is None and typ is not None and f.name not in spec.optional:
            return f"{op} instruction needs {f.name!r}"
        if val is not None and not pr._has_type(val, typ):
            return f"{op} instruction cannot have {f.name}={val!r}"
    return None


def test_execute_runs_the_public_gates(monkeypatch):
    """``execute`` calls each gate through the ``statevec`` module, so a
    patched or traced gate is the one that runs."""
    calls = {}
    for name in ("apply_fourier", "apply_permutation",
                 "apply_conditional_flip", "apply_emission", "apply_cz_power",
                 "add_photon", "finalize_photon"):
        def counted(*args, _gate=getattr(sv, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _gate(*args)
        monkeypatch.setattr(sv, name, counted)
    prog = one_of_every_tag()
    assert {i.op for i in prog.instructions} == set(pr.OPS)
    pr.execute(prog, enumerate_all=True)
    assert calls == {"apply_fourier": 1, "apply_permutation": 2,
                     "apply_conditional_flip": 3, "apply_emission": 3,
                     "apply_cz_power": 1, "add_photon": 1,
                     "finalize_photon": 1}


class TestInstructionTable:
    def test_every_tag_validates_executes_and_budgets(self):
        prog = one_of_every_tag()
        assert {i.op for i in prog.instructions} == set(pr.OPS)
        assert pr.Program.from_dict(
            json.loads(json.dumps(prog.to_dict()))) == prog
        trace = pr.execute(prog, enumerate_all=True)
        assert len(trace.checksums) == len(prog.instructions)
        assert sum(b.probability for b in trace.branches) == pytest.approx(1)
        rep = bg.timing_fidelity_budget(prog, bg.sb2_table())
        # fourier, cz, idle, 3 edsr, 3 emissions at 1/3 us, 1 + 2 NMR hops,
        # two molecule readouts
        assert rep.duration_us[1] == pytest.approx(
            100 + 3 + 2.5 + 3 * 8.5 + 3 / 3.0 + 3 * 50 + 2 * 1000)
        assert rep.fidelity == pytest.approx(
            0.998 * 0.995**3 * 0.998**3 * 0.90**2, rel=1e-12)
        with pytest.raises(ValueError, match="cz"):
            bg.timing_fidelity_budget(prog, bg.single_donor_table())

    def test_import_time_tables_match_their_sources(self):
        names = [f.name for f in dataclasses.fields(pr.Instruction)]
        assert names[0] == "op"
        assert pr._FIELD_NAMES == tuple(names)
        assert pr._KEYS == set(names)
        # a tag may name only dataclass fields, every field after op belongs
        # to some tag, and each bound is a Program header entry
        carried = set()
        for spec in pr.OPS.values():
            assert set(spec.optional) | set(spec.distinct) <= set(spec.fields)
            # every value is a scalar, so _has_type needs no container branch
            assert set(spec.fields.values()) <= {int, float}
            carried |= set(spec.fields)
        assert carried == set(names[1:])
        assert set(pr._INDEX_BOUNDS) <= carried
        assert set(pr._INDEX_BOUNDS.values()) <= {
            f.name for f in dataclasses.fields(pr.Program)}
        assert set(pr._FIELD_CHECKS) == set(pr._BOUNDED) == set(pr.OPS)
        for op, spec in pr.OPS.items():
            checks = []
            for name in names[1:]:
                typ = spec.fields.get(name)
                checks.append((name, typ, typ is not None
                               and name not in spec.optional))
            assert pr._FIELD_CHECKS[op] == tuple(checks)
            assert pr._BOUNDED[op] == tuple(
                (name, bound) for name, bound in pr._INDEX_BOUNDS.items()
                if name in spec.fields)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([*pr.OPS, "bogus"]),
           st.dictionaries(
               st.sampled_from(
                   [f.name for f in dataclasses.fields(pr.Instruction)[1:]]),
               st.none() | st.booleans() | st.integers(-2, 4)
               | st.floats(-1, 4) | st.just("x")))
    def test_field_checks_match_a_loop_over_the_fields(self, op, kw):
        want = reference_field_error(op, kw)
        try:
            ins = pr.Instruction(op, **kw)
        except ValueError as exc:
            if want is None:     # a field passed; a later check refused
                assert re.match("idle duration|.* repeats", str(exc))
            else:
                assert str(exc) == want
            return
        assert want is None
        assert list(ins.to_dict().items()) == [
            (f.name, v) for f in dataclasses.fields(pr.Instruction)
            if (v := getattr(ins, f.name)) is not None]

    def test_execute_has_one_branch_per_tag(self):
        branches = re.findall(r'ins\.op == "(\w+)"',
                              inspect.getsource(pr.execute))
        assert sorted(branches) == sorted(pr.OPS)

    @settings(max_examples=200, deadline=None)
    @given(valid_programs())
    def test_program_json_round_trip_is_exact(self, prog):
        text = json.dumps(prog.to_dict())
        back = pr.Program.from_dict(json.loads(text))
        assert back == prog
        assert json.dumps(back.to_dict()) == text

    @pytest.mark.parametrize("kw", [
        {"emitter": 0},                                    # missing a, b
        {"emitter": 0, "a": 0, "b": 1, "photon": 0},       # foreign field
        {"emitter": 0, "a": 0, "b": 1.0},                  # wrong type
        {"emitter": False, "a": 0, "b": 1},                # bool is no index
    ])
    def test_instruction_fields_checked(self, kw):
        with pytest.raises(ValueError):
            pr.Instruction("permute", **kw)

    def test_cz_needs_a_weight(self):
        with pytest.raises(ValueError, match="weight"):
            pr.Instruction("cz", emitter=0, other=1)

    @pytest.mark.parametrize("ins", [
        pr.permute(0, 0, 2), pr.edsr(0, 2), pr.fourier(2),
        pr.cz(0, 2), pr.measure_donor(2), pr.idle(-1),
    ])
    def test_index_fields_bounded_by_header(self, ins):
        with pytest.raises(ValueError, match="out of range"):
            pr.Program(2, 2, 0, (ins,))


READOUT_PROGRAMS = {
    **{f"linear-{n}": functools.partial(pr.compile_linear, n=n)
       for n in (2, 3, 4)},
    "six-ring": pr.compile_six_ring,
    "ladder": pr.compile_ladder,
}


@functools.lru_cache(maxsize=None)
def enumerated_run(name, d):
    """The enumerated trace of one readout program, built once."""
    return pr.execute(READOUT_PROGRAMS[name](d), enumerate_all=True)


class TestExecution:
    def test_empty_program_keeps_initial_state(self):
        prog = pr.Program(3, 1, 0, ())
        trace = pr.execute(prog, enumerate_all=False)
        assert trace.final_register.amps[0, 0] == 1.0

    def test_same_seed_same_trace(self):
        prog = pr.compile_linear(2, 2)
        t1 = pr.execute(prog, seed=123, enumerate_all=False)
        t2 = pr.execute(prog, seed=123, enumerate_all=False)
        assert t1.checksums == t2.checksums
        assert t1.records == t2.records

    def test_sampled_readout_computes_each_distribution_once(
            self, monkeypatch):
        calls = []
        real = sv.outcome_probabilities

        def counted(reg, subsystem):
            calls.append(subsystem)
            return real(reg, subsystem)

        monkeypatch.setattr(sv, "outcome_probabilities", counted)
        pr.execute(pr.compile_six_ring(2), seed=5, enumerate_all=False)
        # two donor measurements; a sampled run extracts no photons
        assert calls == [0, 0]

    def test_cap_is_checked_where_a_photon_is_added(self):
        # a 4 x 2 emitter: the first photon needs 8 x 5 = 40 amplitudes and
        # the second, after the first is finalised, 32 x 5 = 160
        with pytest.raises(sv.CapacityError,
                           match="needs 160 amplitudes, cap is 128"):
            pr.execute(pr.compile_linear(4, 4), enumerate_all=False,
                       cap=128)

    def test_cap_is_checked_before_the_first_gate(self, monkeypatch):
        # a 2 x 2 emitter with 22 photons finalised holds 2^24 amplitudes,
        # so the 23rd needs 3 x 2^24: refused before any gate allocates
        calls = []
        monkeypatch.setattr(sv, "apply_fourier",
                            lambda *args: calls.append(args))
        with pytest.raises(sv.CapacityError,
                           match="needs 50331648 amplitudes, cap is 33554432"):
            pr.execute(pr.compile_linear(2, 30), enumerate_all=False)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(READOUT_PROGRAMS)), st.integers(2, 4),
           st.integers(0, 2**32 - 1))
    def test_sampled_readout_follows_one_enumerated_branch(self, name, d,
                                                           seed):
        """A sampled run has the enumerated run's digests, each of its
        (emitter, level, p) records is the enumerated nesting's step at
        those levels, and the enumerated branch it lands on has exactly
        the product of its probabilities."""
        full = enumerated_run(name, d)
        sampled = pr.execute(full.program, seed=seed, enumerate_all=False)
        assert sampled.checksums == full.checksums
        assert sampled.branches is None
        state, measured = full.final_register, []
        for emitter, level, p in sampled.records:
            axis = emitter - sum(m < emitter for m in measured)
            probs = sv.outcome_probabilities(state, axis)
            assert probs[level] > sv.ZERO_PROBABILITY
            assert p == float(probs[level])
            state = sv.collapse(state, axis, level, p)
            measured.append(emitter)
        assert measured == [ins.emitter for ins in full.program.instructions
                            if ins.op == "measure"]
        outcomes = tuple(level for _, level, _ in sampled.records)
        branch, = [b for b in full.branches if b.outcomes == outcomes]
        assert branch.probability == math.prod(
            p for _, _, p in sampled.records)

    def test_checksums_cover_every_instruction(self):
        prog = pr.compile_linear(3, 1)
        trace = pr.execute(prog, enumerate_all=True)
        assert len(trace.checksums) == len(prog.instructions)

    def test_enumeration_is_exhaustive(self):
        trace = pr.execute(pr.compile_linear(3, 1), enumerate_all=True)
        probs = [b.probability for b in trace.branches]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)
        assert len(trace.branches) == 3

    def test_two_emitter_enumeration(self):
        trace = pr.execute(pr.compile_six_ring(2), enumerate_all=True)
        assert len(trace.branches) == 4
        assert sum(b.probability for b in trace.branches) == pytest.approx(1.0)

    @pytest.mark.parametrize("compiler", [pr.compile_six_ring,
                                          pr.compile_ladder])
    @pytest.mark.parametrize("d", [3, 4])
    def test_enumerated_readout_memory_bound(self, compiler, d):
        # readout slices the donor axes away: no full-size copy per branch
        prog = compiler(d)
        tracemalloc.start()
        try:
            trace = pr.execute(prog, enumerate_all=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.branches) == d * d
        assert peak <= 5 * trace.final_register.amps.nbytes


def _contract(amps, matrix, axes):
    """Apply an explicit matrix to the given axes of ``amps`` jointly, its
    row and column index running over those axes in C order."""
    dims = [amps.shape[ax] for ax in axes]
    k = len(axes)
    out = np.tensordot(matrix.reshape(dims + dims), amps,
                       axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def qudit_fourier(d):
    """F_d, with entries omega^{jk} / sqrt(d)."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def level_swap(radix, a, b):
    """The permutation matrix that exchanges levels a and b."""
    u = np.eye(radix, dtype=complex)
    u[[a, b]] = u[[b, a]]
    return u


def control_block_flip(d, level):
    """On (donor, electron): X on the electron inside the donor level's
    block, identity on every other block."""
    u = np.eye(2 * d, dtype=complex)
    block = [2 * level, 2 * level + 1]
    u[np.ix_(block, block)] = [[0, 1], [1, 0]]
    return u


def emission_map(levels, bin):
    """On (electron, photon with ``levels`` levels, the last the vacuum):
    |up, vac> goes to |down, bin>; every other basis state stays."""
    vac = levels - 1
    u = np.eye(2 * levels, dtype=complex)
    up_vac = sv.ELECTRON_UP * levels + vac
    u[up_vac, up_vac] = 0
    u[sv.ELECTRON_DOWN * levels + bin, up_vac] = 1
    return u


def cz_diagonal(d, weight):
    """The d^2 x d^2 diagonal omega^{w k l} over (k, l)."""
    k = np.arange(d)
    return np.diag(np.exp(2j * np.pi * weight * np.outer(k, k).reshape(-1)
                          / d))


def reference_execute(program):
    """An independent oracle for ``pr.execute(program, enumerate_all=True)``:
    each instruction is an explicit matrix built above and applied with
    ``np.tensordot``, the readout slices by hand, and no ``statevec`` gate
    runs.  It raises ``ValueError`` at the check that finds the program
    invalid, with the start of ``execute``'s message.  Returns (final
    amplitudes, [(outcomes, probability, photon amplitudes)])."""
    d, ne = program.d, program.n_emitters
    amps = np.zeros((d,) * ne + (2,), dtype=complex)
    amps[(0,) * ne + (sv.ELECTRON_DOWN,)] = 1
    electron, photon_axis, measures = ne, {}, []
    for ins in program.instructions:
        if ins.op == "fourier":
            amps = _contract(amps, qudit_fourier(d), [ins.emitter])
        elif ins.op == "permute":
            amps = _contract(amps, level_swap(d, ins.a, ins.b), [ins.emitter])
        elif ins.op == "edsr":
            amps = _contract(amps, control_block_flip(d, ins.control_level),
                             [ins.emitter, electron])
        elif ins.op == "emit":
            if ins.photon not in photon_axis:
                photon_axis[ins.photon] = amps.ndim
                amps = np.stack([np.zeros_like(amps)] * d + [amps], axis=-1)
            axis = photon_axis[ins.photon]
            up = np.take(amps, sv.ELECTRON_UP, axis=electron)
            if np.linalg.norm(np.take(up, range(d), axis=axis - 1)) > 1e-10:
                raise ValueError(f"photon {axis} already populated")
            amps = _contract(amps, emission_map(d + 1, ins.bin),
                             [electron, axis])
            if ins.bin == d - 1:
                if np.linalg.norm(np.take(amps, d, axis=axis)) > 1e-10:
                    raise ValueError(f"photon {axis} still has vacuum")
                amps = np.take(amps, range(d), axis=axis)
        elif ins.op == "cz":
            amps = _contract(amps, cz_diagonal(d, ins.weight),
                             [ins.emitter, ins.other])
        elif ins.op == "measure":
            measures.append(ins.emitter)
    branches = [((), 1.0, amps)]
    for k, emitter in enumerate(measures):
        axis = emitter - sum(m < emitter for m in measures[:k])
        nxt = []
        for outcomes, prob, state in branches:
            others = tuple(ax for ax in range(state.ndim) if ax != axis)
            probs = np.sum(np.abs(state) ** 2, axis=others)
            nxt += [(outcomes + (level,), prob * p,
                     np.take(state, level, axis=axis) / np.sqrt(p))
                    for level, p in enumerate(probs) if p > 1e-14]
        branches = nxt
    out = []
    for outcomes, prob, state in branches:
        # the unmeasured donors, then the electron, each in one level
        for _ in range(ne - len(measures) + 1):
            probs = np.sum(np.abs(state) ** 2,
                           axis=tuple(range(1, state.ndim)))
            level = int(np.argmax(probs))
            if abs(probs[level] - 1) > 1e-10:
                raise ValueError("subsystem 0 is not in a definite level")
            state = state[level]
        out.append((outcomes, float(prob), state))
    return amps, out


def _run(fn, *args, **kw):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kw)
    except (ValueError, IndexError, TypeError) as exc:
        return type(exc), str(exc)


class TestInPlaceExecution:
    def test_digests_are_pinned(self):
        # one SHA-256 over every digest of five compilers at d=2..4; the
        # literal holds the digests of the functional executor
        joined = "".join(
            digest for d in (2, 3, 4)
            for prog in (pr.compile_linear(d, 1), pr.compile_linear(d, 3),
                         pr.compile_six_ring(d), pr.compile_ladder(d),
                         pr.compile_ladder(d, "literal"))
            for digest in pr.execute(prog, enumerate_all=False).checksums)
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "dc55449b249ad8a0160bec6ebf158c78c77d54d17c51dfb962a5087fe7f165b7")

    @pytest.mark.parametrize("prog", [
        pr.compile_linear(3, 1), pr.compile_linear(2, 3),
        pr.compile_six_ring(3), pr.compile_ladder(2),
        pr.compile_ladder(3, "literal"), one_of_every_tag(),
    ], ids=["single-photon", "linear", "six-ring", "ladder", "literal",
            "every-tag"])
    def test_last_digest_is_the_documented_hash(self, prog):
        # SHA-256 of the int64 radices, then the amplitudes rounded to 12
        # decimals in C order; idle and measure repeat the previous digest
        trace = pr.execute(prog, enumerate_all=True)
        final = trace.final_register
        h = hashlib.sha256()
        h.update(np.asarray(final.radices, dtype=np.int64).tobytes())
        h.update(np.round(final.amps, 12).tobytes())
        assert trace.checksums[-1] == h.hexdigest()

    def test_norm_guard_stops_a_drifting_state(self, monkeypatch):
        cz = sv.apply_cz_power

        def drifting(reg, i, j, weight):
            cz(reg, i, j, weight)
            reg.amps *= 1 + 1e-6

        monkeypatch.setattr(sv, "apply_cz_power", drifting)
        with pytest.raises(ValueError, match="norm drifted"):
            pr.execute(pr.compile_six_ring(2), enumerate_all=False)

    @settings(max_examples=100, deadline=None)
    @given(valid_programs())
    def test_matches_functional_executor_exactly(self, prog):
        """``execute`` against the matrix oracle: it fails exactly where the
        oracle finds the program invalid, and otherwise gives the same
        final register, branches and photons to 1e-12.  Digests are not
        compared: another contraction order may flip a signed zero or the
        last bit of a rounded amplitude."""
        got = _run(pr.execute, prog, enumerate_all=True)
        want = _run(reference_execute, prog)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert isinstance(got, tuple) and got[0] is want[0]
            assert got[1].startswith(want[1])
            return
        self.assert_same_run(got, want)

    @pytest.mark.parametrize("late", [
        (pr.permute(1, 0, 2),), (pr.edsr(0, 1),), (pr.cz(0, 1), pr.edsr(1, 0)),
    ], ids=["permute", "edsr", "cz-edsr"])
    def test_gate_after_the_last_fourier_matches(self, late):
        # a Fourier on emitter 1 leaves a transposed layout, which the
        # in-place gates after it keep
        prog = pr.compile_six_ring(3)
        ins = prog.instructions
        prog = pr.Program(3, 2, 6, ins[:-2] + late + ins[-2:])
        trace = pr.execute(prog, enumerate_all=True)
        self.assert_same_run(trace, reference_execute(prog))

    @staticmethod
    def assert_same_run(got, want):
        final, branches = want
        assert got.final_register.radices == final.shape
        assert np.max(np.abs(got.final_register.amps - final),
                      initial=0) <= 1e-12
        assert len(got.branches) == len(branches)
        for br, (outcomes, prob, photons) in zip(got.branches, branches):
            assert br.outcomes == outcomes
            assert abs(br.probability - prob) <= 1e-12
            assert br.photons.radices == photons.shape
            assert np.max(np.abs(br.photons.amps - photons),
                          initial=0) <= 1e-12


def single_photon_report(trace):
    """The verification.json report of a single-photon trace, from its
    one-vertex verification."""
    d = trace.program.d
    graph, order = pr.target_graph("single-photon", d)
    rep = pr.verify_against_target(trace, graph, order)
    return cli._single_photon_report(d, trace, rep)


def uniform_rows(trace):
    """(outcomes, Z power, fidelity with the uniform state) per branch of a
    single-photon trace, and the overall verdict, as verification.json
    records them."""
    report = single_photon_report(trace)
    rows = [(tuple(row["outcomes"]), row["z_correction"], row["fidelity"])
            for row in report["branches"]]
    return rows, report["passed"]


def one_photon_trace(amps):
    """A one-branch enumerated trace whose photon holds ``amps``."""
    d = len(amps)
    program = pr.compile_linear(d, 1)
    reg = sv.Register(np.asarray(amps, dtype=complex))
    return pr.ExecutionTrace(program, (), reg, branches=(
        pr.OutcomeBranch((0,), 1.0, reg),))


class TestSinglePhoton:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_every_outcome_collapses_to_uniform(self, d):
        trace = pr.execute(pr.compile_linear(d, 1), enumerate_all=True)
        rows, ok = uniform_rows(trace)
        assert ok
        assert all(f >= 1 - 1e-10 for _, _, f in rows)

    def test_two_bin_case_from_same_engine(self):
        # hand-simulated d=2 oracle: outcome 0 leaves the photon uniform
        # over the two bins with no correction
        trace = pr.execute(pr.compile_linear(2, 1), enumerate_all=True)
        first = trace.branches[0]
        assert first.outcomes == (0,)
        assert np.allclose(np.abs(first.photons.amps), 1 / np.sqrt(2))

    def test_w_state_rows_are_pinned(self):
        # one SHA-256 over every (outcomes, z_power, fidelity) row and flag
        # at d = 2..8, so the fidelity's bits are pinned, not only its bound
        h = hashlib.sha256()
        for d in range(2, pr.MAX_SINGLE_PHOTON_D + 1):
            trace = pr.execute(pr.compile_linear(d, 1),
                               enumerate_all=True)
            h.update(repr(uniform_rows(trace)).encode())
        assert h.hexdigest() == (
            "6f3fae241f557e5f2faaa149f1feb679cac6268ac0108d0c4b2636a1fd6dccd7")

    @pytest.mark.parametrize("d", range(2, pr.MAX_SINGLE_PHOTON_D + 1))
    def test_target_is_the_one_vertex_graph(self, d):
        graph, order = pr.target_graph("single-photon", d)
        assert graph == gm.GraphSpec.from_matrix(d, [[0]])
        assert order == (0,)
        # the chain stays strict: one photon is no linear graph
        with pytest.raises(ValueError, match="n >= 2"):
            pr.target_graph("linear", d, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, pr.MAX_SINGLE_PHOTON_D), st.data())
    def test_search_undoes_every_z_byproduct(self, d, data):
        """For Z^a|+>, the one-vertex search returns a correction whose
        corrected state is the uniform superposition."""
        a = data.draw(st.integers(0, d - 1))
        uniform = np.full(d, 1 / np.sqrt(d), dtype=complex)
        reg = sv.apply_pauli_power(sv.Register(uniform), 0, "Z", a)
        graph, _ = pr.target_graph("single-photon", d)
        corr = gm.local_correction_search(reg, graph, search_depth=2)
        assert corr is not None
        assert corr.fourier_powers == (0,)
        assert corr.report.max_deviation <= gm.STABILIZER_ATOL
        fixed = gm.apply_correction(reg, corr)
        assert np.max(np.abs(fixed.amps - uniform)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, pr.MAX_SINGLE_PHOTON_D), st.data(),
           st.floats(0.1, 10.0))
    def test_unequal_magnitudes_fail_the_branch(self, d, data, tilt):
        """A photon spread over every bin with unequal magnitudes is no
        dressed one-vertex graph state: its branch fails, with no
        correction and an infinite deviation."""
        a = data.draw(st.integers(0, d - 1))
        amps = np.exp(2j * np.pi * a * np.arange(d) / d)
        amps[data.draw(st.integers(0, d - 1))] *= 1 + tilt
        trace = one_photon_trace(amps / np.linalg.norm(amps))
        graph, order = pr.target_graph("single-photon", d)
        rep = pr.verify_against_target(trace, graph, order)
        br, = rep.branches
        assert not rep.passed and not br.passed
        assert br.correction is None
        assert br.max_deviation == math.inf

    @pytest.mark.parametrize("d", range(2, pr.MAX_SINGLE_PHOTON_D + 1))
    def test_photon_in_one_time_bin_fails(self, d):
        """A photon held in one time bin is the one-vertex graph state only
        up to a Fourier, which the one-vertex verification does not try:
        its branch fails, and verification.json writes a null row."""
        graph, order = pr.target_graph("single-photon", d)
        for k in range(d):
            trace = one_photon_trace(np.eye(d)[k])
            br, = pr.verify_against_target(trace, graph, order).branches
            assert not br.passed and br.correction is None
            report = single_photon_report(trace)
            assert report["passed"] is False
            assert report["branches"] == [
                {"outcomes": [0], "z_correction": None, "fidelity": None}]


class TestLinearProtocol:
    def test_two_photon_amplitudes_match_worked_expansion(self):
        prog = pr.compile_linear(2, 2)
        trace = pr.execute(prog, enumerate_all=True)
        state = trace.final_register.amps.reshape(-1)
        target = expansion_register(TWO_PHOTON_EXPANSION, 2).reshape(-1)
        scale = np.vdot(target, state)  # optimal global phase/scale
        assert abs(abs(scale) - 1.0) < 1e-10
        assert np.max(np.abs(state - scale * target)) < 1e-10

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_outputs_verify_against_line(self, d, n):
        trace = pr.execute(pr.compile_linear(d, n), enumerate_all=True)
        graph, order = pr.target_graph("linear", d, n)
        rep = pr.verify_against_target(trace, graph, order)
        assert rep.passed
        assert not any(any(br.correction.fourier_powers)
                       for br in rep.branches)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corrected_branches_equal_built_chain(self, d, n):
        trace = pr.execute(pr.compile_linear(d, n), enumerate_all=True)
        graph = gm.make_linear(n, d)
        target = gm.build_graph_state(graph).amps
        assert len(trace.branches) == d
        for br in trace.branches:
            corr = gm.local_correction_search(br.photons, graph, 1)
            assert corr is not None and not any(corr.fourier_powers)
            fixed = gm.apply_correction(br.photons, corr).amps
            phase = np.vdot(target, fixed)
            assert abs(abs(phase) - 1) < 1e-10
            assert np.max(np.abs(fixed - phase * target)) < 1e-10

    def test_byproducts_found_by_exhaustive_scan_too(self):
        # dual route for the correction search: a raw exhaustive scan over
        # per-photon X^a Z^b agrees that a depth-1 byproduct fix exists on
        # every donor outcome (d=2, n=3)
        import itertools
        trace = pr.execute(pr.compile_linear(2, 3), enumerate_all=True)
        graph, _ = pr.target_graph("linear", 2, 3)
        for br in trace.branches:
            hit = None
            for powers in itertools.product(range(2), repeat=6):
                corr = gm.CorrectionSet(powers[0::2], powers[1::2])
                fixed = gm.apply_correction(br.photons, corr)
                if gm.stabilizer_verify(fixed, graph).passed:
                    hit = corr
                    break
            assert hit is not None


@functools.lru_cache(maxsize=None)
def verified(protocol, d, step_order="verified"):
    """Depth-2 verification report of a compiled protocol against its target
    graph (linear: four photons), shared by the tests that read it."""
    compile_ = {"six-ring": pr.compile_six_ring,
                "ladder": lambda d: pr.compile_ladder(d, step_order),
                "linear": lambda d: pr.compile_linear(d, 4)}[protocol]
    graph, order = pr.target_graph(protocol, d, 4)
    return pr.verify_against_target(
        pr.execute(compile_(d), enumerate_all=True), graph, order)


class TestTwoEmitterProtocols:
    @pytest.mark.parametrize("d", [2, 3])
    def test_six_ring_verifies(self, d):
        assert verified("six-ring", d).passed

    def test_six_ring_is_not_a_line(self):
        trace = pr.execute(pr.compile_six_ring(2), enumerate_all=True)
        line, _ = pr.target_graph("linear", 2, 6)
        _, ring_order = pr.target_graph("six-ring", 2)
        rep = pr.verify_against_target(trace, line, ring_order)
        assert not rep.passed

    def test_dropping_closing_cz_yields_the_line(self):
        # the second CZ is exactly what closes the ring
        prog = pr.compile_six_ring(2)
        seen = 0
        kept = []
        for ins in prog.instructions:
            if ins.op == "cz":
                seen += 1
                if seen == 2:
                    continue
            kept.append(ins)
        opened = pr.Program(prog.d, prog.n_emitters, prog.n_photons,
                            tuple(kept))
        trace = pr.execute(opened, enumerate_all=True)
        line, _ = pr.target_graph("linear", 2, 6)
        _, ring_order = pr.target_graph("six-ring", 2)
        rep = pr.verify_against_target(trace, line, ring_order)
        assert rep.passed
        assert not any(any(br.correction.fourier_powers)
                       for br in rep.branches)

    @pytest.mark.parametrize("d", [2, 3])
    def test_ladder_verifies(self, d):
        assert verified("ladder", d).passed

    @pytest.mark.parametrize("d", [2, 3])
    def test_ladder_literal_step_order_fails(self, d):
        # published table order; verification arbitrates.  No branch
        # passes at full search depth: no local correction recovers the
        # missing middle rung.
        rep = verified("ladder", d, "literal")
        assert len(rep.branches) == d * d
        assert not rep.passed
        for br in rep.branches:
            assert not br.passed
            assert br.correction is None

    @pytest.mark.parametrize("d,n_columns,rungs", [
        (d, n_columns, rungs)
        for d, max_columns in ((2, 3), (3, 2))
        for n_columns in range(1, max_columns + 1)
        for rungs in itertools.chain.from_iterable(
            itertools.combinations(range(n_columns), k)
            for k in range(n_columns + 1))])
    def test_every_rung_subset_makes_its_column_graph(self, d, n_columns,
                                                      rungs):
        # two rails plus one rung per CZ column, photon p as vertex p; one
        # column with no rung is two isolated vertices
        graph = gm.GraphSpec.from_matrix(
            d, pr._column_graph(2, n_columns, rungs))
        trace = pr.execute(pr._columns(d, 2, n_columns, rungs),
                           enumerate_all=True)
        rep = pr.verify_against_target(trace, graph, range(graph.n))
        assert len(rep.branches) == d * d
        assert rep.passed

    def test_ladder_d3_against_ladder_target(self):
        trace = pr.execute(pr.compile_ladder(3), enumerate_all=True)
        graph, order = pr.target_graph("ladder", 3)
        rep = pr.verify_against_target(trace, graph, order)
        assert rep.passed
        for br in rep.branches:
            assert br.max_deviation <= 1e-10
            assert not any(br.correction.fourier_powers)


class TestVerificationReports:
    def test_report_serializes(self):
        trace = pr.execute(pr.compile_linear(2, 2), enumerate_all=True)
        graph, order = pr.target_graph("linear", 2, 2)
        rep = pr.verify_against_target(trace, graph, order)
        obj = rep.to_dict()
        json.dumps(obj)  # serializable
        assert obj["passed"] is True
        assert len(obj["branches"]) == 2

    def test_needs_enumerated_trace(self):
        trace = pr.execute(pr.compile_linear(2, 2), seed=1,
                           enumerate_all=False)
        graph, order = pr.target_graph("linear", 2, 2)
        with pytest.raises(ValueError, match="enumerated"):
            pr.verify_against_target(trace, graph, order)

    def test_photon_count_mismatch(self):
        trace = pr.execute(pr.compile_linear(2, 2), enumerate_all=True)
        graph, order = pr.target_graph("linear", 2, 3)
        with pytest.raises(ValueError, match="photon count"):
            pr.verify_against_target(trace, graph, order)

    @pytest.mark.parametrize("order", [(0, 0, 1), (0, 1, 3), (0, -1, 1),
                                       (0, 1)])
    def test_order_must_be_a_permutation(self, order):
        # np.transpose alone would accept (0, -1, 1)
        trace = pr.execute(pr.compile_linear(2, 3), enumerate_all=True)
        graph, _ = pr.target_graph("linear", 2, 3)
        with pytest.raises(ValueError, match=re.escape(str(order))):
            pr.verify_against_target(trace, graph, order)

    def test_a_branch_passes_exactly_when_a_correction_is_found(self):
        # every report the pinned test hashes, the failing literal ladder
        # included, and every Bell outcome of a fused six-chain
        reports = [verified(name, d) for d in (2, 3, 4)
                   for name in ("six-ring", "ladder", "linear")]
        reports.append(verified("ladder", 2, "literal"))
        verdicts = [(br.passed, br.correction, br.max_deviation)
                    for rep in reports for br in rep.branches]
        for d in (2, 3):
            chain = gm.build_graph_state(gm.make_linear(6, d))
            verdicts += [(out.success, out.correction, out.max_deviation)
                         for out in (fu.fuse_chain_ends(chain, outcome=(a, b))
                                     for a in range(d) for b in range(d))]
        assert any(not ok for ok, _, _ in verdicts)
        for ok, corr, dev in verdicts:
            assert ok is (corr is not None)
            if corr is None:
                assert dev == math.inf
            else:
                assert dev <= gm.STABILIZER_ATOL

    def test_report_bytes_are_pinned(self):
        # one SHA-256 over the verification reports of both schemes: the
        # direct protocols (scheme B) and every Bell outcome of a fused
        # six-chain (scheme A), corrected register bytes included
        h = hashlib.sha256()
        reports = [verified(name, d) for d in (2, 3, 4)
                   for name in ("six-ring", "ladder", "linear")]
        reports.append(verified("ladder", 2, "literal"))
        for rep in reports:
            h.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
        for d in (2, 3):
            chain = gm.build_graph_state(gm.make_linear(6, d))
            for a in range(d):
                for b in range(d):
                    out = fu.fuse_chain_ends(chain, outcome=(a, b))
                    h.update(json.dumps(out.to_dict(),
                                        sort_keys=True).encode())
                    if out.register is not None:
                        h.update(out.register.amps.tobytes())
        assert h.hexdigest() == (
            "1dcc77c1d47f0ffb32a9ca230a0ab8ae9084c9ec7a90492391f83021876f08ae")
