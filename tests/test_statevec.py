"""Mixed-radix engine: gates, emission, measurement, and the package's
public surface."""

import argparse
import ast
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdonor import cli
from qdonor import statevec as sv


def uniform(d):
    return np.full(d, 1 / np.sqrt(d), dtype=complex)


def applied(gate, reg, *args):
    """A copy of ``reg`` with the in-place ``gate`` run on it; ``reg`` is
    left as it was."""
    out = reg.copy()
    assert gate(out, *args) is None
    return out


def edsr_then_emit(reg, photon, bin):
    """Flip the electron on donor level 0, then let the cavity take the
    excitation into ``bin``, both in place: the pair ``protocols.execute``
    runs for an ``edsr`` instruction followed by an ``emit``.  Subsystem 0
    is the donor and 1 the electron."""
    sv.apply_conditional_flip(reg, (0, 0), 1)
    sv.apply_emission(reg, photon, bin, 1)


def gate_matrix(apply_fn, radices, subsystem):
    """Materialize a single-subsystem gate by acting on every basis state."""
    dim = int(np.prod(radices))
    cols = []
    for flat in range(dim):
        idx = np.unravel_index(flat, radices)
        reg = sv.init_register(radices, idx)
        out = apply_fn(reg)
        cols.append(out.amps.reshape(-1))
    return np.array(cols).T


class TestInitRegister:
    def test_basis_embedding(self):
        reg = sv.init_register([8, 2], (0, 0))
        assert reg.amps[0, 0] == 1.0
        assert np.count_nonzero(reg.amps) == 1

    def test_single_qutrit(self):
        reg = sv.init_register([3], (2,))
        assert reg.amps[2] == 1.0

    @pytest.mark.parametrize("radices,idx", [([2, 3], (1, 2)), ([5], (0,)),
                                             ([2, 2, 2], (1, 1, 0))])
    def test_unit_norm(self, radices, idx):
        reg = sv.init_register(radices, idx)
        assert np.linalg.norm(reg.amps) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            sv.init_register([2, 2], (0, 2))

    def test_amplitude_cap(self):
        with pytest.raises(sv.CapacityError):
            sv.init_register([2] * 26, (0,) * 26)

    def test_register_is_its_amplitude_array(self):
        reg = sv.Register(np.zeros((3, 2, 4)))
        assert reg.radices == reg.amps.shape == (3, 2, 4)
        assert (reg.n_subsystems, reg.size) == (3, 24)
        assert reg.amps.dtype == np.complex128
        with pytest.raises(ValueError, match="every radix must be >= 2"):
            sv.Register(np.zeros((3, 1)))


class TestFourier:
    def test_qubit_hadamard(self):
        reg = sv.apply_fourier(sv.init_register([2], (0,)), 0)
        assert np.allclose(reg.amps, uniform(2))

    def test_qutrit_uniform_row(self):
        reg = sv.apply_fourier(sv.init_register([3], (0,)), 0)
        assert np.allclose(reg.amps, uniform(3))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fourth_power_is_identity(self, d):
        # matrix-power oracle, independent of the register path
        f = sv.fourier_matrix(d)
        assert np.allclose(np.linalg.matrix_power(f, 4), np.eye(d),
                           atol=1e-12)
        rng = np.random.default_rng(d)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        reg = sv.Register(amps)
        out = reg
        for _ in range(4):
            out = sv.apply_fourier(out, 0)
        assert np.allclose(out.amps, reg.amps, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matrix_is_cached_read_only(self, d):
        f = sv.fourier_matrix(d)
        assert sv.fourier_matrix(d) is f
        assert f.flags.writeable is False
        j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        assert np.array_equal(f, np.exp(2j * np.pi * j * k / d) / np.sqrt(d))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(2, 8), min_size=1, max_size=4),
           st.data())
    def test_matches_the_full_range_subset_route_bit_for_bit(self, radices,
                                                             data):
        # the retired route: the d x d Fourier block written into np.eye
        # over every level, then the same tensordot and moveaxis
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=radices) + 1j * rng.normal(size=radices)
        transposed = len(radices) > 1 and data.draw(st.booleans())
        if transposed:
            amps = np.transpose(np.ascontiguousarray(amps.transpose()))
        reg = sv.Register(amps / np.linalg.norm(amps))
        assert reg.amps.flags.c_contiguous != transposed
        axis = data.draw(st.integers(0, len(radices) - 1))
        radix = radices[axis]
        matrix = np.eye(radix, dtype=np.complex128)
        matrix[np.ix_(range(radix), range(radix))] = sv.fourier_matrix(radix)
        want = np.moveaxis(np.tensordot(matrix, reg.amps, axes=([1], [axis])),
                           0, axis)
        before = reg.amps.copy()
        got = sv.apply_fourier(reg, axis).amps
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides
        assert np.array_equal(reg.amps, before)


class TestPauliPowers:
    def test_z_phase_on_qutrit(self):
        reg = sv.init_register([3], (1,))
        out = sv.apply_pauli_power(reg, 0, "Z", 1)
        assert out.amps[1] == pytest.approx(np.exp(2j * np.pi / 3))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_x_order_d(self, d):
        rng = np.random.default_rng(d + 10)
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        amps /= np.linalg.norm(amps)
        reg = sv.Register(amps)
        out = reg
        for _ in range(d):
            out = sv.apply_pauli_power(out, 0, "X", 1)
        assert np.allclose(out.amps, reg.amps, atol=1e-12)

    @pytest.mark.parametrize("d,a,b", [(2, 1, 1), (3, 1, 2), (4, 3, 2),
                                       (5, 2, 2)])
    def test_weyl_commutation(self, d, a, b):
        # Z^a X^b = omega^{ab} X^b Z^a, on random registers
        omega = np.exp(2j * np.pi / d)
        rng = np.random.default_rng(100 * d + 10 * a + b)
        for _ in range(4):
            amps = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
            reg = sv.Register(amps / np.linalg.norm(amps))
            zx = sv.apply_pauli_power(
                sv.apply_pauli_power(reg, 0, "X", b), 0, "Z", a)
            xz = sv.apply_pauli_power(
                sv.apply_pauli_power(reg, 0, "Z", a), 0, "X", b)
            assert np.allclose(zx.amps, omega ** (a * b) * xz.amps,
                               atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sv.apply_pauli_power(sv.init_register([2], (0,)), 0, "Y", 1)


class TestPermutation:
    def test_involution(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        reg = sv.Register(amps)
        out = applied(sv.apply_permutation, reg, 0, 0, 2)
        assert not np.allclose(out.amps, reg.amps)
        sv.apply_permutation(out, 0, 0, 2)
        assert np.allclose(out.amps, reg.amps)

    def test_branch_exchange_moves_emission_readiness(self):
        # after one emission the permutation brings the unused level into
        # the emission slot while the emitted branch leaves it
        reg = sv.init_register([2, 2], (0, 0))
        reg = sv.apply_fourier(reg, 0)
        reg, ph = sv.add_photon(reg, 2)
        edsr_then_emit(reg, ph, 0)
        sv.apply_permutation(reg, 0, 0, 1)
        # level 0 now carries the not-yet-emitted branch (photon in vacuum)
        assert abs(reg.amps[0, 0, 2]) == pytest.approx(1 / np.sqrt(2))
        assert abs(reg.amps[1, 0, 0]) == pytest.approx(1 / np.sqrt(2))

    def test_uniform_state_invariant(self):
        reg = sv.Register(uniform(3))
        out = applied(sv.apply_permutation, reg, 0, 0, 2)
        assert np.allclose(out.amps, reg.amps)

    def test_equal_levels_noop(self):
        reg = sv.Register(uniform(3))
        out = applied(sv.apply_permutation, reg, 0, 1, 1)
        assert np.allclose(out.amps, reg.amps)


class TestConditionalFlip:
    def test_flips_only_control_branch(self):
        reg = sv.init_register([2, 2], (0, 0))
        reg = sv.apply_fourier(reg, 0)
        sv.apply_conditional_flip(reg, (0, 0), 1)
        expect = np.zeros((2, 2), dtype=complex)
        expect[0, sv.ELECTRON_UP] = 1 / np.sqrt(2)
        expect[1, sv.ELECTRON_DOWN] = 1 / np.sqrt(2)
        assert np.allclose(reg.amps, expect)

    def test_involution(self):
        reg = sv.init_register([3, 2], (1, 0))
        reg = sv.apply_fourier(reg, 0)
        out = applied(sv.apply_conditional_flip, reg, (0, 1), 1)
        assert not np.allclose(out.amps, reg.amps)
        sv.apply_conditional_flip(out, (0, 1), 1)
        assert np.allclose(out.amps, reg.amps)

    def test_absent_control_level_is_identity(self):
        reg = sv.init_register([3, 2], (1, 0))
        out = applied(sv.apply_conditional_flip, reg, (0, 2), 1)
        assert np.allclose(out.amps, reg.amps)

    def test_control_equals_target_rejected(self):
        reg = sv.init_register([2, 2], (0, 0))
        with pytest.raises(ValueError):
            sv.apply_conditional_flip(reg, (1, 0), 1)


class TestEmission:
    def setup_method(self):
        reg = sv.init_register([3, 2], (0, 0))
        self.psi1 = sv.apply_fourier(reg, 0)

    def test_first_cycle_populates_only_top_branch(self):
        reg, ph = sv.add_photon(self.psi1, 3)
        edsr_then_emit(reg, ph, 0)
        vac = reg.radices[ph] - 1
        assert abs(reg.amps[0, 0, 0]) == pytest.approx(1 / np.sqrt(3))
        assert abs(reg.amps[1, 0, vac]) == pytest.approx(1 / np.sqrt(3))
        assert abs(reg.amps[2, 0, vac]) == pytest.approx(1 / np.sqrt(3))

    def test_emission_on_absent_level_is_identity(self):
        reg = sv.init_register([3, 2], (1, 0))
        reg, ph = sv.add_photon(reg, 3)
        out = reg.copy()
        edsr_then_emit(out, ph, 0)
        assert np.allclose(out.amps, reg.amps)

    def test_full_inner_loop_correlates_bins_with_levels(self):
        # three cycles with interleaved permutations: one photon across
        # bins t1..t3, each bin paired with the branch that emitted it
        reg, ph = sv.add_photon(self.psi1, 3)
        edsr_then_emit(reg, ph, 0)
        for b in (1, 2):
            sv.apply_permutation(reg, 0, 0, b)
            edsr_then_emit(reg, ph, b)
        reg = sv.finalize_photon(reg, ph)
        # the permutation ladder leaves the branch of bin k on level k+1 mod 3
        for k in range(3):
            assert abs(reg.amps[(k + 1) % 3, 0, k]) == pytest.approx(
                1 / np.sqrt(3))
        assert np.linalg.norm(reg.amps) == pytest.approx(1.0)

    def test_double_emission_same_branch_rejected(self):
        reg, ph = sv.add_photon(self.psi1, 3)
        edsr_then_emit(reg, ph, 0)
        with pytest.raises(ValueError, match="already populated"):
            edsr_then_emit(reg, ph, 1)

    def test_emission_commutes_with_spectator_branch_gates(self):
        # a permutation confined to the non-emitting levels commutes with
        # the emission cycle
        a, ph = sv.add_photon(self.psi1, 3)
        b = a.copy()
        sv.apply_permutation(a, 0, 1, 2)
        edsr_then_emit(a, ph, 0)
        edsr_then_emit(b, ph, 0)
        sv.apply_permutation(b, 0, 1, 2)
        assert np.allclose(a.amps, b.amps, atol=1e-12)

    def test_electron_axis_must_be_a_qubit(self):
        # axis 0 is the qutrit donor, not the electron
        reg, ph = sv.add_photon(self.psi1, 3)
        with pytest.raises(ValueError, match="radix 2"):
            sv.apply_emission(reg, ph, 0, 0)

    def test_finalize_requires_empty_vacuum(self):
        reg, ph = sv.add_photon(self.psi1, 3)
        edsr_then_emit(reg, ph, 0)
        with pytest.raises(ValueError, match="vacuum"):
            sv.finalize_photon(reg, ph)


class TestCZ:
    def test_three_qubit_line_signs(self):
        reg = sv.init_register([2] * 3, (0,) * 3)
        for q in range(3):
            reg = sv.apply_fourier(reg, q)
        sv.apply_cz_power(reg, 0, 1, 1)
        sv.apply_cz_power(reg, 1, 2, 1)
        signs = np.sign(np.real(reg.amps.reshape(-1) * np.sqrt(8)))
        assert list(signs) == [1, 1, 1, -1, 1, 1, -1, 1]

    def test_zero_weight_identity(self):
        reg = sv.Register(np.outer(uniform(3), uniform(3)))
        out = applied(sv.apply_cz_power, reg, 0, 1, 0)
        assert np.allclose(out.amps, reg.amps)

    @pytest.mark.parametrize("d", [3, 4])
    def test_order_d(self, d):
        # matrix-power oracle on the explicit diagonal form
        k = np.arange(d)
        cz = np.diag(np.exp(2j * np.pi * np.outer(k, k).reshape(-1) / d))
        assert np.allclose(np.linalg.matrix_power(cz, d), np.eye(d * d),
                           atol=1e-11)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        amps /= np.linalg.norm(amps)
        reg = sv.Register(amps)
        a = applied(sv.apply_cz_power, reg, 0, 1, 2)
        b = applied(sv.apply_cz_power, reg, 1, 0, 2)
        assert np.allclose(a.amps, b.amps)

    def test_dimension_mismatch(self):
        reg = sv.init_register([2, 3], (0, 0))
        with pytest.raises(ValueError):
            sv.apply_cz_power(reg, 0, 1, 1)


def names_outside_own_definition(node, own=frozenset()):
    """The names that ``Name`` and ``Attribute`` nodes under ``node`` carry,
    less any that lies inside a def or class of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    found = {name} if name is not None and name not in own else set()
    for child in ast.iter_child_nodes(node):
        found |= names_outside_own_definition(child, own)
    return found


def reader_trees():
    """The parsed code whose use keeps a public name alive: the package, the
    paper's acceptance criteria and the benchmark."""
    src = pathlib.Path(sv.__file__).parent
    root = src.parents[1]
    return [ast.parse(path.read_text())
            for path in [*src.glob("*.py"),
                         root / "tests" / "test_acceptance.py",
                         *(root / "perfbench").rglob("*.py")]]


def random_emitter_register(data):
    """Two donors, the electron and a photon under construction, in C or in
    a transposed memory layout, with the photon free to be emitted."""
    d = data.draw(st.integers(2, 5))
    radices = (d, d, 2, d + 1)
    perm = data.draw(st.permutations(range(4)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = [radices[ax] for ax in perm]
    base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps = base.transpose(np.argsort(perm))
    amps[:, :, sv.ELECTRON_UP, :d] = 0
    return d, sv.Register(amps / np.linalg.norm(amps))


class TestGateSurface:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_copying_gates_leave_their_input_alone(self, data):
        """The Fourier and Pauli gates return a new register and leave the
        amplitudes they were given as they were."""
        d, reg = random_emitter_register(data)
        before = reg.amps.copy()
        donor = st.integers(0, 1)
        gate = data.draw(st.sampled_from([
            lambda: sv.apply_fourier(reg, data.draw(donor)),
            lambda: sv.apply_pauli_power(reg, data.draw(donor),
                                         data.draw(st.sampled_from("XZ")),
                                         data.draw(st.integers(0, d - 1))),
        ]))
        out = gate()
        assert out is not reg
        assert not np.shares_memory(out.amps, reg.amps)
        assert np.array_equal(reg.amps, before)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_in_place_gates_change_only_the_amplitudes(self, data):
        """A permutation, flip, emission or CZ returns None and updates
        ``reg.amps`` in place: the same array, in the same memory layout,
        under the same radices, holding what the gate gives on a C-ordered
        copy."""
        d, reg = random_emitter_register(data)
        level = st.integers(0, d - 1)
        donor = st.integers(0, 1)
        gate, args = data.draw(st.sampled_from([
            (sv.apply_permutation,
             lambda: (data.draw(donor), data.draw(level), data.draw(level))),
            (sv.apply_conditional_flip,
             lambda: ((data.draw(donor), data.draw(level)), 2)),
            (sv.apply_emission, lambda: (3, data.draw(level), 2)),
            (sv.apply_cz_power, lambda: (0, 1, data.draw(level))),
        ]))
        args = args()
        amps, strides = reg.amps, reg.amps.strides
        c_ordered = sv.Register(np.ascontiguousarray(amps))
        assert gate(reg, *args) is None
        assert reg.amps is amps and amps.strides == strides
        assert reg.radices == (d, d, 2, d + 1)
        assert reg.radices == reg.amps.shape
        gate(c_ordered, *args)
        assert np.array_equal(reg.amps, c_ordered.amps)

    def test_every_public_function_is_reached_from_the_package(self):
        """Every public top-level function and class of the seven modules,
        and every public method and property of those classes, is named by
        something that runs: the package outside the name's own definition,
        a subcommand (``main`` calls ``cmd_<name>`` by name), the paper's
        acceptance criteria or the benchmark.  A method is matched by its
        attribute name; an import does not count."""
        src = pathlib.Path(sv.__file__).parent
        public = {}
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                if (not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                        or top.name.startswith("_")):
                    continue
                public[f"{path.stem}.{top.name}"] = top.name
                if isinstance(top, ast.ClassDef):
                    public.update(
                        (f"{path.stem}.{top.name}.{node.name}", node.name)
                        for node in top.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_"))
        parser = cli.build_parser()
        subcommands, = [action.choices for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)]
        used = {f"cmd_{name}" for name in subcommands}
        for tree in reader_trees():
            used |= names_outside_own_definition(tree)
        unreached = [key for key, name in public.items() if name not in used]
        assert unreached == []

    def test_every_record_field_is_read(self):
        """Every annotated field of a public class of the seven modules is
        read by the same readers: named as an attribute, or as a string
        constant, since ``to_dict`` reads fields by ``getattr`` key.  The
        field's own declaration names it as a ``Name``, which does not
        count."""
        src = pathlib.Path(sv.__file__).parent
        declared = {}
        for path in sorted(src.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                if (isinstance(top, ast.ClassDef)
                        and not top.name.startswith("_")):
                    declared.update(
                        (f"{path.stem}.{top.name}.{node.target.id}",
                         node.target.id)
                        for node in top.body
                        if isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name))
        read = set()
        for tree in reader_trees():
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    read.add(node.value)
        assert declared
        unread = [key for key, name in declared.items() if name not in read]
        assert unread == []


class TestUnitarity:
    """Materialized matrices stay unitary on spaces up to 4096 amplitudes."""

    @pytest.mark.parametrize("apply_fn,radices,sub", [
        (lambda r: sv.apply_fourier(r, 1), (2, 3, 4), 1),
        (lambda r: sv.apply_pauli_power(r, 2, "X", 3), (2, 3, 4), 2),
        (lambda r: sv.apply_pauli_power(r, 1, "Z", 2), (2, 3, 4), 1),
        (lambda r: applied(sv.apply_permutation, r, 2, 0, 3), (2, 3, 4), 2),
        (lambda r: applied(sv.apply_conditional_flip, r, (1, 2), 0),
         (2, 3, 4), 0),
        (lambda r: applied(sv.apply_cz_power, r, 0, 2, 1), (4, 3, 4), 0),
        (lambda r: sv.apply_fourier(r, 0), (8, 8, 8), 0),
    ])
    def test_u_udag_identity(self, apply_fn, radices, sub):
        u = gate_matrix(apply_fn, radices, sub)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)

    def test_inner_products_preserved_at_4096(self):
        # full Gram check is done at 512 dims; at the 4096-amplitude scale
        # unitarity shows as preserved inner products on random pairs
        radices = (8, 8, 8, 8)
        rng = np.random.default_rng(11)
        for _ in range(16):
            a = rng.normal(size=radices) + 1j * rng.normal(size=radices)
            b = rng.normal(size=radices) + 1j * rng.normal(size=radices)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            ra, rb = sv.Register(a), sv.Register(b)
            before = np.vdot(ra.amps, rb.amps)
            after = np.vdot(sv.apply_fourier(ra, 1).amps,
                            sv.apply_fourier(rb, 1).amps)
            assert abs(before - after) < 1e-10

    def test_norm_preserved_along_random_circuit(self):
        rng = np.random.default_rng(7)
        reg = sv.init_register([3, 2, 3], (0, 0, 0))
        reg = sv.apply_fourier(reg, 0)
        for _ in range(50):
            op = rng.integers(4)
            if op == 0:
                reg = sv.apply_fourier(reg, int(rng.integers(3)))
            elif op == 1:
                reg = sv.apply_pauli_power(reg, int(rng.integers(3)), "Z",
                                           int(rng.integers(1, 3)))
            elif op == 2:
                sv.apply_permutation(reg, 0, 0, int(rng.integers(1, 3)))
            else:
                sv.apply_cz_power(reg, 0, 2, 1)
            assert abs(np.linalg.norm(reg.amps) - 1.0) < 1e-10


def reference_enumerate(reg, subsystem, atol=1e-14):
    """Outcomes as zero-filled full-size copies that keep the measured axis:
    the collapse that the slice-and-consume one replaced."""
    probs = sv.outcome_probabilities(reg, subsystem)
    out = []
    for level, p in enumerate(probs):
        if p > atol:
            new = np.zeros_like(reg.amps)
            sel = [slice(None)] * reg.n_subsystems
            sel[subsystem] = level
            new[tuple(sel)] = reg.amps[tuple(sel)] / math.sqrt(p)
            out.append((level, float(p), sv.Register(new)))
    return out


def enumerated(reg, subsystem):
    """(level, probability, collapsed) for every possible level, ascending:
    the enumerating readout that ``protocols.execute`` runs per step."""
    probs = sv.outcome_probabilities(reg, subsystem)
    return [(level, float(p), sv.collapse(reg, subsystem, level, float(p)))
            for level, p in enumerate(probs) if p > sv.ZERO_PROBABILITY]


class TestMeasurement:
    def make_w3(self):
        reg = sv.init_register([3, 2], (0, 0))
        reg = sv.apply_fourier(reg, 0)
        reg, ph = sv.add_photon(reg, 3)
        edsr_then_emit(reg, ph, 0)
        for b in (1, 2):
            sv.apply_permutation(reg, 0, 0, b)
            edsr_then_emit(reg, ph, b)
        reg = sv.finalize_photon(reg, ph)
        return sv.apply_fourier(reg, 0)

    def test_probabilities_sum_to_one(self):
        reg = self.make_w3()
        probs = sv.outcome_probabilities(reg, 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_collapse_top_outcome_gives_uniform_photon(self):
        reg = self.make_w3()
        level, _, collapsed = enumerated(reg, 0)[0]
        assert level == 0
        photon = sv.remove_subsystem(collapsed, 0)
        # outcome 0 needs no phase correction: photon uniform over bins
        assert np.allclose(photon.amps, uniform(3) * photon.amps[0]
                           / abs(photon.amps[0]))

    def test_other_outcomes_fixed_by_z_power(self):
        # exhaustive diagonal-correction search: each outcome maps back to
        # the uniform state under some generalized-Z power
        reg = self.make_w3()
        target = uniform(3)
        for level, prob, collapsed in enumerated(reg, 0):
            photon = sv.remove_subsystem(collapsed, 0)
            fids = [abs(np.vdot(sv.apply_pauli_power(photon, 0, "Z", a).amps,
                                target)) ** 2 for a in range(3)]
            assert max(fids) == pytest.approx(1.0, abs=1e-10)

    def test_enumerated_collapses_rebuild_the_state(self):
        # sum_k sqrt(p_k) |k> (x) branch_k is the measured state again
        reg = self.make_w3()
        rebuilt = np.zeros_like(reg.amps)
        for level, prob, collapsed in enumerated(reg, 0):
            assert collapsed.radices == reg.radices[1:]
            rebuilt[level] = math.sqrt(prob) * collapsed.amps
        assert np.max(np.abs(rebuilt - reg.amps)) < 1e-12

    def test_sampling_is_seeded(self):
        # the draw of a sampled execute: one seed picks one level, and the
        # collapse onto it leaves its input alone, so a second draw from
        # the same register gives the same bytes
        reg = self.make_w3()
        probs = sv.outcome_probabilities(reg, 0)
        picks = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            level = int(rng.choice(len(probs), p=probs / probs.sum()))
            p = float(probs[level])
            picks.append((level, p,
                          sv.collapse(reg, 0, level, p).amps.tobytes()))
        assert picks[0] == picks[1]

    def test_zero_probability_collapse_rejected(self):
        # enumeration skips an impossible outcome; a collapse onto one is
        # refused
        reg = sv.init_register([3], (1,))
        assert [lv for lv, _, _ in enumerated(reg, 0)] == [1]
        p = float(sv.outcome_probabilities(reg, 0)[0])
        assert p == 0
        with pytest.raises(ValueError, match="zero-probability outcome 0"):
            sv.collapse(reg, 0, 0, p)

    def test_slices_of_a_transposed_register(self):
        # the layout the last Fourier on an axis leaves: that axis slowest.
        # Each outcome is np.take's slice, C-ordered, and is copied from
        # the register as it lies, not from a whole C-ordered copy of it
        rng = np.random.default_rng(11)
        shape = (4,) * 8
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        reg = sv.Register(np.moveaxis(amps / np.linalg.norm(amps), 0, 3))
        assert not reg.amps.flags.c_contiguous
        for axis in (0, 3, 7):
            outs = enumerated(reg, axis)
            assert [lv for lv, _, _ in outs] == [0, 1, 2, 3]
            for level, p, collapsed in outs:
                ref = np.take(reg.amps, level, axis=axis) / math.sqrt(p)
                assert collapsed.amps.flags.c_contiguous
                assert collapsed.amps.dtype == ref.dtype
                assert collapsed.amps.tobytes() == ref.tobytes()
        tracemalloc.start()
        try:
            outs = enumerated(reg, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sum(c.amps.nbytes for _, _, c in outs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_slice_collapse_matches_zero_filled_copy(self, data):
        """Nested enumeration on renormalised slices, step by step against
        the zero-filled full-size collapse of the same amplitudes with the
        measured axes stripped afterwards: the same outcomes in the same
        order, conditional probabilities within 4 ulp (only the summation
        order differs) and amplitudes within 1e-15."""
        radices = data.draw(st.lists(st.integers(2, 5), min_size=2,
                                     max_size=4))
        order = data.draw(st.permutations(range(len(radices))))
        order = order[:data.draw(st.integers(1, len(radices)))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=radices) + 1j * rng.normal(size=radices)
        if data.draw(st.booleans()):     # one impossible outcome to skip
            np.moveaxis(amps, order[0], 0)[-1] = 0
        reg = sv.Register(amps / np.linalg.norm(amps))

        branches = [((), 1.0, reg)]
        for k, sub in enumerate(order):
            axis = sub - sum(m < sub for m in order[:k])
            nxt = []
            for outcomes, prob, state in branches:
                # the same amplitudes, zero-filled at the measured levels
                full = np.zeros_like(reg.amps)
                at = [slice(None)] * len(radices)
                for m, level in zip(order, outcomes):
                    at[m] = level
                full[tuple(at)] = state.amps
                ref = reference_enumerate(sv.Register(full), sub)
                got = enumerated(state, axis)
                assert [lv for lv, _, _ in got] == [lv for lv, _, _ in ref]
                for (level, p, collapsed), (_, p_ref, copy) in zip(got, ref):
                    assert abs(p - p_ref) <= 4 * math.ulp(p_ref)
                    for m in sorted(order[:k + 1], reverse=True):
                        copy = sv.remove_subsystem(copy, m)
                    assert collapsed.radices == copy.radices
                    assert np.max(np.abs(collapsed.amps - copy.amps)) <= 1e-15
                    nxt.append((outcomes + (level,), prob * p, collapsed))
            branches = nxt
        assert math.fsum(p for _, p, _ in branches) == pytest.approx(
            1, abs=1e-12)
