"""Graph construction, stabilizer verification, correction search."""

import gc
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdonor import fusion as fu
from qdonor import graphs as gm
from qdonor import protocols as pr
from qdonor import statevec as sv


def brute_force_correction(reg, g, max_power=None):
    """Independent oracle: exhaustive scan over per-vertex X^a Z^b."""
    d = g.d
    powers = range(d)
    for assignment in itertools.product(powers, repeat=2 * g.n):
        xs = assignment[0::2]
        zs = assignment[1::2]
        corr = gm.CorrectionSet(tuple(xs), tuple(zs))
        if gm.stabilizer_verify(gm.apply_correction(reg, corr), g).passed:
            return corr
    return None


def reference_phase_fix(reg, g):
    """The search's depth-1 step as it stood before the single loop, kept
    verbatim: Z powers from one full set of stabilizer eigenphases, then a
    full verification of the corrected state."""
    d = g.d
    mus = gm.stabilizer_expectations(reg, g)
    z = []
    for mu in mus:
        if abs(abs(mu) - 1.0) > 1e-6:
            return None
        theta = np.angle(mu) * d / (2 * np.pi)
        k = int(round(theta)) % d
        if abs(theta - round(theta)) > 1e-6:
            return None
        z.append(k)
    corr = gm.CorrectionSet((0,) * g.n, tuple(z))
    if gm.stabilizer_verify(gm.apply_correction(reg, corr), g).passed:
        return corr
    return None


def reference_correction_search(reg, g):
    """Depth-2 search without neighbourhood screening: every Fourier-power
    vector, sparse-first then lexicographic, is dressed and phase-fixed."""
    corr = reference_phase_fix(reg, g)
    if corr is not None:
        return corr
    zeros = (0,) * g.n
    fvecs = sorted(itertools.product(range(4), repeat=g.n),
                   key=lambda v: (sum(1 for x in v if x), v))
    for fvec in fvecs:
        if not any(fvec):
            continue  # depth-1 case already tried
        trial = gm.apply_correction(reg, gm.CorrectionSet(zeros, zeros, fvec))
        corr = reference_phase_fix(trial, g)
        if corr is not None:
            return gm.CorrectionSet(corr.x_powers, corr.z_powers, fvec)
    return None


@st.composite
def dressed_states(draw):
    """(state, target graph, recoverable) at d=2..4 and n=3..5 (n <= 4 when
    unrecoverable: the unscreened reference then tries all 4^n - 1 vectors).

    A recoverable state is the target's graph state dressed by X^a Z^b and
    then F^f on up to two vertices (so the unscreened reference succeeds
    within its first 106 vectors); undoing the F powers leaves a Pauli
    byproduct, so the depth-2 search must find a correction.  An
    unrecoverable one takes a random weighted tree as target and leaves one
    CZ out before dressing: every tree edge is a bridge, so the state is a
    product across a cut where the target has Schmidt rank d / gcd(w, d) > 1,
    and no local correction exists.
    """
    d = draw(st.integers(2, 4))
    recoverable = draw(st.integers(0, 3)) < 3   # one case in four is not
    n = draw(st.integers(3, 5 if recoverable else 4))
    m = np.zeros((n, n), dtype=int)
    if recoverable:
        for i, j in itertools.combinations(range(n), 2):
            m[i, j] = m[j, i] = draw(st.integers(0, d - 1))
        built = gm.GraphSpec.from_matrix(d, m)
    else:
        for v in range(1, n):
            u = draw(st.integers(0, v - 1))
            m[u, v] = m[v, u] = draw(st.integers(1, d - 1))
        cut = m.copy()
        v = draw(st.integers(1, n - 1))
        cut[v, :v] = cut[:v, v] = 0   # drop the edge to v's parent
        built = gm.GraphSpec.from_matrix(d, cut)
    powers = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    xs, zs = tuple(draw(powers)), tuple(draw(powers))
    dressed = draw(st.sets(st.integers(0, n - 1), max_size=2))
    fs = tuple(draw(st.integers(1, 3)) if v in dressed else 0
               for v in range(n))
    reg = gm.apply_correction(gm.build_graph_state(built),
                              gm.CorrectionSet(xs, zs))
    reg = gm.apply_correction(reg, gm.CorrectionSet((0,) * n, (0,) * n, fs))
    return reg, gm.GraphSpec.from_matrix(d, m), recoverable


class TestGenerators:
    def test_ring_degrees(self):
        g, _ = pr.target_graph("six-ring", 4)
        m = g.matrix()
        assert g.n == 6
        assert all((m[v] != 0).sum() == 2 for v in range(6))

    def test_two_vertex_line(self):
        g = gm.make_linear(2, 2)
        assert g.edges() == [(0, 1, 1)]

    def test_ladder_2x3_shape(self):
        g, _ = pr.target_graph("ladder", 4)
        assert g.n == 6
        assert len(g.edges()) == 7  # two rails of two edges plus three rungs

    def test_adjacency_validation(self):
        with pytest.raises(ValueError):
            gm.GraphSpec.from_matrix(2, [[0, 1], [0, 0]])  # asymmetric
        with pytest.raises(ValueError):
            gm.GraphSpec.from_matrix(2, [[1, 1], [1, 0]])  # diagonal
        with pytest.raises(ValueError):
            gm.GraphSpec.from_matrix(2, [[0, 2], [2, 0]])  # weight >= d

    def test_json_round_trip(self):
        g, _ = pr.target_graph("ladder", 5)
        assert json.loads(json.dumps(g.to_dict())) == {
            "n": 6, "d": 5,
            "adjacency": [0, 1, 0, 1, 0, 0,
                          1, 0, 1, 0, 1, 0,
                          0, 1, 0, 0, 0, 1,
                          1, 0, 0, 0, 1, 0,
                          0, 1, 0, 1, 0, 1,
                          0, 0, 1, 0, 1, 0]}


class TestSerialization:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_graph_json_round_trip_is_exact(self, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(2, 8))
        m = np.zeros((n, n), dtype=int)
        for i, j in itertools.combinations(range(n), 2):
            m[i, j] = m[j, i] = data.draw(st.integers(0, d - 1))
        g = gm.GraphSpec.from_matrix(d, m)
        text = json.dumps(g.to_dict())
        assert text == json.dumps({"n": n, "d": d,
                                   "adjacency": m.reshape(-1).tolist()})
        obj = json.loads(text)
        assert gm.GraphSpec.from_matrix(
            obj["d"], np.reshape(obj["adjacency"], (n, n))) == g


def fourier_gate_graph_state(g):
    """The construction that the closed form replaced, kept as its
    reference: a full-register Fourier gate per vertex on |0...0>, then the
    CZ powers."""
    reg = sv.init_register((g.d,) * g.n, (0,) * g.n)
    for v in range(g.n):
        reg = sv.apply_fourier(reg, v)
    for i, j, w in g.edges():
        sv.apply_cz_power(reg, i, j, w)
    return reg


class TestBuildGraphState:
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_fourier_gates_bit_for_bit(self, d):
        # every n with d^n <= 2^16, on the chain and on a random weighted
        # graph; C-order bytes compare every bit, signed zeros included
        rng = np.random.default_rng(d)
        n = 1
        while d**n <= 2**16:
            m = np.triu(rng.integers(0, d, size=(n, n)), 1)
            graphs = [gm.GraphSpec.from_matrix(d, m + m.T)]
            if n >= 2:
                graphs.append(gm.make_linear(n, d))
            for g in graphs:
                got = gm.build_graph_state(g).amps
                ref = fourier_gate_graph_state(g).amps
                assert got.dtype == ref.dtype == np.complex128
                assert got.shape == ref.shape
                assert got.tobytes() == ref.tobytes(), (d, n, g.adjacency)
            n += 1

    def test_builds_in_one_register(self):
        g = gm.make_linear(8, 4)
        tracemalloc.start()
        try:
            reg = gm.build_graph_state(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * reg.amps.nbytes

    def test_three_vertex_line_signs(self):
        reg = gm.build_graph_state(gm.make_linear(3, 2))
        amps = reg.amps.reshape(-1) * np.sqrt(8)
        assert np.allclose(amps, [1, 1, 1, -1, 1, 1, -1, 1])

    def test_empty_graph_is_uniform_product(self):
        g = gm.GraphSpec.from_matrix(3, np.zeros((2, 2), dtype=int))
        reg = gm.build_graph_state(g)
        assert np.allclose(reg.amps, np.full((3, 3), 1 / 3))

    def test_weighted_triangle_matches_dense_oracle(self):
        # independent oracle: explicit 27x27 diagonal CZ-power matrices
        # applied to the Fourier-transformed basis vector
        d, n = 3, 3
        weights = {(0, 1): 1, (1, 2): 2, (0, 2): 1}
        f = sv.fourier_matrix(d)
        vec = np.zeros(d**n, dtype=complex)
        vec[0] = 1.0
        big_f = np.kron(np.kron(f, f), f)
        vec = big_f @ vec
        omega = np.exp(2j * np.pi / d)
        for (i, j), w in weights.items():
            diag = np.ones(d**n, dtype=complex)
            for flat in range(d**n):
                idx = np.unravel_index(flat, (d,) * n)
                diag[flat] = omega ** (w * idx[i] * idx[j] % d)
            vec = diag * vec
        m = np.zeros((3, 3), dtype=int)
        for (i, j), w in weights.items():
            m[i, j] = m[j, i] = w
        reg = gm.build_graph_state(gm.GraphSpec.from_matrix(d, m))
        assert np.allclose(reg.amps.reshape(-1), vec, atol=1e-12)

    def test_cz_order_independence(self):
        g = fu.fused_chain_graph(7, 3)
        reg = sv.init_register((3,) * 5, (0,) * 5)
        for v in range(5):
            reg = sv.apply_fourier(reg, v)
        forward = reg.copy()
        backward = reg.copy()
        edges = g.edges()
        for i, j, w in edges:
            sv.apply_cz_power(forward, i, j, w)
        for i, j, w in reversed(edges):
            sv.apply_cz_power(backward, i, j, w)
        assert np.allclose(forward.amps, backward.amps, atol=1e-12)

    def test_weight_d_equals_no_edge(self):
        reg = gm.build_graph_state(gm.GraphSpec.from_matrix(
            3, np.zeros((2, 2), dtype=int)))
        with_full_weight = reg.copy()
        sv.apply_cz_power(with_full_weight, 0, 1, 3)  # 3 mod 3 = 0
        assert np.allclose(with_full_weight.amps, reg.amps)


class TestStabilizerVerify:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("maker", [
        lambda d: gm.make_linear(6, d),
        lambda d: pr.target_graph("six-ring", d)[0],
        lambda d: pr.target_graph("ladder", d)[0],
    ])
    def test_constructed_states_verify(self, d, maker):
        g = maker(d)
        rep = gm.stabilizer_verify(gm.build_graph_state(g), g)
        assert rep.passed
        assert rep.max_deviation <= 1e-10

    def test_single_planted_z_fails_one_check(self):
        g = gm.make_linear(3, 2)
        reg = sv.apply_pauli_power(gm.build_graph_state(g), 0, "Z", 1)
        rep = gm.stabilizer_verify(reg, g)
        assert [v for v, dev in enumerate(rep.deviations)
                if dev > gm.STABILIZER_ATOL] == [0]

    def test_uniform_product_fails_edge_checks(self):
        g = gm.make_linear(3, 2)
        reg = sv.init_register((2,) * 3, (0,) * 3)
        for v in range(3):
            reg = sv.apply_fourier(reg, v)
        rep = gm.stabilizer_verify(reg, g)
        assert all(dev > gm.STABILIZER_ATOL for dev in rep.deviations)

    def test_dimension_mismatch_rejected(self):
        g = gm.make_linear(3, 2)
        with pytest.raises(ValueError):
            gm.stabilizer_verify(sv.init_register([2, 2], (0, 0)), g)


def rolled_stabilizer(amps, m, v):
    """Reference S_v amplitudes, which the kernel's gather must equal bit
    for bit: one np.roll of axis v, then the Z phases, axes ascending."""
    d = amps.shape[v]
    out = np.roll(amps, 1, axis=v)
    for w in range(m.shape[0]):
        if m[v, w]:
            shape = [1] * amps.ndim
            shape[w] = d
            out *= np.exp(2j * np.pi * int(m[v, w]) * np.arange(d)
                          / d).reshape(shape)
    return out


class TestDressedExpectation:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_dressed_register(self, data):
        # the search's kernel reads <F^f psi| S_v |F^f psi> as the Pauli
        # product F^-f S_v F^f on psi; on any state, graph or not, it must
        # match dressing the register with Fourier gates and applying S_v
        d = data.draw(st.integers(2, 6))
        n = data.draw(st.integers(2, 4 if d <= 4 else 3))
        m = np.zeros((n, n), dtype=int)
        for i, j in itertools.combinations(range(n), 2):
            m[i, j] = m[j, i] = data.draw(st.integers(0, d - 1))
        g = gm.GraphSpec.from_matrix(d, m)
        fvec = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                        max_size=n)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        amps = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        reg = sv.Register(amps / np.linalg.norm(amps))
        zeros = (0,) * n
        dressed = gm.apply_correction(reg, gm.CorrectionSet(zeros, zeros,
                                                            fvec))
        plain = gm.stabilizer_expectations(reg, g)
        for v in range(n):
            factors = gm._stabilizer_factors(m, v)
            mu = gm._expectation(reg, gm._conjugate(factors, fvec, d))
            want = np.vdot(dressed.amps,
                           rolled_stabilizer(dressed.amps, m, v))
            assert abs(mu - want) <= 1e-12
            # at f = 0 the kernel is the undressed expectation, bit for bit
            assert gm._conjugate(factors, zeros, d) == factors
            at_zero = gm._expectation(reg, factors)
            assert at_zero == plain[v]
            assert at_zero == np.vdot(reg.amps,
                                      rolled_stabilizer(reg.amps, m, v))
            # S_v itself, bit for bit against an X roll then the Z phases
            built = sv.apply_pauli_power(reg, v, "X", 1)
            for w in range(n):
                if m[v, w]:
                    built.amps *= sv._z_phases(built, w, int(m[v, w]))
            assert (gm._pauli_product(reg, factors).tobytes()
                    == built.amps.tobytes()
                    == rolled_stabilizer(reg.amps, m, v).tobytes())

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_verify_on_fourier_transposed_register(self, d):
        # a Fourier gate leaves its axis outermost in memory; the gather
        # must keep that layout, or norm() sums in another order
        g = fu.fused_chain_graph(6, d)
        reg = gm.build_graph_state(g)
        reg = sv.apply_pauli_power(reg, 1, "Z", 1)
        reg = sv.apply_fourier(reg, 2)
        assert not reg.amps.flags.c_contiguous
        m = g.matrix()
        for v in range(g.n):
            out = gm._pauli_product(reg, gm._stabilizer_factors(m, v))
            assert out.strides == reg.amps.strides
            assert (out.tobytes()
                    == rolled_stabilizer(reg.amps, m, v).tobytes())
        want = tuple(float(np.linalg.norm(rolled_stabilizer(reg.amps, m, v)
                                          - reg.amps))
                     for v in range(g.n))
        assert gm.stabilizer_verify(reg, g).deviations == want

    @pytest.mark.parametrize("f", [0, 1])
    def test_order_two_fourier_powers_share_a_key(self, f):
        # F^2 = I at d = 2, so f and f + 2 conjugate S_v to one product
        m = fu.fused_chain_graph(7, 2).matrix()
        for v in range(5):
            factors = gm._stabilizer_factors(m, v)
            for w in range(5):
                fvec = [0] * 5
                fvec[w] = f
                lifted = list(fvec)
                lifted[w] = f + 2
                assert (gm._conjugate(factors, fvec, 2)
                        == gm._conjugate(factors, lifted, 2))


class TestCorrectionSearch:
    def test_exact_state_needs_identity(self):
        g = fu.fused_chain_graph(6, 3)
        corr = gm.local_correction_search(gm.build_graph_state(g), g, 1)
        assert corr is not None
        assert not any(corr.x_powers + corr.z_powers + corr.fourier_powers)
        assert corr.report.passed

    def test_recovers_planted_z_square(self):
        g = gm.make_linear(3, 3)
        reg = gm.build_graph_state(g)
        dirty = sv.apply_pauli_power(reg, 1, "Z", 2)
        corr = gm.local_correction_search(dirty, g, 1)
        assert corr is not None
        rep = gm.stabilizer_verify(gm.apply_correction(dirty, corr), g)
        assert rep.passed and corr.report == rep
        # the closed-form answer is the inverse power on vertex 1
        assert corr.z_powers[1] == 1

    @pytest.mark.parametrize("d,seed", [(2, 0), (2, 1), (3, 2), (4, 3)])
    def test_plant_and_recover_random_pauli(self, d, seed):
        rng = np.random.default_rng(seed)
        g = fu.fused_chain_graph(6, d)
        reg = gm.build_graph_state(g)
        plant = gm.CorrectionSet(
            tuple(int(x) for x in rng.integers(0, d, 4)),
            tuple(int(x) for x in rng.integers(0, d, 4)))
        dirty = gm.apply_correction(reg, plant)
        corr = gm.local_correction_search(dirty, g, 1)
        assert corr is not None and corr.report.passed
        assert gm.stabilizer_verify(gm.apply_correction(dirty, corr),
                                    g).passed

    def test_matches_brute_force_oracle_small(self):
        # dual route: the closed-form search and the exhaustive scan agree
        # on recoverability for a d=2 three-vertex case
        g = gm.make_linear(3, 2)
        reg = gm.build_graph_state(g)
        dirty = gm.apply_correction(reg, gm.CorrectionSet((1, 0, 0),
                                                          (0, 1, 1)))
        smart = gm.local_correction_search(dirty, g, 1)
        brute = brute_force_correction(dirty, g)
        assert smart is not None and brute is not None
        assert smart.report.passed
        for corr in (smart, brute):
            assert gm.stabilizer_verify(gm.apply_correction(dirty, corr),
                                        g).passed

    def test_depth_two_recovers_fourier_dressing(self):
        g = gm.make_linear(3, 3)
        reg = gm.build_graph_state(g)
        dirty = sv.apply_fourier(sv.apply_pauli_power(reg, 2, "Z", 1), 1)
        assert gm.local_correction_search(dirty, g, 1) is None
        corr = gm.local_correction_search(dirty, g, 2)
        assert corr is not None
        assert gm.stabilizer_verify(gm.apply_correction(dirty, corr),
                                    g).passed

    @settings(max_examples=25, deadline=None)
    @given(dressed_states())
    def test_matches_unscreened_search(self, case):
        reg, g, recoverable = case
        corr = gm.local_correction_search(reg, g, 2)
        assert corr == reference_correction_search(reg, g)
        assert (corr is not None) == recoverable
        if corr is not None:
            rep = gm.stabilizer_verify(gm.apply_correction(reg, corr), g)
            assert rep.passed
            # the attached report is that of the same corrected state
            assert corr.report.deviations == rep.deviations

    @pytest.mark.parametrize("n,d,bound", [(12, 2, 64), (9, 3, 128)])
    def test_exhausted_search_stays_local(self, monkeypatch, n, d, bound):
        # a chain with its middle edge left out is a product across that
        # cut, where the target is entangled: no local correction exists.
        # The solve must say so after a few kernel calls, where a walk over
        # all 4^n Fourier-power vectors would need thousands
        g = gm.make_linear(n, d)
        m = g.matrix()
        a = n // 2 - 1
        m[a, a + 1] = m[a + 1, a] = 0
        reg = gm.build_graph_state(gm.GraphSpec.from_matrix(d, m))
        kernel = gm._pauli_product
        calls = []

        def counted(reg, factors):
            calls.append(factors)
            return kernel(reg, factors)

        monkeypatch.setattr(gm, "_pauli_product", counted)
        assert gm.local_correction_search(reg, g, 2) is None
        assert n <= len(calls) <= bound

    @pytest.mark.parametrize("depth", [1, 2])
    def test_search_frees_its_register_without_the_collector(self, depth):
        # a search that kept a reference cycle would hold each branch's
        # register until the cyclic collector ran, raising peak memory
        g = gm.make_linear(3, 3)
        dirty = sv.apply_fourier(gm.build_graph_state(g), 1)
        probe = weakref.ref(dirty)
        gc.disable()
        try:
            gm.local_correction_search(dirty, g, depth)
            del dirty
            assert probe() is None
        finally:
            gc.enable()

    def test_not_found_is_a_value(self):
        # a non-graph state: |000>
        g = gm.make_linear(3, 2)
        reg = sv.init_register((2,) * 3, (0,) * 3)
        assert gm.local_correction_search(reg, g, 2) is None

    def test_search_is_deterministic(self):
        g = fu.fused_chain_graph(6, 2)
        dirty = gm.apply_correction(gm.build_graph_state(g),
                                    gm.CorrectionSet((1, 1, 0, 0),
                                                     (0, 1, 0, 1)))
        a = gm.local_correction_search(dirty, g, 2)
        b = gm.local_correction_search(dirty, g, 2)
        assert a == b
