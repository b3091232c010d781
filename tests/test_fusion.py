"""Fusion probabilities, projective chain fusion, scheme comparison."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdonor import fusion as fu
from qdonor import graphs as gm
from qdonor import protocols as pr
from qdonor import statevec as sv


class TestSuccessProbability:
    @pytest.mark.parametrize("d,expected", [
        (2, 0.5), (3, 1 / 6), (4, 0.125), (5, 2 / 30), (6, 2 / 36),
        (7, 2 / 56),
    ])
    def test_quoted_values(self, d, expected):
        assert fu.success_probability(d) == pytest.approx(expected, abs=1e-12)

    def test_strictly_decreasing(self):
        probs = [fu.success_probability(d) for d in range(2, 12)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_qubit_case_is_one_half(self):
        assert fu.success_probability(2) == 0.5

    def test_rejects_d_below_two(self):
        with pytest.raises(ValueError):
            fu.success_probability(1)

    def test_ancilla_mode_count(self):
        assert fu.ancilla_modes(2) == 0
        assert fu.ancilla_modes(3) == 3
        assert fu.ancilla_modes(4) == 8


class TestAttempts:
    def test_certain_success_means_one_attempt(self):
        st = fu.sample_attempts(1.0, 100, master_seed=1)
        assert st["expected_mean"] == 1.0
        assert st["empirical_mean"] == 1.0

    def test_one_sixth_means_six(self):
        st = fu.sample_attempts(1 / 6, 100, master_seed=1)
        assert st["expected_mean"] == pytest.approx(6.0)

    def test_out_of_range(self):
        for p in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="probability"):
                fu.sample_attempts(p, 100, master_seed=1)

    def test_monte_carlo_matches_closed_form(self):
        st = fu.sample_attempts(0.125, 10**5, master_seed=424242)
        assert st["within_3_sigma"]
        assert st["empirical_mean"] == pytest.approx(8.0, abs=3 * st[
            "std_error_of_mean"])

    def test_sampling_is_seeded(self):
        a = fu.sample_attempts(0.3, 1000, master_seed=7)
        b = fu.sample_attempts(0.3, 1000, master_seed=7)
        assert a == b

    def test_draws_are_not_held_at_once(self):
        # a million int64 draws would take 8 MB in one array
        tracemalloc.start()
        try:
            fu.sample_attempts(1 / 6, 10**6, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    @pytest.mark.parametrize("p", [1 / 2, 1 / 6, 1 / 36, 1.0])
    def test_chunk_size_leaves_the_mean_unchanged(self, monkeypatch, p):
        one_shot = np.random.default_rng(5).geometric(p, size=1001).mean()
        full = fu.sample_attempts(p, 1001, master_seed=5)
        monkeypatch.setattr(fu, "DRAW_CHUNK", 7)
        small = fu.sample_attempts(p, 1001, master_seed=5)
        assert small == full
        assert full["empirical_mean"] == one_shot


class TestChainFusion:
    @pytest.mark.parametrize("d", [2, 3])
    def test_eight_chain_becomes_six_ring(self, d):
        reg = gm.build_graph_state(gm.make_linear(8, d))
        out = fu.fuse_chain_ends(reg, (0, 0))
        assert out.success
        ring, _ = pr.target_graph("six-ring", d)
        assert gm.stabilizer_verify(out.register, ring).passed

    def test_every_bell_outcome_verifies_at_d2(self):
        reg = gm.build_graph_state(gm.make_linear(8, 2))
        for a in range(2):
            for b in range(2):
                out = fu.fuse_chain_ends(reg, outcome=(a, b))
                assert out.success, (a, b)
                # Pauli byproducts alone: no Fourier dressing was needed
                assert not any(out.correction.fourier_powers), (a, b)

    def test_success_branch_stays_normalized(self):
        reg = gm.build_graph_state(gm.make_linear(8, 3))
        out = fu.fuse_chain_ends(reg, (0, 0))
        assert np.linalg.norm(out.register.amps) == pytest.approx(
            1.0, abs=1e-10)

    def test_four_chain_cancels_to_empty_pair(self):
        # fusing the ends of a 4-chain doubles the middle edge: weight 2
        # vanishes mod 2, so of the two candidate two-vertex graphs only the
        # empty one verifies
        reg = gm.build_graph_state(gm.make_linear(4, 2))
        prob, collapsed = fu.project_pair(reg, 0, 3, 0, 0)
        empty = gm.GraphSpec.from_matrix(2, np.zeros((2, 2), dtype=int))
        edge = gm.make_linear(2, 2)
        verdict = {}
        for name, g in (("empty", empty), ("edge", edge)):
            corr = gm.local_correction_search(collapsed, g, 2)
            verdict[name] = corr is not None
        assert verdict == {"empty": True, "edge": False}

    def test_four_chain_through_api(self):
        reg = gm.build_graph_state(gm.make_linear(4, 2))
        out = fu.fuse_chain_ends(reg, (0, 0))
        assert out.success
        assert fu.fused_chain_graph(4, 2).edges() == []

    def test_precondition_checked(self):
        import qdonor.statevec as sv
        not_chain = sv.init_register((2,) * 8, (0,) * 8)
        with pytest.raises(ValueError, match="does not verify"):
            fu.fuse_chain_ends(not_chain, (0, 0))


def chain_state(n, d):
    return gm.build_graph_state(gm.make_linear(n, d))


chain_sizes = st.tuples(st.integers(4, 7), st.sampled_from([2, 3, 4]))


class TestChainCheck:
    """The one-pass chain check in front of ``fuse_chain_ends``: the CZ
    edges undone, then the distance from the uniform state."""

    @settings(max_examples=12, deadline=None)
    @given(chain_sizes, st.floats(0, 2 * np.pi))
    def test_canonical_chain_is_accepted_up_to_phase(self, size, theta):
        n, d = size
        reg = chain_state(n, d)
        assert fu._require_chain(reg) == (n, d)
        turned = sv.Register(np.exp(1j * theta) * reg.amps)
        assert fu._require_chain(turned) == (n, d)

    @settings(max_examples=8, deadline=None)
    @given(chain_sizes)
    def test_corrected_protocol_chains_are_accepted(self, size):
        n, d = size
        trace = pr.execute(pr.compile_linear(d, n), enumerate_all=True)
        graph, order = pr.target_graph("linear", d, n)
        report = pr.verify_against_target(trace, graph, order)
        assert report.passed
        for br, res in zip(trace.branches, report.branches):
            chain = gm.apply_correction(br.photons, res.correction)
            assert fu._require_chain(chain) == (n, d)

    @settings(max_examples=25, deadline=None)
    @given(chain_sizes, st.data())
    def test_local_pauli_byproduct_is_rejected(self, size, data):
        n, d = size
        v = data.draw(st.integers(0, n - 1))
        a, b = data.draw(st.tuples(st.integers(0, d - 1),
                                   st.integers(0, d - 1))
                         .filter(lambda ab: ab != (0, 0)))
        reg = sv.apply_pauli_power(chain_state(n, d), v, "Z", b)
        reg = sv.apply_pauli_power(reg, v, "X", a)
        with pytest.raises(ValueError, match="does not verify"):
            fu.fuse_chain_ends(reg, (0, 0))

    @settings(max_examples=25, deadline=None)
    @given(chain_sizes, st.data())
    def test_other_weighted_graphs_are_rejected(self, size, data):
        n, d = size
        chain = gm.make_linear(n, d).matrix()
        upper = data.draw(st.lists(st.integers(0, d - 1),
                                   min_size=n * (n - 1) // 2,
                                   max_size=n * (n - 1) // 2))
        m = np.zeros((n, n), dtype=int)
        m[np.triu_indices(n, 1)] = upper
        m = m + m.T
        if np.array_equal(m, chain):
            m[0, n - 1] = m[n - 1, 0] = 1
        reg = gm.build_graph_state(gm.GraphSpec.from_matrix(d, m))
        with pytest.raises(ValueError, match="does not verify"):
            fu.fuse_chain_ends(reg, (0, 0))

    @settings(max_examples=40, deadline=None)
    @given(chain_sizes, st.floats(-13, -8), st.integers(0, 2**32 - 1))
    def test_accepted_noisy_chain_passes_the_stabilizer_check(
            self, size, log_eps, seed):
        n, d = size
        eps = 10.0 ** log_eps
        rng = np.random.default_rng(seed)
        reg = chain_state(n, d)
        noise = (rng.standard_normal(reg.amps.shape)
                 + 1j * rng.standard_normal(reg.amps.shape))
        noisy = sv.Register(reg.amps + eps * noise / np.linalg.norm(noise))
        try:
            fu._require_chain(noisy)
        except ValueError as exc:
            assert "does not verify" in str(exc)
            # the part of the noise off the chain is at most eps
            assert eps > gm.STABILIZER_ATOL / 2
        else:
            # random noise lies mostly off the chain: only a small eps passes
            assert eps < gm.STABILIZER_ATOL
            assert gm.stabilizer_verify(noisy, gm.make_linear(n, d)).passed

    @pytest.mark.parametrize("radices", [(2, 3, 2, 2), (3, 3, 3, 2),
                                         (4, 4, 2, 4, 4)])
    def test_mixed_radices_are_rejected(self, radices):
        reg = sv.init_register(radices, (0,) * len(radices))
        with pytest.raises(ValueError, match="one dimension"):
            fu.fuse_chain_ends(reg, (0, 0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_short_chain_is_rejected(self, n):
        # a chain needs two vertices, so n=1 is one plus state
        reg = chain_state(n, 3) if n > 1 else sv.apply_fourier(
            sv.init_register((3,), (0,)), 0)
        with pytest.raises(ValueError, match="at least 4"):
            fu.fuse_chain_ends(reg, (0, 0))


class TestBellStates:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthonormal_family(self, d):
        vecs = [fu.bell_state(d, a, b).reshape(-1)
                for a in range(d) for b in range(d)]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        reg = gm.build_graph_state(gm.make_linear(6, 3))
        probs = [fu.project_pair(reg, 0, 5, a, b)[0]
                 for a in range(3) for b in range(3)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)


class TestCompareSchemes:
    def test_ring_d4_expected_attempts(self):
        rep = fu.compare_schemes(4, "ring6")
        assert rep["schemeA"]["expected_attempts"] == pytest.approx(8.0)
        assert rep["schemeA"]["photons_per_attempt"] == 8
        assert rep["schemeB"]["deterministic"] is True
        assert rep["schemeB"]["cz_gates"] == 2

    def test_ring_d3_mean_six(self):
        rep = fu.compare_schemes(3, "ring6")
        assert rep["schemeA"]["expected_attempts"] == pytest.approx(6.0)
        assert rep["schemeA"]["deterministic"] is False

    def test_direct_scheme_costs_exactly_the_vertices(self):
        for d in (2, 3, 4):
            for target in ("ring6", "ladder23"):
                rep = fu.compare_schemes(d, target)
                assert rep["schemeB"]["expected_photons"] == 6.0
                assert rep["schemeB"]["photons_destroyed_mean"] == 0.0

    def test_ladder_needs_two_fusions(self):
        rep = fu.compare_schemes(3, "ladder23")
        assert rep["schemeA"]["fusions_required"] == 2
        assert rep["schemeA"]["expected_attempts"] == pytest.approx(36.0)

    def test_unsupported_target(self):
        with pytest.raises(ValueError):
            fu.compare_schemes(3, "tree")

    def test_report_is_json_ready(self):
        import json
        json.dumps(fu.compare_schemes(2, "ring6"))
