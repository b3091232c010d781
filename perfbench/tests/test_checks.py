"""The benchmark's answer checks accept right answers and reject wrong ones.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json

import numpy as np
import pytest

import checks as ck
import workloads as wl
from qdonor import graphs as gm
from qdonor import protocols as pr


@pytest.fixture(scope="module")
def ring_d3():
    """A verified six-ring at d=3: one branch state, its correction, and the
    whole (trace, report) pair."""
    result = wl._run_direct("six-ring", 3)
    trace, report = result
    br, res = trace.branches[4], report.branches[4]
    psi = np.transpose(br.photons.amps, report.photon_order)
    return psi, wl._correction(res.correction), result


def _stabilizer(psi, adj, v):
    """X_v prod_w Z_w^{A_vw}, with this test's own Paulis."""
    d = psi.shape[0]
    out = np.roll(psi, 1, axis=v)
    for w in range(psi.ndim):
        if adj[v, w]:
            shape = [1] * psi.ndim
            shape[w] = d
            out = out * np.exp(2j * np.pi * adj[v, w] * np.arange(d) / d
                               ).reshape(shape)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reference_graph_state_is_stabilised(d):
    adj = ck.ladder_adjacency(3) * (d - 1)
    psi = ck.graph_state(adj, d)
    assert np.isclose(np.vdot(psi, psi), 1)
    for v in range(6):
        assert np.allclose(_stabilizer(psi, adj, v), psi)


def test_reference_matches_engine_graph_state():
    rng = np.random.default_rng(3)
    g = wl.random_dressed_graph(rng, 3, (0, 2, 0, 0, 1))
    reg = gm.build_graph_state(gm.GraphSpec.from_matrix(3, g.adjacency))
    assert ck.fidelity(ck.graph_state(g.adjacency, 3), reg.amps) > 1 - 1e-12


def test_correct_branch_passes(ring_d3):
    psi, corr, result = ring_d3
    ck.check_corrected_state(psi, ck.ring_adjacency(6), corr, "branch")
    wl._check_direct("six-ring", result)


def test_wrong_edge_weight_is_rejected(ring_d3):
    psi, corr, _ = ring_d3
    adj = ck.ring_adjacency(6)
    adj[2, 3] = adj[3, 2] = 2
    with pytest.raises(ck.CheckFailure):
        ck.check_corrected_state(psi, adj, corr, "branch")


def test_flipped_amplitude_sign_is_rejected(ring_d3):
    psi, corr, _ = ring_d3
    bad = psi.copy()
    bad[(0,) * 6] *= -1
    with pytest.raises(ck.CheckFailure):
        ck.check_corrected_state(bad, ck.ring_adjacency(6), corr, "branch")


@pytest.mark.parametrize("which", [0, 1, 2])
def test_wrong_correction_power_is_rejected(ring_d3, which):
    psi, corr, _ = ring_d3
    powers = [list(p) for p in corr]
    powers[which][1] += 1
    with pytest.raises(ck.CheckFailure):
        ck.check_corrected_state(psi, ck.ring_adjacency(6), powers, "branch")


def test_wrong_probability_is_rejected():
    ck.check_probability(1 / 9, 1 / 9, "branch")
    with pytest.raises(ck.CheckFailure):
        ck.check_probability(1 / 3, 1 / 9, "branch")
    with pytest.raises(ck.CheckFailure):
        ck.check_probability(1 / 9 + 1e-8, 1 / 9, "branch")


def test_engine_report_for_wrong_graph_is_rejected(ring_d3):
    _, _, (trace, report) = ring_d3
    ladder, order = pr.target_graph("ladder", 3)
    wrong = pr.VerificationReport(ladder, order, report.branches)
    with pytest.raises(ck.CheckFailure):
        wl._check_direct("six-ring", (trace, wrong))


def test_fused_chain_checks():
    result = wl._run_fused_chain(2)
    wl._check_fused_chain(result)
    trace, report, fused = result
    out = fused[0][1]
    bad = type(out)(out.success, out.outcome, out.probability, out.register,
                    gm.CorrectionSet(out.correction.x_powers,
                                     tuple((z + 1) % 2 for z in
                                           out.correction.z_powers),
                                     out.correction.fourier_powers),
                    out.max_deviation)
    fused[0][1] = bad
    with pytest.raises(ck.CheckFailure):
        wl._check_fused_chain(result)
    fused[0][1] = type(out)(out.success, out.outcome, 0.5, out.register,
                            out.correction, out.max_deviation)
    with pytest.raises(ck.CheckFailure):
        wl._check_fused_chain(result)


def test_bell_outcomes_split_evenly():
    chain = ck.graph_state(ck.path_adjacency(6), 3)
    probs = [ck.bell_projection(chain, 0, 5, a, b)[0]
             for a in range(3) for b in range(3)]
    assert np.allclose(probs, 1 / 9)


def test_literal_ladder_certificate():
    states, cuts = wl.literal_ladder_certificates()
    assert len(states) == 4 and all(c >= 1 for c in cuts)
    # photons 2 and 5 end up unentangled: rank 1 where the ladder has rank d
    _, order = pr.target_graph("ladder", 2)
    for amps in states:
        psi = np.transpose(amps, order)
        assert ck.schmidt_rank(psi, (2,)) == ck.schmidt_rank(psi, (5,)) == 1
    ladder = ck.graph_state(ck.ladder_adjacency(3), 2)
    assert ck.schmidt_rank(ladder, (2,)) == ck.schmidt_rank(ladder, (5,)) == 2


def test_literal_branch_job_is_checked():
    result = wl._run_literal_branch(1)
    job = wl.search(1, None)(1)[0]
    job.check(result)
    trace, report = result
    res = report.branches[0]
    found = pr.BranchResult(res.outcomes, res.probability,
                            gm.CorrectionSet((0,) * 6, (0,) * 6), 0.0, True)
    with pytest.raises(ck.CheckFailure):
        job.check((trace, pr.VerificationReport(report.graph,
                                                report.photon_order,
                                                (found,))))


def test_certificate_does_not_fire_on_a_correct_ladder():
    result = wl._run_direct("ladder", 2)
    trace, report = result
    psi = np.transpose(trace.branches[0].photons.amps, report.photon_order)
    with pytest.raises(ck.CheckFailure):
        ck.check_no_local_correction(psi, ck.ladder_adjacency(3), "ladder")


def test_dressed_graph_checks():
    rng = np.random.default_rng(7)
    batch = wl.random_batch(rng)[:4]
    result = wl._run_dressed(wl.dress(batch))
    wl._check_dressed(batch, result)
    reg, corr = result[0]
    extra = tuple(1 if f == 0 else f for f in corr.fourier_powers)
    bad = gm.CorrectionSet(corr.x_powers, corr.z_powers, extra)
    with pytest.raises(ck.CheckFailure):
        wl._check_dressed(batch[:1], [(reg, bad)])
    wrong_z = gm.CorrectionSet(corr.x_powers,
                               (corr.z_powers[0] + 1,) + corr.z_powers[1:],
                               corr.fourier_powers)
    with pytest.raises(ck.CheckFailure):
        wl._check_dressed(batch[:1], [(reg, wrong_z)])


def test_fusion_probability_formula():
    assert ck.fusion_success_probability(2) == 0.5
    assert ck.fusion_success_probability(3) == pytest.approx(1 / 6)
    assert ck.fusion_success_probability(4) == pytest.approx(1 / 8)


def test_design_point_checks_reject_a_wrong_probability(tmp_path):
    calls = wl._design_point(2, seed=1)
    rcs, _ = wl._run_point(calls, 2, tmp_path)
    assert rcs == [0] * len(calls)
    wl._check_design_point(2, calls, tmp_path)
    k = next(i for i, c in enumerate(calls) if c[0] == "fusion")
    path = tmp_path / str(k) / "fusion.json"
    rep = json.loads(path.read_text())
    rep["success_probability"] = 0.25
    path.write_text(json.dumps(rep))
    with pytest.raises(ck.CheckFailure):
        wl._check_design_point(2, calls, tmp_path)


def test_spectra_checks_reject_a_missing_level(tmp_path):
    rcs, sweeps = wl._run_point(list(wl.SPECTRA_CALLS), None, tmp_path)
    assert rcs == [0] * len(wl.SPECTRA_CALLS)
    wl._check_spectra(tmp_path, sweeps)
    path = tmp_path / "0" / "spectrum.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    with pytest.raises(ck.CheckFailure):
        wl._check_spectra(tmp_path, sweeps)


def test_tracer_self_times_add_up_and_counts_match():
    import qdonor
    from tracer import Tracer
    original = pr.execute
    tracer = Tracer(qdonor)
    (trace, report), wall = tracer.job(lambda: wl._run_direct("six-ring", 2))
    assert pr.execute is original           # wrappers removed after the job
    assert abs(tracer.self_time_gap()) < 1e-9
    m = tracer.per_round(1)
    assert m["trace.wall_s"] == wall
    assert m["protocols.instructions"] == len(trace.program.instructions)
    assert m["protocols.branches"] == len(trace.branches) == 4
    assert m["graphs.searches"] == m["graphs.search_trials"] == 4
    assert m["graphs.search_hit_ratio"] == 1.0
    assert m["protocols.execute_total_s"] >= m["protocols.execute_s"] > 0
