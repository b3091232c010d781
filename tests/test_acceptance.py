"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 3 checks the worked single-emitter chain expansions term
by term.  The two-photon expansion ``PSI7`` is used as printed.  The printed
three-photon expansion ``THIRD_CYCLE_PRINTED`` is a misprint, and the test
proves it:

* Read as a sign function f of (donor, p1, p2, p3), the print has GF(2)
  degree 4.  A real, equal-magnitude state sum (-1)^f(x) |x> is a stabilizer
  state only if f has degree <= 2 (Dehaene & De Moor, PRA 68, 042318, 2003).
* At d=2 every pulse of the sequence is a Clifford gate: Hadamard Fourier,
  conditional flips, level swaps and emission.  Reading conventions (column
  order, level relabelling, a local Fourier) are Clifford too and keep the
  stabilizer property, so no reading of the sequence gives the print.

The engine is checked instead against ``THIRD_CYCLE_ERRATUM``, derived from
``PSI7`` by one more emission cycle without the engine.  The print stays in
the file verbatim and its defect is asserted, as criterion 5 does for its
stray 0.055 quote.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from qdonor import budget as bg
from qdonor import cli
from qdonor import fusion as fu
from qdonor import graphs as gm
from qdonor import protocols as pr
from qdonor import statevec as sv
from qdonor import spins as sp


def verdict(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_graph_state_algebra():
    with Timer() as t:
        reg = gm.build_graph_state(gm.make_linear(3, 2))
        amps = reg.amps.reshape(-1) * np.sqrt(8)
        expected = np.array([1, 1, 1, -1, 1, 1, -1, 1], dtype=complex)
        err = np.max(np.abs(amps - expected))
    ok = err <= 1e-10 and t.elapsed < 1.0
    assert verdict(1, ok, f"three-vertex line signs, max err {err:.1e}, "
                          f"{t.elapsed:.2f}s")


def test_criterion_2_single_photon_w_state():
    with Timer() as t:
        trace = pr.execute(pr.compile_linear(3, 1), enumerate_all=True)
        graph, order = pr.target_graph("single-photon", 3)
        rep = pr.verify_against_target(trace, graph, order)
        report = cli._single_photon_report(3, trace, rep)
        fidelities = [row["fidelity"] for row in report["branches"]
                      if row["fidelity"] is not None]
        worst = min(fidelities, default=0.0)
    ok = (report["passed"] and len(fidelities) == 3 and worst >= 1 - 1e-10
          and t.elapsed < 1.0)
    assert verdict(2, ok, f"every donor outcome collapses to the uniform "
                          f"three-bin state, worst fidelity {worst:.12f}, "
                          f"{t.elapsed:.2f}s")


# Appendix-style worked expansions for the qubit chain: donor branch ->
# {photon level string: sign}, photon columns in emission order, string
# character = occupied time-bin index.
PSI7 = {
    0: {"10": 1, "00": 1, "11": 1, "01": -1},
    1: {"11": 1, "01": -1, "10": -1, "00": -1},
}
THIRD_CYCLE_PRINTED = {
    0: {"101": 1, "001": 1, "111": 1, "011": -1,
        "110": 1, "010": -1, "100": -1, "000": -1},
    1: {"000": 1, "010": 1, "100": 1, "110": -1,
        "101": -1, "001": -1, "111": -1, "011": -1},
}


# Erratum, derived from PSI7 alone.  The n=3 sequence is the n=2 one plus one
# emission block and a Fourier: at d=2 the block maps donor level k to donor
# 1-k with photon 3 in bin k, and the Fourier adds (-1)^(m(1-k)) at donor
# level m, so amp(m, p1p2p3) = PSI7[p3][p1p2] * (-1)^(m(1-p3)).  The emitter
# stays attached to the end of the chain (Lindner & Rudolph, PRL 103, 113602,
# 2009): the signs are the line p1-p2-p3-donor plus local Z.
THIRD_CYCLE_ERRATUM = {
    0: {"000": 1, "001": -1, "010": -1, "011": -1,
        "100": 1, "101": -1, "110": 1, "111": 1},
    1: {"000": -1, "001": -1, "010": 1, "011": -1,
        "100": -1, "101": -1, "110": -1, "111": 1},
}


def _emit_and_fourier(table):
    """One more d=2 emission block and the final Fourier, on signs only."""
    return {m: {s + str(k): sign * (-1) ** (m * (1 - k))
                for k in (0, 1) for s, sign in table[k].items()}
            for m in (0, 1)}


def _sign_monomials(table):
    """Monomials of the GF(2) algebraic normal form of a +-1 expansion.

    Variable 0 is the donor branch, variable i >= 1 is photon i; a monomial
    is the tuple of its variable indices.  The empty monomial only carries
    the global sign.
    """
    n = 1 + len(next(iter(table[0])))
    assert sorted(table) == [0, 1] and all(
        len(terms) == 2 ** (n - 1) for terms in table.values())
    f = np.zeros(2 ** n, dtype=np.uint8)
    for branch, terms in table.items():
        for s, sign in terms.items():
            bits = (branch,) + tuple(int(c) for c in s)
            f[sum(b << i for i, b in enumerate(bits))] = sign < 0
    for i in range(n):  # Moebius transform: truth table -> ANF coefficients
        for x in range(2 ** n):
            if x >> i & 1:
                f[x] ^= f[x ^ (1 << i)]
    return {tuple(i for i in range(n) if x >> i & 1)
            for x in np.flatnonzero(f)}


def _expansion_vector(table, n):
    amps = np.zeros((2, 2) + (2,) * n, dtype=complex)
    for branch, terms in table.items():
        for s, sign in terms.items():
            amps[(branch, sv.ELECTRON_DOWN) + tuple(int(c) for c in s)] = sign
    return amps.reshape(-1) / np.linalg.norm(amps)


def _term_by_term_residual(n, table):
    trace = pr.execute(pr.compile_linear(2, n), enumerate_all=True)
    state = trace.final_register.amps.reshape(-1)
    target = _expansion_vector(table, n)
    scale = np.vdot(target, state)
    return float(np.max(np.abs(state - scale * target)))


def test_criterion_3_two_photon_expansion():
    with Timer() as t:
        resid = _term_by_term_residual(2, PSI7)
    ok = resid <= 1e-10 and t.elapsed < 1.0
    assert verdict("3 (n=2)", ok,
                   f"two-photon pre-measurement expansion term-by-term, "
                   f"residual {resid:.1e}, {t.elapsed:.2f}s")


def test_criterion_3_three_photon_expansion_as_printed():
    # The printed table is kept verbatim and shown unreachable (sign degree
    # above 2); the engine must match the erratum that PSI7 implies.
    with Timer() as t:
        derivation_holds = _emit_and_fourier(PSI7) == THIRD_CYCLE_ERRATUM
        resid = _term_by_term_residual(3, THIRD_CYCLE_ERRATUM)
        printed = _sign_monomials(THIRD_CYCLE_PRINTED)
        erratum = _sign_monomials(THIRD_CYCLE_ERRATUM)
    printed_degree = max(map(len, printed))
    erratum_degree = max(map(len, erratum))
    edges = sorted(m for m in erratum if len(m) == 2)
    ok = (derivation_holds and resid <= 1e-10
          and printed_degree > 2 and erratum_degree == 2
          and edges == [(0, 3), (1, 2), (2, 3)])
    assert verdict("3 (n=3)", ok,
                   f"three-photon expansion term-by-term against the "
                   f"erratum derived from the two-photon one (derivation "
                   f"{'holds' if derivation_holds else 'broken'}), residual "
                   f"{resid:.1e}; printed table has sign degree "
                   f"{printed_degree}, a stabilizer state needs <= 2, "
                   f"flagged as a misprint; erratum degree {erratum_degree}, "
                   f"edges {edges}, {t.elapsed:.2f}s")


def test_criterion_4_stabilizer_suite():
    with Timer() as t:
        failures = []
        for d in (2, 3, 4):
            cases = [
                ("linear", pr.compile_linear(d, 6),
                 *pr.target_graph("linear", d, 6)),
                ("six-ring", pr.compile_six_ring(d),
                 *pr.target_graph("six-ring", d)),
                ("ladder", pr.compile_ladder(d),
                 *pr.target_graph("ladder", d)),
            ]
            for name, prog, graph, order in cases:
                trace = pr.execute(prog, enumerate_all=True)
                rep = pr.verify_against_target(trace, graph, order)
                if not rep.passed:
                    failures.append((name, d))
    ok = not failures and t.elapsed < 300.0
    assert verdict(4, ok, f"line/ring-6/ladder at d in {{2,3,4}}, every "
                          f"donor outcome, failures={failures}, "
                          f"{t.elapsed:.1f}s")


def test_criterion_5_fusion_probabilities():
    reference = {3: 0.1667, 4: 0.125, 5: 0.0667, 6: 0.0556, 7: 0.0357}
    quoted = {4: 0.125, 5: 0.066, 6: 0.055, 7: 0.0357}
    errs = {d: abs(fu.success_probability(d) - v)
            for d, v in reference.items()}
    ok = all(e <= 0.001 for e in errs.values())
    # the two-decimal 0.16 quoted at d=3 is 1/6 truncated
    ok = ok and int(fu.success_probability(3) * 100) == 16
    ok = ok and all(abs(fu.success_probability(d) - q) <= 0.001
                    for d, q in quoted.items())
    # the 0.055-for-d=4 figure conflicts with the even-d formula and is
    # documented as inconsistent, never matched
    ok = ok and abs(fu.success_probability(4) - 0.055) > 0.001
    assert verdict(5, ok, f"formula values within 0.001 of references, "
                          f"max err {max(errs.values()):.2e}; d=4 stray "
                          f"quote flagged inconsistent")


def test_criterion_6_chain_fusion_to_ring():
    with Timer() as t:
        results = {}
        for d in (2, 3):
            reg = gm.build_graph_state(gm.make_linear(8, d))
            hits = 0
            for a in range(d):
                for b in range(d):
                    out = fu.fuse_chain_ends(reg, outcome=(a, b))
                    hits += bool(out.success)
            results[d] = hits
    ok = all(h >= 1 for h in results.values()) and t.elapsed < 120.0
    assert verdict(6, ok, f"eight-chain ends fused into a verified six-ring; "
                          f"verifying Bell outcomes per d: {results}, "
                          f"{t.elapsed:.1f}s")


def test_criterion_7_loss_model_rows():
    hi = bg.loss_success(bg.CavityParams(q_i=1e6))
    lo = bg.loss_success(bg.CavityParams(q_i=1e5))
    checks = [
        abs(hi.loss - 0.0189) <= 0.0005,
        abs(hi.success - 0.981) <= 0.001,
        abs(hi.success_db_magnitude - 0.08) <= 0.02,
        abs(lo.loss - 0.15) <= 0.005,
        abs(lo.success - 0.845) <= 0.006,
        abs(lo.success_db_magnitude - 0.7) <= 0.03,
    ]
    ok = all(checks)
    assert verdict(7, ok, f"quality-factor rows: loss {hi.loss:.4f}/"
                          f"{lo.loss:.4f}, success {hi.success:.4f}/"
                          f"{lo.success:.4f}, |dB| "
                          f"{hi.success_db_magnitude:.3f}/"
                          f"{lo.success_db_magnitude:.3f}")


def test_criterion_8_spectrum_counts():
    with Timer() as t:
        p = sp.SpinParams()
        dp = sp.DoubleSpinParams()
        dim16 = sp.build_single_donor_hamiltonian(p).shape[0]
        dim128 = sp.build_double_donor_hamiltonian(dp).shape[0]
        spec = sp.donor_spectrum(dp)
        n_esr = len(sp.enumerate_transitions(spec, "esr"))
        n_strong = len(sp.enumerate_transitions(
            spec, "edsr", sp.SpectatorConvention(1, "fixed")))
        n_weak = len(sp.enumerate_transitions(
            spec, "edsr", sp.SpectatorConvention(2, "resolved")))
    ok = (dim16, dim128, n_esr, n_strong, n_weak) == (16, 128, 64, 7, 56) \
        and t.elapsed < 10.0
    assert verdict(8, ok, f"dims {dim16}/{dim128}, ESR {n_esr}, "
                          f"strong EDSR {n_strong}, weak EDSR {n_weak}, "
                          f"{t.elapsed:.2f}s")


def test_criterion_9_edsr_closed_form():
    rep = sp.edsr_comparison(sp.SpinParams())
    worst = max(r["relative_error"] for r in rep["rows"])
    ok = worst < 0.005 and rep["cavity_reference_ghz"] == 28.41
    assert verdict(9, ok, f"closed form vs diagonalization across all m_I, "
                          f"worst {worst:.2e}; quoted "
                          f"{rep['cavity_reference_ghz']} GHz shown alongside")


def test_criterion_10_budget_arithmetic():
    table = bg.single_donor_table()
    single = bg.timing_fidelity_budget(["esr"], table)
    ok = single.duration_us == (1.0, 1.0, 1.0) and \
        abs(single.fidelity - 0.995) < 1e-12
    rng = np.random.default_rng(1)
    sb2 = bg.sb2_table()
    def random_ops(k):
        ops = []
        for _ in range(k):
            c = rng.integers(4)
            if c == 0:
                ops.append(pr.fourier(0))
            elif c == 1:
                ops.append(pr.permute(0, 0, int(rng.integers(1, 4))))
            elif c == 2:
                ops.append(pr.edsr(0, 0))
            else:
                ops.append(pr.cz(0, 1))
        return ops
    for _ in range(100):
        a, b = random_ops(int(rng.integers(1, 6))), random_ops(
            int(rng.integers(1, 6)))
        ra = bg.timing_fidelity_budget(a, sb2)
        rb = bg.timing_fidelity_budget(b, sb2)
        rab = bg.timing_fidelity_budget(a + b, sb2)
        add = all(abs(rab.duration_us[k] - ra.duration_us[k]
                      - rb.duration_us[k]) < 1e-9 for k in range(3))
        mult = abs(rab.fidelity - ra.fidelity * rb.fidelity) < 1e-12
        ok = ok and add and mult
    assert verdict(10, ok, "one ESR pulse budgets 1 us at 0.995; duration "
                           "additive and fidelity multiplicative over 100 "
                           "random concatenations")


def test_criterion_11_monte_carlo_loss():
    with Timer() as t:
        outs = [bg.monte_carlo_mode_loss(6, p, 10**5, master_seed=31 + i)
                for i, p in enumerate((0.01, 0.05, 0.10))]
    ok = all(o["within_3_sigma"] for o in outs) and t.elapsed < 30.0
    detail = ", ".join(f"p={o['p_loss']}: {o['survival_rate']:.4f} vs "
                       f"{o['expected_rate']:.4f}" for o in outs)
    assert verdict(11, ok, f"six-photon survival within 3 sigma ({detail}), "
                           f"{t.elapsed:.1f}s")


def test_criterion_12_cli_determinism(tmp_path):
    commands = [
        ("spectrum", "--device", "double", "--kind", "esr"),
        ("protocol", "verify", "--protocol", "six-ring", "--d", "2"),
        ("fusion", "--d", "3", "--trials", "5000", "--seed", "12"),
        ("budget", "--sweep", "Qi=1e5:1e6:log10"),
    ]
    ok = True
    for k, argv in enumerate(commands):
        a = tmp_path / f"a{k}"
        b = tmp_path / f"b{k}"
        assert cli.main([*argv, "--output", str(a)]) == 0
        assert cli.main([*argv, "--output", str(b)]) == 0
        for pa in sorted(a.glob("*")):
            pb = b / pa.name
            ok = ok and pa.read_bytes() == pb.read_bytes()
    assert verdict(12, ok, "reruns of spectrum/protocol/fusion/budget "
                           "produce byte-identical outputs")
