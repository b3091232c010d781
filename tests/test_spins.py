"""Spin Hamiltonians, spectra, selection rules, closed forms, sweeps."""

import json

import numpy as np
import pytest

from qdonor import cli
from qdonor import spins as sp


@pytest.fixture(scope="module")
def single():
    return sp.SpinParams()


@pytest.fixture(scope="module")
def double():
    return sp.DoubleSpinParams()


@pytest.fixture(scope="module")
def double_spec(double):
    return sp.donor_spectrum(double)


class TestParams:
    def test_defaults_are_the_measured_constants(self, single, double):
        assert single.gamma_n == 5.55
        assert single.gamma_e == 27.97
        assert single.A == 101.52
        assert single.B0 == 1.0
        assert single.I == 3.5
        assert double.A_w == 239.0
        assert double.A_s == 96.0
        assert double.f_q_s == 44.3
        assert double.f_q_w == 35.6

    def test_spin_validation(self):
        with pytest.raises(ValueError):
            sp.SpinParams(I=1.0)
        with pytest.raises(ValueError):
            sp.SpinParams(A=float("nan"))

    def test_strong_weak_ordering_enforced(self):
        with pytest.raises(ValueError):
            sp.DoubleSpinParams(A_s=0.0001)

    def test_json_round_trip(self, single, double):
        fields = {"gamma_n": 5.55, "gamma_e": 27.97, "A": 101.52, "B0": 1.0,
                  "f_q": 0.0, "I": 3.5}
        assert sp.SpinParams.from_dict(json.loads(json.dumps(fields))) \
            == single
        assert sp.DoubleSpinParams.from_dict(json.loads(json.dumps(
            {"base": fields, "A_w": 239.0, "A_s": 96.0, "f_q_w": 35.6,
             "f_q_s": 44.3}))) == double


class TestHamiltonians:
    def test_single_dimension_16(self, single):
        h = sp.build_single_donor_hamiltonian(single)
        assert h.shape == (16, 16)

    def test_double_dimension_128(self, double):
        h = sp.build_double_donor_hamiltonian(double)
        assert h.shape == (128, 128)

    def test_all_couplings_off_gives_zero(self):
        p = sp.SpinParams(gamma_n=0, gamma_e=0, A=0, f_q=0)
        assert np.allclose(sp.build_single_donor_hamiltonian(p), 0)
        p2 = sp.SpinParams(B0=0, A=0, f_q=0)
        assert np.allclose(sp.build_single_donor_hamiltonian(p2), 0)
        dp = sp.DoubleSpinParams(
            base=sp.SpinParams(gamma_n=0, gamma_e=0, A=0, B0=0),
            A_w=0, A_s=1e-9, f_q_w=0, f_q_s=0)
        assert np.allclose(sp.build_double_donor_hamiltonian(dp), 0,
                           atol=1e-8)

    def test_pure_zeeman_electron_gap(self):
        # A = f_q = 0: the electron-flip gap at fixed m_I is gamma_e B0
        p = sp.SpinParams(A=0.0, f_q=0.0)
        spec = sp.donor_spectrum(p)
        gap = spec.energy_of("up:+7/2") - spec.energy_of("dn:+7/2")
        assert gap == pytest.approx(27.97e3, rel=1e-12)

    @pytest.mark.parametrize("builder,params", [
        (sp.build_single_donor_hamiltonian, sp.SpinParams()),
        (sp.build_double_donor_hamiltonian, sp.DoubleSpinParams()),
    ])
    def test_hermiticity(self, builder, params):
        h = builder(params)
        scale = np.abs(h).max()
        assert np.abs(h - h.conj().T).max() <= 1e-12 * scale

    def test_trace_equals_eigenvalue_sum(self, double):
        h = sp.build_double_donor_hamiltonian(double)
        vals = np.linalg.eigvalsh(h)
        assert vals.sum() == pytest.approx(np.trace(h).real,
                                           rel=1e-9, abs=1e-6)

    def test_hyperfine_hierarchy_in_esr_lines(self, double_spec, double):
        # dense-eigensolver oracle: ESR frequencies split into 8 clusters
        # spaced by the strong coupling, each with fine structure set by the
        # weak coupling
        esr = sp.enumerate_transitions(double_spec, "esr")
        freqs = {}
        for frm, to, f in esr:
            strong = frm.split(":")[1]
            freqs.setdefault(strong, []).append(f)
        assert len(freqs) == 8
        centers = sorted(np.mean(v) for v in freqs.values())
        steps = np.diff(centers)
        assert np.allclose(steps, double.A_s, rtol=0.02)
        for v in freqs.values():
            spread = max(v) - min(v)
            assert spread == pytest.approx(7 * double.A_w_mhz, rel=0.05)


class TestSpectrum:
    def test_diagonal_matrix(self):
        h = np.diag([3.0, 1.0, 2.0])
        spec = sp.spectrum(h, (("a", "b", "c"),))
        assert spec.energies_mhz == (1.0, 2.0, 3.0)
        assert spec.labels == ("b", "c", "a")

    def test_sixteen_levels_split_into_manifolds(self, single):
        spec = sp.donor_spectrum(single)
        arrows = [lab.split(":")[0] for lab in spec.labels]
        assert arrows.count("dn") == 8
        assert arrows.count("up") == 8

    def test_ambiguous_labeling_raises(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(sp.LabelingAmbiguityError):
            sp.spectrum(h, (("up", "dn"),))

    def test_dominance_floor_enforced(self):
        h = np.array([[0.0, 0.2], [0.2, 1.0]])
        spec = sp.spectrum(h, (("up", "dn"),))
        assert spec.labels == ("up", "dn")
        # off-diagonal 0.5 leaves each eigenstate a weight of 0.854
        with pytest.raises(sp.LabelingAmbiguityError):
            sp.spectrum(np.array([[0.0, 0.5], [0.5, 1.0]]), (("up", "dn"),))


class TestTransitions:
    def test_single_donor_esr_count(self, single):
        spec = sp.donor_spectrum(single)
        assert len(sp.enumerate_transitions(spec, "esr")) == 8

    def test_double_donor_esr_count_64(self, double_spec):
        assert len(sp.enumerate_transitions(double_spec, "esr")) == 64

    def test_strong_edsr_with_weak_fixed_is_7(self, double_spec):
        conv = sp.SpectatorConvention(target=1, policy="fixed")
        assert len(sp.enumerate_transitions(double_spec, "edsr", conv)) == 7

    def test_weak_edsr_strong_resolved_is_56(self, double_spec):
        conv = sp.SpectatorConvention(target=2, policy="resolved")
        assert len(sp.enumerate_transitions(double_spec, "edsr", conv)) == 56

    def test_literal_nmr_count_exceeds_esr(self, double_spec):
        # both-nuclei single-quantum moves: 2 * (7 * 8) * 2 = 224 entries,
        # recorded next to the 64 ESR lines rather than forced to agree
        nmr = sp.enumerate_transitions(double_spec, "nmr")
        assert len(nmr) == 224
        assert len(nmr) > 64

    def test_frequencies_positive_and_unique_pairs(self, double_spec):
        tr = sp.enumerate_transitions(double_spec, "esr")
        assert all(f > 0 for _, _, f in tr)
        pairs = {frozenset((a, b)) for a, b, _ in tr}
        assert len(pairs) == len(tr)

    @pytest.mark.parametrize("I", [0.5, 2.5, 4.5])
    def test_each_allowed_pair_listed_once(self, I):
        # reference: a walk over every level pair, keeping those the
        # selection rules allow
        conventions = [None, sp.SpectatorConvention(1, "fixed"),
                       sp.SpectatorConvention(1, "resolved")]
        double_conventions = conventions + [
            sp.SpectatorConvention(2, "fixed"),
            sp.SpectatorConvention(2, "resolved")]
        base = sp.SpinParams(I=I)
        for params, convs in ((base, conventions),
                              (sp.DoubleSpinParams(base=base),
                               double_conventions)):
            spec = sp.donor_spectrum(params)
            for kind in ("esr", "nmr", "edsr"):
                for conv in convs:
                    got = sp.enumerate_transitions(spec, kind, conv)
                    assert got == _allowed_pairs(spec, kind, conv)

    def test_unknown_kind_rejected(self, double_spec):
        with pytest.raises(ValueError):
            sp.enumerate_transitions(double_spec, "optical")

    def test_csv_format(self, tmp_path):
        # the CLI owns the CSV format; its defaults are SpinParams()
        assert cli.main(["spectrum", "--device", "single", "--kind", "esr",
                         "--output", str(tmp_path)]) == 0
        csv = (tmp_path / "transitions.csv").read_text()
        header, first = csv.splitlines()[1:3]
        assert header == "from_label,to_label,frequency_MHz"
        assert len(first.split(",")) == 3


def _allowed_pairs(spec, kind, conv):
    n = len(spec.structure) - 1
    targets = [conv.target] if conv else range(1, n + 1)
    conv = conv or sp.SpectatorConvention()
    out = []
    for j, b in enumerate(spec.levels):
        for i, a in enumerate(spec.levels[:j]):
            diff = [k for k in range(n + 1) if a[k] != b[k]]
            if kind == "esr":
                ok = diff == [0]
            elif kind == "nmr":
                ok = (len(diff) == 1 and diff[0] in targets
                      and abs(a[diff[0]] - b[diff[0]]) == 1)
            else:
                t = conv.target
                up, dn = (a, b) if a[0] == 0 else (b, a)
                ok = (diff == [0, t] and dn[t] == up[t] + 1
                      and (conv.policy == "resolved" or all(
                          a[s] == sp.SPECTATOR_LEVEL
                          for s in range(1, n + 1) if s != t)))
            if ok:
                out.append((spec.labels[j], spec.labels[i],
                            abs(spec.energies_mhz[j] - spec.energies_mhz[i])))
    return tuple(sorted(out, key=lambda e: (e[2], e[0], e[1])))


class TestClosedForm:
    def test_collapses_to_zeeman_sum(self):
        p = sp.SpinParams(A=0.0, f_q=0.0)
        for m in (3.5, 0.5, -2.5):
            assert sp.edsr_frequency_closed_form(m, p) == pytest.approx(
                1.0 * (5.55 + 27.97e3))

    def test_out_of_range_m(self, single):
        with pytest.raises(ValueError):
            sp.edsr_frequency_closed_form(-3.5, single)  # no m-1 partner
        with pytest.raises(ValueError):
            sp.edsr_frequency_closed_form(4.5, single)

    def test_matches_diagonalization_within_half_percent(self, single):
        rep = sp.edsr_comparison(single)
        assert len(rep["rows"]) == 7
        for row in rep["rows"]:
            assert row["relative_error"] < 0.005

    def test_cavity_reference_reported_alongside(self, single):
        rep = sp.edsr_comparison(single)
        assert rep["cavity_reference_ghz"] == 28.41
        top = rep["rows"][0]
        assert top["m_I"] == "+7/2"
        # the quoted cavity frequency sits ~130 MHz above the closed form at
        # B0 = 1 T exactly; both are reported, nothing is tuned
        assert abs(top["closed_form_mhz"] - 28410.0) > 50.0


class TestSensitivity:
    def test_zero_perturbation_zero_shift(self, single):
        out = sp.sensitivity_sweep(single, [("B0", 0.0, "absolute")], "esr")
        assert out["perturbed"][0]["max_abs_shift_mhz"] == 0.0

    def test_millitesla_shift_is_first_order_zeeman(self, single):
        out = sp.sensitivity_sweep(single, [("B0", 1e-3, "absolute")], "esr")
        shift = out["perturbed"][0]["max_abs_shift_mhz"]
        assert shift == pytest.approx(27.97, rel=1e-3)

    def test_quadrupole_sweep_spans_tens_of_khz(self, single):
        out = sp.sensitivity_sweep(
            single, [("f_q", 4.0, "absolute"), ("f_q", 50.0, "absolute")],
            "nmr")
        small = out["perturbed"][0]["max_abs_shift_mhz"]
        large = out["perturbed"][1]["max_abs_shift_mhz"]
        assert 0.001 < small < 0.10
        assert 0.01 < large < 0.50
        assert large > small

    def test_quadrupole_leaves_pure_zeeman_electron_gap(self):
        # with A = 0 the ESR line must stay put while f_q moves
        p = sp.SpinParams(A=0.0, f_q=0.0)
        out = sp.sensitivity_sweep(p, [("f_q", 50.0, "absolute")], "esr")
        assert out["perturbed"][0]["max_abs_shift_mhz"] == pytest.approx(
            0.0, abs=1e-9)

    def test_kind_is_case_insensitive(self, single):
        perts = [("B0", 1e-3, "absolute")]
        assert sp.sensitivity_sweep(single, perts, "ESR") == \
            sp.sensitivity_sweep(single, perts, "esr")

    def test_unknown_parameter_rejected(self, single):
        with pytest.raises(ValueError):
            sp.sensitivity_sweep(single, [("A_s", 1.0, "absolute")], "esr")

    @pytest.mark.parametrize("mode", ["relativ", "Absolute", "", None])
    def test_unknown_mode_rejected(self, single, mode):
        with pytest.raises(ValueError, match=f"mode {mode!r}"):
            sp.sensitivity_sweep(single, [("B0", 1e-3, mode)], "esr")

    def test_double_donor_sweep(self, double):
        out = sp.sensitivity_sweep(
            double, [("A_s", 5.0, "absolute")], "esr")
        assert out["perturbed"][0]["max_abs_shift_mhz"] > 1.0

    def test_default_perturbations_shape(self):
        assert all(len(p) == 3 for p in sp.default_perturbations(False))
        assert all(len(p) == 3 for p in sp.default_perturbations(double=True))
