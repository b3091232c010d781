"""Loss arithmetic, emission timing, program budgets, Monte Carlo loss."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdonor import budget as bg
from qdonor import protocols as pr


class TestLossSuccess:
    def test_high_q_example_row(self):
        rep = bg.loss_success(bg.CavityParams(q_i=1e6))
        assert rep.loss == pytest.approx(0.0189, abs=0.0005)
        assert rep.success == pytest.approx(0.981, abs=0.001)
        assert rep.success_db_magnitude == pytest.approx(0.08, abs=0.02)
        assert rep.success_db < 0  # signed value kept

    def test_low_q_example_row(self):
        rep = bg.loss_success(bg.CavityParams(q_i=1e5))
        assert rep.loss == pytest.approx(0.15, abs=0.005)
        assert rep.success == pytest.approx(0.845, abs=0.006)
        assert rep.success_db_magnitude == pytest.approx(0.7, abs=0.03)

    def test_lossless_cavity_limit(self):
        rep = bg.loss_success(bg.CavityParams(q_i=1e12))
        assert rep.loss < 1e-5
        assert rep.success == pytest.approx(1.0, abs=1e-5)
        assert rep.success_db_magnitude == pytest.approx(0.0, abs=1e-4)

    def test_rates_that_round_to_their_bound(self):
        # kappa_i is 1e-296-small: g kappa_i / (g + kappa_i) rounds to
        # kappa_i itself, which is no error
        rep = bg.loss_success(bg.CavityParams(q_i=1e300))
        assert rep.loss < 1e-290
        assert rep.success == 1.0

    @pytest.mark.parametrize("params,rate", [
        ({"omega_c_ghz": 1e306}, "kappa_i_mhz"),
        ({"q_i": 1e-320}, "kappa_i_mhz"),
        ({"q_c": 1e-320}, "kappa_c_mhz"),
        ({"g_s_mhz": 1e308}, "gamma_port_mhz"),
    ])
    def test_overflowing_rate_is_rejected(self, params, rate):
        with pytest.raises(ValueError,
                           match=f"derived rate {rate} is not finite"):
            bg.loss_success(bg.CavityParams(**params))

    @pytest.mark.parametrize("params", [
        {"q_c": 1e300},            # the port rate vanishes next to the bath
        {"omega_c_ghz": 1e-323},   # both rates underflow to 0
    ])
    def test_success_that_rounds_to_zero_is_rejected(self, params):
        with pytest.raises(ValueError, match="photon success rounds to 0 "
                           "for omega_c_ghz=.*, g_s_mhz=.*, q_i=.*, q_c="):
            bg.loss_success(bg.CavityParams(**params))

    def test_loss_plus_success_is_one_exactly(self):
        for qi in np.geomspace(1e4, 1e8, 9):
            for qc in np.geomspace(1e3, 1e6, 7):
                rep = bg.loss_success(bg.CavityParams(q_i=qi, q_c=qc))
                assert rep.loss + rep.success == 1.0

    def test_monotone_in_quality_factors(self):
        losses_qi = [bg.loss_success(bg.CavityParams(q_i=qi)).loss
                     for qi in np.geomspace(1e4, 1e8, 9)]
        assert all(a > b for a, b in zip(losses_qi, losses_qi[1:]))
        losses_qc = [bg.loss_success(bg.CavityParams(q_c=qc)).loss
                     for qc in np.geomspace(1e3, 1e6, 7)]
        assert all(a < b for a, b in zip(losses_qc, losses_qc[1:]))

    def test_rate_invariants(self):
        c = bg.CavityParams()
        rep = bg.loss_success(c)
        assert rep.gamma_bath_mhz < min(c.g_s_mhz, rep.kappa_i_mhz)
        assert rep.gamma_port_mhz < min(c.g_s_mhz, rep.kappa_c_mhz)

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            bg.CavityParams(g_s_mhz=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["omega_c_ghz", "g_s_mhz", "q_i", "q_c"])
    def test_non_finite_validation(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and "
                                             "finite"):
            bg.CavityParams(**{name: value})


class TestEmissionTime:
    def test_quoted_conversion(self):
        assert bg.emission_time(3.0) * 1000 == pytest.approx(1000 / 3,
                                                             rel=1e-12)

    def test_inverse_proportionality(self):
        assert bg.emission_time(6.0) == pytest.approx(
            bg.emission_time(3.0) / 2)

    def test_rate_beats_dephasing_by_three_orders(self):
        rate_hz = 3e6
        dephasing_hz = 1 / 510e-6
        assert 1e3 <= rate_hz / dephasing_hz < 1e4

    def test_positive_coupling_required(self):
        with pytest.raises(ValueError):
            bg.emission_time(0.0)


class TestOperationTables:
    def test_single_donor_rows(self):
        t = bg.single_donor_table()
        assert t.row("esr").fidelity == 0.995
        assert t.row("esr").duration_us == (1.0, 1.0)
        assert t.row("edsr").duration_us == (8.5, 8.5)
        assert t.row("nmr").fidelity == 0.998
        assert t.row("permutation_largest").fidelity == 0.915
        assert t.row("measure").duration_us == (10000.0, 100000.0)
        assert t.coherence_us["electron_T2_hahn"] == 510.0
        assert t.coherence_us["electron_T2_star"] == 11.06
        assert t.coherence_us["nuclear_T2_hahn"] == 247.0
        assert any("T2*" in note for note in t.notes)

    def test_molecule_overrides(self):
        t = bg.sb2_table()
        assert t.row("cz").fidelity is None
        assert t.row("cz").duration_us == (3.0, 3.0)
        assert t.row("measure").fidelity == 0.90
        assert t.row("measure").duration_us == (1000.0, 1000.0)
        assert t.coherence_us["electron_T2"] == 6.3
        assert t.coherence_us["nuclear_T2"] == 2.0

    def test_json_round_trip(self):
        t = bg.sb2_table()
        back = bg.OperationTable.from_dict(json.loads(json.dumps(t.to_dict())))
        assert back.rows == t.rows
        assert back.coherence_us == t.coherence_us

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_json_round_trip_is_exact(self, data):
        times = st.floats(0, 1e6)
        names = st.text(max_size=8)
        rows = {}
        for key in data.draw(st.lists(names, max_size=5, unique=True)):
            lo, hi = sorted(data.draw(st.tuples(times, times)))
            fid = data.draw(st.none() | st.floats(0, 1, exclude_min=True))
            rows[key] = bg.OperationRow(fid, (lo, hi))
        table = bg.OperationTable(
            data.draw(names), rows,
            data.draw(st.dictionaries(
                names, st.none() | st.floats(0, 1e6, exclude_min=True),
                max_size=4)),
            tuple(data.draw(st.lists(names, max_size=3))))
        text = json.dumps(table.to_dict())
        back = bg.OperationTable.from_dict(json.loads(text))
        assert back == table
        assert json.dumps(back.to_dict()) == text


class TestTimingBudget:
    def test_single_esr_pulse(self):
        rep = bg.timing_fidelity_budget(["esr"], bg.single_donor_table())
        assert rep.duration_us == (1.0, 1.0, 1.0)
        assert rep.fidelity == pytest.approx(0.995)

    def test_empty_program(self):
        rep = bg.timing_fidelity_budget([], bg.single_donor_table())
        assert rep.duration_us == (0.0, 0.0, 0.0)
        assert rep.fidelity == 1.0

    @pytest.mark.parametrize("rows,summed", [
        ([(1e308, 1e308)] * 2, "min"),
        ([(0.0, 1e308)] * 2, "max"),
        ([(1e308, 1e308)], "mid"),
    ])
    def test_overflowing_sum_is_rejected(self, rows, summed):
        # every row is finite; the program's sum is not
        table = bg.OperationTable("huge", {f"r{k}": bg.OperationRow(1.0, dur)
                                           for k, dur in enumerate(rows)}, {})
        with pytest.raises(ValueError,
                           match=f"summed {summed} duration is not finite"):
            bg.timing_fidelity_budget(list(table.rows), table)

    def test_overflowing_coherence_ratio_is_rejected(self):
        table = bg.OperationTable("tiny-t2", {"esr": bg.OperationRow(
            1.0, (100.0, 100.0))}, {"electron_T2": 1e-307})
        with pytest.raises(ValueError,
                           match="coherence ratio electron_T2 is not finite"):
            bg.timing_fidelity_budget(["esr"], table)

    def test_linear_budget_regression(self):
        # arithmetic oracle over the instruction list and the table rows:
        # 3 fouriers, 6 EDSR pulses, 6 emissions at t_e = 1/3 us, 6 NMR
        # hops (0<->1 once and 0<->2 twice per cycle), 1 measurement
        prog = pr.compile_linear(3, 2)
        rep = bg.timing_fidelity_budget(prog, bg.single_donor_table())
        mid = 3 * 100 + 6 * 8.5 + 6 * (1 / 3.0) + 6 * 50 + 55000
        assert rep.duration_us[1] == pytest.approx(mid)
        fid = 0.998**3 * 0.995**6 * 0.998**6 * 0.99
        assert rep.fidelity == pytest.approx(fid, rel=1e-12)
        assert rep.duration_us[0] == pytest.approx(mid - 45000)
        assert rep.duration_us[2] == pytest.approx(mid + 45000)

    def test_permutation_cost_scales_with_distance(self):
        t = bg.single_donor_table()
        near = bg.timing_fidelity_budget([pr.permute(0, 0, 1)], t)
        far = bg.timing_fidelity_budget([pr.permute(0, 0, 3)], t)
        assert far.duration_us[1] == pytest.approx(3 * near.duration_us[1])
        assert far.fidelity == pytest.approx(near.fidelity**3)

    def test_concatenation_additivity_and_multiplicativity(self):
        # one hundred random program pairs
        rng = np.random.default_rng(2024)
        table = bg.sb2_table()
        kinds = ["fourier", "permute", "edsr", "emit", "cz", "idle"]
        def random_ops(k):
            ops = []
            for _ in range(k):
                kind = kinds[rng.integers(len(kinds))]
                if kind == "fourier":
                    ops.append(pr.fourier(0))
                elif kind == "permute":
                    ops.append(pr.permute(0, 0, int(rng.integers(1, 4))))
                elif kind == "edsr":
                    ops.append(pr.edsr(0, 0))
                elif kind == "emit":
                    ops.append(pr.emit(0, 0, 0))
                elif kind == "cz":
                    ops.append(pr.cz(0, 1))
                else:
                    ops.append(pr.idle(0, float(rng.uniform(0, 5))))
            return ops
        for _ in range(100):
            a = random_ops(int(rng.integers(1, 8)))
            b = random_ops(int(rng.integers(1, 8)))
            ra = bg.timing_fidelity_budget(a, table)
            rb = bg.timing_fidelity_budget(b, table)
            rab = bg.timing_fidelity_budget(a + b, table)
            for k in range(3):
                assert rab.duration_us[k] == pytest.approx(
                    ra.duration_us[k] + rb.duration_us[k], rel=1e-12)
            assert rab.fidelity == pytest.approx(ra.fidelity * rb.fidelity,
                                                 rel=1e-12)

    def test_unmapped_kind_rejected(self):
        # the single-donor table has no CZ row
        with pytest.raises(ValueError, match="cz"):
            bg.timing_fidelity_budget([pr.cz(0, 1)], bg.single_donor_table())

    def test_coherence_flags(self):
        prog = pr.compile_linear(2, 2)
        rep = bg.timing_fidelity_budget(prog, bg.single_donor_table())
        # measurement dominates: tens of ms against sub-ms coherence
        assert any("electron_T2_hahn" in f for f in rep.flags)
        assert rep.coherence_ratios["electron_T2_hahn"] > 1

    def test_report_serializes(self):
        rep = bg.timing_fidelity_budget(pr.compile_six_ring(2),
                                        bg.sb2_table())
        json.dumps(rep.to_dict())


class TestMonteCarloLoss:
    def test_lossless(self):
        out = bg.monte_carlo_mode_loss(6, 0.0, 1000, 1)
        assert out["survival_rate"] == 1.0

    def test_total_loss(self):
        out = bg.monte_carlo_mode_loss(6, 1.0, 1000, 1)
        assert out["survival_rate"] == 0.0

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.10])
    def test_matches_binomial_closed_form(self, p):
        out = bg.monte_carlo_mode_loss(6, p, 10**5, master_seed=777)
        assert out["within_3_sigma"]
        assert out["expected_rate"] == pytest.approx((1 - p) ** 6)

    def test_seeded_reproducibility(self):
        a = bg.monte_carlo_mode_loss(6, 0.05, 10**4, 5)
        b = bg.monte_carlo_mode_loss(6, 0.05, 10**4, 5)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bg.monte_carlo_mode_loss(6, 1.5, 10, 0)
        with pytest.raises(ValueError):
            bg.monte_carlo_mode_loss(6, 0.5, 0, 0)
