"""CLI contracts: outputs, exit codes, byte-level determinism."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdonor import budget as bg
from qdonor import cli
from qdonor import fusion as fu
from qdonor import graphs as gm
from qdonor import protocols as pr
from qdonor import spins as sp
from qdonor import statevec as sv


def run(*argv):
    return cli.main(list(argv))


def run_fresh(*argv, timeout):
    """Run the CLI in a fresh interpreter, where stderr shows what pytest
    would capture in process; returns the completed process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, "-m", "qdonor.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


def read_json(path):
    return json.loads(Path(path).read_text())


def program(instructions, n_emitters=2, **header):
    """A d=2 program object with no photons; ``header`` overrides entries."""
    return {"d": 2, "n_emitters": n_emitters, "n_photons": 0,
            "instructions": instructions, **header}


class TestSpectrumCommand:
    def test_double_defaults_esr_64_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run("spectrum", "--device", "double", "--kind", "esr",
                   "--output", str(out)) == 0
        lines = (out / "transitions.csv").read_text().splitlines()
        assert lines[1] == "from_label,to_label,frequency_MHz"
        assert len(lines) == 2 + 64

    def test_edsr_weak_fixed_7_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run("spectrum", "--device", "double", "--kind", "edsr",
                   "--spectator", "weak-fixed", "--output", str(out)) == 0
        rows = (out / "transitions.csv").read_text().splitlines()[2:]
        assert len(rows) == 7

    def test_empty_params_file_exits_2(self, tmp_path):
        bad = tmp_path / "params.json"
        bad.write_text("")
        assert run("spectrum", "--params", str(bad),
                   "--output", str(tmp_path)) == 2

    def test_ambiguous_labeling_exits_3(self, tmp_path):
        # hyperfine with no Zeeman: eigenstates are far from product states
        params = {"gamma_n": 0.0, "gamma_e": 0.0, "A": 101.52, "B0": 0.0,
                  "f_q": 0.0, "I": 3.5}
        f = tmp_path / "params.json"
        f.write_text(json.dumps(params))
        assert run("spectrum", "--params", str(f), "--device", "single",
                   "--output", str(tmp_path)) == 3

    @pytest.mark.parametrize("device,text", [
        ("single", "[1, 2]"), ("single", "[]"), ("single", "0"),
        ("single", '{"foo": 1}'), ("single", '{"A": "x"}'),
        ("single", '{"B0": null}'), ("single", '{"B0": true}'),
        ("double", '{"base": 5}'), ("double", '{"A": 1.0}'),
        ("double", '{"base": {"foo": 1}}'),
        ("double", '{"A_s": NaN}'), ("double", '{"A_s": Infinity}'),
        ("double", '{"A_w": NaN}'), ("double", '{"A_w": Infinity}'),
        ("double", '{"A_w": -1.0}'), ("double", '{"f_q_w": -1.0}'),
        ("double", '{"base": {"A": 50.0}}'),
        ("double", '{"base": {"f_q": 900.0}}'),
        # finite values whose Hamiltonian overflows: once a nan spectrum
        # with exit 0, an ambiguity with exit 3 and numpy's eigh error
        ("single", '{"B0": 1e308}'), ("double", '{"base": {"B0": 1e308}}'),
        ("single", '{"gamma_e": 1e306}'),
    ])
    def test_malformed_params_exit_2(self, tmp_path, capsys, device, text):
        f = tmp_path / "params.json"
        f.write_text(text)
        out = tmp_path / "o"
        assert run("spectrum", "--params", str(f), "--device", device,
                   "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_params_file_round_trip(self, tmp_path):
        params = {"gamma_n": 5.55, "gamma_e": 27.97, "A": 101.52,
                  "B0": 1.0, "f_q": 0.0, "I": 3.5}
        f = tmp_path / "params.json"
        f.write_text(json.dumps(params))
        assert run("spectrum", "--params", str(f), "--device", "single",
                   "--output", str(tmp_path)) == 0

    def test_overflowing_hamiltonian_prints_no_warning(self, tmp_path):
        # pytest captures numpy's warnings in process
        f = tmp_path / "params.json"
        f.write_text('{"B0": 1e308}')
        proc = run_fresh("spectrum", "--params", str(f),
                         "--output", str(tmp_path / "o"), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: Hamiltonian overflows")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestProtocolCommand:
    def test_verify_linear_passes(self, tmp_path):
        assert run("protocol", "verify", "--protocol", "linear", "--d", "2",
                   "--n", "3", "--output", str(tmp_path)) == 0
        rep = read_json(tmp_path / "verification.json")
        assert rep["passed"] is True
        assert rep["version"] == "0.1.0"

    def test_verify_six_ring_passes(self, tmp_path):
        assert run("protocol", "verify", "--protocol", "six-ring",
                   "--d", "2", "--output", str(tmp_path)) == 0

    def test_run_writes_trace(self, tmp_path):
        assert run("protocol", "run", "--protocol", "single-photon",
                   "--d", "3", "--output", str(tmp_path)) == 0
        trace = read_json(tmp_path / "trace.json")
        assert len(trace["checksums"]) == len(trace["program"]["instructions"])

    def test_unsupported_dimension_exits_5(self, tmp_path):
        assert run("protocol", "run", "--protocol", "single-photon",
                   "--d", "9", "--output", str(tmp_path)) == 5

    def test_cap_override_exits_5(self, tmp_path):
        assert run("protocol", "run", "--protocol", "linear", "--d", "4",
                   "--n", "4", "--cap", "128",
                   "--output", str(tmp_path)) == 5

    def test_budget_accepts_trace_file(self, tmp_path):
        assert run("protocol", "run", "--protocol", "ladder", "--d", "2",
                   "--output", str(tmp_path)) == 0
        assert run("budget", "--program", str(tmp_path / "trace.json"),
                   "--table", "sb2", "--output", str(tmp_path)) == 0
        rep = read_json(tmp_path / "budget.json")
        assert rep["timing"]["duration_us"]["mid"] > 0
        assert 0 < rep["timing"]["fidelity"] < 1

    def test_literal_ladder_order_exits_4_and_flags(self, tmp_path):
        code = run("protocol", "verify", "--protocol", "ladder", "--d", "2",
                   "--step-order", "literal", "--output", str(tmp_path))
        assert code == 4
        rep = read_json(tmp_path / "verification.json")
        assert rep["passed"] is False
        assert any("literal" in note for note in rep["notes"])

    def test_branch_without_correction_writes_null_rows(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(gm, "local_correction_search",
                            lambda *args, **kwargs: None)
        assert run("protocol", "verify", "--protocol", "single-photon",
                   "--d", "3", "--output", str(tmp_path)) == 4
        rep = read_json(tmp_path / "verification.json")
        assert rep["passed"] is False
        assert rep["branches"] == [
            {"outcomes": [k], "z_correction": None, "fidelity": None}
            for k in range(3)]

    def test_photon_in_one_time_bin_exits_4(self, tmp_path, monkeypatch):
        # a photon held in bin 1 reaches the one-vertex graph only through
        # a Fourier, which its Z-only search does not try
        photon = sv.Register(np.eye(3, dtype=complex)[1])
        monkeypatch.setattr(pr, "execute", lambda program, **kwargs:
                            pr.ExecutionTrace(program, (), photon, branches=(
                                pr.OutcomeBranch((0,), 1.0, photon),)))
        assert run("protocol", "verify", "--protocol", "single-photon",
                   "--d", "3", "--output", str(tmp_path)) == 4
        rep = read_json(tmp_path / "verification.json")
        assert rep["passed"] is False
        assert rep["branches"] == [
            {"outcomes": [0], "z_correction": None, "fidelity": None}]


class TestFusionCommand:
    def test_d3_probability(self, tmp_path):
        assert run("fusion", "--d", "3", "--trials", "1000",
                   "--output", str(tmp_path)) == 0
        rep = read_json(tmp_path / "fusion.json")
        assert rep["success_probability"] == pytest.approx(1 / 6)
        assert rep["chain_fusion"]["outcome"]["success"] is True

    def test_d1_exits_2(self, tmp_path):
        assert run("fusion", "--d", "1", "--output", str(tmp_path)) == 2

    @pytest.mark.parametrize("d,chain_n", [(1100, 2), (1100, 3), (2, 3)])
    def test_short_chain_exits_2_at_any_d(self, tmp_path, capsys, d,
                                          chain_n):
        # at d=1100 the chain is too large to simulate, and the length was
        # once checked only on the simulated path
        assert run("fusion", "--d", str(d), "--chain-n", str(chain_n),
                   "--output", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == "error: need a chain of at least 4 to fuse the ends\n"
        assert not (tmp_path / "fusion.json").exists()

    def test_long_chain_is_reported_unsimulated_without_its_power(
            self, tmp_path):
        # 3**30000000 has over 14 million digits; forming it takes seconds
        proc = run_fresh("fusion", "--d", "3", "--chain-n", "30000000",
                         "--trials", "10", "--output", str(tmp_path),
                         timeout=5)
        assert proc.returncode == 0, proc.stderr
        assert "chain fusion not simulated" in proc.stdout
        chain = read_json(tmp_path / "fusion.json")["chain_fusion"]
        assert chain["simulated"] is False

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_attempt_count_is_the_seeds_first_draw(self, tmp_path, d):
        # the sampled attempt count is the first geometric draw of --seed,
        # the generator whose statistics the "attempts" record summarises
        for seed in (0, 7, cli.DEFAULT_SEED):
            out = tmp_path / str(seed)
            assert run("fusion", "--d", str(d), "--chain-n", "4",
                       "--trials", "10", "--seed", str(seed),
                       "--output", str(out)) == 0
            rep = read_json(out / "fusion.json")
            draw = np.random.default_rng(seed).geometric(
                fu.success_probability(d))
            assert rep["chain_fusion"]["outcome"]["attempts"] == int(draw)

    def test_fusion_is_a_function_of_chain_and_outcome(self):
        params = inspect.signature(fu.fuse_chain_ends).parameters
        assert list(params) == ["reg", "outcome"]
        assert all(p.default is inspect.Parameter.empty
                   for p in params.values())
        chain = gm.build_graph_state(gm.make_linear(4, 2))
        assert fu.fuse_chain_ends(chain, (0, 0)).to_dict()["attempts"] is None


class TestCompareCommand:
    def test_ring6_d4(self, tmp_path):
        assert run("compare", "--d", "4", "--target", "ring6",
                   "--output", str(tmp_path)) == 0
        rep = read_json(tmp_path / "compare.json")
        assert rep["schemeA"]["expected_attempts"] == pytest.approx(8.0)
        assert rep["schemeB"]["expected_photons"] == 6.0


class TestBudgetCommand:
    def test_default_loss_row(self, tmp_path):
        assert run("budget", "--output", str(tmp_path)) == 0
        rep = read_json(tmp_path / "budget.json")
        assert rep["loss"]["loss"] == pytest.approx(0.0189, abs=0.0005)

    @pytest.mark.parametrize("arg,field", [
        ("--qi=nan", "q_i"), ("--qi=inf", "q_i"), ("--qi=-inf", "q_i"),
        ("--sweep=Qi=nan:1e6:lin:3", "q_i"),
        ("--sweep=Qc=1e4:inf:lin:3", "q_c"),
    ])
    def test_non_finite_cavity_value_exits_2(self, tmp_path, capsys, arg,
                                             field):
        assert run("budget", arg, "--output", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert f"{field} must be positive and finite" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("arg,given", [
        ("--sweep=Qc=1e4:inf:lin:3", "q_c must be positive and finite, "
                                     "got inf"),
        ("--sweep=Qi=-inf:1e6:linear:3", "q_i must be positive and finite, "
                                         "got -inf"),
        ("--sweep=Qi=1e5:inf:log10:3", "q_i must be positive and finite, "
                                       "got inf"),
    ])
    def test_non_finite_sweep_endpoint_is_named_without_warning(
            self, tmp_path, capsys, arg, given):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("budget", arg, "--output", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {given}\n"

    def test_sweep_endpoints_reproduce_example_rows(self, tmp_path):
        assert run("budget", "--sweep", "Qi=1e5:1e6:log10",
                   "--output", str(tmp_path)) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
        first = [float(x) for x in rows[0].split(",")]
        last = [float(x) for x in rows[-1].split(",")]
        assert first[4] == pytest.approx(0.15, abs=0.005)   # loss at 1e5
        assert first[6] == pytest.approx(0.7, abs=0.03)     # |dB| at 1e5
        assert last[4] == pytest.approx(0.0189, abs=0.0005)  # loss at 1e6
        assert last[6] == pytest.approx(0.08, abs=0.02)

    def test_empty_program_budget(self, tmp_path):
        prog = {"d": 2, "n_emitters": 1, "n_photons": 0, "instructions": []}
        f = tmp_path / "prog.json"
        f.write_text(json.dumps(prog))
        assert run("budget", "--program", str(f),
                   "--output", str(tmp_path)) == 0
        rep = read_json(tmp_path / "budget.json")
        assert rep["timing"]["duration_us"]["mid"] == 0.0
        assert rep["timing"]["fidelity"] == 1.0

    def test_unmapped_kind_exits_2(self, tmp_path):
        prog = {"d": 2, "n_emitters": 2, "n_photons": 0,
                "instructions": [{"op": "cz", "emitter": 0, "other": 1,
                                  "weight": 1}]}
        f = tmp_path / "prog.json"
        f.write_text(json.dumps(prog))
        # single-donor table cannot budget an inter-donor CZ
        assert run("budget", "--program", str(f), "--table", "single",
                   "--output", str(tmp_path)) == 2

    @pytest.mark.parametrize("prog,table", [
        pytest.param(program([{"op": "permute", "emitter": 0}]), "sb2",
                     id="no-a-b"),
        pytest.param(program([{"op": "emit", "emitter": 0}]), "sb2",
                     id="no-photon-bin"),
        pytest.param(program([{"op": "fourier", "emitter": 0, "colour": 1}]),
                     "sb2", id="unknown-key"),
        pytest.param(program([{"op": "fourier", "emitter": "0"}]), "sb2",
                     id="string-emitter"),
        pytest.param(program([{"op": "permute", "emitter": 0, "a": 0,
                               "b": 40}]), "sb2", id="level-40"),
        pytest.param(program([{"op": "cz", "emitter": 0, "other": 7,
                               "weight": 1}]), "sb2", id="emitter-7"),
        pytest.param(program([{"op": "permute", "emitter": 0, "a": 0,
                               "b": 40},
                              {"op": "cz", "emitter": 0, "other": 7,
                               "weight": 1}]), "sb2",
                     id="level-40-and-emitter-7"),
        pytest.param(program([{"op": "idle", "emitter": 0, "duration": -5.0}],
                             n_emitters=1), "sb2", id="negative-idle"),
        pytest.param(program([{"op": "idle", "emitter": 0,
                               "duration": math.nan}], n_emitters=1), "sb2",
                     id="nan-idle"),
        pytest.param(program([{"op": "idle", "emitter": 0,
                               "duration": math.inf}], n_emitters=1), "sb2",
                     id="infinite-idle"),
        pytest.param(program([{"emitter": 0}], n_emitters=1), "sb2",
                     id="no-op"),
        pytest.param(program([7], n_emitters=1), "sb2", id="not-an-object"),
        pytest.param(program([{"op": "fourier", "emitter": 0,
                               "levels": [1, 1]}]), "sb2",
                     id="repeated-levels"),
        pytest.param(program([{"op": "fourier", "emitter": 0,
                               "levels": [1]}]), "sb2", id="one-level"),
        pytest.param(program([{"op": "cz", "emitter": 0, "other": 0}]), "sb2",
                     id="cz-with-itself"),
        pytest.param(program([{"op": "measure", "emitter": 0},
                              {"op": "cz", "emitter": 1, "other": 0,
                               "weight": 1}]), "sb2",
                     id="cz-on-a-read-out-partner"),
        pytest.param(program([{"op": "cz", "emitter": 0, "other": 1}]), "sb2",
                     id="cz-without-weight"),
        pytest.param(program([], d=None), "sb2", id="null-d"),
        pytest.param(program(5), "sb2", id="instructions-not-a-list"),
        pytest.param([program([])], "sb2", id="top-level-list"),
        pytest.param(program([{"op": "fourier", "emitter": 0}]),
                     {"operations": {"fourier": {"fidelity": 0.99,
                                                 "duration_us": None}}},
                     id="null-duration-row"),
        pytest.param(program([{"op": "fourier", "emitter": 0}]),
                     {"operations": {"fourier": {"fidelity": "0.99",
                                                 "duration_us": 100}}},
                     id="string-fidelity-row"),
        pytest.param(program([]), {"operations": []},
                     id="operations-not-an-object"),
        *(pytest.param(program([{"op": "fourier", "emitter": 0}]),
                       {"operations": {"fourier": {"fidelity": fid,
                                                   "duration_us": dur}}},
                       id=f"{name}-row")
          for name, fid, dur in [("nan-duration", 0.99, math.nan),
                                 ("infinite-duration", 0.99, [1.0, math.inf]),
                                 ("true-duration", 0.99, True),
                                 ("true-fidelity", True, 100)]),
        *(pytest.param(program([{"op": "fourier", "emitter": 0}]),
                       {"operations": {"fourier": {"fidelity": 0.99,
                                                   "duration_us": 100}},
                        "coherence_us": {"electron_T2": t2}},
                       id=f"{name}-coherence")
          for name, t2 in [("zero", 0), ("negative", -6.3),
                           ("nan", math.nan), ("infinite", math.inf),
                           ("true", True)]),
        pytest.param(program([]), {"operations": {}, "notes": [math.nan]},
                     id="nan-note"),
        pytest.param(program([]), {"operations": {}, "name": math.inf},
                     id="infinite-name"),
        # finite rows whose sums overflow: a linear d=2 trace has three
        # Fourier steps
        pytest.param({"program": pr.compile_linear(2, 2).to_dict()},
                     {"operations": {**bg.sb2_table().to_dict()["operations"],
                                     "fourier": {"fidelity": 0.998,
                                                 "duration_us": 1e308}}},
                     id="overflowing-duration-sum"),
        pytest.param(program([{"op": "fourier", "emitter": 0}]),
                     {"operations": {"fourier": {"fidelity": 0.99,
                                                 "duration_us": 100}},
                      "coherence_us": {"electron_T2": 1e-307}},
                     id="overflowing-coherence-ratio"),
    ])
    def test_malformed_program_exits_2(self, tmp_path, capsys, prog, table):
        f = tmp_path / "prog.json"
        f.write_text(json.dumps(prog))
        if isinstance(table, dict):
            (tmp_path / "table.json").write_text(json.dumps(table))
            table = str(tmp_path / "table.json")
        assert run("budget", "--program", str(f), "--table", table,
                   "--output", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["colour", "levels"])
    def test_unknown_field_is_named(self, tmp_path, capsys, field):
        # a Fourier acts on every level of its emitter: a level subset is
        # an unknown field like any other
        f = tmp_path / "prog.json"
        f.write_text(json.dumps(program(
            [{"op": "fourier", "emitter": 0, field: [0, 1]}])))
        assert run("budget", "--program", str(f),
                   "--output", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"error: instruction has no field {field!r}\n")
        assert not (tmp_path / "o").exists()

    def test_success_that_rounds_to_zero_is_named(self, tmp_path, capsys):
        # Q_c = 1e300 leaves a port rate that vanishes next to the bath rate
        assert run("budget", "--sweep", "qc=1e300:1e300:lin:1",
                   "--output", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            "error: photon success rounds to 0 for omega_c_ghz=28.41, "
            "g_s_mhz=3.0, q_i=1000000.0, q_c=1e+300\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("prog,table,message", [
        pytest.param("six-ring", "single",
                     "operation table 'single-donor' has no row 'cz'",
                     id="table-without-cz"),
        pytest.param("no-d", "sb2",
                     "program d must be an integer, got None", id="no-d"),
        pytest.param("six-ring", "no-duration",
                     "row 'fourier': duration_us must be a number or a "
                     "list of one or two, got None", id="no-duration"),
    ])
    def test_missing_entry_is_named_without_quotes(self, tmp_path, capsys,
                                                   prog, table, message):
        obj = pr.compile_six_ring(2).to_dict()
        if prog == "no-d":
            del obj["d"]
        f = tmp_path / "prog.json"
        f.write_text(json.dumps(obj))
        if table == "no-duration":
            rows = bg.sb2_table().to_dict()
            del rows["operations"]["fourier"]["duration_us"]
            table = tmp_path / "table.json"
            table.write_text(json.dumps(rows))
        assert run("budget", "--program", str(f), "--table", str(table),
                   "--output", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sb2_table_budgets_cz(self, tmp_path):
        prog = {"d": 2, "n_emitters": 2, "n_photons": 0,
                "instructions": [{"op": "cz", "emitter": 0, "other": 1,
                                  "weight": 1}]}
        f = tmp_path / "prog.json"
        f.write_text(json.dumps(prog))
        assert run("budget", "--program", str(f), "--table", "sb2",
                   "--output", str(tmp_path)) == 0


@pytest.mark.parametrize("argv", [
    pytest.param(("fusion", "--d", "3", "--trials", "0"), id="fusion-trials-0"),
    pytest.param(("protocol", "run", "--protocol", "linear", "--cap", "0"),
                 id="cap-0"),
    pytest.param(("protocol", "run", "--protocol", "linear", "--cap", "-5"),
                 id="cap-negative"),
    pytest.param(("protocol", "run", "--protocol", "linear", "--d", "1"),
                 id="protocol-d-1"),
    pytest.param(("budget", "--qi", "0"), id="qi-0"),
    pytest.param(("budget", "--sweep", "Qi=1e5:1e6:log10:0"),
                 id="sweep-0-points"),
    pytest.param(("budget", "--sweep", "Qi=1e5:1e6:log10:-3"),
                 id="sweep-negative-points"),
    pytest.param(("compare", "--d", "1"), id="compare-d-1"),
])
def test_malformed_numeric_argument_exits_2(tmp_path, capsys, argv):
    assert run(*argv, "--output", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "edge weight" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("spec", ["Qi", "Qi=1:2:lin:x", "Qi=1:x:lin"])
def test_malformed_sweep_names_the_form(tmp_path, capsys, spec):
    assert run("budget", "--sweep", spec,
               "--output", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--sweep" in err and "name=start:stop:scale[:points]" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", ["", "sub/dir"], ids=["file", "under-file"])
def test_output_naming_a_file_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, below):
    def no_work(*args, **kwargs):
        raise AssertionError("executed despite an unusable --output")

    monkeypatch.setattr(pr, "execute", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / below if below else blocker
    assert run("protocol", "verify", "--protocol", "six-ring", "--d", "5",
               "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --output") and err.count("\n") == 1
    assert blocker.read_text() == "kept"
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("argv,code", [
    pytest.param(("protocol", "verify", "--protocol", "linear", "--d", "1"),
                 2, id="protocol-d-1"),
    pytest.param(("protocol", "verify", "--protocol", "linear", "--n", "0"),
                 2, id="protocol-n-0"),
    pytest.param(("protocol", "verify", "--protocol", "linear", "--n", "1"),
                 2, id="protocol-verify-linear-n-1"),
    pytest.param(("protocol", "verify", "--protocol", "six-ring", "--d", "9"),
                 5, id="protocol-d-9"),
    pytest.param(("protocol", "run", "--protocol", "six-ring", "--d", "4",
                  "--cap", "100"), 5, id="protocol-cap-100"),
    pytest.param(("fusion", "--d", "1"), 2, id="fusion-d-1"),
    pytest.param(("fusion", "--d", "2", "--trials", "0"), 2,
                 id="fusion-trials-0"),
    pytest.param(("compare", "--d", "1"), 2, id="compare-d-1"),
    pytest.param(("budget", "--qi", "nan"), 2, id="budget-qi-nan"),
    pytest.param(("budget", "--sweep", "Qi=1e5:1e6:bogus"), 2,
                 id="budget-bad-sweep"),
    pytest.param(("budget", "--sweep", "omega=1e306:1e307:lin:2"), 2,
                 id="budget-sweep-omega-overflow"),
    pytest.param(("budget", "--qi", "1e-320"), 2, id="budget-qi-subnormal"),
    pytest.param(("budget", "--program", "{trace}", "--table", "single"), 2,
                 id="budget-single-table-cz"),
    pytest.param(("budget", "--program", "{trace}", "--table", "{table}"), 2,
                 id="budget-table-without-cz"),
    pytest.param(("spectrum", "--device", "single",
                  "--spectator", "strong-fixed"), 2,
                 id="spectrum-single-strong-fixed"),
])
def test_rejected_command_makes_no_directory(tmp_path, capsys, argv, code):
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(
        {"program": pr.compile_six_ring(2).to_dict()}))
    table = bg.sb2_table().to_dict()
    del table["operations"]["cz"]
    (tmp_path / "table.json").write_text(json.dumps(table))
    argv = [a.format(trace=trace, table=tmp_path / "table.json")
            for a in argv]
    out = tmp_path / "not" / "yet"
    assert run(*argv, "--output", str(out)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "not").exists()


# (command, flag, smallest valid value, a word the error message must hold);
# the flag's value is drawn below the valid range
_NUMERIC_FLAGS = [
    (("protocol", "run", "--protocol", "single-photon"), "--d", 2,
     "dimension"),
    (("fusion", "--trials", "10"), "--d", 2, "d >= 2"),
    (("compare",), "--d", 2, "d >= 2"),
    (("protocol", "run", "--protocol", "linear"), "--n", 1, "photon"),
    (("protocol", "run", "--protocol", "single-photon"), "--seed", 0,
     "seed"),
    (("fusion", "--d", "2", "--trials", "10"), "--seed", 0, "seed"),
    (("protocol", "run", "--protocol", "single-photon"), "--cap", 1, "cap"),
    (("fusion", "--d", "2", "--trials", "10"), "--chain-n", 4, "chain"),
    (("fusion", "--d", "2"), "--trials", 1, "trial"),
]


@st.composite
def below_range_arguments(draw):
    """(argv, word): one numeric argument set below its valid range."""
    kind = draw(st.sampled_from(["int", "qi", "points", "log10"]))
    if kind == "int":
        command, flag, low, word = draw(st.sampled_from(_NUMERIC_FLAGS))
        value = draw(st.integers(min_value=-10**9, max_value=low - 1))
        return (*command, f"{flag}={value}"), word
    if kind == "points":
        points = draw(st.integers(min_value=-10**6, max_value=0))
        return ("budget", f"--sweep=Qi=1e5:1e6:log10:{points}"), "point"
    value = draw(st.floats(max_value=0.0, allow_nan=False,
                           allow_infinity=False))
    if kind == "qi":
        return ("budget", f"--qi={value!r}"), "q_i"
    ends = [repr(value), "1e6"]
    if draw(st.booleans()):
        ends.reverse()
    return ("budget", f"--sweep=Qi={ends[0]}:{ends[1]}:log10:3"), "sweep"


@settings(max_examples=30, deadline=None)
@given(below_range_arguments())
def test_below_range_numeric_arguments_exit_2(case):
    argv, word = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stderr(err):
        assert run(*argv, "--output", out) == 2
        assert not any(Path(out).iterdir())
    err = err.getvalue()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert word in err, (argv, err)


class TestDeterminism:
    def _digest(self, folder):
        out = {}
        for p in sorted(Path(folder).glob("*")):
            out[p.name] = p.read_bytes()
        return out

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--device", "double", "--kind", "edsr",
         "--spectator", "strong-resolved"),
        ("protocol", "verify", "--protocol", "linear", "--d", "3", "--n",
         "2", "--seed", "99"),
        ("protocol", "run", "--protocol", "single-photon", "--d", "3",
         "--seed", "4"),
        ("fusion", "--d", "3", "--trials", "2000", "--seed", "11"),
        ("budget", "--sweep", "Qi=1e5:1e6:log10:5"),
        ("compare", "--d", "4"),
    ])
    def test_reruns_are_byte_identical(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*argv, "--output", str(a)) in (0, 4)
        assert run(*argv, "--output", str(b)) in (0, 4)
        da, db = self._digest(a), self._digest(b)
        assert da.keys() == db.keys()
        for name in da:
            assert da[name] == db[name], f"{name} differs between reruns"

    def test_scheme_outputs_are_pinned(self, tmp_path):
        # one SHA-256 over fusion.json, compare.json of both targets and
        # budget.json of a linear-protocol trace on both tables, at d=2, 3
        h = hashlib.sha256()
        for d in ("2", "3"):
            runs = [("fusion", "--d", d, "--trials", "1000"),
                    ("compare", "--d", d, "--target", "ring6"),
                    ("compare", "--d", d, "--target", "ladder23")]
            trace = tmp_path / f"trace{d}"
            assert run("protocol", "run", "--protocol", "linear", "--d", d,
                       "--output", str(trace)) == 0
            runs += [("budget", "--program", str(trace / "trace.json"),
                      "--table", table) for table in ("single", "sb2")]
            for k, argv in enumerate(runs):
                out = tmp_path / f"d{d}-{k}"
                assert run(*argv, "--output", str(out)) == 0
                for p in sorted(out.glob("*.json")):
                    h.update(p.name.encode() + p.read_bytes())
        assert h.hexdigest() == (
            "aea895e154a865c341ca0f0e44f80ea0c2d5eb473d80defd987307a82ffb754e")

    def test_single_photon_verification_is_pinned(self, tmp_path):
        # one SHA-256 over verification.json of the single photon at
        # d = 2..8: its own schema, Z powers and fidelity bits
        h = hashlib.sha256()
        for d in range(2, pr.MAX_SINGLE_PHOTON_D + 1):
            out = tmp_path / str(d)
            assert run("protocol", "verify", "--protocol", "single-photon",
                       "--d", str(d), "--output", str(out)) == 0
            h.update((out / "verification.json").read_bytes())
        assert h.hexdigest() == (
            "515e2b77c93f397dcea01a6806435f37f05239cd9cc6244ecadb2e8a8ca44a34")

    def test_eight_chain_fusion_is_pinned(self, tmp_path):
        # one SHA-256 over fusion.json of the default eight-chain at d=4
        # and d=5, the largest graph states the CLI builds
        h = hashlib.sha256()
        for d in ("4", "5"):
            out = tmp_path / d
            assert run("fusion", "--d", d, "--output", str(out)) == 0
            h.update((out / "fusion.json").read_bytes())
        assert h.hexdigest() == (
            "0d2a3ed627e0df7c9bc306c5e7de7d8c901ae30f72c8460078b605009194bbfd")

    def test_spin_outputs_are_pinned(self, tmp_path):
        # one SHA-256 over spectrum.csv and transitions.csv of every device,
        # kind and spectator variant the benchmark and the docs use, a
        # --params run per device, the six device-variation sweeps and the
        # EDSR closed-form comparison
        h = hashlib.sha256()
        runs = [("--device", dev, "--kind", kind)
                for dev in ("single", "double")
                for kind in ("esr", "nmr", "edsr")]
        runs += [("--device", "double", "--kind", "edsr", "--spectator", s)
                 for s in ("weak-fixed", "strong-fixed", "strong-resolved")]
        runs.append(("--device", "double", "--kind", "nmr",
                     "--spectator", "weak-fixed"))
        for dev, obj in (("single", {"B0": 1.2}),
                         ("double", {"base": {"B0": 1.2}})):
            f = tmp_path / f"{dev}.json"
            f.write_text(json.dumps(obj))
            runs.append(("--device", dev, "--params", str(f)))
        for k, argv in enumerate(runs):
            out = tmp_path / str(k)
            assert run("spectrum", *argv, "--output", str(out)) == 0
            for name in ("spectrum.csv", "transitions.csv"):
                h.update(name.encode() + (out / name).read_bytes())
        sweeps = [sp.sensitivity_sweep(p, sp.default_perturbations(double),
                                       kind)
                  for double, p in ((False, sp.SpinParams()),
                                    (True, sp.DoubleSpinParams()))
                  for kind in ("esr", "nmr", "edsr")]
        h.update(json.dumps(sweeps, sort_keys=True).encode())
        h.update(json.dumps(sp.edsr_comparison(sp.SpinParams()),
                            sort_keys=True).encode())
        assert h.hexdigest() == (
            "a1026f189f8e95ed790721d7245092c6d800e45f608f4cb2103e1f8d9eec0f50")


# Every subcommand, then --version, an argparse error, a ValueError input and
# a cap overflow, then normal calls again; paths are relative to the working
# directory, so the messages of two runs in two directories agree.
_REUSE_CALLS = [
    ("spectrum", "--device", "double", "--kind", "edsr", "--spectator",
     "weak-fixed", "--output", "spectrum"),
    ("protocol", "verify", "--protocol", "linear", "--d", "3", "--n", "2",
     "--output", "verify"),
    ("protocol", "run", "--protocol", "six-ring", "--d", "2", "--seed", "5",
     "--output", "run"),
    ("budget", "--program", "run/trace.json", "--table", "sb2", "--sweep",
     "Qi=1e5:1e6:log10:3", "--output", "budget"),
    ("fusion", "--d", "3", "--chain-n", "4", "--trials", "500",
     "--output", "fusion"),
    ("compare", "--d", "3", "--target", "ladder23", "--output", "compare"),
    ("--version",),
    ("protocol", "run", "--protocol", "ring", "--output", "argparse"),
    ("fusion", "--d", "1", "--output", "input"),
    ("protocol", "run", "--protocol", "six-ring", "--d", "4", "--cap", "100",
     "--output", "cap"),
    ("compare", "--d", "2", "--output", "compare-again"),
    ("spectrum", "--device", "single", "--kind", "nmr",
     "--output", "spectrum-again"),
]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestParserReuse:
    def _calls(self, capsys, calls, fresh):
        """(exit code, stdout, stderr) per call; with ``fresh``, each call
        builds its own parser."""
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:       # argparse's own exits
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys,
                                               monkeypatch):
        built, compares = [], []
        build, cmd_compare = cli.build_parser, cli.cmd_compare
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or build())
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        reused.mkdir()
        fresh.mkdir()

        monkeypatch.chdir(reused)
        cli._parser.cache_clear()
        got = self._calls(capsys, _REUSE_CALLS[:1], fresh=False)
        # installed after the parser is built, and still the one that runs
        monkeypatch.setattr(cli, "cmd_compare",
                            lambda args: compares.append(args.d)
                            or cmd_compare(args))
        got += self._calls(capsys, _REUSE_CALLS[1:], fresh=False)
        assert len(built) == 1
        assert compares == [3, 2]

        monkeypatch.chdir(fresh)
        want = self._calls(capsys, _REUSE_CALLS, fresh=True)
        assert len(built) == 1 + len(_REUSE_CALLS)
        assert [g[0] for g in got] == [0, 0, 0, 0, 0, 0, 0, 2, 2, 5, 0, 0]
        assert got == want
        assert _tree_bytes(reused) == _tree_bytes(fresh)


def test_only_the_cli_prints(capsys):
    # The library returns what it finds and leaves stdout and stderr to the
    # CLI, whose summary line a caller may take as the last line printed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr.execute(pr.compile_six_ring(2), seed=3, enumerate_all=False)
        trace = pr.execute(pr.compile_six_ring(2), enumerate_all=True)
        graph, order = pr.target_graph("six-ring", 2)
        assert pr.verify_against_target(trace, graph, order).passed
        chain = gm.build_graph_state(gm.make_linear(4, 3))
        assert fu.fuse_chain_ends(chain, outcome=(1, 2)).success
        for params in (sp.SpinParams(), sp.DoubleSpinParams()):
            sp.donor_spectrum(params)
        bg.timing_fidelity_budget(trace.program, bg.sb2_table())
    assert capsys.readouterr() == ("", "")


def readme_cli_examples():
    """The lines of the sh block under README's "## CLI examples", with the
    exit code each ``qdonor`` line is documented to give: 4 where the
    comments above it say "(exit 4)", otherwise 0."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## CLI examples\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines, comment = [], ""
    for line in block.splitlines():
        if line.startswith("#"):
            comment += line
        elif line.strip():
            lines.append((shlex.split(line), 4 if "(exit 4)" in comment
                          else 0))
            comment = ""
    return lines


def test_readme_cli_examples_run_as_documented(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, want = [], []
    for argv, code in readme_cli_examples():
        if argv[0] == "echo":
            text, redirect, name = argv[1:]
            assert redirect == ">"
            Path(name).write_text(text + "\n")
            continue
        assert argv[0] == "qdonor", argv
        got.append((argv, cli.main(argv[1:])))
        want.append((argv, code))
    assert got == want
    assert [code for _, code in want].count(4) == 1
    assert len(want) > 1


def test_surface_tool_counts_every_source_line():
    repo = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "surface.py"),
         str(repo / "src")],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    total = next(line.split() for line in proc.stdout.splitlines()
                 if line.split()[0] == "total")
    assert int(total[1]) == sum(
        len(p.read_text().splitlines())
        for p in (repo / "src" / "qdonor").glob("*.py"))
