"""Command-line front end.

Every subcommand writes machine-readable JSON/CSV plus a one-paragraph
summary on stdout, and is a pure function of (inputs, seed, version): rerun
with the same arguments and the output bytes are identical.

Exit codes: 0 ok, 2 malformed input, 3 labeling ambiguity, 4 verification
failure, 5 resource cap exceeded.  The output directory is made with the
first file written, so a command that exits 2, 3 or 5 leaves nothing behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import budget as bg
from . import fusion as fu
from . import graphs as gm
from . import protocols as pr
from . import spins as sp
from . import statevec as sv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_AMBIGUITY = 3
EXIT_VERIFICATION = 4
EXIT_CAP = 5

DEFAULT_SEED = 20250808


def _write(path, text):
    """Write one output file, making its directory on the way."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path, obj):
    payload = {"version": __version__}
    payload.update(obj)
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header, rows):
    lines = [f"# qdonor {__version__}", header]
    lines += rows
    _write(path, "\n".join(lines) + "\n")


# -- spectrum -----------------------------------------------------------------

_SPECTATORS = {
    "none": None,
    "weak-fixed": sp.SpectatorConvention(target=1, policy="fixed"),
    "strong-fixed": sp.SpectatorConvention(target=2, policy="fixed"),
    "strong-resolved": sp.SpectatorConvention(target=2, policy="resolved"),
}


def cmd_spectrum(args):
    record = sp.SpinParams if args.device == "single" else sp.DoubleSpinParams
    if args.params:
        text = Path(args.params).read_text()
        if not text.strip():
            raise ValueError("empty parameter file")
        params = record.from_dict(json.loads(text))
    else:
        params = record()
    out = Path(args.output)
    spec = sp.donor_spectrum(params)
    convention = _SPECTATORS[args.spectator]
    transitions = sp.enumerate_transitions(spec, args.kind, convention)
    _write_csv(out / "spectrum.csv", "index,label,energy_MHz",
               [f"{i},{label},{e!r}" for i, (label, e)
                in enumerate(zip(spec.labels, spec.energies_mhz))])
    _write_csv(out / "transitions.csv", "from_label,to_label,frequency_MHz",
               [f"{frm},{to},{f!r}" for frm, to, f in transitions])
    print(f"{args.device} donor: {len(spec.labels)} levels, "
          f"{len(transitions)} {args.kind.upper()} transitions "
          f"-> {out / 'spectrum.csv'}, {out / 'transitions.csv'}")
    return EXIT_OK


# -- protocols ----------------------------------------------------------------


def _compile(args):
    if args.protocol == "single-photon":
        return pr.compile_linear(args.d, 1)
    if args.protocol == "linear":
        return pr.compile_linear(args.d, args.n)
    if args.protocol == "six-ring":
        return pr.compile_six_ring(args.d)
    if args.protocol == "ladder":
        return pr.compile_ladder(args.d, step_order=args.step_order)
    raise ValueError(f"unknown protocol {args.protocol!r}")


def _trace_dict(trace, seed, enumerated):
    out = {
        "program": trace.program.to_dict(),
        "checksums": list(trace.checksums),
        "enumerated": enumerated,
        "seed": None if enumerated else seed,
    }
    if enumerated:
        out["branches"] = [
            {"outcomes": list(b.outcomes), "probability": b.probability}
            for b in trace.branches]
    else:
        out["measurements"] = [
            {"subsystem": emitter, "outcome": level, "probability": p}
            for emitter, level, p in trace.records]
    return out


def _seed(args):
    """The --seed value; numpy's generators accept only non-negative seeds."""
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    return args.seed


def _single_photon_report(d, trace, rep):
    """Each branch's correction Z power and its corrected fidelity with |+>."""
    uniform = np.full(d, 1 / np.sqrt(d), dtype=complex)
    rows = []
    for br, res in zip(trace.branches, rep.branches):
        row = {"outcomes": list(br.outcomes), "z_correction": None,
               "fidelity": None}
        if res.correction is not None:
            photon = gm.apply_correction(br.photons, res.correction)
            row["z_correction"] = res.correction.z_powers[0]
            row["fidelity"] = abs(complex(np.vdot(photon.amps, uniform))) ** 2
        rows.append(row)
    return {"protocol": "single-photon", "passed": rep.passed,
            "target": "uniform single-photon superposition", "branches": rows}


def cmd_protocol(args):
    if args.cap is not None and args.cap < 1:
        raise ValueError(f"amplitude cap must be at least 1, got {args.cap}")
    seed = _seed(args)
    out = Path(args.output)
    program = _compile(args)
    # resolved before any work, so that a target that cannot be built
    # (a one-photon chain) exits 2 without a trace.json
    if args.mode == "verify":
        graph, order = pr.target_graph(args.protocol, args.d, args.n)
    enumerated = args.enumerate or args.mode == "verify"
    trace = pr.execute(program, seed=seed, enumerate_all=enumerated,
                       cap=args.cap or sv.DEFAULT_AMPLITUDE_CAP)
    _write_json(out / "trace.json", _trace_dict(trace, seed, enumerated))
    if args.mode == "run":
        print(f"{args.protocol} d={args.d}: executed "
              f"{len(program.instructions)} instructions -> "
              f"{out / 'trace.json'}")
        return EXIT_OK

    rep = pr.verify_against_target(trace, graph, order)
    ok = rep.passed
    if args.protocol == "single-photon":
        report = _single_photon_report(args.d, trace, rep)
    else:
        report = {"protocol": args.protocol, **rep.to_dict()}
        if args.protocol == "ladder" and args.step_order == "literal" and not ok:
            report["notes"].append(
                "literal published step order fails ladder verification; "
                "rerun with --step-order verified")
    _write_json(out / "verification.json", report)
    print(f"{args.protocol} d={args.d}: verification "
          f"{'PASS' if ok else 'FAIL'} -> {out / 'verification.json'}")
    return EXIT_OK if ok else EXIT_VERIFICATION


# -- fusion and comparison ----------------------------------------------------


def cmd_fusion(args):
    seed = _seed(args)
    fu.check_fusable_chain(args.chain_n)
    out = Path(args.output)
    p = fu.success_probability(args.d)
    table = {str(d): fu.success_probability(d)
             for d in range(2, pr.MAX_SINGLE_PHOTON_D + 1)}
    result = {
        "d": args.d,
        "success_probability": p,
        "probability_table": table,
        "ancilla_modes": fu.ancilla_modes(args.d),
        "attempts": fu.sample_attempts(p, args.trials, seed),
    }
    # d >= 2 here, so a chain longer than 20 is over the cap: test that
    # first rather than form a power of millions of digits
    simulate = args.chain_n <= 20 and args.d ** args.chain_n <= 2**20
    verdict = "not simulated"
    if simulate:
        target = fu.fused_chain_graph(args.chain_n, args.d)
        reg = gm.build_graph_state(gm.make_linear(args.chain_n, args.d))
        outcome = fu.fuse_chain_ends(reg, (0, 0))
        verdict = "PASS" if outcome.success else "FAIL"
        attempts = int(np.random.default_rng(seed).geometric(p))
        result["chain_fusion"] = {
            "chain_n": args.chain_n,
            "target": target.to_dict(),
            "outcome": {**outcome.to_dict(), "attempts": attempts},
        }
    else:
        result["chain_fusion"] = {"chain_n": args.chain_n, "simulated": False,
                                  "reason": "state exceeds desk-scale cap"}
    _write_json(out / "fusion.json", result)
    print(f"type-II fusion d={args.d}: p={p:.4f}, chain fusion {verdict} "
          f"-> {out / 'fusion.json'}")
    return EXIT_VERIFICATION if verdict == "FAIL" else EXIT_OK


def cmd_compare(args):
    out = Path(args.output)
    report = fu.compare_schemes(args.d, args.target)
    _write_json(out / "compare.json", report)
    a, b = report["schemeA"], report["schemeB"]
    print(f"{args.target} d={args.d}: fusion scheme expects "
          f"{a['expected_attempts']:.1f} attempts "
          f"({a['expected_photons']:.1f} photons); coupled-emitter scheme is "
          f"deterministic with {b['expected_photons']:.0f} photons "
          f"-> {out / 'compare.json'}")
    return EXIT_OK


# -- budgets ------------------------------------------------------------------


def _load_table(spec_str):
    if spec_str == "single":
        return bg.single_donor_table()
    if spec_str == "sb2":
        return bg.sb2_table()
    return bg.OperationTable.from_dict(
        json.loads(Path(spec_str).read_text()))


def _load_program(path):
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict) and "program" in obj:   # trace file
        obj = obj["program"]
    return pr.Program.from_dict(obj)


def _parse_sweep(expr):
    bad = ValueError(f"bad --sweep {expr!r}; expected "
                     "name=start:stop:scale[:points], points an integer")
    name, _, rest = expr.partition("=")
    parts = rest.split(":")
    if len(parts) not in (3, 4):
        raise bad
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[3]) if len(parts) == 4 else 11
    except ValueError:
        raise bad from None
    scale = parts[2]
    if points < 1:
        raise ValueError(f"a sweep needs at least one point, got {points}")
    if scale == "log10":
        if start <= 0 or stop <= 0:
            raise ValueError(f"a log10 sweep needs positive endpoints, got "
                             f"{start} and {stop}")
        space = np.geomspace
    elif scale in ("lin", "linear"):
        space = np.linspace
    else:
        raise ValueError(f"unknown sweep scale {scale!r}")
    key = {"qi": "q_i", "q_i": "q_i", "qc": "q_c", "q_c": "q_c",
           "gs": "g_s_mhz", "g_s": "g_s_mhz",
           "omega": "omega_c_ghz", "omega_c": "omega_c_ghz"}.get(name.lower())
    if key is None:
        raise ValueError(f"unknown sweep parameter {name!r}")
    # a non-finite endpoint makes numpy warn and fill the range with nan
    for v in (start, stop):
        if not math.isfinite(v):
            raise ValueError(f"{key} must be positive and finite, got {v}")
    return key, space(start, stop, points)


def cmd_budget(args):
    out = Path(args.output)
    table = _load_table(args.table)
    cavity = (bg.CavityParams() if args.qi is None
              else bg.CavityParams(q_i=args.qi))
    result = {"loss": bg.loss_success(cavity).to_dict(),
              "cavity": cavity.to_dict(),
              "emission_time_us": bg.emission_time(cavity.g_s_mhz),
              "table": table.name}
    if args.program:
        program = _load_program(args.program)
        timing = bg.timing_fidelity_budget(program, table, cavity)
        result["timing"] = timing.to_dict()
    if args.sweep:
        key, values = _parse_sweep(args.sweep)
        rows = []
        for v in values:
            c = bg.CavityParams(**{**cavity.to_dict(), key: float(v)})
            rep = bg.loss_success(c)
            rows.append(",".join(repr(x) for x in (
                c.q_i, c.q_c, c.g_s_mhz, c.omega_c_ghz,
                rep.loss, rep.success, rep.success_db_magnitude)))
        _write_csv(out / "sweep.csv",
                   "Q_i,Q_c,g_s,omega_c,loss,success,success_dB", rows)
        result["sweep"] = {"parameter": key, "points": len(values)}
    _write_json(out / "budget.json", result)
    loss = result["loss"]
    msg = (f"loss={loss['loss']:.4f} success={loss['success']:.4f} "
           f"|dB|={loss['success_db_magnitude']:.3f}")
    if "timing" in result:
        t = result["timing"]
        msg += (f"; program {t['duration_us']['mid']:.1f} us (mid), "
                f"fidelity {t['fidelity']:.4f}")
    print(msg + f" -> {out / 'budget.json'}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="qdonor",
        description="Qudit graph states from donor spin emitters: spectra, "
                    "protocols, fusion, budgets.")
    p.add_argument("--version", action="version",
                   version=f"qdonor {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("spectrum", help="donor spectra and transition lists")
    s.add_argument("--params", help="JSON parameter file (defaults built in)")
    s.add_argument("--device", choices=("single", "double"), default="single")
    s.add_argument("--kind", choices=("esr", "nmr", "edsr"), default="esr")
    s.add_argument("--spectator", choices=sorted(_SPECTATORS), default="none")
    s.add_argument("--output", default=".")

    s = sub.add_parser("protocol", help="compile, run, verify protocols")
    s.add_argument("mode", choices=("run", "verify"))
    s.add_argument("--protocol", required=True,
                   choices=("single-photon", "linear", "six-ring", "ladder"))
    s.add_argument("--d", type=int, default=2)
    s.add_argument("--n", type=int, default=3,
                   help="photon count for the linear protocol")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--enumerate", action="store_true",
                   help="enumerate donor outcomes instead of sampling")
    s.add_argument("--step-order", choices=("verified", "literal"),
                   default="verified", dest="step_order",
                   help="ladder only: follow the published step table "
                        "literally or the verification-backed order")
    s.add_argument("--cap", type=int, default=None,
                   help="override the amplitude-count cap")
    s.add_argument("--output", default=".")

    s = sub.add_parser("fusion", help="fusion probabilities and chain fusion")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--chain-n", type=int, default=8, dest="chain_n")
    s.add_argument("--trials", type=int, default=100000)
    s.add_argument("--seed", type=int, default=DEFAULT_SEED)
    s.add_argument("--output", default=".")

    s = sub.add_parser("compare", help="fusion vs coupled-emitter schemes")
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--target", choices=("ring6", "ladder23"),
                   default="ring6")
    s.add_argument("--output", default=".")

    s = sub.add_parser("budget", help="loss model and timing budgets")
    s.add_argument("--program", help="program or trace JSON file")
    s.add_argument("--table", default="single",
                   help="'single', 'sb2', or a table JSON file")
    s.add_argument("--qi", type=float, default=None,
                   help="override the internal quality factor")
    s.add_argument("--sweep", help="e.g. Qi=1e5:1e6:log10[:points]")
    s.add_argument("--output", default=".")
    return p


def _check_output(path):
    """Refuse, before any work, an --output that cannot become a directory:
    the nearest existing path along it must be one."""
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ValueError(f"--output {path}: {existing} is not a directory")


@functools.cache
def _parser():
    """The parser main reuses: built on the first call, never at import."""
    return build_parser()


def main(argv=None):
    """Run one subcommand and return its exit code; safe to call repeatedly
    in one process.  The subcommand is looked up by name on each call, so a
    replaced ``cmd_*`` attribute is the one that runs."""
    args = _parser().parse_args(argv)
    try:
        _check_output(Path(args.output))
        return globals()[f"cmd_{args.command}"](args)
    except sp.LabelingAmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUITY
    except sv.CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
