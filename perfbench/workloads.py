"""The three benchmark workloads: their jobs and the answer check of each job.

A workload is prepared once per run from the seed (untimed); then each
round asks it for that round's job list, whose inputs are built before any
job is timed.  A job is a ``Job(name, run, check)``: ``run`` calls the
program and is timed; ``check`` looks at what it returned, with the
numpy-only code in ``checks.py``, and is not timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import shutil
from typing import Callable

import numpy as np

import checks as ck
from qdonor import cli
from qdonor import fusion as fu
from qdonor import graphs as gm
from qdonor import protocols as pr
from qdonor import spins as sp
from qdonor import statevec as sv


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    run: Callable
    check: Callable


def _correction(c):
    return c.x_powers, c.z_powers, c.fourier_powers


def _check_branches(trace, report, adj, n_emitters, what):
    """Every enumerated donor branch: probability d^-k, state = |G> after
    the reported correction, applied here."""
    d = trace.program.d
    ck.require(report.passed, f"{what}: the engine reports a failed branch")
    ck.check_adjacency(report.graph.matrix(), adj, what)
    outcomes = sorted(tuple(b.outcomes) for b in trace.branches)
    ck.require(outcomes == sorted(np.ndindex(*(d,) * n_emitters)),
               f"{what}: donor outcomes {outcomes} are not all d^k readouts")
    for br, res in zip(trace.branches, report.branches):
        ck.check_probability(br.probability, float(d) ** -n_emitters,
                             f"{what} branch {br.outcomes}")
        ck.require(res.correction is not None,
                   f"{what} branch {br.outcomes}: no correction found")
        psi = np.transpose(br.photons.amps, report.photon_order)
        ck.check_corrected_state(psi, adj, _correction(res.correction),
                                 f"{what} branch {br.outcomes}")


# -- dense ------------------------------------------------------------------

# (protocol, d): the six-ring written directly by two coupled emitters
# (scheme B, ring and ladder), and scheme A's eight-chain whose ends are fused
# into the ring.  At d=5 the eight-chain holds 3.9 M amplitudes and one job
# takes about 10 s on a 2-vCPU Xeon VM, so scheme A runs at d=4 (0.5 M amplitudes).
DENSE_DIRECT = (("six-ring", 5), ("ladder", 5))
DENSE_CHAIN_D = 4
CHAIN_N = 8


def _run_direct(protocol, d):
    program = (pr.compile_six_ring(d) if protocol == "six-ring"
               else pr.compile_ladder(d))
    trace = pr.execute(program, enumerate_all=True)
    graph, order = pr.target_graph(protocol, d)
    return trace, pr.verify_against_target(trace, graph, order)


def _check_direct(protocol, result):
    trace, report = result
    adj = ck.ring_adjacency(6) if protocol == "six-ring" \
        else ck.ladder_adjacency(3)
    _check_branches(trace, report, adj, 2,
                    f"{protocol} d={trace.program.d}")


def _run_fused_chain(d):
    """Scheme A: chain, verify, then fuse its ends under every Bell outcome."""
    trace = pr.execute(pr.compile_linear(d, CHAIN_N), enumerate_all=True)
    graph, order = pr.target_graph("linear", d, CHAIN_N)
    report = pr.verify_against_target(trace, graph, order)
    fused = []
    for res in report.branches:
        br = next(b for b in trace.branches if b.outcomes == res.outcomes)
        chain = gm.apply_correction(br.photons, res.correction)
        fused.append([fu.fuse_chain_ends(chain, outcome=(a, b))
                      for a in range(d) for b in range(d)])
    return trace, report, fused


def _check_fused_chain(result):
    trace, report, fused = result
    d = trace.program.d
    what = f"chain n={CHAIN_N} d={d}"
    _check_branches(trace, report, ck.path_adjacency(CHAIN_N), 1, what)
    ring = ck.ring_adjacency(CHAIN_N - 2)
    ring_state = ck.graph_state(ring, d)
    chain_state = ck.graph_state(ck.path_adjacency(CHAIN_N), d)
    projected = {}
    for a in range(d):
        for b in range(d):
            p, psi = ck.bell_projection(chain_state, 0, CHAIN_N - 1, a, b)
            ck.check_probability(p, 1.0 / d**2, f"{what} Bell ({a},{b})")
            projected[(a, b)] = psi
    ck.require(len(fused) == d, f"{what}: {len(fused)} fused branches")
    for outcomes in fused:
        ck.require(len(outcomes) == d * d, f"{what}: missing Bell outcomes")
        for out in outcomes:
            label = f"{what} fused Bell {out.outcome}"
            ck.require(out.success and out.correction is not None,
                       f"{label}: fusion reported failure")
            ck.check_probability(out.probability, 1.0 / d**2, label)
            ck.check_corrected_state(projected[out.outcome], ring,
                                     _correction(out.correction), label)
            fid = ck.fidelity(ring_state, out.register.amps)
            ck.require(fid >= 1 - ck.FIDELITY_TOL,
                       f"{label}: returned state has fidelity {fid!r}")


def dense(seed, outdir):
    jobs = [Job(f"{p} d={d}", lambda p=p, d=d: _run_direct(p, d),
                lambda r, p=p: _check_direct(p, r))
            for p, d in DENSE_DIRECT]
    jobs.append(Job(f"fused chain d={DENSE_CHAIN_D}",
                    lambda: _run_fused_chain(DENSE_CHAIN_D),
                    _check_fused_chain))
    order = np.random.default_rng(seed).permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    return lambda round_no: jobs


# -- search -----------------------------------------------------------------

# Each random job is one batch holding two graphs of every (d, n, k) class,
# each with k Fourier-dressed vertices.  The search tries Fourier powers
# sparse-first, then in lexicographic order, so its trial count is set by the
# place of the undoing powers in that order.  The two graphs of a class take
# mirrored places, r and L-1-r among the L candidates of weight k, so every
# batch costs about the same whatever the seed.  A round holds one literal
# ladder branch (about 5 s on a 2-vCPU Xeon VM) and SEARCH_BATCHES batches
# (about 0.8 s each): two batches keep a batch the median job, while rounds
# stay short enough for four to six of them in a run, not three to five.
SEARCH_CLASSES = tuple((d, n, k) for d in (2, 3, 4) for n in (5, 6)
                       for k in (1, 2))
SEARCH_BATCHES = 2
LITERAL_D = 2


@dataclasses.dataclass(frozen=True)
class DressedGraph:
    d: int
    adjacency: np.ndarray
    fourier: tuple     # F power per vertex, applied last
    x: tuple           # X power per vertex
    z: tuple           # Z power per vertex, applied first


def undoing_powers(d, n, k):
    """Weight-k Fourier-power vectors in the search's order.  At d=2 only
    power 1 is used: F^2 = I there, so F^3 = F would be found first."""
    powers = (0, 1) if d == 2 else (0, 1, 2, 3)
    return [u for u in itertools.product(powers, repeat=n)
            if sum(1 for x in u if x) == k]


def random_dressed_graph(rng, d, undo):
    """A random weighted graph over Z_d, dressed with X^a Z^b on every
    vertex and then F^f, where F^f is undone by F^undo."""
    n = len(undo)
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i, j] = adj[j, i] = rng.integers(1, d)
    return DressedGraph(d, adj, tuple(-u % 4 for u in undo),
                        tuple(int(a) for a in rng.integers(0, d, n)),
                        tuple(int(b) for b in rng.integers(0, d, n)))


def random_batch(rng):
    batch = []
    for d, n, k in SEARCH_CLASSES:
        undo = undoing_powers(d, n, k)
        r = int(rng.integers(len(undo)))
        batch += [random_dressed_graph(rng, d, undo[r]),
                  random_dressed_graph(rng, d, undo[-1 - r])]
    return batch


def dress(batch):
    """Each graph's state, built and dressed by the program: the job's input,
    prepared before the job is timed."""
    prepared = []
    for g in batch:
        graph = gm.GraphSpec.from_matrix(g.d, g.adjacency)
        reg = gm.build_graph_state(graph)
        for v in range(graph.n):
            reg = sv.apply_pauli_power(reg, v, "Z", g.z[v])
            reg = sv.apply_pauli_power(reg, v, "X", g.x[v])
            for _ in range(g.fourier[v]):
                reg = sv.apply_fourier(reg, v)
        prepared.append((graph, reg))
    return prepared


def _run_dressed(prepared):
    return [(reg, gm.local_correction_search(reg, graph, 2))
            for graph, reg in prepared]


def _check_dressed(batch, result):
    for g, (reg, corr) in zip(batch, result):
        what = f"dressed graph d={g.d} n={len(g.fourier)} f={g.fourier}"
        ck.require(corr is not None, f"{what}: no correction found")
        ck.check_corrected_state(reg.amps, g.adjacency, _correction(corr),
                                 what)
        used = sum(1 for f in corr.fourier_powers if f % 4)
        applied = sum(1 for f in g.fourier if f % 4)
        ck.require(used <= applied,
                   f"{what}: correction dresses {used} vertices, the "
                   f"dressing only {applied}")


def _run_literal_branch(b):
    """The literal step order, compiled, executed and verified on branch b
    alone: the search exhausts every dressing before it reports failure."""
    trace = pr.execute(pr.compile_ladder(LITERAL_D, "literal"),
                       enumerate_all=True)
    one = dataclasses.replace(trace, branches=trace.branches[b:b + 1])
    graph, order = pr.target_graph("ladder", LITERAL_D)
    return one, pr.verify_against_target(one, graph, order)


def literal_ladder_certificates():
    """Every branch of the literal step order, in emission order, after an
    SVD shows that no local correction can turn it into the ladder.
    Returns the branch states and the number of differing cuts of each."""
    d = LITERAL_D
    trace = pr.execute(pr.compile_ladder(d, "literal"), enumerate_all=True)
    graph, order = pr.target_graph("ladder", d)
    adj = ck.ladder_adjacency(3)
    ck.check_adjacency(graph.matrix(), adj, "literal ladder target")
    ck.require(len(trace.branches) == d * d, "literal ladder branch count")
    states, cuts = [], []
    for br in trace.branches:
        what = f"literal ladder d={d} branch {br.outcomes}"
        ck.check_probability(br.probability, 1.0 / d**2, what)
        psi = np.transpose(br.photons.amps, order)
        cuts.append(len(ck.check_no_local_correction(psi, adj, what)))
        states.append(br.photons.amps)
    return states, cuts


def search(seed, outdir):
    """Each round verifies one literal-ladder branch and searches
    SEARCH_BATCHES batches of dressed graphs drawn for that round from
    (seed, round).  The batches' states are built and dressed when the round's
    job list is made, so a batch job times the search alone."""
    certified, _ = literal_ladder_certificates()

    def literal_job(b):
        def check(result):
            trace, report = result
            ck.require(np.array_equal(trace.branches[0].photons.amps,
                                      certified[b]),
                       f"literal ladder branch {b} differs from the one "
                       "the SVD certificate covers")
            res = report.branches[0]
            ck.require(res.correction is None and not res.passed,
                       f"literal ladder branch {b}: the search reports a "
                       "correction the SVD certificate rules out")
        return Job(f"literal ladder branch {b}",
                   lambda: _run_literal_branch(b), check)

    # Every branch exhausts the same 4095 Fourier dressings, so one branch per
    # round, in turn, keeps rounds the same work at a quarter of the length.
    literal = [literal_job(b) for b in range(len(certified))]

    def jobs(round_no):
        rng = np.random.default_rng([seed, round_no])
        batches = [random_batch(rng) for _ in range(SEARCH_BATCHES)]
        return [literal[round_no % len(literal)]] + [
            Job(f"dressed batch {i}", lambda p=dress(b): _run_dressed(p),
                lambda r, b=b: _check_dressed(b, r))
            for i, b in enumerate(batches)]
    return jobs


# -- sweep ------------------------------------------------------------------

SWEEP_DS = (2, 3, 4, 5)
# A design point fixes d and runs every protocol there, the linear chain at
# each length whose photons hold at most this many amplitudes, fusion and both
# scheme comparisons.  The two-emitter protocols are verified at d <= 3 and
# run at d <= 4; above that they are the dense workload's jobs.
SWEEP_CHAIN_AMPLITUDES = 4096
_TABLE = {"single-photon": "single", "linear": "single",
          "six-ring": "sb2", "ladder": "sb2"}


def _design_point(d, seed):
    """CLI calls of one design point; '{out}' is the call's own directory."""
    longest = max(n for n in range(2, 13) if d**n <= SWEEP_CHAIN_AMPLITUDES)
    protocols = ([("single-photon", [])]
                 + [("linear", ["--n", str(n)])
                    for n in range(2, longest + 1)]
                 + [("six-ring", []), ("ladder", [])])
    calls = []
    for proto, extra in protocols:
        two_emitters = proto in ("six-ring", "ladder")
        base = ["--protocol", proto, "--d", str(d), *extra]
        if not two_emitters or d <= 3:
            calls.append(["protocol", "verify", *base, "--output", "{out}"])
        if not two_emitters or d <= 4:
            calls.append(["protocol", "run", *base, "--seed", str(seed),
                          "--output", "{out}"])
            calls.append(["budget", "--program", "{prev}/trace.json",
                          "--table", _TABLE[proto], "--output", "{out}"])
    calls.append(["fusion", "--d", str(d), "--seed", str(seed),
                  "--output", "{out}"])
    for target in ("ring6", "ladder23"):
        calls.append(["compare", "--d", str(d), "--target", target,
                      "--output", "{out}"])
    return calls


SPECTRA_CALLS = tuple(
    [["spectrum", "--device", dev, "--kind", kind, "--output", "{out}"]
     for dev in ("single", "double") for kind in ("esr", "nmr", "edsr")]
    + [["spectrum", "--device", "double", "--kind", "edsr", "--spectator",
        "weak-fixed", "--output", "{out}"],
       ["budget", "--sweep", "Qi=1e5:1e6:log10", "--output", "{out}"]])


def _run_point(calls, d, jobdir):
    """Run one design point's CLI calls; the spectra point (d None) also
    runs the device-variation sweeps in-process."""
    rcs = []
    sink = io.StringIO()
    for k, argv in enumerate(calls):
        argv = [a.replace("{out}", str(jobdir / str(k)))
                .replace("{prev}", str(jobdir / str(k - 1))) for a in argv]
        with contextlib.redirect_stdout(sink):
            rcs.append(cli.main(argv))
    return rcs, (_sensitivity() if d is None else None)


def _sensitivity():
    return [sp.sensitivity_sweep(p, sp.default_perturbations(double), kind)
            for double, p in ((False, sp.SpinParams()),
                              (True, sp.DoubleSpinParams()))
            for kind in ("esr", "nmr", "edsr")]


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _check_design_point(d, calls, jobdir):
    for k, argv in enumerate(calls):
        out = jobdir / str(k)
        what = f"{' '.join(argv[:2])} d={d}"
        if argv[0] == "protocol" and argv[1] == "verify":
            rep = json.loads((out / "verification.json").read_text())
            ck.require(rep["passed"] is True, f"{what}: not verified")
        elif argv[0] == "fusion":
            rep = json.loads((out / "fusion.json").read_text())
            ck.check_close(rep["success_probability"],
                           ck.fusion_success_probability(d), what)
            for dd, p in rep["probability_table"].items():
                ck.check_close(p, ck.fusion_success_probability(int(dd)),
                               f"{what} table d={dd}")
            ck.require(rep["chain_fusion"]["outcome"]["success"] is True,
                       f"{what}: chain fusion failed")
        elif argv[0] == "compare":
            rep = json.loads((out / "compare.json").read_text())
            fusions = 1 if rep["target"] == "ring6" else 2
            p = ck.fusion_success_probability(d)
            ck.check_close(rep["schemeA"]["p_success"], p, what)
            ck.check_close(rep["schemeA"]["expected_attempts"],
                           p ** -fusions, f"{what} {rep['target']}")


def _check_spectra(jobdir, sweeps):
    for k, argv in enumerate(SPECTRA_CALLS):
        out = jobdir / str(k)
        if argv[0] == "spectrum":
            rows = [ln for ln in (out / "spectrum.csv").read_text()
                    .splitlines()[2:] if ln]
            levels = 16 if argv[2] == "single" else 128
            ck.require(len(rows) == levels,
                       f"{argv[2]} spectrum has {len(rows)} levels, "
                       f"expected {levels}")
        else:
            rep = json.loads((out / "budget.json").read_text())
            ck.check_close(rep["loss"]["loss"], _loss_fraction(rep["cavity"]),
                           "cavity loss fraction", rtol=1e-9)
    for sweep, nuclei in zip(sweeps[::3], (1, 2)):
        # ESR flips the electron at fixed nuclear levels: 8^nuclei lines,
        # each moved by gamma_e * dB0 when B0 shifts.
        lines = sweep["baseline"]["entries"]
        ck.require(len(lines) == 8 ** nuclei,
                   f"{len(lines)} ESR lines for {nuclei} nuclei")
        b0 = next(r for r in sweep["perturbed"] if r["parameter"] == "B0")
        expected = sp.GAMMA_E_GHZ_PER_T * 1e3 * b0["delta"]
        for _, _, shift in b0["shifts_mhz"]:
            ck.check_close(shift, expected, "ESR shift under dB0", rtol=1e-3)


def _loss_fraction(cavity):
    """Loss share of the photon: gamma = g kappa / (g + kappa),
    kappa = omega_c / Q, loss = gamma_bath / (gamma_bath + gamma_port)."""
    omega = cavity["omega_c_ghz"] * 1e3
    g = cavity["g_s_mhz"]
    bath = g * (omega / cavity["q_i"]) / (g + omega / cavity["q_i"])
    port = g * (omega / cavity["q_c"]) / (g + omega / cavity["q_c"])
    return bath / (bath + port)


def sweep(seed, outdir):
    """One job per design point d, plus one for spectra and device sweeps.

    Each job writes into a fresh directory; its files must match, byte for
    byte, a reference pass made before timing into another directory.
    """
    points = [(f"design point d={d}", _design_point(d, seed), d)
              for d in SWEEP_DS]
    points.append(("spectra and device sweeps", list(SPECTRA_CALLS), None))
    refs = {}
    for name, calls, d in points:
        refdir = outdir / "reference" / name.replace(" ", "_")
        rcs, _ = _run_point(calls, d, refdir)
        ck.require(all(rc == 0 for rc in rcs), f"{name}: exit codes {rcs}")
        refs[name] = _tree_bytes(refdir)

    def make_job(name, calls, d, round_no):
        jobdir = outdir / f"round{round_no}" / name.replace(" ", "_")

        def check(result):
            rcs, sweeps = result
            ck.require(all(rc == 0 for rc in rcs),
                       f"{name}: exit codes {rcs}")
            ck.require(_tree_bytes(jobdir) == refs[name],
                       f"{name}: output bytes differ from the reference run")
            if d is None:
                _check_spectra(jobdir, sweeps)
            else:
                _check_design_point(d, calls, jobdir)
            shutil.rmtree(jobdir)
        return Job(name, lambda: _run_point(calls, d, jobdir), check)

    order = np.random.default_rng(seed).permutation(len(points))
    return lambda round_no: [make_job(*points[i], round_no) for i in order]


WORKLOADS = {"dense": dense, "search": search, "sweep": sweep}
