"""Spans and counts around the public functions of the seven qdonor modules.

The benchmark wraps every public function of ``cli``, ``protocols``,
``statevec``, ``graphs``, ``fusion``, ``spins`` and ``budget`` by replacing
the module attribute, so calls between modules and within one module go
through the wrapper.  Private helpers and methods are not wrapped: their time
is the self time of the public function that called them (the per-step
SHA-256 checksum and the norm check are self time of
``protocols.execute``).

Each span keeps a name, start, end and parent in memory; a layer's self time
is its span minus the time its child spans cover.  The benchmark's own job
span is the root, so the self times of all metrics add up to the traced wall.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("cli", "protocols", "statevec", "graphs", "fusion", "spins",
           "budget")

ROOT = "bench.job"

# function -> self-time metric; public functions not listed fall into
# "<module>.other_s", and every cli function into "cli.self_s".
_GROUPS = {
    "statevec.fourier_s": ("apply_fourier", "fourier_matrix",
                           "subset_matrix"),
    "statevec.permute_s": ("apply_permutation",),
    "statevec.flip_s": ("apply_conditional_flip",),
    "statevec.emit_s": ("add_photon", "apply_emission", "finalize_photon",
                        "emit_photon_cycle", "photon_vacuum_level"),
    "statevec.cz_s": ("apply_cz_power",),
    "statevec.pauli_s": ("apply_pauli_power", "pauli_x_matrix",
                         "pauli_z_matrix"),
    "statevec.readout_s": ("enumerate_outcomes", "measure", "collapse",
                           "outcome_probabilities", "remove_subsystem"),
    "protocols.execute_s": ("execute",),
    "protocols.verify_s": ("verify_against_target", "verify_w_state"),
    "protocols.compile_s": ("compile_single_photon", "compile_linear",
                            "compile_six_ring", "compile_ladder",
                            "target_graph", "fourier", "permute", "edsr",
                            "emit", "cz", "measure_donor", "idle"),
    "graphs.search_s": ("local_correction_search",),
    "graphs.stabilizer_s": ("stabilizer_verify", "stabilizer_expectations",
                            "stabilizer_apply"),
    "graphs.build_s": ("build_graph_state", "make_linear", "make_ring",
                       "make_ladder"),
    "fusion.project_s": ("project_pair", "bell_state",
                         "enumerate_fusion_outcomes"),
    "fusion.fuse_s": ("fuse_chain_ends", "fused_chain_graph"),
    "fusion.compare_s": ("compare_schemes",),
    "budget.timing_s": ("timing_fidelity_budget",),
    "budget.loss_s": ("loss_success", "monte_carlo_mode_loss"),
    "spins.spectrum_s": ("spectrum", "single_donor_spectrum",
                         "double_donor_spectrum",
                         "build_single_donor_hamiltonian",
                         "build_double_donor_hamiltonian", "spin_matrices",
                         "electron_structure", "nuclear_structure"),
    "spins.transitions_s": ("enumerate_transitions",),
    "spins.sweep_s": ("sensitivity_sweep",),
}

# inclusive times, keyed by span name
_TOTALS = {
    "protocols.execute_total_s": "protocols.execute",
    "graphs.search_total_s": "graphs.local_correction_search",
}

COUNT_METRICS = ("protocols.instructions", "protocols.branches",
                 "statevec.calls", "statevec.amps_touched", "graphs.searches",
                 "graphs.search_trials", "spins.diagonalisations")


def metric_of(module, name):
    if module == "cli":
        return "cli.self_s"
    for metric, names in _GROUPS.items():
        if metric.startswith(module + ".") and name in names:
            return metric
    return f"{module}.other_s"


def _amplitudes(register_type, args, result):
    """Size of the register a statevec call works on: its first argument,
    or what it returns when it builds one."""
    for reg in (args[0] if args else None, result):
        if isinstance(reg, register_type):
            return reg.amps.size
    return 0


class Tracer:
    """In-memory spans and counts; install() wraps, uninstall() restores."""

    def __init__(self, package):
        self.names = [ROOT]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []          # [span index, metric, name, t0, child time]
        self.self_time = defaultdict(float)
        self.total_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._in_search = 0
        self._register_type = package.statevec.Register
        self._patches = []
        self.self_metrics = {"bench.self_s"}
        for mod in MODULES:
            module = importlib.import_module(f"{package.__name__}.{mod}")
            for name, fn in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patches.append(
                    (module, name, fn, self._wrap(fn, mod, name)))
                self.self_metrics.add(metric_of(mod, name))

    # -- spans ------------------------------------------------------------

    def open(self, name_id, metric, name):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        self._stack.append([idx, metric, name, t0, 0.0])

    def close(self):
        t1 = time.perf_counter()
        idx, metric, name, t0, child = self._stack.pop()
        self.span_end[idx] = t1
        dur = t1 - t0
        self.self_time[metric] += dur - child
        self.total_time[name] += dur
        if self._stack:
            self._stack[-1][4] += dur
        return dur

    def job(self, fn):
        """Run one benchmark job as a root span, with the wrappers installed
        only while it runs; returns (result, seconds)."""
        self.install()
        self.open(0, "bench.self_s", ROOT)
        try:
            result = fn()
        finally:
            dur = self.close()
            self.uninstall()
        return result, dur

    def _wrap(self, fn, mod, name):
        full = f"{mod}.{name}"
        self.names.append(full)
        name_id = len(self.names) - 1
        metric = metric_of(mod, name)
        tracer = self
        counts = self.counts

        if mod == "statevec":
            register_type = self._register_type

            def after(args, result):
                counts["statevec.calls"] += 1
                counts["statevec.amps_touched"] += _amplitudes(
                    register_type, args, result)
        elif full == "protocols.execute":
            def after(args, result):
                counts["protocols.instructions"] += len(
                    result.program.instructions)
                counts["protocols.branches"] += (
                    len(result.branches) if result.branches is not None
                    else 1)
        elif full == "graphs.local_correction_search":
            def after(args, result):
                counts["graphs.searches"] += 1
                counts["graphs.search_hits"] += result is not None
        elif full == "graphs.stabilizer_expectations":
            def after(args, result):
                if tracer._in_search:
                    counts["graphs.search_trials"] += 1
        elif full == "spins.spectrum":
            def after(args, result):
                counts["spins.diagonalisations"] += 1
        else:
            after = None
        is_search = full == "graphs.local_correction_search"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open(name_id, metric, full)
            if is_search:
                tracer._in_search += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_search:
                    tracer._in_search -= 1
                tracer.close()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def install(self):
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self):
        for module, name, fn, _ in self._patches:
            setattr(module, name, fn)

    # -- results ----------------------------------------------------------

    def per_round(self, rounds):
        """Per-layer metrics averaged over the traced rounds."""
        out = {m: self.self_time.get(m, 0.0) / rounds
               for m in self.self_metrics}
        for metric, name in _TOTALS.items():
            out[metric] = self.total_time.get(name, 0.0) / rounds
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0) / rounds
        trials = self.counts.get("graphs.search_trials", 0)
        out["graphs.search_hit_ratio"] = (
            self.counts.get("graphs.search_hits", 0) / trials
            if trials else 0.0)
        kernel_s = sum(v for m, v in out.items()
                       if m.startswith("statevec.") and m.endswith("_s"))
        out["statevec.amps_per_s"] = (out["statevec.amps_touched"] / kernel_s
                                      if kernel_s else 0.0)
        out["trace.wall_s"] = self.total_time.get(ROOT, 0.0) / rounds
        return out

    def self_time_gap(self):
        """Traced wall minus the sum of all self times (rounding only)."""
        return self.total_time.get(ROOT, 0.0) - sum(self.self_time.values())

    def write(self, path_stem, metrics):
        """Spans to <stem>.npz, metrics and raw counts to <stem>.json."""
        np.savez_compressed(
            f"{path_stem}.npz", names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32))
        with open(f"{path_stem}.json", "w") as fh:
            json.dump({"metrics": metrics, "counts": dict(self.counts),
                       "spans": len(self.span_name)}, fh, indent=2,
                      sort_keys=True)
