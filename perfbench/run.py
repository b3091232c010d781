"""qdonor benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Run from the root of a source checkout; the program is imported from its
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced rounds and reports the per-layer ones.  See README.md.
"""

import os

# Set before numpy is first imported.  One BLAS thread: the engine's BLAS
# calls are tiny norms and dot products, which a second thread only slows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages: numpy asks for them on arrays of 4 MB or more,
# and whether the kernel grants them depends on the host's free memory.  With
# them, peak RSS moved by whole 2 MB pages from run to run (69 or 75 MB on
# sweep), and dense jobs ran about 10% faster when they were granted.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("dense", "search", "sweep")
SETUP_STARTS = 11

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "peak_rss_mb": "MB"}


def time_setup():
    """Seconds from a fresh interpreter to qdonor and its CLI imported."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qdonor, qdonor.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def import_program():
    if not (SRC / "qdonor" / "__init__.py").is_file():
        sys.exit(f"error: no qdonor sources under {SRC}; run from the root "
                 "of a qdonor checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qdonor
    if SRC not in Path(qdonor.__file__).resolve().parents:
        sys.exit(f"error: qdonor was imported from {qdonor.__file__}, "
                 f"not from {SRC}")
    return qdonor


def per_layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(name, seed, seconds, trace):
    qdonor = import_program()
    import checks
    import workloads
    outdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(qdonor)
    attempted = failed = 0
    correct = True
    job_times, walls, traced_walls, setup_times = [], [], [], []
    try:
        try:
            jobs_for = workloads.WORKLOADS[name](seed, outdir)
        except checks.CheckFailure as exc:
            sys.exit(f"check failed while preparing inputs: {exc}")
        start = time.perf_counter()
        round_no = 0
        while (time.perf_counter() - start < seconds or not walls
               or (trace and not traced_walls)):
            traced = trace and round_no % 2 == 1
            wall = 0.0
            for job in jobs_for(round_no):
                attempted += 1
                try:
                    if traced:
                        result, dt = tracer.job(job.run)
                    else:
                        t0 = time.perf_counter()
                        result = job.run()
                        dt = time.perf_counter() - t0
                except Exception:
                    failed += 1
                    print(f"job {job.name!r} failed:", file=sys.stderr)
                    traceback.print_exc()
                    continue
                wall += dt
                if not traced:
                    job_times.append(dt)
                try:
                    job.check(result)
                except checks.CheckFailure as exc:
                    correct = False
                    print(f"check failed: {exc}", file=sys.stderr)
                del result
            (traced_walls if traced else walls).append(wall)
            round_no += 1
            # The interpreter starts go between rounds, spread over the run,
            # so that their median sees the host as the rounds do rather
            # than in one burst of a few seconds.
            due = SETUP_STARTS * min(1.0, (time.perf_counter() - start)
                                     / seconds)
            while len(setup_times) < due:
                setup_times.append(time_setup())
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(job_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"{name}: {len(walls)} rounds, {len(job_times)} jobs timed")
    else:
        metrics = tracer.per_round(len(traced_walls))
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(walls))
        units = {m: per_layer_unit(m) for m in metrics}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / f"trace-{name}-seed{seed}"), metrics)
        print(f"{name}: {len(traced_walls)} traced and {len(walls)} untraced "
              f"rounds; self times sum to the traced wall within "
              f"{abs(tracer.self_time_gap()):.1e} s")
    for m in sorted(metrics):
        print(f"  {m:32s} {metrics[m]:14.6g} {units[m]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in sorted(metrics)}}))
    # A wrong answer or a job that raised (and so dropped out of its round's
    # time) must not pass as a fast run.
    return 0 if correct and not failed else 1


def run_all(seed, seconds, trace):
    """Each workload in its own process, then one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: exit code {proc.returncode}, no result",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    ok = True
    for name, res in results.items():
        ok = ok and res["correct"] and not res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for m, v in res["metrics"].items():
            print(f"  {m:32s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
