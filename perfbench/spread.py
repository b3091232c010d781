"""Run-to-run spread of the end-to-end metrics, the figure the bounds are
set from.

    python3 perfbench/spread.py

Runs every workload of BENCHMARK.json ten times, one process at a time, with
seeds 1 to 10 and the run length of BENCHMARK.json.  For every metric it
prints the median, the first and third quartiles
(``statistics.quantiles(n=4)``) and the spread, (Q3 - Q1) / median, next to
the metric's bound.  Raw results go to ``perfbench/out/spread-<workload>.json``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    worst = {}
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode:
                sys.exit(f"{name} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **res})
        (HERE / "out" / f"spread-{name}.json").write_text(
            json.dumps(runs, indent=2) + "\n")
        fails = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, failed share {sorted(fails)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst[metric] = max(worst.get(metric, 0.0), spread / bound)
            print(f"  {metric:12s} median {med:10.5g}  Q1 {q1:10.5g}  "
                  f"Q3 {q3:10.5g}  spread {spread:6.2%}  bound {bound:.0%}")
    print("largest spread / bound: "
          + "  ".join(f"{m} {w:.2f}" for m, w in worst.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
