"""Byte parity of the qdonor CLI between two source trees.

    python tools/parity.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``qdonor`` package (a
checkout's ``src``).  The same command set runs against each tree, one
fresh interpreter per command, all of a tree's commands in one fresh
working directory.  Then every output file, stdout, stderr and exit code is
compared.  The first difference is printed and the exit code is 1; with no
difference the exit code is 0.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path


def command_set():
    """(label, argv) pairs; outputs go under out/<label>."""
    cmds = []
    for d in range(2, 6):
        for proto in ("six-ring", "ladder", "single-photon"):
            cmds.append((f"verify-{proto}-{d}",
                         ["protocol", "verify", "--protocol", proto,
                          "--d", str(d)]))
        cmds.append((f"verify-literal-{d}",
                     ["protocol", "verify", "--protocol", "ladder", "--d",
                      str(d), "--step-order", "literal"]))
        for n in range(2, 5):
            cmds.append((f"verify-linear-{d}-{n}",
                         ["protocol", "verify", "--protocol", "linear",
                          "--d", str(d), "--n", str(n)]))
    cmds += [
        ("run-six-ring", ["protocol", "run", "--protocol", "six-ring",
                          "--d", "3"]),
        ("run-six-ring-seed", ["protocol", "run", "--protocol", "six-ring",
                               "--d", "3", "--seed", "7"]),
        ("run-ladder-seed", ["protocol", "run", "--protocol", "ladder",
                             "--d", "4", "--seed", "11"]),
        ("run-linear-seed", ["protocol", "run", "--protocol", "linear",
                             "--d", "5", "--n", "3", "--seed", "3"]),
        ("run-single-photon", ["protocol", "run", "--protocol",
                               "single-photon", "--d", "5"]),
        ("run-ladder-enum", ["protocol", "run", "--protocol", "ladder",
                             "--d", "4", "--enumerate"]),
        ("run-linear-enum", ["protocol", "run", "--protocol", "linear",
                             "--d", "3", "--n", "3", "--enumerate",
                             "--seed", "7"]),
        # amplitude cap: exit 5
        ("cap-linear-8-7", ["protocol", "verify", "--protocol", "linear",
                            "--d", "8", "--n", "7"]),
        ("cap-six-ring-8", ["protocol", "verify", "--protocol", "six-ring",
                            "--d", "8"]),
        ("cap-ladder-8", ["protocol", "run", "--protocol", "ladder",
                          "--d", "8"]),
        ("cap-linear-2-30", ["protocol", "run", "--protocol", "linear",
                             "--d", "2", "--n", "30"]),
        ("cap-100", ["protocol", "run", "--protocol", "six-ring", "--d", "2",
                     "--cap", "100"]),
    ]
    # d = 6..8: the compilers' upper range, within the amplitude cap
    for d in (6, 7):
        cmds.append((f"verify-linear-{d}-3",
                     ["protocol", "verify", "--protocol", "linear", "--d",
                      str(d), "--n", "3"]))
    for d in (6, 7, 8):
        cmds.append((f"verify-single-photon-{d}",
                     ["protocol", "verify", "--protocol", "single-photon",
                      "--d", str(d)]))
    # the search on larger transposed registers; the literal ladder
    # exhausts it and exits 4
    for proto in ("six-ring", "ladder"):
        cmds.append((f"verify-{proto}-6",
                     ["protocol", "verify", "--protocol", proto, "--d",
                      "6"]))
    cmds.append(("verify-literal-6",
                 ["protocol", "verify", "--protocol", "ladder", "--d", "6",
                  "--step-order", "literal"]))
    cmds += [
        ("run-linear-8-seed", ["protocol", "run", "--protocol", "linear",
                               "--d", "8", "--n", "4", "--seed", "5"]),
        ("run-six-ring-6-seed", ["protocol", "run", "--protocol", "six-ring",
                                 "--d", "6", "--seed", "2"]),
        ("run-literal-6-seed", ["protocol", "run", "--protocol", "ladder",
                                "--d", "6", "--step-order", "literal",
                                "--seed", "2"]),
    ]
    for d in range(2, 6):
        cmds.append((f"fusion-{d}", ["fusion", "--d", str(d)]))
    for d in range(2, 7):
        cmds.append((f"fusion-{d}-chain6",
                     ["fusion", "--d", str(d), "--chain-n", "6"]))
    # a 4-chain's fused pair carries weight 2 mod d, which is 0 at d = 2
    for d in range(2, 5):
        cmds.append((f"fusion-{d}-chain4",
                     ["fusion", "--d", str(d), "--chain-n", "4"]))
    # seeded attempt draws, an odd chain, and a chain over the cap
    cmds += [
        ("fusion-3-seed", ["fusion", "--d", "3", "--seed", "7"]),
        ("fusion-5-seed-trials", ["fusion", "--d", "5", "--seed", "0",
                                  "--trials", "10"]),
        ("fusion-4-chain5-seed", ["fusion", "--d", "4", "--chain-n", "5",
                                  "--seed", "3"]),
        ("fusion-2-chain21", ["fusion", "--d", "2", "--chain-n", "21"]),
    ]
    for d in range(2, 9):
        for target in ("ring6", "ladder23"):
            cmds.append((f"compare-{target}-{d}",
                         ["compare", "--d", str(d), "--target", target]))
    for device in ("single", "double"):
        for kind in ("esr", "nmr", "edsr"):
            cmds.append((f"spectrum-{device}-{kind}",
                         ["spectrum", "--device", device, "--kind", kind]))
    # budget reads the traces written above
    for trace, table in (("run-linear-seed", "single"),
                         ("run-ladder-seed", "sb2"),
                         ("run-ladder-seed", "single")):
        cmds.append((f"budget-{trace}-{table}",
                     ["budget", "--program", f"out/{trace}/trace.json",
                      "--table", table]))
    cmds.append(("budget-sweep", ["budget", "--sweep", "Qi=1e5:1e6:log10"]))
    return [(label, argv + ["--output", f"out/{label}"])
            for label, argv in cmds]


def run_all(src, workdir):
    """(label, argv, exit code, stdout, stderr) per command, then the output
    files as {relative path: bytes}."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
           "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    for label, argv in command_set():
        proc = subprocess.run(
            [sys.executable, "-m", "qdonor.cli", *argv], cwd=workdir,
            env=env, capture_output=True, timeout=900)
        results.append((label, argv, proc.returncode, proc.stdout,
                        proc.stderr))
    files = {str(p.relative_to(workdir)): p.read_bytes()
             for p in sorted(Path(workdir).rglob("*")) if p.is_file()}
    return results, files


def first_difference(a, b):
    """A message naming the first difference, or None."""
    (runs_a, files_a), (runs_b, files_b) = a, b
    for (label, argv, *got_a), (_, _, *got_b) in zip(runs_a, runs_b):
        for what, x, y in zip(("exit code", "stdout", "stderr"), got_a,
                              got_b):
            if x != y:
                return (f"{label} ({' '.join(argv)}): {what} differs\n"
                        f"  parent: {x!r}\n  change: {y!r}")
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            side = "parent" if name in files_a else "change"
            return f"{name}: written only by the {side}"
        if files_a[name] != files_b[name]:
            return f"{name}: contents differ"
    return None


def main():
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tools/parity.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    for src in args:
        if not (Path(src) / "qdonor" / "cli.py").is_file():
            print(f"error: {src} holds no qdonor package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        out = []
        for side, src in zip(("parent", "change"), args):
            workdir = Path(tmp) / side
            workdir.mkdir()
            out.append(run_all(src, workdir))
    diff = first_difference(*out)
    runs, files = out[1]
    if diff is not None:
        print(diff)
        return 1
    codes = sorted({code for _, _, code, _, _ in runs})
    print(f"{len(runs)} commands (exit codes {codes}), {len(files)} output "
          "files: no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
