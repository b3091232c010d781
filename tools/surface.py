"""Size of the qdonor package's public surface, per source tree.

    python tools/surface.py SRC [SRC ...]

Each argument is a directory that holds the ``qdonor`` package (a
checkout's ``src``).  For each tree it prints the lines of every module and
their total, the number of classes, the public top-level functions per
module, the public methods and properties, and the parameters that carry a
default in public functions and methods.  A name is public when it does
not start with an underscore.  Standard library only; nothing is imported
from the trees.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _public(node):
    return not node.name.startswith("_")


def _defaults(fn):
    return len(fn.args.defaults) + sum(
        d is not None for d in fn.args.kw_defaults)


def survey(src):
    """Per-module figures of the ``qdonor`` package under ``src``."""
    modules = {}
    for path in sorted((Path(src) / "qdonor").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                     and _public(n)]
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        methods = [m for c in classes if _public(c) for m in c.body
                   if isinstance(m, ast.FunctionDef) and _public(m)]
        modules[path.stem] = {
            "lines": text.count("\n"),
            "classes": len(classes),
            "functions": len(functions),
            "methods": len(methods),
            "defaults": sum(_defaults(f) for f in functions + methods),
        }
    return modules


def report(src):
    modules = survey(src)
    total = {k: sum(m[k] for m in modules.values())
             for k in ("lines", "classes", "functions", "methods",
                       "defaults")}
    width = max(len(name) for name in modules) + 3
    print(f"== {src} ==")
    print("lines:")
    for name, m in modules.items():
        print(f"  {name + '.py':<{width}} {m['lines']:5d}")
    print(f"  {'total':<{width}} {total['lines']:5d}")
    print(f"classes: {total['classes']}")
    print(f"public functions: {total['functions']}")
    for name, m in modules.items():
        print(f"  {name:<{width}} {m['functions']:5d}")
    print(f"public methods and properties: {total['methods']}")
    print(f"defaulted parameters: {total['defaults']}")


def main():
    args = sys.argv[1:]
    if not args:
        print("usage: python tools/surface.py SRC [SRC ...]", file=sys.stderr)
        return 2
    for src in args:
        if not (Path(src) / "qdonor" / "__init__.py").is_file():
            print(f"error: {src} holds no qdonor package", file=sys.stderr)
            return 2
    for src in args:
        report(src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
