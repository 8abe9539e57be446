"""List ``src/`` definitions that no production code refers to.

A definition is a function, class or method under ``src/``. It counts as
referenced when its name appears as a ``Name`` or an ``Attribute`` in any
module under ``src/``, ``benchmarks/`` or ``examples/``, outside its own
body. Tests are not scanned: a definition that only tests reach is what
this script is for. Imports and ``__all__`` strings are not uses, so a
re-export alone does not keep a name alive.

The scan matches names, not bindings: a method shares its fate with every
other definition and attribute of the same name, and names reached only
through ``getattr`` strings are reported. Confirm each entry by hand.

Run from the repository root::

    python3 tools/unreferenced.py          # one line per definition
    python3 tools/unreferenced.py --total  # and a count/line summary
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples")


def _python_files(top: Path):
    return sorted(path for path in top.rglob("*.py")
                  if "__pycache__" not in path.parts)


def _definitions(tree: ast.Module):
    """Yield (qualified name, node) for every function, class and method."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                stack.extend((f"{prefix}{node.name}.", child)
                             for child in node.body)


def _uses(tree: ast.Module):
    """Yield (name, line) for every name read or attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _ignored(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def scan(root: Path = ROOT):
    """Return sorted (path, line, qualified name, line count) tuples."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    definitions = []
    for top in SCANNED:
        for path in _python_files(root / top):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for name, line in _uses(tree):
                uses.setdefault(name, []).append((path, line))
            if top == "src":
                definitions.extend((path, qualname, node)
                                   for qualname, node in _definitions(tree))
    found = []
    for path, qualname, node in definitions:
        name = node.name
        if _ignored(name):
            continue
        first = min([node.lineno]
                    + [decorator.lineno for decorator in node.decorator_list])
        last = node.end_lineno
        outside = [(where, line) for where, line in uses.get(name, ())
                   if where != path or not first <= line <= last]
        if not outside:
            found.append((path.relative_to(root).as_posix(), node.lineno,
                          qualname, last - first + 1))
    return sorted(found)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", action="store_true",
                        help="end with the number of definitions and lines")
    args = parser.parse_args(argv)
    found = scan()
    for path, line, qualname, lines in found:
        print(f"{path}:{line}: {qualname} ({lines} lines)")
    if args.total:
        print(f"{len(found)} definitions, "
              f"{sum(lines for *_, lines in found)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
