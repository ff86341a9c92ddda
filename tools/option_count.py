"""Count the settable options of a source tree by an AST walk.

    python3 tools/option_count.py [PATH ...]

PATH is a Python file or a directory searched for ``*.py`` files; the default
is ``src``. Three kinds of option are counted:

- ``argparse``: each ``add_argument`` call, one command-line flag;
- ``dataclass``: each annotated field of a class decorated with ``dataclass``;
- ``parameter``: each parameter with a default value of a public function or
  method (a name without a leading underscore, dunders included), at module
  level or in a class body. Nested functions and lambdas are not counted.

Prints the total, then one ``kind count`` line per kind. A PATH that does not
exist is one ``error:`` line and exit code 1.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path

KINDS = ("argparse", "dataclass", "parameter")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def count(tree: ast.Module) -> Counter:
    """Options of one parsed module, by kind."""
    counts = Counter({kind: 0 for kind in KINDS})
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            counts["argparse"] += 1
    scopes = [tree.body]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            scopes.append(node.body)
            if _is_dataclass(node):
                counts["dataclass"] += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_public(node.name):
                counts["parameter"] += _defaults(node)
    return counts


def count_paths(paths) -> Counter:
    total = Counter({kind: 0 for kind in KINDS})
    for path in map(Path, paths):
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            total.update(count(ast.parse(file.read_text(), filename=str(file))))
    return total


def main(argv: list[str]) -> int:
    paths = argv or ["src"]
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"error: no such file or directory: {missing[0]}", file=sys.stderr)
        return 1
    counts = count_paths(paths)
    print(f"total {sum(counts.values())}")
    for kind in KINDS:
        print(f"{kind} {counts[kind]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
