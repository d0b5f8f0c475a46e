#!/usr/bin/env python3
"""Count the lines of each module of src/jacmod by kind.

Every line is one of: docstring (inside the string that opens a module,
class or function, found with `ast`), comment (a line whose text starts
with #), blank, or code (the rest, including a code line with a trailing
comment).  Prints one row per module and a total:

    python3 scripts/src_lines.py [DIR]

DIR defaults to this checkout's src/jacmod.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count_lines(source: str) -> dict[str, int]:
    """The lines of source by kind, and all of them."""
    lines = source.splitlines()
    docstring: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["all"] = len(lines)
    return counts


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "jacmod"
    columns = ("all", *KINDS)
    total = dict.fromkeys(columns, 0)
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in columns))
    for path in sorted(root.glob("*.py")):
        counts = count_lines(path.read_text())
        for c in columns:
            total[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>10,}" for c in columns))
    print(f"{'total':<16}" + "".join(f"{total[c]:>10,}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
