"""Count the lines of each module in src/apcover as code, docstring, comment or blank.

    python tools/src_lines.py          # the working tree
    python tools/src_lines.py REV      # REV's files, the working tree's and the difference

Each line falls in one column: a line inside a docstring (found with
`ast`) is docstring, else an empty one is blank, one that starts with #
is a comment, and the rest is code, so the four add up to the file's
line count.  REV is read with `git show REV:path`.  Stdlib only.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/apcover"
COLUMNS = ("code", "docstring", "comment", "blank")


def counts(text: str) -> dict[str, int]:
    """The lines of one module's source, counted per column."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstring.update(range(first.lineno, first.end_lineno + 1))
    tally = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docstring:
            tally["docstring"] += 1
        elif not line.strip():
            tally["blank"] += 1
        elif line.lstrip().startswith("#"):
            tally["comment"] += 1
        else:
            tally["code"] += 1
    return tally


def working_tree() -> dict[str, str]:
    """Module name -> source of each .py file in the package, as on disk."""
    return {path.name: path.read_text() for path in sorted((ROOT / PACKAGE).glob("*.py"))}


def at_revision(rev: str) -> dict[str, str]:
    """Module name -> source of each .py file in the package at rev."""
    git = ["git", "-C", str(ROOT)]
    names = subprocess.run(
        [*git, "ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        name: subprocess.run(
            [*git, "show", f"{rev}:{PACKAGE}/{name}"], capture_output=True, text=True, check=True
        ).stdout
        for name in names if name.endswith(".py")
    }


def table(title: str, rows: dict[str, dict[str, int]]) -> str:
    """rows as a text table with a total row, each row's columns and their sum."""
    rows = {**rows, "total": {c: sum(row[c] for row in rows.values()) for c in COLUMNS}}
    width = max(map(len, rows))
    lines = [title, f"{'module':<{width}}" + "".join(f"{c:>11}" for c in (*COLUMNS, "lines"))]
    for name, row in rows.items():
        cells = [row[c] for c in COLUMNS]
        lines.append(f"{name:<{width}}" + "".join(f"{v:>11}" for v in (*cells, sum(cells))))
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    now = {name: counts(text) for name, text in working_tree().items()}
    if not argv:
        print(table(f"{PACKAGE} in the working tree", now))
        return 0
    (rev,) = argv
    then = {name: counts(text) for name, text in at_revision(rev).items()}
    zero = dict.fromkeys(COLUMNS, 0)
    diff = {
        name: {c: now.get(name, zero)[c] - then.get(name, zero)[c] for c in COLUMNS}
        for name in sorted(then.keys() | now.keys())
    }
    print(table(f"{PACKAGE} at {rev}", then))
    print()
    print(table(f"{PACKAGE} in the working tree", now))
    print()
    print(table(f"working tree - {rev}", diff))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
