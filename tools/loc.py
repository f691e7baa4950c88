"""Count the code lines of a Python package: no blanks, comments or docstrings.

    python3 tools/loc.py [DIR]    # DIR defaults to src/csemigroups

Prints one line per module and the total. A line counts when a token other
than a comment, a newline or an indent starts, ends or runs across it
(tokenize), unless it belongs to a docstring: the string statement that
opens a module, class or function body (ast).
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: pathlib.Path) -> int:
    with path.open("rb") as f:
        lines = {
            row
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in SKIPPED
            for row in range(tok.start[0], tok.end[0] + 1)
        }
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, BODIES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else "src/csemigroups")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
