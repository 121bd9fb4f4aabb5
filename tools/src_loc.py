"""Count code lines under ``src/``: blank lines, comments and docstrings excluded.

A line counts when it holds at least one token that is not a comment, a
line break or indentation, and it is not part of a module, class or
function docstring.  Prints one line per file and the total::

    python3 tools/src_loc.py            # counts src/ of this checkout
    python3 tools/src_loc.py path/to/src
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT_TOKENS:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
