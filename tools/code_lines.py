"""Count the code lines of Python modules: lines that hold a token other
than a comment, leaving out blank lines and docstrings.

    python3 tools/code_lines.py src/relconv

prints one `<count> <path>` line per file, then `<total> total`.  A
docstring is the string expression that opens a module, class or function
body; every line it spans is left out.  A string token over several lines
counts each line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    files = sorted(f for p in map(Path, argv) for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
