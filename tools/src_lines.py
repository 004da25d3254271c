"""Count the lines of every Python file under ``src/``.

Prints one row per file and a total: the raw line count, and the code
lines left after dropping docstrings, comments and blank lines.  A
docstring is any string literal that stands alone as a statement.

    python3 tools/src_lines.py [root]      # root defaults to src/
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def count_lines(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one Python source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src")
    total_raw = total_code = 0
    for path in sorted(root.rglob("*.py")):
        raw, code = count_lines(path.read_text())
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d}  {path}")
    print(f"{total_raw:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
