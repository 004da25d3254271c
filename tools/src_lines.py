"""Count the lines of every Python file under ``src/``.

Prints one row per file and a total: the raw line count, and the code
lines left after dropping docstrings, comments and blank lines.  A
docstring is any string literal that stands alone as a statement.

    python3 tools/src_lines.py [root]      # root defaults to src/

With ``--against REV`` it prints, per file, the code lines at git
revision REV (read with ``git show REV:path``), the code lines in the
working tree, and the difference; a file missing on one side counts 0.
An unknown REV, or a root outside a git work tree, exits with status 2:

    python3 tools/src_lines.py --against REV [root]
"""

from __future__ import annotations

import ast
import io
import subprocess
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


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout


def against(rev: str, root: Path) -> int:
    """Print code lines at ``rev``, in the working tree, and the change;
    or, when git cannot list ``root`` at ``rev``, one line naming the
    revision on stderr, with status 2."""
    try:
        listed = _git(root, "ls-tree", "-r", "--name-only", rev, ".")
    except subprocess.CalledProcessError as exc:
        reason = (exc.stderr.strip().splitlines() or ["git failed"])[-1]
        print(f"src_lines.py: cannot read revision {rev!r} under {root}: "
              f"{reason}", file=sys.stderr)
        return 2
    then = {Path(name) for name in listed.splitlines()
            if name.endswith(".py")}
    now = {path.relative_to(root) for path in root.rglob("*.py")}
    totals = [0, 0]
    for rel in sorted(then | now):
        old = count_lines(_git(root, "show", f"{rev}:./{rel.as_posix()}"))[1] \
            if rel in then else 0
        new = count_lines((root / rel).read_text())[1] if rel in now else 0
        totals = [totals[0] + old, totals[1] + new]
        print(f"{old:6d} {new:6d} {new - old:+6d}  {root / rel}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[1] - totals[0]:+6d}  total")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 2 and argv[1] == "--against":
        return against(argv[2], Path(argv[3] if len(argv) > 3 else "src"))
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
