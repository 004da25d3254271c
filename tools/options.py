"""List the optional parameters of the public functions and methods
under ``src/``, with the number of call sites that set each one.

A public function is a module-level ``def`` whose name has no leading
underscore; a public method is such a ``def`` (or ``__init__``) in a
module-level class whose name has none either.  ``self`` and ``cls`` are
not parameters.  An optional parameter is one with a default.

Call sites are found by name, not by type, in every ``.py`` file under
``src/``, ``tests/``, ``bench/`` and ``tools/``: a call to ``f(...)`` or
``x.f(...)`` counts for every public ``def`` named ``f``, and a call to a
class counts for its ``__init__``.  A call sets a parameter if it names
it as a keyword or fills its position; a ``*args`` argument counts as
setting every later positional parameter, and a ``**kwargs`` argument
sets none.

Prints one row per optional parameter (call sites that set it, then
``file:line name(parameter)``), a total, and the parameters no call
site sets.  Always exits 0:

    python3 tools/options.py [repo]        # repo defaults to .
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import NamedTuple

CALLER_DIRS = ("src", "tests", "bench", "tools")


class Definition(NamedTuple):
    """One public ``def``: where it is, the name calls use, its
    positional parameters in order, and its optional ones."""

    where: str
    name: str
    positional: list[str]
    optional: list[str]


def _definition(node: ast.FunctionDef, where: str, call_name: str,
                method: bool) -> Definition:
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    decorators = {d.id for d in node.decorator_list
                  if isinstance(d, ast.Name)}
    if method and "staticmethod" not in decorators:
        positional = positional[1:]
    # defaults fill the last positional parameters
    optional = positional[len(positional) - len(args.defaults):] \
        if args.defaults else []
    optional += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is not None]
    return Definition(where, call_name, positional, optional)


def public_definitions(path: Path, label: str) -> list[Definition]:
    """The public functions and methods of one module."""
    tree = ast.parse(path.read_text())
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and \
                not node.name.startswith("_"):
            defs.append(_definition(node, f"{label}:{node.lineno}",
                                    node.name, False))
        elif isinstance(node, ast.ClassDef) and \
                not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__"
                        or not item.name.startswith("_")):
                    call_name = node.name if item.name == "__init__" \
                        else item.name
                    defs.append(_definition(
                        item, f"{label}:{item.lineno}", call_name, True))
    return defs


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def set_by(call: ast.Call, definition: Definition) -> set[str]:
    """The parameters of ``definition`` that one call sets."""
    names = {k.arg for k in call.keywords if k.arg is not None}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            names.update(definition.positional[i:])
            break
        if i < len(definition.positional):
            names.add(definition.positional[i])
    return names


def scan(repo: Path) -> list[tuple[Definition, str, int]]:
    """(definition, optional parameter, call sites that set it) for
    every optional public parameter under ``repo/src``."""
    defs = []
    for path in sorted((repo / "src").rglob("*.py")):
        defs += public_definitions(path, path.relative_to(repo).as_posix())
    by_name: dict[str, list[int]] = {}
    for i, d in enumerate(defs):
        by_name.setdefault(d.name, []).append(i)
    counts = [dict.fromkeys(d.optional, 0) for d in defs]
    for folder in CALLER_DIRS:
        for path in sorted((repo / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                for i in by_name.get(_called_name(node), ()):
                    for p in set_by(node, defs[i]) & counts[i].keys():
                        counts[i][p] += 1
    return [(d, p, n) for d, c in zip(defs, counts) for p, n in c.items()]


def main(argv: list[str]) -> int:
    rows = scan(Path(argv[1] if len(argv) > 1 else "."))
    for d, p, n in rows:
        print(f"{n:6d}  {d.where} {d.name}({p})")
    print(f"{len(rows):6d}  optional public parameters")
    unset = [f"{d.where} {d.name}({p})" for d, p, n in rows if n == 0]
    print(f"{len(unset):6d}  set by no call site"
          + "".join(f"\n        {u}" for u in unset))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
