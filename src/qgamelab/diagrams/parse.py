"""Tokenizer and recursive-descent parser for the diagram language.

Grammar (whitespace-insensitive, ``#`` comments to end of line):

    diagram := par (";" par)*          ";" sequences, first applied first
    par     := atom ("*" atom)*        "*" tensors
    atom    := "id" "(" nat ")"
             | "spider" "(" nat "," nat ("," phase)? ")"
             | "cup" | "cap" | "swap"
             | "box" "(" ident ")" | "ket" "(" digits ")"
             | "(" diagram ")"
    phase   := ["-"] (real ["pi"] | "pi")     in radians

The atom rules come from ``ATOM_SYNTAX`` in ``terms.py``, the one place
that lists each atom's keyword and arguments; ``pretty()`` reads it too.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..errors import DiagramSyntaxError
from .observables import PhaseElement
from .terms import ATOM_SYNTAX, DiagramTerm, Par, Seq

_TOKEN_RE = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|\#[^\n]*)+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[();,*-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_ATOM_STARTERS = (*ATOM_SYNTAX, "(")

# Each argument kind of ATOM_SYNTAX except "phase": how an error names
# it, and the test its token's text must pass.  Only number tokens are
# all digits, and only identifier tokens are identifiers (so are the
# atom keywords).
_ARGUMENTS = {"nat": ("natural number", str.isdigit),
              "digits": ("digit string", str.isdigit),
              "name": ("box name", str.isidentifier)}

# Parentheses may nest this deep.  Parsing takes three stack frames per
# level and pretty() up to three, so the recursive walks over the AST
# stay well inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str       # "number" | "ident" | "punct" | "eof"
    text: str
    offset: int     # index of the first character in the source


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise DiagramSyntaxError(f"unexpected character {m.group()!r}",
                                     *_position(text, m.start()))
        if m.lastgroup != "skip":
            tokens.append(Token(m.lastgroup, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def fail(self, expected: tuple[str, ...]) -> DiagramSyntaxError:
        tok = self.tokens[self.pos]
        got = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise DiagramSyntaxError(
            f"unexpected {got}, expected one of: "
            f"{', '.join(sorted(expected))}",
            *_position(self.text, tok.offset), expected)

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``, a punctuation
        character or "pi": no token of another kind has such a text."""
        if self.tokens[self.pos].text != text:
            return False
        self.pos += 1
        return True

    def expect(self, punct: str) -> None:
        if not self.accept(punct):
            self.fail((punct,))

    def parse_diagram(self) -> DiagramTerm:
        stages = [self.parse_par()]
        while self.accept(";"):
            stages.append(self.parse_par())
        return stages[0] if len(stages) == 1 else Seq(tuple(stages))

    def parse_par(self) -> DiagramTerm:
        factors = [self.parse_atom()]
        while self.accept("*"):
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else Par(tuple(factors))

    def parse_atom(self) -> DiagramTerm:
        tok = self.tokens[self.pos]
        if self.accept("("):
            if self.depth == MAX_NESTING:
                raise DiagramSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING} levels",
                    *_position(self.text, tok.offset))
            self.depth += 1
            inner = self.parse_diagram()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.text not in ATOM_SYNTAX:
            self.fail(_ATOM_STARTERS)
        self.pos += 1
        cls, kinds = ATOM_SYNTAX[tok.text]
        if not kinds:
            return cls()
        self.expect("(")
        args = []
        for i, kind in enumerate(kinds):
            if kind == "phase":
                if self.accept(","):
                    args.append(PhaseElement.qubit(self.parse_phase()))
                break
            if i:
                self.expect(",")
            args.append(self.parse_argument(kind))
        self.expect(")")
        return cls(*args)

    def parse_argument(self, kind: str) -> int | str:
        text = self.tokens[self.pos].text
        label, valid = _ARGUMENTS[kind]
        if not valid(text):
            self.fail((label,))
        self.pos += 1
        return int(text) if kind == "nat" else text

    def parse_phase(self) -> float:
        sign = -1.0 if self.accept("-") else 1.0
        if self.accept("pi"):
            return sign * math.pi
        tok = self.tokens[self.pos]
        if tok.kind == "number":
            self.pos += 1
            value = float(tok.text)
            if self.accept("pi"):
                value *= math.pi
            return sign * value
        self.fail(("real number", "pi"))


def parse(text: str) -> DiagramTerm:
    """Parse diagram source text into an AST.

    Raises DiagramSyntaxError with line/column and the expected tokens.
    """
    parser = _Parser(text)
    term = parser.parse_diagram()
    if parser.tokens[parser.pos].kind != "eof":
        parser.fail((";", "*", "end of input"))
    return term
