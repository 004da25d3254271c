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
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..errors import DiagramSyntaxError
from .observables import PhaseElement
from .terms import (
    Box,
    Cap,
    Cup,
    DiagramTerm,
    Id,
    Ket,
    Par,
    Seq,
    Spider,
    Swap,
)

_TOKEN_RE = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|\#[^\n]*)+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[();,*-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_ATOM_STARTERS = ("id", "spider", "cup", "cap", "swap", "box", "ket", "(")

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

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> DiagramSyntaxError:
        tok = self.peek()
        got = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise DiagramSyntaxError(
            f"unexpected {got}, expected one of: "
            f"{', '.join(sorted(expected))}",
            *_position(self.text, tok.offset), expected)

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            self.fail((text,))
        return self.advance()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def parse_diagram(self) -> DiagramTerm:
        stages = [self.parse_par()]
        while self.at_punct(";"):
            self.advance()
            stages.append(self.parse_par())
        return stages[0] if len(stages) == 1 else Seq(tuple(stages))

    def parse_par(self) -> DiagramTerm:
        factors = [self.parse_atom()]
        while self.at_punct("*"):
            self.advance()
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else Par(tuple(factors))

    def parse_atom(self) -> DiagramTerm:
        tok = self.peek()
        if self.at_punct("("):
            if self.depth == MAX_NESTING:
                raise DiagramSyntaxError(
                    f"parentheses nest deeper than {MAX_NESTING} levels",
                    *_position(self.text, tok.offset))
            self.depth += 1
            self.advance()
            inner = self.parse_diagram()
            self.expect_punct(")")
            self.depth -= 1
            return inner
        if tok.kind != "ident":
            self.fail(_ATOM_STARTERS)
        if tok.text == "id":
            self.advance()
            self.expect_punct("(")
            wires = self.parse_nat()
            self.expect_punct(")")
            return Id(wires)
        if tok.text == "spider":
            self.advance()
            self.expect_punct("(")
            inputs = self.parse_nat()
            self.expect_punct(",")
            outputs = self.parse_nat()
            phase = None
            if self.at_punct(","):
                self.advance()
                phase = PhaseElement.qubit(self.parse_phase())
            self.expect_punct(")")
            return Spider(inputs, outputs, phase)
        if tok.text == "cup":
            self.advance()
            return Cup()
        if tok.text == "cap":
            self.advance()
            return Cap()
        if tok.text == "swap":
            self.advance()
            return Swap()
        if tok.text == "box":
            self.advance()
            self.expect_punct("(")
            name = self.peek()
            if name.kind != "ident":
                self.fail(("box name",))
            self.advance()
            self.expect_punct(")")
            return Box(name.text)
        if tok.text == "ket":
            self.advance()
            self.expect_punct("(")
            digits = self.peek()
            if digits.kind != "number" or not digits.text.isdigit():
                self.fail(("digit string",))
            self.advance()
            self.expect_punct(")")
            return Ket(digits.text)
        self.fail(_ATOM_STARTERS)

    def parse_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            self.fail(("natural number",))
        self.advance()
        return int(tok.text)

    def parse_phase(self) -> float:
        sign = 1.0
        if self.at_punct("-"):
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "pi":
            self.advance()
            return sign * math.pi
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text == "pi":
                self.advance()
                value *= math.pi
            return sign * value
        self.fail(("real number", "pi"))


def parse(text: str) -> DiagramTerm:
    """Parse diagram source text into an AST.

    Raises DiagramSyntaxError with line/column and the expected tokens.
    """
    parser = _Parser(text)
    term = parser.parse_diagram()
    if parser.peek().kind != "eof":
        parser.fail((";", "*", "end of input"))
    return term
