"""One-pass and recursive-descent parsers for the diagram language.

Grammar (whitespace-insensitive, ``#`` comments to end of line):

    diagram := par (";" par)*          ";" sequences, first applied first
    par     := atom ("*" atom)*        "*" tensors
    atom    := "id" "(" nat ")"
             | "spider" "(" nat "," nat ("," phase)? ")"
             | "cup" | "cap" | "swap"
             | "box" "(" ident ")" | "ket" "(" digits ")"
             | "(" diagram ")"
    phase   := ["-"] (real ["pi"] | "pi")     in radians

A ``nat``, ``digits`` or ``real`` is written with the ASCII digits 0-9.

The atom rules come from ``ATOM_SYNTAX`` in ``terms.py``, the one place
that lists each atom's keyword and arguments; ``pretty()`` reads it too.

``parse`` reads each well-formed atom with one match of ``_ATOM_RE``:
its keyword, its arguments, and any whitespace or comments inside it.
It builds the term in one pass over those matches (``_one_pass``), with
a stack of the groups that open parentheses left open, and builds an
atom's term once per distinct atom text in a call.  If any part of the
text is not a well-formed atom, ";", "*" or a parenthesis, or one of
these stands where it cannot, or the parentheses do not balance or nest
too deep, or a number is one no term holds, the whole text is parsed
again by recursive descent over its tokens (``_tokenize``), so each
error is derived exactly as from the per-lexeme tokens: the same
message, line, column and expected set.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from ..errors import DiagramSyntaxError
from .observables import PhaseElement
from .terms import ATOM_SYNTAX, DiagramTerm, Par, Seq

# Only the ASCII digits 0-9 are digits: ``\d`` would take every script's.
_NUMBER = (r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"
           r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?")

_TOKEN_RE = re.compile(rf"""
    (?P<skip>(?:[ \t\r\n]+|\#[^\n]*)+)
  | (?P<number>{_NUMBER})
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[();,*-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_ATOM_STARTERS = (*ATOM_SYNTAX, "(")

# Whitespace and comments between two tokens, as _TOKEN_RE skips them.
# A comment must run to the end of its line, and no two of these stand
# side by side in an atom's pattern, so a failed match backtracks in
# linear time.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"
_PHASE_PARTS = re.compile(rf"(-?){_SKIP}({_NUMBER})?")


def _phase(text: str) -> PhaseElement:
    """The phase that the text of a well-formed phase argument reads."""
    minus, number = _PHASE_PARTS.match(text).groups()
    value = float(number or 1) * (math.pi if text.endswith("pi") else 1.0)
    return PhaseElement.qubit(-value if minus else value)


# Each argument kind of ATOM_SYNTAX: how an error names it (the errors
# in a phase name its tokens instead), the pattern of its text, and its
# value read from that text.  Only a number token is all digits, and
# only an identifier token (so is an atom keyword) is an identifier, so
# a token is a "nat", "digits" or "name" if its text matches the pattern.
_ARGUMENTS = {
    "nat": ("natural number", r"[0-9]+", int),
    "digits": ("digit string", r"[0-9]+", str),
    "name": ("box name", r"[A-Za-z_][A-Za-z_0-9]*", str),
    "phase": ("phase", rf"(?:-{_SKIP})?(?=\.?[0-9]|pi)(?:{_NUMBER})?"
                       rf"(?:{_SKIP}pi)?", _phase)}


def _atom_pattern(keyword: str, kinds: tuple[str, ...]) -> str:
    """A group named ``keyword`` that matches one well-formed atom, with
    one group for each argument in it."""
    args = ""
    for i, kind in enumerate(kinds):
        arg = rf"{',' + _SKIP if i else ''}({_ARGUMENTS[kind][1]}){_SKIP}"
        args += f"(?:{arg})?" if kind == "phase" else arg
    body = rf"{_SKIP}\({_SKIP}{args}\)" if kinds else "(?![A-Za-z_0-9])"
    return f"(?P<{keyword}>{keyword}{body})"


_ATOM_RE = re.compile(rf"{_SKIP}(?:(?P<punct>[;*()])|" + "|".join(
    _atom_pattern(k, kinds) for k, (_, kinds) in ATOM_SYNTAX.items())
    + r"|(?P<eof>\Z)|(?P<bad>.))", re.DOTALL)

# Parentheses may nest this deep.  The recursive descent takes three
# stack frames per level and pretty() up to three, so the recursive
# walks over the AST stay well inside Python's default recursion limit
# of 1000.
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


def _joined(cls, parts: list) -> DiagramTerm:
    """The one part, or the ``Seq`` or ``Par`` (``cls``) of them all."""
    return parts[0] if len(parts) == 1 else cls(tuple(parts))


def _one_pass(text: str) -> DiagramTerm | None:
    """The term of ``text``, read straight from its ``_ATOM_RE`` matches,
    or None if anything in it is unusual: a character that starts no atom
    or punctuation, an operator where an operand belongs or the reverse,
    an unbalanced parenthesis, or nesting past MAX_NESTING.

    An open parenthesis pushes the ``(stages, factors)`` of the group it
    opens in, and an atom's term is built once per distinct atom text.
    """
    atoms, frames, stages, factors = {}, [], [], []
    operand = True      # an atom or "(" comes next, not ";", "*", ")" or eof
    for m in _ATOM_RE.finditer(text):
        kind, t = m.lastgroup, m[m.lastindex]
        if kind in ATOM_SYNTAX and operand:
            if t not in atoms:
                cls, kinds = ATOM_SYNTAX[kind]
                atoms[t] = cls(*(_ARGUMENTS[k][2](arg) for k, arg in zip(
                    kinds, m.groups()[m.lastindex:]) if arg is not None))
            factors.append(atoms[t])
            operand = False
        elif t == "(" and operand and len(frames) < MAX_NESTING:
            frames.append((stages, factors))
            stages, factors = [], []
        elif operand or t not in (";", "*", ")" if frames else ""):
            return None     # ")" closes a group, and eof ("") the text
        elif t == "*":
            operand = True
        else:
            stages.append(_joined(Par, factors))
            factors, operand = [], t == ";"
            if not operand:
                inner = _joined(Seq, stages)
                if not frames:
                    return inner
                stages, factors = frames.pop()
                factors.append(inner)


class _Parser:
    def __init__(self, text: str, tokens: list[Token]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def parse(self) -> DiagramTerm:
        term = self.parse_diagram()
        if self.tokens[self.pos].kind != "eof":
            self.fail((";", "*", "end of input"))
        return term

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
        return _joined(Seq, stages)

    def parse_par(self) -> DiagramTerm:
        factors = [self.parse_atom()]
        while self.accept("*"):
            factors.append(self.parse_atom())
        return _joined(Par, factors)

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
        tok = self.tokens[self.pos]
        label, pattern, value = _ARGUMENTS[kind]
        if not re.fullmatch(pattern, tok.text):
            self.fail((label,))
        self.pos += 1
        try:
            return value(tok.text)
        except ValueError:  # an int past Python's digit limit
            raise DiagramSyntaxError(
                f"{label} has {len(tok.text)} digits, more than Python "
                "reads as an int", *_position(self.text, tok.offset)) from None

    def parse_phase(self) -> float:
        sign = -1.0 if self.accept("-") else 1.0
        if self.accept("pi"):
            return sign * math.pi
        tok = self.tokens[self.pos]
        if tok.kind == "number":
            self.pos += 1
            times_pi = self.accept("pi")
            value = float(tok.text) * (math.pi if times_pi else 1.0)
            if math.isinf(value):
                raise DiagramSyntaxError(
                    f"phase {tok.text + 'pi' * times_pi!r}: expected a "
                    "finite number", *_position(self.text, tok.offset))
            return sign * value
        self.fail(("real number", "pi"))


def parse(text: str) -> DiagramTerm:
    """Parse diagram source text into an AST.

    Raises DiagramSyntaxError with line/column and the expected tokens.
    """
    try:
        term = _one_pass(text)
    except ValueError:  # an int past the digit limit, a phase that overflows
        term = None
    # a malformed text: find the error token by token
    return _Parser(text, _tokenize(text)).parse() if term is None else term
