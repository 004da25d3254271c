import math
import random
import re
import sys

import numpy as np
import pytest

from qgamelab.diagrams import (
    Box,
    Cap,
    Cup,
    Id,
    Ket,
    ObservableStructure,
    Par,
    PhaseElement,
    Seq,
    Spider,
    Swap,
    evaluate,
    parse,
    pretty,
    typecheck,
)
from qgamelab.diagrams.parse import MAX_NESTING, _position, _tokenize
from qgamelab.errors import (
    DiagramSyntaxError,
    UnboundBoxError,
    WireCountError,
)


def test_parse_spider_literal():
    assert parse("spider(0,3)") == Spider(0, 3)


def test_parse_seq_with_par():
    term = parse("spider(0,2) ; (id(1) * box(H))")
    assert term == Seq((Spider(0, 2), Par((Id(1), Box("H")))))


def test_parse_ket_preserves_leading_zeros():
    assert parse("ket(00)") == Ket("00")
    assert parse("ket(010)") == Ket("010")


def test_parse_atoms():
    assert parse("cup") == Cup()
    assert parse("cap") == Cap()
    assert parse("swap") == Swap()
    assert parse("id(0)") == Id(0)


def test_parse_phase_forms():
    assert parse("spider(1,1,pi)") == Spider(1, 1, PhaseElement.qubit(
        math.pi))
    assert parse("spider(1,1,0.5pi)") == Spider(1, 1, PhaseElement.qubit(
        math.pi / 2))
    assert parse("spider(1,1,1.25)") == Spider(1, 1, PhaseElement.qubit(
        1.25))
    # negative angles canonicalize into [0, 2*pi)
    assert parse("spider(1,1,-pi)") == Spider(1, 1, PhaseElement.qubit(
        math.pi))


def test_parse_nested_parens_and_precedence():
    # "*" binds tighter than ";"
    term = parse("id(1) * id(1) ; swap")
    assert term == Seq((Par((Id(1), Id(1))), Swap()))
    grouped = parse("id(1) * (id(1) ; id(1))")
    assert grouped == Par((Id(1), Seq((Id(1), Id(1)))))


def test_parse_whitespace_and_comments():
    text = """
    # prepare a pair
    spider(0,2) ;   # then swap it
    swap
    """
    assert parse(text) == Seq((Spider(0, 2), Swap()))


def test_parse_error_position_and_expected():
    with pytest.raises(DiagramSyntaxError) as err:
        parse("spider(0 2)")
    assert err.value.line == 1
    assert err.value.column == 10
    assert "," in err.value.expected
    assert "1:10" in str(err.value)


def test_parse_error_unknown_keyword():
    with pytest.raises(DiagramSyntaxError) as err:
        parse("widget(1)")
    assert "spider" in err.value.expected


def test_parse_error_trailing_garbage():
    with pytest.raises(DiagramSyntaxError) as err:
        parse("id(1) id(1)")
    assert ";" in err.value.expected and "*" in err.value.expected


def test_parse_error_bad_character():
    with pytest.raises(DiagramSyntaxError) as err:
        parse("id(1) @ id(1)")
    assert err.value.column == 7


def test_parse_error_unclosed_paren():
    with pytest.raises(DiagramSyntaxError):
        parse("(id(1) ; swap")


def test_parse_error_non_digit_ket():
    with pytest.raises(DiagramSyntaxError):
        parse("ket(ab)")


def test_pretty_round_trips():
    samples = [
        "spider(0,3)",
        "spider(1,2,0.5pi) ; (id(1) * box(U)) ; cap * id(1)",
        "ket(01) ; swap",
        "cup * cup ; id(1) * cap * id(1)",
        "id(1) * (spider(2,1) ; box(f))",
    ]
    for text in samples:
        term = parse(text)
        assert parse(pretty(term)) == term, text


_AWKWARD_PHASES = (0.0, -0.0, 1e-17, 1e-300, math.pi, -math.pi / 2,
                   2 * math.pi, 1e6 + 0.1)


def _random_term(rng, depth: int):
    """A seeded random term over every atom with concrete syntax, with Seq
    and Par of two or three parts nested down to `depth` levels."""
    kind = int(rng.integers(9 if depth > 0 else 7))
    if kind == 0:
        return Id(int(rng.integers(4)))
    if kind == 1:
        phase = None
        if rng.random() < 0.3:
            phase = PhaseElement.qubit(float(rng.choice(_AWKWARD_PHASES)))
        elif rng.random() < 0.7:
            phase = PhaseElement.qubit(float(rng.uniform(-10.0, 10.0)))
        return Spider(int(rng.integers(4)), int(rng.integers(4)), phase)
    if kind in (2, 3, 4):
        return (Cup(), Cap(), Swap())[kind - 2]
    if kind == 5:
        return Box(str(rng.choice(["U", "f_1", "pi", "id", "Box9"])))
    if kind == 6:
        return Ket("".join(rng.choice(list("0129"),
                                      size=int(rng.integers(1, 4)))))
    parts = tuple(_random_term(rng, depth - 1)
                  for _ in range(int(rng.integers(2, 4))))
    return Seq(parts) if kind == 7 else Par(parts)


def test_pretty_round_trips_random_terms():
    rng = np.random.default_rng(20110415)
    for _ in range(300):
        term = _random_term(rng, 4)
        assert parse(pretty(term)) == term, pretty(term)


def test_pretty_qudit_phase_has_no_syntax():
    term = Spider(1, 1, PhaseElement((0.0, 1.0, 2.0)))
    with pytest.raises(ValueError):
        pretty(term)


def test_typecheck_basics():
    assert typecheck(Id(2)) == (2, 2)
    assert typecheck(Spider(0, 3)) == (0, 3)
    assert typecheck(Cup()) == (0, 2)
    assert typecheck(Cap()) == (2, 0)
    assert typecheck(Swap()) == (2, 2)
    assert typecheck(Ket("010")) == (0, 3)


def test_typecheck_seq_and_par():
    term = parse("spider(0,2) ; (id(1) * spider(1,2))")
    assert typecheck(term) == (0, 3)


def test_typecheck_mismatch_reports_stage():
    term = Seq((Spider(0, 2), Id(3)))
    with pytest.raises(WireCountError) as err:
        typecheck(term)
    assert err.value.stage == 1
    assert err.value.produced == 2
    assert err.value.consumed == 3


def test_typecheck_box_signatures():
    term = parse("box(U) ; box(V)")
    assert typecheck(term, {"U": (1, 2), "V": (2, 1)}) == (1, 1)
    with pytest.raises(UnboundBoxError):
        typecheck(term, {"U": (1, 2)})
    with pytest.raises(UnboundBoxError):
        typecheck(term)


def test_ast_constructors_validate():
    with pytest.raises(ValueError):
        Id(-1)
    with pytest.raises(ValueError):
        Ket("")
    with pytest.raises(ValueError):
        Seq(())
    with pytest.raises(ValueError):
        Par(())


def test_phase_group_is_abelian_mod_2pi():
    a = PhaseElement.qubit(1.0)
    b = PhaseElement.qubit(5.9)
    assert (a + b).phases[1] == pytest.approx((1.0 + 5.9) % (2 * math.pi),
                                              abs=1e-12)
    assert (a + a.inverse()).phases == (0.0, 0.0)


def _nested(levels: int) -> str:
    """A 1 -> 1 diagram whose parentheses nest ``levels`` deep,
    alternating sequential and parallel composition."""
    src = "spider(1,1)"
    for k in range(levels):
        src = f"spider(1,1,0.5) ; ({src})" if k % 2 else f"id(0) * ({src})"
    return src


def test_parse_nesting_cap():
    term = parse(_nested(MAX_NESTING))
    assert typecheck(term) == (1, 1)
    assert parse(pretty(term)) == term
    assert evaluate(term, ObservableStructure.fourier(2)).is_unitary()

    text = _nested(MAX_NESTING + 1)
    with pytest.raises(DiagramSyntaxError) as info:
        parse(text)
    # the innermost "(" is the one past the cap
    assert info.value.line == 1
    assert info.value.column == text.rindex("(spider(1,1)") + 1

    with pytest.raises(DiagramSyntaxError) as info:
        parse("\n" + "(" * 2000 + "id(1)" + ")" * 2000)
    assert (info.value.line, info.value.column) == (2, MAX_NESTING + 1)


_OLD_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[();,*-])
""", re.VERBOSE)


def _loop_tokenize(text):
    """The tokenizer that tracked line and column per lexeme: a list of
    (kind, text, line, column), or the (line, column) of a bad character."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _OLD_TOKEN_RE.match(text, pos)
        if m is None:
            return (line, col)
        kind, lexeme = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append((kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


def test_tokenizer_positions_match_the_per_lexeme_loop():
    rng = random.Random(53)
    pieces = ["id", "(", "2", ")", ";", "*", "spider", ",", "-", "0.5",
              "pi", "box", "U", "ket", "01", " ", "  ", "\t", "\n", "\r\n",
              "# note\n", "#", ".5e-3", "1e9", "@", "$", "\f", "é"]
    bad = 0
    for trial in range(500):
        text = "".join(rng.choice(pieces)
                       for _ in range(rng.randrange(0, 40)))
        want = _loop_tokenize(text)
        if isinstance(want, tuple):
            bad += 1
            with pytest.raises(DiagramSyntaxError) as info:
                _tokenize(text)
            assert (info.value.line, info.value.column) == want, text
            continue
        got = [(t.kind, t.text, *_position(text, t.offset))
               for t in _tokenize(text)]
        assert got == want, text
    assert 100 < bad < 400


def test_parse_errors_report_line_and_column_from_the_offset():
    with pytest.raises(DiagramSyntaxError) as info:
        parse("id(1) ;\n  # comment\n\t  spider(1,1) *\n\n   )")
    assert (info.value.line, info.value.column) == (5, 4)
    with pytest.raises(DiagramSyntaxError) as info:
        parse("id(1)\n# trailing comment\n ;")
    assert (info.value.line, info.value.column) == (3, 3)


# ------------------------------------- the keyword-per-branch parser oracle


class _OracleParser:
    """The parser with one hand-written branch per atom keyword, from
    before the atoms' syntax moved into one table."""

    _ATOM_STARTERS = ("id", "spider", "cup", "cap", "swap", "box", "ket",
                      "(")

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        got = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise DiagramSyntaxError(
            f"unexpected {got}, expected one of: "
            f"{', '.join(sorted(expected))}",
            *_position(self.text, tok.offset), expected)

    def expect_punct(self, text: str):
        tok = self.peek()
        if tok.kind != "punct" or tok.text != text:
            self.fail((text,))
        return self.advance()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def parse_diagram(self):
        stages = [self.parse_par()]
        while self.at_punct(";"):
            self.advance()
            stages.append(self.parse_par())
        return stages[0] if len(stages) == 1 else Seq(tuple(stages))

    def parse_par(self):
        factors = [self.parse_atom()]
        while self.at_punct("*"):
            self.advance()
            factors.append(self.parse_atom())
        return factors[0] if len(factors) == 1 else Par(tuple(factors))

    def parse_atom(self):
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
            self.fail(self._ATOM_STARTERS)
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
        self.fail(self._ATOM_STARTERS)

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


def _oracle_parse(text: str):
    parser = _OracleParser(text)
    term = parser.parse_diagram()
    if parser.peek().kind != "eof":
        parser.fail((";", "*", "end of input"))
    return term


def _oracle_pretty(term) -> str:
    return _oracle_render_seq(term)


def _oracle_render_seq(term) -> str:
    if isinstance(term, Seq):
        return " ; ".join(_oracle_render_par(s) for s in term.stages)
    return _oracle_render_par(term)


def _oracle_render_par(term) -> str:
    if isinstance(term, Seq):
        return f"({_oracle_render_seq(term)})"
    if isinstance(term, Par):
        return " * ".join(_oracle_render_atom(f) for f in term.factors)
    return _oracle_render_atom(term)


def _oracle_render_atom(term) -> str:
    if isinstance(term, (Seq, Par)):
        return f"({_oracle_render_seq(term)})"
    if isinstance(term, Id):
        return f"id({term.wires})"
    if isinstance(term, Spider):
        if term.phase is None:
            return f"spider({term.inputs},{term.outputs})"
        if term.phase.dim != 2:
            raise ValueError(
                f"phase over {term.phase.dim} points has no concrete syntax")
        return f"spider({term.inputs},{term.outputs},{term.phase.phases[1]!r})"
    if isinstance(term, Cup):
        return "cup"
    if isinstance(term, Cap):
        return "cap"
    if isinstance(term, Swap):
        return "swap"
    if isinstance(term, Box):
        return f"box({term.name})"
    if isinstance(term, Ket):
        return f"ket({term.digits})"
    raise TypeError(f"not a diagram term: {term!r}")


def _outcome(parse_fn, text):
    """What parsing ``text`` gives: the AST, or every observable part of
    the error it raises."""
    try:
        return ("ast", parse_fn(text))
    except DiagramSyntaxError as err:
        return ("syntax", str(err), err.line, err.column, err.expected)
    except Exception as err:  # any other error must match too
        return (type(err).__name__, str(err))


_SOUP = ["id", "spider", "cup", "cap", "swap", "box", "ket", "pi", "U",
         "x_1", "0", "1", "2", "10", "007", "0.5", "1e3", ".5", "(", "(",
         ")", ")", ",", ",", ";", "*", "-", " ", " ", "# note\n", "\n",
         "@", "id", "(", ",", "pi", "1"]

_PHASES = ["pi", "-pi", "0.5pi", "- 0.25 pi", "1.25", "-3", ".5", "1e-3",
           "2.5e+2pi", "0", "7."]

_MUTATION_CHARS = "(),;*-.0123456789acdeiknoprswux_ #\n@"


def _gap(rng) -> str:
    return rng.choice(["", "", "", " ", "  ", "\n", "\t", " # c\n"])


def _random_atom(rng) -> list[str]:
    kind = rng.randrange(6)
    if kind == 0:
        return ["id", "(", str(rng.randrange(4)), ")"]
    if kind == 1:
        args = [str(rng.randrange(4)), ",", str(rng.randrange(4))]
        if rng.random() < 0.5:
            args += [",", rng.choice(_PHASES)]
        return ["spider", "(", *args, ")"]
    if kind == 2:
        return [rng.choice(["cup", "cap", "swap"])]
    if kind == 3:
        return ["box", "(", rng.choice(["U", "f_1", "pi", "id", "_x"]), ")"]
    if kind == 4:
        return ["ket", "(", rng.choice(["0", "01", "007", "9"]), ")"]
    return ["(", *_random_atom(rng), ")"]


def _random_source_tokens(rng, depth: int) -> list[str]:
    """The tokens of a seeded valid diagram: atoms joined by ";" and "*",
    some groups parenthesised, nested down to ``depth`` levels."""
    if depth == 0 or rng.random() < 0.4:
        return _random_atom(rng)
    sep = rng.choice([";", "*"])
    out = _random_source_tokens(rng, depth - 1)
    for _ in range(rng.randrange(1, 3)):
        out += [sep, *_random_source_tokens(rng, depth - 1)]
    return ["(", *out, ")"] if rng.random() < 0.6 else out


def _mutate(rng, text: str) -> str:
    pos = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0 or pos == len(text):
        return text[:pos] + rng.choice(_MUTATION_CHARS) + text[pos:]
    if op == 1:
        return text[:pos] + rng.choice(_MUTATION_CHARS) + text[pos + 1:]
    return text[:pos] + text[pos + 1:]


def test_table_driven_parser_matches_the_keyword_parser():
    rng = random.Random(20110043016)
    kinds = {}
    expected_seen = set()
    for trial in range(20000):
        if trial % 2:
            # token soup, often after the start of an atom
            head = _random_atom(rng)
            head = head[:rng.randrange(len(head) + 1)]
            text = "".join(head + [rng.choice(_SOUP)
                                   for _ in range(rng.randrange(0, 25))])
        else:
            tokens = _random_source_tokens(rng, 3)
            text = _gap(rng) + "".join(t + _gap(rng) for t in tokens)
            if rng.randrange(7) == 0:
                text = _mutate(rng, text)
        want = _outcome(_oracle_parse, text)
        assert _outcome(parse, text) == want, text
        kinds[want[0]] = kinds.get(want[0], 0) + 1
        if want[0] == "syntax":
            expected_seen.add(want[4])
    assert kinds["ast"] > 8000 and kinds["syntax"] > 5000, kinds
    for labels in [("natural number",), ("digit string",), ("box name",),
                   ("pi", "real number"), (",",), (")",), ("(",),
                   ("*", ";", "end of input"),
                   tuple(sorted(_OracleParser._ATOM_STARTERS))]:
        assert labels in expected_seen, labels


def test_table_driven_pretty_matches_the_keyword_renderer():
    rng = np.random.default_rng(1043016)
    for _ in range(2000):
        term = _random_term(rng, 4)
        assert pretty(term) == _oracle_pretty(term)
    qudit = Spider(1, 1, PhaseElement((0.0, 1.0, 2.0)))
    for bad, error in [(qudit, ValueError), (Par((Cup(), qudit)), ValueError),
                       (Seq((Id(1), qudit)), ValueError), (3, TypeError),
                       ("cup", TypeError), (None, TypeError),
                       (Par((Swap(), "id(1)")), TypeError)]:
        with pytest.raises(error) as want:
            _oracle_pretty(bad)
        with pytest.raises(error) as got:
            pretty(bad)
        assert str(got.value) == str(want.value)


# ------------------------------------------ one regex match per atom


def _spaced(rng, atom: str) -> str:
    """``atom`` with whitespace or a comment after some of its tokens."""
    gaps = ["", "", "", " ", "\n", " # in an atom\n", "\t"]
    out = re.sub(r"([(,])", lambda m: m.group() + rng.choice(gaps), atom)
    return re.sub(r"(\w)([(,)])", lambda m: m.group(1) + rng.choice(gaps)
                  + m.group(2), out)


def _bench_like_source(rng, wires: int, depth: int) -> str:
    """A diagram like the benchmark's long and wide ones: ``depth`` stages
    of ``id(j) * <atom> * id(k)`` and phased spiders, some grouped in
    parentheses, with comments and newlines between and inside atoms."""
    stages = []
    for _ in range(depth):
        j = rng.randrange(wires)
        atom = rng.choice([
            "spider(1,2)", "spider(2,1)", "swap", "cup", "cap", "ket(01)",
            f"spider(1,1,{rng.uniform(-math.pi, math.pi)!r})",
            f"spider(2,2,{rng.choice(['-', '- ', ''])}"
            f"{rng.choice(['0.25', '.5', '7.', '2.5e+2', ''])}pi)"])
        if rng.random() < 0.3:
            atom = _spaced(rng, atom)
        factors = [f"id({j})", atom, f"id({wires - j})"]
        stage = " * ".join(factors)
        if rng.random() < 0.2:
            stage = f"({factors[0]} * ({atom} ; {atom})) * {factors[2]}"
        stages.append(stage)
    seps = [" ;\n", ";", " ; # next stage\n  "]
    return "".join(s + rng.choice(seps) for s in stages[:-1]) + stages[-1]


def test_valid_sources_take_the_atom_path(monkeypatch):
    rng = random.Random(20260419)
    texts = [_bench_like_source(rng, wires, depth)
             for wires, depth in [(2, 300), (3, 250), (4, 200), (9, 6),
                                  (6, 12), (8, 8)]]
    texts += ["# a comment first\n(( swap ;\n cap ) * cup) ; ket ( 0012 )\n",
              "box(U) * box ( id ) ; spider(0,2,-pi) # last\n"]
    want = [_oracle_parse(text) for text in texts]
    assert sum(len(t.stages) for t in want if isinstance(t, Seq)) > 770

    def no_tokens(text):
        raise AssertionError("a valid source was lexed token by token")

    # the package's ``parse`` attribute is the function, not its module
    monkeypatch.setattr(sys.modules["qgamelab.diagrams.parse"], "_tokenize",
                        no_tokens)
    for text, term in zip(texts, want):
        assert parse(text) == term
    with pytest.raises(AssertionError, match="token by token"):
        parse("id(1) id(1)")


@pytest.mark.parametrize("text", [
    "cupcap", "idx(1)", "swap2", "id(1.)", "id(1e5)", "id(12abc)",
    "ket(0012)", "ket(0x)", "box(pi)", "box(id)", "spider ( 1 , 2 )",
    "spider(1,#c\n2)", "spider(1,2,- 0.25 pi)", "spider(1,2,.5pi)",
    "spider(1,2,7.pi)", "spider(1,2,1epi)", "spider(1,2,pix)",
    "spider(1,2,2.5e+2pi)",
    # more boundaries: a keyword as an argument, a comment that hides
    # the close, a phase split by comments, signs and numbers that end
    "cup.5", "cup;cap", "id(1)x", "box(cup)", "box(id(1))", "ket(swap)",
    "spider(1, id(1))", "id(1 # )\n)", "id(1 # )", "spider(1,2,-#c\n.5#d\npi)",
    "spider(1,2,-)", "spider(1,2,)", "spider(1,2,--1)", "spider(1,2,1e+)",
    "spider(1,2,pi pi)", "spider(1,2,0.5 0.5)", "spider(1,2,\n\n pi\n)",
    "id(١٢)", "id(²)", "box(é)", "box(x1é)", "box(_)", "ket(007) ;", "(id(1)", "id(1))", "", "  # only\n",
    "spider(1,2" + " " * 5000 + "x", "spider(1,2,-" + "\n" * 5000 + ")",
])
def test_atom_boundaries_match_the_oracle(text):
    assert _outcome(parse, text) == _outcome(_oracle_parse, text)
