"""The one-pass parser's stack machine against the keyword parser.

``parse`` reads a well-formed text in one pass over its atom matches,
with a stack of open groups and a flag for whether an operand or an
operator comes next, and hands anything unusual to the token path.
Each case here must give the outcome the keyword parser of
tests/test_diagram_parse.py gives: the same AST, or the same error
message, line, column and expected set.  A valid case must also parse
with the token path switched off.
"""

import random
import sys

import pytest

from qgamelab.diagrams import parse
from qgamelab.diagrams.parse import MAX_NESTING, _tokenize
from test_diagram_parse import (
    _nested,
    _oracle_parse,
    _outcome,
    _random_atom,
)

_STACK_EDGES = ["()", "(;id(1))", "id(1) ; ; id(1)", "* id(1)", "id(1) *",
                ")", "id(1))", "((id(1))", "(id(1)", "(id(1)) (id(1))",
                "id(1) (id(1))", "(id(1)) id(1)", "id(1) ;", "; id(1)",
                "(id(1) ;) ; id(1)", "(id(1) *)", "(*id(1))", "((id(1)))",
                "(id(1)) * (id(1) ; id(1)) ; (id(2))", "id(1) ) (", ""]

_BOXES = ["box(U)", "box(U) * box(V) ; box(W)", "box ( f_1 ) ; (box(g))",
          "box(id) * box(pi) ; box(spider)", "box(U) box(V)", "box()",
          "box(1)", "(box(U) * id(1)) ; box(U)"]


def _spread(text: str) -> str:
    """``text`` with a comment and whitespace between every two tokens,
    and before the first and after the last."""
    gap = " # gap ( ; * )\n\t "
    return gap + gap.join(tok.text for tok in _tokenize(text)[:-1]) + gap


def _random_source(rng, atoms: int) -> str:
    """A seeded valid diagram of ``atoms`` atoms: runs of atoms joined by
    ";" or "*", some of them wrapped in parentheses, nested a few deep."""
    parts = ["".join(_random_atom(rng)) for _ in range(atoms)]
    while len(parts) > 1:
        runs = []
        while parts:
            k = rng.randrange(2, 6)
            run = rng.choice([";", " * ", " ;\n"]).join(parts[:k])
            runs.append(f"({run})" if rng.random() < 0.3 else run)
            del parts[:k]
        parts = runs
    return parts[0]


def _cases() -> list[str]:
    rng = random.Random(30)
    return (_STACK_EDGES + _BOXES
            + [_nested(MAX_NESTING), _nested(MAX_NESTING + 1),
               "(" * MAX_NESTING + "id(1)" + ")" * MAX_NESTING,
               "(" * (MAX_NESTING + 1) + "id(1)" + ")" * (MAX_NESTING + 1)]
            + [_spread(text) for text in _STACK_EDGES + _BOXES]
            + [_spread(_nested(MAX_NESTING)), _spread(_nested(4))]
            + [_random_source(rng, 20_000)])


_CASES = _cases()


def test_the_cases_cover_both_outcomes():
    kinds = [_outcome(_oracle_parse, text)[0] for text in _CASES]
    assert kinds.count("ast") > 15 and kinds.count("syntax") > 25


@pytest.mark.parametrize("index", range(len(_CASES)))
def test_each_case_matches_the_keyword_parser(index):
    text = _CASES[index]
    assert _outcome(parse, text) == _outcome(_oracle_parse, text)


def test_stack_edits_match_the_keyword_parser():
    """Parentheses and operators put in, taken out and swapped at seeded
    places in valid sources."""
    rng = random.Random(43016)
    kinds = []
    for _ in range(1500):
        text = _random_source(rng, rng.randrange(1, 12))
        for _ in range(rng.randrange(1, 3)):
            pos = rng.randrange(len(text) + 1)
            cut = rng.choice([0, 1]) if pos < len(text) else 0
            text = text[:pos] + rng.choice("();*") + text[pos + cut:]
        want = _outcome(_oracle_parse, text)
        assert _outcome(parse, text) == want, text
        kinds.append(want[0])
    assert kinds.count("ast") > 30 and kinds.count("syntax") > 1000


def test_valid_cases_parse_without_the_token_path(monkeypatch):
    valid = [(text, _oracle_parse(text)) for text in _CASES
             if _outcome(_oracle_parse, text)[0] == "ast"]
    assert max(len(text) for text, _ in valid) > 100_000

    def no_tokens(text):
        raise AssertionError("a valid source was lexed token by token")

    monkeypatch.setattr(sys.modules["qgamelab.diagrams.parse"], "_tokenize",
                        no_tokens)
    for text, term in valid:
        assert parse(text) == term
