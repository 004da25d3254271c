"""The trace's leg bound is check_wires's rule.

The normal-form trace reads the dimension cap once, as the most legs of
dimension d it allows, and calls ``check_wires`` only for an atom with
more legs than that.  So every atom must still raise exactly when
``check_wires`` on its legs raises, with the same message, at caps just
below, at and just above each power of d, and at the cap current when
each ``evaluate`` call starts.
"""

import pytest

from qgamelab.diagrams import (
    Id,
    Ket,
    ObservableStructure,
    Par,
    Seq,
    Spider,
    evaluate,
    normal_form,
)
from qgamelab.errors import DimensionLimitError
from qgamelab.linalg import (
    DEFAULT_DIMENSION_LIMIT,
    check_wires,
    dimension_limit,
    set_dimension_limit,
)


def _refusal(call) -> str | None:
    """The message of the DimensionLimitError ``call`` raises, if any."""
    try:
        call()
    except DimensionLimitError as err:
        return str(err)
    return None


def _caps(d: int) -> list[int]:
    """d^k - 1, d^k and d^k + 1 for a few k, with 1 and 4096."""
    caps = {1, DEFAULT_DIMENSION_LIMIT}
    for k in range(1, 6):
        caps.update(d ** k + step for step in (-1, 0, 1))
    return sorted(cap for cap in caps if cap >= 1)


def _counts(d: int) -> list[int]:
    """Leg counts on both sides of the most that the cap allows, found by
    asking ``check_wires`` about 0, 1, 2, ... legs in turn."""
    most = 0
    while _refusal(lambda: check_wires(d, most + 1, "legs")) is None:
        most += 1
    return [n for n in range(most - 2, most + 4) if n >= 1]


def _wires(n: int, atom):
    """n copies of ``atom`` side by side, or the atom itself for n = 1."""
    return atom if n == 1 else Par((atom,) * n)


_IN, _OUT = "spider input dims", "spider output dims"


def _scalar_diagrams(n: int):
    """Scalar diagrams with an n-leg atom, each with the ``check_wires``
    calls that a trace checking every atom's legs makes, in order."""
    opened, closed = _wires(n, Spider(0, 1)), _wires(n, Spider(1, 0))
    opens, closes = [(0, _IN), (1, _OUT)] * n, [(1, _IN), (0, _OUT)] * n
    return [(Seq((opened, Spider(n, 0))), opens + [(n, _IN), (0, _OUT)]),
            (Seq((Spider(0, n), Spider(n, 0))),
             [(0, _IN), (n, _OUT), (n, _IN), (0, _OUT)]),
            (Seq((opened, Id(n), closed)), opens + [(n, "dims")] + closes),
            (Seq((Ket("0" * n), closed)), [(n, "ket dims")] + closes)]


def _first_refusal(d: int, checks) -> str | None:
    for legs, what in checks:
        message = _refusal(lambda: check_wires(d, legs, what))
        if message is not None:
            return message
    return None


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_each_atom_raises_exactly_when_check_wires_does(d):
    obs = ObservableStructure.computational(d)
    limit = dimension_limit()
    outcomes = set()
    try:
        for cap in _caps(d):
            set_dimension_limit(cap)
            for n in _counts(d):
                for term, checks in _scalar_diagrams(n):
                    want = _first_refusal(d, checks)
                    assert _refusal(lambda: evaluate(term, obs)) == want, \
                        (cap, n, checks[-1])
                    assert _refusal(lambda: normal_form(term, obs)) == want
                    outcomes.add(want is None)
    finally:
        set_dimension_limit(limit)
    assert outcomes == {True, False}


def test_each_evaluate_call_reads_the_cap_current_when_it_starts():
    z = ObservableStructure.computational(2)
    term = Seq((_wires(12, Spider(0, 1)), Spider(12, 0)))
    limit = dimension_limit()
    try:
        assert evaluate(term, z).array.shape == (1, 1)
        set_dimension_limit(2048)
        with pytest.raises(DimensionLimitError) as err:
            evaluate(term, z)
        assert str(err.value) == _refusal(lambda: check_wires(2, 12, _IN))
        assert str(err.value).endswith("limit 2048")
        set_dimension_limit(4096)
        assert evaluate(term, z).array.shape == (1, 1)
    finally:
        set_dimension_limit(limit)
