"""Wire counts are checked against the dimension cap by arithmetic,
before any dims tuple is built, so a huge count fails at once."""

import json
import time
import tracemalloc

import pytest

from qgamelab import bayes, formats
from qgamelab.cli import main
from qgamelab.errors import DimensionLimitError
from qgamelab.linalg import (
    basis_state,
    check_dims,
    check_wires,
    dimension_limit,
    ket,
)

HUGE = 10 ** 20


def _spec(tmp_path, **changes):
    doc = json.loads(formats.fixture_text("pd_ewl_3strat.json"))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**doc, **changes}), encoding="utf-8")
    return str(path)


def _exits_2_at_once(capsys, argv):
    started = time.perf_counter()
    code = main(argv + ["--output", "json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 2, out
    assert elapsed < 1.0, f"{argv} took {elapsed:.3f}s"
    error = json.loads(out)["error"]
    assert error["type"] == "DimensionLimitError"
    return error["message"]


@pytest.mark.parametrize("term", ["id(1000000)", "spider(1000000,1)",
                                  "spider(1,1000000)", f"id({HUGE})",
                                  f"spider({HUGE},0)", "cap * id(1000000)",
                                  "id(1000000) ; id(1000000)"])
def test_huge_diagram_wire_counts_exit_2_at_once(capsys, term):
    _exits_2_at_once(capsys, ["diagram-eval", term])


def test_huge_wire_counts_on_one_dimensional_wires_exit_2_at_once(capsys):
    message = _exits_2_at_once(capsys, ["diagram-eval", f"id({HUGE})",
                                        "--dim", "1"])
    assert f"{HUGE} wires" in message


SMALL_MATRIX = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize("changes", [
    {"players": HUGE, "entangler": "ewl"},
    {"players": HUGE, "entangler": {"matrix": SMALL_MATRIX}},
    {"players": 2, "dim": 10 ** 4000, "entangler": {"matrix": SMALL_MATRIX}},
], ids=["players-ewl", "players-matrix", "dim-matrix"])
def test_huge_ewl_specs_exit_2_at_once(tmp_path, capsys, changes):
    path = _spec(tmp_path, **changes)
    with pytest.raises(DimensionLimitError):
        formats.load_path(path)
    _exits_2_at_once(capsys, ["ewl-nash", path])


def test_ghz_distribution_is_capped_like_the_ghz_state(capsys):
    limit = dimension_limit().bit_length() - 1     # 2**12 = 4096
    message = _exits_2_at_once(
        capsys, ["ghz-dist", "--phases", ",".join(["0"] * (limit + 1))])
    assert "8192" in message
    assert main(["ghz-dist", "--phases", ",".join(["0"] * limit)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 ** limit
    with pytest.raises(DimensionLimitError):
        bayes.ghz_state(HUGE)


def test_check_wires_words_ordinary_sizes_as_check_dims_does():
    for d, n in [(2, 13), (3, 8), (4096, 2), (5, 30), (4097, 1)]:
        with pytest.raises(DimensionLimitError) as want:
            check_dims((d,) * n, "dims")
        with pytest.raises(DimensionLimitError) as got:
            check_wires(d, n, "dims")
        assert str(got.value) == str(want.value)
    for d, n in [(1, 4096), (2, 12), (4096, 1), (64, 2), (3, 0)]:
        assert check_wires(d, n, "dims") == check_dims((d,) * n, "dims")


def test_check_wires_refuses_more_one_dimensional_wires_than_the_cap():
    limit = dimension_limit()
    assert check_wires(1, limit, "dims") == (1,) * limit
    with pytest.raises(DimensionLimitError, match=f"{limit + 1} wires"):
        check_wires(1, limit + 1, "dims")


def test_ordinary_over_cap_specs_keep_the_check_that_fired_first(tmp_path):
    for entangler, first in [("ewl", "entangler dims give total dimension"),
                             ({"matrix": SMALL_MATRIX},
                              "in_dims give total dimension")]:
        path = _spec(tmp_path, players=13, entangler=entangler)
        with pytest.raises(DimensionLimitError) as caught:
            formats.load_path(path)
        assert str(caught.value) == \
            f"{first} 8192, above the configured limit 4096"


@pytest.mark.parametrize("make", [
    lambda: ket("0" * 20),
    lambda: ket("0" * 40),
    lambda: ket("1" * 13, dim=3),
    lambda: basis_state(0, (2,) * 20),
    lambda: basis_state(0, (2,) * 40),
], ids=["ket-20", "ket-40", "ket-13-qutrits", "basis-20", "basis-40"])
def test_basis_states_over_the_cap_refuse_before_allocating(make):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimitError, match="above the configured"):
            make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
