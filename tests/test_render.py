from __future__ import annotations

import json

import pytest

from multirec.errors import InvalidInput
from multirec.generators import preset_word
from multirec.lattice import FiniteWord
from multirec.render import (
    UNDEFINED,
    read_grid_fixture,
    render_rows,
    sample_rows,
    to_csv,
    to_json,
    to_pbm,
    to_pgm,
    to_text,
)

ROWS = [[0, 1, 2], [1, 1, 0]]  # bottom row first


def write_grid_fixture(path, rows, alphabet_size: int) -> None:
    """The fixture text read_grid_fixture parses: a dims/alphabet header,
    then the rows top first, with ? for an undefined cell."""
    lines = [f"dims={len(rows[0])}x{len(rows)} alphabet={alphabet_size}"]
    lines += [" ".join("?" if c == UNDEFINED else str(c) for c in row) for row in reversed(rows)]
    path.write_text("\n".join(lines) + "\n")


def test_sample_rows_bottom_first():
    w = preset_word("sierpinski")
    rows = sample_rows(w, (4, 2))
    assert rows == [[1, 1, 1, 1], [1, 0, 1, 0]]


def test_sample_rows_accepts_finite_words():
    fw = FiniteWord((3, 2), (0, 1, 2, 1, 1, 0))
    assert sample_rows(fw, (3, 2)) == ROWS


def test_sample_rows_one_dimensional():
    w = preset_word("sierpinski")
    row = sample_rows(w, (5,))
    assert row == [[1, 1, 1, 1, 1]]


def test_sample_rows_rejects_higher_dimensions():
    fw = FiniteWord((2, 2, 2), (0,) * 8)
    with pytest.raises(InvalidInput):
        sample_rows(fw, (2, 2, 2))


def test_text_prints_top_row_first():
    assert to_text(ROWS) == "1 1 0\n0 1 2"


def test_csv_matches_text_orientation():
    assert to_csv(ROWS) == "1,1,0\n0,1,2"


def test_json_keeps_storage_order():
    assert json.loads(to_json(ROWS)) == ROWS


def test_undefined_cells_render_as_question_marks():
    rows = [[-1, 1], [0, -1]]
    assert to_text(rows) == "0 ?\n? 1"
    assert to_csv(rows) == "0,?\n?,1"


def test_pbm_header_and_body():
    out = to_pbm([[0, 1], [1, 0]], 2)
    assert out == "P1\n2 2\n1 0\n0 1\n"


def test_pbm_rejects_larger_alphabets():
    with pytest.raises(InvalidInput):
        to_pbm(ROWS, 3)


def test_pgm_spreads_letters_linearly():
    out = to_pgm(ROWS, 3)
    lines = out.splitlines()
    assert lines[:3] == ["P2", "3 2", "255"]
    assert lines[3] == "128 128 0"
    assert lines[4] == "0 128 255"


def test_image_formats_reject_undefined_cells():
    with pytest.raises(InvalidInput):
        to_pbm([[0, -1]], 2)
    with pytest.raises(InvalidInput):
        to_pgm([[0, -1]], 2)


def test_render_spec_dispatch():
    assert render_rows(ROWS, 3, "text") == to_text(ROWS)
    assert render_rows(ROWS, 3, "csv") == to_csv(ROWS)
    assert render_rows(ROWS, 3, "json") == to_json(ROWS)
    assert render_rows(ROWS, 3, "pgm") == to_pgm(ROWS, 3)
    with pytest.raises(InvalidInput):
        render_rows(ROWS, 3, "svg")


def test_fixture_round_trip(tmp_path):
    path = tmp_path / "grid.txt"
    rows = [[0, -1, 2], [1, 1, 0]]
    write_grid_fixture(path, rows, 3)
    back, alphabet = read_grid_fixture(path)
    assert back == rows
    assert alphabet == 3
    assert path.read_text().splitlines()[0] == "dims=3x2 alphabet=3"


def test_fixture_dims_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dims=2x2 alphabet=2\n0 1\n")
    with pytest.raises(InvalidInput):
        read_grid_fixture(path)
