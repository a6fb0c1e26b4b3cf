from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from multirec.errors import DegenerateDirection, DimensionError
from multirec.lattice import (
    FiniteWord,
    WordSource,
    directional_letter,
    factor_at,
    iter_box,
    normalize_direction,
    translate_origin,
    vec_add,
    vec_scale,
)

short_vec = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple)


def checkerboard() -> WordSource:
    return WordSource(2, 2, lambda p: (p[0] + p[1]) % 2, name="checkerboard")


def test_iter_box_runs_first_coordinate_fastest():
    assert list(iter_box((2, 3))) == [
        (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2),
    ]


def test_iter_box_of_an_empty_side_yields_nothing():
    assert list(iter_box((0, 2))) == []


def test_finite_word_flat_layout_matches_iter_box():
    w = FiniteWord.from_function((3, 2), lambda p: p[0] + 10 * p[1])
    assert w.cells == (0, 1, 2, 10, 11, 12)
    assert w[(2, 1)] == 12


def test_from_nested_is_bottom_row_first():
    w = FiniteWord.from_nested([[1, 0], [0, 1]])
    assert w.size == (2, 2)
    assert w[(0, 0)] == 1 and w[(1, 1)] == 1
    assert w.to_nested() == [[1, 0], [0, 1]]


@given(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
       st.integers(0, 97))
def test_nested_round_trip(size, salt):
    w = FiniteWord.from_function(size, lambda p: (sum(p) + salt) % 5)
    assert FiniteWord.from_nested(w.to_nested()) == w


def test_normalize_direction_divides_out_gcd():
    assert normalize_direction((4, 6)) == (2, 3)
    assert normalize_direction((0, 5)) == (0, 1)
    assert normalize_direction((6, 10, 15)) == (6, 10, 15)


def test_normalize_direction_rejects_zero_and_negative():
    with pytest.raises(DegenerateDirection):
        normalize_direction((0, 0))
    with pytest.raises(ValueError):
        normalize_direction((-2, 1))


@given(short_vec.filter(lambda v: any(v)))
def test_normalize_direction_idempotent_and_coprime(v):
    q = normalize_direction(v)
    assert normalize_direction(q) == q
    assert math.gcd(*q) == 1


def test_factor_at_reads_a_rectangle():
    f = factor_at(checkerboard(), (1, 2), (2, 2))
    assert f.cells == (1, 0, 0, 1)


@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda q: any(q)),
       st.integers(0, 30))
def test_directional_letter_is_the_factor_at_ell_q(q, ell):
    w = checkerboard()
    block = directional_letter(w, q, (2, 1), ell)
    assert block == factor_at(w, vec_scale(q, ell), (2, 1))
    assert block.cells[0] == w.letter(vec_scale(q, ell))


def test_translate_origin_shifts_evaluation():
    w = translate_origin(checkerboard(), (1, 0))
    assert w.letter((0, 0)) == 1
    assert w.letters_along((0, 0), (1, 0), 4).tolist() == [1, 0, 1, 0]


@given(st.tuples(st.integers(0, 9), st.integers(0, 9)),
       st.tuples(st.integers(0, 9), st.integers(0, 9)))
def test_translate_origin_composes_additively(p, r):
    w = checkerboard()
    twice = translate_origin(translate_origin(w, p), r)
    once = translate_origin(w, vec_add(p, r))
    probe = [(0, 0), (3, 1), (2, 5)]
    assert [twice.letter(x) for x in probe] == [once.letter(x) for x in probe]


def test_word_source_checks_dimension():
    with pytest.raises(DimensionError):
        checkerboard().letter((1, 2, 3))


def test_letters_along_matches_pointwise_evaluation():
    w = checkerboard()
    line = w.letters_along((1, 0), (2, 1), 6).tolist()
    assert line == [w.letter((1 + 2 * i, i)) for i in range(6)]
