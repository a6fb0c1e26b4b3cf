from __future__ import annotations

import math
from collections import Counter
from unittest import mock

import pytest
import numpy as np
from hypothesis import example, given, strategies as st

from multirec import lattice
from multirec.errors import DegenerateDirection, DimensionError, InvalidInput
from multirec.generators import thue_morse_word
from multirec.lattice import (
    FiniteWord,
    WordSource,
    directional_letter,
    factor_at,
    iter_box,
    normalize_direction,
    read_slices,
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


def nested_reference(w: FiniteWord):
    """to_nested by recursion over the axes, last coordinate outermost."""
    def rec(axis: int, partial: tuple):
        if axis < 0:
            return w[partial]
        return [rec(axis - 1, (i, *partial)) for i in range(w.size[axis])]

    return rec(w.dimension - 1, ())


@st.composite
def blocks(draw):
    """Blocks of dimension 1 to 3 whose cells mix 2^63, -1 and ints past 2^64."""
    size = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple))
    cell = st.one_of(st.sampled_from([2**63, -1, 0, 1]), st.integers(-2**70, 2**70))
    return FiniteWord(size, draw(st.lists(cell, min_size=math.prod(size),
                                          max_size=math.prod(size))))


@given(blocks())
@example(FiniteWord((2, 2), (2**63, -1, 2**64 + 1, 0)))
def test_nested_round_trip(w):
    nested = w.to_nested()
    # repr tells 2**63 from the float 9.223372036854776e+18 that equals it
    assert repr(nested) == repr(nested_reference(w))
    assert FiniteWord.from_nested(nested) == w


@pytest.mark.parametrize("nested", [
    [[0, 1], [1]],
    [[0, 1], [1, 0, 1]],
    [[0, 1], 1],
    [0, [1]],
    [[[0], [1]], [[0], 1]],
], ids=["short", "long", "mixed-depth", "leaf-first", "mixed-depth-3d"])
def test_from_nested_refuses_a_ragged_nesting(nested):
    with pytest.raises(ValueError):
        FiniteWord.from_nested(nested)


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


def test_word_source_checks_dimension():
    with pytest.raises(DimensionError):
        checkerboard().letter((1, 2, 3))


def test_letters_along_matches_pointwise_evaluation():
    w = checkerboard()
    line = w.letters_along((1, 0), (2, 1), 6).tolist()
    assert line == [w.letter((1 + 2 * i, i)) for i in range(6)]


_REACH = 1 << 62


def recording_checkerboard():
    """The checkerboard with a line builder and an evaluator that log their
    calls: (starts, steps, ells) of paired lines as lists, and pointwise
    positions."""
    lines, points = [], []

    def builder(starts, steps, ells):
        assert starts.shape == steps.shape and starts.dtype == steps.dtype == np.int64
        lines.append((starts.tolist(), steps.tolist(), ells.tolist()))
        return (starts.sum(axis=1)[:, None] + steps.sum(axis=1)[:, None] * ells) % 2

    def evaluator(p):
        points.append(p)
        return sum(p) % 2

    return WordSource(2, 2, evaluator, line_builder=builder, name="recorded"), lines, points


@pytest.mark.parametrize("start, step, ells", [
    ((0, 0), (1, 1), [0, 1, 2]),
    ((_REACH - 4, 0), (1, 0), [0, 3]),
    ((5, 0), (_REACH - 6, 1), [0, 1]),
    ((3, 0), (_REACH - 4, 0), [0]),
])
def test_lines_below_the_reach_go_to_the_builder(start, step, ells):
    w, lines, points = recording_checkerboard()
    line = w.letters_along(start, step, ells)
    assert line.dtype == np.int64
    assert line.tolist() == [(sum(start) + sum(step) * ell) % 2 for ell in ells]
    assert lines == [([list(start)], [list(step)], ells)] and points == []


@pytest.mark.parametrize("start, step, ells", [
    ((_REACH - 3, 0), (1, 0), [0, 3]),
    ((0, _REACH), (0, 0), [0, 1]),
    ((1, 0), (0, _REACH), [0]),
    ((5, 0), (_REACH // 2, 1), [1, 2]),
    ((10**30, 7), (3, 0), [0, 1, 5]),
])
def test_lines_reaching_2_62_are_read_pointwise(start, step, ells):
    w, lines, points = recording_checkerboard()
    line = w.letters_along(start, step, ells)
    expected = [vec_add(start, vec_scale(step, ell)) for ell in ells]
    assert line.dtype == np.int64
    assert line.tolist() == [sum(p) % 2 for p in expected]
    assert lines == [] and points == expected


@pytest.mark.parametrize("multipliers", [0, [], np.array([], dtype=np.int64)])
def test_empty_reads_call_neither_builder_nor_evaluator(multipliers):
    w, lines, points = recording_checkerboard()
    for start, step in (((0, 0), (1, 0)), ((-1, 0), (1, 0)), ((0, 0), (0, -1))):
        line = w.letters_along(start, step, multipliers)
        assert line.dtype == np.int64 and line.shape == (0,)
    assert lines == [] and points == []


@pytest.mark.parametrize("start, step, ells", [
    ((-1, 0), (1, 0), 3),
    ((0, 4), (1, -1), 2),
    ((0, 0), (1, 1), [-1, 0, 1]),
    ((-1, 10**30), (0, 1), 1),
])
def test_lines_leaving_n_d_raise(start, step, ells):
    w, lines, points = recording_checkerboard()
    with pytest.raises(InvalidInput, match="leaves N\\^2"):
        w.letters_along(start, step, ells)
    assert lines == [] and points == []


def test_negative_positions_raise():
    w, _, points = recording_checkerboard()
    for p in ((-1, 0), (0, -5)):
        with pytest.raises(InvalidInput, match="outside N\\^2"):
            w.letter(p)
        with pytest.raises(InvalidInput):
            factor_at(w, p, (2, 2))
    assert points == []


def test_the_gate_names_the_first_line_that_leaves_n_d_start_major():
    w, lines, points = recording_checkerboard()
    starts, steps = [(4, 1), (2, 3)], [(1, 0), (0, -1), (1, 1)]
    with pytest.raises(InvalidInput) as err:
        w.letters_on_lines(starts, steps, 3)
    assert str(err.value) == "the line (4, 1) + ell*(0, -1) for ell in [0, 2] leaves N^2"
    assert lines == [] and points == []


def test_a_start_past_int64_is_read_pointwise():
    w, lines, points = recording_checkerboard()
    far = 1 << 64
    out = w.letters_on_lines([(far, 1), (0, 0)], [(1, 0), (0, 1)], 2)
    assert out.dtype == np.int64
    assert out.tolist() == _family_letters([(far, 1), (0, 0)], [(1, 0), (0, 1)], range(2))
    assert lines == [] and len(points) == 8


def test_the_gate_takes_the_least_and_greatest_multiplier_in_any_order():
    """Unsorted multipliers: the far one sends the line to pointwise reads
    (the letter at 2^70 is 1), and a negative one leaves N^1."""
    w = thue_morse_word()
    assert w.letters_along((0,), (1 << 40,), [1 << 30, 0]).tolist() == [1, 0]
    with pytest.raises(InvalidInput, match="leaves N\\^1"):
        w.letters_along((0,), (1,), [5, -1])


@pytest.mark.parametrize("multipliers", [range(3, 11), range(9, 0, -2), range(4, 4)])
def test_a_range_reads_as_its_list(multipliers):
    w, lines, _ = recording_checkerboard()
    starts, steps = [(0, 0), (2, 5)], [(1, 0), (1, 1)]
    out = w.letters_on_lines(starts, steps, multipliers)
    assert out.tolist() == w.letters_on_lines(starts, steps, list(multipliers)).tolist()
    assert out.tolist() == _family_letters(starts, steps, multipliers)
    assert lines[:1] == ([(*_paired(starts, steps), list(multipliers))] if multipliers else [])


def test_a_range_through_a_negative_multiplier_raises():
    w, lines, points = recording_checkerboard()
    with pytest.raises(InvalidInput, match="for ell in \\[-1, 3\\]"):
        w.letters_along((0, 0), (1, 0), range(3, -2, -1))
    assert lines == [] and points == []


def _family_letters(starts, steps, ells) -> list:
    return [[[(sum(p) + sum(q) * ell) % 2 for ell in ells] for q in steps] for p in starts]


def _paired(starts, steps) -> tuple[list, list]:
    """The family's lines, start-major: each start repeated once per step
    beside the steps in turn, as lists."""
    return [list(p) for p in starts for _ in steps], [list(q) for _ in starts for q in steps]


def test_a_family_is_one_builder_call_indexed_start_step_multiplier():
    """One call of the family's lines, start-major; the result is indexed
    (start, step, multiplier)."""
    w, lines, points = recording_checkerboard()
    starts, steps, ells = [(0, 0), (1, 0), (2, 5)], [(1, 0), (1, 1)], [3, 0, 7, 1]
    out = w.letters_on_lines(starts, steps, ells)
    assert out.dtype == np.int64 and out.shape == (3, 2, 4)
    assert out.tolist() == _family_letters(starts, steps, ells)
    assert lines == [(*_paired(starts, steps), ells)]
    assert points == []


@pytest.mark.parametrize("shape", [(5, 3, 2), (1, 4, 9), (2, 1, 23), (3, 2, 4)])
def test_builder_calls_stay_within_the_letter_cap(shape):
    """With a cap of 7 letters a family's lines are cut into calls of
    min(n, 7) multipliers of 7 // min(n, 7) lines, and put back together
    in place: every letter is read once."""
    s_count, d_count, n = shape
    starts = [(i, 2 * i + 1) for i in range(s_count)]
    steps = [(j + 1, j) for j in range(d_count)]
    w, lines, points = recording_checkerboard()
    with mock.patch.object(lattice, "_CALL_LETTERS", 7):
        out = w.letters_on_lines(starts, steps, n)
    assert out.tolist() == _family_letters(starts, steps, range(n))
    assert all(len(s) * len(e) <= 7 for s, _, e in lines) and points == []
    count, kn = s_count * d_count, min(n, 7)
    assert [(len(s), len(e)) for s, _, e in lines] == [
        (min(7 // kn, count - i), min(kn, n - k))
        for i in range(0, count, 7 // kn) for k in range(0, n, kn)]
    read = Counter((tuple(p), tuple(q), ell) for ps, qs, ells in lines
                   for p, q in zip(ps, qs) for ell in ells)
    assert set(read.values()) == {1}
    assert sorted(read) == sorted((p, q, ell) for p in starts for q in steps for ell in range(n))


@given(rows=st.integers(0, 12), n=st.integers(0, 60), per=st.integers(1, 20),
       cap=st.integers(1, 400), align=st.sampled_from([1, 8]))
def test_read_slices_cover_the_family_once_within_the_cap(rows, n, per, cap, align):
    """Every (row, multiplier) is in one piece, in row-major order; a piece
    reads at most cap letters unless align multipliers of one row already
    pass it; every multiplier range starts at a multiple of align."""
    pieces = [(range(rows)[rs], range(n)[ks])
              for rs, ks in read_slices(rows, n, per, align=align, cap=cap)]
    assert [(i, k) for rr, kr in pieces for i in rr for k in kr] == \
        [(i, k) for i in range(rows) for k in range(n)]
    for rr, kr in pieces:
        assert len(rr) and len(kr)
        assert per * len(rr) * len(kr) <= cap or (
            per * align > cap and len(rr) == 1 and len(kr) <= align)
        assert kr.start % align == 0


def test_a_family_reaching_2_62_is_read_pointwise():
    w, lines, points = recording_checkerboard()
    starts, steps = [(0, 0), (_REACH - 2, 1)], [(1, 0), (0, 1)]
    out = w.letters_on_lines(starts, steps, 3)
    assert out.tolist() == _family_letters(starts, steps, range(3))
    assert lines == [] and len(points) == 12


@pytest.mark.parametrize("starts, steps, n", [([], [(1, 0)], 3), ([(0, 0)], [], 3),
                                              ([(0, 0), (1, 1)], [(1, 0)], 0)])
def test_empty_families_keep_their_shape(starts, steps, n):
    w, lines, points = recording_checkerboard()
    out = w.letters_on_lines(starts, steps, n)
    assert out.dtype == np.int64 and out.shape == (len(starts), len(steps), n)
    assert lines == [] and points == []


def test_a_family_with_one_line_leaving_n_d_raises():
    w, lines, points = recording_checkerboard()
    with pytest.raises(InvalidInput, match="the line \\(0, -1\\) \\+ ell\\*\\(1, 0\\)"):
        w.letters_on_lines([(3, 3), (0, -1)], [(1, 0), (1, 1)], 4)
    with pytest.raises(DimensionError):
        w.letters_on_lines([(3, 3)], [(1, 0), (1, 1, 1)], 4)
    assert lines == [] and points == []


def test_finite_word_is_a_frozen_value():
    """Fields cannot be assigned, and blocks built separately from equal
    cells are equal and hash equal."""
    a = FiniteWord((2, 2), [0, 1, 1, 0])
    b = FiniteWord([2, 2], np.array([0, 1, 1, 0]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a.size == (2, 2) and a.cells == (0, 1, 1, 0)
    assert a != FiniteWord((4, 1), (0, 1, 1, 0)) and a != (0, 1, 1, 0)
    for name in ("size", "cells"):
        with pytest.raises(AttributeError):
            setattr(a, name, (1,))
    assert a == b
