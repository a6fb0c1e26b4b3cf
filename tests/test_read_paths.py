"""Every batched multi-letter reader against the pointwise references.

``WordSource.letters_on_lines`` reads families of lines, and
``directional_blocks``, ``sample_rows`` and ``sample_grid`` read through it,
one family per call; ``factor_at`` and
``WordSource.letter`` read one letter at a time and are the references.
``Morphism.iterate`` substitutes images and is checked against the plain
recursion and against ``letter_in_fixed_point``.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multirec import lattice
from multirec.derive import directional_blocks
from multirec.generators import WORD_NAMES, Morphism, named_word
from multirec.lattice import FiniteWord, factor_at, iter_box, vec_add, vec_scale
from multirec.recurrence import sample_grid
from multirec.render import sample_rows
from multirec.rotation import sturmian_spec


def test_every_family_is_covered():
    assert len(WORD_NAMES) == 13
    assert {"thue-morse", "gcd-thue-morse", "fib-rows", "toeplitz-rows", "sturmian",
            "toeplitz-constant", "toeplitz-random", "sierpinski",
            "preimage-3x2"} <= set(WORD_NAMES)


def _pointwise_rows(w, box) -> list[list[int]]:
    if len(box) == 1:
        return [[w.letter((x,)) for x in range(box[0])]]
    return [[w.letter((x, y)) for x in range(box[0])] for y in range(box[1])]


@pytest.mark.parametrize("name", WORD_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_batched_readers_match_pointwise_letters(name, data):
    w = named_word(name, seed=5)
    d = w.dimension
    side = st.integers(1, 3)
    q = data.draw(st.tuples(*[st.integers(0, 4)] * d).filter(any), label="q")
    size = data.draw(st.tuples(*[side] * d), label="size")
    count = data.draw(st.integers(0, 10), label="count")
    coord = st.integers(0, 50) | st.integers((1 << 62) - 40, (1 << 62) + 40)
    origin = data.draw(st.none() | st.tuples(*[coord] * d), label="origin")
    assert directional_blocks(w, q, size, count, origin) == [
        factor_at(w, vec_add(origin or (0,) * d, vec_scale(q, ell)), size) for ell in range(count)
    ]
    box = data.draw(st.tuples(*[st.integers(1, 9)] * d), label="box")
    grid = sample_grid(w, box)
    assert grid.shape == box
    assert all(grid[p] == w.letter(p) for p in iter_box(box))
    assert sample_rows(w, box) == _pointwise_rows(w, box)


@pytest.mark.parametrize("name", WORD_NAMES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_family_reads_match_pointwise_letters(name, data):
    """Families of lines in any multiplier order, cut into builder calls
    as small as one letter."""
    w = named_word(name, seed=5)
    vec = st.tuples(*[st.integers(0, 30)] * w.dimension)
    starts = data.draw(st.lists(vec, min_size=1, max_size=4), label="starts")
    steps = data.draw(st.lists(vec, min_size=1, max_size=3), label="steps")
    ells = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=12), label="ells")
    cap = data.draw(st.sampled_from([1, 5, 64, lattice._CALL_LETTERS]), label="cap")
    with mock.patch.object(lattice, "_CALL_LETTERS", cap):
        out = w.letters_on_lines(starts, steps, ells)
    assert out.dtype == np.int64
    assert out.tolist() == [[[w.letter(vec_add(p, vec_scale(q, ell))) for ell in ells]
                             for q in steps] for p in starts]


@st.composite
def morphisms(draw, dimensions=(1, 2, 3), prolongable=False):
    """Random constant-size morphisms, k <= 3, each s_j drawn on its own
    (so s_1 != s_2 is common).  Any letter may or may not be prolongable;
    ``prolongable`` puts 0 first in 0's image and keeps every s_j >= 2, so
    that the fixed point of 0 fills N^d."""
    k = draw(st.integers(1, 3))
    d = draw(st.sampled_from(dimensions))
    dims = tuple(draw(st.integers(2 if prolongable else 1, 3)) for _ in range(d))
    n = math.prod(dims)
    images = [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
              for _ in range(k)]
    if prolongable:
        images[0][0] = 0
    return Morphism([FiniteWord(dims, cells) for cells in images])


@given(morphisms(), st.data())
@settings(max_examples=150, deadline=None)
def test_iterate_is_the_substitution_recursion(m, data):
    """iterate(b, n)[p] = image(iterate(b, n - 1)[p // s])[p mod s] for
    every letter b, and the fixed-point letter where b is prolongable."""
    cells = math.prod(m.dims)
    top = 1 if cells > 9 else 3 if cells > 3 else 5
    n = data.draw(st.integers(1, top), label="n")
    for b in range(m.alphabet_size):
        assert m.iterate(b, 0) == FiniteWord((1,) * m.dimension, (b,))
        block, parent = m.iterate(b, n), m.iterate(b, n - 1)
        assert block.size == tuple(s ** n for s in m.dims)
        for p in block.positions():
            up = tuple(c // s for c, s in zip(p, m.dims))
            low = tuple(c % s for c, s in zip(p, m.dims))
            assert block[p] == m.image(parent[up])[low]
            if m.is_prolongable(b):
                assert block[p] == m.letter_in_fixed_point(b, p)


@given(morphisms(dimensions=(3,), prolongable=True), st.tuples(*[st.integers(1, 6)] * 3))
@settings(max_examples=30, deadline=None)
def test_sample_grid_of_a_three_dimensional_fixed_point(m, box):
    grid = sample_grid(m.fixed_point(0), box)
    assert all(grid[p] == m.letter_in_fixed_point(0, p) for p in iter_box(box))


@given(st.integers(10**9 - 2000, 10**9 + 2000), st.integers(0, 10**9),
       st.tuples(st.integers(1, 12), st.integers(1, 5)))
@settings(max_examples=15, deadline=None)
def test_sturmian_rows_far_from_the_origin(x0, y0, box):
    w = sturmian_spec().word()
    expected = [[w.letter((x0 + x, y0 + y)) for x in range(box[0])] for y in range(box[1])]
    starts = [(x0, y0 + y) for y in range(box[1])]
    assert w.letters_on_lines(starts, [(1, 0)], box[0])[:, 0].tolist() == expected
    assert directional_blocks(w, (1, 1), (2, 1), 3, origin=(x0, y0)) == [
        factor_at(w, (x0 + ell, y0 + ell), (2, 1)) for ell in range(3)
    ]


@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_sample_rows_of_blocks(width, height, data):
    cells = data.draw(st.lists(st.integers(0, 3), min_size=width * height,
                               max_size=width * height))
    block = FiniteWord((width, height), cells)
    assert sample_rows(block, block.size) == [
        [block[(x, y)] for x in range(width)] for y in range(height)
    ]
    line = FiniteWord((width,), cells[:width])
    assert sample_rows(line, line.size) == [cells[:width]]
    corner = (data.draw(st.integers(1, width)), data.draw(st.integers(1, height)))
    assert sample_rows(block, corner) == [
        [block[(x, y)] for x in range(corner[0])] for y in range(corner[1])
    ]
    for past in ((width + 1, height), (width, height + 1)):
        with pytest.raises(IndexError):
            sample_rows(block, past)
