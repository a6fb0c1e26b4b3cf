from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multirec import generators, lattice, morphic
from multirec.errors import InvalidInput, NotProlongable
from multirec.generators import (
    CONSTANT,
    PRESET_NAMES,
    SEEDED_RANDOM,
    WORD_NAMES,
    Morphism,
    ToeplitzSchedule,
    fib_rows_word,
    fibonacci_word,
    gcd_word,
    load_preset,
    morphism_from_json,
    named_word,
    preset_word,
    thue_morse,
    thue_morse_word,
    toeplitz_construct,
    toeplitz_rows_word,
)
from multirec.lattice import FiniteWord, WordSource, factor_at, iter_box, vec_add, vec_scale
from multirec.recurrence import sample_grid


def test_thue_morse_prefix():
    assert [thue_morse(n) for n in range(16)] == [
        0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0,
    ]
    assert thue_morse(20) == 0
    assert all(thue_morse(1 << k) == 1 for k in range(12))


def test_fibonacci_prefix_from_substitution():
    """Expanding 0 -> 01, 1 -> 0 five times gives 0100101001001; 25 times
    gives 196418 letters."""
    text = "0"
    for _ in range(25):
        text = text.replace("0", "a").replace("1", "0").replace("a", "01")
    assert len(text) > 100_000
    assert [fibonacci_word(n) for n in range(len(text))] == [int(c) for c in text]
    assert [fibonacci_word(n) for n in range(9)] == [0, 1, 0, 0, 1, 0, 1, 0, 0]
    assert fibonacci_word(12) == 1


def _zeckendorf_uses_one(n: int) -> bool:
    """Whether the greedy sum of distinct Fibonacci numbers 1, 2, 3, 5, ...
    that gives n uses the term 1."""
    fibs = [1, 2]
    while fibs[-1] <= n:
        fibs.append(fibs[-1] + fibs[-2])
    for f in reversed(fibs):
        if f <= n:
            n -= f
            if f == 1:
                return True
    return False


@given(st.integers(0, 300) | st.integers(10**9 - 10**6, 10**9 + 10**6)
       | st.integers(0, 1 << 62))
@settings(max_examples=300)
def test_fibonacci_letters_follow_the_zeckendorf_rule(n):
    assert fibonacci_word(n) == int(_zeckendorf_uses_one(n))


def test_presets_all_load_and_are_binary():
    for name in PRESET_NAMES:
        phi = load_preset(name)
        assert phi.alphabet_size == 2
        assert phi.is_prolongable(1)


def test_unknown_preset_is_reported():
    with pytest.raises(KeyError):
        load_preset("no-such-morphism")


def test_morphism_json_round_trip():
    """Each preset file's images come back from the loaded morphism's blocks."""
    for name in PRESET_NAMES:
        data = json.loads(resources.files("multirec.presets").joinpath(f"{name}.json")
                          .read_text("utf-8"))
        phi = load_preset(name)
        assert morphism_from_json(data) == phi
        assert all(data["images"][str(b)] == phi.image(b).to_nested()
                   for b in range(phi.alphabet_size))


def test_prolongability_of_the_rectangular_preset():
    phi = load_preset("preimage-3x2")
    assert phi.dims == (3, 2)
    assert phi.is_prolongable(0)
    assert phi.is_prolongable(1)


def test_fixed_point_requires_prolongable_letter():
    phi = load_preset("sierpinski")
    assert not phi.is_prolongable(0) or phi.image(0)[(0, 0)] == 0
    with pytest.raises(NotProlongable):
        # 0's image starts with 0, so no fixed point grows from 1's seed there
        Morphism([phi.image(1), phi.image(1)]).fixed_point(0)


@pytest.mark.parametrize("letter", [2, 7, -1])
def test_a_letter_outside_the_alphabet_is_refused(letter):
    """A letter outside [0, k) is an input error, not an index that numpy
    would wrap (-1) or overrun (k and above): every method that takes a
    letter raises InvalidInput for it."""
    phi = load_preset("sierpinski")
    for call in (lambda: phi.is_prolongable(letter), lambda: phi.iterate(letter, 2),
                 lambda: phi.iterate(letter, 0), lambda: phi.fixed_point(letter),
                 lambda: phi.letter_in_fixed_point(letter, (3, 5)),
                 lambda: morphic.check_main_morphic(phi, letter)):
        with pytest.raises(InvalidInput, match=f"letter {letter} is outside the alphabet"):
            call()


def test_named_words_are_the_presets_then_the_classical_words():
    assert WORD_NAMES[:len(PRESET_NAMES)] == PRESET_NAMES
    assert WORD_NAMES[len(PRESET_NAMES):] == (
        "fib-rows", "gcd-thue-morse", "sturmian", "thue-morse", "toeplitz-constant",
        "toeplitz-random", "toeplitz-rows")
    assert named_word("sierpinski").name == "sierpinski"
    seeded = [named_word("toeplitz-random", seed=seed).letters_along((1, 0), (1, 2), 64)
              for seed in (3, 3, 4)]
    assert seeded[0].tolist() == seeded[1].tolist() != seeded[2].tolist()
    with pytest.raises(InvalidInput, match="unknown word 'no-such-word'; have preimage-3x2, "):
        named_word("no-such-word")


def test_fixed_point_requires_every_side_at_least_two():
    # a side of 1 never shrinks a coordinate, so the digit walk would not end
    phi = Morphism([FiniteWord((1, 2), (0, 1)), FiniteWord((1, 2), (1, 0))])
    with pytest.raises(ValueError, match="side"):
        phi.fixed_point(0)


def test_sierpinski_square_expansion():
    block = load_preset("sierpinski").iterate(1, 2)
    assert block.size == (4, 4)
    assert [block[(x, 0)] for x in range(4)] == [1, 1, 1, 1]
    assert [block[(x, 3)] for x in range(4)] == [1, 0, 0, 0]


def test_sierpinski_letters_follow_bitwise_rule():
    w = preset_word("sierpinski")
    for x in range(24):
        for y in range(24):
            assert w.letter((x, y)) == (1 if x & y == 0 else 0)


def test_ssurdo_image_of_one():
    img = load_preset("ssurdo-3x3").image(1)
    assert [img[(0, y)] for y in range(3)] == [1, 1, 1]
    assert [img[(1, y)] for y in range(3)] == [0, 0, 0]
    assert [img[(2, y)] for y in range(3)] == [0, 1, 1]


def test_rectangular_digit_evaluation_matches_block_expansion():
    phi = load_preset("preimage-3x2")
    big = phi.iterate(1, 3)
    assert big.size == (27, 8)
    assert big[(0, 0)] == 1 and big[(2, 0)] == 0
    assert big[(8, 3)] == 1
    assert big[(4, 7)] == 1
    assert big[(4, 7)] == phi.image(phi.iterate(1, 2)[(1, 3)])[(1, 1)]


@given(st.sampled_from(PRESET_NAMES), st.integers(0, 60), st.integers(0, 60))
@settings(max_examples=60)
def test_preset_letters_match_prefix_expansion(name, x, y):
    phi = load_preset(name)
    depth = 4 if phi.dims == (2, 2) else 3
    block = phi.iterate(1, depth)
    if x < block.size[0] and y < block.size[1]:
        w = preset_word(name)
        assert w.letter((x, y)) == block[(x, y)]


@st.composite
def prolongable_morphisms(draw):
    """Random square morphisms, k <= 3, s in {2, 3}, d in {1, 2}, whose
    image of 0 starts with 0."""
    k = draw(st.integers(1, 3))
    s = draw(st.sampled_from([2, 3]))
    d = draw(st.sampled_from([1, 2]))
    n = s**d
    images = [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
              for _ in range(k)]
    images[0][0] = 0
    return Morphism([FiniteWord((s,) * d, cells) for cells in images])


@given(prolongable_morphisms(), st.data())
@settings(max_examples=80, deadline=None)
def test_digit_walk_matches_pointwise_letters_across_the_fallback(m, data):
    """Lines whose reach straddles 2^62, where letters_along hands over
    from the numpy digit walk to the pointwise one."""
    d = m.dimension
    start = tuple(data.draw(st.integers((1 << 62) - 64, (1 << 62) + 8) | st.integers(0, 99))
                  for _ in range(d))
    step = tuple(data.draw(st.integers(0, 3)) for _ in range(d))
    ells = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    w = m.fixed_point(0)
    expected = [m.letter_in_fixed_point(0, vec_add(start, vec_scale(step, ell)))
                for ell in ells]
    assert w.letters_along(start, step, ells).tolist() == expected
    assert [w.letter(vec_add(start, vec_scale(step, ell))) for ell in ells] == expected


@st.composite
def prolongable_box_morphisms(draw):
    """Random morphisms, k <= 3, d in {1, 2, 3}, each side s_j in {2, 3}
    drawn separately, whose image of 0 starts with 0."""
    k = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3)))
    n = math.prod(dims)
    images = [draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
              for _ in range(k)]
    images[0][0] = 0
    return Morphism([FiniteWord(dims, cells) for cells in images])


def _chunk_depth(dims) -> int:
    """Digits per table lookup: the largest m >= 1 with prod(dims)^m <= 2^12."""
    return max(m for m in range(1, 13) if m == 1 or math.prod(dims) ** m <= 1 << 12)


def _near(edge: int):
    return st.integers(max(edge - 40, 0), edge + 2)


@given(prolongable_box_morphisms(), st.data())
@settings(max_examples=150, deadline=None)
def test_chunked_walk_matches_pointwise_letters_across_chunk_edges(m, data):
    """One axis starts just below s_j^m, s_j^(2m) or 2^62 and steps
    across it; every other axis starts small or near an edge of its own."""
    d = m.dimension
    depth = _chunk_depth(m.dims)
    edges = [[s ** depth, s ** (2 * depth), 1 << 62] for s in m.dims]
    axis = data.draw(st.integers(0, d - 1))
    start = [data.draw(st.integers(0, 99) | st.sampled_from(e).flatmap(_near)) for e in edges]
    start[axis] = data.draw(st.sampled_from(edges[axis]).flatmap(_near))
    step = [data.draw(st.integers(0, 3)) for _ in range(d)]
    step[axis] = data.draw(st.integers(1, 3))
    ells = sorted(data.draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    line = m.fixed_point(0).letters_along(start, step, ells)
    assert line.dtype == np.int64
    assert line.tolist() == [m.letter_in_fixed_point(0, vec_add(start, vec_scale(step, ell)))
                             for ell in ells]


def test_chunk_depth_and_table_are_set_at_the_first_line_read():
    for dims, depth in (((2, 2), 6), ((3, 3), 3), ((2, 2, 2), 4), ((2,), 12), ((3, 2), 4)):
        cells = math.prod(dims)
        m = Morphism([FiniteWord(dims, [0] * cells), FiniteWord(dims, [1] * cells)])
        w = m.fixed_point(0)
        assert "_chunk_table" not in m.__dict__
        w.letters_along((0,) * len(dims), (1,) * len(dims), 3)
        assert "_chunk_table" in m.__dict__
        assert m._chunk_table[0] == depth == _chunk_depth(dims)
        assert m._chunk_table[1].dtype == np.uint8
        assert m._chunk_table[1].shape == (2 * cells ** depth,)


def test_morphism_and_word_source_are_frozen():
    """A morphism is its images: two built apart are equal, hash alike and
    make one dict key.  A word is equal only to itself."""
    phi, twin = load_preset("surd-not-ssurdo-2x2"), load_preset("surd-not-ssurdo-2x2")
    assert phi is not twin and phi == twin and hash(phi) == hash(twin)
    assert len({phi: 0, twin: 1}) == 1
    assert phi != phi.power(2)
    w = WordSource(2, 2, phi.fixed_point(1).letter, name="twin")
    assert w != WordSource(2, 2, w.evaluator, name="twin")
    for obj, attr in ((phi, "images"), (w, "name"), (w, "evaluator")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, None)


def test_chunked_walk_with_letters_beyond_a_uint16_table_index():
    """Twenty letters on a 1-D side of 2: letter * 4096 exceeds 2^16, so
    the table index must be formed in int64 under either numpy promotion."""
    k = 20
    m = Morphism([FiniteWord((2,), (b, (b + 1) % k)) for b in range(k)])
    # the letter at x is its binary digit sum mod k
    ells = sorted({(1 << j) - 1 for j in range(40)} | set(range(0, 1 << 40, 3 ** 20)))
    line = m.fixed_point(0).letters_along((0,), (1,), ells)
    assert line.max() == k - 1
    assert line.tolist() == [m.letter_in_fixed_point(0, (x,)) for x in ells]
    assert line.tolist() == [x.bit_count() % k for x in ells]


# ---------------------------------------------------------------------------
# the block walk: long morphic lines read through their high lines


def _read_with_spy(w, starts, steps, ells):
    """letters_on_lines in one builder call, and the lengths of the lines
    read chunk by chunk on the way."""
    lengths = []
    chunk_walk = Morphism._chunk_walk

    def spy(self, a, starts, steps, ells):
        lengths.append(len(ells))
        return chunk_walk(self, a, starts, steps, ells)

    with mock.patch.object(lattice, "_CALL_LETTERS", 1 << 30), \
            mock.patch.object(Morphism, "_chunk_walk", spy):
        return w.letters_on_lines(starts, steps, ells), lengths


def _multiplier_orders(first: int, n: int, rng) -> dict[str, list[int]]:
    """The multipliers first, ..., first + n - 1 in order, shuffled, and
    shuffled with every third one repeated."""
    ells = list(range(first, first + n))
    repeated = ells + ells[::3]
    rng.shuffle(repeated)
    return {"contiguous": ells, "unsorted": rng.sample(ells, n), "duplicates": repeated}


def _check_walk(m: Morphism, a: int, starts, steps, first: int, n: int, rng) -> None:
    """Every order of the multipliers against letter_in_fixed_point, and
    no line of n multipliers read chunk by chunk."""
    w = m.fixed_point(a)
    expected = np.array([[[m.letter_in_fixed_point(a, vec_add(p, vec_scale(q, ell)))
                           for ell in range(first, first + n)] for q in steps] for p in starts])
    for order, ells in _multiplier_orders(first, n, rng).items():
        lines, chunked = _read_with_spy(w, starts, steps, ells)
        assert max(chunked) < n, order
        assert (lines == expected[:, :, np.array(ells) - first]).all(), order


def _walk_threshold(m: Morphism) -> int:
    """The fewest multipliers a line spans for the walk to split it."""
    return generators._WALK_BLOCKS * m._chunk_table[3]


@given(prolongable_box_morphisms(), st.data())
@settings(max_examples=40, deadline=None)
def test_block_walk_matches_pointwise_letters_on_long_lines(m, data):
    """With a table of at most 16 cells B is at most 16, so lines of two
    to three times the walk's threshold stay short and recurse through
    several levels of high lines.  Starts sit near r_j, r_j^2 and, on an
    axis the line does not move along, 2^62; the multipliers start at 0 or
    far out."""
    with mock.patch.object(generators, "_TABLE_CELLS", 16):
        m.fixed_point(0).letters_along((0,) * m.dimension, (0,) * m.dimension, 1)
    threshold = _walk_threshold(m)
    n = data.draw(st.integers(2 * threshold, 3 * threshold), label="n")
    first = data.draw(st.sampled_from([0, 1, 12345]) | st.integers(0, 10**12), label="first")
    step = [data.draw(st.integers(0, 3)) for _ in m.dims]
    top = first + n - 1
    start = []
    for r, q in zip(m._chunk_table[2], step):
        edges = [r, r * r] + ([_FAR - 3 - 3 * top] if q == 0 else [])
        start.append(data.draw(st.integers(0, 99) | st.sampled_from(edges).flatmap(_near)))
    assert max(start) + max(step) * top < _FAR, "the line must go to the builder"
    _check_walk(m, 0, [start], [step], first, n, data.draw(st.randoms()))


def test_block_walk_on_the_rectangular_preset():
    """r = (81, 16) and B = 1296, so the high lines step by q * (16, 81)."""
    m = load_preset("preimage-3x2")
    n = 2 * _walk_threshold(m)
    _check_walk(m, 1, [(80, 257)], [(2, 3), (0, 1)], 3 * 1296 + 5, n, random.Random(3))


def test_block_walk_on_a_three_dimensional_morphism():
    """r = (8, 27, 8) and B = 216, steps with zero components."""
    dims = (2, 3, 2)
    m = Morphism([FiniteWord(dims, [(b * c + c // 3) % 3 for c in range(12)])
                  for b in (0, 2, 1)])
    n = 2 * _walk_threshold(m)
    _check_walk(m, 0, [(7, 730, 65), (62, 26, 0)], [(1, 1, 1), (3, 0, 2)], 1000, n,
                random.Random(4))


@pytest.mark.parametrize("k", [2, 20])
def test_block_walk_on_one_dimensional_lines(k):
    """b -> (b, b + 1 mod k) on a side of 2, whose letter at x is the binary
    digit sum of x mod k: Thue-Morse for k = 2, and for k = 20 a table
    index letter * 4096 above 2^16.  B = 4096, so a line of twice the
    threshold has 2^17 multipliers; the closed form checks every letter
    and letter_in_fixed_point a sample."""
    m = Morphism([FiniteWord((2,), (b, (b + 1) % k)) for b in range(k)])
    n = 2 * _walk_threshold(m)
    starts, steps = [4095, (1 << 24) - 3], [3, 0]
    rng = random.Random(k)
    for order, ells in _multiplier_orders(10**9 - 7, n, rng).items():
        lines, chunked = _read_with_spy(m.fixed_point(0), [(p,) for p in starts],
                                        [(q,) for q in steps], ells)
        assert max(chunked) < n, order
        for line, (p, q) in zip(lines.reshape(-1, len(ells)), itertools.product(starts, steps)):
            assert line.tolist() == [(p + q * ell).bit_count() % k for ell in ells], order
            for i in rng.sample(range(len(ells)), 30):
                assert line[i] == m.letter_in_fixed_point(0, (p + q * ells[i],))


def test_a_survey_table_is_thirteen_builder_calls_of_four_lines():
    """A 2x2 survey table read to the default horizon, as a failing SURD
    entry reads it, 4 starts x 13 directions x 4001 multipliers: 4001
    multipliers fit 4 lines into one 2^14-letter call, so its 52 lines go
    out as 13 calls of 4 whatever start they come from."""
    w = preset_word("surd-not-ssurdo-2x2")
    calls = []

    def recorded(starts, steps, ells):
        calls.append((len(starts), len(steps), len(ells)))
        return w.line_builder(starts, steps, ells)

    starts = list(iter_box((2, 2)))
    steps = [q for q in itertools.product(range(5), repeat=2) if math.gcd(*q) == 1]
    assert len(steps) == 13
    out = WordSource(2, w.alphabet_size, w.evaluator, recorded).letters_on_lines(
        starts, steps, 4001)
    assert calls == [(4, 4, 4001)] * 13
    rng = random.Random(13)
    for i, j, ell in zip(*(rng.choices(range(n), k=200) for n in out.shape)):
        assert out[i, j, ell] == w.letter(vec_add(starts[i], vec_scale(steps[j], ell)))


def test_prefix_nesting():
    for name in ("sierpinski", "ssurdo-3x3", "power-3x3"):
        phi = load_preset(name)
        small = phi.iterate(1, 1)
        large = phi.iterate(1, 2)
        for p in iter_box(small.size):
            assert small[p] == large[p]


def test_power_is_iterated_composition():
    phi = load_preset("surd-not-ssurdo-2x2")
    sq = phi.power(2)
    assert sq.dims == (4, 4)
    for b in (0, 1):
        assert sq.image(b) == phi.iterate(b, 2)


@st.composite
def _any_morphisms(draw):
    """Morphisms of k <= 4 letters on sides of 1 to 3 (1 to 2 in 3-D),
    each side drawn on its own, so non-square sizes such as (3, 2) are
    common."""
    k = draw(st.integers(1, 4))
    d = draw(st.sampled_from((1, 2, 3)))
    dims = tuple(draw(st.integers(1, 3 if d < 3 else 2)) for _ in range(d))
    cells = st.lists(st.integers(0, k - 1), min_size=math.prod(dims), max_size=math.prod(dims))
    return Morphism([FiniteWord(dims, draw(cells)) for _ in range(k)])


@given(_any_morphisms())
@settings(max_examples=60, deadline=None)
def test_squared_table_and_powers_match_the_one_letter_substitution(phi):
    """The table and power(i) are built for every letter at once by
    squaring; iterate substitutes one letter one level at a time."""
    k = phi.alphabet_size
    depth, table, _, _ = phi._chunk_table
    expected = [c for b in range(k) for c in phi.iterate(b, depth).cells]
    assert table.dtype == np.min_scalar_type(k - 1)
    assert table.tolist() == expected
    for i in range(1, 5):
        assert phi.power(i).images == tuple(phi.iterate(b, i) for b in range(k))


def test_one_cell_morphisms_end_their_table_depth():
    """A one-cell image never grows under powers of phi, so the depth rule
    must stop on its own, not at the table's cell cap."""
    one = FiniteWord((1, 1), (0,))
    phi = Morphism([one])
    assert phi.power(3).images == (one,)
    assert phi.iterate(0, 5) == one
    depth, table, radices, block = phi._chunk_table
    assert (depth, table.tolist(), radices, block) == (1, [0], [1, 1], 1)


def test_gcd_word_places_the_seed_along_every_direction():
    w = gcd_word(thue_morse_word(), 2)
    assert w.letter((2, 3)) == 1
    assert w.letter((4, 6)) == 1
    assert w.letter((0, 0)) == thue_morse(0)
    for q in ((1, 2), (3, 5), (1, 0)):
        for ell in range(30):
            assert w.letter(vec_scale(q, ell)) == thue_morse(ell)


def test_fib_rows_alternates_prefixed_rows():
    w = fib_rows_word()
    assert w.letters_along((0, 0), (1, 0), 9).tolist() == [1, 0, 1, 0, 0, 1, 0, 1, 0]
    assert w.letters_along((0, 1), (1, 0), 9).tolist() == [0, 0, 1, 0, 0, 1, 0, 1, 0]
    for y in range(6):
        expected = [y % 2 == 0] + [fibonacci_word(x) for x in range(8)]
        row = w.letters_along((0, y), (1, 0), 9).tolist()
        assert row[0] == int(expected[0])
        assert row[1:] == expected[1:]


def test_toeplitz_rows_word_rows():
    w = toeplitz_rows_word()
    assert w.letters_along((0, 0), (1, 0), 8).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert w.letters_along((0, 4), (1, 0), 8).tolist() == [1, 0, 0, 0, 1, 0, 0, 0]
    for n in (1, 2, 3, 5, 6, 12):
        k = (n & -n).bit_length() - 1
        period = 1 << k
        row = w.letters_along((0, n), (1, 0), 4 * period).tolist()
        assert row == [1 if x % period == 0 else 0 for x in range(4 * period)]


def test_toeplitz_rows_prefix_recurs_on_a_double_lattice():
    w = toeplitz_rows_word()
    for n in (1, 2, 3):
        side = 1 << n
        stride = 1 << (n + 1)
        prefix = factor_at(w, (0, 1), (side, side))
        for a in range(3):
            for b in range(3):
                p = (a * stride, 1 + b * stride)
                assert factor_at(w, p, (side, side)) == prefix


def test_fib_rows_corner_prefix_sticks_to_column_zero():
    w = fib_rows_word()
    prefix = factor_at(w, (0, 0), (2, 2))
    assert prefix.cells == (1, 0, 0, 0)
    hits = [
        (x, y)
        for x in range(63)
        for y in range(63)
        if factor_at(w, (x, y), (2, 2)) == prefix
    ]
    assert hits
    assert all(x == 0 for x, _ in hits)


def test_constant_fill_toeplitz_is_morphic():
    w = toeplitz_construct(ToeplitzSchedule(policy=CONSTANT))
    marked = FiniteWord((2, 2), (1, 0, 0, 0))
    phi = Morphism([marked, marked])
    fp = phi.fixed_point(1)
    for p in iter_box((32, 32)):
        assert w.letter(p) == fp.letter(p)


_HUGE = st.integers(0, 300) | st.integers(0, 1 << 62) | st.integers(0, 10**30)


@given(st.tuples(_HUGE, _HUGE), st.tuples(st.integers(0, 3), st.integers(0, 3)))
@settings(max_examples=200, deadline=None)
def test_constant_fill_toeplitz_is_the_named_fixed_point(p, step):
    """The construction's closed form and the marked morphism's walks agree
    pointwise and along lines, below 2^62 and past it."""
    built = toeplitz_construct(ToeplitzSchedule(policy=CONSTANT))
    named = named_word("toeplitz-constant")
    assert built.letter(p) == named.letter(p)
    assert built.letters_along(p, step, 9).tolist() == named.letters_along(p, step, 9).tolist()


@pytest.mark.parametrize("kwargs", [{"policy": "shuffled"}, {"alphabet_size": 1}],
                         ids=["unknown-policy", "one-letter"])
def test_toeplitz_schedule_refuses_what_it_cannot_fill(kwargs):
    with pytest.raises(ValueError):
        ToeplitzSchedule(**kwargs)


def test_toeplitz_materialization_is_conflict_free():
    for policy, seed in ((CONSTANT, 0), (SEEDED_RANDOM, 7), (SEEDED_RANDOM, 8)):
        schedule = ToeplitzSchedule(policy=policy, seed=seed)
        grid = schedule.materialize(4)
        assert len(grid) == 32 * 32
        for cell, letter in grid.items():
            assert schedule.letter(cell) == letter


def test_toeplitz_materialization_matches_line_reads():
    schedule = ToeplitzSchedule(policy=SEEDED_RANDOM, seed=7, alphabet_size=3)
    grid = schedule.materialize(8)
    side = 1 << 9
    lines = sample_grid(toeplitz_construct(schedule), (side, side))
    assert len(grid) == side * side
    assert all(lines[cell] == letter for cell, letter in grid.items())


def test_seeded_toeplitz_is_reproducible_and_seed_sensitive():
    a = toeplitz_construct(ToeplitzSchedule(policy=SEEDED_RANDOM, seed=3))
    b = toeplitz_construct(ToeplitzSchedule(policy=SEEDED_RANDOM, seed=3))
    c = toeplitz_construct(ToeplitzSchedule(policy=SEEDED_RANDOM, seed=4))
    probe = list(iter_box((16, 16)))
    va = [a.letter(p) for p in probe]
    assert va == [b.letter(p) for p in probe]
    assert va != [c.letter(p) for p in probe]


# ---------------------------------------------------------------------------
# integer line builders against independent references

_FAR = 1 << 62


def _scalar_mix64(*values: int) -> int:
    """SplitMix64 finalizer folded over the inputs, on Python ints."""
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (v & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


@functools.lru_cache(maxsize=None)
def _recursive_fill_of(p: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """(step, anchor) of p's class, by running the filling order: the first
    n >= 2 whose box [0, 2^(n+1))^2 holds p's residue modulo 2^(n+2) while
    that residue is still unfilled before step n."""
    if p[0] % 2 == 0 and p[1] % 2 == 0:
        return 0, (0, 0)
    r4 = (p[0] % 4, p[1] % 4)
    if r4 in ((0, 1), (1, 0), (1, 1)):
        return 1, r4
    n = 2
    while True:
        mod, box = 1 << (n + 2), 1 << (n + 1)
        r = (p[0] % mod, p[1] % mod)
        if r[0] < box and r[1] < box and (r == p or _recursive_fill_of(r)[0] == n):
            return n, r
        n += 1


def _recursive_toeplitz_letter(schedule: ToeplitzSchedule, p: tuple[int, int]) -> int:
    step, cell = _recursive_fill_of(tuple(p))
    if step == 0:
        return 1
    if schedule.policy == CONSTANT:
        return 0
    return _scalar_mix64(schedule.seed, step, *cell) % schedule.alphabet_size


@st.composite
def toeplitz_points(draw):
    """Points below 2^62, half of them with x | y = 2^k - 1 (the longest
    recursion for their size)."""
    coordinate = st.integers(0, 300) | st.integers(0, _FAR - 1)
    x, y = draw(coordinate), draw(coordinate)
    if draw(st.booleans()):
        ones = (1 << draw(st.integers(1, 62))) - 1
        x &= ones
        y = (y & ones) | (ones & ~x)
    return x, y


@given(toeplitz_points(), st.integers(0, 5), st.integers(2, 4))
@settings(max_examples=300, deadline=None)
def test_toeplitz_closed_form_matches_the_recursive_filling(p, seed, k):
    schedule = ToeplitzSchedule(policy=SEEDED_RANDOM, seed=seed, alphabet_size=k)
    expected = _recursive_toeplitz_letter(schedule, p)
    assert schedule.letter(p) == expected
    assert toeplitz_construct(schedule).letters_along(p, (1, 0), 1).tolist() == [expected]


def _toeplitz_rows_letter(p: tuple[int, int]) -> int:
    """Row 0 is 1 0^omega; row y >= 1 has its 1s where 2^v2(y) divides x."""
    x, y = p
    return int(x == 0) if y == 0 else int(x % (y & -y) == 0)


_REFERENCES = {
    "thue-morse": (thue_morse_word, lambda p: p[0].bit_count() & 1),
    "toeplitz-rows": (toeplitz_rows_word, _toeplitz_rows_letter),
    "toeplitz-constant": (lambda: named_word("toeplitz-constant"),
                          lambda p: int((p[0] | p[1]) % 2 == 0)),
    "gcd-thue-morse": (lambda: gcd_word(thue_morse_word(), 2),
                       lambda p: math.gcd(*p).bit_count() & 1),
    "toeplitz-random": (
        lambda: toeplitz_construct(ToeplitzSchedule(policy=SEEDED_RANDOM, seed=9)),
        lambda p: _recursive_toeplitz_letter(ToeplitzSchedule(policy=SEEDED_RANDOM, seed=9), p)),
}


@pytest.mark.parametrize("name", sorted(_REFERENCES))
@pytest.mark.parametrize("first", [_FAR - 12, _FAR - 6, _FAR - 1, _FAR, 1 << 63, 10**23])
def test_integer_line_builders_across_2_62(name, first):
    """Lines below 2^62 run in uint64; lines reaching it are read pointwise."""
    build, reference = _REFERENCES[name]
    w = build()
    d = w.dimension
    start = (first,) + (6,) * (d - 1)
    step = (1,) * d
    line = w.letters_along(start, step, 12)
    assert line.dtype == np.int64
    assert line.tolist() == [reference(vec_add(start, vec_scale(step, ell))) for ell in range(12)]


@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_integer_line_builders_return_int64(name):
    w = _REFERENCES[name][0]()
    d = w.dimension
    for count in (0, 1, 40):
        line = w.letters_along((0,) * d, (3,) + (1,) * (d - 1), count)
        assert line.dtype == np.int64 and line.shape == (count,)


@pytest.mark.parametrize("w", [_REFERENCES[name][0]() for name in sorted(_REFERENCES)]
                         + [preset_word("sierpinski")])
def test_a_step_past_int64_with_one_multiplier_is_read_pointwise(w):
    d = w.dimension
    assert w.letters_along((1,) * d, (10**20,) * d, 1).tolist() == [w.letter((1,) * d)]


def test_thue_morse_parity_is_exact_at_all_ones():
    w = thue_morse_word()
    points = [0] + [(1 << k) - 1 for k in range(1, 63)]
    assert w.letters_along((0,), (1,), points).tolist() == [n.bit_count() & 1 for n in points]
    # The last multiplier puts the line at 2^62, so it is read pointwise.
    assert w.letters_along((0,), (1,), points + [_FAR]).tolist() == \
        [n.bit_count() & 1 for n in points + [_FAR]]


def test_gcd_line_builder_reads_the_seed_word_on_the_axes():
    u = thue_morse_word()
    seed = u.letters_along((0,), (1,), 64).tolist()
    for d in (2, 3):
        w = gcd_word(u, d)
        assert w.letters_along((0,) * d, (1,) * d, [0]).tolist() == [u.letter((0,))]
        for axis in range(d):
            step = tuple(int(i == axis) for i in range(d))
            assert w.letters_along((0,) * d, step, 64).tolist() == seed


@pytest.mark.parametrize("start, step", [((0, 12), (1, 0)), ((5, 3), (2, 3)), ((7, 0, 9), (1, 3, 0))])
def test_gcd_lines_match_math_gcd(start, step):
    w = gcd_word(thue_morse_word(), len(start))
    expected = [math.gcd(*vec_add(start, vec_scale(step, ell))).bit_count() & 1
                for ell in range(80)]
    assert w.letters_along(start, step, 80).tolist() == expected


def test_gcd_lines_through_negative_coordinates_are_refused():
    w = gcd_word(thue_morse_word(), 2)
    with pytest.raises(InvalidInput):
        w.letters_along((3, 2), (-1, 1), 8)
