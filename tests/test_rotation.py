from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multirec.errors import NotFound
from multirec.lattice import FiniteWord, factor_at
from multirec.quadratic import QuadExt
from multirec.rotation import (
    _BAND,
    _GUARD,
    _fixed_line,
    LOWER,
    UPPER,
    IntervalPartition,
    IntervalSet,
    RotationWordSpec,
    factor_interval_set,
    occurs_at,
    rational_independence_check,
    sturmian_spec,
    surd_failure_direction,
    three_gap_analysis,
)

SQRT2 = QuadExt.sqrt(2)
SQRT3 = QuadExt.sqrt(3)
SQRT5 = QuadExt.sqrt(5)


def factor_occurs(spec, f: FiniteWord) -> bool:
    return not factor_interval_set(spec, f).is_empty()


def total_length(s: IntervalSet) -> QuadExt:
    out = QuadExt()
    for lo, hi in s.components:
        out = out + (hi - lo)
    return out


def test_partition_membership_respects_orientation():
    cut = QuadExt.rational(Fraction(1, 3))
    lower = IntervalPartition([cut], orientation=LOWER)
    upper = IntervalPartition([cut], orientation=UPPER)
    assert lower.letter_at(cut) == 1
    assert upper.letter_at(cut) == 0
    assert upper.letter_at(QuadExt.rational(0)) == 1


def test_interval_set_rotate_back_preserves_length():
    s = IntervalSet([(QuadExt.rational(Fraction(1, 4)),
                      QuadExt.rational(Fraction(1, 2)))])
    moved = s.rotate_back(SQRT2 - 1)
    assert total_length(moved) == total_length(s)


def test_intersection_with_full_circle_is_identity():
    s = IntervalSet([(QuadExt.rational(Fraction(1, 5)),
                      QuadExt.rational(Fraction(2, 5)))])
    assert total_length(s.intersect(IntervalSet.full())) == total_length(s)


def test_rational_independence_examples():
    half = SQRT2 / 2
    assert not rational_independence_check([half, QuadExt.rational(1) - half])
    assert rational_independence_check([half, SQRT3 / 3])


def test_sturmian_first_letters():
    spec = sturmian_spec(labels=(1, 2))
    assert spec.letter((0, 0)) == 1
    assert spec.letter((1, 0)) == 2
    assert spec.letter((0, 1)) == 2


# Sparse increasing multipliers, some clustered around 4096 and 8192.
_multipliers = st.lists(
    st.sampled_from([0, 1, 2, 4095, 4096, 4097, 8191, 8192, 8193]) | st.integers(0, 9000),
    min_size=1, max_size=12, unique=True,
).map(sorted)
_steps = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(any)


def _exact_letters(spec, start, step, ells):
    return [spec.letter((start[0] + ell * step[0], start[1] + ell * step[1]))
            for ell in ells]


@given(st.tuples(st.integers(0, 10**9), st.integers(0, 10**9)), _steps, _multipliers)
@settings(max_examples=60, deadline=None)
def test_letters_along_matches_exact_letters_at_sparse_multipliers(start, step, ells):
    spec = sturmian_spec()
    assert spec.word().letters_along(start, step, ells).tolist() == _exact_letters(spec, start, step, ells)


def _convergent_denominators(alpha: QuadExt, count: int) -> list[int]:
    """Denominators n of alpha's continued-fraction convergents: n*alpha
    lies within 1/n of an integer."""
    out, prev, cur, x = [], 1, 0, alpha
    for _ in range(count):
        a = x.floor()
        prev, cur = cur, a * cur + prev
        out.append(cur)
        # 1/(b + c*sqrt(n)) = (b - c*sqrt(n)) / (b^2 - n*c^2)
        (_, b), (n, c) = sorted(({1: Fraction(0)} | (x - a).coefficients()).items())
        x = (QuadExt.rational(b) - QuadExt.sqrt(n, c)) / (b * b - n * c * c)
    return out


def _near_edge_starts() -> list[tuple[int, int]]:
    """Starts whose orbit point lies just off the cut alpha_1 or the 0/1
    seam: (n, 0) and (n + 1, 0) for convergents n of alpha_1, (0, m) and
    (1, m) for convergents m of alpha_2, up to 1e9."""
    a1, a2 = sturmian_spec().alpha
    xs = [n for n in _convergent_denominators(a1, 30) if n < 10**9]
    ys = [m for m in _convergent_denominators(a2, 40) if m < 10**9]
    return sorted({(n + j, 0) for n in xs for j in (0, 1)}
                  | {(j, m) for m in ys for j in (0, 1)})


NEAR_EDGE_STARTS = _near_edge_starts()


def test_near_edge_starts_reach_the_guard_band():
    spec = sturmian_spec()
    edges = (QuadExt.rational(0), QuadExt.rational(1), *spec.partition.cuts)
    dist = [min(abs((spec.point(p) - e).to_float()) for e in edges)
            for p in NEAR_EDGE_STARTS]
    assert sum(d < _GUARD for d in dist) >= 4


@given(st.sampled_from(NEAR_EDGE_STARTS), st.sampled_from([(1, 0), (0, 1), (1, 1)]),
       _multipliers, st.sampled_from([LOWER, UPPER]))
@settings(max_examples=80, deadline=None)
def test_letters_along_matches_exact_letters_near_a_cut(start, step, ells, orientation):
    base = sturmian_spec()
    spec = RotationWordSpec(base.alpha, base.rho,
                            IntervalPartition(base.partition.cuts, orientation=orientation))
    assert spec.word().letters_along(start, step, ells).tolist() == _exact_letters(spec, start, step, ells)


@pytest.mark.parametrize("start", [(93222359, 0), (543339721, 0)])
@pytest.mark.parametrize("step", [(1, 0), (0, 1), (1, 1)])
def test_far_convergent_starts_read_their_exact_letters(start, step):
    """Both starts lie within 1e-7 of the cut, closer than a float sum of
    the terms of their exact orbit point can resolve."""
    spec = sturmian_spec()
    assert spec.word().letters_along(start, step, 3).tolist() == _exact_letters(spec, start, step, range(3))


def _best_denominators(alpha: QuadExt, lo: int, hi: int) -> list[int]:
    """Convergent and intermediate denominators n in [lo, hi) of alpha,
    where n*alpha lies closest to an integer for its size."""
    dens = _convergent_denominators(alpha, 60)
    return sorted({k * b + a for a, b in zip(dens, dens[1:])
                   for k in range(4) if lo <= k * b + a < hi})


def _orientations(spec):
    return [RotationWordSpec(spec.alpha, spec.rho,
                             IntervalPartition(spec.partition.cuts, orientation=o))
            for o in (LOWER, UPPER)]


@pytest.mark.parametrize("axis", [0, 1])
def test_lines_straddling_the_fixed_point_bound_read_their_exact_letters(axis):
    """Along e_axis from 0 and from e_0, multiplier n is the point
    n*alpha_axis (+ alpha_1), within 1e-9 of the seam (or the cut) for the
    best denominators n of alpha_axis.  The error bound 1 + sum(start) + ell
    crosses _BAND = 2^34 among them, and past it the uint64 point can be
    off by more than the guard band, so only an exact read is sure to get
    those letters right."""
    base = sturmian_spec()
    ells = [0, 1] + _best_denominators(base.alpha[axis], 1 << 30, 1 << 36)
    assert ells[2] + 1 < _BAND <= ells[-1] + 1
    step = tuple(int(i == axis) for i in range(2))
    for spec in _orientations(base):
        for start in ((0, 0), (1, 0)):
            assert (spec.word().letters_along(start, step, ells).tolist()
                    == _exact_letters(spec, start, step, ells))


def test_fixed_line_switches_to_exact_reads_where_the_error_bound_reaches_the_band():
    """Points at 1/2 are far from every edge, so only the error bound
    1 + spread_p + ell * spread_q masks them."""
    for spread_p, spread_q in ((0, 1), (1000, 3), (_BAND - 2, 5), (_BAND - 1, 1), (5, 0)):
        ells = np.array(sorted({0, 1, 2, *(max(0, (_BAND - 1 - spread_p) // max(spread_q, 1) + j)
                                           for j in (-1, 0, 1))}), dtype=np.int64)
        _, exact = _fixed_line([1 << 63], [0], ells, np.array([], dtype=np.uint64),
                               [spread_p], [spread_q])
        assert exact[0].tolist() == [1 + spread_p + ell * spread_q >= _BAND for ell in ells.tolist()]


def test_fixed_line_bounds_each_line_of_a_family_by_its_own_spreads():
    spreads = [(p, q) for p in (0, _BAND - 40, _BAND) for q in (1, 7, 0)]
    ells = np.array([0, 5, 6, 9, 1 << 31, (1 << 34) - 2, 1 << 34], dtype=np.int64)
    x, exact = _fixed_line([1 << 63] * 9, [0] * 9, ells, np.array([], dtype=np.uint64),
                           *zip(*spreads))
    assert x.shape == exact.shape == (9, len(ells))
    assert exact.tolist() == [[1 + p + ell * q >= _BAND for ell in ells.tolist()]
                              for p, q in spreads]


def test_family_reads_put_exact_letters_on_their_own_line():
    """Past two multipliers the step (2^33, 1) has an error bound of 2^34
    units, so its letters are read exactly, while the other step's stay on
    the fixed-point circle."""
    w = sturmian_spec().word()
    starts, steps = [(0, 0), (3, 1)], [(1, 0), (1 << 33, 1)]
    out = w.letters_on_lines(starts, steps, 12)
    assert out.tolist() == [[[w.letter((p[0] + ell * q[0], p[1] + ell * q[1])) for ell in range(12)]
                             for q in steps] for p in starts]


def test_fixed_orbit_stays_uint64_and_wraps_mod_2_64():
    """numpy 1.24 turns uint64 mixed with int64 into float64 without a
    word; the orbit must stay exact integers mod 2^64."""
    x0, delta = (1 << 64) - 12345, (1 << 63) + 987654321
    ells = np.array([0, 1, 2, 3, 1 << 31, (1 << 62) + 7], dtype=np.int64)
    edges = np.array([1 << 62, 3 << 62], dtype=np.uint64)
    x, exact = _fixed_line([x0], [delta], ells, edges, [0], [1])
    assert x.dtype == np.uint64
    assert x[0].tolist() == [(x0 + ell * delta) % (1 << 64) for ell in ells.tolist()]
    assert exact.dtype == bool


@pytest.mark.parametrize("delta", [SQRT2 - 1, (SQRT5 - 1) / 2, SQRT3 - 1])
@pytest.mark.parametrize("orientation", [LOWER, UPPER])
def test_three_gap_analysis_decides_orbit_points_on_a_component_edge(delta, orientation):
    """Every component end is an orbit point (or the seam, where ell = 0
    sits), which a uint64 read puts a unit off in one orientation."""
    horizon = 300
    x = [(delta * ell).mod1() for ell in range(horizon + 1)]
    for lo, hi in ((x[3], x[8]), (x[8], x[3]), (x[0], x[5]), (x[5], QuadExt.rational(1))):
        comps = [(lo, hi)] if lo < hi else [(lo, QuadExt.rational(1)), (x[0], hi)]
        interval = IntervalSet(comps, orientation)
        visits = [ell for ell in range(horizon + 1) if interval.contains(x[ell])]
        assert three_gap_analysis(delta, interval, horizon) == set(np.diff(visits).tolist())


def test_horizontal_pair_intervals_predict_sampled_occurrences():
    """Interval membership and the sampled grid must agree cell by cell,
    whether or not the factor occurs at all: 00 needs a cell longer than
    1/2 and never shows up, 01 fills the whole first cell."""
    spec = sturmian_spec()
    w = spec.word()
    repeat = FiniteWord((2, 1), (0, 0))
    assert factor_interval_set(spec, repeat).is_empty()
    step = FiniteWord((2, 1), (0, 1))
    i_f = factor_interval_set(spec, step)
    assert not i_f.is_empty()
    for x in range(18):
        for y in range(18):
            sampled = factor_at(w, (x, y), (2, 1)) == step
            assert sampled == i_f.contains(spec.point((x, y)))
            assert sampled == occurs_at(spec, step, (x, y))
            assert (factor_at(w, (x, y), (2, 1)) == repeat) is False


def _square_factors_in_sample(side: int) -> set[FiniteWord]:
    rows = [sturmian_spec().word().letters_along((0, y), (1, 0), side + 1)
            for y in range(side + 1)]
    return {
        FiniteWord((2, 2), (rows[y][x], rows[y][x + 1],
                            rows[y + 1][x], rows[y + 1][x + 1]))
        for x in range(side)
        for y in range(side)
    }


def test_every_sampled_square_factor_is_recognized():
    spec = sturmian_spec()
    for f in _square_factors_in_sample(40):
        assert factor_occurs(spec, f)


def test_absent_factor_has_empty_interval():
    import itertools

    spec = sturmian_spec()
    seen = _square_factors_in_sample(200)
    absent = [
        f
        for cells in itertools.product((0, 1), repeat=4)
        if (f := FiniteWord((2, 2), cells)) not in seen
    ]
    assert absent
    assert not factor_occurs(spec, absent[0])
    assert factor_interval_set(spec, absent[0]).is_empty()


def test_three_gap_bound_for_golden_angle():
    delta = (SQRT5 - 1) / 2
    interval = IntervalSet([(QuadExt.rational(0), delta)])
    gaps = three_gap_analysis(delta, interval, 10_000)
    assert gaps <= {1, 2, 3}


def test_three_gap_bound_for_narrow_interval():
    interval = IntervalSet([(QuadExt.rational(0), QuadExt.rational(Fraction(1, 10)))])
    gaps = three_gap_analysis(SQRT2 - 1, interval, 10_000)
    assert len(gaps) <= 3


def test_rational_angle_rejected_by_three_gap():
    with pytest.raises(ValueError):
        three_gap_analysis(QuadExt.rational(Fraction(1, 3)), IntervalSet.full(), 100)


def test_failure_direction_produces_long_constant_run():
    spec = sturmian_spec()
    q = surd_failure_direction(spec, 5)
    w = spec.word()
    line = w.letters_along((0, 0), q, 120)
    best = run = 1
    for a, b in zip(line, line[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    assert best >= 5


def test_failure_direction_needs_positive_run():
    with pytest.raises(ValueError):
        surd_failure_direction(sturmian_spec(), 0)


def test_interval_types_are_frozen_values():
    """Fields cannot be assigned, and sets or partitions built separately
    from equal ends are equal and hash equal."""
    half = Fraction(1, 2)
    s = IntervalSet([(Fraction(1, 4), half), (half, Fraction(3, 4))])
    t = IntervalSet([(QuadExt.rational(Fraction(1, 4)), QuadExt.rational(Fraction(3, 4)))])
    assert s == t and hash(s) == hash(t)
    assert s != IntervalSet(t.components, UPPER)
    p = IntervalPartition([SQRT2 - 1, half], [2, 0, 1])
    q = IntervalPartition((QuadExt.sqrt(8) / 2 - 1, QuadExt.rational(half)), (2, 0, 1), LOWER)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != IntervalPartition([SQRT2 - 1, half])
    for value, name in ((s, "components"), (s, "orientation"), (p, "cuts"),
                        (p, "labels"), (p, "orientation")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_min_cell_length_and_intersect_with_equal_ends():
    quarter, half = QuadExt.rational(Fraction(1, 4)), QuadExt.rational(Fraction(1, 2))
    assert IntervalPartition([quarter, half]).min_cell_length() == quarter
    g = (SQRT5 - 1) / 4
    assert IntervalPartition([g, 2 * g]).min_cell_length() == g
    assert IntervalPartition([1 - 2 * g, 1 - g]).min_cell_length() == g
    a = IntervalSet([(quarter, half)])
    assert a.intersect(IntervalSet([(quarter, 3 * quarter)])) == a
    assert a.intersect(IntervalSet([(0, half)])) == a
    assert a.intersect(a) == a
    b = IntervalSet([(Fraction(1, 5), SQRT2 - 1)])
    assert b.intersect(IntervalSet([(Fraction(3, 10), SQRT2 - 1)])).components == (
        (QuadExt.rational(Fraction(3, 10)), SQRT2 - 1),)
    assert a.intersect(IntervalSet([(half, 1)])).is_empty()


def test_interval_sets_do_not_depend_on_the_order_of_their_components():
    """lo and lo + 10^-20 round to the same float, so only an exact
    sort puts the touching components in order and merges them."""
    lo = SQRT2 - 1
    near = lo + QuadExt.rational(Fraction(1, 10**20))
    half = QuadExt.rational(Fraction(1, 2))
    parts = [(lo, near), (near, half), (Fraction(3, 4), Fraction(4, 5))]
    expected = ((lo, half), (QuadExt.rational(Fraction(3, 4)), QuadExt.rational(Fraction(4, 5))))
    for order in itertools.permutations(parts):
        s = IntervalSet(order)
        assert s.components == expected
        assert s == IntervalSet(parts) and hash(s) == hash(IntervalSet(parts))
    # the two touching components merge into one arc, where three gaps hold
    for order in (parts[:2], parts[1::-1]):
        assert three_gap_analysis(SQRT5 - 2, IntervalSet(order), 2000) == {4, 13, 17}


def test_overlapping_and_nested_components_merge():
    s = IntervalSet([(Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 5), Fraction(3, 10))])
    assert s == IntervalSet([(Fraction(1, 10), Fraction(1, 2))])
    assert len(s.components) == 1
    assert three_gap_analysis(SQRT5 - 2, s, 300) == {1, 3, 4}
    t = IntervalSet([(Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 10), Fraction(1, 2))])
    assert t.components == ((QuadExt.rational(Fraction(1, 10)), QuadExt.rational(Fraction(3, 4))),)


def test_three_gap_analysis_refuses_more_than_one_arc():
    two_arcs = IntervalSet([(Fraction(1, 7), Fraction(2, 7)), (Fraction(3, 7), Fraction(5, 7))])
    with pytest.raises(ValueError, match="one arc"):
        three_gap_analysis(SQRT5 - 2, two_arcs, 2000)
    three = IntervalSet([(0, Fraction(1, 7)), (Fraction(3, 7), Fraction(4, 7)), (Fraction(6, 7), 1)])
    with pytest.raises(ValueError, match="one arc"):
        three_gap_analysis(SQRT5 - 2, three, 2000)


_TWELFTHS = st.integers(0, 12).map(lambda k: Fraction(k, 12))


def _in_union(pieces, x: Fraction, orientation: str) -> bool:
    if orientation == UPPER:
        x = x or Fraction(1)
        return any(lo < x <= hi for lo, hi in pieces)
    return any(lo <= x < hi for lo, hi in pieces)


@given(st.lists(st.tuples(_TWELFTHS, _TWELFTHS), max_size=5), st.sampled_from([LOWER, UPPER]))
@settings(max_examples=100, deadline=None)
def test_interval_set_components_are_sorted_apart_and_keep_membership(pieces, orientation):
    s = IntervalSet(pieces, orientation)
    for (_, hi), (lo, _) in zip(s.components, s.components[1:]):
        assert hi < lo
    assert all(lo < hi for lo, hi in s.components)
    for k in range(48):
        x = Fraction(k, 48)
        assert s.contains(QuadExt.rational(x)) == _in_union(pieces, x, orientation)


@st.composite
def one_arc_pieces(draw):
    """Pieces, in 24ths of the circle, that overlap, nest and touch so that
    their union is one arc [start, start + length), cut at the seam."""
    start, length = draw(st.integers(0, 23)), draw(st.integers(1, 23))
    end = start + length
    cuts = sorted(set(draw(st.lists(st.integers(start + 1, end - 1), max_size=3)))) if length > 1 else []
    bounds = [start, *cuts, end]
    units = [(a, min(end, b + draw(st.integers(0, 2)))) for a, b in zip(bounds, bounds[1:])]
    units += [(a, a + 1) for a in draw(st.lists(st.integers(start, end - 1), max_size=2))]
    pieces = []
    for a, b in units:
        a, b = (a - 24, b - 24) if a >= 24 else (a, b)
        pieces += [(a, 24), (0, b - 24)] if b > 24 else [(a, b)]
    pieces = [(Fraction(a, 24), Fraction(b, 24)) for a, b in pieces]
    return draw(st.permutations(pieces))


@given(one_arc_pieces(), st.sampled_from([LOWER, UPPER]))
@settings(max_examples=40, deadline=None)
def test_three_gap_analysis_on_one_arc_matches_the_visits(pieces, orientation):
    delta, horizon = SQRT2 - 1, 300
    s = IntervalSet(pieces, orientation)
    assert len(s.components) <= 2
    visits = [ell for ell in range(horizon + 1) if s.contains((delta * ell).mod1())]
    assert three_gap_analysis(delta, s, horizon) == set(np.diff(visits).tolist())
