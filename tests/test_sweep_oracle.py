"""Every gap report against the lazy per-cell reader it replaced.

``gap_report``, ``occurrence_indices`` and the urd/surd/ssurdo sweeps read
each line once into a boolean match table and AND a block's cells over it.
``lazy_occurrences`` is the older reader, kept here as the reference: each
block cell is read along its line with ``letters_along``, only at the
multipliers where the cells before it matched.  The words cover every
line builder (morphic presets and random square morphisms, the Sturmian
rotation, gcd and Toeplitz) and a word without one (fib-rows); the
budgets cover tables split over several builder calls, tables built in
slices along the multipliers and the directions, and lines whose reach
crosses 2^62, which are read pointwise.
"""

from __future__ import annotations

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multirec import lattice
from multirec.generators import Morphism, named_word
from multirec.lattice import FiniteWord, WordSource, iter_box, vec_add
from multirec.recurrence import (
    BOUNDED_WITNESSED,
    GAP_EXCEEDS_CLAIM,
    NO_RECURRENCE_IN_HORIZON,
    GapReport,
    RecurrenceBudget,
    SizeSummary,
    check_ssurdo_empirical,
    check_surd_empirical,
    check_urd_empirical,
    enumerate_directions,
    enumerate_sizes,
    gap_report,
    occurrence_indices,
)

_FAR = 1 << 62


def lazy_occurrences(w, q, size, p0, horizon) -> tuple[int, ...]:
    """The multipliers ell <= horizon where the block at p0 reappears at
    p0 + ell*q, one cell at a time over the multipliers still alive."""
    alive = np.arange(horizon + 1, dtype=np.int64)
    for o in iter_box(size):
        if len(alive) == 1:
            break
        line = w.letters_along(vec_add(p0, o), q, alive)
        alive = alive[line == line[0]]
    return tuple(alive.tolist())


def packed_row(occ, horizon) -> bytes:
    """One bit per multiplier 0..horizon, most significant bit first, the
    pad bits of the last byte clear."""
    row = bytearray(horizon // 8 + 1)
    for ell in occ:
        row[ell // 8] |= 0x80 >> ell % 8
    return bytes(row)


def reference_report(w, q, size, p0, horizon, claim=None) -> GapReport:
    occ = lazy_occurrences(w, q, size, p0, horizon)
    bound = claim(size) if callable(claim) else claim
    row, tail = packed_row(occ, horizon), horizon - occ[-1]
    if len(occ) < 2:
        refuted = bound is not None and horizon >= bound
        return GapReport(q, size, p0, len(occ), None, tail,
                         GAP_EXCEEDS_CLAIM if refuted else NO_RECURRENCE_IN_HORIZON, row)
    internal = max(b - a for a, b in zip(occ, occ[1:]))
    exceeds = bound is not None and max(internal, tail) > bound
    return GapReport(q, size, p0, len(occ), internal, tail,
                     GAP_EXCEEDS_CLAIM if exceeds else BOUNDED_WITNESSED, row)


def reference_summary(size, reports) -> SizeSummary:
    """The first of the worst reports, by the list rule: a broken claim
    outranks a lone occurrence, which outranks any gap; the bound is the
    largest max gap, or None if any report has a lone occurrence."""
    def severity(r):
        if r.verdict == GAP_EXCEEDS_CLAIM:
            return (2, 0)
        return (1, 0) if r.max_gap is None else (0, r.max_gap)

    gaps = [r.max_gap for r in reports]
    worst = max(reports, key=severity)
    return SizeSummary(size, None if None in gaps else max(gaps), worst, worst.verdict)


def reference_sweep(w, budget, sizes, claim, origin_bound):
    """Per size, the reports of every origin (outer) and direction (inner)."""
    d = w.dimension
    sizes = enumerate_sizes(d, budget.size_bound) if sizes is None else sizes
    dirs = enumerate_directions(d, budget.direction_bound)
    origins = list(itertools.product(range(origin_bound + 1), repeat=d))
    return [(s, [reference_report(w, q, s, p, budget.horizon, claim)
                 for p in origins for q in dirs]) for s in sizes]


def random_square_morphism(seed: int) -> Morphism:
    """A prolongable square morphism, d = 2, k and s in {2, 3}."""
    rng = np.random.default_rng(seed)
    k, s = (int(v) for v in rng.integers(2, 4, size=2))
    images = [rng.integers(0, k, size=s * s).tolist() for _ in range(k)]
    images[0][0] = 0
    return Morphism([FiniteWord((s, s), cells) for cells in images])


WORDS = {
    **{name: (lambda name=name: named_word(name)) for name in (
        "sierpinski", "surd-not-ssurdo-2x2", "ssurdo-3x3", "suffnotnec-3x3",
        "preimage-3x2", "sturmian", "gcd-thue-morse", "fib-rows", "thue-morse")},
    "toeplitz-random": lambda: named_word("toeplitz-random", seed=4),
    **{f"random-morphism-{seed}": (lambda seed=seed: random_square_morphism(seed).fixed_point(0))
       for seed in range(3)},
}

claims = st.none() | st.integers(1, 40) | st.just(lambda s: 3 * max(s))


@pytest.mark.parametrize("name", sorted(WORDS))
@given(horizon=st.integers(1, 200), direction_bound=st.integers(1, 3),
       size_bound=st.integers(1, 2), origin_bound=st.integers(1, 2), claim=claims,
       table_cells=st.sampled_from([lattice._SLICE_LETTERS, 300, 1]))
@settings(max_examples=6, deadline=None)
def test_sweeps_match_the_lazy_reference(name, horizon, direction_bound, size_bound,
                                         origin_bound, claim, table_cells):
    """A narrow ``table_cells`` builds each table in several slices: with
    300 cells a slice holds several whole directions of the short, narrow
    sweeps and part of one direction of the others; with 1 each slice holds
    8 multipliers of one direction."""
    w = WORDS[name]()
    budget = RecurrenceBudget(horizon, direction_bound, size_bound, origin_bound)
    with mock.patch.object(lattice, "_SLICE_LETTERS", table_cells):
        urd = check_urd_empirical(w, budget, claim=claim)
        surd = check_surd_empirical(w, budget, claim=claim)
        ssurdo = check_ssurdo_empirical(w, budget, claim=claim)
    at_zero = reference_sweep(w, budget, None, claim, 0)
    assert urd == [r for _, reports in at_zero for r in reports]
    assert [r.occurrences for r in urd] == [
        lazy_occurrences(w, r.direction, r.size, r.origin, horizon) for r in urd]
    assert surd == [reference_summary(s, reports) for s, reports in at_zero]
    assert ssurdo == [reference_summary(s, reports) for s, reports in
                      reference_sweep(w, budget, None, claim, origin_bound)]


@pytest.mark.parametrize("name", ["sturmian", "surd-not-ssurdo-2x2", "gcd-thue-morse",
                                  "toeplitz-random", "random-morphism-1"])
def test_wide_tables_split_over_several_builder_calls(name):
    """Five directions to a horizon of about _CALL_LETTERS / 4 are more
    than one builder call holds, for a start and for a table."""
    w = WORDS[name]()
    horizon = lattice._CALL_LETTERS // 4
    budget = RecurrenceBudget(horizon, 2, 2, 1)
    sizes = [(2, 1), (1, 2)]
    assert len(enumerate_directions(2, 2)) == 5
    assert 5 * (horizon + 1) > lattice._CALL_LETTERS
    assert check_ssurdo_empirical(w, budget, sizes) == [
        reference_summary(s, reports) for s, reports in reference_sweep(w, budget, sizes, None, 1)]


@pytest.mark.parametrize("name", sorted(WORDS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_gap_reports_match_the_lazy_reference(name, data):
    w = WORDS[name]()
    d = w.dimension
    coord = st.integers(0, 50) | st.integers(_FAR - 40, _FAR + 40)
    q = data.draw(st.tuples(*[st.integers(0, 4)] * d).filter(any), label="q")
    size = data.draw(st.tuples(*[st.integers(1, 3)] * d), label="size")
    origin = data.draw(st.tuples(*[coord] * d), label="origin")
    # far origins are read pointwise: keep their lines short
    horizon = data.draw(st.integers(0, 30 if max(origin) > 50 else 300), label="horizon")
    claim = data.draw(claims, label="claim")
    expected = reference_report(w, q, size, origin, horizon, claim)
    got = gap_report(w, q, size, origin, horizon, claim)
    assert got == expected
    assert (got.max_gap, got.verdict) == (expected.max_gap, expected.verdict)
    occ = lazy_occurrences(w, q, size, origin, horizon)
    assert got.occurrences == occ
    assert occurrence_indices(w, q, size, origin, horizon) == list(occ)


@pytest.mark.parametrize("name", ["sturmian", "sierpinski", "gcd-thue-morse", "toeplitz-random"])
def test_directions_reaching_2_62_are_read_pointwise(name):
    """One multiplier of a huge direction already crosses the reach."""
    w = WORDS[name]()
    for q, horizon in (((_FAR // 2, 1), 3), ((1, _FAR - 5), 2), ((3, 1 << 59), 9)):
        for size in ((1, 1), (2, 1), (2, 2)):
            assert gap_report(w, q, size, (1, 2), horizon) == \
                reference_report(w, q, size, (1, 2), horizon)


@pytest.mark.parametrize("name", ["sturmian", "ssurdo-3x3", "gcd-thue-morse", "fib-rows"])
def test_sweeps_of_a_word_translated_past_2_62(name):
    """The word read from origins just below 2^62, over the directions and
    sizes of a sweep: every line's reach crosses 2^62."""
    w = WORDS[name]()
    for origin in ((_FAR - 30, 7), (7, _FAR - 31), (_FAR - 30, _FAR - 29)):
        for q in enumerate_directions(2, 2):
            for size in enumerate_sizes(2, 2):
                assert gap_report(w, q, size, origin, 40) == \
                    reference_report(w, q, size, origin, 40)


@pytest.mark.parametrize("slice_letters", [1, 216, 1080])
def test_tables_built_in_slices_match_the_lazy_reference(slice_letters):
    """The sweep reads 9 starts along 5 directions to 131 multipliers, more
    than one direction fits in 1080 letters: a slice of 1080 letters takes
    120 multipliers of one direction, one of 216 takes 24, and one of 1
    takes 8 (a byte of the bit rows)."""
    w = WORDS["surd-not-ssurdo-2x2"]()
    budget = RecurrenceBudget(130, 2, 2, 1)
    with mock.patch.object(lattice, "_SLICE_LETTERS", slice_letters):
        got = check_ssurdo_empirical(w, budget)
        report = gap_report(w, (2, 1), (3, 2), (4, 5), 130)
    assert got == [reference_summary(s, reports) for s, reports in
                   reference_sweep(w, budget, None, None, 1)]
    assert report == reference_report(w, (2, 1), (3, 2), (4, 5), 130)


@pytest.mark.parametrize("slice_letters", [100, 5000])
def test_slices_and_reads_stay_within_their_caps(slice_letters):
    """Each letters_on_lines call of the sweep reads at most _SLICE_LETTERS
    letters and each builder call at most _CALL_LETTERS, whatever the
    horizon: 5000 letters take 552 multipliers of one of the 9 directions,
    100 take 8, and the gate cuts either into builder calls."""
    plain = WORDS["sturmian"]()
    calls = []

    def recorded(starts, steps, ells):
        calls.append((starts.tolist(), steps.tolist(), ells.tolist()))
        return plain.line_builder(starts, steps, ells)

    w = WordSource(plain.dimension, plain.alphabet_size, plain.evaluator, recorded)
    budget = RecurrenceBudget(2000, 3, 2, 1)
    reads = []
    read = WordSource.letters_on_lines

    def counted_read(self, starts, steps, multipliers):
        out = read(self, starts, steps, multipliers)
        reads.append(out.size)
        return out

    with mock.patch.object(WordSource, "letters_on_lines", counted_read), \
            mock.patch.object(lattice, "_SLICE_LETTERS", slice_letters), \
            mock.patch.object(lattice, "_CALL_LETTERS", 300):
        got = check_ssurdo_empirical(w, budget)
    assert len(reads) > 1 and max(reads) <= slice_letters
    assert max(len(s) * len(e) for s, _, e in calls) <= 300
    # the table's 9 starts x 9 directions x 2001 multipliers, each read once
    letters = Counter((tuple(p), tuple(q), ell) for starts, steps, ells in calls
                      for p, q in zip(starts, steps, strict=True) for ell in ells)
    assert len(letters) == 9 * 9 * 2001 and set(letters.values()) == {1}
    assert got == [reference_summary(s, reports) for s, reports in
                   reference_sweep(plain, budget, None, None, 1)]
