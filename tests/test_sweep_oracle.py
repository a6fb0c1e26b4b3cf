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

from multirec import lattice, recurrence
from multirec.cli import resolve_word
from multirec.generators import Morphism
from multirec.lattice import FiniteWord, WordSource, iter_box, translate_origin, vec_add
from multirec.recurrence import (
    BOUNDED_WITNESSED,
    GAP_EXCEEDS_CLAIM,
    NO_RECURRENCE_IN_HORIZON,
    GapReport,
    RecurrenceBudget,
    _summarize,
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


def reference_report(w, q, size, p0, horizon, claim=None) -> GapReport:
    occ = lazy_occurrences(w, q, size, p0, horizon)
    bound = claim(size) if callable(claim) else claim
    if len(occ) < 2:
        refuted = bound is not None and horizon >= bound
        return GapReport(q, size, p0, occ, None,
                         GAP_EXCEEDS_CLAIM if refuted else NO_RECURRENCE_IN_HORIZON)
    gap = max(b - a for a, b in zip(occ, occ[1:] + (horizon,)))
    exceeds = bound is not None and gap > bound
    return GapReport(q, size, p0, occ, gap, GAP_EXCEEDS_CLAIM if exceeds else BOUNDED_WITNESSED)


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
    **{name: (lambda name=name: resolve_word(name)) for name in (
        "sierpinski", "surd-not-ssurdo-2x2", "ssurdo-3x3", "suffnotnec-3x3",
        "preimage-3x2", "sturmian", "gcd-thue-morse", "fib-rows", "thue-morse")},
    "toeplitz-random": lambda: resolve_word("toeplitz-random", seed=4),
    **{f"random-morphism-{seed}": (lambda seed=seed: random_square_morphism(seed).fixed_point(0))
       for seed in range(3)},
}

claims = st.none() | st.integers(1, 40) | st.just(lambda s: 3 * max(s))


@pytest.mark.parametrize("name", sorted(WORDS))
@given(horizon=st.integers(1, 200), direction_bound=st.integers(1, 3),
       size_bound=st.integers(1, 2), origin_bound=st.integers(1, 2), claim=claims,
       table_cells=st.sampled_from([recurrence._SLICE_LETTERS, 300, 1]))
@settings(max_examples=6, deadline=None)
def test_sweeps_match_the_lazy_reference(name, horizon, direction_bound, size_bound,
                                         origin_bound, claim, table_cells):
    """A narrow ``table_cells`` builds each table in several slices: with
    300 cells they are cut along the multipliers, and along the directions
    in the wider sweeps; with 1 each slice holds 8 multipliers of one
    direction."""
    w = WORDS[name]()
    budget = RecurrenceBudget(horizon, direction_bound, size_bound, origin_bound)
    with mock.patch.object(recurrence, "_SLICE_LETTERS", table_cells):
        urd = check_urd_empirical(w, budget, claim=claim)
        surd = check_surd_empirical(w, budget, claim=claim)
        ssurdo = check_ssurdo_empirical(w, budget, claim=claim)
    at_zero = reference_sweep(w, budget, None, claim, 0)
    assert urd == [r for _, reports in at_zero for r in reports]
    assert surd == [_summarize(s, reports) for s, reports in at_zero]
    assert ssurdo == [_summarize(s, reports) for s, reports in
                      reference_sweep(w, budget, None, claim, origin_bound)]


@pytest.mark.parametrize("name", ["sturmian", "surd-not-ssurdo-2x2", "gcd-thue-morse",
                                  "toeplitz-random", "random-morphism-1"])
def test_wide_tables_split_over_several_builder_calls(name):
    """A horizon of 3000 over five directions is more than one builder call
    holds, for a start and for a table."""
    w = WORDS[name]()
    budget = RecurrenceBudget(3000, 2, 2, 1)
    sizes = [(2, 1), (1, 2)]
    assert 5 * 3001 > 1 << 13
    assert check_ssurdo_empirical(w, budget, sizes) == [
        _summarize(s, reports) for s, reports in reference_sweep(w, budget, sizes, None, 1)]


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
    horizon = data.draw(st.integers(1, 30 if max(origin) > 50 else 300), label="horizon")
    claim = data.draw(claims, label="claim")
    expected = reference_report(w, q, size, origin, horizon, claim)
    assert gap_report(w, q, size, origin, horizon, claim) == expected
    assert occurrence_indices(w, q, size, origin, horizon) == list(expected.occurrences)


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
    """The translated word's reads reach 2^62 inside its inner gate."""
    w = translate_origin(WORDS[name](), (_FAR - 30, 7))
    budget = RecurrenceBudget(40, 2, 2, 1)
    assert check_ssurdo_empirical(w, budget) == [
        _summarize(s, reports) for s, reports in reference_sweep(w, budget, None, None, 1)]


@pytest.mark.parametrize("slice_letters", [1, 216, 1080])
def test_tables_built_in_slices_match_the_lazy_reference(slice_letters):
    """The sweep reads 9 starts along 5 directions.  A slice of 1080
    letters takes 24 multipliers of every direction, one of 216 takes 8
    multipliers of 3 directions, and one of 1 takes 8 multipliers (a byte
    of the bit rows) of one direction."""
    w = WORDS["surd-not-ssurdo-2x2"]()
    budget = RecurrenceBudget(130, 2, 2, 1)
    with mock.patch.object(recurrence, "_SLICE_LETTERS", slice_letters):
        got = check_ssurdo_empirical(w, budget)
        report = gap_report(w, (2, 1), (3, 2), (4, 5), 130)
    assert got == [_summarize(s, reports) for s, reports in
                   reference_sweep(w, budget, None, None, 1)]
    assert report == reference_report(w, (2, 1), (3, 2), (4, 5), 130)


@pytest.mark.parametrize("slice_letters", [100, 5000])
def test_slices_and_reads_stay_within_their_caps(slice_letters):
    """Each letters_on_lines call of the sweep reads at most _SLICE_LETTERS
    letters and each builder call at most _CALL_LETTERS, whatever the
    horizon: 5000 letters take 56 multipliers of all 9 directions, 100
    take 8 of one, and the gate cuts either into builder calls."""
    plain = WORDS["sturmian"]()
    calls = []

    def recorded(starts, steps, ells):
        calls.append((starts.tolist(), steps.tolist(), ells.tolist()))
        return plain._line_builder(starts, steps, ells)

    w = WordSource(plain.dimension, plain.alphabet_size, plain._evaluator, recorded)
    budget = RecurrenceBudget(2000, 3, 2, 1)
    reads = []
    read = WordSource.letters_on_lines

    def counted_read(self, starts, steps, multipliers):
        out = read(self, starts, steps, multipliers)
        reads.append(out.size)
        return out

    with mock.patch.object(WordSource, "letters_on_lines", counted_read), \
            mock.patch.object(recurrence, "_SLICE_LETTERS", slice_letters), \
            mock.patch.object(lattice, "_CALL_LETTERS", 300):
        got = check_ssurdo_empirical(w, budget)
    assert len(reads) > 1 and max(reads) <= slice_letters
    assert max(len(s) * len(q) * len(e) for s, q, e in calls) <= 300
    # the table's 9 starts x 9 directions x 2001 multipliers, each read once
    letters = Counter((tuple(p), tuple(q), ell) for starts, steps, ells in calls
                      for p in starts for q in steps for ell in ells)
    assert len(letters) == 9 * 9 * 2001 and set(letters.values()) == {1}
    assert got == [_summarize(s, reports) for s, reports in
                   reference_sweep(plain, budget, None, None, 1)]
