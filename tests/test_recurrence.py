from __future__ import annotations

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multirec import lattice
from multirec.errors import DegenerateDirection, DimensionError, InvalidInput
from multirec.generators import (
    SEEDED_RANDOM,
    ToeplitzSchedule,
    gcd_word,
    fib_rows_word,
    preset_word,
    thue_morse_word,
    toeplitz_construct,
    toeplitz_rows_word,
)
from multirec.lattice import WordSource, factor_at, vec_add, vec_scale
from multirec.recurrence import (
    BOUNDED_WITNESSED,
    GAP_EXCEEDS_CLAIM,
    NO_RECURRENCE_IN_HORIZON,
    GapReport,
    RecurrenceBudget,
    _gaps,
    _reports,
    _summarize,
    check_ssurdo_empirical,
    check_surd_empirical,
    check_ur_empirical,
    check_urd_empirical,
    enumerate_directions,
    enumerate_sizes,
    gap_report,
    occurrence_indices,
    sample_grid,
    smallest_covering_window,
)
from multirec.rotation import sturmian_spec
from test_sweep_oracle import reference_summary


def beacons(period: int) -> WordSource:
    return WordSource(1, 2, lambda p: 1 if p[0] % period == 0 else 0,
                      name=f"beacons({period})")


def lonely_one() -> WordSource:
    return WordSource(1, 2, lambda p: 1 if p[0] == 0 else 0, name="lonely")


def test_budget_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        RecurrenceBudget(horizon=0)


def test_enumerations_cover_expected_families():
    assert enumerate_sizes(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert enumerate_directions(2, 1) == [(0, 1), (1, 0), (1, 1)]


def test_occurrences_of_a_periodic_beacon():
    occ = occurrence_indices(beacons(3), (1,), (1,), horizon=20)
    assert occ == [0, 3, 6, 9, 12, 15, 18]


def test_gap_report_counts_the_tail():
    r = gap_report(beacons(3), (1,), (1,), horizon=20)
    assert r.verdict == BOUNDED_WITNESSED
    assert r.max_gap == 3
    assert r.bounded()


def test_gap_report_max_gap_can_be_the_tail():
    """Occurrences at 0, 2 and 4 only: the tail 20 - 4 is the strict
    maximum, and the report holds Python ints on both read paths."""
    early = WordSource(1, 2, lambda p: 1 if p[0] in (0, 2, 4) else 0, name="early")
    r = gap_report(early, (1,), (1,), horizon=20)
    assert r.occurrences == (0, 2, 4)
    assert (r.count, r.internal_gap, r.tail_gap, r.max_gap) == (3, 2, 16, 16)
    assert r.verdict == BOUNDED_WITNESSED
    morphic = gap_report(preset_word("sierpinski"), (1, 0), (2, 2), horizon=300)
    (swept,) = check_urd_empirical(beacons(3), RecurrenceBudget(20, 1, 1))
    for report in (r, morphic, swept):
        for value in (report.count, report.internal_gap, report.tail_gap, report.max_gap):
            assert type(value) is int
        assert all(type(ell) is int for ell in report.occurrences)


def test_last_occurrence_at_the_horizon_leaves_no_tail():
    r = gap_report(beacons(3), (1,), (1,), horizon=18)
    assert r.occurrences == (0, 3, 6, 9, 12, 15, 18)
    assert (r.count, r.internal_gap, r.tail_gap, r.max_gap) == (7, 3, 0, 3)
    assert gap_report(beacons(3), (1,), (1,), horizon=18, claim=3).verdict == BOUNDED_WITNESSED


@pytest.mark.parametrize("horizon", [7, 8, 15, 16, 63, 64, 1023, 1024])
def test_pad_bits_never_read_as_occurrences(horizon):
    """A block that occurs at every multiplier: with horizon = 7 mod 8 the
    row's last byte is full, with horizon = 0 mod 8 seven of its bits are
    padding.  The sweep builds its rows from slices of 8 multipliers."""
    ones = WordSource(1, 2, lambda p: 1, name="ones")
    r = gap_report(ones, (1,), (1,), horizon=horizon)
    with mock.patch.object(lattice, "_SLICE_LETTERS", 1):
        (swept,) = check_urd_empirical(ones, RecurrenceBudget(horizon, 1, 1))
    for report in (r, swept):
        assert report.occurrences == tuple(range(horizon + 1))
        assert (report.count, report.internal_gap, report.tail_gap) == (horizon + 1, 1, 0)
        assert len(report.row) == horizon // 8 + 1
    assert occurrence_indices(ones, (1,), (1,), horizon=horizon) == list(range(horizon + 1))


def test_claims_flip_the_verdict():
    assert gap_report(beacons(3), (1,), (1,), horizon=20, claim=3).verdict \
        == BOUNDED_WITNESSED
    assert gap_report(beacons(3), (1,), (1,), horizon=20, claim=2).verdict \
        == GAP_EXCEEDS_CLAIM
    assert gap_report(beacons(3), (1,), (1,), horizon=20,
                      claim=lambda s: 3).verdict == BOUNDED_WITNESSED


def test_single_occurrence_is_no_recurrence():
    r = gap_report(lonely_one(), (1,), (1,), horizon=50)
    assert r.verdict == NO_RECURRENCE_IN_HORIZON
    assert r.max_gap is None
    assert (r.occurrences, r.count, r.internal_gap, r.tail_gap) == ((0,), 1, None, 50)
    for claim, verdict in ((10, GAP_EXCEEDS_CLAIM), (50, GAP_EXCEEDS_CLAIM),
                           (51, NO_RECURRENCE_IN_HORIZON)):
        assert gap_report(lonely_one(), (1,), (1,), horizon=50, claim=claim).verdict == verdict


def test_gap_report_at_horizon_zero():
    """Only ell = 0 is read: one occurrence, no gap, and a tail of 0."""
    r = gap_report(beacons(3), (1,), (1,), horizon=0)
    assert (r.occurrences, r.count, r.internal_gap, r.tail_gap, r.max_gap) == ((0,), 1, None, 0, None)
    assert r.verdict == NO_RECURRENCE_IN_HORIZON
    assert r.row == b"\x80"
    assert gap_report(beacons(3), (1,), (1,), horizon=0, claim=1).verdict == NO_RECURRENCE_IN_HORIZON


@pytest.mark.parametrize("scan, error", [
    (lambda: gap_report(beacons(3), (1,), (1,), horizon=-1), InvalidInput),
    (lambda: occurrence_indices(beacons(3), (1,), (1,), horizon=-2), InvalidInput),
    (lambda: gap_report(preset_word("sierpinski"), (0, 0), (1, 1), horizon=20),
     DegenerateDirection),
    (lambda: gap_report(preset_word("sierpinski"), (1, 0), (0, 1), horizon=20), InvalidInput),
    (lambda: check_surd_empirical(preset_word("sierpinski"), RecurrenceBudget(20, 2),
                                  sizes=[(0, 2)]), InvalidInput),
    (lambda: gap_report(preset_word("sierpinski"), (1, 0), (1, 2, 3), horizon=5),
     DimensionError),
], ids=["negative-horizon", "negative-horizon-indices", "zero-direction", "zero-side",
        "zero-side-sweep", "mixed-dimensions"])
def test_scans_refuse_inputs_before_reading(scan, error):
    """A negative horizon, a block side of 0 and the zero direction have no
    occurrences to report, and a 3-D block has no place on a 2-D line: they
    are refused without a read."""
    with mock.patch.object(WordSource, "letters_on_lines",
                           side_effect=AssertionError("read")), pytest.raises(error):
        scan()


_SWEEPS = (check_urd_empirical, check_surd_empirical, check_ssurdo_empirical)


@pytest.mark.parametrize("claim", [0, -3, lambda s: 1 if s == (1, 1) else 0],
                         ids=["zero", "negative", "zero-at-one-size"])
@pytest.mark.parametrize("scan", [
    lambda w, claim: gap_report(w, (1, 0), (2, 1), horizon=20, claim=claim),
    *(lambda w, claim, sweep=sweep: sweep(w, RecurrenceBudget(20, 2, 2), claim=claim)
      for sweep in _SWEEPS),
], ids=["gap_report", *(sweep.__name__ for sweep in _SWEEPS)])
def test_scans_refuse_a_claim_below_1_before_reading(scan, claim):
    """No gap is below 1, so such a claim is refused, not scanned; a
    callable claim is checked at every size of the sweep first."""
    w = preset_word("sierpinski")
    with mock.patch.object(WordSource, "letters_on_lines", side_effect=AssertionError("read")), \
            mock.patch.object(WordSource, "letter", side_effect=AssertionError("read")), \
            pytest.raises(InvalidInput, match="no gap is below 1"):
        scan(w, claim)


def test_origin_changes_the_scanned_block():
    w = preset_word("surd-not-ssurdo-2x2")
    occ = occurrence_indices(w, (1, 0), (1, 1), origin=(7, 3), horizon=100)
    assert occ[:2] == [0, 13]


WORDS = {
    "rotation": lambda: sturmian_spec().word(),
    "morphic-2x2": lambda: preset_word("surd-not-ssurdo-2x2"),
    "morphic-3x3": lambda: preset_word("ssurdo-3x3"),
    "toeplitz": lambda: toeplitz_construct(ToeplitzSchedule(policy=SEEDED_RANDOM, seed=3)),
}


@pytest.mark.parametrize("name", sorted(WORDS))
@given(q=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
       size=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       origin=st.tuples(st.integers(0, 40), st.integers(0, 40)))
@settings(max_examples=20, deadline=None)
def test_occurrence_indices_match_a_naive_block_compare(name, q, size, origin):
    w = WORDS[name]()
    horizon = 60
    block = factor_at(w, origin, size)
    naive = [ell for ell in range(horizon + 1)
             if factor_at(w, vec_add(origin, vec_scale(q, ell)), size) == block]
    assert occurrence_indices(w, q, size, origin, horizon) == naive


def test_sierpinski_first_case4_direction_never_recurs():
    r = gap_report(preset_word("sierpinski"), (7, 1), (1, 1), horizon=1000)
    assert r.verdict == NO_RECURRENCE_IN_HORIZON
    assert r.occurrences == (0,)


def test_gcd_word_scan_is_bounded():
    w = gcd_word(thue_morse_word(), 2)
    budget = RecurrenceBudget(horizon=2000, direction_bound=4, size_bound=2)
    reports = check_urd_empirical(w, budget)
    assert reports
    assert all(r.verdict == BOUNDED_WITNESSED for r in reports)


def test_surd_summary_takes_the_worst_direction():
    w = preset_word("ssurdo-3x3")
    budget = RecurrenceBudget(horizon=1500, direction_bound=3, size_bound=2)
    for summary in check_surd_empirical(w, budget):
        assert summary.verdict == BOUNDED_WITNESSED
        assert summary.bound == summary.worst.max_gap
        assert summary.worst.size == summary.size


def test_ssurdo_summary_ranges_over_origins():
    w = preset_word("ssurdo-3x3")
    budget = RecurrenceBudget(horizon=800, direction_bound=2, size_bound=1,
                              origin_bound=2)
    (summary,) = check_ssurdo_empirical(w, budget)
    assert summary.size == (1, 1)
    assert summary.verdict == BOUNDED_WITNESSED
    assert summary.bound <= 3


def _summary(gaps: list[int | None], claim=None):
    """The summary of hand-built rows to horizon 63, one per entry of gaps:
    a lone occurrence for None, else occurrences at 0 and from g on, so
    that g is the row's max gap; the direction (n, 1) tells rows apart."""
    bits = np.zeros((len(gaps), 64), dtype=np.uint8)
    bits[:, 0] = 1
    for row, g in zip(bits, gaps):
        if g is not None:
            row[g:] = 1
    rows = np.packbits(bits, axis=-1)
    keys = [((0, 0), (n, 1)) for n in range(len(gaps))]
    s = _summarize((1, 1), keys, rows, _gaps(rows, 63), 63, claim)
    return s.worst.direction[0], s.worst.max_gap, s.bound, s.verdict


def test_summary_picks_the_first_worst_report():
    # under a claim of 8, the gap of 9, the lone occurrence (no recurrence
    # within 63 > 8) and the gap of 12 all break it: the first one wins
    assert _summary([4, 9, None, 12], claim=8) == (1, 9, None, GAP_EXCEEDS_CLAIM)
    assert _summary([4, None, 9], claim=lambda s: 8) == (1, None, None, GAP_EXCEEDS_CLAIM)
    assert _summary([7, None, 50, None]) == (1, None, None, NO_RECURRENCE_IN_HORIZON)
    assert _summary([3, 8, 5, 8]) == (1, 8, 8, BOUNDED_WITNESSED)
    assert _summary([3, 8, 5, 8], claim=8) == (1, 8, 8, BOUNDED_WITNESSED)


def reference_gaps(bits: list[int], horizon: int) -> tuple[int, int, int]:
    occ = [ell for ell, b in enumerate(bits) if b]
    return len(occ), max((b - a for a, b in zip(occ, occ[1:])), default=0), horizon - occ[-1]


@st.composite
def bit_rows(draw):
    """Rows of bits to a horizon, bit 0 set: random, lone (only bit 0),
    full, or random with the last occurrence at the horizon."""
    horizon = draw(st.integers(0, 3) | st.integers(0, 40))
    rows = []
    for shape in draw(st.lists(st.sampled_from(["random", "lone", "full", "last"]),
                               min_size=1, max_size=9)):
        bits = [1] + draw(st.lists(st.integers(0, 1), min_size=horizon, max_size=horizon))
        if shape in ("lone", "full"):
            bits[1:] = [int(shape == "full")] * horizon
        if shape == "last":
            bits[-1] = 1
        rows.append(bits)
    return horizon, rows


@example(case=(5, [[1, 0, 0, 0, 0, 0]]), claim=5, table_cells=1)
@example(case=(5, [[1, 0, 0, 0, 0, 0]]), claim=6, table_cells=1)
@example(case=(0, [[1], [1], [1]]), claim=0, table_cells=1)
@example(case=(5, [[1, 0, 1, 0, 0, 1], [1, 0, 0, 0, 0, 0], [1] * 6, [1, 1, 0, 0, 0, 0],
                   [1, 0, 0, 0, 0, 1]]), claim=None, table_cells=100)
@given(case=bit_rows(), claim=st.none() | st.integers(0, 45) | st.just(lambda s: 4 * s[0]),
       table_cells=st.sampled_from([lattice._SLICE_LETTERS, 1, 100, 1000, 4000]))
@settings(max_examples=200, deadline=None)
def test_gaps_match_each_rows_occurrence_list(case, claim, table_cells):
    """A narrow ``table_cells`` cuts the rows into groups of one or a few
    (two at horizon 5 and 100 cells).  Reports and summaries follow the
    rule of the lazy reference."""
    horizon, bits = case
    rows = np.packbits(np.array(bits, dtype=np.uint8), axis=-1)
    with mock.patch.object(lattice, "_SLICE_LETTERS", table_cells):
        gaps = _gaps(rows, horizon)
    expected = [reference_gaps(b, horizon) for b in bits]
    assert [tuple(g) for g in gaps.T.tolist()] == expected
    size = (2, 1)
    keys = [((0, 0), (n, 1)) for n in range(len(bits))]
    bound = claim(size) if callable(claim) else claim
    reports = []
    for (p, q), (count, internal, tail), b in zip(keys, expected, bits):
        # a lone occurrence refutes any bound the horizon reaches
        reach = horizon + 1 if count == 1 else max(internal, tail)
        verdict = (GAP_EXCEEDS_CLAIM if bound is not None and reach > bound else
                   NO_RECURRENCE_IN_HORIZON if count == 1 else BOUNDED_WITNESSED)
        reports.append(GapReport(q, size, p, count, internal if count > 1 else None, tail,
                                 verdict, np.packbits(np.array(b, dtype=np.uint8)).tobytes()))
    assert _reports(size, keys, rows, gaps, horizon, claim) == reports
    assert _summarize(size, keys, rows, gaps, horizon, claim) == reference_summary(size, reports)


@pytest.mark.parametrize("name", ["sierpinski", "surd-not-ssurdo-2x2"])
@given(horizon=st.integers(1, 200), direction_bound=st.integers(1, 3),
       size_bound=st.integers(1, 2), claim=st.none() | st.integers(1, 12))
@settings(max_examples=15, deadline=None)
def test_surd_is_urd_summarised_per_size(name, horizon, direction_bound, size_bound, claim):
    w = preset_word(name)
    budget = RecurrenceBudget(horizon, direction_bound, size_bound)
    grouped = itertools.groupby(check_urd_empirical(w, budget, claim=claim),
                                key=lambda r: r.size)
    assert check_surd_empirical(w, budget, claim=claim) == [
        reference_summary(size, list(reports)) for size, reports in grouped
    ]


def test_sample_grid_matches_letters():
    w = preset_word("sierpinski")
    grid = sample_grid(w, (8, 8))
    assert grid.shape == (8, 8)
    for x in range(8):
        for y in range(8):
            assert grid[x, y] == w.letter((x, y))


def test_covering_window_on_a_constant_grid():
    grid = np.zeros((40, 40), dtype=np.int64)
    for m in (1, 2, 3):
        assert smallest_covering_window(grid, (m, m), 16) == m


def test_covering_window_missing_block_returns_none():
    grid = np.zeros((40, 40), dtype=np.int64)
    grid[0, 0] = 1
    assert smallest_covering_window(grid, (1, 1), 16) is None


def test_toeplitz_rows_corner_letter_window_is_small():
    reports = check_ur_empirical(
        toeplitz_rows_word(), RecurrenceBudget(block_bound=64), sizes=[(1, 1)]
    )
    assert reports[0].window is not None
    assert reports[0].window <= 4


def test_fib_rows_corner_prefix_is_never_covered():
    reports = check_ur_empirical(
        fib_rows_word(), RecurrenceBudget(block_bound=64), sizes=[(2, 2)]
    )
    assert reports[0].window is None


def test_constant_word_is_covered_at_its_own_size():
    w = WordSource(2, 2, lambda p: 1, name="ones")
    for report in check_ur_empirical(w, RecurrenceBudget(block_bound=16)):
        assert report.window == max(report.size)


@pytest.mark.parametrize("sizes, error", [
    ([(0, 1)], InvalidInput),
    ([(-1, 2)], InvalidInput),
    ([(2,)], DimensionError),
    ([(1, 1, 1)], DimensionError),
    ([(1, 1), (2, 0)], InvalidInput),
], ids=["zero-side", "negative-side", "short", "long", "second-size"])
def test_ur_refuses_the_sizes_urd_refuses_before_reading(sizes, error):
    w = preset_word("sierpinski")
    with mock.patch.object(WordSource, "letters_on_lines", side_effect=AssertionError("read")):
        for scan in (check_ur_empirical, check_urd_empirical):
            with pytest.raises(error):
                scan(w, RecurrenceBudget(20, 2, 2, 1, 16), sizes=sizes)
        assert check_ur_empirical(w, sizes=[]) == []


def test_urd_sweep_memory_is_set_by_its_table_not_its_reports():
    """Five 1x1 reports on the Sturmian word to horizon 2^18 - 1.  A
    slice of the match table (2^19 int64 letters) peaks at about 5.9 MiB;
    the reports add one bit per multiplier.  Keeping every occurrence as a
    Python int took 22.5 MiB."""
    budget = RecurrenceBudget((1 << 18) - 1, 2, 1, 1)
    w = sturmian_spec().word()
    tracemalloc.start()
    try:
        reports = check_urd_empirical(w, budget, sizes=[(1, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20
    assert len(reports) == 5 and all(len(r.row) == 1 << 15 for r in reports)
