from __future__ import annotations

import functools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from multirec import derive, lattice
from multirec.cli import main
from multirec.derive import (
    UNDEFINED,
    UNIFORM,
    DerivativeWord,
    block_codes,
    decode_block,
    derivative_per_direction,
    derivative_uniform,
    directional_blocks,
    grids_agree_up_to_bijection,
    return_words_along,
)
from multirec.errors import DegenerateDirection, InvalidInput, ReturnScanFailed
from multirec.generators import gcd_word, named_word, preset_word, thue_morse_word
from multirec.lattice import WordSource, factor_at, iter_box, vec_scale


def decode_line(table, codes) -> list:
    """The directional blocks behind a sequence of return-word codes."""
    return [block for c in codes for block in table.blocks_of(c)]


def constant_word(letter: int = 0) -> WordSource:
    return WordSource(2, 2, lambda p: letter, name="constant")


def test_first_return_words_of_the_running_example():
    w = preset_word("surd-not-ssurdo-2x2")
    segments, table = return_words_along(w, (1, 1), (1, 2), horizon=64)
    assert [len(seg) for seg in segments[:5]] == [3, 1, 2, 2, 4]
    assert [table.code_of(seg) for seg in segments[:5]] == [0, 1, 2, 3, 4]


def test_return_word_lengths_stay_small():
    w = preset_word("surd-not-ssurdo-2x2")
    segments, _ = return_words_along(w, (1, 1), (1, 2), horizon=256)
    assert max(len(seg) for seg in segments) <= 4


def test_thue_morse_return_words_of_011():
    """A block's first letter is its code mod k, so each return word is
    spelled by the first letters of its blocks."""
    segments, _ = return_words_along(thue_morse_word(), (1,), (3,), horizon=64)
    spelled = {
        "".join(str(code % 2) for code in seg) for seg in segments
    }
    assert spelled == {"011010", "011001", "01101001", "0110"}


def test_constant_word_has_one_return_word():
    segments, table = return_words_along(constant_word(), (1, 1), (1, 1), horizon=16)
    assert len(table) == 1
    assert all(len(seg) == 1 for seg in segments)
    assert table.code_of(segments[0]) == 0


def test_missing_reoccurrence_raises():
    w = preset_word("sierpinski")
    with pytest.raises(ReturnScanFailed):
        return_words_along(w, (1, 1), (1, 1), horizon=400)


def test_per_direction_diagonal_codes():
    w = preset_word("surd-not-ssurdo-2x2")
    dw = derivative_per_direction(w, (1, 2), (10, 10), horizon=512)
    diag = [dw.code_at((ell, ell)) for ell in range(10)]
    assert diag == [0, 1, 2, 3, 4, 0, 1, 0, 1, 2]


def test_per_direction_constant_word_is_all_zero():
    dw = derivative_per_direction(constant_word(), (1, 1), (5, 5), horizon=32)
    assert set(dw.codes) == {0}


def test_uniform_origin_is_undefined():
    dw = derivative_uniform(constant_word(), (1, 1), (5, 5), horizon=32)
    assert dw.code_at((0, 0)) == UNDEFINED
    assert set(dw.codes) - {UNDEFINED} == {0}


def test_uniform_first_row_uses_two_codes():
    w = preset_word("surd-not-ssurdo-2x2")
    dw = derivative_uniform(w, (1, 2), (8, 8), horizon=512)
    row = {dw.code_at((x, 0)) for x in range(1, 8)}
    assert len(row) == 2


def test_schemes_induce_the_same_partition():
    """Relabel every per-direction cell by the return word behind its code
    in its direction's table: the result is the uniform grid up to a
    bijection of codes."""
    w = preset_word("surd-not-ssurdo-2x2")
    per = derivative_per_direction(w, (1, 2), (6, 6), horizon=512)
    uni = derivative_uniform(w, (1, 2), (6, 6), horizon=512)
    labels: dict = {}
    relabeled = []
    for p in iter_box(per.box):
        if not any(p):
            relabeled.append(UNDEFINED)
            continue
        g = math.gcd(*p)
        rw = per.tables[tuple(c // g for c in p)].order[per.code_at(p)]
        relabeled.append(labels.setdefault(rw, len(labels)))
    by_word = DerivativeWord(UNIFORM, per.size, per.box, tuple(relabeled), {})
    assert grids_agree_up_to_bijection(by_word, uni)
    assert set(labels) <= set(uni.tables[None].order)


def test_grid_is_a_bijection_of_itself_after_relabeling():
    w = preset_word("surd-not-ssurdo-2x2")
    uni = derivative_uniform(w, (1, 2), (6, 6), horizon=512)
    n = len(uni.tables[None])
    reversed_codes = tuple(c if c == UNDEFINED else n - 1 - c for c in uni.codes)
    merged = tuple(min(c, 1) if c != UNDEFINED else c for c in uni.codes)
    assert reversed_codes != uni.codes and merged != uni.codes
    assert grids_agree_up_to_bijection(
        uni, DerivativeWord(UNIFORM, uni.size, uni.box, reversed_codes, {}))
    assert not grids_agree_up_to_bijection(
        uni, DerivativeWord(UNIFORM, uni.size, uni.box, merged, {}))
    assert not grids_agree_up_to_bijection(
        uni, derivative_uniform(constant_word(), (1, 1), (6, 6), horizon=32)
    )


def test_decode_round_trip():
    w = preset_word("surd-not-ssurdo-2x2")
    dw = derivative_per_direction(w, (1, 2), (8, 8), horizon=512)
    q = (1, 1)
    table = dw.tables[q]
    codes = [dw.code_at(vec_scale(q, ell)) for ell in range(8)]
    decoded = decode_line(table, codes)
    assert decoded == directional_blocks(w, q, (1, 2), len(decoded))


@pytest.mark.parametrize("w, q, size, dtype", [
    (preset_word("surd-not-ssurdo-2x2"), [(1, 1)], (1, 2), np.int64),
    (gcd_word(thue_morse_word(), 2), [(2, 1)], (3, 2), np.int64),
    # 2^62 is the largest code range kept in int64; 2^64 is not.
    (thue_morse_word(), [(1,)], (62,), np.int64),
    (thue_morse_word(), [(1,)], (64,), object),
    (preset_word("surd-not-ssurdo-2x2"), [(1, 1), (0, 1), (3, 2), (1, 0)], (2, 2), np.int64),
    (thue_morse_word(), [(1,), (3,), (2,)], (64,), object),
])
def test_block_codes_decode_to_the_directional_blocks(w, q, size, dtype):
    """Row j of the codes of a family of directions q holds q[j]."""
    codes = block_codes(w, q, size, 40)
    assert codes.dtype == dtype and codes.shape == (len(q), 40)
    for direction, row in zip(q, codes):
        assert [decode_block(c, size, w.alphabet_size) for c in row.tolist()] == \
            directional_blocks(w, direction, size, 40)


def test_block_codes_of_no_multipliers_are_empty():
    codes = block_codes(thue_morse_word(), [(1,), (2,)], (3,), 0)
    assert codes.shape == (2, 0) and codes.dtype == np.int64


def test_decode_round_trip_past_int64():
    """Size-64 Thue-Morse blocks have codes up to 2^64 - 1, kept as ints."""
    w = thue_morse_word()
    segments, table = return_words_along(w, (1,), (64,), horizon=512)
    assert max(max(seg) for seg in segments) >= 1 << 63
    decoded = decode_line(table, [table.code_of(seg) for seg in segments])
    assert decoded == directional_blocks(w, (1,), (64,), len(decoded))


def test_scan_box_must_contain_the_grid():
    w = preset_word("surd-not-ssurdo-2x2")
    with pytest.raises(ValueError):
        derivative_uniform(w, (1, 2), (4, 4), scan_box=(3, 3))
    with pytest.raises(ValueError, match="does not contain"):
        derivative_uniform(w, (1, 2), (4, 4), scan_box=(5,))


@pytest.mark.parametrize("word, size, box, scan_box", [
    (lambda: preset_word("surd-not-ssurdo-2x2"), (1, 2), (6, 3), (9, 5)),
    (lambda: gcd_word(thue_morse_word(), 3), (1, 1, 1), (3, 2, 1), (4, 3, 2)),
], ids=["2d", "3d"])
def test_a_grid_is_the_corner_of_its_scan_box_grid(word, size, box, scan_box):
    """Under a scan box that is not a cube, the uniform grid codes each cell
    as the scan box's own grid does."""
    w = word()
    whole = derivative_uniform(w, size, scan_box, scan_box=scan_box)
    corner = derivative_uniform(w, size, box, scan_box=scan_box)
    assert corner.tables == whole.tables
    assert corner.codes == tuple(whole.code_at(p) for p in iter_box(box))


@pytest.mark.parametrize("derive, error", [
    (lambda w: return_words_along(w, (0, 0), (1, 1), 20), DegenerateDirection),
    (lambda w: return_words_along(w, (1, 0), (0, 2), 20), InvalidInput),
    (lambda w: return_words_along(w, (1, 0), (1, 2), -1), InvalidInput),
    (lambda w: derivative_per_direction(w, (2, 0), (3, 3)), InvalidInput),
    (lambda w: derivative_uniform(w, (1, 2), (3, 3), horizon=-5), InvalidInput),
], ids=["zero-direction", "zero-side", "negative-horizon", "grid-zero-side",
        "grid-negative-horizon"])
def test_return_words_refuse_inputs_before_reading(derive, error):
    w = preset_word("surd-not-ssurdo-2x2")
    with mock.patch.object(WordSource, "letters_on_lines",
                           side_effect=AssertionError("read")), pytest.raises(error):
        derive(w)


# The grids as they were built before directions were read as families:
# every return word within the horizon along each direction, one line at a
# time, read pointwise here.  The new reader keeps only the words a grid
# codes, so its tables are prefixes of these and its codes are the same.

def reference_return_words(w, q, s, horizon):
    k = w.alphabet_size
    codes = [sum(c * k ** i for i, c in enumerate(factor_at(w, vec_scale(q, ell), s).cells))
             for ell in range(horizon + 1)]
    occ = [ell for ell, c in enumerate(codes) if c == codes[0]]
    if len(occ) < 2:
        raise ReturnScanFailed(
            f"prefix block of size {s} does not reappear along {q} within {horizon}")
    return [tuple(codes[a:b]) for a, b in zip(occ, occ[1:])]


def reference_grid(w, s, box, horizon, uniform):
    """(codes, tables) of the grid, or the ReturnScanFailed text."""
    lines: dict = {}
    for p in iter_box((max(box),) * len(box) if uniform else box):
        if any(p):
            g = math.gcd(*p)
            q = tuple(c // g for c in p)
            lines[q] = max(lines.get(q, 0), g)
    per_line = {}
    try:
        for q, top in lines.items():
            segments = reference_return_words(w, q, s, horizon)
            if len(segments) <= top:
                raise ReturnScanFailed(f"need {top + 1} return words along {q}, "
                                       f"found {len(segments)} within {horizon}")
            per_line[q] = segments
    except ReturnScanFailed as exc:
        return str(exc)
    if uniform:
        table = tuple(dict.fromkeys(per_line[q][ell] for q in sorted(lines)
                                    for ell in range(lines[q] + 1)))
        full, tables = {q: table for q in lines}, {None: table}
    else:
        full = {q: tuple(dict.fromkeys(segments)) for q, segments in per_line.items()}
        tables = {q: tuple(dict.fromkeys(per_line[q][:top + 1])) for q, top in lines.items()}
        assert all(full[q][:len(tables[q])] == tables[q] for q in lines)
    codes = []
    for p in iter_box(box):
        if not any(p):
            codes.append(UNDEFINED if uniform else 0)
            continue
        g = math.gcd(*p)
        q = tuple(c // g for c in p)
        codes.append(full[q].index(per_line[q][g]))
    return tuple(codes), tables


def _no_builder(name):
    w = named_word(name)
    return WordSource(w.dimension, w.alphabet_size, w.letter, name=f"{name}, pointwise")


# (word, block size, box, horizon)
ORACLE_CASES = {
    "surd-not-ssurdo-2x2": (lambda: named_word("surd-not-ssurdo-2x2"), (1, 2), (7, 5), 200),
    "toeplitz-random-0": (lambda: named_word("toeplitz-random", seed=0), (2, 2), (5, 5), 200),
    "toeplitz-random-7": (lambda: named_word("toeplitz-random", seed=7), (2, 1), (6, 4), 200),
    "gcd-thue-morse": (lambda: named_word("gcd-thue-morse"), (1, 1), (6, 6), 64),
    "gcd-thue-morse-3d": (lambda: gcd_word(thue_morse_word(), 3), (1, 1, 1), (4, 3, 2), 64),
    "thue-morse": (lambda: named_word("thue-morse"), (3,), (30,), 200),
    "no-builder": (lambda: _no_builder("surd-not-ssurdo-2x2"), (2, 1), (5, 5), 100),
}


@functools.cache
def _reference(case, uniform):
    make, s, box, horizon = ORACLE_CASES[case]
    return reference_grid(make(), s, box, horizon, uniform)


@pytest.mark.parametrize("slice_lines", [None, 3, 1, 0.5])
@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_grids_match_the_per_direction_reference(case, uniform, slice_lines):
    """Both schemes against grids built line by line, with the slice cap at
    its default, at three directions, at one, and at half a direction
    (which cuts each direction's multipliers in two)."""
    make, s, box, horizon = ORACLE_CASES[case]
    w = make()
    cap = lattice._SLICE_LETTERS if slice_lines is None else \
        int(slice_lines * math.prod(s) * (horizon + 1))
    build = derivative_uniform if uniform else derivative_per_direction
    with mock.patch.object(lattice, "_SLICE_LETTERS", cap):
        try:
            dw = build(w, s, box, horizon=horizon)
        except ReturnScanFailed as exc:
            got = str(exc)
        else:
            got = dw.codes, {q: table.order for q, table in dw.tables.items()}
        segments, table = return_words_along(w, (1,) * len(s), s, horizon)
    assert got == _reference(case, uniform)
    assert segments == reference_return_words(w, (1,) * len(s), s, horizon)
    assert table.order == tuple(dict.fromkeys(segments))


def test_oracle_cases_build_grids():
    """Every oracle case builds both grids, so the comparison above is not
    one of error texts."""
    assert not [(case, uniform) for case in ORACLE_CASES for uniform in (False, True)
                if isinstance(_reference(case, uniform), str)]


def reference_occurrences(w, q, s, horizon):
    """The multipliers ell <= horizon at which the block at ell*q equals
    the prefix block, read pointwise."""
    prefix = factor_at(w, vec_scale(q, 0), s)
    return [ell for ell in range(horizon + 1) if factor_at(w, vec_scale(q, ell), s) == prefix]


def chunk_end(ell, n):
    """The end of the read chunk [0, 16), [16, 32), [32, 64), ... that
    holds multiplier ell, cut at n."""
    end = derive._FIRST_CHUNK
    while end <= ell:
        end *= 2
    return min(end, n)


def record_reads():
    """A letters_on_lines stand-in that logs (starts, steps, multipliers)
    of every call into the returned list, and the list."""
    reads = []
    read = WordSource.letters_on_lines

    def recorded(self, starts, steps, multipliers):
        reads.append((list(starts), list(steps), list(range(multipliers))
                      if isinstance(multipliers, int) else list(multipliers)))
        return read(self, starts, steps, multipliers)

    return recorded, reads


@pytest.mark.parametrize("slice_lines", [3, 0.5])
@pytest.mark.parametrize("uniform", [False, True])
def test_each_line_is_read_once_within_the_slice_cap(uniform, slice_lines):
    """Every letters_on_lines call of a derive reads at most the slice cap,
    and every (cell, direction, multiplier) letter is read at most once.
    Along each direction q every cell reads one prefix range(m_q) of
    multipliers, m_q the end of the chunk that holds the (top + 2)-th
    occurrence of the prefix block (top the largest multiplier a grid cell
    needs along q); some directions stop short of the horizon."""
    w, s, box, horizon = named_word("surd-not-ssurdo-2x2"), (1, 2), (7, 5), 200
    cap = int(slice_lines * math.prod(s) * (horizon + 1))
    recorded, reads = record_reads()
    build = derivative_uniform if uniform else derivative_per_direction
    with mock.patch.object(WordSource, "letters_on_lines", recorded), \
            mock.patch.object(lattice, "_SLICE_LETTERS", cap):
        dw = build(w, s, box, horizon=horizon)
    assert len(reads) > 1
    assert max(len(p) * len(q) * len(e) for p, q, e in reads) <= cap
    letters = Counter((tuple(p), tuple(q), ell) for starts, steps, ells in reads
                      for p in starts for q in steps for ell in ells)
    assert set(letters.values()) == {1}
    scanned = (max(box),) * 2 if uniform else box
    tops: dict = {}
    for p in iter_box(scanned):
        if any(p):
            g = math.gcd(*p)
            q = tuple(c // g for c in p)
            tops[q] = max(tops.get(q, 0), g)
    ends = {}
    for q, top in tops.items():
        occ = reference_occurrences(w, q, s, horizon)
        ends[q] = chunk_end(occ[top + 1], horizon + 1)
    assert set(letters) == {(p, q, ell) for p in iter_box(s) for q in tops
                            for ell in range(ends[q])}
    assert min(ends.values()) < horizon + 1
    assert dw.codes == _reference("surd-not-ssurdo-2x2", uniform)[0]


def full_horizon_return_words(w, size, lines, horizon):
    """derive._return_words as it was before it stopped early: every
    direction read to the horizon, then cut to the words kept."""
    per_line = {}
    for q, row in zip(lines, block_codes(w, list(lines), size, horizon + 1)):
        top = lines[q]
        occ = np.flatnonzero(row == row[0])[:None if top is None else top + 2].tolist()
        if len(occ) < 2:
            raise ReturnScanFailed(f"prefix block of size {size} does not reappear "
                                   f"along {q} within {horizon}")
        if top is not None and len(occ) <= top + 1:
            raise ReturnScanFailed(f"need {top + 1} return words along {q}, "
                                   f"found {len(occ) - 1} within {horizon}")
        row = row[:occ[-1]].tolist()
        per_line[q] = [tuple(row[a:b]) for a, b in zip(occ, occ[1:])]
    return per_line


def _grid_or_error(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except ReturnScanFailed as exc:
        return str(exc)


# (word, block size, box): two grids per word.  The uniform scheme scans
# the cube of 12 on the Sturmian 12x3 box, and (5, 4) there has no
# reappearance of the prefix block.
EARLY_STOP_GRIDS = [
    ("surd-not-ssurdo-2x2", (1, 2), (12, 8)),
    ("surd-not-ssurdo-2x2", (2, 1), (27, 8)),
    ("ssurdo-3x3", (2, 1), (9, 9)),
    ("ssurdo-3x3", (1, 1), (20, 3)),
    ("sturmian", (1, 1), (5, 5)),
    ("sturmian", (2, 1), (12, 3)),
    ("toeplitz-random", (1, 2), (8, 8)),
    ("toeplitz-random", (2, 2), (16, 4)),
]


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("name, s, box", EARLY_STOP_GRIDS)
def test_early_stop_builds_the_full_horizon_grids(name, s, box, uniform):
    """Both schemes build the grids, or name the failure, of the reader
    that read every direction to the horizon."""
    w = named_word(name)
    build = derivative_uniform if uniform else derivative_per_direction
    with mock.patch.object(derive, "_return_words", full_horizon_return_words):
        expected = _grid_or_error(build, w, s, box, horizon=300)
    assert _grid_or_error(build, w, s, box, horizon=300) == expected


def test_early_stop_grids_build_but_one():
    """The comparison above is one of grids, not of error texts, save for
    the uniform Sturmian 12x3 box."""
    failed = [(name, box, build.__name__) for name, s, box in EARLY_STOP_GRIDS
              for build in (derivative_per_direction, derivative_uniform)
              if isinstance(_grid_or_error(build, named_word(name), s, box, horizon=300), str)]
    assert failed == [("sturmian", (12, 3), "derivative_uniform")]


# Per word, a block size and directions q mapped to (top, edge): the
# (top + 2)-th occurrence of the prefix block along q is at multiplier
# edge, on either side of the chunk ends 16 and 32.
CHUNK_EDGES = {
    "surd-not-ssurdo-2x2": ((1, 2), {(1, 1): (5, 15), (0, 1): (4, 16), (1, 3): (11, 17),
                                     (1, 0): (10, 32)}),
    "ssurdo-3x3": ((2, 1), {(1, 0): (4, 15), (3, 2): (15, 16), (3, 1): (16, 17),
                            (0, 1): (31, 32)}),
    "sturmian": ((1, 1), {(2, 1): (6, 15), (1, 1): (7, 16), (3, 2): (7, 17), (1, 0): (12, 32)}),
    "toeplitz-random": ((1, 2), {(1, 3): (8, 15), (0, 1): (6, 16), (3, 1): (9, 17),
                                 (1, 0): (14, 32)}),
}


@pytest.mark.parametrize("piece", [None, 10])
@pytest.mark.parametrize("name", sorted(CHUNK_EDGES))
def test_early_stop_at_the_chunk_edges(name, piece):
    """A direction whose last needed occurrence is at 15, 16, 17 or 32
    keeps the return words of the full-horizon reader and reads up to the
    end of the chunk that holds it (16, 32, 32 and 64), alone and in one
    family, with the slice cap at its default and at 10 multipliers of one
    direction (which cuts every chunk into pieces)."""
    w, (s, edges), horizon = named_word(name), CHUNK_EDGES[name], 100
    for q, (top, edge) in edges.items():
        assert reference_occurrences(w, q, s, horizon)[top + 1] == edge
    lines = {q: top for q, (top, _) in edges.items()}
    cap = lattice._SLICE_LETTERS if piece is None else piece * math.prod(s)
    expected = full_horizon_return_words(w, s, lines, horizon)
    for family in [lines, *({q: top} for q, top in lines.items())]:
        recorded, reads = record_reads()
        with mock.patch.object(WordSource, "letters_on_lines", recorded), \
                mock.patch.object(lattice, "_SLICE_LETTERS", cap):
            got = derive._return_words(w, s, family, horizon)
        assert got == {q: expected[q] for q in family}
        assert max(len(p) * len(q) * len(e) for p, q, e in reads) <= cap
        read = {(q, ell) for _, steps, ells in reads for q in steps for ell in ells}
        assert read == {(q, ell) for q in family for ell in range(chunk_end(edges[q][1], 101))}


def test_return_words_along_reads_to_the_horizon():
    """With no top, a direction reads every multiplier of the horizon."""
    recorded, reads = record_reads()
    with mock.patch.object(WordSource, "letters_on_lines", recorded):
        segments, _ = return_words_along(named_word("surd-not-ssurdo-2x2"), (1, 1), (1, 2), 300)
    assert {ell for _, _, ells in reads for ell in ells} == set(range(301))
    assert segments == reference_return_words(named_word("surd-not-ssurdo-2x2"), (1, 1),
                                              (1, 2), 300)


@pytest.mark.parametrize("argv, message, line_letters", [
    # (1, 0) and (0, 1) come first and pass; (1, 1) has no reappearance
    (["--word", "sierpinski", "--size", "1x1", "--box", "4x4"],
     "prefix block of size (1, 1) does not reappear along (1, 1) within 512", 513),
    (["--word", "sierpinski", "--size", "1x1", "--box", "4x4", "--scheme", "uniform"],
     "prefix block of size (1, 1) does not reappear along (1, 1) within 512", 513),
    # (1, 0) has too few return words before (1, 1) fails to reappear
    (["--word", "sierpinski", "--size", "1x1", "--box", "4x4", "--horizon", "3"],
     "need 4 return words along (1, 0), found 3 within 3", 4),
    (["--word", "surd-not-ssurdo-2x2", "--size", "1x2", "--box", "12x8", "--horizon", "20"],
     "need 12 return words along (1, 0), found 6 within 20", 42),
    (["--word", "surd-not-ssurdo-2x2", "--size", "1x2", "--box", "12x8", "--horizon", "20",
      "--scheme", "uniform"],
     "need 12 return words along (1, 0), found 6 within 20", 42),
    (["--word", "sturmian", "--size", "2x1", "--box", "15x15", "--scheme", "uniform"],
     "prefix block of size (2, 1) does not reappear along (5, 4) within 512", 1026),
])
@pytest.mark.parametrize("one_line", [False, True])
def test_the_first_failing_direction_is_named(capsys, argv, message, line_letters, one_line):
    """The failure names the first direction of the scan order that has too
    few return words, whether every direction is read in one slice or each
    in its own (line_letters is one direction's cells x (horizon + 1)); the
    texts are those of the line-by-line reader."""
    cap = line_letters if one_line else lattice._SLICE_LETTERS
    with mock.patch.object(lattice, "_SLICE_LETTERS", cap):
        code = main(["derive", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"multirec: budget exhausted: {message}\n"
