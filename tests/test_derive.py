from __future__ import annotations

import math

import numpy as np
import pytest

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
from multirec.errors import ReturnScanFailed
from multirec.generators import gcd_word, preset_word, thue_morse_word
from multirec.lattice import WordSource, iter_box, vec_scale


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
    relabeled = derivative_uniform(
        w, (1, 2), (6, 6), horizon=512,
        scan_order=sorted(_dirs((6, 6)), reverse=True),
    )
    assert grids_agree_up_to_bijection(uni, relabeled)
    assert not grids_agree_up_to_bijection(
        uni, derivative_uniform(constant_word(), (1, 1), (6, 6), horizon=32)
    )


def _dirs(box):
    out = set()
    for p in iter_box(box):
        if any(p):
            g = math.gcd(*p)
            out.add(tuple(c // g for c in p))
    return out


def test_decode_round_trip():
    w = preset_word("surd-not-ssurdo-2x2")
    dw = derivative_per_direction(w, (1, 2), (8, 8), horizon=512)
    q = (1, 1)
    table = dw.tables[q]
    codes = [dw.code_at(vec_scale(q, ell)) for ell in range(8)]
    decoded = decode_line(table, codes)
    assert decoded == directional_blocks(w, q, (1, 2), len(decoded))


@pytest.mark.parametrize("w, q, size, dtype", [
    (preset_word("surd-not-ssurdo-2x2"), (1, 1), (1, 2), np.int64),
    (gcd_word(thue_morse_word(), 2), (2, 1), (3, 2), np.int64),
    # 2^62 is the largest code range kept in int64; 2^64 is not.
    (thue_morse_word(), (1,), (62,), np.int64),
    (thue_morse_word(), (1,), (64,), object),
])
def test_block_codes_decode_to_the_directional_blocks(w, q, size, dtype):
    codes = block_codes(w, q, size, 40)
    assert codes.dtype == dtype
    assert [decode_block(c, size, w.alphabet_size) for c in codes.tolist()] == \
        directional_blocks(w, q, size, 40)


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


def test_scan_order_must_cover_every_direction():
    w = preset_word("surd-not-ssurdo-2x2")
    with pytest.raises(ValueError):
        derivative_uniform(w, (1, 2), (4, 4), horizon=512, scan_order=[(1, 0)])
