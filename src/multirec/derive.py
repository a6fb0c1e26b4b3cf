"""Return words along directions and the derivative grids built from them.

Every block read along a direction is coded as one integer,
sum_i letter_i * k^i over its cells i in storage order (k the alphabet
size).  A return word here is the segment of that code sequence between two
consecutive reappearances of its first block, kept as a tuple of block
codes.  Coding the segments in order of first appearance gives the
unidimensional derivative of each line; stitching the lines together over
the lattice gives a grid, either with one code table per direction or with
one global table (in which case the origin has no well-defined code and is
rendered as '?').  A grid reads its lines as sliced families of directions
in doubling chunks of multipliers, stops along each direction once it has
the return words it codes, and keeps only those.  Blocks become FiniteWords
again only where a table is decoded for output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ReturnScanFailed
from .lattice import FiniteWord, Vector, WordSource, check_scan, iter_box, read_slices, vec_add
from .render import UNDEFINED

PER_DIRECTION = "PER_DIRECTION"
UNIFORM = "UNIFORM"
# A grid reads multipliers [0, 16) along a direction first; each next chunk doubles the read.
_FIRST_CHUNK = 16

# A return word: the codes of consecutive directional blocks from one
# occurrence of the prefix block up to (excluding) the next.
ReturnWordT = tuple[int, ...]


def decode_block(code: int, size: Vector, alphabet_size: int) -> FiniteWord:
    """The block of the given size behind a block code."""
    k = alphabet_size
    return FiniteWord(size, [code // k ** i % k for i in range(math.prod(size))])


@dataclass(frozen=True)
class CodeTable:
    """Bijection between return words and small integers, in assignment
    order (the word first coded got 0), for blocks of the given size over
    the given alphabet size."""

    order: tuple[ReturnWordT, ...]
    size: Vector
    alphabet_size: int

    @cached_property
    def _index(self) -> dict[ReturnWordT, int]:
        return {rw: c for c, rw in enumerate(self.order)}

    def __len__(self) -> int:
        return len(self.order)

    def code_of(self, rw: ReturnWordT) -> int:
        return self._index[rw]

    def blocks_of(self, code: int) -> tuple[FiniteWord, ...]:
        """The return word behind a code, decoded into its blocks."""
        return tuple(decode_block(b, self.size, self.alphabet_size)
                     for b in self.order[code])


def directional_blocks(
    w: WordSource, direction: Sequence[int], size: Sequence[int], count: int,
    origin: Sequence[int] | None = None,
) -> list[FiniteWord]:
    """The blocks of the given size at origin + ell*q for ell < count (the
    origin defaults to 0), from one family read of the cell lines along q."""
    s = tuple(size)
    starts = list(iter_box(s)) if origin is None else [vec_add(origin, c) for c in iter_box(s)]
    columns = w.letters_on_lines(starts, [direction], count)[:, 0]
    return [FiniteWord(s, cells) for cells in columns.T.tolist()]


def block_codes(
    w: WordSource,
    directions: Sequence[Sequence[int]],
    size: Sequence[int],
    count: int | range,
) -> np.ndarray:
    """The (len(directions), count) codes of the blocks of the given size
    at ell*q, for each direction q and ell < count (or ell in a range): read
    in the slices ``read_slices`` cuts, then one Horner step per cell, in
    int64 while k^cells <= 2^62 and in Python ints (an object array) beyond."""
    k, cells = w.alphabet_size, list(iter_box(tuple(size)))
    ells = range(count) if isinstance(count, int) else count
    dtype = np.int64 if k ** len(cells) <= 1 << 62 else object
    codes = np.zeros((len(directions), len(ells)), dtype=dtype)
    for js, ks in read_slices(len(directions), len(ells), len(cells)):
        for column in w.letters_on_lines(cells, directions[js], ells[ks])[::-1]:
            codes[js, ks] *= k
            codes[js, ks] += column.astype(dtype, copy=False)
    return codes


def _return_words(
    w: WordSource, size: Vector, lines: dict[Vector, int | None], horizon: int
) -> dict[Vector, list[ReturnWordT]]:
    """Per direction q, the first lines[q] + 1 return words along q (every
    one within the horizon where lines[q] is None), failing at the first
    direction of lines that has too few.  Each group of whole lines that
    ``read_slices`` cuts reads chunks of multipliers [0, 16), [16, 32), ...
    along its directions that lack lines[q] + 2 prefix block occurrences."""
    dirs, n, per = list(lines), horizon + 1, math.prod(size)
    check_scan(dirs, [size], horizon)
    per_line: dict[Vector, list[ReturnWordT]] = {}
    for js, _ in itertools.groupby(read_slices(len(dirs), n, per), lambda p: p[0]):
        rows, active, lo = dict.fromkeys(dirs[js], np.zeros(0, np.int64)), dirs[js], 0
        while active and lo < n:
            hi = min(n, max(_FIRST_CHUNK, 2 * lo))
            for q, row in zip(active, block_codes(w, active, size, range(lo, hi))):
                rows[q] = np.concatenate([rows[q], row])
            active, lo = [q for q in active if lines[q] is None
                          or np.count_nonzero(rows[q] == rows[q][0]) < lines[q] + 2], hi
        for q, row in rows.items():
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


def return_words_along(
    w: WordSource,
    direction: Sequence[int],
    size: Sequence[int],
    horizon: int = 512,
) -> tuple[list[ReturnWordT], CodeTable]:
    """Segments between consecutive occurrences of the prefix block along
    the line, in line order, plus their first-appearance code table.
    """
    q, s = tuple(direction), tuple(size)
    segments = _return_words(w, s, {q: None}, horizon)[q]
    return segments, CodeTable(tuple(dict.fromkeys(segments)), s, w.alphabet_size)


def _box_cells(box: Vector) -> list[tuple[Vector | None, int]]:
    """Each cell of the box in iter_box order as (q, g), q coprime and the
    cell g*q; (None, 0) at the origin.  Along each q, g grows in this order,
    so {q: g for q, g in cells if q} maps each direction, in order of first
    appearance, to the largest multiplier the box needs on its line."""
    cells = []
    for p in iter_box(box):
        g = math.gcd(*p)
        cells.append((tuple(c // g for c in p), g) if g else (None, 0))
    return cells


@dataclass(frozen=True)
class DerivativeWord:
    """Grid of return-word codes on a box.

    codes is flat with the first coordinate fastest; UNDEFINED marks the
    origin under the UNIFORM scheme.  tables maps each direction
    (PER_DIRECTION) or None (UNIFORM) to the code table behind the codes.
    """

    scheme: str
    size: Vector
    box: Vector
    codes: tuple[int, ...]
    tables: dict
    _grid: FiniteWord = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_grid", FiniteWord(self.box, self.codes))

    def code_at(self, p: Sequence[int]) -> int:
        return self._grid[p]

    def to_nested(self):
        """Nested lists, outer index = last coordinate (bottom row first)."""
        return self._grid.to_nested()


def derivative_per_direction(
    w: WordSource,
    size: Sequence[int],
    box: Sequence[int],
    horizon: int = 512,
) -> DerivativeWord:
    """Each cell ell*q gets the code of the ell-th return word along q,
    coded per direction; the origin gets code 0.  The table of q holds only
    the return words that its cells code (ell up to the box's largest).
    """
    s = tuple(size)
    box = tuple(box)
    cells = _box_cells(box)
    per_line = _return_words(w, s, {q: g for q, g in cells if q}, horizon)
    tables = {
        q: CodeTable(tuple(dict.fromkeys(segs)), s, w.alphabet_size)
        for q, segs in per_line.items()
    }
    codes = tuple(tables[q].code_of(per_line[q][g]) if q else 0 for q, g in cells)
    return DerivativeWord(PER_DIRECTION, s, box, codes, tables)


def derivative_uniform(
    w: WordSource,
    size: Sequence[int],
    box: Sequence[int],
    horizon: int = 512,
    scan_box: Sequence[int] | None = None,
) -> DerivativeWord:
    """One global code table, assigned by first appearance while scanning
    directions in lexicographic order and, inside each direction,
    increasing multipliers.  The origin is left undefined.

    The table is collected over scan_box, by default the bounding cube of
    box, so a flat display strip still codes the return words its lines
    meet just past the edge; the grid itself only covers box.
    """
    s = tuple(size)
    box = tuple(box)
    if scan_box is None:
        scan_box = (max(box),) * len(box)
    else:
        scan_box = tuple(scan_box)
        if len(scan_box) != len(box) or any(a < b for a, b in zip(scan_box, box)):
            raise ValueError(f"scan box {scan_box} does not contain grid box {box}")
    cells = _box_cells(scan_box)
    per_line = _return_words(w, s, {q: g for q, g in cells if q}, horizon)
    order = dict.fromkeys(rw for q in sorted(per_line) for rw in per_line[q])
    table = CodeTable(tuple(order), s, w.alphabet_size)
    # the grid box is the corner of the scan box at the origin
    corner = np.arange(len(cells)).reshape(scan_box[::-1])[tuple(map(slice, box[::-1]))]
    codes = tuple(table.code_of(per_line[q][g]) if q else UNDEFINED
                  for q, g in (cells[i] for i in corner.ravel().tolist()))
    return DerivativeWord(UNIFORM, s, box, codes, {None: table})


def grids_agree_up_to_bijection(a: DerivativeWord, b: DerivativeWord) -> bool:
    """Same box, same code-class partition, cell by cell: the code pairs
    met in the same cells form a bijection that keeps UNDEFINED apart."""
    if a.box != b.box:
        return False
    pairs = set(zip(a.codes, b.codes))
    return (len({ca for ca, _ in pairs}) == len(pairs) == len({cb for _, cb in pairs})
            and all((ca == UNDEFINED) == (cb == UNDEFINED) for ca, cb in pairs))
