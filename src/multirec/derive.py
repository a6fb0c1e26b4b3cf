"""Return words along directions and the derivative grids built from them.

A return word here is the segment of the directional block word between two
consecutive reappearances of its first block, kept as a tuple of blocks.
Coding the segments in order of first appearance gives the unidimensional
derivative of each line; stitching the lines together over the lattice
gives a grid, either with one code table per direction or with one global
table (in which case the origin has no well-defined code and is rendered
as '?').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ReturnScanFailed
from .lattice import FiniteWord, Vector, WordSource, iter_box
from .recurrence import occurrence_indices
from .render import UNDEFINED

PER_DIRECTION = "PER_DIRECTION"
UNIFORM = "UNIFORM"

# A return word: consecutive directional blocks from one occurrence of the
# prefix block up to (excluding) the next.
ReturnWordT = tuple[FiniteWord, ...]


@dataclass(frozen=True)
class CodeTable:
    """Bijection between return words and small integers, in assignment
    order (the word first coded got 0)."""

    order: tuple[ReturnWordT, ...]
    _index: dict = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {rw: c for c, rw in enumerate(self.order)}
        )

    def __len__(self) -> int:
        return len(self.order)

    def code_of(self, rw: ReturnWordT) -> int:
        return self._index[rw]

    def word_of(self, code: int) -> ReturnWordT:
        return self.order[code]


def directional_blocks(
    w: WordSource, direction: Sequence[int], size: Sequence[int], count: int
) -> list[FiniteWord]:
    """The blocks of the given size at ell*q for ell < count.  Each block
    cell is read once along q."""
    s = tuple(size)
    columns = [w.letters_along(o, direction, count) for o in iter_box(s)]
    return [FiniteWord(s, cells) for cells in np.stack(columns, axis=1).tolist()]


def return_words_along(
    w: WordSource,
    direction: Sequence[int],
    size: Sequence[int],
    horizon: int = 512,
) -> tuple[list[ReturnWordT], CodeTable]:
    """Segments between consecutive occurrences of the prefix block along
    the line, in line order, plus their first-appearance code table.
    """
    q = tuple(direction)
    s = tuple(size)
    occ = occurrence_indices(w, q, s, None, horizon)
    if len(occ) < 2:
        raise ReturnScanFailed(
            f"prefix block of size {s} does not reappear along {q} within {horizon}"
        )
    blocks = directional_blocks(w, q, s, occ[-1])
    segments = [
        tuple(blocks[a:b]) for a, b in zip(occ, occ[1:])
    ]
    order: list[ReturnWordT] = []
    seen = set()
    for seg in segments:
        if seg not in seen:
            seen.add(seg)
            order.append(seg)
    return segments, CodeTable(tuple(order))


def _box_lines(box: Vector) -> dict[Vector, int]:
    """Coprime directions hitting the box, mapped to the largest multiplier
    a box cell needs on that line."""
    lines: dict[Vector, int] = {}
    for p in iter_box(box):
        if not any(p):
            continue
        g = math.gcd(*p)
        q = tuple(c // g for c in p)
        if g > lines.get(q, 0):
            lines[q] = g
    return lines


@dataclass(frozen=True)
class DerivativeWord:
    """Grid of return-word codes on a box.

    codes is flat with the first coordinate fastest; UNDEFINED marks the
    origin under the UNIFORM scheme.  words carries the actual return word
    behind every cell (None at the origin), letting callers compare grids
    across coding schemes.
    """

    scheme: str
    size: Vector
    box: Vector
    codes: tuple[int, ...]
    words: tuple[ReturnWordT | None, ...]
    tables: dict
    _grid: FiniteWord = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_grid", FiniteWord(self.box, self.codes))

    def code_at(self, p: Sequence[int]) -> int:
        return self._grid[p]

    def word_at(self, p: Sequence[int]) -> ReturnWordT | None:
        return self.words[self._grid.flat_index(p)]

    def to_nested(self):
        """Nested lists, outer index = last coordinate (bottom row first)."""
        return self._grid.to_nested()

    def code_classes(self) -> dict[ReturnWordT, frozenset]:
        """Positions grouped by underlying return word, origin excluded."""
        groups: dict[ReturnWordT, set] = {}
        for p in iter_box(self.box):
            rw = self.word_at(p)
            if rw is None:
                continue
            groups.setdefault(rw, set()).add(p)
        return {rw: frozenset(ps) for rw, ps in groups.items()}

    def distinct_codes(self) -> set[int]:
        return {c for c in self.codes if c != UNDEFINED}


def _scan_lines(
    w: WordSource, size: Vector, lines: dict[Vector, int], horizon: int
) -> dict[Vector, list[ReturnWordT]]:
    """Per direction, enough return segments to cover its multipliers."""
    per_line: dict[Vector, list[ReturnWordT]] = {}
    for q, top in lines.items():
        segments, _ = return_words_along(w, q, size, horizon)
        if len(segments) <= top:
            raise ReturnScanFailed(
                f"need {top + 1} return words along {q}, found {len(segments)} "
                f"within {horizon}"
            )
        per_line[q] = segments
    return per_line


def derivative_per_direction(
    w: WordSource,
    size: Sequence[int],
    box: Sequence[int],
    horizon: int = 512,
) -> DerivativeWord:
    """Each cell ell*q gets the code of the ell-th return word along q,
    coded per direction; the origin gets code 0.
    """
    s = tuple(size)
    box = tuple(box)
    lines = _box_lines(box)
    per_line = _scan_lines(w, s, lines, horizon)
    tables = {
        q: CodeTable(tuple(dict.fromkeys(segs)))
        for q, segs in per_line.items()
    }
    codes = []
    words: list[ReturnWordT | None] = []
    for p in iter_box(box):
        if not any(p):
            codes.append(0)
            words.append(None)
            continue
        g = math.gcd(*p)
        q = tuple(c // g for c in p)
        rw = per_line[q][g]
        codes.append(tables[q].code_of(rw))
        words.append(rw)
    return DerivativeWord(PER_DIRECTION, s, box, tuple(codes), tuple(words), tables)


def derivative_uniform(
    w: WordSource,
    size: Sequence[int],
    box: Sequence[int],
    horizon: int = 512,
    scan_order: Iterable[Sequence[int]] | None = None,
    scan_box: Sequence[int] | None = None,
) -> DerivativeWord:
    """One global code table, assigned by first appearance while scanning
    directions (lexicographic by default) and, inside each direction,
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
        if any(a < b for a, b in zip(scan_box, box)):
            raise ValueError(f"scan box {scan_box} smaller than grid box {box}")
    lines = _box_lines(scan_box)
    per_line = _scan_lines(w, s, lines, horizon)
    if scan_order is None:
        ordered = sorted(lines)
    else:
        ordered = [tuple(q) for q in scan_order]
        if set(ordered) != set(lines):
            raise ValueError("scan order must cover exactly the scanned directions")
    order: list[ReturnWordT] = []
    seen = set()
    for q in ordered:
        for ell in range(lines[q] + 1):
            rw = per_line[q][ell]
            if rw not in seen:
                seen.add(rw)
                order.append(rw)
    table = CodeTable(tuple(order))
    codes = []
    words: list[ReturnWordT | None] = []
    for p in iter_box(box):
        if not any(p):
            codes.append(UNDEFINED)
            words.append(None)
            continue
        g = math.gcd(*p)
        q = tuple(c // g for c in p)
        rw = per_line[q][g]
        codes.append(table.code_of(rw))
        words.append(rw)
    return DerivativeWord(UNIFORM, s, box, tuple(codes), tuple(words), {None: table})


def decode_line(
    table: CodeTable, codes: Sequence[int]
) -> list[FiniteWord]:
    """Concatenate the return words behind a code sequence back into the
    directional block word they came from."""
    out: list[FiniteWord] = []
    for c in codes:
        out.extend(table.word_of(c))
    return out


def grids_agree_up_to_bijection(a: DerivativeWord, b: DerivativeWord) -> bool:
    """Same box, same code-class partition, cell by cell: the code pairs
    met in the same cells form a bijection that keeps UNDEFINED apart."""
    if a.box != b.box:
        return False
    pairs = set(zip(a.codes, b.codes))
    return (len({ca for ca, _ in pairs}) == len(pairs) == len({cb for _, cb in pairs})
            and all((ca == UNDEFINED) == (cb == UNDEFINED) for ca, cb in pairs))
