"""Grid positions, finite blocks and evaluators for multidimensional words.

Coordinate conventions used throughout the package: a position is a tuple of
nonnegative integers, with the first coordinate horizontal for d = 2 and the
second vertical, rows growing bottom to top.  Nested-list (JSON) form puts the
bottom row first; the text renderer prints the top row first.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DegenerateDirection, DimensionError, InvalidInput

Vector = tuple[int, ...]


def vec_add(p: Sequence[int], r: Sequence[int]) -> Vector:
    return tuple(a + b for a, b in zip(p, r, strict=True))


def vec_scale(p: Sequence[int], c: int) -> Vector:
    return tuple(c * a for a in p)


def iter_box(size: Sequence[int]) -> Iterator[Vector]:
    """Yield every position of the box [0,s_1) x ... x [0,s_d), first
    coordinate varying fastest (storage order of FiniteWord)."""
    for rev in itertools.product(*(range(s) for s in reversed(size))):
        yield rev[::-1]


def normalize_direction(raw: Sequence[int]) -> Vector:
    """Divide a nonzero nonnegative vector by the gcd of its entries."""
    coords = tuple(int(c) for c in raw)
    if any(c < 0 for c in coords):
        raise ValueError(f"direction coordinates must be nonnegative: {coords}")
    g = math.gcd(*coords) if coords else 0
    if g == 0:
        raise DegenerateDirection(f"no direction along {coords}")
    return tuple(c // g for c in coords)


def _check_dims(*lengths: int) -> None:
    if len(set(lengths)) != 1:
        raise DimensionError(f"mixed dimensions: {lengths}")


def _check_domain(p: Vector) -> None:
    if min(p) < 0:
        raise InvalidInput(f"position {p} lies outside N^{len(p)}")


# Lines whose reach bound is below this go to the line builder.
_REACH = 1 << 62


class FiniteWord:
    """A rectangular block of letters.

    Cells are stored flat with the first coordinate fastest, so a 2-D block
    is a stack of rows from bottom to top.  Instances are immutable and
    hashable.
    """

    __slots__ = ("size", "cells", "_hash")

    def __init__(self, size: Sequence[int], cells: Sequence[int]):
        size = tuple(int(s) for s in size)
        if not size or any(s < 1 for s in size):
            raise ValueError(f"invalid block size {size}")
        cells = tuple(int(c) for c in cells)
        if len(cells) != math.prod(size):
            raise ValueError(f"{len(cells)} cells for size {size}")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_hash", hash((size, cells)))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteWord is immutable")

    @property
    def dimension(self) -> int:
        return len(self.size)

    @classmethod
    def from_function(cls, size: Sequence[int], fn: Callable[[Vector], int]) -> "FiniteWord":
        return cls(size, [fn(p) for p in iter_box(size)])

    @classmethod
    def from_nested(cls, nested) -> "FiniteWord":
        """Build from nested lists, outermost index = last coordinate
        (for d = 2: a list of rows, bottom row first)."""
        size = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            size.append(len(probe))
            probe = probe[0]
        size.reverse()

        def fn(p: Vector) -> int:
            v = nested
            for c in reversed(p):
                v = v[c]
            return v

        return cls.from_function(size, fn)

    def to_nested(self):
        """Inverse of from_nested."""

        def rec(axis: int, partial: tuple) -> object:
            if axis < 0:
                return self[partial]
            return [rec(axis - 1, (i, *partial)) for i in range(self.size[axis])]

        return rec(self.dimension - 1, ())

    def flat_index(self, p: Sequence[int]) -> int:
        idx = 0
        stride = 1
        for c, s in zip(p, self.size, strict=True):
            if not 0 <= c < s:
                raise IndexError(f"{tuple(p)} outside block of size {self.size}")
            idx += c * stride
            stride *= s
        return idx

    def __getitem__(self, p) -> int:
        if isinstance(p, int):
            p = (p,)
        return self.cells[self.flat_index(p)]

    def positions(self) -> Iterator[Vector]:
        return iter_box(self.size)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteWord)
                and self.size == other.size and self.cells == other.cells)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        shape = "x".join(map(str, self.size))
        return f"FiniteWord({shape}, {''.join(map(str, self.cells))})"


class WordSource:
    """An infinite word w: N^d -> A behind a pure evaluator.

    Every multi-letter read (blocks along a direction, grid rows, boxes,
    line scans) goes through ``letters_along``, which returns an int64
    array.  ``letter`` and ``factor_at`` read pointwise through the
    evaluator; they are the exact references the batched reads are tested
    against.  A position with a negative coordinate, and a line with a
    negative start, step or multiplier, lies outside N^d and raises
    InvalidInput.

    ``line_builder``, when given, batch-evaluates letters along an
    arithmetic line: ``line_builder(start, step, ells)`` returns the int64
    array of letters at start + ell*step for a nonempty increasing int64
    array ``ells``.  ``letters_along`` calls it only within reach, where
    max(start) + max(step) * max(ell_last, 1) < 2^62, so every coordinate
    and product it forms fits in int64; lines beyond are read pointwise
    through the evaluator, exact at any size.  Rotation orbits, morphic
    digit walks (m digits per table lookup), Thue-Morse parities, gcd
    placements and the Toeplitz filling use it instead of one evaluator
    call per position.  Evaluators must be deterministic; internal
    memoization is allowed but invisible.
    """

    __slots__ = ("dimension", "alphabet_size", "_evaluator", "_line_builder", "name")

    def __init__(self, dimension: int, alphabet_size: int,
                 evaluator: Callable[[Vector], int],
                 line_builder: Callable[[Vector, Vector, np.ndarray], np.ndarray] | None = None,
                 name: str = "word"):
        self.dimension = dimension
        self.alphabet_size = alphabet_size
        self._evaluator = evaluator
        self._line_builder = line_builder
        self.name = name

    def letter(self, p: Sequence[int]) -> int:
        p = tuple(p)
        _check_dims(self.dimension, len(p))
        _check_domain(p)
        return self._evaluator(p)

    def letters_along(self, start: Sequence[int], step: Sequence[int],
                      multipliers: int | Sequence[int]) -> np.ndarray:
        """Letters at start + ell*step for each multiplier ell, as int64.

        ``multipliers`` is a count n (ell = 0, ..., n-1) or an increasing
        sequence of nonnegative ells.  This is the one place that picks the
        line builder (within reach) or pointwise reads (beyond it, or
        without a builder) for a line.
        """
        start = tuple(start)
        step = tuple(step)
        _check_dims(self.dimension, len(start), len(step))
        if isinstance(multipliers, (int, np.integer)):
            ells = np.arange(multipliers, dtype=np.int64)
        else:
            ells = np.asarray(multipliers, dtype=np.int64)
        if not len(ells):
            return np.empty(0, dtype=np.int64)
        first, last = ells.item(0), ells.item(-1)
        if first < 0 or min(start) < 0 or min(step) < 0:
            raise InvalidInput(f"the line {start} + ell*{step} for ell in "
                               f"[{first}, {last}] leaves N^{self.dimension}")
        if self._line_builder is not None and max(start) + max(step) * (last or 1) < _REACH:
            return self._line_builder(start, step, ells)
        ells = ells.tolist()
        axes = [[s + t * ell for ell in ells] for s, t in zip(start, step)]
        return np.fromiter(map(self._evaluator, zip(*axes)), dtype=np.int64, count=len(ells))

    def __repr__(self) -> str:
        return f"WordSource({self.name}, d={self.dimension}, k={self.alphabet_size})"


def factor_at(w: WordSource, p: Sequence[int], s: Sequence[int]) -> FiniteWord:
    """The block f with f(i) = w(p + i) for i in [0, s)."""
    p = tuple(p)
    s = tuple(s)
    _check_dims(w.dimension, len(p), len(s))
    _check_domain(p)
    ev = w._evaluator
    return FiniteWord(s, [ev(vec_add(p, i)) for i in iter_box(s)])


def directional_letter(w: WordSource, q: Sequence[int], s: Sequence[int], ell: int) -> FiniteWord:
    """The ell-th letter of the directional word of w along q with block size s."""
    return factor_at(w, vec_scale(tuple(q), ell), s)


def translate_origin(w: WordSource, p: Sequence[int]) -> WordSource:
    """The word i -> w(i + p); w checks the shifted positions."""
    p = tuple(p)
    _check_dims(w.dimension, len(p))
    return WordSource(w.dimension, w.alphabet_size,
                      lambda i: w.letter(vec_add(i, p)),
                      line_builder=lambda start, step, ells: w.letters_along(
                          vec_add(start, p), step, ells),
                      name=f"{w.name}@{p}")
