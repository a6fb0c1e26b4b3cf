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
# Most letters one line builder call reads.
_CALL_LETTERS = 1 << 13


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

    Every multi-letter read goes through ``letters_on_lines``, which reads a
    family of lines at once and returns an int64 array; ``letters_along``
    is its one-line case.  ``letter`` and ``factor_at`` read pointwise
    through the evaluator; they are the exact references the batched reads
    are tested against.  A position with a negative coordinate, and a line
    with a negative start, step or multiplier, lies outside N^d and raises
    InvalidInput.

    ``line_builder``, when given, batch-evaluates letters along a family of
    arithmetic lines: ``line_builder(starts, steps, ells)`` takes int64
    arrays of shapes (S, d), (D, d) and (n,) and returns the int64 array of
    shape (S, D, n) whose entry (i, j, k) is the letter at
    starts[i] + ells[k] * steps[j].  ``letters_on_lines`` is the one gate in
    front of it: it calls the builder only for nonempty families inside N^d
    within reach, where max(starts) + max(steps) * max(max(ells), 1) < 2^62,
    so every coordinate and product a builder forms fits in int64, and it
    is the one place that splits a family into builder calls, of at most
    ``_CALL_LETTERS`` = 2^13 letters each (larger calls cost more per
    letter: with 2^14-letter calls the 2x2 survey ran about 30% slower on
    a 2-vCPU x86-64 machine); callers bound only the family they ask for.
    Families beyond the reach, and words without a builder, are read
    pointwise through the evaluator, exact at any size.  Rotation orbits,
    morphic digit walks (m digits per table lookup), Thue-Morse parities,
    gcd placements and the Toeplitz filling have builders.  Evaluators must
    be deterministic; internal memoization is allowed but invisible.
    """

    __slots__ = ("dimension", "alphabet_size", "_evaluator", "_line_builder", "name")

    def __init__(self, dimension: int, alphabet_size: int,
                 evaluator: Callable[[Vector], int],
                 line_builder: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
                 | None = None,
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
        """Letters at start + ell*step for each multiplier ell, as int64:
        the one-line case of ``letters_on_lines``."""
        return self.letters_on_lines((start,), (step,), multipliers)[0, 0]

    def letters_on_lines(self, starts: Sequence[Sequence[int]], steps: Sequence[Sequence[int]],
                         multipliers: int | Sequence[int]) -> np.ndarray:
        """Letters at starts[i] + ell*steps[j] for each multiplier ell, as an
        int64 array of shape (len(starts), len(steps), n).

        ``multipliers`` is a count n (ell = 0, ..., n-1), a range, or a
        sequence of nonnegative ells in any order.  This is the one place
        that picks the line builder (within reach, in calls of at most 2^13
        letters) or pointwise reads (beyond it, or without a builder) for a
        family.
        """
        starts = [tuple(map(int, p)) for p in starts]
        steps = [tuple(map(int, q)) for q in steps]
        _check_dims(self.dimension, *map(len, starts), *map(len, steps))
        if isinstance(multipliers, (int, np.integer)):
            multipliers = range(int(multipliers))
        if isinstance(multipliers, range):
            ells = np.arange(multipliers.start, multipliers.stop, multipliers.step,
                             dtype=np.int64)
        else:
            ells = np.asarray(multipliers, dtype=np.int64)
        n = len(ells)
        if not (n and starts and steps):
            return np.empty((len(starts), len(steps), n), dtype=np.int64)
        if isinstance(multipliers, range):
            lo, hi = sorted((multipliers[0], multipliers[-1]))
        else:
            lo, hi = ells.min().item(), ells.max().item()
        if lo < 0 or min(map(min, starts)) < 0 or min(map(min, steps)) < 0:
            start = min(starts, key=min)
            step = min(steps, key=min)
            raise InvalidInput(f"the line {start} + ell*{step} for ell in "
                               f"[{lo}, {hi}] leaves N^{self.dimension}")
        build = self._line_builder
        if build is not None and max(map(max, starts)) + max(map(max, steps)) * max(hi, 1) < _REACH:
            return _capped(build, np.array(starts, dtype=np.int64),
                           np.array(steps, dtype=np.int64), ells)
        ells = ells.tolist()
        points = (tuple(s + t * ell for s, t in zip(p, q))
                  for p in starts for q in steps for ell in ells)
        out = np.fromiter(map(self._evaluator, points), dtype=np.int64,
                          count=len(starts) * len(steps) * n)
        return out.reshape(len(starts), len(steps), n)

    def __repr__(self) -> str:
        return f"WordSource({self.name}, d={self.dimension}, k={self.alphabet_size})"


def _capped(build, starts: np.ndarray, steps: np.ndarray, ells: np.ndarray) -> np.ndarray:
    """build(starts, steps, ells) in calls of at most _CALL_LETTERS letters."""
    shape = (len(starts), len(steps), len(ells))
    if math.prod(shape) <= _CALL_LETTERS:
        return build(starts, steps, ells)
    out = np.empty(shape, dtype=np.int64)
    for i, j, k in _call_slices(shape):
        out[i, j, k] = build(starts[i], steps[j], ells[k])
    return out


def _call_slices(shape: tuple[int, int, int]) -> Iterator[tuple[slice, slice, slice]]:
    """Index slices that cut a (starts, steps, multipliers) family into
    pieces of at most _CALL_LETTERS letters, split over starts, then steps,
    then multipliers; none for an empty family."""
    kn = max(1, min(shape[2], _CALL_LETTERS))
    kd = max(1, min(shape[1], _CALL_LETTERS // kn))
    ks = max(1, min(shape[0], _CALL_LETTERS // (kd * kn)))
    for i in range(0, shape[0], ks):
        for j in range(0, shape[1], kd):
            for k in range(0, shape[2], kn):
                yield slice(i, i + ks), slice(j, j + kd), slice(k, k + kn)


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
                      line_builder=lambda starts, steps, ells: w.letters_on_lines(
                          [vec_add(s, p) for s in starts.tolist()], steps.tolist(), ells),
                      name=f"{w.name}@{p}")
