"""Grid positions, finite blocks and evaluators for multidimensional words.

Coordinate conventions used throughout the package: a position is a tuple of
nonnegative integers, with the first coordinate horizontal for d = 2 and the
second vertical, rows growing bottom to top.  Nested-list (JSON) form puts the
bottom row first; the text renderer prints the top row first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


def check_scan(directions: Sequence[Vector], sizes: Sequence[Vector], horizon: int) -> None:
    """Refuse a scan that mixes dimensions or would read nothing meaningful."""
    _check_dims(*map(len, directions), *map(len, sizes))
    if horizon < 0 or any(c < 1 for s in sizes for c in s):
        raise InvalidInput(f"a scan needs horizon >= 0 and sides >= 1, not {horizon}, {sizes}")
    if not all(map(any, directions)):
        raise DegenerateDirection("a scan direction is all zeros")


def read_slices(rows: int, n: int, per: int, align: int = 1,
                cap: int | None = None) -> Iterator[tuple[slice, slice]]:
    """(row slice, multiplier slice) pieces, row-major, of rows x n
    multipliers at per >= 1 letters each, none if n = 0: a row's multipliers
    while it fits in cap letters (by default _SLICE_LETTERS), else at least
    align and a multiple of align of them, then as many rows as fit."""
    cap = _SLICE_LETTERS if cap is None else cap
    nc = max(n, 1) if per * n <= cap else max(align, cap // per // align * align)
    rc = max(1, cap // (per * nc))
    for i in range(0, rows, rc):
        for k in range(0, n, nc):
            yield slice(i, min(i + rc, rows)), slice(k, min(k + nc, n))


def _check_dims(*lengths: int) -> None:
    if len(set(lengths)) != 1:
        raise DimensionError(f"mixed dimensions: {lengths}")


def _check_domain(p: Vector) -> None:
    if min(p) < 0:
        raise InvalidInput(f"position {p} lies outside N^{len(p)}")


# Lines whose reach bound is below this go to the line builder.
_REACH = 1 << 62
# Most letters one line builder call reads.  The morphic walk pays about 60
# small numpy calls per call: at 2^13 the 2x2 survey, then reading 4,001
# multipliers per SURD entry, ran 23% slower on a 2-vCPU x86-64 machine; at
# 2^15 that read ran 15% faster, but a call's int64 arrays pass 128 KiB, where
# malloc faults in fresh pages for them, and a Toeplitz grid read took 1.5x as long.
_CALL_LETTERS = 1 << 14
# Most letters one read of a sweep's match table or of derive's block codes
# takes; the gate cuts each into builder calls.  Sweep times did not change
# from 2^18 to 2^21 letters, and large checks peaked lowest in memory at 2^19.
_SLICE_LETTERS = 1 << 19


@dataclass(frozen=True, slots=True)
class FiniteWord:
    """A rectangular block of letters.

    Cells are stored flat with the first coordinate fastest, so a 2-D block
    is a stack of rows from bottom to top.  Instances are immutable and
    hashable.
    """

    size: Vector
    cells: tuple[int, ...]

    def __post_init__(self):
        size = tuple(int(s) for s in self.size)
        if not size or any(s < 1 for s in size):
            raise ValueError(f"invalid block size {size}")
        cells = tuple(map(int, self.cells))
        if len(cells) != math.prod(size):
            raise ValueError(f"{len(cells)} cells for size {size}")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "cells", cells)

    @property
    def dimension(self) -> int:
        return len(self.size)

    @classmethod
    def from_function(cls, size: Sequence[int], fn: Callable[[Vector], int]) -> "FiniteWord":
        return cls(size, [fn(p) for p in iter_box(size)])

    @classmethod
    def from_nested(cls, nested) -> "FiniteWord":
        """Build from nested lists, outermost index = last coordinate
        (for d = 2: a list of rows, bottom row first).  Object arrays keep
        every int exact; a ragged nesting raises ValueError."""
        return cls(np.shape(nested)[::-1], np.array(nested, dtype=object).ravel())

    def to_nested(self):
        """Inverse of from_nested."""
        return np.array(self.cells, dtype=object).reshape(self.size[::-1]).tolist()

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

    def __repr__(self) -> str:
        shape = "x".join(map(str, self.size))
        return f"FiniteWord({shape}, {''.join(map(str, self.cells))})"


@dataclass(frozen=True, slots=True, eq=False)
class WordSource:
    """An infinite word w: N^d -> A behind a pure evaluator.

    Every multi-letter read goes through ``letters_on_lines``, which reads a
    family of starts x steps at once and returns an int64 array;
    ``letters_along`` is its one-line case.  ``letter`` and ``factor_at``
    read pointwise through the evaluator; they are the exact references the
    batched reads are tested against.  A position with a negative
    coordinate, and a line with a negative start, step or multiplier, lies
    outside N^d and raises InvalidInput.

    ``line_builder``, when given, reads letters along paired lines:
    ``line_builder(starts, steps, ells)`` takes int64 arrays of shapes
    (L, d), (L, d) and (n,) and returns the (L, n) int64 array whose row i
    holds the letters at starts[i] + ell * steps[i].  ``letters_on_lines`` is
    the one gate in front of it: it calls it only for lines inside N^d within
    reach, max(starts) + max(steps) * max(max(ells), 1) < 2^62, so every
    coordinate and product a builder forms fits in int64, and in calls of
    at most ``_CALL_LETTERS`` = 2^14 letters; callers bound only the family
    they ask for.  Lines beyond the reach, and words without a builder, are
    read pointwise through the evaluator, exact at any size.  Rotation
    orbits, morphic digit walks (Thue-Morse among them), gcd placements
    and the Toeplitz filling have builders.  Evaluators must be
    deterministic; internal memoization is allowed but invisible.

    Words are frozen and compare by identity: equal letters need not come
    from equal evaluators.
    """

    dimension: int
    alphabet_size: int
    evaluator: Callable[[Vector], int]
    line_builder: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    name: str = "word"

    def letter(self, p: Sequence[int]) -> int:
        p = tuple(p)
        _check_dims(self.dimension, len(p))
        _check_domain(p)
        return self.evaluator(p)

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
        that refuses a line leaving N^d and picks the builder or pointwise
        reads, on the Python ints of the family before any array exists.
        """
        starts = [tuple(map(int, p)) for p in starts]
        steps = [tuple(map(int, q)) for q in steps]
        _check_dims(self.dimension, *map(len, starts), *map(len, steps))
        if isinstance(multipliers, (int, np.integer)):
            multipliers = range(int(multipliers))
        shape = (len(starts), len(steps), len(multipliers))
        if not math.prod(shape):
            return np.empty(shape, dtype=np.int64)
        if isinstance(multipliers, range):
            lo, hi = sorted((multipliers[0], multipliers[-1]))
        else:
            multipliers = np.asarray(multipliers, dtype=np.int64)
            lo, hi = multipliers.min().item(), multipliers.max().item()
        if lo < 0 or min(map(min, starts)) < 0 or min(map(min, steps)) < 0:
            p, q = next(((p, q) for p in starts for q in steps if min(p) < 0 or min(q) < 0),
                        (starts[0], steps[0]))
            raise InvalidInput(f"the line {p} + ell*{q} for ell in [{lo}, {hi}] "
                               f"leaves N^{self.dimension}")
        build = self.line_builder
        if build is not None and max(map(max, starts)) + max(map(max, steps)) * max(hi, 1) < _REACH:
            # start-major: each start once per step, beside the steps in turn
            starts = np.repeat(np.array(starts, dtype=np.int64), shape[1], axis=0)
            steps = np.tile(np.array(steps, dtype=np.int64), (shape[0], 1))
            return _capped(build, starts, steps, multipliers).reshape(shape)
        ells = list(map(int, multipliers))
        points = (tuple(s + t * ell for s, t in zip(p, q))
                  for p in starts for q in steps for ell in ells)
        out = np.fromiter(map(self.evaluator, points), dtype=np.int64, count=math.prod(shape))
        return out.reshape(shape)

    def __repr__(self) -> str:
        return f"WordSource({self.name}, d={self.dimension}, k={self.alphabet_size})"


def _capped(build, starts: np.ndarray, steps: np.ndarray,
            ells: range | np.ndarray) -> np.ndarray:
    """build(starts, steps, ells) in calls of at most _CALL_LETTERS letters,
    cut by ``read_slices``.  A range becomes int64 one call at a time: a whole
    slice of it beside the output made glibc trim and refault pages per slice."""
    shape = (len(starts), len(ells))
    if math.prod(shape) <= _CALL_LETTERS:
        return build(starts, steps, _int64(ells))
    out = np.empty(shape, dtype=np.int64)
    for rs, ks in read_slices(*shape, 1, cap=_CALL_LETTERS):
        out[rs, ks] = build(starts[rs], steps[rs], _int64(ells[ks]))
    return out


def _int64(ells: range | np.ndarray) -> np.ndarray:
    return (np.arange(ells.start, ells.stop, ells.step, dtype=np.int64)
            if isinstance(ells, range) else ells)


def factor_at(w: WordSource, p: Sequence[int], s: Sequence[int]) -> FiniteWord:
    """The block f with f(i) = w(p + i) for i in [0, s)."""
    p = tuple(p)
    s = tuple(s)
    _check_dims(w.dimension, len(p), len(s))
    _check_domain(p)
    ev = w.evaluator
    return FiniteWord(s, [ev(vec_add(p, i)) for i in iter_box(s)])


def directional_letter(w: WordSource, q: Sequence[int], s: Sequence[int], ell: int) -> FiniteWord:
    """The ell-th letter of the directional word of w along q with block size s."""
    return factor_at(w, vec_scale(tuple(q), ell), s)
