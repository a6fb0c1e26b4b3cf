"""Rotation words with exact quadratic angles.

Interval endpoints, angles and origins are QuadExt values, so membership at
half-open endpoints is bit-exact.  Circular interval sets are stored cut at
zero; a wrapping component splits in two.

Lines are read on a fixed-point circle: x is stored as floor(x * 2^64) in
a uint64, whose wraparound is reduction mod 1.  A point of the line
start + ell*step is then off by less than 1 + sum p_i + ell*sum q_i units
of 2^-64, and a cut by less than one.  While that bound is below
_GUARD = 2^-30, a point at modular distance >= _GUARD from 0 and from every
cut is labelled exactly; points inside that band, and multipliers where the
bound reaches _GUARD, are decided with exact QuadExt arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .errors import EmptyVisit, NotFound
from .lattice import FiniteWord, Vector, WordSource, vec_add, vec_scale
from .quadratic import ONE, ZERO, QuadExt

LOWER = "lower"   # intervals [a, b), partition of [0, 1)
UPPER = "upper"   # intervals (a, b], partition of (0, 1]

_UNIT = 1 << 64
_GUARD = 2.0 ** -30
_BAND = int(_GUARD * _UNIT)
_NEVER = (1 << 63) - 1


def _as_qext(value) -> QuadExt:
    return value if isinstance(value, QuadExt) else QuadExt.rational(value)


class IntervalSet:
    """A finite union of disjoint half-open intervals on the circle."""

    __slots__ = ("components", "orientation")

    def __init__(self, components, orientation: str = LOWER):
        comps = []
        for lo, hi in components:
            lo, hi = _as_qext(lo), _as_qext(hi)
            if lo.compare(hi) < 0:
                comps.append((lo, hi))
        comps.sort(key=lambda c: c[0].to_float())
        merged: list[tuple[QuadExt, QuadExt]] = []
        for lo, hi in comps:
            if merged and merged[-1][1] == lo:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "components", tuple(merged))
        object.__setattr__(self, "orientation", orientation)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    @classmethod
    def full(cls, orientation: str = LOWER) -> "IntervalSet":
        return cls([(ZERO, ONE)], orientation)

    def is_empty(self) -> bool:
        return not self.components

    def contains(self, x: QuadExt) -> bool:
        """Membership of a circle point given in [0, 1)."""
        if self.orientation == UPPER and x.is_zero():
            x = ONE
        for lo, hi in self.components:
            c_lo = x.compare(lo)
            if (c_lo >= 0 if self.orientation == LOWER else c_lo > 0):
                c_hi = x.compare(hi)
                if (c_hi < 0 if self.orientation == LOWER else c_hi <= 0):
                    return True
        return False

    def rotate_back(self, delta: QuadExt) -> "IntervalSet":
        """{x : x + delta in self}, i.e. the set shifted by -delta."""
        out = []
        for lo, hi in self.components:
            length = hi - lo
            start = (lo - delta).mod1()
            end = start + length
            if end.compare(ONE) <= 0:
                out.append((start, end))
            else:
                out.append((start, ONE))
                out.append((ZERO, end - 1))
        return IntervalSet(out, self.orientation)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        if self.orientation != other.orientation:
            raise ValueError("cannot intersect sets of mixed orientation")
        out = []
        for lo_a, hi_a in self.components:
            for lo_b, hi_b in other.components:
                lo = lo_a if lo_a.compare(lo_b) >= 0 else lo_b
                hi = hi_a if hi_a.compare(hi_b) <= 0 else hi_b
                out.append((lo, hi))
        return IntervalSet(out, self.orientation)

    def __repr__(self):
        parts = ", ".join(f"({lo.to_float():.4f},{hi.to_float():.4f})"
                          for lo, hi in self.components)
        return f"IntervalSet[{self.orientation}]({parts})"


class IntervalPartition:
    """k half-open intervals cut from the circle, with a label per cell."""

    __slots__ = ("cuts", "labels", "orientation")

    def __init__(self, cuts: Sequence[QuadExt], labels: Sequence[int] | None = None,
                 orientation: str = LOWER):
        cuts = tuple(_as_qext(c) for c in cuts)
        for c in cuts:
            if not (ZERO.compare(c) < 0 and c.compare(ONE) < 0):
                raise ValueError("interior cuts must lie strictly inside (0, 1)")
        for a, b in zip(cuts, cuts[1:]):
            if a.compare(b) >= 0:
                raise ValueError("cuts must be strictly increasing")
        if orientation not in (LOWER, UPPER):
            raise ValueError(f"unknown orientation {orientation!r}")
        k = len(cuts) + 1
        if labels is None:
            labels = tuple(range(k))
        labels = tuple(int(v) for v in labels)
        if len(labels) != k or len(set(labels)) != k:
            raise ValueError("need one distinct label per interval")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "orientation", orientation)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalPartition is immutable")

    def bounds(self, index: int) -> tuple[QuadExt, QuadExt]:
        ends = (ZERO, *self.cuts, ONE)
        return ends[index], ends[index + 1]

    def cell(self, label: int) -> IntervalSet:
        index = self.labels.index(label)
        return IntervalSet([self.bounds(index)], self.orientation)

    def min_cell_length(self) -> QuadExt:
        ends = (ZERO, *self.cuts, ONE)
        best = None
        for a, b in zip(ends, ends[1:]):
            length = b - a
            if best is None or length.compare(best) < 0:
                best = length
        return best

    def letter_at(self, x: QuadExt) -> int:
        """Label of the cell containing the circle point x (given in [0,1))."""
        if self.orientation == UPPER and x.is_zero():
            x = ONE
        for index, cut in enumerate(self.cuts):
            c = x.compare(cut)
            if c < 0 or (self.orientation == UPPER and c == 0):
                return self.labels[index]
        return self.labels[-1]


def rational_independence_check(alpha: Sequence[QuadExt]) -> bool:
    """True iff 1, alpha_1, ..., alpha_d are linearly independent over Q."""
    radicands = {1}
    for a in alpha:
        radicands.update(a.coefficients())
    basis = sorted(radicands)
    column = {rad: i for i, rad in enumerate(basis)}
    rows = [[Fraction(0)] * len(basis) for _ in range(len(alpha) + 1)]
    rows[0][column[1]] = Fraction(1)
    for r, a in enumerate(alpha, start=1):
        for rad, c in a.coefficients().items():
            rows[r][column[rad]] = c
    rank = 0
    for col in range(len(basis)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == len(alpha) + 1


@dataclass(frozen=True)
class RotationWordSpec:
    """w(i) = label of the partition cell containing (rho + i.alpha) mod 1."""

    alpha: tuple[QuadExt, ...]
    rho: QuadExt
    partition: IntervalPartition

    def __post_init__(self):
        if not rational_independence_check(self.alpha):
            raise ValueError("1 and the angles must be rationally independent")

    @property
    def dimension(self) -> int:
        return len(self.alpha)

    def point(self, p: Sequence[int]) -> QuadExt:
        total = self.rho
        for c, a in zip(p, self.alpha, strict=True):
            total = total + a * c
        return total.mod1()

    def letter(self, p: Sequence[int]) -> int:
        return self.partition.letter_at(self.point(p))

    def angle_along(self, q: Sequence[int]) -> QuadExt:
        """Rotation step of the directional word along q: (q . alpha) mod 1."""
        total = ZERO
        for c, a in zip(q, self.alpha, strict=True):
            total = total + a * c
        return total.mod1()

    def word(self) -> WordSource:
        part = self.partition
        angles = [_fixed(a) for a in self.alpha]
        rho = _fixed(self.rho)
        cuts = np.array([_fixed(c) for c in part.cuts], dtype=np.uint64)
        labels = np.array(part.labels, dtype=np.int64)

        def line(starts: np.ndarray, steps: np.ndarray, ells: np.ndarray) -> np.ndarray:
            starts, steps = starts.tolist(), steps.tolist()
            x0 = [sum(map(mul, p, angles), rho) for p in starts]
            delta = [sum(map(mul, q, angles)) for q in steps]
            x, exact = _fixed_line(x0, delta, ells, cuts, list(map(sum, starts)),
                                   list(map(sum, steps)))
            # strictness at the cut is immaterial outside the guard band
            out = labels[cuts.searchsorted(x, side="right")]
            if exact.any():
                for i, k in zip(*np.nonzero(exact)):
                    p = vec_add(starts[i], vec_scale(steps[i], int(ells[k])))
                    out[i, k] = self.letter(p)
            return out

        alphabet = max(part.labels) + 1
        return WordSource(self.dimension, alphabet, self.letter,
                          line_builder=line, name="rotation")


def _fixed(x: QuadExt) -> int:
    """floor(x * 2^64), exactly; mod 2^64 it is x on the fixed-point circle."""
    return (x * _UNIT).floor()


def _fixed_line(x0: Sequence[int], delta: Sequence[int], ells: np.ndarray, edges: np.ndarray,
                spread_p: Sequence[int], spread_q: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """uint64 points (x0[i] + ell*delta[i]) mod 2^64 of shape (L, n) at
    int64 ells, one row per line, and the mask of those to decide exactly:
    within _BAND of 0 or of an edge (mod 2^64), or where line i's error
    bound 1 + spread_p[i] + ell*spread_q[i] reaches _BAND."""
    step = np.array([t % _UNIT for t in delta], dtype=np.uint64)
    x = np.multiply.outer(step, ells.astype(np.uint64))
    x += np.array([s % _UNIT for s in x0], dtype=np.uint64)[:, None]
    band = np.uint64(2 * _BAND)
    exact = x + np.uint64(_BAND) < band
    for e in edges.tolist():
        exact |= x - np.uint64((e - _BAND) % _UNIT) < band
    # first[i]: the least ell whose bound reaches _BAND on line i, that is
    # with ell * spread_q[i] >= slack
    first = [-(-slack // q) if q else _NEVER if slack else 0
             for slack, q in zip((max(_BAND - 1 - p, 0) for p in spread_p), spread_q)]
    if min(first) <= ells.max():
        exact |= ells >= np.array(first)[:, None]
    return x, exact


def sturmian_spec(labels: Sequence[int] | None = None) -> RotationWordSpec:
    """The default bidimensional Sturmian parameters used in tests:
    alpha = (sqrt(2)-1, sqrt(3)-1), rho = 0, cells [0, alpha_1) and [alpha_1, 1)."""
    a1 = QuadExt.sqrt(2) - 1
    a2 = QuadExt.sqrt(3) - 1
    part = IntervalPartition([a1], labels=labels)
    return RotationWordSpec((a1, a2), ZERO, part)


def factor_interval_set(spec: RotationWordSpec, f: FiniteWord) -> IntervalSet:
    """I_f: circle points x such that the factor read from x is f; the factor
    occurs at p exactly when the orbit point of p lies in I_f."""
    out = IntervalSet.full(spec.partition.orientation)
    for i in f.positions():
        cell = spec.partition.cell(f[i])
        shift = ZERO
        for c, a in zip(i, spec.alpha, strict=True):
            shift = shift + a * c
        out = out.intersect(cell.rotate_back(shift.mod1()))
        if out.is_empty():
            break
    return out


def occurs_at(spec: RotationWordSpec, f: FiniteWord, p: Sequence[int]) -> bool:
    return factor_interval_set(spec, f).contains(spec.point(p))


def three_gap_analysis(delta: QuadExt, interval: IntervalSet, horizon: int) -> set[int]:
    """Distinct gaps between successive l <= horizon with (l*delta) mod 1 in
    the interval set.  The three-distance theorem caps the answer at 3 for
    irrational delta.

    The orbit runs on the fixed-point circle (``_fixed_line``); any point
    within _GUARD of a component edge or of the 0/1 seam is decided
    exactly instead.
    """
    if delta.is_rational():
        raise ValueError("three-gap analysis needs an irrational angle")
    # component ends as uint64; an end at 1 is never below a point
    ends = np.array([e for c in interval.components for e in map(_fixed, c)
                     if e < _UNIT], dtype=np.uint64)
    ells = np.arange(horizon + 1, dtype=np.int64)
    x, exact = (a[0] for a in _fixed_line([0], [_fixed(delta)], ells, ends, [0], [1]))
    # components are disjoint and sorted, so a point is inside exactly
    # when an odd number of ends lie at or below it
    inside = np.searchsorted(ends, x, side="right") % 2 == 1
    for ell in np.flatnonzero(exact).tolist():
        inside[ell] = interval.contains((delta * ell).mod1())
    visits = np.flatnonzero(inside)
    if not len(visits):
        raise EmptyVisit(f"no orbit point in the set within {horizon} steps")
    gaps = set(np.diff(visits).tolist())
    assert len(gaps) <= 3, f"three-gap theorem violated: {sorted(gaps)}"
    return gaps


def surd_failure_direction(spec: RotationWordSpec, n: int,
                           search_cap: int = 100_000) -> Vector:
    """A direction q = (q_1, n, ..., n) whose directional rotation step is so
    small that the 1x1 directional word contains a constant run of length at
    least n; witnesses that one gap bound cannot serve all directions."""
    if n < 1:
        raise ValueError("run length must be positive")
    min_len = spec.partition.min_cell_length()
    threshold = min_len / n
    for q1 in range(1, search_cap + 1):
        if math.gcd(q1, n) != 1:
            continue
        q = (q1,) + (n,) * (spec.dimension - 1)
        delta = spec.angle_along(q)
        if delta.is_zero() or delta.compare(threshold) >= 0:
            continue
        if _constant_run_along(spec, q, delta, n):
            return q
    raise NotFound(f"no witness direction with q_1 <= {search_cap}")


def _constant_run_along(spec: RotationWordSpec, q: Vector, delta: QuadExt,
                        n: int) -> bool:
    # the orbit advances by delta < min cell length / n, so the first cell it
    # enters from the left edge hosts a run of >= n letters; bound the scan by
    # one full revolution plus slack
    limit = int(2 / delta.to_float()) + 3 * n + 2
    line = spec.word().letters_along((0,) * spec.dimension, q, limit)
    changes = np.flatnonzero(np.diff(line))
    return bool(np.diff(changes, prepend=-1, append=limit - 1).max() >= n)
