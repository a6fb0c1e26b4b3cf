"""Finite-horizon recurrence scanning.

Everything here reports evidence about a budgeted window of the word, never
a claim about the infinite object: ``BOUNDED_WITNESSED`` records the largest
gap seen between occurrences (counting the tail up to the horizon), and
``NO_RECURRENCE_IN_HORIZON`` means the prefix block was only ever seen at
the start of the line.  ``GAP_EXCEEDS_CLAIM`` is reserved for scans run
against a caller-supplied bound and is always a hard failure.  A report
keeps its occurrences as the packed bit row the scan wrote, plus their
count and gaps; ``occurrence_indices`` returns them as a list.  A sweep
turns all its rows into counts and gaps in one numpy pass, then builds a
report for every row (urd) or only for each size's worst (surd, ssurdo).
"""

from __future__ import annotations

import itertools
from operator import add
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInput
from .lattice import Vector, WordSource, check_scan, iter_box, read_slices
from .residues import iter_coprime_directions

BOUNDED_WITNESSED = "BOUNDED_WITNESSED"
NO_RECURRENCE_IN_HORIZON = "NO_RECURRENCE_IN_HORIZON"
GAP_EXCEEDS_CLAIM = "GAP_EXCEEDS_CLAIM"

# A claim may depend on the block size (the morphic bounds do).
Claim = int | Callable[[Vector], int] | None


@dataclass(frozen=True)
class RecurrenceBudget:
    """Truncation parameters for all scans.

    horizon      largest multiplier scanned along a line
    direction_bound   max coordinate of enumerated directions
    size_bound   max coordinate of enumerated block sizes
    origin_bound max coordinate of enumerated origins
    block_bound  side of the region searched by window scans
    """

    horizon: int = 5000
    direction_bound: int = 5
    size_bound: int = 3
    origin_bound: int = 3
    block_bound: int = 256

    def __post_init__(self) -> None:
        for field in (
            self.horizon,
            self.direction_bound,
            self.size_bound,
            self.origin_bound,
            self.block_bound,
        ):
            if field < 1:
                raise ValueError(f"budget fields must be positive, got {field}")


@dataclass(frozen=True)
class GapReport:
    """Occurrences of the block at origin along direction: their count, the
    largest gap between two (None below two), the horizon minus the last,
    and the bit row, one bit per multiplier in ``np.packbits`` order."""

    direction: Vector
    size: Vector
    origin: Vector
    count: int
    internal_gap: int | None
    tail_gap: int
    verdict: str
    row: bytes = field(repr=False)

    @property
    def max_gap(self) -> int | None:
        return None if self.internal_gap is None else max(self.internal_gap, self.tail_gap)

    @property
    def occurrences(self) -> tuple[int, ...]:
        bits = np.unpackbits(np.frombuffer(self.row, np.uint8)).view(bool)
        return tuple(bits.nonzero()[0].tolist())

    def bounded(self) -> bool:
        return self.verdict == BOUNDED_WITNESSED


@dataclass(frozen=True)
class SizeSummary:
    """Worst gap over a family of lines sharing one block size."""

    size: Vector
    bound: int | None
    worst: GapReport
    verdict: str


@dataclass(frozen=True)
class URReport:
    size: Vector
    window: int | None


def enumerate_directions(dimension: int, bound: int) -> list[Vector]:
    """All coprime nonnegative nonzero tuples with coordinates <= bound."""
    return list(iter_coprime_directions(dimension, bound))


def enumerate_sizes(dimension: int, bound: int) -> list[Vector]:
    return [
        tuple(s)
        for s in itertools.product(range(1, bound + 1), repeat=dimension)
    ]


def occurrence_indices(
    w: WordSource,
    direction: Sequence[int],
    size: Sequence[int],
    origin: Sequence[int] | None = None,
    horizon: int = 5000,
) -> list[int]:
    """All ell <= horizon where the block at origin reappears at origin + ell*q.

    ell = 0 is always reported.  This is the one-block case of the sweep:
    each cell of the block is read along q up to the horizon once, and the
    block occurs where every cell matches its letter at ell = 0.
    """
    p0 = (0,) * w.dimension if origin is None else tuple(origin)
    return _unpacked(_row(w, tuple(direction), tuple(size), p0, horizon), horizon).tolist()


def _row(w: WordSource, q: Vector, size: Vector, p0: Vector, horizon: int) -> np.ndarray:
    """The bit row of one block's occurrences: ``_scan`` with one report."""
    return _scan(w, p0, [q], [size], 0, horizon)[0, 0, 0]


def _scan(w: WordSource, corner: Vector, dirs: list[Vector], sizes: list[Vector],
          origin_bound: int, horizon: int) -> np.ndarray:
    """found[i, a, j]: the multipliers ell <= horizon at which the block of
    size sizes[i] at corner + origins[a] reappears along dirs[j], as a row
    of bits in ``np.packbits`` order; the origins are [0, origin_bound]^d in
    product order.

    Every line from a start in corner + [0, origin_bound + max size)^d is
    read once, into a bool match table of "letter == letter at ell = 0",
    and a block occurs where the table's views at its cells all hold.  The
    table is read in the slices ``read_slices`` cuts, whole bytes of the
    bit rows each, and every size ANDs a slice before the next is read, so
    memory stays within a slice plus one bit per (size, report, multiplier).
    """
    check_scan(dirs, sizes, horizon)
    n = horizon + 1
    extent = tuple(origin_bound + max(c) for c in zip(*sizes))
    starts = list(itertools.product(*map(range, corner, map(add, corner, extent))))
    span = (origin_bound + 1,) * len(corner)
    origins = span[0] ** len(span)
    found = np.zeros((len(sizes), origins, len(dirs), -(-n // 8)), dtype=np.uint8)
    for js, ks in read_slices(len(dirs), n, len(starts), align=8):
        letters = w.letters_on_lines(starts, dirs[js], range(n)[ks])
        if js.start == ks.start == 0:
            ref = letters[:, :1, :1].copy()
        rows = letters.shape[1:]
        table = (letters == ref).reshape(extent + rows)
        del letters
        for bits, s in zip(found, sizes):
            mask = _and_cells(table, s, span).reshape((origins,) + rows)
            bits[:, js, ks.start // 8:-(-ks.stop // 8)] = np.packbits(mask, axis=-1)
    return found


def _unpacked(bits: np.ndarray, horizon: int) -> np.ndarray:
    """The multipliers ell <= horizon set in a row of bits, as int64."""
    return np.unpackbits(bits, count=horizon + 1).view(bool).nonzero()[0]


def _and_cells(table: np.ndarray, size: Vector, origins: Vector) -> np.ndarray:
    """The AND of the table's views at every cell offset of the block."""
    views = [table[tuple(map(slice, cell, map(add, cell, origins)))]
             for cell in itertools.product(*map(range, size))]
    mask = views[0] if len(views) == 1 else views[0] & views[1]
    for view in views[2:]:
        mask &= view
    return mask


def _gaps(rows: np.ndarray, horizon: int) -> np.ndarray:
    """(count, internal gap, tail gap) of every bit row of a 2-D array, as a
    3 x rows int64 array, the internal gap 0 below two occurrences.  Bit 0
    of every row is set (ell = 0 always matches), so in the flat nonzero of
    a group of rows row i starts at i * n, and the step from its last
    occurrence to (i + 1) * n is its tail gap + 1; zeroed, that step ends
    its internal steps.  The groups are whole rows cut by ``read_slices`` at
    8 letters a bit, 2^16 bits at the default cap: at a full slice the int64
    arrays outgrew the 2x2 survey's small match tables in peak memory, and
    at 2^14 bits the calls per group cost more than per-row reductions."""
    n = horizon + 1
    out = np.empty((3, len(rows)), dtype=np.int64)
    for rs, _ in read_slices(len(rows), 1, 8 * n):
        k = rs.stop - rs.start
        # nonzero takes its fast path on bool, several times faster than on uint8
        flat = np.flatnonzero(np.unpackbits(rows[rs], axis=-1, count=n).view(bool))
        first = flat.searchsorted(np.arange(k) * n)
        steps = np.diff(flat, append=k * n)
        last = np.append(first[1:], len(flat)) - 1
        out[0, rs] = last - first + 1
        out[2, rs] = steps[last] - 1
        steps[last] = 0
        out[1, rs] = np.maximum.reduceat(steps, first)
    return out


def _check_claim(claim: Claim, sizes: list[Vector]) -> None:
    """Refuse a claim below 1, which no gap meets, at each size it bounds."""
    for bound in [claim(s) for s in sizes] if callable(claim) else [claim]:
        if bound is not None and bound < 1:
            raise InvalidInput(f"a claimed gap bound of {bound}: no gap is below 1")


def _ranks(gaps, horizon: int, claim: Claim, size: Vector):
    """Each report's severity, the worst largest: its max gap; horizon + 1
    past a lone occurrence, which no horizon sees recur; horizon + 2 where
    that breaks the claimed bound.  ``_report`` reads the verdict off it.
    Plain operators serve arrays and one report's ints, at no numpy cost."""
    count, internal, tail = gaps
    bound = claim(size) if callable(claim) else claim
    # max(internal, tail), + 1 past a lone occurrence (internal 0, tail horizon)
    reach = internal + (tail - internal) * (tail > internal) + (count < 2)
    return reach if bound is None else reach + (horizon + 2 - reach) * (reach > bound)


def _report(p: Vector, q: Vector, s: Vector, row: np.ndarray, count: int, internal: int,
            tail: int, rank: int, horizon: int) -> GapReport:
    verdicts = (BOUNDED_WITNESSED, NO_RECURRENCE_IN_HORIZON, GAP_EXCEEDS_CLAIM)
    return GapReport(q, s, p, count, internal if count > 1 else None, tail,
                     verdicts[max(rank - horizon, 0)], row.tobytes())


def gap_report(
    w: WordSource,
    direction: Sequence[int],
    size: Sequence[int],
    origin: Sequence[int] | None = None,
    horizon: int = 5000,
    claim: Claim = None,
) -> GapReport:
    q = tuple(direction)
    s = tuple(size)
    p0 = (0,) * w.dimension if origin is None else tuple(origin)
    _check_claim(claim, [s])
    row = _row(w, q, s, p0, horizon)
    occ = _unpacked(row, horizon)
    gaps = (len(occ), np.diff(occ).max(initial=0).item(), horizon - occ[-1].item())
    return _report(p0, q, s, row, *gaps, _ranks(gaps, horizon, claim, s), horizon)


def _sweep(w: WordSource, budget: RecurrenceBudget | None, sizes: Iterable[Sequence[int]] | None,
           claim: Claim, origin_bound: int, keep: Callable) -> list:
    """Per block size, ``keep(size, keys, rows, gaps, horizon, claim)``, keys
    the (origin, direction) of every report (origins in [0, origin_bound]^d
    outer), rows their bit rows and gaps their ``_gaps``.  All sizes share
    one ``_scan``, so every line is read once, and one ``_gaps``; ``keep``
    builds only the reports it keeps, from those numbers."""
    budget = budget or RecurrenceBudget()
    d = w.dimension
    size_list = enumerate_sizes(d, budget.size_bound) if sizes is None else list(map(tuple, sizes))
    _check_claim(claim, size_list)
    if not size_list:
        return []
    dirs = enumerate_directions(d, budget.direction_bound)
    keys = list(itertools.product(itertools.product(range(origin_bound + 1), repeat=d), dirs))
    found = _scan(w, (0,) * d, dirs, size_list, origin_bound, budget.horizon)
    found = found.reshape(len(size_list), len(keys), -1)
    gaps = _gaps(found.reshape(-1, found.shape[-1]), budget.horizon)
    return [keep(s, keys, rows, g, budget.horizon, claim) for s, rows, g in
            zip(size_list, found, gaps.reshape(3, len(size_list), -1).transpose(1, 0, 2))]


def _reports(s: Vector, keys: list[tuple[Vector, Vector]], rows: np.ndarray,
             gaps: np.ndarray, horizon: int, claim: Claim) -> list[GapReport]:
    ranks = _ranks(gaps, horizon, claim, s)
    return [_report(p, q, s, row, *numbers, horizon)
            for (p, q), row, *numbers in zip(keys, rows, *gaps.tolist(), ranks.tolist())]


def _summarize(s: Vector, keys: list[tuple[Vector, Vector]], rows: np.ndarray,
               gaps: np.ndarray, horizon: int, claim: Claim) -> SizeSummary:
    """The first of the worst reports, the only one built; its verdict is
    the family's, and the bound is None if any row has a lone occurrence."""
    ranks = _ranks(gaps, horizon, claim, s)
    i = int(ranks.argmax())
    worst = _report(*keys[i], s, rows[i], *gaps[:, i].tolist(), int(ranks[i]), horizon)
    bound = None if gaps[0].min() < 2 else int(np.maximum(gaps[1], gaps[2]).max())
    return SizeSummary(s, bound, worst, worst.verdict)


def check_urd_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
    claim: Claim = None,
) -> list[GapReport]:
    """One report per (direction, size) pair, origin fixed at zero."""
    return [r for reports in _sweep(w, budget, sizes, claim, 0, _reports) for r in reports]


def check_surd_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
    claim: Claim = None,
) -> list[SizeSummary]:
    """Per size, the sup of gaps over all directions (origin zero)."""
    return _sweep(w, budget, sizes, claim, 0, _summarize)


def check_ssurdo_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
    claim: Claim = None,
) -> list[SizeSummary]:
    """Per size, the sup of gaps over directions and origins."""
    budget = budget or RecurrenceBudget()
    return _sweep(w, budget, sizes, claim, budget.origin_bound, _summarize)


def sample_grid(w: WordSource, shape: Sequence[int]) -> np.ndarray:
    """Letters of w on the box [0, shape), indexed grid[x1, ..., xd]; one
    family read of the rows along the first axis."""
    shape = tuple(shape)
    step = (1,) + (0,) * (len(shape) - 1)
    rows = w.letters_on_lines([(0, *rest) for rest in iter_box(shape[1:])], [step], shape[0])
    return np.ascontiguousarray(rows.reshape(shape[::-1]).T)


def _prefix_occurrences(grid: np.ndarray, size: Vector) -> np.ndarray:
    """Boolean grid: position p carries the prefix block of the given size."""
    extent = tuple(m - s + 1 for m, s in zip(grid.shape, size))
    occ = np.ones(extent, dtype=bool)
    for o in iter_box(size):
        ref = grid[o]
        window = grid[tuple(slice(c, c + e) for c, e in zip(o, extent))]
        occ &= window == ref
    return occ


def smallest_covering_window(
    grid: np.ndarray, size: Sequence[int], block_bound: int
) -> int | None:
    """Least b <= block_bound such that every size-(b,..,b) block with corner
    in [0, block_bound]^d contains the prefix block, or None.
    """
    size = tuple(size)
    d = grid.ndim
    occ = _prefix_occurrences(grid, size)
    # Padded summed-area table: sat[c] = number of occurrences below c.
    sat = occ.astype(np.int64)
    for axis in range(d):
        sat = sat.cumsum(axis=axis)
    pad = [(1, 0)] * d
    sat = np.pad(sat, pad)

    b_corners = block_bound + 1

    def covered(b: int) -> bool:
        # Occurrence corners usable by a block at corner c span, per axis,
        # [c, c + b - s + 1).
        ext = tuple(b - s + 1 for s in size)
        if min(ext) < 1:
            return False
        if any(e + b_corners > n for e, n in zip(ext, sat.shape)):
            return False
        total = np.zeros((b_corners,) * d, dtype=np.int64)
        for mask in itertools.product((0, 1), repeat=d):
            sl = tuple(
                slice(0, b_corners) if m else slice(e, e + b_corners)
                for e, m in zip(ext, mask)
            )
            sign = -1 if sum(mask) % 2 else 1
            total += sign * sat[sl]
        return bool((total > 0).all())

    lo, hi = max(size), block_bound
    if not covered(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if covered(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def check_ur_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
) -> list[URReport]:
    """Smallest hypercubic window forced to contain each small prefix."""
    budget = budget or RecurrenceBudget()
    d = w.dimension
    size_list = (
        [(m,) * d for m in range(1, budget.size_bound + 1)]
        if sizes is None
        else [tuple(s) for s in sizes]
    )
    if not size_list:
        return []
    # refused as a urd scan would refuse them: a length other than d, or a side below 1
    check_scan([(1,) + (0,) * (d - 1)], size_list, budget.block_bound)
    max_s = max(max(s) for s in size_list)
    side = 2 * budget.block_bound + max_s
    grid = sample_grid(w, (side,) * d)
    return [
        URReport(s, smallest_covering_window(grid, s, budget.block_bound))
        for s in size_list
    ]
