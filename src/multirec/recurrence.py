"""Finite-horizon recurrence scanning.

Everything here reports evidence about a budgeted window of the word, never
a claim about the infinite object: ``BOUNDED_WITNESSED`` records the largest
gap seen between occurrences (counting the tail up to the horizon), and
``NO_RECURRENCE_IN_HORIZON`` means the prefix block was only ever seen at
the start of the line.  ``GAP_EXCEEDS_CLAIM`` is reserved for scans run
against a caller-supplied bound and is always a hard failure.
"""

from __future__ import annotations

import itertools
from operator import add
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .lattice import Vector, WordSource, iter_box
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
    direction: Vector
    size: Vector
    origin: Vector
    occurrences: tuple[int, ...]
    max_gap: int | None
    verdict: str

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
    return _occurrences(w, tuple(direction), tuple(size), p0, horizon).tolist()


def _occurrences(w: WordSource, q: Vector, size: Vector, p0: Vector, horizon: int) -> np.ndarray:
    """``occurrence_indices`` as an int64 array."""
    return _unpacked(_scan(w, p0, [q], [size], 0, horizon)[0][0, 0], horizon)


# Most letters one slice of a match table reads (8 bytes of int64 each,
# plus a byte of table); a larger table is read and ANDed one slice at a
# time, cut along the multipliers, then along the directions.  Each slice
# is one letters_on_lines call: the gate alone cuts it into builder calls.
# Sweep times did not change from 2^18 to 2^21 letters, and the peak memory
# of large checks was least at 2^19; every 2x2 survey table is one slice.
_SLICE_LETTERS = 1 << 19


def _scan(w: WordSource, corner: Vector, dirs: list[Vector], sizes: list[Vector],
          origin_bound: int, horizon: int) -> list[np.ndarray]:
    """found[i][a, j]: the multipliers ell <= horizon at which the block of
    size sizes[i] at corner + origins[a] reappears along dirs[j], as a row
    of bits in ``np.packbits`` order; the origins are [0, origin_bound]^d in
    product order.

    Every line from a start in corner + [0, origin_bound + max size)^d is
    read once, into a bool match table of "letter == letter at ell = 0",
    and a block occurs where the table's views at its cells all hold.  The
    table is read in slices of at most _SLICE_LETTERS letters, each one
    letters_on_lines call taking every multiplier or a multiple of 8 of
    them (a byte of the bit rows), and every size ANDs each slice before
    the next is read.  So memory stays within a slice's letters and table
    plus one bit per (size, report, multiplier).
    """
    n = max(horizon + 1, 0)
    extent = tuple(origin_bound + max(c) for c in zip(*sizes))
    starts = list(itertools.product(*map(range, corner, map(add, corner, extent))))
    span = (origin_bound + 1,) * len(corner)
    origins = span[0] ** len(span)
    per_start = _SLICE_LETTERS // max(1, len(starts))
    per_line = per_start // len(dirs)
    nc = max(n, 1) if per_line >= n else max(8, per_line // 8 * 8)
    dc = max(1, min(len(dirs), per_start // nc))
    found = [np.zeros((origins, len(dirs), -(-n // 8)), dtype=np.uint8) for _ in sizes]
    for k in range(0, max(n, 1), nc):
        for j in range(0, len(dirs), dc):
            letters = w.letters_on_lines(starts, dirs[j:j + dc], range(k, min(k + nc, n)))
            if k == j == 0:
                ref = letters[:, :1, :1].copy()
            rows = letters.shape[1:]
            table = (letters == ref).reshape(extent + rows)
            del letters
            for bits, s in zip(found, sizes):
                mask = _and_cells(table, s, span).reshape((origins,) + rows)
                packed = np.packbits(mask, axis=-1)
                bits[:, j:j + rows[0], k // 8:k // 8 + packed.shape[-1]] = packed
    return found


def _unpacked(bits: np.ndarray, horizon: int) -> np.ndarray:
    """The multipliers ell <= horizon set in a row of bits, as int64."""
    return np.unpackbits(bits, count=max(horizon + 1, 0)).nonzero()[0]


def _and_cells(table: np.ndarray, size: Vector, origins: Vector) -> np.ndarray:
    """The AND of the table's views at every cell offset of the block."""
    views = [table[tuple(map(slice, cell, map(add, cell, origins)))]
             for cell in itertools.product(*map(range, size))]
    if len(views) < 2:
        return views[0] if views else np.ones(origins + table.shape[len(origins):], dtype=bool)
    mask = views[0] & views[1]
    for view in views[2:]:
        mask &= view
    return mask


def _claim_value(claim: Claim, size: Vector) -> int | None:
    if claim is None:
        return None
    if callable(claim):
        return claim(size)
    return claim


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
    return _report(q, s, p0, _occurrences(w, q, s, p0, horizon), horizon, claim)


def _report(q: Vector, s: Vector, p0: Vector, occ: np.ndarray, horizon: int,
            claim: Claim) -> GapReport:
    """The gap report of the occurrence multipliers occ."""
    bound = _claim_value(claim, s)
    if len(occ) < 2:
        verdict = NO_RECURRENCE_IN_HORIZON
        # A missing second occurrence refutes any claimed bound the horizon
        # can see past.
        if bound is not None and horizon >= bound:
            verdict = GAP_EXCEEDS_CLAIM
        return GapReport(q, s, p0, tuple(occ.tolist()), None, verdict)
    # consecutive gaps, then the tail up to the horizon
    max_gap = max((occ[1:] - occ[:-1]).max().item(), horizon - occ[-1].item())
    verdict = BOUNDED_WITNESSED
    if bound is not None and max_gap > bound:
        verdict = GAP_EXCEEDS_CLAIM
    return GapReport(q, s, p0, tuple(occ.tolist()), max_gap, verdict)


def _sweep(
    w: WordSource,
    budget: RecurrenceBudget | None,
    sizes: Iterable[Sequence[int]] | None,
    claim: Claim,
    origin_bound: int,
) -> Iterator[tuple[Vector, list[GapReport]]]:
    """Per block size, the reports of every origin in [0, origin_bound]^d
    (outer) along every enumerated direction (inner).  All sizes share one
    ``_scan``, so every line is read once."""
    budget = budget or RecurrenceBudget()
    d = w.dimension
    size_list = (
        enumerate_sizes(d, budget.size_bound)
        if sizes is None
        else [tuple(s) for s in sizes]
    )
    if not size_list:
        return
    dirs = enumerate_directions(d, budget.direction_bound)
    reports = list(itertools.product(itertools.product(range(origin_bound + 1), repeat=d), dirs))
    found = _scan(w, (0,) * d, dirs, size_list, origin_bound, budget.horizon)
    for s, bits in zip(size_list, found):
        yield s, [
            _report(q, s, p, _unpacked(row, budget.horizon), budget.horizon, claim)
            for (p, q), row in zip(reports, bits.reshape(-1, bits.shape[-1]))
        ]


def _severity(r: GapReport) -> tuple[int, int]:
    """A broken claim outranks a missing recurrence, which outranks any gap."""
    if r.verdict == GAP_EXCEEDS_CLAIM:
        return (2, 0)
    if r.max_gap is None:
        return (1, 0)
    return (0, r.max_gap)


def _summarize(size: Vector, reports: list[GapReport]) -> SizeSummary:
    """The first of the worst reports; its verdict is the family's."""
    gaps = [r.max_gap for r in reports]
    worst = max(reports, key=_severity)
    return SizeSummary(size, None if None in gaps else max(gaps), worst, worst.verdict)


def check_urd_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
    claim: Claim = None,
) -> list[GapReport]:
    """One report per (direction, size) pair, origin fixed at zero."""
    return [r for _, reports in _sweep(w, budget, sizes, claim, 0) for r in reports]


def check_surd_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
    claim: Claim = None,
) -> list[SizeSummary]:
    """Per size, the sup of gaps over all directions (origin zero)."""
    return [_summarize(s, reports) for s, reports in _sweep(w, budget, sizes, claim, 0)]


def check_ssurdo_empirical(
    w: WordSource,
    budget: RecurrenceBudget | None = None,
    sizes: Iterable[Sequence[int]] | None = None,
    claim: Claim = None,
) -> list[SizeSummary]:
    """Per size, the sup of gaps over directions and origins."""
    budget = budget or RecurrenceBudget()
    sweep = _sweep(w, budget, sizes, claim, budget.origin_bound)
    return [_summarize(s, reports) for s, reports in sweep]


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
    max_s = max(max(s) for s in size_list)
    side = 2 * budget.block_bound + max_s
    grid = sample_grid(w, (side,) * d)
    return [
        URReport(s, smallest_covering_window(grid, s, budget.block_bound))
        for s in size_list
    ]
