"""Word sources: constant-size morphic fixed points (Thue-Morse and two
Toeplitz words among them), classical unidimensional words, the
gcd-placement word and Toeplitz-style periodic fillings.  Morphic fixed
points have two digit walks, one per letter and one per line (see
Morphism); the line walk reads a long line through the lines of its high
digits, one table gather per letter, and a short one m digits per table
lookup into the images of phi^m, built for every letter by squaring.
``Morphism.iterate`` substitutes one level at a time and walks no digits,
so it is a reference for the table and both walks.  ``named_word`` builds
each word of ``WORD_NAMES`` from its name.  Line builders are plain
numpy kernels over paired lines (row i of an (L, n) array holds the
letters at starts[i] + ell * steps[i]): ``WordSource.letters_on_lines``
hands them only nonempty lines inside N^d below its 2^62 reach, in calls of
at most 2^14 letters, and reads every other line pointwise."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import ConstructionBug, InvalidInput, NotProlongable
from .lattice import FiniteWord, Vector, WordSource
from .rotation import sturmian_spec


def _uint64_line(letters_of):
    """The line builder that hands letters_of the lines' coordinates, per
    axis the (L, n) uint64 array of starts[i] + ells[k] * steps[i]."""
    return lambda starts, steps, ells: letters_of(
        *[(s[:, None] + t[:, None] * ells).astype(np.uint64) for s, t in zip(starts.T, steps.T)])


# ---------------------------------------------------------------------------
# morphisms


# Most cells of phi^m(b) the line walk's table holds per letter.
_TABLE_CELLS = 1 << 12
# Lines of at least this many blocks of B multipliers are read through
# their high lines; shorter ones chunk by chunk.  At 8 blocks, derive on a
# 12x8 box (lines of 513 multipliers) ran 15-43% slower than at 16.
_WALK_BLOCKS = 16


def _expand(grid: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Each letter of an (L, y_d, ..., y_1) grid replaced by its block in a
    (k, z_d, ..., z_1) array (C order is FiniteWord order): the gather
    appends block axes, the transpose pairs them, the reshape merges them."""
    order = [0, *(i for a in range(1, grid.ndim) for i in (a, a + grid.ndim - 1))]
    shape = [len(grid), *(y * z for y, z in zip(grid.shape[1:], blocks.shape[1:]))]
    return blocks[grid].transpose(order).reshape(shape)


def _ndigits(n: int, base: int) -> int:
    count = 0
    while n:
        n //= base
        count += 1
    return count


@dataclass(frozen=True)
class Morphism:
    """A constant-size substitution over the alphabet {0, ..., k-1}.

    Every letter maps to a block of the same size (s_1, ..., s_d); square
    morphisms have all s_j equal.  The images are the one field: a
    morphism is frozen, equal to and hashed as its images, and everything
    else is derived from them.  Fixed points are read digit by digit
    (mixed radix s_j, most significant first) by two walks: the pure-Python
    ``letter_in_fixed_point``, exact at any coordinate size, for single
    letters and as the tests' reference; and the numpy ``_walk`` for whole
    lines below 2^62.

    A fixed point of phi is also one of phi^m, so the line walk reads m
    base-s_j digits as one base-s_j^m digit, from a flat table of the
    images phi^m(b), with m the largest such that phi^m(b) has at most
    ``_TABLE_CELLS`` cells (m = 6 for 2x2, 3 for 3x3, 12 for a 1-D s = 2).
    The table (the cached ``_chunk_table``) is built at the first line
    read, for every letter at once by squaring.  A line spanning at least
    ``_WALK_BLOCKS`` blocks of B = lcm(s_j^m) multipliers reads every letter
    with one gather from the letters of a few lines B times shorter, those
    of its high digits (see ``_walk``); shorter lines take one gather per m
    digits (``_chunk_walk``).
    """

    images: tuple[FiniteWord, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if not images:
            raise ValueError("morphism needs at least one image")
        dims = images[0].size
        k = len(images)
        for img in images:
            if img.size != dims:
                raise ValueError(f"image sizes differ: {img.size} vs {dims}")
            if any(not 0 <= c < k for c in img.cells):
                raise ValueError("image letter outside alphabet")
        object.__setattr__(self, "images", images)

    @property
    def dims(self) -> Vector:
        return self.images[0].size

    @property
    def alphabet_size(self) -> int:
        return len(self.images)

    @property
    def dimension(self) -> int:
        return len(self.dims)

    @property
    def is_square(self) -> bool:
        return len(set(self.dims)) == 1

    @property
    def expansion(self) -> int:
        if not self.is_square:
            raise ValueError(f"not a square morphism: size {self.dims}")
        return self.dims[0]

    def image(self, b: int) -> FiniteWord:
        return self.images[b]

    def _check_letter(self, a: int) -> None:
        if not 0 <= a < len(self.images):
            raise InvalidInput(f"letter {a} is outside the alphabet 0..{len(self.images) - 1}")

    def is_prolongable(self, a: int) -> bool:
        self._check_letter(a)
        return self.images[a].cells[0] == a

    def letter_in_fixed_point(self, a: int, p: Sequence[int]) -> int:
        if not self.is_prolongable(a):
            raise NotProlongable(f"image of {a} does not start with {a}")
        images = self.images
        dims = self.dims
        offsets = []
        p = tuple(p)
        while any(p):
            off = 0
            stride = 1
            nxt = []
            for c, s in zip(p, dims):
                off += (c % s) * stride
                stride *= s
                nxt.append(c // s)
            offsets.append(off)
            p = nxt
        letter = a
        for off in reversed(offsets):
            letter = images[letter].cells[off]
        return letter

    def iterate(self, b: int, n: int) -> FiniteWord:
        """The n-th image of the letter b, a block of size (s_1^n, ..., s_d^n).
        Does not require prolongability.  Substitutes one level at a time and
        reads no table: the reference for the table and both walks."""
        if n < 0:
            raise ValueError("negative iteration depth")
        self._check_letter(b)
        images = self._powers(1)
        grid = np.full((1,) * (self.dimension + 1), b, dtype=np.int64)
        for _ in range(n):
            grid = _expand(grid, images)
        return FiniteWord(tuple(s ** n for s in self.dims), grid.ravel().tolist())

    def _powers(self, n: int) -> np.ndarray:
        """phi^n of every letter, n >= 1, as a (k, s_d^n, ..., s_1^n) int64
        grid, by squaring along the bits of n after the leading one: phi^6
        is phi^3 squared and phi^3 is phi squared times phi, 3 gathers in all."""
        cells = [img.cells for img in self.images]
        grid = phi = np.array(cells, dtype=np.int64).reshape(-1, *self.dims[::-1])
        for bit in bin(n)[3:]:
            grid = _expand(grid, grid)
            if bit == "1":
                grid = _expand(grid, phi)
        return grid

    @cached_property
    def _chunk_table(self) -> tuple[int, np.ndarray, list[int], int]:
        """(m, table, radices, B): table[b * cells + off] is the letter of
        phi^m(b) at mixed-radix offset off (first coordinate fastest),
        stored in the smallest unsigned dtype that holds the alphabet; the
        radices are r_j = s_j^m, cells their product and B their lcm."""
        cells = math.prod(self.dims)
        m = 1
        while cells > 1 and cells ** (m + 1) <= _TABLE_CELLS:
            m += 1
        table = self._powers(m).ravel().astype(np.min_scalar_type(self.alphabet_size - 1))
        radices = [s ** m for s in self.dims]
        return m, table, radices, math.lcm(*radices)

    def power(self, i: int) -> "Morphism":
        """The morphism b -> iterate(b, i), of size (s_1^i, ..., s_d^i)."""
        if i < 1:
            raise ValueError("power must be >= 1")
        return Morphism([FiniteWord(g.shape[::-1], g.ravel().tolist()) for g in self._powers(i)])

    def fixed_point(self, a: int, name: str | None = None) -> WordSource:
        # A side of 1 never shrinks a coordinate, so the digit walks would
        # not end; such a fixed point does not fill N^d anyway.
        if min(self.dims) < 2:
            raise ValueError(f"fixed points need every side >= 2, got size {self.dims}")
        if not self.is_prolongable(a):
            raise NotProlongable(f"image of {a} does not start with {a}")
        return WordSource(self.dimension, self.alphabet_size,
                          lambda p: self.letter_in_fixed_point(a, p),
                          line_builder=lambda starts, steps, ells: self._walk(
                              a, starts, steps, ells).astype(np.int64),
                          name=name or f"fixedpoint({a})")

    def _walk(self, a: int, starts: np.ndarray, steps: np.ndarray,
              ells: np.ndarray) -> np.ndarray:
        """Letters at starts[i] + ells[k] * steps[i] for (L, d) starts and
        steps, as an (L, n) array of the table's dtype.

        With r_j = s_j^m and B = lcm(r_j), write ell = h*B + t, t < B.  The
        point p = start + ell*step has low part p mod r = (start + t*step)
        mod r and high part floor(p / r) = floor((start + t*step) / r) +
        h * step * (B / r), so its letter is phi^m(b)[p mod r] with b read
        on a high line.  Along one line the high starts only change where
        some axis crosses a multiple of r_j, so the B values of t meet at
        most 1 + sum(step_j * B / r_j) distinct high lines, each B times
        shorter, and every letter costs a few gathers.  The high lines are
        read by the same walk.  Lines of fewer than ``_WALK_BLOCKS`` * B
        multipliers, spanning fewer than ``_WALK_BLOCKS`` blocks of B, or
        reading fewer than half of the multipliers they span, are read chunk
        by chunk instead.
        """
        _, table, radices, block = self._chunk_table
        if len(ells) < _WALK_BLOCKS * block:
            return self._chunk_walk(a, starts, steps, ells)
        first, last = ells.min().item() // block, ells.max().item() // block
        span = last - first + 1
        if span < _WALK_BLOCKS or span * block > 2 * len(ells):
            return self._chunk_walk(a, starts, steps, ells)
        # Each line at ell = first*B + t for t < B.  The walk reads up to
        # ell = (last + 1)*B - 1, past max(ells) >= 15*B by less than B, so
        # every coordinate stays below 16/15 of the gate's 2^62.
        starts = starts + steps * (first * block)
        t = np.arange(block)
        highs = []
        stride = 1
        for axis, r in enumerate(radices):
            pos = starts[:, axis, None] + steps[:, axis, None] * t
            high = pos // r
            low = pos - high * r
            moved = high[:, 1:] != high[:, :-1]
            off = low if axis == 0 else off + low * stride
            changed = moved if axis == 0 else changed | moved
            highs.append(high)
            stride *= r
        new = np.ones(off.shape, dtype=bool)
        new[:, 1:] = changed
        below = self._walk(a, np.stack([high[new] for high in highs], axis=1),
                           np.repeat(steps * (block // np.array(radices)), new.sum(axis=1), axis=0),
                           np.arange(span))
        # Line i's letter at ell = (first + h)*B + t is phi^m(b)[off[i, t]]
        # with b = below[group[i, t], h]: one row gather, one add, one table
        # gather.  The int64 product keeps a uint8 letter times a large cell
        # count from wrapping under any numpy promotion rules.
        group = np.cumsum(new).reshape(new.shape) - 1
        base = np.multiply(below, math.prod(radices), dtype=np.int64)
        index = np.add(np.take(base, group, axis=0).transpose(0, 2, 1), off[:, None, :])
        letters = np.take(table, index).reshape(len(starts), span * block)
        return np.take(letters, ells - first * block, axis=1)

    def _chunk_walk(self, a: int, starts: np.ndarray, steps: np.ndarray,
                    ells: np.ndarray) -> np.ndarray:
        """``_walk`` digit by digit: leading zero digits map a to a
        (prolongability), so every position is padded to the depth of the
        largest coordinate and the walk runs as one table gather per chunk
        of m digits over all lines, most significant chunk first."""
        _, table, radices, _ = self._chunk_table
        cells = math.prod(radices)
        top = (starts + steps * ells.max()).max().item()
        # Chunk offsets into phi^m(b), least significant chunk first.
        # Floor division by a scalar is much faster than numpy's % or
        # divmod, so each digit is c - (c // r) * r.
        coords = [starts[:, j, None] + steps[:, j, None] * ells for j in range(len(radices))]
        offsets = []
        for _ in range(max(1, *(_ndigits(top, r) for r in radices))):
            stride = 1
            for axis, r in enumerate(radices):
                c = coords[axis]
                coords[axis] = c // r
                digit = c - coords[axis] * r
                off = digit if axis == 0 else off + digit * stride
                stride *= r
            offsets.append(off)
        index = a * cells
        for off in reversed(offsets):
            letters = table[index + off]
            # The int64 product keeps a uint8 letter times a large cell
            # count from wrapping under any numpy promotion rules.
            index = np.multiply(letters, cells, dtype=np.int64)
        return letters

    def __repr__(self) -> str:
        shape = "x".join(map(str, self.dims))
        return f"Morphism(k={self.alphabet_size}, {shape})"


def _integer(value) -> int:
    """The value, if a JSON integer: int() would truncate a float and read
    a numeric string or a bool."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def morphism_from_json(data) -> Morphism:
    """The morphism of a parsed morphism file, an object {"k": k, "dims":
    [s_1, ...], "images": {"0": nested list, ...}}: a missing or malformed
    field raises InvalidInput naming it."""
    if not isinstance(data, dict):
        raise InvalidInput("the morphism file is not an object with 'k', 'dims' and 'images'")
    what = "'k'"
    try:
        k = _integer(data["k"])
        what = "'dims'"
        dims = tuple(map(_integer, data["dims"]))
        what = "'images'"
        nested = data["images"]
        if not isinstance(nested, dict):
            raise TypeError("images are keyed by letter")
        images = []
        for b in range(k):
            what = f"image of letter {b}"
            images.append(FiniteWord.from_nested(nested[str(b)]))
            list(map(_integer, np.array(nested[str(b)], dtype=object).ravel()))
    except KeyError:
        raise InvalidInput(f"the morphism file has no {what}") from None
    except (TypeError, ValueError):
        raise InvalidInput(f"the morphism file has a malformed {what}") from None
    for b, img in enumerate(images):
        if img.size != dims:
            raise ValueError(f"image of {b} has size {img.size}, declared {dims}")
    return Morphism(images)


PRESET_NAMES = ("preimage-3x2", "sierpinski", "ssurdo-3x3",
                "surd-not-ssurdo-2x2", "suffnotnec-3x3", "power-3x3")


def load_preset(name: str) -> Morphism:
    if name not in PRESET_NAMES:
        raise KeyError(f"unknown preset {name!r}; have {', '.join(PRESET_NAMES)}")
    text = resources.files("multirec.presets").joinpath(f"{name}.json").read_text("utf-8")
    return morphism_from_json(json.loads(text))


def preset_word(name: str, a: int = 1) -> WordSource:
    return load_preset(name).fixed_point(a, name=name)


# ---------------------------------------------------------------------------
# classical unidimensional words


def thue_morse(n: int) -> int:
    """Parity of the binary digit sum of n."""
    return n.bit_count() & 1


def thue_morse_word() -> WordSource:
    """The fixed point of 0 under 0 -> 01, 1 -> 10: letter n is thue_morse(n)."""
    images = [FiniteWord((2,), (0, 1)), FiniteWord((2,), (1, 0))]
    return Morphism(images).fixed_point(0, name="thue-morse")


def fibonacci_word(n: int) -> int:
    """n-th letter of the fixed point of 0 -> 01, 1 -> 0: the Sturmian
    g(n + 2) - g(n + 1) with g(k) = floor(k (3 - sqrt 5) / 2), in integers."""
    g = lambda k: (3 * k - math.isqrt(5 * k * k) - 1) // 2
    return g(n + 2) - g(n + 1)


def gcd_word(u: WordSource, d: int) -> WordSource:
    """w(i) = u(gcd(i_1, ..., i_d)); the zero vector maps to u(0)."""
    if u.dimension != 1:
        raise ValueError("gcd placement needs a unidimensional word")
    ev = lambda p: u.letter((math.gcd(*p),))

    def letters_of(*coords: np.ndarray) -> np.ndarray:
        # One read of u at the distinct gcds; numpy 1.x flattens the inverse.
        gcds, inverse = np.unique(np.gcd.reduce(np.stack(coords)), return_inverse=True)
        return u.letters_along((0,), (1,), gcds)[inverse].reshape(coords[0].shape)

    return WordSource(d, u.alphabet_size, ev, line_builder=_uint64_line(letters_of),
                      name=f"gcd[{u.name}]")


# ---------------------------------------------------------------------------
# the two row-built counterexample words


def fib_rows_word() -> WordSource:
    """Rows alternate 1F, 0F where F is the Fibonacci word: URD rows and
    columns, yet the prefix with a lone 1 at the origin recurs only in the
    first column."""

    def ev(p: Vector) -> int:
        x, y = p
        if x == 0:
            return 1 - (y & 1)
        return fibonacci_word(x - 1)

    return WordSource(2, 2, ev, name="fib-rows")


def toeplitz_rows_word() -> WordSource:
    """Row 0 is 1 0^omega; row n >= 1 repeats 1 0^(2^k - 1) with k the 2-adic
    valuation of n.  UR, although row 0 is not recurrent.  It is the fixed
    point of 1 under b -> (b, 0, 1, 1), bottom row first: odd rows have
    k = 0, so top rows are all 1, and row 2y has valuation v(y) + 1 (or is
    row 0), so its letter at 2x is row y's at x and at 2x + 1 it is 0."""
    images = [FiniteWord((2, 2), (b, 0, 1, 1)) for b in (0, 1)]
    return Morphism(images).fixed_point(1, name="toeplitz-rows")


# ---------------------------------------------------------------------------
# Toeplitz-style filling


def _mix64(*values: int | np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer folded over the inputs, elementwise over uint64
    arrays (ints are reduced mod 2^64); stateless and stable.  Works in
    place, on one array of the broadcast shape and one scratch array."""
    golden = np.uint64(0x9E3779B97F4A7C15)
    values = [np.uint64(v & 0xFFFFFFFFFFFFFFFF) if isinstance(v, int) else v for v in values]
    h = np.full(np.broadcast_shapes(*map(np.shape, values)), golden)
    shifted = np.empty_like(h)
    for v in values:
        h += v
        h += golden
        for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            h ^= np.right_shift(h, np.uint64(shift), out=shifted)
            h *= np.uint64(multiplier)
        h ^= np.right_shift(h, np.uint64(31), out=shifted)
    return h


CONSTANT = "constant"
SEEDED_RANDOM = "random"


@dataclass(frozen=True)
class ToeplitzSchedule:
    """The step-by-step periodic filling.

    Step 0 writes 1 on the even sublattice; step 1 fills the residues
    (0,1), (1,0), (1,1) modulo 4; step n >= 2 fills every cell of
    [0, 2^(n+1))^2 still unassigned and repeats it with period 2^(n+2).
    Steps n >= 1 write 0 under CONSTANT and, under SEEDED_RANDOM, a hash
    of the seed, n and the class's anchor (the cell modulo the period).
    In closed form, with o = x | y for the cell (x, y): n = 0 when o is
    even, n = 1 when bit 1 of o is 0, else the least n >= 2 whose bit
    n + 1 of o is 0.  ``letter`` evaluates it on ints of any size,
    ``_letters`` on uint64 arrays; ``materialize`` runs the construction.
    """

    policy: str = CONSTANT
    seed: int = 0
    alphabet_size: int = 2

    def __post_init__(self):
        if self.policy not in (CONSTANT, SEEDED_RANDOM):
            raise ValueError(f"unknown fill policy {self.policy!r}")
        if self.alphabet_size < 2:
            raise ValueError("a Toeplitz filling needs at least the letters 0 and 1")

    def _choice(self, step, x, y) -> np.ndarray:
        """The letters filled at the given steps into the classes anchored
        at (x, y), as int64: ints, or uint64 arrays of x's shape."""
        if self.policy == CONSTANT:
            return np.zeros(np.shape(x), dtype=np.int64)
        mixed = _mix64(self.seed, step, x, y)
        mixed %= np.uint64(self.alphabet_size)
        return mixed.astype(np.int64)

    def letter(self, p: Sequence[int]) -> int:
        x, y = p
        o = x | y
        if not o & 1:
            return 1
        if not o & 2:
            step, period = 1, 4
        else:
            clear = ~o >> 3  # bit j set: bit j + 3 of o is 0
            lowest = clear & -clear
            step, period = lowest.bit_length() + 1, lowest << 4
        return self._choice(step, x & (period - 1), y & (period - 1)).item()

    def _letters(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``letter`` on uint64 coordinate arrays below 2^62."""
        zero, one = np.uint64(0), np.uint64(1)
        o = x | y
        clear = np.invert(o)
        clear >>= np.uint64(3)  # never 0: bits 59 and 60 are set
        lowest = np.invert(clear)
        lowest += one
        lowest &= clear
        # lowest = 2^(step - 2), whose frexp exponent is step - 1.
        step = np.frexp(lowest.astype(np.float64))[1].astype(np.uint64)
        step += one
        mask = lowest  # the period 2^(step + 2), less one
        mask <<= np.uint64(4)
        first = (o & np.uint64(2)) == zero
        step[first] = one
        mask[first] = np.uint64(4)
        mask -= one
        letters = self._choice(step, x & mask, np.bitwise_and(y, mask, out=mask))
        letters[(o & one) == zero] = 1
        return letters

    def materialize(self, steps: int) -> dict[Vector, int]:
        """Run the construction eagerly for the given number of steps and
        return the fully assigned box [0, 2^(steps+1))^2.  Double assignment
        of a cell raises ConstructionBug (the classes are disjoint by
        construction, so this must never fire).

        Step n fills the unassigned cells of [0, box)^2 with period
        2 * box: box is 1 at step 0, 2 at step 1 and 2^(n+1) after."""
        side = 1 << (steps + 1)
        grid = np.full((side, side), -1, dtype=np.int64)
        for n in range(steps + 1):
            box = 1 << (n + (n >= 2))
            xs, ys = np.nonzero(grid[:box, :box] < 0)
            letters = self._choice(n, xs.astype(np.uint64), ys.astype(np.uint64)).tolist() if n else [1]
            for x, y, letter in zip(xs.tolist(), ys.tolist(), letters):
                cls = grid[x::2 * box, y::2 * box]
                if (cls >= 0).any():
                    raise ConstructionBug(f"class of cell {(x, y)} assigned twice")
                cls[...] = letter
        if (grid < 0).any():
            raise ConstructionBug(f"{(grid < 0).sum()} cells unassigned after step {steps}")
        return {(x, y): c for x, column in enumerate(grid.tolist()) for y, c in enumerate(column)}


def toeplitz_construct(schedule: ToeplitzSchedule) -> WordSource:
    return WordSource(2, schedule.alphabet_size, schedule.letter,
                      line_builder=_uint64_line(schedule._letters),
                      name=f"toeplitz[{schedule.policy},seed={schedule.seed}]")


# ---------------------------------------------------------------------------
# named words


# The words of ``named_word``, by name: each builds from a seed, which only
# the random Toeplitz filling reads.
_WORDS = {
    **{name: (lambda seed, name=name: preset_word(name)) for name in PRESET_NAMES},
    "fib-rows": lambda seed: fib_rows_word(),
    "gcd-thue-morse": lambda seed: gcd_word(thue_morse_word(), 2),
    "sturmian": lambda seed: sturmian_spec().word(),
    "thue-morse": lambda seed: thue_morse_word(),
    # The CONSTANT Toeplitz filling is 1 exactly where x | y is even, i.e.
    # p = 0 mod 2: the fixed point of 1 under b -> (1, 0, 0, 0).
    "toeplitz-constant": lambda seed: Morphism([FiniteWord((2, 2), (1, 0, 0, 0))] * 2).fixed_point(
        1, name="toeplitz[constant,seed=0]"),
    "toeplitz-random": lambda seed: toeplitz_construct(ToeplitzSchedule(SEEDED_RANDOM, seed=seed)),
    "toeplitz-rows": lambda seed: toeplitz_rows_word(),
}
# The presets (their fixed points of 1), then the classical words.
WORD_NAMES = tuple(_WORDS)


def named_word(name: str, seed: int = 0) -> WordSource:
    """The word that a name in ``WORD_NAMES`` stands for."""
    if name not in _WORDS:
        raise InvalidInput(f"unknown word {name!r}; have {', '.join(WORD_NAMES)}")
    return _WORDS[name](seed)
