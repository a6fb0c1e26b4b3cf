"""Exact recurrence conditions for fixed points of constant-size morphisms.

The checks in this module are statements about the morphism itself (letter
placement inside the images), not about a scanned prefix of the fixed
point.  Where a condition comes with a provable gap bound, the bound is
exposed so scans can be run against it; where it implies non-recurrence,
the implied pattern is cross-checked on the actual word and any mismatch
is treated as an internal bug.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CompositeSize,
    ConstructionBug,
    InvalidInput,
    NotApplicable,
    NotProlongable,
)
from .generators import Morphism, load_preset, thue_morse
from .lattice import FiniteWord, Vector, iter_box, normalize_direction
from .recurrence import RecurrenceBudget, check_urd_empirical, occurrence_indices, sample_grid
from .residues import family_c

SURD = "SURD"
NOT_SURD = "NOT_SURD"

ZERO_TAIL = "zero-tail"
ZERO_RANGE = "zero-range"

# A ZERO_RANGE witness reads 2**param - 1 letters; larger params are refused.
_MAX_WITNESS_PARAM = 16


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds: bool
    witness: object = None


def ceil_log(base: int, x: int) -> int:
    """Smallest e >= 0 with base**e >= x, by exact integer search."""
    if base < 2 or x < 1:
        raise InvalidInput(f"ceil_log needs base >= 2 and x >= 1, got {base}, {x}")
    e = 0
    power = 1
    while power < x:
        power *= base
        e += 1
    return e


def _require_square_prolongable(phi: Morphism, a: int) -> int:
    if not phi.is_square:
        raise InvalidInput(f"expected a square morphism, got size {phi.dims}")
    if not phi.is_prolongable(a):
        raise NotProlongable(f"morphism is not prolongable on letter {a}")
    return phi.expansion


def _require_prime(phi: Morphism, a: int) -> int:
    s = _require_square_prolongable(phi, a)
    if s < 2 or any(s % f == 0 for f in range(2, math.isqrt(s) + 1)):
        raise CompositeSize(f"size {s} is not prime")
    return s


def reduction_claim(phi: Morphism, size: Vector, letter_bound: int) -> int:
    """Gap bound s**ceil_log(s, max(size)) * letter_bound for blocks of
    the given size, from a gap bound on single letters."""
    s = phi.expansion
    return s ** ceil_log(s, max(size)) * letter_bound


def main_morphic_claim(phi: Morphism, size: Vector) -> int:
    """Gap bound s**(ceil_log(s, max(size)) + 1) for blocks of the given
    size when the subgroup condition holds; ``partial(main_morphic_claim,
    phi)`` is a scan claim."""
    return reduction_claim(phi, size, phi.expansion)


def check_main_morphic(phi: Morphism, a: int) -> ConditionVerdict:
    """Every cyclic residue subgroup must contain a position where all
    images simultaneously carry the letter.

    On success the witness maps each subgroup generator to one such
    position; on failure it is the generator of the first subgroup with no
    common position.
    """
    s = _require_square_prolongable(phi, a)
    letters = range(phi.alphabet_size)
    chosen: dict[Vector, Vector] = {}
    for sub in family_c(s, phi.dimension).subgroups:
        common = next(
            (
                i
                for i in sub.sorted_elements()
                if all(phi.image(b)[i] == a for b in letters)
            ),
            None,
        )
        if common is None:
            return ConditionVerdict("main-morphic", False, sub.generator)
        chosen[sub.generator] = common
    return ConditionVerdict("main-morphic", True, chosen)


def check_cor1(phi: Morphism, a: int) -> ConditionVerdict:
    """All images carry the letter at the origin."""
    if not phi.is_square:
        raise InvalidInput(f"expected a square morphism, got size {phi.dims}")
    origin = (0,) * phi.dimension
    for b in range(phi.alphabet_size):
        if phi.image(b)[origin] != a:
            return ConditionVerdict("origin-letter", False, b)
    return ConditionVerdict("origin-letter", True)


def check_power(psi: Morphism, a: int, i: int) -> ConditionVerdict:
    """Run the subgroup condition on the i-th power of the morphism."""
    if i < 1:
        raise InvalidInput(f"power must be >= 1, got {i}")
    _require_square_prolongable(psi, a)
    inner = check_main_morphic(psi.power(i), a)
    return ConditionVerdict(f"power-{i}", inner.holds, inner.witness)


def check_hyperplane(phi: Morphism, a: int) -> ConditionVerdict:
    """Image of the letter is all-a on the hyperplane x1 = 0, and some
    hyperplane x1 = i1 is all-a in every image.

    Witness: the found i1 on success, the first bad cell of the x1 = 0
    hyperplane on that failure mode.
    """
    s = _require_prime(phi, a)
    d = phi.dimension
    rest = list(itertools.product(range(s), repeat=d - 1))
    for tail in rest:
        pos = (0, *tail)
        if phi.image(a)[pos] != a:
            return ConditionVerdict("hyperplane", False, pos)
    letters = range(phi.alphabet_size)
    for i1 in range(s):
        if all(phi.image(b)[(i1, *tail)] == a for b in letters for tail in rest):
            return ConditionVerdict("hyperplane", True, i1)
    return ConditionVerdict("hyperplane", False)


def check_non_recurrent_direction(
    phi: Morphism, a: int, q: Vector, horizon: int = 500
) -> ConditionVerdict:
    """No image carries the letter on the subgroup generated by q mod s,
    apart from the forced occurrence at the origin of the letter's own
    image.

    When the condition holds, the line along q is additionally scanned up
    to the horizon; a repeat occurrence there would contradict it and
    raises ConstructionBug.
    """
    s = _require_prime(phi, a)
    q = normalize_direction(q)
    if len(q) != phi.dimension:
        raise InvalidInput(f"direction {q} has wrong dimension")
    r = tuple(c % s for c in q)
    elements = {tuple(k * c % s for c in r) for k in range(s)}
    origin = (0,) * phi.dimension
    for b in range(phi.alphabet_size):
        for i in sorted(elements):
            if b == a and i == origin:
                continue
            if phi.image(b)[i] == a:
                return ConditionVerdict("non-recurrent-direction", False, (b, i))
    occurrences = occurrence_indices(phi.fixed_point(a), q, (1,) * len(q), horizon=horizon)
    if len(occurrences) > 1:
        raise ConstructionBug(
            f"letter {a} reappeared at {occurrences[1]} * {q} despite the condition"
        )
    return ConditionVerdict("non-recurrent-direction", True)


def _check_2x2(phi: Morphism) -> None:
    if phi.alphabet_size != 2:
        raise InvalidInput(f"expected a binary morphism, got {phi.alphabet_size} letters")
    if phi.dims != (2, 2):
        raise InvalidInput(f"expected size (2, 2), got {phi.dims}")
    if phi.image(1)[(0, 0)] != 1:
        raise InvalidInput("expected a morphism prolongable on 1")


def classify_2x2(phi: Morphism) -> str:
    """Binary size-2 fixed points over letter 1 split cleanly: recurrence
    in every direction holds exactly when 0's image keeps 1 at the origin
    or 1's image is all ones.
    """
    _check_2x2(phi)
    if phi.image(0)[(0, 0)] == 1:
        return SURD
    if all(phi.image(1)[p] == 1 for p in iter_box((2, 2))):
        return SURD
    return NOT_SURD


# The zero-range direction families of the proof, by case: whether the
# parameter n must be odd, and the direction for n.
_FAMILIES = {
    "case-1": (True, lambda n: ((1 << 2 * n) * ((1 << n) - 1), (1 << n) + 1)),
    "case-2": (True, lambda n: (1, ((1 << n) - 1) << n)),
    "case-2-symm": (True, lambda n: (((1 << n) - 1) << n, 1)),
    "case-3.1": (True, lambda n: ((1 << n) + 1, (1 << 2 * n) * ((1 << n) - 1) + (1 << n) + 1)),
    "case-3.1-symm": (True, lambda n: ((1 << 2 * n) * ((1 << n) - 1) + (1 << n) + 1, (1 << n) + 1)),
    "case-4": (False, lambda n: ((1 << n) - 1, 1)),
}


@dataclass(frozen=True)
class Witness2x2:
    """A direction along which the fixed point provably fails to recur:
    one fixed direction, or a family of directions by parameter.

    ZERO_TAIL, a fixed direction: the line reads 1 0 0 0 ... (every
    positive multiplier is 0).
    ZERO_RANGE, a family: multipliers 1 .. 2**param - 1 all read 0.
    Methods ignore the parameter of a fixed direction.
    """

    case: str
    fixed_direction: Vector | None = None

    @property
    def pattern(self) -> str:
        return ZERO_RANGE if self.fixed_direction is None else ZERO_TAIL

    def direction(self, param: int | None = None) -> Vector:
        if self.fixed_direction is not None:
            return self.fixed_direction
        if param is None or param < 1:
            raise InvalidInput(f"case {self.case} needs a positive parameter")
        odd, family = _FAMILIES[self.case]
        if odd and param % 2 == 0:
            raise InvalidInput(f"case {self.case} needs an odd parameter")
        return family(param)

    def zero_multipliers(self, param: int | None = None, horizon: int = 64) -> range:
        if self.fixed_direction is not None:
            return range(1, horizon + 1)
        if param is None:
            raise InvalidInput(f"case {self.case} needs a parameter")
        _check_param(param)
        return range(1, (1 << param))

    def verify(self, phi: Morphism, param: int | None = None, horizon: int = 64) -> bool:
        q = self.direction(param)
        line = phi.fixed_point(1).letters_along(
            (0,) * len(q), q, self.zero_multipliers(param, horizon))
        return not line.any()


def _check_param(param: int) -> None:
    if param > _MAX_WITNESS_PARAM:
        raise InvalidInput(f"witness parameter {param} is above the limit of {_MAX_WITNESS_PARAM}")


def non_surd_2x2_witness(phi: Morphism) -> Witness2x2:
    """Match a non-recurrent binary size-2 morphism against the proof's
    decision tree and return its witness direction family.

    The tree branches on the value pairs (image-of-1 cell, image-of-0
    cell) at the three non-origin positions; a pair (0, 0) anywhere gives
    the trivial all-zero line above the origin before the tree is
    consulted.  Mirror-image branches reuse the transposed direction.
    """
    if classify_2x2(phi) == SURD:
        raise NotApplicable("the fixed point recurs in every direction")

    def pair(pos: Vector) -> tuple[int, int]:
        return (phi.image(1)[pos], phi.image(0)[pos])

    for pos in ((0, 1), (1, 0), (1, 1)):
        if pair(pos) == (0, 0):
            return Witness2x2("trivial", pos)

    p01, p10, p11 = pair((0, 1)), pair((1, 0)), pair((1, 1))
    if p01 == (0, 1):
        if p10 == (0, 1):
            return Witness2x2("case-1")
        if p10 == (1, 0):
            return Witness2x2("case-2")
        if p11 == (0, 1):
            return Witness2x2("case-3.1")
        return Witness2x2("case-3.2", (2, 1))
    if p01 == (1, 0):
        if p10 == (0, 1):
            return Witness2x2("case-2-symm")
        return Witness2x2("case-4")
    if p10 == (0, 1):
        if p11 == (0, 1):
            return Witness2x2("case-3.1-symm")
        return Witness2x2("case-3.2-symm", (1, 2))
    return Witness2x2("case-4")


def thue_lemma_tm1(ell: int) -> bool:
    """With d = 2**ell - 1, positions d, 2d, ..., 2**ell * d all carry the
    same bit, which is 1 exactly for odd ell.
    """
    if ell < 1:
        raise InvalidInput(f"need ell >= 1, got {ell}")
    d = (1 << ell) - 1
    values = {thue_morse(m * d) for m in range(1, (1 << ell) + 1)}
    expected = 1 if ell % 2 else 0
    return values == {expected}


def thue_lemma_tm0(ell: int) -> bool:
    """With d = 2**ell + 1, positions 0, d, ..., 2**ell * d all carry 0."""
    if ell < 1:
        raise InvalidInput(f"need ell >= 1, got {ell}")
    d = (1 << ell) + 1
    return all(thue_morse(m * d) == 0 for m in range((1 << ell) + 1))


def lemma_001_101_check(
    sigma: Morphism, a: int, i: int, m: int, horizon: int = 2000
) -> bool:
    """Every length-s window of the arithmetic subsequence w(m*k) of a
    unidimensional fixed point contains the distinguished letter, provided
    that letter sits at one common position i of every image and s is
    prime.
    """
    if sigma.dimension != 1:
        raise InvalidInput("expected a unidimensional morphism")
    s = _require_prime(sigma, a)
    if m < 1:
        raise InvalidInput(f"need m >= 1, got {m}")
    if not 0 <= i < s or any(
        sigma.image(b)[(i,)] != a for b in range(sigma.alphabet_size)
    ):
        raise InvalidInput(f"letter {a} does not sit at position {i} of every image")
    w = sigma.fixed_point(a)
    sub = w.letters_along((0,), (m,), horizon + s)
    return bool(sliding_window_view(sub == a, s).any(axis=1).all())


def ssurdo_structure_check(j: int) -> bool:
    """Structure of the strongest example: the j-th images of 0 and 1
    differ in exactly the top-right cell, and off the (2, 2) residue class
    mod 3 the fixed point repeats its own 3x3 prefix.
    """
    if j < 1:
        raise InvalidInput(f"need j >= 1, got {j}")
    phi = load_preset("ssurdo-3x3")
    block0 = phi.iterate(0, j)
    block1 = phi.iterate(1, j)
    top = 3**j - 1
    diff = [p for p in block0.positions() if block0[p] != block1[p]]
    if diff != [(top, top)]:
        return False
    side = 3 ** (j + 1)
    grid = sample_grid(phi.fixed_point(1), (side, side))
    same = grid.reshape(side // 3, 3, side // 3, 3) == grid[None, :3, None, :3]
    same[:, 2, :, 2] = True
    return bool(same.all())


def all_2x2_morphisms() -> list[Morphism]:
    """The 128 binary size-2 morphisms with 1 at the origin of 1's image,
    in a fixed enumeration order (free cells read as one 7-bit integer).
    """
    out = []
    for bits in range(128):
        one = (1, bits & 1, bits >> 1 & 1, bits >> 2 & 1)
        zero = (bits >> 3 & 1, bits >> 4 & 1, bits >> 5 & 1, bits >> 6 & 1)
        out.append(
            Morphism((FiniteWord((2, 2), zero), FiniteWord((2, 2), one)))
        )
    return out


def survey_2x2_entry(
    args: tuple[tuple[int, ...], tuple[int, ...], int, int, int]
) -> dict:
    """Worker for the exhaustive cross-validation; must stay picklable."""
    zero, one, horizon, direction_bound, param = args
    phi = Morphism((FiniteWord((2, 2), zero), FiniteWord((2, 2), one)))
    verdict = classify_2x2(phi)
    if verdict == SURD:
        budget = RecurrenceBudget(horizon, direction_bound, 2, 1, 2)
        reports = check_urd_empirical(phi.fixed_point(1), budget, sizes=[(1, 1), (2, 2)])
        ok = all(r.bounded() for r in reports)
        detail = None if ok else next(r for r in reports if not r.bounded())
        detail = None if ok else (detail.direction, detail.size)
    else:
        witness = non_surd_2x2_witness(phi)
        ok = witness.verify(phi, param=param, horizon=64)
        detail = witness.case
    return {"zero": zero, "one": one, "verdict": verdict, "ok": ok, "detail": detail}


def survey_all_2x2(
    horizon: int = 4000,
    direction_bound: int = 4,
    param: int = 3,
    workers: int | None = None,
) -> list[dict]:
    """Classify all 128 candidate morphisms and validate each verdict
    experimentally.  Entries come back in enumeration order.  The pool has
    at most one worker per entry; ``None`` means one per CPU.
    """
    _check_param(param)
    if workers is not None and workers < 1:
        raise InvalidInput(f"workers must be at least 1, got {workers}")
    tasks = [
        (phi.image(0).cells, phi.image(1).cells, horizon, direction_bound, param)
        for phi in all_2x2_morphisms()
    ]
    workers = min(workers or os.cpu_count() or 1, len(tasks))
    if workers == 1:
        return [survey_2x2_entry(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(survey_2x2_entry, tasks, chunksize=8))
