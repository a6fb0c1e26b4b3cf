"""Residue-vector subgroups of (Z/sZ)^d and gcd behaviour along lattice lines."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotCoprime, OnLine
from .lattice import Vector


def _reduce(coords: Sequence[int], s: int) -> Vector:
    return tuple(c % s for c in coords)


@dataclass(frozen=True)
class CyclicSubgroup:
    """The additive subgroup of (Z/sZ)^d generated by one residue vector."""

    modulus: int
    generator: Vector
    elements: frozenset[Vector]

    def sorted_elements(self) -> list[Vector]:
        return sorted(self.elements)


def cyclic_subgroup(s: int, gen: Sequence[int]) -> CyclicSubgroup:
    """<gen> = {k*gen mod s : k in [0, s)}.

    The generator must have coprime coordinates (gcd of the residues in
    [0, s) equal to 1); those are exactly the generators admitted into the
    family C(s).
    """
    if s < 2:
        raise ValueError(f"modulus must be at least 2, got {s}")
    gen = _reduce(gen, s)
    if math.gcd(*gen) != 1:
        raise NotCoprime(f"{gen} has gcd {math.gcd(*gen)} (mod {s})")
    elems = {tuple(k * g % s for g in gen) for k in range(s)}
    return CyclicSubgroup(s, gen, frozenset(elems))


@dataclass(frozen=True)
class SubgroupFamily:
    modulus: int
    dimension: int
    subgroups: tuple[CyclicSubgroup, ...]

    def __len__(self) -> int:
        return len(self.subgroups)

    def element_sets(self) -> set[frozenset[Vector]]:
        return {g.elements for g in self.subgroups}


def family_c(s: int, d: int) -> SubgroupFamily:
    """All distinct cyclic subgroups of (Z/sZ)^d with coprime-coordinate
    generators, each recorded with its lexicographically least generator:
    the generators are tried in lexicographic order and the first of each
    subgroup is kept."""
    seen: dict[frozenset[Vector], CyclicSubgroup] = {}
    for vec in iter_coprime_directions(d, s - 1):
        g = cyclic_subgroup(s, vec)
        seen.setdefault(g.elements, g)
    return SubgroupFamily(s, d, tuple(seen.values()))


def bezout_coefficients(q: Sequence[int]) -> Vector:
    """Integers alpha with sum(alpha_j * q_j) = 1, for coprime q.

    Folds the extended Euclidean algorithm over the coordinates.
    """
    q = tuple(q)
    g, alpha = q[0], [1]
    for qj in q[1:]:
        g2, x, y = _ext_gcd(g, qj)
        alpha = [a * x for a in alpha]
        alpha.append(y)
        g = g2
    if g != 1:
        raise NotCoprime(f"gcd{q} = {g}")
    return tuple(alpha)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def line_gcd_period(q: Sequence[int], i: Sequence[int]) -> int:
    """Period of l -> gcd(l*q + i) for an offset i off the line N*q:
    the gcd of all cross differences |i_j q_k - i_k q_j|."""
    q = tuple(q)
    i = tuple(i)
    crosses = [abs(i[j] * q[k] - i[k] * q[j])
               for j in range(len(q)) for k in range(j + 1, len(q))]
    g = math.gcd(*crosses) if crosses else 0
    if g == 0:
        raise OnLine(f"{i} lies on the line through {q}")
    return g


def gcd_along_line(q: Sequence[int], i: Sequence[int], ell: int) -> int:
    """gcd of the coordinates of ell*q + i (direct computation)."""
    if all(c == 0 for c in i) or _is_multiple(i, q):
        raise OnLine(f"{tuple(i)} lies on the line through {tuple(q)}")
    return math.gcd(*(ell * qj + ij for qj, ij in zip(q, i, strict=True)))


def gcd_along_line_closed_form(q: Sequence[int], i: Sequence[int], ell: int) -> int:
    """Same value via the periodicity identity gcd(l*q+i) = gcd(l + alpha.i, g)
    with alpha the Bezout coefficients of q and g the period."""
    g = line_gcd_period(q, i)
    alpha = bezout_coefficients(q)
    shift = sum(a * c for a, c in zip(alpha, i, strict=True))
    return math.gcd(ell + shift, g)


def _is_multiple(i: Sequence[int], q: Sequence[int]) -> bool:
    # i = c*q for some nonnegative integer c?
    pairs = [(ij, qj) for ij, qj in zip(i, q, strict=True)]
    ratios = {ij // qj for ij, qj in pairs if qj != 0}
    if len(ratios) != 1:
        return False
    c = ratios.pop()
    return all(ij == c * qj for ij, qj in pairs)


def iter_coprime_directions(d: int, bound: int) -> Iterator[Vector]:
    """All coprime nonzero nonnegative vectors with max coordinate <= bound,
    in lexicographic order."""
    for vec in itertools.product(range(bound + 1), repeat=d):
        if any(vec) and math.gcd(*vec) == 1:
            yield vec
