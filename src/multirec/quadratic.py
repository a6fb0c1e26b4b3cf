"""Exact arithmetic over rational combinations of square roots.

Values are finite sums sum_n c_n * sqrt(n) with rational c_n and squarefree
radicands n (n = 1 carries the rational part).  Square roots of distinct
squarefree integers are linearly independent over Q, so equality is a
coefficient comparison and only strict signs need numeric work: signs are
decided from integer enclosures sqrt(n) * 2^p in [isqrt(n * 4^p), +1] with p
doubled until the enclosure excludes zero.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Mapping, Union

Rational = Union[int, Fraction]


def square_free_decompose(n: int) -> tuple[int, int]:
    """n = m*m * r with r squarefree; returns (m, r)."""
    if n < 1:
        raise ValueError(f"radicand must be positive, got {n}")
    m, r, f = 1, 1, 2
    while f * f <= n:
        exp = 0
        while n % f == 0:
            n //= f
            exp += 1
        m *= f ** (exp // 2)
        if exp % 2:
            r *= f
        f += 1
    return m, r * n


@functools.total_ordering
class QuadExt:
    """An exact real from the multi-quadratic field Q(sqrt(D_1), ...)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        for rad, c in (coeffs or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            m, r = square_free_decompose(rad)
            clean[r] = clean.get(r, Fraction(0)) + c * m
        object.__setattr__(self, "_coeffs", {r: c for r, c in sorted(clean.items()) if c != 0})

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    @classmethod
    def rational(cls, value: Rational) -> "QuadExt":
        return cls({1: Fraction(value)})

    @classmethod
    def sqrt(cls, n: int, scale: Rational = 1) -> "QuadExt":
        return cls({n: Fraction(scale)})

    def coefficients(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    # ---- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value: "QuadExt | Rational") -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt.rational(value)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for rad, c in other._coeffs.items():
            out[rad] = out.get(rad, Fraction(0)) + c
        return QuadExt(out)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt({rad: -c for rad, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ra, ca in self._coeffs.items():
            for rb, cb in other._coeffs.items():
                g = math.gcd(ra, rb)
                rad = (ra // g) * (rb // g)
                out[rad] = out.get(rad, Fraction(0)) + ca * cb * g
        return QuadExt(out)

    __rmul__ = __mul__

    def __truediv__(self, other: Rational):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * QuadExt.rational(Fraction(1) / Fraction(other))

    # ---- order ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_rational(self) -> bool:
        return all(rad == 1 for rad in self._coeffs)

    def _integer_terms(self) -> tuple[int, list[tuple[int, int]]]:
        """denom and the pairs (radicand, integer coefficient) of self * denom."""
        denom = math.lcm(*(c.denominator for c in self._coeffs.values()))
        return denom, [(rad, int(c * denom)) for rad, c in self._coeffs.items()]

    @staticmethod
    def _enclosure(terms: list[tuple[int, int]], p: int) -> tuple[int, int]:
        """lo <= sum num * sqrt(rad) * 2^p <= hi, with hi - lo <= sum |num|."""
        lo = hi = 0
        for rad, num in terms:
            f = math.isqrt(rad << 2 * p)
            lo += num * (f + (num < 0))
            hi += num * (f + (num >= 0))
        return lo, hi

    def sign(self) -> int:
        if not self._coeffs:
            return 0
        if self.is_rational():
            c = self._coeffs[1]
            return (c > 0) - (c < 0)
        _, terms = self._integer_terms()
        p = 32
        while True:
            lo, hi = self._enclosure(terms, p)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            p *= 2

    def compare(self, other: "QuadExt | Rational") -> int:
        return (self - other).sign()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(tuple(self._coeffs.items()))

    def __lt__(self, other):
        return self.compare(other) < 0

    # ---- floor / fractional part ---------------------------------------

    def to_float(self) -> float:
        """The value to within 2^-64 per radicand plus one rounding, from
        the integer enclosure ``sign`` uses; summing float terms instead
        loses ~1e-7 to cancellation once coefficients reach 1e9."""
        if self.is_rational():
            return float(self._coeffs.get(1, 0))
        denom, terms = self._integer_terms()
        p = 64 + max(abs(num) for _, num in terms).bit_length()
        total = sum(num * math.isqrt(rad << 2 * p) for rad, num in terms)
        return total / (denom << p)

    def floor(self) -> int:
        """Exact floor, from the enclosure ``sign`` uses at 64 bits past the
        coefficients, so the two ends of the enclosure floor to g and at
        most g + 1; only then does one exact comparison decide."""
        if self.is_rational():
            return math.floor(self._coeffs.get(1, Fraction(0)))
        denom, terms = self._integer_terms()
        p = 64 + sum(abs(num) for _, num in terms).bit_length()
        lo, hi = self._enclosure(terms, p)
        scale = denom << p
        g = lo // scale
        if hi // scale > g and self.compare(g + 1) >= 0:
            g += 1
        return g

    def mod1(self) -> "QuadExt":
        return self - self.floor()

    def __repr__(self):
        if not self._coeffs:
            return "QuadExt(0)"
        parts = []
        for rad, c in self._coeffs.items():
            parts.append(str(c) if rad == 1 else f"{c}*sqrt({rad})")
        return f"QuadExt({' + '.join(parts)})"


ZERO = QuadExt()
ONE = QuadExt.rational(1)
