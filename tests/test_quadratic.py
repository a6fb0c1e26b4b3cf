from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multirec.quadratic import ONE, ZERO, QuadExt, square_free_decompose

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


def small_quad() -> st.SearchStrategy[QuadExt]:
    coeff = st.fractions(
        min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
    )
    return st.builds(
        lambda a, b, c: QuadExt.rational(a) + QuadExt.sqrt(2, b) + QuadExt.sqrt(3, c),
        coeff, coeff, coeff,
    )


def test_square_free_decompose_splits_square_part():
    assert square_free_decompose(12) == (2, 3)
    assert square_free_decompose(49) == (7, 1)
    assert square_free_decompose(1) == (1, 1)
    assert square_free_decompose(30) == (1, 30)


def test_sqrt_of_square_collapses_to_rational():
    assert QuadExt.sqrt(9) == QuadExt.rational(3)
    assert QuadExt.sqrt(8) == QuadExt.sqrt(2, 2)


def test_sign_of_mixed_radicals():
    """sqrt(2)+sqrt(3)-sqrt(10) is negative by a hair (~-0.016)."""
    x = QuadExt.sqrt(2) + QuadExt.sqrt(3) - QuadExt.sqrt(10)
    assert x.sign() == -1
    assert (-x).sign() == 1


def test_comparisons_against_rationals():
    assert (QuadExt.rational(1) + QuadExt.sqrt(2)).compare(Fraction(5, 2)) < 0
    assert ((QuadExt.rational(1) + QuadExt.sqrt(5)) / 2).compare(Fraction(3, 2)) > 0


def test_golden_ratio_identity():
    golden = (QuadExt.rational(1) + QuadExt.sqrt(5)) / 2
    assert golden * golden == golden + 1


def test_floor_and_mod1():
    assert QuadExt.sqrt(2).floor() == 1
    assert (QuadExt.sqrt(2) * 5).floor() == 7
    assert QuadExt.rational(Fraction(-3, 2)).floor() == -2
    frac = (QuadExt.sqrt(5) * 3 - 3) / 2
    assert frac.mod1() == frac - frac.floor()


@given(small_quad(), small_quad())
def test_addition_commutes_and_subtraction_inverts(x, y):
    assert x + y == y + x
    assert (x + y) - y == x


@given(small_quad(), small_quad(), small_quad())
def test_multiplication_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(small_quad())
def test_mod1_lands_in_unit_interval(x):
    r = x.mod1()
    assert r.compare(0) >= 0
    assert r.compare(1) < 0
    assert (x - r).is_rational() or (x - r - x.floor()).is_zero()


@given(small_quad())
def test_sign_matches_float_estimate(x):
    est = x.to_float()
    if abs(est) > 1e-9:
        assert x.sign() == (1 if est > 0 else -1)


@given(rationals)
def test_floor_agrees_with_math_floor_on_rationals(a):
    assert QuadExt.rational(a).floor() == math.floor(a)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / 0


def test_zero_and_one_constants():
    assert ZERO.is_zero()
    assert ONE.is_rational() and ONE.compare(1) == 0


@given(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 1000),
       st.sampled_from([2, 3, 5, 6, 7, 10, 1001]), st.integers(0, 256))
def test_floor_of_scaled_square_roots_matches_isqrt(num, den, n, e):
    """floor(c * sqrt(n) * 2^e) for c = num/den; sqrt(num^2 n 4^e) / den is
    irrational, so a negative value floors one below minus its floor."""
    below = math.isqrt(num * num * n << 2 * e) // den
    x = QuadExt.sqrt(n, Fraction(num, den)) * (1 << e)
    assert x.floor() == (below if num > 0 else -below - 1)


def _sqrt_convergent(n: int, bound: int) -> tuple[int, int]:
    """The first convergent p/q of sqrt(n) with q > bound: |p - q*sqrt(n)| < 1/q."""
    a0 = math.isqrt(n)
    m, d, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    while q1 <= bound:
        m = d * a - m
        d = (n - m * m) // d
        a = (a0 + m) // d
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    return p1, q1


def _near_zero() -> list[QuadExt]:
    """Sums of square-root terms within 1e-30 of zero, of both signs."""
    tiny = []
    for n in (2, 3, 5, 7, 10, 11):
        for bound in (10**31, 10**32):
            p, q = _sqrt_convergent(n, bound)
            tiny.append(QuadExt.rational(p) - QuadExt.sqrt(n, q))
    x2, x3, x5 = tiny[0], tiny[2], tiny[4]
    return tiny + [x2 + x3, x2 - x5, x3 * 3 + x5 / 7, x2 * Fraction(-2, 9) + x3]


def _to_sympy(x: QuadExt):
    sympy = pytest.importorskip("sympy")
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(rad)
                       for rad, c in x.coefficients().items()))


def _sympy_floor(x: QuadExt) -> int:
    """The floor of sympy's 100-digit evaluation, which raises its working
    precision through cancellation.  sympy.floor itself is no oracle here:
    it gives -3 for a value 6.4e-33 below -3."""
    sympy = pytest.importorskip("sympy")
    return int(sympy.floor(sympy.N(_to_sympy(x), 100)))


@pytest.mark.parametrize("shift", [0, 1, -3, 12345678901234567890])
def test_sign_and_floor_agree_with_sympy_near_zero_and_near_integers(shift):
    sympy = pytest.importorskip("sympy")
    for tiny in _near_zero():
        assert 0 < abs(sympy.N(_to_sympy(tiny), 60)) < 1e-30
        x = tiny + shift
        assert tiny.sign() == int(sympy.sign(_to_sympy(tiny)))
        assert x.floor() == _sympy_floor(x)
        assert (-x).floor() == _sympy_floor(-x)


def test_floor_of_fixed_point_circle_constants_agrees_with_sympy():
    """The rotation words store each angle, origin and cut as
    floor(x * 2^64); check those floors and the near-integer products of
    large convergent multipliers."""
    angles = [QuadExt.sqrt(2) - 1, QuadExt.sqrt(3) - 1, (QuadExt.sqrt(5) - 1) / 2]
    for a in angles:
        for scale in (1 << 64, 7645370045 << 64, 18457556052 << 64, 1 << 128):
            x = a * scale
            assert x.floor() == _sympy_floor(x)
            assert (x - x.floor()).sign() == 1


def test_quad_ext_fields_cannot_be_assigned():
    x = QuadExt.sqrt(2)
    with pytest.raises(AttributeError):
        x._coeffs = {}
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == QuadExt.sqrt(2)


@given(small_quad(), st.one_of(st.integers(-20, 20), rationals))
def test_orderings_agree_with_compare_on_both_sides(x, r):
    """<, <=, >, >= against an int or a Fraction, with the QuadExt on
    either side of the operator, are the signs of compare."""
    for y in (x, x + r, QuadExt.rational(r)):
        c = y.compare(r)
        assert (y < r, y <= r, y > r, y >= r) == (c < 0, c <= 0, c > 0, c >= 0)
        assert (r > y, r >= y, r < y, r <= y) == (c < 0, c <= 0, c > 0, c >= 0)
        assert (y < QuadExt.rational(r), y >= QuadExt.rational(r)) == (c < 0, c >= 0)
