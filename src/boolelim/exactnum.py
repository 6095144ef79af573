"""Exact scalar arithmetic: rationals, Gaussian rationals, sums of three squares.

The stdlib Fraction already keeps the canonical form we rely on everywhere
(lowest terms, positive denominator). GaussianRational adds the imaginary
unit for work over the complex field. The three-squares routines back the
positivity gadgets over the rationals: a positive rational u has
s*u*(v1^2+v2^2+v3^2) = 1 for s in {1,2} and rational v_i, and the search for
integer parts is a bounded brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotPositiveError


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Rational")


@dataclass(frozen=True)
class GaussianRational:
    """re + im*i with exact rational components."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_as_fraction(x), Fraction(0))

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("Gaussian rational division by zero")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return GaussianRational.of(1) / self ** (-e)
        out = GaussianRational.of(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            o = GaussianRational.of(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        # equal to the rational it equals, so mixed dict keys agree
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


IMAG_UNIT = GaussianRational(Fraction(0), Fraction(1))


def gaussian(re, im=0) -> GaussianRational:
    return GaussianRational(_as_fraction(re), _as_fraction(im))


def is_sum_three_squares(n: int) -> bool:
    """True iff n >= 0 is a sum of three integer squares (not 4^k(8m+7))."""
    if n < 0:
        return False
    while n and n % 4 == 0:
        n //= 4
    return n % 8 != 7


@dataclass(frozen=True)
class ThreeSquares:
    """Decomposition selector*n = p1^2 + p2^2 + p3^2 with p1 >= p2 >= p3 >= 0."""

    n: int
    selector: int
    parts: tuple[int, int, int]

    def __post_init__(self):
        p1, p2, p3 = self.parts
        assert p1 >= p2 >= p3 >= 0
        assert p1 * p1 + p2 * p2 + p3 * p3 == self.selector * self.n
        assert p1 <= math.isqrt(2 * self.n)


def _search_parts(target: int) -> tuple[int, int, int]:
    # ascending p1 from ceil(sqrt(target/3)): first hit is the
    # lexicographically smallest triple with p1 >= p2 >= p3
    p1 = math.isqrt(target // 3)
    while 3 * p1 * p1 < target:
        p1 += 1
    top = math.isqrt(target)
    while p1 <= top:
        rem = target - p1 * p1
        p2 = math.isqrt(rem // 2)
        while 2 * p2 * p2 < rem:
            p2 += 1
        p2_end = min(p1, math.isqrt(rem))
        while p2 <= p2_end:
            r3 = rem - p2 * p2
            p3 = math.isqrt(r3)
            if p3 * p3 == r3 and p3 <= p2:
                return (p1, p2, p3)
            p2 += 1
        p1 += 1
    raise AssertionError(f"no three-square decomposition of {target}")


def three_squares_pair(n: int) -> ThreeSquares:
    """Decompose n, or failing that 2n, into three squares.

    One of the two always works: n = 4^k(8m+7) forces 2n = 4^k(16m+14),
    and 16m+14 is 6 mod 8. Preference goes to n itself.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if is_sum_three_squares(n):
        return ThreeSquares(n, 1, _search_parts(n))
    return ThreeSquares(n, 2, _search_parts(2 * n))


def positivity_witness_q(u: Fraction) -> tuple[int, tuple[Fraction, Fraction, Fraction]]:
    """Exact witness that u > 0 over the rationals.

    Returns (s, (v1, v2, v3)) with s in {1, 2} and s*u*(v1^2+v2^2+v3^2) = 1.
    The parts come from decomposing n = num*den of 1/(2u): if n itself is a
    sum of three squares the gadget factor 1 - 2*u*V vanishes (s = 2 gives
    V = 1/(2u)); otherwise 2n is, and 1 - u*V vanishes.
    """
    u = _as_fraction(u)
    if u <= 0:
        raise NotPositiveError(f"positivity witness requires u > 0, got {u}")
    half = 1 / (2 * u)
    p, q = half.numerator, half.denominator
    ts = three_squares_pair(p * q)
    v = tuple(Fraction(part, q) for part in ts.parts)
    s = 2 if ts.selector == 1 else 1
    vsum = v[0] ** 2 + v[1] ** 2 + v[2] ** 2
    assert s * u * vsum == 1
    return s, v  # type: ignore[return-value]
