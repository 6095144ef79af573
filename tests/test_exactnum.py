import math
import random
from fractions import Fraction

import pytest

from boolelim.errors import NotPositiveError
from boolelim.exactnum import (
    GaussianRational,
    gaussian,
    is_sum_three_squares,
    positivity_witness_q,
    three_squares_pair,
)
from oracles import (
    rational_three_squares_by_search,
    three_square_set,
    three_squares_by_search,
)


def test_gaussian_field_axioms_sampled():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (
            gaussian(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(3)
        )
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a


def test_gaussian_inverse_and_pow():
    z = gaussian(Fraction(3), Fraction(-4))
    assert z * (1 / z) == gaussian(1)
    assert z ** 0 == gaussian(1)
    assert z ** 3 == z * z * z
    assert gaussian(0, 1) ** 2 == gaussian(-1)
    with pytest.raises(ZeroDivisionError):
        1 / gaussian(0)


def test_gaussian_pow_squares_only_below_the_top_bit(monkeypatch):
    """Binary powering multiplies once per set bit and squares once per
    bit below the top one."""
    count = 0
    mul = GaussianRational.__mul__

    def counting(self, other):
        nonlocal count
        count += 1
        return mul(self, other)

    z = gaussian(Fraction(1, 2), Fraction(-1, 3))
    powers = [gaussian(1)]
    for _ in range(64):
        powers.append(powers[-1] * z)
    monkeypatch.setattr(GaussianRational, "__mul__", counting)
    for e in range(1, 65):
        count = 0
        assert z**e == powers[e]
        assert count == bin(e).count("1") + e.bit_length() - 1, e


def test_gaussian_of_and_str():
    assert GaussianRational.of(Fraction(1, 2)).im == 0
    assert GaussianRational.of(3) == gaussian(3)
    assert str(gaussian(0, 1)) == "1i"
    assert str(gaussian(2, -1)) == "2-1i"
    assert str(gaussian(1, 2)) == "1+2i"
    assert str(gaussian(Fraction(1, 2))) == "1/2"
    assert str(gaussian(0)) == "0"


def test_gaussian_conjugate_norm():
    rng = random.Random(2)
    for _ in range(100):
        z = gaussian(rng.randint(-20, 20), rng.randint(-20, 20))
        n = z * gaussian(z.re, -z.im)
        assert n.im == 0
        assert n.re >= 0


def test_three_squares_criterion_small_exhaustive():
    # closed-form criterion vs direct search
    for n in range(0, 500):
        assert is_sum_three_squares(n) == three_squares_by_search(n), n
    assert not is_sum_three_squares(-1)


def test_three_squares_pair_identity():
    rng = random.Random(3)
    for n in list(range(1, 200)) + [rng.randint(200, 10000) for _ in range(100)]:
        ts = three_squares_pair(n)
        p1, p2, p3 = ts.parts
        assert p1 * p1 + p2 * p2 + p3 * p3 == ts.selector * n
        assert ts.selector in (1, 2)
        assert p1 >= p2 >= p3 >= 0
        assert p1 <= math.isqrt(2 * n)
    with pytest.raises(ValueError):
        three_squares_pair(0)


def test_three_squares_pair_prefers_n_itself():
    assert three_squares_pair(6).selector == 1
    assert three_squares_pair(7).selector == 2  # 7 = 8*0+7 blocked, 14 works


def test_rational_three_squares_search_matches_criterion():
    # the package criterion for p/q is the integer criterion on p*q; compare
    # against a direct search over rational triples with bounded denominators
    table = three_square_set(4 * 60 * 60)
    for p in range(1, 61):
        for q in range(1, 61):
            v = Fraction(p, q)
            expected = rational_three_squares_by_search(v, table)
            assert is_sum_three_squares(v.numerator * v.denominator) == expected, v


def test_positivity_witness_identity():
    rng = random.Random(4)
    for _ in range(300):
        u = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        s, (v1, v2, v3) = positivity_witness_q(u)
        assert s in (1, 2)
        assert s * u * (v1 * v1 + v2 * v2 + v3 * v3) == 1


def test_positivity_witness_rejects_nonpositive():
    with pytest.raises(NotPositiveError):
        positivity_witness_q(Fraction(0))
    with pytest.raises(NotPositiveError):
        positivity_witness_q(Fraction(-2, 3))


def test_gaussian_hash_agrees_with_equal_rationals():
    for q in (0, 1, -3, Fraction(2, 7)):
        assert GaussianRational.of(q) == q
        assert hash(GaussianRational.of(q)) == hash(q)
    assert {GaussianRational.of(1): "one"}[1] == "one"
    assert gaussian(1, 1) != 1
