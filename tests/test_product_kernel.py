"""The multivariate product kernel against a schoolbook oracle and sympy.

Products and powers of MultiPolys over Q and Q(i) are compared with
oracles.schoolbook_product, which multiplies exponent-tuple dicts term pair
by term pair and shares no code with the package, and, at small exponents,
with sympy's Poly over QQ and QQ_I. The operands reach exponents of 2^40,
which the packed monomials must hold, and denominators above 2^64; they may
have no term or one, and their variable sets may not meet.
"""

from fractions import Fraction

import pytest

from boolelim.errors import FieldMismatchError
from boolelim.exactnum import GaussianRational
from boolelim.poly import Field, MultiPoly, PolyRing
from oracles import schoolbook_product

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

NAMES = ("x", "y", "z", "w")
SETTINGS = hypothesis.settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
FIELDS = pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])


def rationals():
    # 80-bit denominators are above 2^64
    return st.sampled_from((4, 80)).flatmap(
        lambda bits: st.builds(
            Fraction, st.integers(-(1 << bits), 1 << bits), st.integers(1, 1 << bits)
        )
    )


def coefficients(gaussian):
    if gaussian:
        return st.tuples(rationals(), rationals()).filter(any)
    return rationals().filter(bool)


def exponents(top):
    return st.one_of(st.integers(0, 3), st.integers(0, top))


def polys(gaussian, variables, top=1 << 40, max_terms=4):
    """{exponent tuple: coefficient} over NAMES, zero outside `variables`."""
    exps = st.tuples(*(exponents(top) if k in variables else st.just(0) for k in range(4)))
    return st.dictionaries(exps, coefficients(gaussian), max_size=max_terms)


@st.composite
def operand_pairs(draw, gaussian, top=1 << 40):
    """Two operands over shared variables, or over x, y and z, w."""
    if draw(st.booleans()):
        return draw(polys(gaussian, (0, 1), top)), draw(polys(gaussian, (2, 3), top))
    shared = draw(st.sets(st.sampled_from(range(4)), min_size=1))
    return draw(polys(gaussian, shared, top)), draw(polys(gaussian, shared, top))


def ring_of(gaussian):
    ring = PolyRing(Field.C if gaussian else Field.Q)
    for name in NAMES:
        ring.var(name)
    return ring


def to_poly(ring, dense) -> MultiPoly:
    gaussian = ring.field is Field.C
    terms = {}
    for exps, c in dense.items():
        mono = tuple((ring.table.get(n).index, e) for n, e in zip(NAMES, exps) if e)
        terms[mono] = GaussianRational(*c) if gaussian else c
    return MultiPoly(ring, terms)


def from_poly(p: MultiPoly) -> dict:
    """The oracle's form of p, after checking that p is canonical: sorted
    monomials of positive exponents, nonzero scalars of the ring's type."""
    gaussian = p.ring.field is Field.C
    out = {}
    for mono, c in p.terms.items():
        assert list(mono) == sorted(mono) and all(e > 0 for _, e in mono)
        assert type(c) is (GaussianRational if gaussian else Fraction) and c
        exps = dict((p.ring.table.name_of(i), e) for i, e in mono)
        out[tuple(exps.get(n, 0) for n in NAMES)] = (c.re, c.im) if gaussian else c
    return out


def dense_sum(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        c = tuple(sign * x for x in c) if isinstance(c, tuple) else sign * c
        if e in out:
            old = out[e]
            c = tuple(a + b for a, b in zip(old, c)) if isinstance(c, tuple) else old + c
        out[e] = c
    return {e: c for e, c in out.items() if (any(c) if isinstance(c, tuple) else c)}


def _c(x, gaussian):
    x = Fraction(x)
    return (x, Fraction(0)) if gaussian else x


@FIELDS
def test_products_agree_with_the_schoolbook_oracle(gaussian):
    ring = ring_of(gaussian)

    @SETTINGS
    @hypothesis.given(operand_pairs(gaussian))
    def check(pair):
        p, q = pair
        mp, mq = to_poly(ring, p), to_poly(ring, q)
        want = schoolbook_product(p, q)
        assert from_poly(mp * mq) == want
        assert from_poly(mq * mp) == want
        # the cross terms of (p + q)(p - q) cancel
        s, d = dense_sum(p, q), dense_sum(p, q, -1)
        assert from_poly((mp + mq) * (mp - mq)) == schoolbook_product(s, d)
        assert (mp * mq - mq * mp).is_zero()

    check()


@FIELDS
def test_powers_agree_with_the_schoolbook_oracle(gaussian):
    ring = ring_of(gaussian)
    one = (Fraction(1), Fraction(0)) if gaussian else Fraction(1)

    @SETTINGS
    @hypothesis.given(polys(gaussian, range(4), max_terms=3), st.integers(0, 5))
    def check(p, k):
        want = {(0, 0, 0, 0): one}
        for _ in range(k):
            want = schoolbook_product(want, p)
        got = to_poly(ring, p) ** k
        assert from_poly(got) == (want if p or k == 0 else {})

    check()


@FIELDS
def test_scalar_and_one_term_operands_scale_and_shift(gaussian):
    ring = ring_of(gaussian)
    x, y = ring.var("x"), ring.var("y")
    p = 3 * x**2 * y - Fraction(1, 7) * y + 2
    assert (p * 0).is_zero() and (0 * p).is_zero() and (p * ring.zero).is_zero()
    assert p * 1 == p and p * ring.one == p
    assert from_poly(Fraction(-2, 3) * p) == {
        (2, 1, 0, 0): _c(-2, gaussian), (0, 1, 0, 0): _c(Fraction(2, 21), gaussian),
        (0, 0, 0, 0): _c(Fraction(-4, 3), gaussian),
    }
    assert from_poly(p * (-x * y**3)) == {
        (3, 4, 0, 0): _c(-3, gaussian), (1, 4, 0, 0): _c(Fraction(1, 7), gaussian),
        (1, 3, 0, 0): _c(-2, gaussian),
    }
    if gaussian:
        i = GaussianRational(Fraction(0), Fraction(1))
        assert from_poly(p * i * i) == from_poly(-p)


@FIELDS
def test_exponent_sums_at_a_power_of_two_do_not_carry(gaussian):
    ring = ring_of(gaussian)
    x, y = ring.var("x"), ring.var("y")
    big = 1 << 40
    p = x**big + y
    assert from_poly(p * p) == {
        (2 * big, 0, 0, 0): _c(1, gaussian), (big, 1, 0, 0): _c(2, gaussian),
        (0, 2, 0, 0): _c(1, gaussian),
    }
    assert from_poly((x ** (big - 1) + y ** (big - 1)) * (x + y)) == {
        (big, 0, 0, 0): _c(1, gaussian), (big - 1, 1, 0, 0): _c(1, gaussian),
        (1, big - 1, 0, 0): _c(1, gaussian), (0, big, 0, 0): _c(1, gaussian),
    }


def to_sympy_poly(dense, gaussian, gens):
    def value(c):
        if gaussian:
            return sympy.Rational(c[0].numerator, c[0].denominator) + sympy.I * sympy.Rational(
                c[1].numerator, c[1].denominator
            )
        return sympy.Rational(c.numerator, c.denominator)

    return sympy.Poly.from_dict(
        {e: value(c) for e, c in dense.items()} or {(0,) * 4: 0},
        *gens,
        domain="QQ_I" if gaussian else "QQ",
    )


def from_sympy_poly(poly, gaussian) -> dict:
    def frac(r):
        r = sympy.Rational(r)
        return Fraction(int(r.p), int(r.q))

    out = {}
    for e, c in poly.as_dict().items():
        c = sympy.sympify(c)
        out[e] = (frac(sympy.re(c)), frac(sympy.im(c))) if gaussian else frac(c)
    return out


@FIELDS
def test_small_products_agree_with_sympy(gaussian):
    ring = ring_of(gaussian)
    gens = sympy.symbols(" ".join(NAMES))

    @hypothesis.settings(SETTINGS, max_examples=25)
    @hypothesis.given(operand_pairs(gaussian, top=6))
    def check(pair):
        p, q = pair
        want = to_sympy_poly(p, gaussian, gens) * to_sympy_poly(q, gaussian, gens)
        assert from_poly(to_poly(ring, p) * to_poly(ring, q)) == from_sympy_poly(want, gaussian)

    check()


def test_a_product_across_rings_raises():
    q1, q2, c = PolyRing(Field.Q), PolyRing(Field.Q), PolyRing(Field.C)
    p1 = q1.var("x") + 1
    for other in (q2.var("x") + 1, c.var("x") + 1, q2.var("x")):
        with pytest.raises(FieldMismatchError):
            p1 * other
        with pytest.raises(FieldMismatchError):
            other * p1
