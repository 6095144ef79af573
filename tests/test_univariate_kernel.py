"""The fraction-free univariate kernel against sympy, a test-only oracle.

Polynomials over Q and Q(i) with coefficients of 4 to 512 bits, with common
factors and repeated roots planted, go through gcd_univariate,
squarefree_part and count_real_roots and through sympy's QQ / QQ_I
polynomials. Sturm chains are checked against a small Fraction chain built
here by Euclidean division.
"""

from fractions import Fraction

import pytest

from boolelim.errors import ZeroPolynomialError
from boolelim.exactnum import GaussianRational
from boolelim.poly import (
    Field,
    PolyRing,
    VarTable,
    _GaussInt,
    _primitive,
    _subresultant_prs,
    count_real_roots,
    gcd_univariate,
    squarefree_part,
    sturm_chain,
    univariate_from_scalars,
)

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BITS = (4, 32, 128, 512)
SETTINGS = hypothesis.settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=list(hypothesis.HealthCheck),
)
X = sympy.Symbol("x")


def rationals(bits):
    top = 1 << bits
    return st.builds(Fraction, st.integers(-top, top), st.integers(1, top))


def scalars(bits, gaussian):
    if gaussian:
        return st.builds(GaussianRational, rationals(bits), rationals(bits))
    return rationals(bits)


def polys(bits, gaussian, min_deg=0, max_deg=4):
    """Coefficient lists, constant term first, with a nonzero leading one."""
    nonzero = scalars(bits, gaussian).filter(bool)
    lower = st.integers(min_deg, max_deg).flatmap(
        lambda deg: st.lists(scalars(bits, gaussian), min_size=deg, max_size=deg)
    )
    return st.tuples(lower, nonzero).map(lambda t: [*t[0], t[1]])


def mul(a, b):
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@st.composite
def planted(draw, gaussian):
    """(bits, p, q): p = f^k * u and q = f * v, so p and q share f and p has
    f as a k-fold factor."""
    bits = draw(st.sampled_from(BITS))
    f = draw(polys(bits, gaussian, 0, 2))
    k = draw(st.integers(1, 3))
    p = draw(polys(bits, gaussian, 0, 3))
    for _ in range(k):
        p = mul(p, f)
    q = mul(draw(polys(bits, gaussian, 0, 3)), f)
    return bits, p, q


def view(fld, coeffs):
    return univariate_from_scalars(PolyRing(fld, VarTable()), "x", coeffs)


def to_sympy(value):
    if isinstance(value, GaussianRational):
        return to_sympy(value.re) + sympy.I * to_sympy(value.im)
    return sympy.Rational(value.numerator, value.denominator)


def sympy_poly(coeffs, gaussian):
    expr = sum(to_sympy(c) * X**j for j, c in enumerate(coeffs))
    return sympy.Poly(expr, X, domain="QQ_I" if gaussian else "QQ")


def from_sympy(poly, gaussian):
    """Coefficients, constant term first, as this package's scalars."""

    def frac(r):
        r = sympy.Rational(r)
        return Fraction(int(r.p), int(r.q))

    out = []
    for c in reversed(poly.all_coeffs()):
        c = sympy.sympify(c)
        re, im = frac(sympy.re(c)), frac(sympy.im(c))
        out.append(GaussianRational(re, im) if gaussian else re)
    while out and not out[-1]:
        out.pop()
    return out


def scalars_of(v, gaussian):
    """A view's scalars; over C each as a GaussianRational."""
    return [GaussianRational.of(c) if gaussian else c for c in v.scalars()]


@pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "Q(i)"])
def test_gcd_and_squarefree_part_agree_with_sympy(gaussian):
    fld = Field.C if gaussian else Field.Q

    @SETTINGS
    @hypothesis.given(planted(gaussian))
    def check(case):
        _, p, q = case
        sp, sq = sympy_poly(p, gaussian), sympy_poly(q, gaussian)
        g = gcd_univariate(view(fld, p), view(fld, q))
        assert scalars_of(g, gaussian) == from_sympy(sp.gcd(sq).monic(), gaussian)
        sf = squarefree_part(view(fld, p))
        assert scalars_of(sf, gaussian) == from_sympy(sp.sqf_part().monic(), gaussian)

    check()


@pytest.mark.parametrize("gaussian", [False, True], ids=["Z", "Z[i]"])
def test_remainders_are_sympys_subresultants(gaussian):
    # the divisions by g*h^delta are what keep the sequence this small;
    # any other exact divisor gives the same gcd with larger remainders
    def integers(bits):
        top = 1 << bits
        if gaussian:
            return st.builds(_GaussInt, st.integers(-top, top), st.integers(-top, top))
        return st.integers(-top, top)

    def coeffs(bits, deg):
        return st.lists(integers(bits), min_size=deg + 1, max_size=deg + 1).filter(
            lambda c: bool(c[-1])
        )

    def as_sympy(c):
        return c.re + sympy.I * c.im if gaussian else c

    @SETTINGS
    @hypothesis.given(
        st.sampled_from(BITS[:3]).flatmap(
            lambda bits: st.integers(1, 6).flatmap(
                lambda db: st.tuples(
                    coeffs(bits, db + 2), coeffs(bits, db), st.integers(0, 2)
                )
            )
        )
    )
    def check(case):
        a, b, extra = case
        a = _primitive(a + [a[-1]] * extra)
        b = _primitive(b)
        ours = list(_subresultant_prs(a, b))
        domain = "ZZ_I" if gaussian else "ZZ"
        pa, pb = (
            sympy.Poly(sum(as_sympy(c) * X**j for j, c in enumerate(p)), X, domain=domain)
            for p in (a, b)
        )
        theirs = [
            [sympy.sympify(c) for c in reversed(p.all_coeffs())] for p in pa.subresultants(pb)[2:]
        ]
        assert len(ours) <= len(theirs)
        for mine, want in zip(ours, theirs):
            mine = [sympy.sympify(as_sympy(c)) for c in mine]
            assert mine == want or mine == [-c for c in want]
        # ours stops at the first constant remainder
        assert len(ours) == len(theirs) or len(ours[-1]) == 1

    check()


def euclid_sturm(coeffs):
    """p, p', then negated remainders of Euclidean division over Fraction."""

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] -= f * y
            a.pop()
            while a and not a[-1]:
                a.pop()
        return a

    chain = [list(coeffs)]
    if len(coeffs) > 1:
        chain.append([c * j for j, c in enumerate(coeffs)][1:])
        while len(chain[-1]) > 1:
            r = rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return chain


def variations(signs):
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def ends(chain):
    """Sign variations at -inf and +inf."""
    lead = [1 if c[-1] > 0 else -1 for c in chain]
    return (
        variations([s * (-1) ** (len(c) - 1) for s, c in zip(lead, chain)]),
        variations(lead),
    )


@SETTINGS
@hypothesis.given(planted(False))
def test_real_roots_and_sturm_chain_agree_with_references(case):
    _, p, _ = case
    v = view(Field.R, p)
    want = sympy_poly(p, False).sqf_part().count_roots()
    assert count_real_roots(v) == want
    chain = sturm_chain(v)
    reference = euclid_sturm(p)
    assert len(chain.polys) == len(reference)
    got = (chain.variations_at_minus_inf(), chain.variations_at_plus_inf())
    assert got == ends(reference)
    # every member is a positive multiple of the Euclidean chain's
    for mine, theirs in zip(chain.polys, reference):
        assert len(mine) == len(theirs)
        ratio = Fraction(mine[-1]) / theirs[-1]
        assert ratio > 0 and [ratio * c for c in theirs] == list(mine)


@pytest.mark.parametrize("sparse", [[0, 2, 0, 0, 1], [3, 0, 0, 0, -1, 2], [3, -1, 3, 0, 0, -1]])
@pytest.mark.parametrize("scale", [1, Fraction(7, 2**127 - 1)])
def test_sturm_chain_across_a_degree_gap(sparse, scale):
    # a remainder that drops two degrees under a negative leading coefficient
    # gives a pseudo-remainder of the opposite sign to the Euclidean one
    p = [Fraction(c) * scale for c in sparse]
    chain = sturm_chain(view(Field.R, p))
    reference = euclid_sturm(p)
    assert len(chain.polys) == len(reference)
    for mine, theirs in zip(chain.polys, reference):
        ratio = Fraction(mine[-1]) / theirs[-1]
        assert ratio > 0 and [ratio * c for c in theirs] == list(mine)


@pytest.mark.parametrize("fld", [Field.Q, Field.C])
def test_edge_contracts(fld):
    p = [Fraction(6), Fraction(-4), Fraction(2)]
    zero = view(fld, [])
    g = gcd_univariate(view(fld, p), zero)
    assert g.scalars() == [3, -2, 1]
    assert gcd_univariate(zero, view(fld, p)).scalars() == [3, -2, 1]
    assert gcd_univariate(zero, zero).is_zero()
    with pytest.raises(ZeroPolynomialError):
        squarefree_part(zero)
    assert squarefree_part(view(fld, [Fraction(-5)])).scalars() == [1]


def test_sturm_chain_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        sturm_chain(view(Field.R, []))
