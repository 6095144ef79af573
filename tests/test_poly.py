import random
from fractions import Fraction

import pytest

from boolelim.elim import SqrtValue
from boolelim.errors import FieldMismatchError, UnexpectedVariablesError
from boolelim.formula import parse
from boolelim.exactnum import gaussian
from boolelim.poly import (
    INFINITE,
    Field,
    PolyRing,
    VarTable,
    as_univariate,
    count_real_roots,
    gcd_univariate,
    render_poly,
    render_poly_latex,
    squarefree_part,
    univariate_from_scalars,
)
from oracles import scan_real_roots, view_poly


def ring_xyz(fld=Field.Q):
    ring = PolyRing(fld, VarTable())
    return ring, ring.var("x"), ring.var("y"), ring.var("z")


def random_poly(ring, names, rng, max_terms=5, max_deg=3, bound=9):
    p = ring.zero
    for _ in range(rng.randint(0, max_terms)):
        mono = ring.const(Fraction(rng.randint(-bound, bound)))
        for _ in range(rng.randint(0, max_deg)):
            mono = mono * ring.var(rng.choice(names))
        p = p + mono
    return p


def test_ring_arithmetic_axioms_sampled():
    ring, x, y, z = ring_xyz()
    rng = random.Random(10)
    names = ["x", "y", "z"]
    for _ in range(80):
        p = random_poly(ring, names, rng)
        q = random_poly(ring, names, rng)
        r = random_poly(ring, names, rng)
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p - p == ring.zero
        assert (p * q) * r == p * (q * r)


def test_evaluate_commutes_with_arithmetic():
    ring, x, y, z = ring_xyz()
    rng = random.Random(11)
    names = ["x", "y", "z"]
    for _ in range(60):
        p = random_poly(ring, names, rng)
        q = random_poly(ring, names, rng)
        pt = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for n in names}
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


def test_substitute_partial_then_evaluate():
    ring, x, y, z = ring_xyz()
    p = (x + y) ** 2 * z - x * z + ring.const(3)
    partial = p.substitute({"x": Fraction(2)})
    assert partial.variables() == {"y", "z"}
    full = partial.evaluate({"y": Fraction(-1), "z": Fraction(5)})
    assert full == p.evaluate({"x": Fraction(2), "y": Fraction(-1), "z": Fraction(5)})


def test_substitute_refuses_non_constant_polynomials_and_square_roots():
    ring, x, y, z = ring_xyz(Field.R)
    p = x * x + y
    assert p.substitute({"x": Fraction(3)}) == y + 9
    with pytest.raises(FieldMismatchError):
        p.substitute({"x": ring.const(3)})
    with pytest.raises(FieldMismatchError):
        p.substitute({"x": y + z})
    with pytest.raises(FieldMismatchError):
        p.substitute({"x": SqrtValue(Fraction(2))})


def test_degrees():
    ring, x, y, z = ring_xyz()
    p = x * x * y - z + ring.const(1)
    assert p.total_degree() == 3
    assert p.degree_in("x") == 2
    assert p.degree_in("y") == 1
    assert p.degree_in("w") == 0
    assert ring.zero.total_degree() == -INFINITE


def test_pow_and_constant_detection():
    ring, x, y, z = ring_xyz()
    assert (x + 1) ** 0 == ring.one
    assert ring.const(Fraction(7, 2)).is_constant()
    assert ring.const(Fraction(7, 2)).constant_value() == Fraction(7, 2)
    assert not (x + 1).is_constant()
    with pytest.raises(ValueError):
        (x + 1) ** -1


def test_field_mismatch_rejected():
    ring_q = PolyRing(Field.Q, VarTable())
    ring_c = PolyRing(Field.C, VarTable())
    with pytest.raises(FieldMismatchError):
        ring_q.var("x") + ring_c.var("x")
    with pytest.raises(FieldMismatchError):
        ring_q.const(gaussian(0, 1))


def test_complex_ring_accepts_gaussian():
    ring = PolyRing(Field.C, VarTable())
    x = ring.var("x")
    p = x * x + ring.const(1)
    assert p.evaluate({"x": gaussian(0, 1)}) == gaussian(0)


def test_render_canonical_forms():
    ring, x, y, z = ring_xyz()
    # frozen canonical strings: graded order, quantified-first significance
    assert render_poly(x * x - y + 1) == "x^2 - y + 1"
    assert render_poly(ring.zero) == "0"
    assert render_poly(ring.const(Fraction(-3, 2))) == "-3/2"
    assert render_poly(2 * x * y - x * 3) == "2*x*y - 3*x"
    q = PolyRing(Field.R, VarTable())
    r = q.quantified("r")
    w = q.var("w")
    assert render_poly(r * w + w * w, ("r",)) == "r*w + w^2"


def test_render_latex_forms():
    ring, x, y, z = ring_xyz()
    s = render_poly_latex(x ** 2 - ring.const(Fraction(1, 2)) * y)
    assert "x^{2}" in s and "\\tfrac{1}{2}" in s


def test_render_parse_stability():
    # rendering is deterministic under term construction order
    ring, x, y, z = ring_xyz()
    p = x * y + z * z - ring.const(4)
    q = ring.const(-4) + z * z + y * x
    assert render_poly(p) == render_poly(q)


# Gaussian coefficients in both renderings, which no golden reaches (their
# coefficients are rational): (re, im), placement, text, LaTeX.
GAUSSIAN_RENDERINGS = [
    ((0, 1), "constant", "i", "i"),
    ((0, 1), "coefficient", "i*x*y^2", "i x y^{2}"),
    ((0, 1), "non-leading", "x^3 + i*y", "x^{3} + i y"),
    ((0, 1), "trailing constant", "x^3 + i", "x^{3} + i"),
    ((0, -1), "constant", "-i", "-i"),
    ((0, -1), "coefficient", "-i*x*y^2", "-i x y^{2}"),
    ((0, -1), "non-leading", "x^3 - i*y", "x^{3} - i y"),
    ((0, -1), "trailing constant", "x^3 - i", "x^{3} - i"),
    ((0, Fraction(2, 3)), "constant", "2/3*i", "\\tfrac{2}{3}i"),
    ((0, Fraction(2, 3)), "coefficient", "2/3*i*x*y^2", "\\tfrac{2}{3}i x y^{2}"),
    ((0, Fraction(2, 3)), "non-leading", "x^3 + 2/3*i*y", "x^{3} + \\tfrac{2}{3}i y"),
    ((0, Fraction(2, 3)), "trailing constant", "x^3 + 2/3*i", "x^{3} + \\tfrac{2}{3}i"),
    ((0, Fraction(-2, 3)), "constant", "-2/3*i", "-\\tfrac{2}{3}i"),
    ((0, Fraction(-2, 3)), "coefficient", "-2/3*i*x*y^2", "-\\tfrac{2}{3}i x y^{2}"),
    ((0, Fraction(-2, 3)), "non-leading", "x^3 - 2/3*i*y", "x^{3} - \\tfrac{2}{3}i y"),
    ((0, Fraction(-2, 3)), "trailing constant", "x^3 - 2/3*i", "x^{3} - \\tfrac{2}{3}i"),
    ((1, 2), "constant", "(1+2*i)", "(1 + 2i)"),
    ((1, 2), "coefficient", "(1+2*i)*x*y^2", "(1 + 2i)x y^{2}"),
    ((1, 2), "non-leading", "x^3 + (1+2*i)*y", "x^{3} + (1 + 2i)y"),
    ((1, 2), "trailing constant", "x^3 + (1+2*i)", "x^{3} + (1 + 2i)"),
    ((Fraction(-1, 2), -1), "constant", "(-1/2-i)", "(-\\tfrac{1}{2} - i)"),
    ((Fraction(-1, 2), -1), "coefficient", "(-1/2-i)*x*y^2", "(-\\tfrac{1}{2} - i)x y^{2}"),
    ((Fraction(-1, 2), -1), "non-leading", "x^3 + (-1/2-i)*y", "x^{3} + (-\\tfrac{1}{2} - i)y"),
    ((Fraction(-1, 2), -1), "trailing constant", "x^3 + (-1/2-i)", "x^{3} + (-\\tfrac{1}{2} - i)"),
    ((3, Fraction(-2, 7)), "constant", "(3-2/7*i)", "(3 - \\tfrac{2}{7}i)"),
    ((3, Fraction(-2, 7)), "coefficient", "(3-2/7*i)*x*y^2", "(3 - \\tfrac{2}{7}i)x y^{2}"),
    ((3, Fraction(-2, 7)), "non-leading", "x^3 + (3-2/7*i)*y", "x^{3} + (3 - \\tfrac{2}{7}i)y"),
    ((3, Fraction(-2, 7)), "trailing constant", "x^3 + (3-2/7*i)", "x^{3} + (3 - \\tfrac{2}{7}i)"),
    ((5, 0), "constant", "5", "5"),
    ((5, 0), "coefficient", "5*x*y^2", "5 x y^{2}"),
    ((5, 0), "non-leading", "x^3 + 5*y", "x^{3} + 5 y"),
    ((5, 0), "trailing constant", "x^3 + 5", "x^{3} + 5"),
    ((Fraction(-3, 4), 0), "constant", "-3/4", "-\\tfrac{3}{4}"),
    ((Fraction(-3, 4), 0), "coefficient", "-3/4*x*y^2", "-\\tfrac{3}{4} x y^{2}"),
    ((Fraction(-3, 4), 0), "non-leading", "x^3 - 3/4*y", "x^{3} - \\tfrac{3}{4} y"),
    ((Fraction(-3, 4), 0), "trailing constant", "x^3 - 3/4", "x^{3} - \\tfrac{3}{4}"),
    ((1, 0), "constant", "1", "1"),
    ((1, 0), "coefficient", "x*y^2", "x y^{2}"),
    ((1, 0), "non-leading", "x^3 + y", "x^{3} + y"),
    ((1, 0), "trailing constant", "x^3 + 1", "x^{3} + 1"),
    ((-1, 0), "constant", "-1", "-1"),
    ((-1, 0), "coefficient", "-x*y^2", "-x y^{2}"),
    ((-1, 0), "non-leading", "x^3 - y", "x^{3} - y"),
    ((-1, 0), "trailing constant", "x^3 - 1", "x^{3} - 1"),
]


def _gaussian_placement(placement, c):
    ring = PolyRing(Field.C, VarTable())
    x, y, c = ring.var("x"), ring.var("y"), ring.const(c)
    return {
        "constant": c,
        "coefficient": c * x * y**2,
        "non-leading": x**3 + c * y,
        "trailing constant": x**3 + c,
    }[placement]


@pytest.mark.parametrize("parts, placement, text, latex", GAUSSIAN_RENDERINGS)
def test_render_gaussian_coefficients(parts, placement, text, latex):
    p = _gaussian_placement(placement, gaussian(*parts))
    assert render_poly(p) == text
    assert render_poly_latex(p) == latex


def test_render_several_gaussian_terms():
    ring = PolyRing(Field.C, VarTable())
    x, y, a = ring.var("x"), ring.var("y"), ring.quantified("a")

    def g(re, im):
        return ring.const(gaussian(re, im))

    p = g(1, 2) * x**2 - g(0, 1) * x * y + g(Fraction(-1, 2), -1) * y + g(0, Fraction(2, 3))
    q = g(3, Fraction(-2, 7)) * a**2 * x + g(Fraction(-3, 4), 0) * a - g(0, 1) * y**2 + 1
    assert render_poly(p, ("a",)) == "(1+2*i)*x^2 - i*x*y + (-1/2-i)*y + 2/3*i"
    assert render_poly_latex(p, ("a",)) == "(1 + 2i)x^{2} - i x y + (-\\tfrac{1}{2} - i)y + \\tfrac{2}{3}i"
    assert render_poly(q, ("a",)) == "(3-2/7*i)*a^2*x - i*y^2 - 3/4*a + 1"
    assert render_poly_latex(q, ("a",)) == "(3 - \\tfrac{2}{7}i)a^{2} x - i y^{2} - \\tfrac{3}{4} a + 1"


def test_univariate_view_roundtrip():
    ring, x, y, z = ring_xyz()
    p = x ** 3 - 2 * x + 1
    v = as_univariate(p, "x")
    assert v.degree == 3
    assert v.scalars() == [Fraction(1), Fraction(-2), Fraction(0), Fraction(1)]
    assert view_poly(v) == p


def test_a_view_in_a_missing_name_leaves_the_ring_names():
    p = parse("x*y - 1 = 0", Field.Q).term
    view = as_univariate(p, "t")
    assert view.degree == 0
    assert view_poly(view) == p
    assert p.ring.table.free_names() == ("x", "y")


def test_univariate_scalars_reject_extra_variables():
    # the view itself is lazy; asking for rational coefficients is what fails
    ring, x, y, z = ring_xyz()
    view = as_univariate(x * y + x, "x")
    assert view.degree == 1
    with pytest.raises(ValueError):
        view.scalars()


def test_gcd_known_cases():
    ring = PolyRing(Field.Q, VarTable())
    x = ring.var("x")
    a = as_univariate((x - 1) * (x + 2), "x")
    b = as_univariate((x - 1) * (x - 3), "x")
    g = gcd_univariate(a, b)
    assert view_poly(g) == x - 1  # monic
    c = as_univariate(ring.one, "x")
    assert view_poly(gcd_univariate(a, c)) == ring.one


def test_squarefree_part_known_cases():
    ring = PolyRing(Field.Q, VarTable())
    x = ring.var("x")
    p = as_univariate((x - 1) ** 3 * (x + 2), "x")
    sf = squarefree_part(p)
    assert view_poly(sf) == (x - 1) * (x + 2)
    lin = as_univariate(x + 5, "x")
    assert view_poly(squarefree_part(lin)) == x + 5


def test_sturm_known_counts():
    ring = PolyRing(Field.R, VarTable())
    x = ring.var("x")
    cases = [
        (x * x - 2, 2),
        (x * x + 1, 0),
        ((x - 1) * (x - 2) * (x - 3), 3),
        ((x - 1) ** 2, 1),           # multiplicity collapses
        (x ** 5 - x, 3),
        (ring.const(7) + 0 * x, 0),
    ]
    for p, want in cases:
        assert count_real_roots(as_univariate(p, "x")) == want, p


def test_sturm_zero_polynomial_is_infinite():
    ring = PolyRing(Field.R, VarTable())
    ring.var("x")
    v = univariate_from_scalars(ring, "x", [])
    assert count_real_roots(v) == INFINITE


def test_sturm_agrees_with_grid_scanner():
    ring = PolyRing(Field.R, VarTable())
    x = ring.var("x")
    rng = random.Random(12)
    for _ in range(120):
        deg = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-12, 12)) for _ in range(deg)]
        coeffs.append(Fraction(rng.randint(1, 12) * rng.choice((1, -1))))
        p = ring.zero
        for i, c in enumerate(coeffs):
            p = p + ring.const(c) * x ** i
        want = count_real_roots(as_univariate(p, "x"))
        assert scan_real_roots(coeffs, target=want) == want


def test_sturm_matches_sympy_spot_check():
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(Field.R, VarTable())
    x = ring.var("x")
    sx = sympy.Symbol("x")
    rng = random.Random(13)
    for _ in range(40):
        coeffs = [rng.randint(-20, 20) for _ in range(rng.randint(1, 7))] + [rng.randint(1, 20)]
        p = ring.zero
        sp = sympy.Integer(0)
        for i, c in enumerate(coeffs):
            p = p + ring.const(c) * x ** i
            sp += c * sx ** i
        want = len(sympy.Poly(sp, sx).real_roots(multiple=False))
        assert count_real_roots(as_univariate(p, "x")) == want


def test_field_from_letter():
    assert Field.from_letter("C") is Field.C
    assert Field.from_letter("r") is Field.R
    with pytest.raises(ValueError):
        Field.from_letter("Z")


def test_evaluate_names_a_variable_the_point_lacks():
    ring = PolyRing(Field.Q)
    p = ring.var("x") * ring.var("y")
    with pytest.raises(UnexpectedVariablesError, match="'y'"):
        p.evaluate({"x": Fraction(1)})


def test_univariate_view_in_a_name_the_ring_lacks_leaves_the_ring_alone():
    p = parse("x*y - 1 = 0", Field.Q).term
    view = as_univariate(p, "t")
    assert p.ring.table.free_names() == ("x", "y")
    assert view.degree == 0 and view.coeffs == (p,)


def test_polynomials_of_two_rings_compare_by_names():
    a = PolyRing(Field.Q, VarTable())
    b = PolyRing(Field.Q, VarTable())
    b.var("y")
    assert a.var("x") * 2 + 1 == b.var("x") * 2 + 1
    assert a.var("x") + 1 != b.var("y") + 1
    assert a.var("x") != PolyRing(Field.R, VarTable()).var("x")


def test_gcd_of_views_in_two_variables_is_refused():
    ring, x, y, z = ring_xyz()
    with pytest.raises(ValueError):
        gcd_univariate(as_univariate(x + 1, "x"), as_univariate(y + 1, "y"))


def test_real_roots_over_c_are_refused():
    ring, x, y, z = ring_xyz(Field.C)
    with pytest.raises(FieldMismatchError):
        count_real_roots(as_univariate(x * x - 2, "x"))
