"""The one-pass integer fold of an equation's layout and the packed render.

`QuantifiedEquation.equation` multiplies guard * sum_i (prod_j f_ij)^power out
on packed integer terms and keeps them packed, in render order for its
quantified names, building its term dict only when `.terms` is read. Here
that dict, read directly or after a render, is compared with the same layout
multiplied out by plain MultiPoly products and sums, for every shape and for
hand-made layouts with a non-unit guard under a square, shared factors and
mixed Gaussian coefficients. Its TermBudget must be charged the products the
plain fold would take, in their order, so SizeLimitError fires at the same
spent count. The render straight from the packed expansion must equal the
render of a plain MultiPoly holding its terms, and a JSON round trip must
never build the expansion's term dict. The renderer sorts terms by one packed
int per term; its order is checked against a (total degree, exponents by
significance) sort key over many variables and exponents on both sides of a
power of two.
"""

import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from boolelim import elim, poly
from boolelim.elim import QuantifiedEquation, Shape, build_for_shape, from_json, to_json
from boolelim.errors import SizeLimitError
from boolelim.exactnum import gaussian
from boolelim.poly import Field, MultiPoly, PolyRing, TermBudget, render_poly, render_poly_latex
from oracles import SHAPE_SETUPS, make_true_instance


def plain_fold(qe, times=operator.mul):
    """The layout multiplied out by MultiPoly products and sums, each product
    taken by times."""
    one = qe.ring.one
    values = [reduce(times, a or (one,)) for a in qe.addends]
    if qe.power == 2:
        values = [times(v, v) for v in values]
    total = sum(values[1:], values[0]) if values else qe.ring.zero
    if len(qe.guard.terms) == 1 and qe.guard.terms.get(()) == 1:
        return total
    return times(qe.guard, total)


def constructions():
    for k, shape in enumerate(Shape):
        fld, kind, ineq = SHAPE_SETUPS[shape]
        rng = random.Random(2100 + k)
        for _ in range(6):
            m, _ = make_true_instance(rng, fld, kind, ineq, max_clauses=3, max_f=1)
            yield build_for_shape(shape, m)


def hand_made_layouts():
    """Layouts over C with mixed Gaussian coefficients: each power with and
    without a guard, a factor shared by two addends and repeated within
    one, an empty addend, and no addend at all."""
    ring = PolyRing(Field.C)
    x, y, a = ring.var("x"), ring.var("y"), ring.quantified("a")
    f = x**2 * gaussian(1, 2) - y * gaussian(Fraction(1, 3), -1) + gaussian(0, Fraction(5, 7))
    g = x * y - a * gaussian(Fraction(-3, 4), Fraction(1, 2)) + 2
    h = a**3 - x * gaussian(0, 1)
    guard = ring.one - a * (a - 1) * gaussian(2, -1)
    layouts = [((f, g), (g, h, h)), ((f,), (), (g, h)), ((h,),), ()]
    for addends in layouts:
        for power in (1, 2):
            for gd in (None, guard):
                yield QuantifiedEquation(
                    Field.C, (("exists", "a"),), Shape.EA_C, ring,
                    guard=gd, addends=addends, power=power,
                )


def test_the_fold_equals_plain_products_and_sums():
    """The term dict of the expansion, read at once or after a render."""
    seen = set()
    for render_first in (False, True):
        for qe in (*constructions(), *hand_made_layouts()):
            if render_first:
                render_poly(qe.equation, qe.quantified_names())
            assert qe.equation == plain_fold(qe), (qe.shape, render_first)
            seen.add((qe.shape, qe.power, len(qe.guard.terms) > 1))
    assert {s for s, _, _ in seen} == set(Shape)
    assert {s[1:] for s in seen} == {(1, False), (1, True), (2, False), (2, True)}


def test_a_full_point_substitution_is_the_scalar_value():
    for qe in hand_made_layouts():
        point = {"x": gaussian(1, -2), "y": Fraction(3, 5), "a": gaussian(0, 1)}
        value = qe.substituted_equation(point).constant_value()
        assert value == qe.equation.evaluate(point)


def _fold_spent(qe, monkeypatch):
    """(fired, spent) of the one budget the fold charges."""
    made = []

    class Recorded(TermBudget):
        def __init__(self, what):
            super().__init__(what)
            made.append(self)

    with monkeypatch.context() as patched:
        patched.setattr(elim, "TermBudget", Recorded)
        try:
            qe._expand()
            fired = False
        except SizeLimitError:
            fired = True
    (budget,) = made
    return fired, budget.spent


def _plain_spent(qe):
    budget = TermBudget("the plain fold")
    try:
        plain_fold(qe, budget.times)
        return False, budget.spent
    except SizeLimitError:
        return True, budget.spent


def test_the_budget_fires_at_the_same_spent_count(monkeypatch):
    layouts = [*hand_made_layouts(), *constructions()]
    fired = 0
    for qe in layouts:
        _, total = _plain_spent(qe)
        for limit in sorted({0, 1, total // 3, total // 2, total - 1, total}):
            monkeypatch.setattr(poly, "MAX_TERM_PRODUCTS", limit)
            want = _plain_spent(qe)
            assert _fold_spent(qe, monkeypatch) == want, (qe.shape, limit)
            fired += want[0]
    assert fired > len(layouts)


# -- the packed render -------------------------------------------------------------


def test_render_order_over_many_variables_and_wide_exponents():
    """Terms come out by total degree, then by exponents in significance
    order (the quantified names as given, then the free names by name),
    with exponents up to 300 across 12 variables, so some fields need 9
    bits; each term reads as it renders alone."""
    ring = PolyRing(Field.Q)
    free = [f"x{k}" for k in (3, 11, 1, 7, 10, 2, 5, 9, 4)]
    quantified = ["b", "a", "c"]
    for n in free:
        ring.var(n)
    for n in quantified:
        ring.quantified(n)
    significance = quantified + sorted(free)
    rng = random.Random(21)
    for _ in range(20):
        p = ring.zero
        for _ in range(rng.randint(1, 25)):
            term = ring.const(Fraction(rng.randint(-40, 40), rng.randint(1, 6)))
            for n in rng.sample(significance, rng.randint(0, 5)):
                v = ring.quantified(n) if n in quantified else ring.var(n)
                term = term * v ** rng.choice((1, 2, 127, 128, 255, 256, 300))
            p = p + term

        def key(item):
            exps = dict((ring.table.name_of(i), e) for i, e in item[0])
            return (sum(exps.values()), [exps.get(n, 0) for n in significance])

        for render in (render_poly, render_poly_latex):
            pieces = [
                render(poly.MultiPoly(ring, {m: c}), quantified)
                for m, c in sorted(p.terms.items(), key=key, reverse=True)
            ]
            want = pieces[0] if pieces else "0"
            for piece in pieces[1:]:
                want += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
            assert render(p, quantified) == want


def test_render_of_exponents_across_a_power_of_two():
    ring = PolyRing(Field.Q)
    x, y = ring.var("x"), ring.var("y")
    p = x**255 * y + x * y**256 + x**256 - Fraction(3, 2) * x**2 * y**255 + y**255 + x
    assert render_poly(p) == "-3/2*x^2*y^255 + x*y^256 + x^256 + x^255*y + y^255 + x"
    assert render_poly_latex(p) == (
        "-\\tfrac{3}{2} x^{2} y^{255} + x y^{256} + x^{256} + x^{255} y + y^{255} + x"
    )
    ring = PolyRing(Field.C)
    x, y, a = ring.var("x"), ring.var("y"), ring.quantified("a")
    q = a * x**255 * gaussian(Fraction(-1, 2), -1) + y**256 * gaussian(0, -3) + a**256
    assert render_poly(q, ("a",)) == "a^256 + (-1/2-i)*a*x^255 - 3*i*y^256"
    assert render_poly_latex(q, ("a",)) == "a^{256} + (-\\tfrac{1}{2} - i)a x^{255} - 3i y^{256}"


def _render_layouts():
    """Equations whose expansions the packed render must spell as a plain
    MultiPoly of the same terms: the constructions of all seven shapes, the
    Gaussian hand-made layouts, quantified names that sort after the free
    ones in a ring registered out of name order, and a zero expansion."""
    yield from constructions()
    yield from hand_made_layouts()
    ring = PolyRing(Field.Q)
    y, c, x, a = (ring.var(n) for n in ("y", "c", "x", "a"))
    z, w = ring.quantified("z"), ring.quantified("w")
    f = z * w**2 * y - Fraction(3, 4) * x**3 + a * c + Fraction(1, 6)
    g = w**3 - z * a**2 + Fraction(-5, 3) * y * x
    for prefix in ((("exists", "z"), ("forall", "w")), (("forall", "w"), ("exists", "z"))):
        yield QuantifiedEquation(Field.Q, prefix, Shape.AE3_Q, ring, addends=((f, g), (g,)), power=2)
    yield QuantifiedEquation(Field.Q, (("exists", "z"),), Shape.E_R, ring, addends=((f, g), (-f, g)))


def test_the_packed_render_equals_the_render_of_its_terms():
    spelled = set()
    for qe in _render_layouts():
        names = qe.quantified_names()
        plain = MultiPoly(qe.ring, dict(qe.equation.terms))
        for render in (render_poly, render_poly_latex):
            got = render(qe.equation, names)
            assert got == render(plain, names), (qe.shape, qe.prefix)
            spelled.add(got)
    assert "0" in spelled
    assert any("i*" in text for text in spelled)


def test_a_json_round_trip_never_builds_the_expansion_terms(monkeypatch):
    """to_json and from_json's compare render the packed expansions; building
    their term dicts, monomial tuples and field scalars, raises here."""
    expansions = []
    expand = QuantifiedEquation._expand

    def recorded(self, x=None):
        expansions.append(expand(self, x))
        return expansions[-1]

    build_terms = poly.PackedPoly.__getattr__

    def refused(self, name):
        if any(self is p for p in expansions):
            raise AssertionError("the expansion's term dict was built")
        return build_terms(self, name)

    monkeypatch.setattr(QuantifiedEquation, "_expand", recorded)
    monkeypatch.setattr(poly.PackedPoly, "__getattr__", refused)
    for qe in constructions():
        text = to_json(qe)
        assert to_json(from_json(text)) == text
    assert len(expansions) == 2 * 42
