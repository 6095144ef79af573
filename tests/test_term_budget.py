"""Size budgets: one parsed product chain or power, one construction, one
expansion of an equation's layout and one exact degree check may each
multiply out at most MAX_TERM_PRODUCTS term products, charged before each
multiplication, a power's products as it squares; a power of a scalar may
reach at most MAX_POWER_BITS bits, charged before it is taken; a parsed
formula or term nests at most MAX_NESTING_DEPTH parentheses, negations and
signs."""

import io
import json
import sys
import time
from fractions import Fraction

import pytest

from boolelim import poly
from boolelim.cli import EXIT_OK, EXIT_PARSE, EXIT_SIZE, main
from boolelim.elim import Shape, SqrtValue, compile_formula
from boolelim.exactnum import IMAG_UNIT, GaussianRational
from boolelim.errors import SizeLimitError
from boolelim.formula import parse, parse_term
from boolelim.poly import (
    MAX_NESTING_DEPTH,
    MAX_POWER_BITS,
    MAX_TERM_PRODUCTS,
    Field,
    MultiPoly,
    PolyRing,
    charge_power,
)
from test_layout_fold import plain_fold


def test_wide_product_is_refused_before_it_is_multiplied():
    left = " + ".join(f"x{k}" for k in range(600))
    right = " + ".join(f"y{k}" for k in range(600))
    with pytest.raises(SizeLimitError, match="term products"):
        parse(f"({left}) * ({right}) = 0", Field.Q)


def test_chained_product_counts_every_step():
    # 400 terms times nine binomials: no single step passes the budget (the
    # last pairs 400 * 2^8 terms with 2), but the chain does
    factor = "(" + " + ".join(f"x{k}" for k in range(400)) + ")"
    binomials = [f"(a{k} + b{k})" for k in range(9)]
    assert 400 * 2**8 * 2 <= MAX_TERM_PRODUCTS < 800 * (2**9 - 1)
    with pytest.raises(SizeLimitError):
        parse(" * ".join([factor, *binomials]) + " = 0", Field.Q)


def test_huge_power_in_an_equation_file_exits_4_at_once(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({
        "field": "C", "prefix": [["exists", "a"], ["forall", "b"]], "vars": ["y"],
        "equation": "(a+1)^2000*b - y", "shape": "EA_C", "counts": {},
    }))
    t0 = time.perf_counter()
    assert main(["decide", "--input", str(path), "--point", "y=1"]) == EXIT_SIZE
    assert time.perf_counter() - t0 < 1.0


def _cli(monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    return main(argv, out=io.StringIO())


def test_expansion_past_the_budget_exits_4_at_once(monkeypatch):
    """One clause of three order literals gives E3d_Q six gadget factors of 7
    to 10 terms. Their product has 2404 terms, and squaring it would multiply
    out 2404^2, about 5.8 million, term products."""
    argv = ["eliminate", "--field", "q", "--form", "e3d", "--output", "json"]
    t0 = time.perf_counter()
    assert _cli(monkeypatch, argv, "(x - z > 3 \\/ y*z > 1 \\/ x + z > 2)") == EXIT_SIZE
    assert time.perf_counter() - t0 < 2.0


def _cancelling_clauses(k: int, width: int) -> str:
    """Two clauses of k equations of width distinct variables each, the
    second negating the first's terms: for odd k their clause products sum
    to zero, so the leading coefficient of the forall-exists selector sum
    cancels at every sample and the degree report checks it exactly, on the
    expanded clause products."""
    terms = [" + ".join(f"x{j}_{m}" for m in range(width)) for j in range(k)]
    first = " \\/ ".join(f"{t} = 0" for t in terms)
    second = " \\/ ".join(f"-({t}) = 0" for t in terms)
    return f"({first}) /\\ ({second})"


@pytest.mark.parametrize("argv", [
    ["report", "--field", "c", "--form", "ae"],
    ["eliminate", "--field", "c", "--form", "ae", "--output", "latex"],
], ids=["report", "latex"])
def test_exact_degree_check_past_the_budget_exits_4_at_once(monkeypatch, argv):
    """The product of three 70-term equations would multiply out 4900 * 70,
    343,000, term products in its last step alone."""
    t0 = time.perf_counter()
    assert _cli(monkeypatch, argv, _cancelling_clauses(3, 70)) == EXIT_SIZE
    assert time.perf_counter() - t0 < 2.0


def test_exact_degree_check_of_nine_cancelling_equations_is_quick(monkeypatch):
    """Nine three-term equations per clause: the check multiplies out one
    moment, two 19,683-term clause products, in one integer pass, and
    finds it zero, so the forall degree is below 2d - 1 and not exact."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(_cancelling_clauses(9, 3)))
    out = io.StringIO()
    t0 = time.perf_counter()
    assert main(["report", "--field", "c", "--form", "ae", "--output", "json"], out=out) == EXIT_OK
    assert time.perf_counter() - t0 < 0.3
    rep = json.loads(out.getvalue())
    assert (rep["degrees"], rep["bounds"], rep["exact"]) == (
        {"a": 2, "b": 1}, {"a": 3, "b": 1}, {"a": False, "b": False}
    )


def test_exact_degree_check_of_moments_that_cancel_twice_reports_the_plain_degrees(monkeypatch):
    """Clause products A, -2A and A of nine three-term equations each: the
    moments sum_i i^k * A_i vanish for k = 0 and 1, so both are checked
    exactly. Each A_i is multiplied out and charged once for both moments,
    which fits the budget, and the report reads the degrees of the plain
    MultiPoly fold of the construction."""
    terms = [f"x{j} + y{j} + 1" for j in range(1, 10)]
    scaled = [[""] * 9, ["-2*"] + [""] * 8, ["-", "-"] + [""] * 7]
    text = " /\\ ".join(
        "(" + " \\/ ".join(f"{s}({t}) = 0" for s, t in zip(row, terms)) + ")" for row in scaled
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    out = io.StringIO()
    assert main(["report", "--field", "c", "--form", "ae", "--output", "json"], out=out) == EXIT_OK
    rep = json.loads(out.getvalue())
    qe = compile_formula(parse(text, Field.C), Shape.AE_C, Field.C)
    assert qe.provenance.d == 3
    expanded = plain_fold(qe)
    assert rep["degrees"] == {z: expanded.degree_in(z) for z in ("a", "b")} == {"a": 3, "b": 1}


_LITERALS = r"x1 + y1 + 1 != 0 /\ x2 + y2 + 1 != 0 /\ z + 1 = 0"
_ORDERS = r"x1 + y1 + 1 > 0 \/ x2 + y2 + 1 > 0 \/ z + 1 = 0"


@pytest.mark.parametrize("shape,fld,text,spent", [
    # u = (x1 + y1 + 1)(x2 + y2 + 1) takes 1*3 + 3*3, a*u 9, (z + 1)*b 2
    (Shape.EA_C, Field.C, _LITERALS, 23),
    # u 12, r*u 9, the 10-term gadget squared 100, (z + 1)^2 4
    (Shape.E_R, Field.R, _LITERALS, 125),
    # each order term times the gadget base: r_i^2 over R, three squares over Q
    (Shape.Ed_R, Field.R, _ORDERS, 6),
    (Shape.E3d_Q, Field.Q, _ORDERS, 18),
    (Shape.AE_C, Field.C, _ORDERS.replace(">", "!="), 6),
    (Shape.AE_R, Field.R, _ORDERS, 6),
    (Shape.AE3_Q, Field.Q, _ORDERS, 18),
], ids=lambda v: v.value if isinstance(v, Shape) else None)
def test_construction_charges_its_literal_products(monkeypatch, shape, fld, text, spent):
    """A construction builds within a budget of exactly the term products of
    its literals' terms, and not one less; the selectors and the guard are
    written from integer node coefficients, with no product to charge (the
    selectors' d * d terms go to a budget of their own)."""
    phi = parse(text, fld)
    monkeypatch.setattr(poly, "MAX_TERM_PRODUCTS", spent)
    compile_formula(phi, shape, fld)
    monkeypatch.setattr(poly, "MAX_TERM_PRODUCTS", spent - 1)
    with pytest.raises(SizeLimitError, match="building the construction"):
        compile_formula(phi, shape, fld)


def _literal_chain(k: int) -> str:
    return " /\\ ".join(f"x{j} + y{j} + 1 != 0" for j in range(1, k + 1))


@pytest.mark.parametrize("form,field,k,seconds", [
    ("e", "r", 5, None),
    ("e", "r", 6, 1.0),
    ("ea", "c", 12, 3.0),
])
def test_construction_past_the_budget_exits_4_at_once(monkeypatch, form, field, k, seconds):
    """The exists-real gadget 1 - r*u of k three-term literals has 3^k + 1
    terms and is squared: 244^2 term products fit the budget at k = 5,
    730^2 do not at k = 6. Over C, u alone takes 3 + 9 + ... + 3^k term
    products, past the budget from k = 11 on; unbudgeted, each literal
    past that would triple the time the construction takes."""
    argv = ["eliminate", "--field", field, "--form", form, "--output", "latex"]
    t0 = time.perf_counter()
    code = _cli(monkeypatch, argv, _literal_chain(k))
    if seconds is None:
        assert code == 0
    else:
        assert code == EXIT_SIZE
        assert time.perf_counter() - t0 < seconds


@pytest.mark.parametrize("form,field", [("ae", "c"), ("ae", "r"), ("ae3", "q")])
def test_selectors_past_the_budget_exit_4_at_once(monkeypatch, form, field):
    """A forall-first construction writes d selectors of d terms each: at
    d = 600, 360,000 terms, past the budget that admits d = 512. Unbudgeted,
    time and memory grow faster than d^2: at d = 1000 the report took
    seconds and about 1 GB."""
    text = " /\\ ".join(f"x{j} = 0" for j in range(1, 601))
    t0 = time.perf_counter()
    assert _cli(monkeypatch, ["report", "--field", field, "--form", form], text) == EXIT_SIZE
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("text", [
    "(" * 196 + "x = 0" + ")" * 196,
    "~" * 979 + "x = 0",
    "-" * 979 + "x = 0",
], ids=["parentheses", "negations", "signs"])
def test_deep_nesting_exits_4(monkeypatch, text):
    assert _cli(monkeypatch, ["eliminate", "--field", "q", "--form", "e"], text) == EXIT_SIZE


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING_DEPTH
    parse("(" * depth + "x = 0" + ")" * depth, Field.Q)
    parse("(" * (depth - 1) + "(x) = 0" + ")" * (depth - 1), Field.Q)
    with pytest.raises(SizeLimitError, match="nesting"):
        parse("(" * depth + "(x) = 0" + ")" * depth, Field.Q)


def test_deep_parentheses_around_a_wide_power_report_at_once(monkeypatch):
    """Each parenthesis is read once. Reading each group first as a term,
    then again as a formula, multiplied the power out once per level: this
    437-byte formula took about 19 s."""
    text = "(" * 99 + "(" + "+".join(f"x{k}" for k in range(1, 61)) + ")^3 = 0" + ")" * 99
    t0 = time.perf_counter()
    parse(text, Field.Q)
    assert _cli(monkeypatch, ["report", "--field", "q", "--form", "e3d"], text) == EXIT_OK
    assert time.perf_counter() - t0 < 2.0


def test_deeply_nested_equation_file_is_bad_json(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text("[" * 100_000)
    assert main(["decide", "--input", str(path), "--point", "y=1"]) == EXIT_PARSE


def _squaring_products(monkeypatch, base, e: int) -> int:
    """The term products base ** e performs, counted on MultiPoly.__mul__."""
    spent = 0
    mul = MultiPoly.__mul__

    def counting(p, q):
        nonlocal spent
        spent += len(p.terms) * len(q.terms)
        return mul(p, q)

    with monkeypatch.context() as m:
        m.setattr(MultiPoly, "__mul__", counting)
        base**e
    return spent


def _parses_within(monkeypatch, text: str, budget: int) -> bool:
    with monkeypatch.context() as m:
        m.setattr(poly, "MAX_TERM_PRODUCTS", budget)
        try:
            parse_term(text, PolyRing(Field.Q))
        except SizeLimitError:
            return False
    return True


def test_power_budget_is_the_products_squaring_performs(monkeypatch):
    """A parsed power fits a budget of exactly the term products its
    squaring performs, and not one less."""
    names = ("a", "b", "c")
    for n in range(1, 5):
        text = " + ".join(("1", *names[: n - 1]))
        base = parse_term(text, PolyRing(Field.Q))
        for e in range(1, 24):
            spent = _squaring_products(monkeypatch, base, e)
            assert _parses_within(monkeypatch, f"({text})^{e}", spent), (n, e)
            assert not _parses_within(monkeypatch, f"({text})^{e}", spent - 1), (n, e)


@pytest.mark.parametrize("e,spent", [(100, 15_729), (400, 245_179)])
def test_power_whose_squaring_fits_the_budget_parses(monkeypatch, e, spent):
    """(1 + x + x^2)^e has 2e + 1 terms, far fewer than the C(e + 2, 2) a
    three-term base can reach, and its squaring fits the budget."""
    base = parse_term("1 + x + x^2", PolyRing(Field.Q))
    assert _squaring_products(monkeypatch, base, e) == spent <= MAX_TERM_PRODUCTS
    assert len(parse_term(f"(1 + x + x^2)^{e}", PolyRing(Field.Q)).terms) == 2 * e + 1
    assert not _parses_within(monkeypatch, f"(1 + x + x^2)^{e}", spent - 1)


def test_power_squaring_past_the_budget_is_refused(monkeypatch):
    base = parse_term("a + b + c + 1", PolyRing(Field.Q))
    assert _squaring_products(monkeypatch, base, 28) == 475_271 > MAX_TERM_PRODUCTS
    with pytest.raises(SizeLimitError, match="the power at position 15"):
        parse_term("(a + b + c + 1)^28", PolyRing(Field.Q))


def test_power_squaring_past_the_budget_exits_4_at_once(tmp_path):
    """Multiplied out as e - 1 products p * p^k, (a+b+c+1)^28 would take
    125,856 term products, under the budget; squaring takes 475,271."""
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({
        "field": "C", "prefix": [["exists", "a"], ["forall", "b"]], "vars": ["y"],
        "equation": "(a+b+c+1)^28*b - y", "shape": "EA_C", "counts": {},
    }))
    t0 = time.perf_counter()
    assert main(["decide", "--input", str(path), "--point", "y=1"]) == EXIT_SIZE
    assert time.perf_counter() - t0 < 1.0


def test_power_bits_are_the_exponent_times_the_larger_bit_length():
    """3 and 1/3 have 2 bits, 1 + i one per part; 0 and the units are free."""
    for v in (Fraction(3), Fraction(1, 3), Fraction(-3, 2)):
        charge_power(v, MAX_POWER_BITS // 2)
        with pytest.raises(SizeLimitError, match="bits"):
            charge_power(v, MAX_POWER_BITS // 2 + 1)
    charge_power(GaussianRational(Fraction(1), Fraction(1)), MAX_POWER_BITS)
    with pytest.raises(SizeLimitError):
        charge_power(GaussianRational(Fraction(1), Fraction(1)), MAX_POWER_BITS + 1)
    for v in (Fraction(0), Fraction(1), Fraction(-1), IMAG_UNIT, -IMAG_UNIT):
        charge_power(v, 10**9)


def test_square_root_powers_are_charged_by_the_radicand_at_half_the_exponent():
    ring = PolyRing(Field.R)
    y = parse_term(f"y^{MAX_POWER_BITS}", ring)
    assert y.evaluate({"y": SqrtValue(Fraction(3))}) == 3 ** (MAX_POWER_BITS // 2)
    with pytest.raises(SizeLimitError):
        parse_term(f"y^{MAX_POWER_BITS + 2}", ring).evaluate({"y": SqrtValue(Fraction(3))})


def test_power_of_a_variable_or_a_unit_is_free(monkeypatch):
    """x^1000000000 parses and its equation decides at 0 and the units."""
    argv = ["eliminate", "--field", "r", "--form", "e", "--output", "json"]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO("y^1000000000 = 0 \\/ z != 0"))
    assert main(argv, out=out) == EXIT_OK
    for point, verdict in (("y=0,z=0", "TRUE"), ("y=1,z=0", "FALSE"), ("y=-1,z=0", "FALSE")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(out.getvalue()))
        printed = io.StringIO()
        assert main(["decide", "--point", point], out=printed) == EXIT_OK
        assert printed.getvalue().strip() == verdict


@pytest.mark.parametrize("argv,text", [
    (["report", "--field", "c", "--form", "ae"], "y^4000000 = 0 /\\ z = 0"),
    (["verify", "--field", "r", "--form", "e", "--seed", "1", "--points", "8"],
     "y^300000 = 0 \\/ z != 0"),
    (["eliminate", "--field", "q", "--form", "e"], "3^1000000000*x = 0"),
], ids=["report", "verify", "parse"])
def test_power_past_the_bit_cap_exits_4_at_once(monkeypatch, argv, text):
    """The degree report's samples evaluate y at up to 17 (5 bits), verify's
    points have up to 6 bits, and the parser's power of 3 has 2 bits per
    unit of the exponent: each passes MAX_POWER_BITS many times over."""
    t0 = time.perf_counter()
    assert _cli(monkeypatch, argv, text) == EXIT_SIZE
    assert time.perf_counter() - t0 < 1.0


def test_decide_past_the_bit_cap_exits_4_at_once(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO("y^4000000 = 0 \\/ z != 0"))
    assert main(["eliminate", "--field", "r", "--form", "e", "--output", "json"], out=out) == EXIT_OK
    t0 = time.perf_counter()
    assert _cli(monkeypatch, ["decide", "--point", "y=3/2,z=0"], out.getvalue()) == EXIT_SIZE
    assert time.perf_counter() - t0 < 1.0
