"""Size budgets: one parsed product or power, and one expansion of an
equation's layout, may multiply out at most MAX_TERM_PRODUCTS term products,
checked before each multiplication; a parsed formula or term nests at most
MAX_NESTING_DEPTH parentheses, negations and signs."""

import io
import json
import sys
import time
from math import comb

import pytest

from boolelim.cli import EXIT_PARSE, EXIT_SIZE, main
from boolelim.errors import SizeLimitError
from boolelim.formula import _power_products, parse
from boolelim.poly import MAX_NESTING_DEPTH, MAX_TERM_PRODUCTS, Field


def test_power_products_follow_the_closed_form():
    for n in range(2, 7):
        for e in range(0, 40):
            want = n * (comb(e + n - 1, n) - 1) if e else 0
            got = _power_products(n, e)
            if want <= MAX_TERM_PRODUCTS:
                assert got == want, (n, e)
            else:
                assert got > MAX_TERM_PRODUCTS, (n, e)
    assert _power_products(1, 10**9) == 0  # a power of one term stays one term
    assert _power_products(10**6, 10**6) > MAX_TERM_PRODUCTS


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


def test_deeply_nested_equation_file_is_bad_json(tmp_path):
    path = tmp_path / "eq.json"
    path.write_text("[" * 100_000)
    assert main(["decide", "--input", str(path), "--point", "y=1"]) == EXIT_PARSE


def test_power_budget_counts_the_products_squaring_performs(monkeypatch):
    """(a + b + c + 1)^e has C(e + 3, 3) terms, the bound, so the count is
    exact: it equals the term products MultiPoly.__mul__ sees."""
    from boolelim.formula import _squaring_products
    from boolelim.poly import MultiPoly, PolyRing

    ring = PolyRing(Field.Q)
    names = ("a", "b", "c")
    spent = 0
    mul = MultiPoly.__mul__

    def counting(p, q):
        nonlocal spent
        spent += len(p.terms) * len(q.terms)
        return mul(p, q)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    for n in range(1, 5):
        base = sum((ring.var(v) for v in names[: n - 1]), ring.one)
        for e in range(0, 24):
            want = _squaring_products(n, e)
            if want > 20_000:
                continue
            spent = 0
            base**e
            assert spent == want, (n, e)
    assert _squaring_products(4, 28) == 475_271 > MAX_TERM_PRODUCTS


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
