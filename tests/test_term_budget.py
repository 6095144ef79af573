"""Size budgets: one parsed product or power, and one expansion of an
equation's layout, may multiply out at most MAX_TERM_PRODUCTS term products,
checked before each multiplication; a parsed formula or term nests at most
MAX_NESTING_DEPTH parentheses, negations and signs."""

import io
import json
import sys
import time

import pytest

from boolelim.cli import EXIT_PARSE, EXIT_SIZE, main
from boolelim.errors import SizeLimitError
from boolelim.formula import parse
from boolelim.poly import MAX_NESTING_DEPTH, MAX_TERM_PRODUCTS, Field


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
