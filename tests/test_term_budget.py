"""The parser's term budget: one product or power may multiply out at most
MAX_TERM_PRODUCTS term products, checked before it is multiplied out."""

import json
import time
from math import comb

import pytest

from boolelim.cli import EXIT_SIZE, main
from boolelim.errors import SizeLimitError
from boolelim.formula import _power_products, parse
from boolelim.poly import MAX_TERM_PRODUCTS, Field


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
