"""The four workloads: set-up (generate, compile, warm) and one op each.

Ops reach boolelim only through the module namespace `bx` at call time, so
the tracer can rebind names underneath them. An op returns True when its
result matched the reference; the timing loop counts an exception as a
failed op.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import gen

MODULES = ("cli", "decide", "elim", "exactnum", "formula", "poly")
STRUCTURED = ("Ed_R", "AE_R", "E3d_Q", "AE3_Q")


def load_boolelim() -> SimpleNamespace:
    """Import boolelim afresh, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "boolelim" or n.startswith("boolelim.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"boolelim.{m}") for m in MODULES})


def _scalar(bx, field: str, pair):
    re, im = Fraction(pair[0]), Fraction(pair[1])
    if field == "c":
        return bx.exactnum.GaussianRational(re, im)
    return re


def _compile(bx, shape: str, text: str):
    field, kind = gen.SHAPES[shape][:2]
    phi = bx.formula.parse(text, bx.poly.Field(field.upper()))
    m = bx.formula.to_dnf(phi) if kind == "DNF" else bx.formula.to_cnf(phi)
    return bx.elim.build_for_shape(bx.elim.Shape(shape), m)


# -- decide_small, decide_wide -------------------------------------------------


def prepare_decide(bx, cases):
    """Compile every equation and warm the structured deciders' cache."""
    items = []
    for c in cases:
        field = gen.SHAPES[c.shape][0]
        qe = _compile(bx, c.shape, c.formula)
        point = {n: _scalar(bx, field, v) for n, v in c.point.items()}
        items.append((bx.elim.Shape(c.shape), qe, point, c.expected))
    for shape, qe, point, _ in items:
        if shape.value in STRUCTURED:
            bx.decide.decider_for_shape(shape)(qe, point)
    return items


def op_decide(bx, item) -> bool:
    shape, qe, point, expected = item
    return bx.decide.decider_for_shape(shape)(qe, point) == expected


# -- witness -------------------------------------------------------------------


def prepare_witness(bx, cases):
    items = []
    for c in cases:
        field = gen.SHAPES[c.shape][0]
        qe = _compile(bx, c.shape, c.formula)
        point = {n: _scalar(bx, field, v) for n, v in c.point.items()}
        alpha = None if c.forall_value is None else Fraction(c.forall_value)
        items.append((qe, bx.elim.witness_recipe(qe), point, alpha))
    return items


def op_witness(bx, item) -> bool:
    qe, recipe, point, alpha = item
    w = bx.elim.extract_witness(recipe, None, point, forall_value=alpha)
    return bx.decide.check_witness(qe, point, w) is True


# -- compile_json --------------------------------------------------------------


def run_cli(bx, argv, stdin_text: str) -> tuple[int, str]:
    """boolelim.cli.main in-process with the given stdin; (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin, sys.stderr
    sys.stdin, sys.stderr = io.StringIO(stdin_text), io.StringIO()
    try:
        code = bx.cli.main(argv, out=out)
    finally:
        sys.stdin, sys.stderr = saved
    return code, out.getvalue()


def prepare_compile(bx, cases):
    items = []
    for c in cases:
        eliminate = ["eliminate", "--field", c.field, "--form", c.form, "--output", "json"]
        decides = [(["decide", "--point", gen.cli_point(p)], "TRUE" if want else "FALSE")
                   for p, want in zip(c.points, c.expected)]
        items.append((c.formula, eliminate, decides))
    return items


def op_compile(bx, item) -> bool:
    """eliminate --output json, then decide on its `equation` member at each
    planted point. The README pipes the whole output into decide instead,
    which fails (see `documented_pipe_failures`)."""
    formula, eliminate, decides = item
    code, out = run_cli(bx, eliminate, formula)
    if code != 0:
        return False
    payload = json.loads(out)
    if payload["report"]["satisfied"] is not True:
        return False
    equation = json.dumps(payload["equation"])
    for argv, want in decides:
        code, got = run_cli(bx, argv, equation)
        if code != 0 or got.strip() != want:
            return False
    return True


def documented_pipe_failures(bx, items) -> int:
    """Feed the whole `eliminate --output json` output to `decide`, as the
    README's workflow does, once per item; count the non-zero exits."""
    failures = 0
    for formula, eliminate, decides in items:
        _, out = run_cli(bx, eliminate, formula)
        code, _ = run_cli(bx, decides[0][0], out)
        failures += code != 0
    return failures


WORKLOADS = {
    "decide_small": (gen.decide_small, prepare_decide, op_decide),
    "decide_wide": (gen.decide_wide, prepare_decide, op_decide),
    "compile_json": (gen.compile_json, prepare_compile, op_compile),
    "witness": (gen.witness, prepare_witness, op_witness),
}
