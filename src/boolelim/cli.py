"""Command line front end.

Subcommands: eliminate, decide, verify, report, selftest, plot. Exit codes
are part of the contract: 0 success, 2 parse error, 3 incompatible form,
field, or literal kind, 4 size limit, 5 unresolved sampling verdict,
6 unsupported equation shape, 7 equivalence disagreement. A reader that
closes stdout early ends the run with 0 and no error line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .decide import (
    SamplePlan,
    VerdictKind,
    decider_for_shape,
    equivalence_run,
    refute_ae,
)
from .elim import (
    SHAPE_SPECS,
    QuantifiedEquation,
    Shape,
    compile_formula,
    degree_report,
    from_json,
    to_json,
    to_latex,
)
from .errors import (
    FieldMismatchError,
    FormulaSyntaxError,
    NeqLiteralError,
    OrderInComplexError,
    OrderLiteralError,
    ShapeUnsupportedError,
    SizeLimitError,
    UnexpectedVariablesError,
    VariableCollisionError,
    WrongKindError,
)
from .exactnum import GaussianRational
from .fixtures import (
    GOLDEN_CASES,
    build_case,
    grid_points,
    quadrant_fixture,
    rendered_equation,
)
from .formula import DEFAULT_CLAUSE_LIMIT, parse
from .poly import Field, render_poly

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INCOMPATIBLE = 3
EXIT_SIZE = 4
EXIT_UNRESOLVED = 5
EXIT_SHAPE = 6
EXIT_DISAGREE = 7

# the shape each form builds over each field it is defined for; the shape's
# spec says which normal form to take and whether != becomes order literals
_FORM_SHAPE = {
    ("ea", Field.C): Shape.EA_C,
    ("ae", Field.C): Shape.AE_C,
    ("ae", Field.R): Shape.AE_R,
    ("e", Field.R): Shape.E_R,
    ("e", Field.Q): Shape.E_R,
    ("ed", Field.R): Shape.Ed_R,
    ("e3d", Field.Q): Shape.E3d_Q,
    ("ae3", Field.Q): Shape.AE3_Q,
}

# the documented exit code of each failure an input can cause; any other
# exception is a bug and keeps its traceback
_EXIT_CODES = {
    FormulaSyntaxError: EXIT_PARSE,
    UnexpectedVariablesError: EXIT_PARSE,
    ZeroDivisionError: EXIT_PARSE,
    ValueError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    OrderInComplexError: EXIT_INCOMPATIBLE,
    OrderLiteralError: EXIT_INCOMPATIBLE,
    NeqLiteralError: EXIT_INCOMPATIBLE,
    WrongKindError: EXIT_INCOMPATIBLE,
    FieldMismatchError: EXIT_INCOMPATIBLE,
    VariableCollisionError: EXIT_INCOMPATIBLE,
    SizeLimitError: EXIT_SIZE,
    ShapeUnsupportedError: EXIT_SHAPE,
}


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    with open(arg, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text.strip())


def _parse_gaussian(text: str) -> GaussianRational:
    """Accepts 1, -2/3, i, -i, 2i, 1+2i, 1-2/3i and the like."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty scalar")
    if "i" not in t:
        return GaussianRational.of(Fraction(t))
    # split off the imaginary tail: the last +/- not at position 0 and not
    # inside a fraction starts the imaginary part when the tail carries i
    body = t[:-1] if t.endswith("i") else None
    if body is None:
        raise ValueError(f"imaginary unit must be the trailing token: {text!r}")
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/*":
            re_part, im_part = body[:k], body[k:]
            break
    else:
        re_part, im_part = "", body
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    re = Fraction(re_part) if re_part else Fraction(0)
    return GaussianRational(re, im)


def _parse_point(text: str, fld: Field) -> dict:
    point = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"point entry {piece!r} is not name=value")
        name, val = piece.split("=", 1)
        if fld is Field.C:
            point[name.strip()] = _parse_gaussian(val)
        else:
            point[name.strip()] = _parse_fraction(val)
    return point


def _parse_grid(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be lo:hi:step")
    lo, hi, step = (Fraction(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if lo > hi:
        raise ValueError("grid lo must not exceed hi")
    return lo, hi, step


def _build_from_text(text: str, form: str, fld: Field, limit: int) -> tuple:
    shape = _FORM_SHAPE.get((form, fld))
    if shape is None:
        raise FieldMismatchError(f"form {form!r} is not defined over field {fld.value}")
    phi = parse(text, fld)
    return phi, compile_formula(phi, shape, fld, limit)


def _load_equation(arg: str) -> QuantifiedEquation:
    """A serialized equation from a file or stdin, given bare or as the whole
    `eliminate --output json` payload, whose `equation` member it is."""
    text = _read_input(arg)
    try:
        obj = json.loads(text)
        inner = obj.get("equation") if isinstance(obj, dict) else None
        return from_json(json.dumps(inner) if isinstance(inner, dict) else text)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"bad equation JSON: {exc}") from exc


def _print_equation(qe: QuantifiedEquation, output: str, out) -> None:
    if output == "json":
        payload = {
            "equation": json.loads(to_json(qe)),
            "report": degree_report(qe).to_dict(),
        }
        print(json.dumps(payload, indent=2), file=out)
        return
    if output == "latex":
        print(to_latex(qe), file=out)
    else:
        prefix = " ".join(f"{q} {n}" for q, n in qe.prefix)
        print(f"{prefix}: {render_poly(qe.equation, qe.quantified_names())} = 0", file=out)
    rep = degree_report(qe)
    degs = ", ".join(f"{n}:{v}" for n, v in rep.degrees.items())
    bnds = ", ".join(f"{n}<={v}" for n, v in rep.bounds.items())
    print(f"degrees {degs}  bounds {bnds}  satisfied {rep.satisfied}", file=out)


def _cmd_eliminate(args, out) -> int:
    text = _read_input(args.input)
    fld = Field.from_letter(args.field)
    _, qe = _build_from_text(text, args.form, fld, args.clause_limit)
    _print_equation(qe, args.output, out)
    return EXIT_OK


def _cmd_report(args, out) -> int:
    text = _read_input(args.input)
    fld = Field.from_letter(args.field)
    _, qe = _build_from_text(text, args.form, fld, args.clause_limit)
    rep = degree_report(qe)
    if args.output == "json":
        print(json.dumps(rep.to_dict(), indent=2), file=out)
    else:
        for name, v in rep.degrees.items():
            exact = "=" if rep.exact.get(name) else "<="
            print(f"{name}: degree {v}, bound {exact}{rep.bounds[name]}", file=out)
        print(f"satisfied: {rep.satisfied}", file=out)
    return EXIT_OK


def _cmd_decide(args, out) -> int:
    qe = _load_equation(args.input)
    point = _parse_point(args.point or "", qe.field)
    if args.refute:
        if args.seed is None:
            raise ValueError("--refute needs --seed")
        plan = SamplePlan(seed=args.seed, count=args.points, bound=args.bound)
        verdict = refute_ae(qe, point, plan)
        print(str(verdict), file=out)
        return EXIT_UNRESOLVED if verdict.kind is VerdictKind.UNRESOLVED else EXIT_OK
    decider = decider_for_shape(qe.shape)
    result = decider(qe, point)
    print(VerdictKind.TRUE.value if result else VerdictKind.FALSE.value, file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    text = _read_input(args.input)
    fld = Field.from_letter(args.field)
    phi, qe = _build_from_text(text, args.form, fld, args.clause_limit)
    if args.corrupt:
        # negative control: swap in the complement formula's equation, which
        # must disagree with phi at every sampled point
        from .formula import f_not

        qe = compile_formula(f_not(phi), qe.shape, fld, args.clause_limit)
    plan = SamplePlan(seed=args.seed, count=args.points, bound=args.bound)
    report = equivalence_run(phi, qe, decider_for_shape(qe.shape), plan)
    print(
        f"{report['agreements']}/{report['points']} agree (seed {report['seed']})",
        file=out,
    )
    if report["disagreements"]:
        for rec in report["disagreements"]:
            print(json.dumps(rec), file=out)
        return EXIT_DISAGREE
    return EXIT_OK


def _selftest_cases(corrupt: bool):
    for case in GOLDEN_CASES:
        expected = case.expected
        if corrupt and case is GOLDEN_CASES[0]:
            expected = expected.replace("+ 1", "+ 2")
        got = rendered_equation(build_case(case))
        yield f"golden {case.name}", got == expected

    decide_e_r = decider_for_shape(Shape.E_R)
    simplified = quadrant_fixture(True)
    raw = quadrant_fixture(False)
    pts = grid_points(Fraction(-2), Fraction(2), Fraction(1, 4))
    ok = True
    for yv in pts:
        for zv in pts:
            x = {"y": yv, "z": zv}
            want = yv > 0 and zv > 0
            if decide_e_r(simplified, x) != want or decide_e_r(raw, x) != want:
                ok = False
    yield "quadrant grid sweep", ok

    from .exactnum import is_sum_three_squares, three_squares_pair

    blocked = _no_three_squares(500)
    ok = True
    for n in range(1, 500):
        ts = three_squares_pair(n)
        if ts.selector * n != sum(p * p for p in ts.parts) or ts.selector not in (1, 2):
            ok = False
        if is_sum_three_squares(n) != (n not in blocked):
            ok = False
    yield "three squares identities", ok

    from .formula import RandomFormulaParams, random_formula

    ok = True
    for fld, shape in ((Field.C, Shape.EA_C), (Field.C, Shape.AE_C), (Field.R, Shape.E_R)):
        kind = SHAPE_SPECS[shape].kind
        for seed in range(3):
            phi = random_formula(seed, RandomFormulaParams(field=fld, kind=kind))
            qe = compile_formula(phi, shape, fld)
            rep = equivalence_run(
                phi, qe, decider_for_shape(shape), SamplePlan(seed=seed + 100, count=8)
            )
            if rep["disagreements"]:
                ok = False
    yield "reduced equivalence sweep", ok


def _no_three_squares(limit: int) -> set:
    # integers of the form 4^a (8b + 7)
    out = set()
    a = 1
    while a <= limit:
        m = 7
        while a * m <= limit:
            out.add(a * m)
            m += 8
        a *= 4
    return out


def _cmd_selftest(args, out) -> int:
    failures = []
    for name, ok in _selftest_cases(args.corrupt):
        print(("ok " if ok else "FAIL ") + name, file=out)
        if not ok:
            failures.append(name)
    if failures:
        print("failing: " + ", ".join(failures), file=out)
        return 1
    return EXIT_OK


def _cmd_plot(args, out) -> int:
    from .decide import has_real_root

    if args.fixture:
        qe = quadrant_fixture(simplified=args.fixture == "quadrant")
    else:
        if not args.input:
            raise ValueError("plot needs --input or --fixture")
        qe = _load_equation(args.input)
    kinds = tuple(q for q, _ in qe.prefix)
    frees = qe.free_names()
    if kinds != ("exists",) or len(frees) != 2 or qe.field is Field.C:
        raise ShapeUnsupportedError(
            "plot needs a single real exists variable over two free variables"
        )
    lo, hi, step = _parse_grid(args.grid)
    ycol, zcol = frees
    print(f"{ycol},{zcol},has_real_root", file=out)
    for yv in grid_points(lo, hi, step):
        for zv in grid_points(lo, hi, step):
            hit = has_real_root(qe, {ycol: yv, zcol: zv})
            print(f"{yv},{zv},{1 if hit else 0}", file=out)
    return EXIT_OK


def _add_common(sp, outputs=()):
    sp.add_argument("--field", choices=["c", "r", "q"], required=True)
    sp.add_argument("--form", choices=sorted({f for f, _ in _FORM_SHAPE}), required=True)
    sp.add_argument("--input", default="-", help="formula file, - for stdin")
    if outputs:
        sp.add_argument("--output", choices=outputs, default="text")
    sp.add_argument("--clause-limit", type=int, default=DEFAULT_CLAUSE_LIMIT)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="boolelim")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eliminate", help="compile a formula to a quantified equation")
    _add_common(sp, ["json", "latex", "text"])

    sp = sub.add_parser("report", help="degree report for the compiled equation")
    _add_common(sp, ["json", "text"])

    sp = sub.add_parser("decide", help="decide a serialized equation at a point")
    sp.add_argument("--input", default="-", help="equation file, - for stdin")
    sp.add_argument("--point", default="", help="comma separated name=value")
    sp.add_argument("--refute", action="store_true", help="sample the universal variable")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--points", type=int, default=64)
    sp.add_argument("--bound", type=int, default=32)

    sp = sub.add_parser("verify", help="sampled equivalence between formula and equation")
    _add_common(sp)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--points", type=int, default=64)
    sp.add_argument("--bound", type=int, default=32)
    sp.add_argument("--corrupt", action="store_true", help="negative control")

    sp = sub.add_parser("selftest", help="golden fixtures and reduced invariant sweeps")
    sp.add_argument("--corrupt", action="store_true", help="negative control")

    sp = sub.add_parser("plot", help="CSV sweep of a single-exists real equation")
    sp.add_argument("--input", default=None)
    sp.add_argument("--fixture", choices=["quadrant", "quadrant-raw"], default=None)
    sp.add_argument(
        "--grid",
        default="-2:2:1/4",
        help="lo:hi:step; write --grid=-2:2:1/4 when lo is negative",
    )

    return ap


_DISPATCH = {
    "eliminate": _cmd_eliminate,
    "report": _cmd_report,
    "decide": _cmd_decide,
    "verify": _cmd_verify,
    "selftest": _cmd_selftest,
    "plot": _cmd_plot,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: that ends the run, the input was fine;
        # stdout goes to devnull so the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for t, code in _EXIT_CODES.items() if isinstance(exc, t))


if __name__ == "__main__":
    sys.exit(main())
