import json
import random
from fractions import Fraction

import pytest

from boolelim.decide import decider_for_shape
from boolelim.errors import (
    FieldMismatchError,
    MissingAssignmentError,
    NeqLiteralError,
    NoWitnessError,
    OrderLiteralError,
    VariableCollisionError,
    WrongKindError,
)
from boolelim.elim import (
    Shape,
    SqrtValue,
    _node_product,
    build_for_shape,
    compile_formula,
    degree_report,
    extract_witness,
    from_json,
    lagrange_selector,
    to_json,
    to_latex,
    witness_recipe,
)
from boolelim.exactnum import gaussian
from boolelim.fixtures import (
    CROSS_NEQ,
    CROSS_ORDER,
    GOLDEN_CASES,
    build_case,
    quadrant_fixture,
    rendered_equation,
)
from boolelim.formula import (
    NormalForm,
    RandomFormulaParams,
    Rel,
    eval_formula,
    parse,
    random_formula,
    rewrite_neq_to_orders,
    to_cnf,
    to_dnf,
)
from boolelim.poly import Field, PolyRing, VarTable, render_poly
from oracles import SHAPE_SETUPS


ORDER_SHAPES = (Shape.Ed_R, Shape.AE_R, Shape.E3d_Q, Shape.AE3_Q)


def matrix_for(shape, phi_text=None, seed=None, **params):
    fld, kind, ineq = SHAPE_SETUPS[shape]
    if phi_text is not None:
        phi = parse(phi_text, fld)
    else:
        phi = random_formula(seed, RandomFormulaParams(field=fld, kind=kind, ineq=ineq, **params))
    to_form = to_dnf if kind is NormalForm.DNF else to_cnf
    return to_form(phi)


def test_golden_equations_byte_exact():
    for case in GOLDEN_CASES:
        qe = build_case(case)
        assert rendered_equation(qe) == case.expected, case.name


def test_golden_prefixes():
    by_name = {c.name: build_case(c) for c in GOLDEN_CASES}
    assert by_name["ea_c_cross"].prefix == (("exists", "a"), ("forall", "b"))
    assert by_name["ae_c_cross"].prefix == (("forall", "a"), ("exists", "b"))
    assert by_name["e_r_cross"].prefix == (("exists", "r"),)
    assert by_name["ae_r_quadrant"].prefix == (("forall", "r"), ("exists", "s"))


def test_prefix_patterns_all_shapes():
    m = matrix_for(Shape.Ed_R, phi_text=r"(y = 0 \/ z = 0) /\ (y > 0 \/ z > 0)")
    qe = build_for_shape(Shape.Ed_R, m)
    assert qe.prefix == (("exists", "r1"), ("exists", "r2"))
    q3 = build_for_shape(Shape.E3d_Q, matrix_for(Shape.E3d_Q, phi_text="y > 0"))
    assert q3.prefix == tuple(("exists", f"v{k}") for k in (1, 2, 3))
    qa = build_for_shape(Shape.AE3_Q, matrix_for(Shape.AE3_Q, phi_text="y > 0"))
    assert qa.prefix == (
        ("forall", "v"),
        ("exists", "w1"),
        ("exists", "w2"),
        ("exists", "w3"),
    )


def test_output_field_per_shape():
    assert build_case(GOLDEN_CASES[0]).field is Field.C
    # E_R keeps a rational matrix rational
    phi = parse(CROSS_NEQ, Field.Q)
    qe = build_for_shape(Shape.E_R, to_dnf(phi))
    assert qe.field is Field.Q
    # Ed_R promotes to R: its witnesses are square roots
    m = to_cnf(rewrite_neq_to_orders(parse(CROSS_NEQ, Field.Q)))
    assert build_for_shape(Shape.Ed_R, m).field is Field.R
    assert build_for_shape(Shape.E3d_Q, matrix_for(Shape.E3d_Q, phi_text="y > 0")).field is Field.Q


def test_a_construction_lives_in_its_matrix_ring():
    for shape, (fld, kind, ineq) in SHAPE_SETUPS.items():
        for text in (CROSS_NEQ if ineq is Rel.NEQ0 else CROSS_ORDER, "true"):
            phi = parse(text, fld)
            m = to_dnf(phi) if kind is NormalForm.DNF else to_cnf(phi)
            built = build_for_shape(shape, m)
            if m.ring is not None:
                assert built.ring is m.ring, shape
            for qe in (built, compile_formula(phi, shape, fld), from_json(to_json(built))):
                assert qe.ring is qe.provenance.ring, (shape, text)
                factors = [qe.guard, *(f for a in qe.addends for f in a)]
                assert all(f.ring is qe.ring for f in factors), (shape, text)


def test_a_formula_parsed_into_a_construction_ring_keeps_its_names_free():
    m = to_dnf(parse("x = 0", Field.C))
    build_for_shape(Shape.EA_C, m)
    with pytest.raises(VariableCollisionError):
        parse("a = 0", Field.C, m.ring)
    qe = build_for_shape(Shape.EA_C, to_dnf(parse(r"x != 0 \/ y = 0", Field.C, m.ring)))
    assert qe.prefix == (("exists", "a"), ("forall", "b")) and qe.free_names() == ("x", "y")


def test_real_shapes_from_a_rational_matrix_state_r():
    """Ed_R and AE_R built from a Q-tagged matrix keep its ring, whose
    scalars are R's, and state the field R."""
    rng = random.Random(34)
    for shape in (Shape.Ed_R, Shape.AE_R):
        by_field = {
            fld: build_for_shape(shape, to_cnf(parse(CROSS_ORDER, fld)))
            for fld in (Field.Q, Field.R)
        }
        qe = by_field[Field.Q]
        assert qe.field is Field.R and qe.ring.field is Field.Q, shape
        text = to_json(qe)
        assert json.loads(text)["field"] == "R"
        back = from_json(text)
        assert back.construction() is back and back.field is Field.R, shape
        decide = decider_for_shape(shape)
        for _ in range(16):
            pt = {n: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for n in ("y", "z")}
            assert decide(qe, pt) == decide(back, pt) == decide(by_field[Field.R], pt), (shape, pt)


def test_wrong_matrix_kind_rejected():
    dnf = matrix_for(Shape.EA_C, phi_text="y != 0")
    with pytest.raises(WrongKindError):
        build_for_shape(Shape.AE_C, dnf)
    cnf = matrix_for(Shape.AE_C, phi_text="y != 0")
    with pytest.raises(WrongKindError):
        build_for_shape(Shape.EA_C, cnf)


def test_incompatible_literals_rejected():
    order_cnf = matrix_for(Shape.Ed_R, phi_text="y > 0")
    with pytest.raises(OrderLiteralError):
        build_for_shape(Shape.AE_C, _as_c(order_cnf))
    neq_cnf = to_cnf(parse("y != 0", Field.R))
    with pytest.raises(NeqLiteralError):
        build_for_shape(Shape.Ed_R, neq_cnf)
    order_dnf = to_dnf(parse("y > 0", Field.R))
    with pytest.raises(OrderLiteralError):
        build_for_shape(Shape.E_R, order_dnf)


def _as_c(m):
    # same clauses retagged complex is nonsense; just reuse for the literal check
    return m


def test_incompatible_field_rejected():
    cnf_r = to_cnf(parse("y = 0", Field.R))
    with pytest.raises(FieldMismatchError):
        build_for_shape(Shape.AE_C, cnf_r)
    cnf_c = to_cnf(parse("y = 0", Field.C))
    with pytest.raises(FieldMismatchError):
        build_for_shape(Shape.E3d_Q, cnf_c)


RENAMED_APART = [
    # shape, formula, its quantifier names: a free variable named like one
    # of them suffixes every one with the smallest _k that clears them all
    (Shape.EA_C, r"a = 0 \/ x != 0", ("a_1", "b_1")),
    (Shape.AE_C, r"(b_1 = 0 \/ b != 0) /\ a_2 != 0", ("a_3", "b_3")),
    (Shape.E_R, r"r != 0 \/ y = 0", ("r_1",)),
    (Shape.Ed_R, r"r1 > 0 /\ (y = 0 \/ r2 > 0)", ("r1_1", "r2_1")),
    (Shape.Ed_R, "r2 > 0", ("r1",)),
    (Shape.AE_R, r"s > 0 \/ y = 0", ("r_1", "s_1")),
    (Shape.E3d_Q, "v3 > 0", ("v1_1", "v2_1", "v3_1")),
    (Shape.AE3_Q, r"w2 > 0 \/ v = 0", ("v_1", "w1_1", "w2_1", "w3_1")),
]


def test_reserved_name_collision():
    rng = random.Random(32)
    for shape, text, names in RENAMED_APART:
        fld, kind, _ = SHAPE_SETUPS[shape]
        phi = parse(text, fld)
        qe = build_for_shape(shape, to_dnf(phi) if kind is NormalForm.DNF else to_cnf(phi))
        assert qe.quantified_names() == names, shape
        assert set(names).isdisjoint(qe.free_names()), shape
        head = "\\, ".join(f"\\{q} {n}" for q, n in qe.prefix)
        assert to_latex(qe).startswith(head + "\\; "), shape
        back = from_json(to_json(qe))
        assert back.construction() is back and back.prefix == qe.prefix, shape
        decide = decider_for_shape(shape)
        for _ in range(12):
            pt = {n: Fraction(rng.randint(-2, 2)) for n in qe.free_names()}
            if fld is Field.C:
                pt = {n: gaussian(v, rng.randint(-1, 1)) for n, v in pt.items()}
            want = eval_formula(phi, pt)
            assert decide(qe, pt) == decide(back, pt) == want, (shape, pt)


def test_true_and_false_degenerate_per_shape():
    rng = random.Random(30)
    for shape, (fld, kind, _) in SHAPE_SETUPS.items():
        to_form = to_dnf if kind is NormalForm.DNF else to_cnf
        qe_true = build_for_shape(shape, to_form(parse("true", fld)))
        qe_false = build_for_shape(shape, to_form(parse("false", fld)))
        # no free variables anywhere
        assert qe_true.free_names() == ()
        assert qe_false.free_names() == ()
        for qe, want in ((qe_true, True), (qe_false, False)):
            has_sol = _brute_solution(qe, rng)
            assert has_sol == want, (shape, want, render_poly(qe.equation, qe.quantified_names()))


def _brute_solution(qe, rng):
    """Tiny quantifier check good enough for closed degenerate equations."""
    names = qe.quantified_names()
    kinds = tuple(q for q, _ in qe.prefix)
    if all(k == "exists" for k in kinds):
        if qe.equation.is_zero():
            return True
        for _ in range(400):
            pt = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for n in names}
            if qe.equation.substitute(pt).is_zero():
                return True
        return False
    if kinds == ("exists", "forall"):
        # the chosen value must kill the whole polynomial in the forall var
        for num in range(-6, 7):
            for den in (1, 2):
                if qe.equation.substitute({names[0]: Fraction(num, den)}).is_zero():
                    return True
        return False
    # forall-first: sample the forall variable, demand an inner solution each time
    outer = names[0]
    inner = names[1:]
    for _ in range(12):
        a = Fraction(rng.randint(-4, 4))
        fixed = qe.equation.substitute({outer: a})
        found = False
        if fixed.is_zero():
            found = True
        else:
            for _ in range(600):
                pt = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for n in inner}
                if fixed.substitute(pt).is_zero():
                    found = True
                    break
        if not found:
            return False
    return True


def test_lagrange_selector_values():
    ring = PolyRing(Field.Q, VarTable())
    v = ring.quantified("v")
    d = 4
    for i in range(1, d + 1):
        sel = lagrange_selector(i, d, v)
        for h in range(1, d + 1):
            val = sel.evaluate({"v": Fraction(h)})
            if h == i:
                assert val != 0
            else:
                assert val == 0
    with pytest.raises(IndexError):
        lagrange_selector(0, d, v)
    with pytest.raises(IndexError):
        lagrange_selector(5, d, v)


@pytest.mark.parametrize("fld", [Field.Q, Field.C])
def test_lagrange_selector_is_its_product_definition(fld):
    ring = PolyRing(fld, VarTable())
    v = ring.quantified("v")
    for d in range(1, 7):
        for i in range(1, d + 1):
            want = ring.one
            for h in range(1, d + 1):
                if h != i:
                    want = want * (v - h)
            assert lagrange_selector(i, d, v) == want, (i, d)


def test_lagrange_selector_refuses_anything_but_a_ring_variable():
    ring = PolyRing(Field.Q, VarTable())
    v = ring.quantified("v")
    for other in (v + 1, 2 * v, v * v, v * ring.var("x"), ring.one, ring.zero):
        with pytest.raises(ValueError):
            lagrange_selector(1, 3, other)


@pytest.mark.parametrize("alpha", [Fraction(7, 3), Fraction(-2), gaussian(1, 2)])
def test_node_product_of_a_scalar_is_its_product_definition(alpha):
    for d in range(5):
        want = alpha**0
        for h in range(1, d + 1):
            want = want * (alpha - h)
        got = _node_product(alpha, d)
        assert got == want and type(got) is type(want), d


def test_square_root_of_a_negative_is_refused():
    with pytest.raises(ValueError):
        SqrtValue(Fraction(-1))


def test_degree_report_golden_ea():
    qe = build_case(GOLDEN_CASES[0])
    rep = degree_report(qe)
    assert rep.satisfied
    assert rep.degrees["a"] == 2 and rep.exact["a"]
    assert rep.degrees["b"] == 2 and rep.exact["b"]
    assert rep.counts["d"] == 2
    assert rep.counts["e_total"] == 2
    assert rep.counts["raw_d"] == 2
    d = rep.to_dict()
    assert d["shape"] == "EA_C" and d["satisfied"] is True


def test_degree_report_exactness_claims():
    # spot-check each shape's headline bound on one small instance
    checks = {
        Shape.EA_C: ("a", True),
        Shape.AE_C: ("a", True),
        Shape.E_R: ("r", True),
        Shape.AE_R: ("r", True),
    }
    for shape, (var, want_exact) in checks.items():
        fld, kind, ineq = SHAPE_SETUPS[shape]
        text = CROSS_NEQ if ineq is Rel.NEQ0 else CROSS_ORDER
        m = matrix_for(shape, phi_text=text)
        rep = degree_report(build_for_shape(shape, m))
        assert rep.satisfied, shape
        assert rep.exact[var] is want_exact, shape
        assert rep.degrees[var] == rep.bounds[var], shape


def test_degree_report_random_sweep():
    rng = random.Random(31)
    for shape in SHAPE_SETUPS:
        fld, kind, ineq = SHAPE_SETUPS[shape]
        for _ in range(12):
            seed = rng.randrange(10**6)
            m = matrix_for(shape, seed=seed, clauses=rng.randint(1, 3))
            rep = degree_report(build_for_shape(shape, m))
            assert rep.satisfied, (shape, seed)
            for z, bound in rep.bounds.items():
                assert rep.degrees[z] <= bound, (shape, seed, z)
                if rep.exact[z]:
                    assert rep.degrees[z] == bound, (shape, seed, z)


def test_degree_report_requires_provenance():
    from boolelim.fixtures import quadrant_fixture

    qe = quadrant_fixture()
    with pytest.raises(ValueError):
        degree_report(qe)


def test_witness_recipe_is_the_construction():
    for case in GOLDEN_CASES:
        qe = build_case(case)
        assert witness_recipe(qe) is qe


def test_extract_witness_false_point_raises():
    qe = build_case(GOLDEN_CASES[0])
    rec = witness_recipe(qe)
    with pytest.raises(NoWitnessError):
        extract_witness(rec, None, {"y": Fraction(1), "z": Fraction(1)})


def test_extract_witness_forall_value_required():
    qe = build_case(GOLDEN_CASES[1])
    rec = witness_recipe(qe)
    with pytest.raises(MissingAssignmentError):
        extract_witness(rec, None, {"y": Fraction(0), "z": Fraction(3)})


def test_extract_witness_sqrt_marker():
    phi = parse(CROSS_ORDER, Field.R)
    qe = build_for_shape(Shape.Ed_R, to_cnf(phi))
    rec = witness_recipe(qe)
    w = extract_witness(rec, None, {"y": Fraction(4), "z": Fraction(0)})
    # second clause needs y > 0, witnessed by r2 = sqrt(1/4)
    assert w["r1"] == 0
    assert isinstance(w["r2"], SqrtValue)
    assert w["r2"].radicand == Fraction(1, 4)


def test_json_roundtrip_preserves_equation():
    for case in GOLDEN_CASES:
        qe = build_case(case)
        text = to_json(qe)
        obj = json.loads(text)
        assert obj["shape"] == qe.shape.value
        assert obj["counts"]["d"] == qe.provenance.d
        back = from_json(text)
        assert back.construction() is back
        assert back.prefix == qe.prefix
        assert back.field is qe.field
        assert render_poly(back.equation, back.quantified_names()) == case.expected
        # serialization is stable
        assert json.loads(to_json(back))["equation"] == obj["equation"]


def test_json_provenance_rebuilds_matrix():
    qe = build_case(GOLDEN_CASES[1])
    back = from_json(to_json(qe))
    assert back.provenance is not None
    assert back.provenance.d == qe.provenance.d
    assert back.provenance.kind is qe.provenance.kind


def test_latex_output_pieces():
    qe = build_case(GOLDEN_CASES[0])
    s = to_latex(qe)
    assert s.startswith("\\exists a\\, \\forall b\\;")
    assert s.endswith("= 0")
    assert "\\Big[" in s
    qg = build_case(GOLDEN_CASES[3])
    sg = to_latex(qg)
    assert sg.startswith("\\forall r\\, \\exists s\\;")


def test_equation_property_caches():
    qe = build_case(GOLDEN_CASES[2])
    assert qe.equation is qe.equation


def test_substituted_equation_binds_frees():
    qe = build_case(GOLDEN_CASES[2])
    fixed = qe.substituted_equation({"y": Fraction(0), "z": Fraction(2)})
    assert fixed.variables() == {"r"}


def test_text_rendering_orders_quantifiers_like_json():
    """Text renders the quantified variables in prefix order, as JSON does:
    with d = 4 the E3d_Q names run to v12, which sorts before v2 by name."""
    import io
    import sys

    from boolelim.cli import main

    text = r"(x > 0 \/ y = 0) /\ (y > 0) /\ (x + y > 0) /\ (x - y > 0 \/ x = 0)"
    qe = build_for_shape(Shape.E3d_Q, to_cnf(parse(text, Field.Q)))
    assert qe.provenance.d == 4
    names = qe.quantified_names()
    assert rendered_equation(qe) == render_poly(qe.equation, names)
    assert rendered_equation(qe) == json.loads(to_json(qe))["equation"]
    assert rendered_equation(qe) != render_poly(qe.equation, ())
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        assert main(["eliminate", "--field", "q", "--form", "e3d"], out=out) == 0
    finally:
        sys.stdin = saved
    first = out.getvalue().splitlines()[0]
    assert first == f"{' '.join(f'exists {n}' for n in names)}: {rendered_equation(qe)} = 0"


def test_latex_of_deserialized_equation_shows_the_polynomial():
    from boolelim.poly import render_poly_latex

    for case in GOLDEN_CASES:
        qe = build_case(case)
        assert to_latex(from_json(to_json(qe))) == to_latex(qe), case.name
        obj = json.loads(to_json(qe))
        del obj["provenance"]
        back = from_json(json.dumps(obj))
        body = render_poly_latex(back.equation, back.quantified_names())
        assert f"\\Big[{body}\\Big]" in to_latex(back), case.name


def test_an_opaque_equation_is_a_one_factor_product():
    """Loaded without provenance, an equation has the quadrant fixture's
    layout, its polynomial as the one factor under the unit guard, and its
    LaTeX is one bracket."""
    qe = from_json(json.dumps({
        "field": "R", "prefix": [["exists", "r"]], "vars": ["y"],
        "equation": "r^2 - y", "shape": "E_R", "counts": {},
    }))
    for eq in (qe, quadrant_fixture()):
        assert eq.opaque
        assert (eq.guard, eq.power) == (eq.ring.one, 1)
        assert [len(a) for a in eq.addends] == [1]
        assert to_latex(eq).count("\\Big[") == 1
    assert to_latex(qe) == "\\exists r\\; \\Big[r^{2} - y\\Big] = 0"
