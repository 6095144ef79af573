import random
from fractions import Fraction

import pytest

from boolelim.decide import (
    QuadScalar,
    SamplePlan,
    Verdict,
    VerdictKind,
    check_witness,
    decider_for_shape,
    equivalence_run,
    exists_root_c,
    refute_ae,
)
from boolelim.elim import (
    Shape,
    SqrtValue,
    build_for_shape,
    extract_witness,
    witness_recipe,
)
from boolelim.errors import (
    FieldMismatchError,
    MissingAssignmentError,
    ShapeUnsupportedError,
    UnexpectedVariablesError,
)
from boolelim.exactnum import gaussian
from boolelim.fixtures import (
    CROSS_NEQ,
    CROSS_ORDER,
    GOLDEN_CASES,
    build_case,
    grid_points,
    quadrant_fixture,
)
from boolelim.formula import (
    NormalForm,
    RandomFormulaParams,
    Rel,
    eval_formula,
    parse,
    random_formula,
    to_cnf,
    to_dnf,
)
from boolelim.poly import Field, PolyRing, VarTable, as_univariate


SHAPE_SETUPS = {
    Shape.EA_C: (Field.C, NormalForm.DNF, Rel.NEQ0),
    Shape.AE_C: (Field.C, NormalForm.CNF, Rel.NEQ0),
    Shape.E_R: (Field.R, NormalForm.DNF, Rel.NEQ0),
    Shape.Ed_R: (Field.R, NormalForm.CNF, Rel.GT0),
    Shape.AE_R: (Field.R, NormalForm.CNF, Rel.GT0),
    Shape.E3d_Q: (Field.Q, NormalForm.CNF, Rel.GT0),
    Shape.AE3_Q: (Field.Q, NormalForm.CNF, Rel.GT0),
}


def built(shape, seed, **params):
    fld, kind, ineq = SHAPE_SETUPS[shape]
    phi = random_formula(seed, RandomFormulaParams(field=fld, kind=kind, ineq=ineq, **params))
    m = to_dnf(phi) if kind is NormalForm.DNF else to_cnf(phi)
    return phi, build_for_shape(shape, m)


def sample_point(rng, fld, names, bound=6):
    if fld is Field.C:
        return {
            n: gaussian(Fraction(rng.randint(-bound, bound), rng.randint(1, 3)),
                        Fraction(rng.randint(-bound, bound), rng.randint(1, 3)))
            for n in names
        }
    return {n: Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for n in names}


# -- QuadScalar ----------------------------------------------------------------


def test_quad_scalar_arithmetic():
    two = Fraction(2)
    a = QuadScalar(Fraction(1), Fraction(1), two)    # 1 + sqrt 2
    b = QuadScalar(Fraction(1), Fraction(-1), two)   # 1 - sqrt 2
    assert a * b == Fraction(-1)                     # 1 - 2
    assert a + b == Fraction(2)
    assert a - a == 0
    sq = a * a                                        # 3 + 2 sqrt 2
    assert sq == QuadScalar(Fraction(3), Fraction(2), two)
    assert a ** 2 == sq
    assert a ** 0 == Fraction(1)


def test_quad_scalar_zero_detection():
    two = Fraction(2)
    root = QuadScalar(Fraction(0), Fraction(1), two)
    assert root * root - 2 == 0
    assert bool(root)
    # a + b sqrt q = 0 needs opposite signs and matching squares
    assert QuadScalar(Fraction(2), Fraction(-1), Fraction(4)) == 0
    assert QuadScalar(Fraction(2), Fraction(1), Fraction(4)) != 0


def test_quad_scalar_mixed_radicands_rejected():
    a = QuadScalar(Fraction(0), Fraction(1), Fraction(2))
    b = QuadScalar(Fraction(0), Fraction(1), Fraction(3))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


# -- evaluating at quadratic and Gaussian values -------------------------------


def test_evaluate_lets_quadratic_values_through():
    ring = PolyRing(Field.R, VarTable())
    r, y = ring.quantified("r"), ring.var("y")
    root = QuadScalar(Fraction(0), Fraction(1), Fraction(2))
    value = (r + 1).evaluate({"r": root})
    assert isinstance(value, QuadScalar)
    assert value == QuadScalar(Fraction(1), Fraction(1), Fraction(2))
    assert (r * r - 2 * y).evaluate({"r": root, "y": 1}) == 0


@pytest.mark.parametrize("fld", [Field.R, Field.Q])
def test_evaluate_coerces_gaussian_values_into_ordered_fields(fld):
    ring = PolyRing(fld, VarTable())
    x = ring.var("x")
    value = (x * x + 1).evaluate({"x": gaussian(3, 0)})
    assert type(value) is Fraction and value == 10
    with pytest.raises(FieldMismatchError):
        (x * x + 1).evaluate({"x": gaussian(0, 1)})


# -- complete deciders vs formula truth -----------------------------------------


def test_exists_root_c():
    ring = PolyRing(Field.C, VarTable())
    x = ring.var("x")
    assert exists_root_c(as_univariate(x * x + 1, "x"))
    assert exists_root_c(as_univariate(ring.zero, "x"))
    assert not exists_root_c(as_univariate(ring.const(5), "x"))
    assert exists_root_c(as_univariate(x ** 3 - 2, "x"))


def test_deciders_match_formula_on_cross_fixture():
    rng = random.Random(40)
    cases = [
        (Shape.EA_C, decider_for_shape(Shape.EA_C), CROSS_NEQ),
        (Shape.AE_C, decider_for_shape(Shape.AE_C), CROSS_NEQ),
        (Shape.E_R, decider_for_shape(Shape.E_R), CROSS_NEQ),
        (Shape.Ed_R, decider_for_shape(Shape.Ed_R), CROSS_ORDER),
        (Shape.AE_R, decider_for_shape(Shape.AE_R), CROSS_ORDER),
        (Shape.E3d_Q, decider_for_shape(Shape.E3d_Q), CROSS_ORDER),
        (Shape.AE3_Q, decider_for_shape(Shape.AE3_Q), CROSS_ORDER),
    ]
    for shape, decider, text in cases:
        fld, kind, _ = SHAPE_SETUPS[shape]
        phi = parse(text, fld)
        m = to_dnf(phi) if kind is NormalForm.DNF else to_cnf(phi)
        qe = build_for_shape(shape, m)
        hits = {True: 0, False: 0}
        pts = [
            {"y": Fraction(0), "z": Fraction(2)},
            {"y": Fraction(1), "z": Fraction(1)},
            {"y": Fraction(0), "z": Fraction(0)},
        ]
        while len(pts) < 20:
            pts.append(sample_point(rng, fld, ["y", "z"]))
        for pt in pts:
            want = eval_formula(phi, pt)
            got = decider(qe, pt)
            assert got == want, (shape, pt)
            hits[want] += 1
        assert hits[True] and hits[False], shape


def test_deciders_match_formula_random_sweep():
    rng = random.Random(41)
    for shape in SHAPE_SETUPS:
        decider = decider_for_shape(shape)
        fld = SHAPE_SETUPS[shape][0]
        for seed in range(6):
            phi, qe = built(shape, seed, clauses=2)
            for _ in range(10):
                pt = sample_point(rng, fld, list(qe.free_names()))
                assert decider(qe, pt) == eval_formula(phi, pt), (shape, seed, pt)


def test_decider_registry_covers_all_shapes():
    for shape in Shape:
        assert callable(decider_for_shape(shape))


def test_decide_e_r_on_quadrant_fixture():
    qe = quadrant_fixture()
    grid = grid_points(Fraction(-2), Fraction(2), Fraction(1, 4))
    raw = quadrant_fixture(simplified=False)
    inside = 0
    for y in grid:
        for z in grid:
            got = decider_for_shape(Shape.E_R)(qe, {"y": y, "z": z})
            assert got == (y > 0 and z > 0)
            assert decider_for_shape(Shape.E_R)(raw, {"y": y, "z": z}) == got
            inside += got
    assert inside == 64


# -- structured decider guard rails ------------------------------------------------


def test_structured_deciders_require_provenance():
    qe = quadrant_fixture()  # E_R layout, no provenance
    with pytest.raises(ShapeUnsupportedError):
        decider_for_shape(Shape.Ed_R)(qe, {"y": Fraction(1), "z": Fraction(1)})


def test_structured_decider_rejects_wrong_shape():
    _, qe = built(Shape.AE_R, 3)
    with pytest.raises(ShapeUnsupportedError):
        decider_for_shape(Shape.AE3_Q)(qe, {n: Fraction(0) for n in qe.free_names()})


def test_structured_decider_rejects_tampered_equation():
    _, qe = built(Shape.E3d_Q, 5)
    tampered = qe.equation + 1
    fake = type(qe)(
        field=qe.field,
        prefix=qe.prefix,
        shape=qe.shape,
        ring=qe.ring,
        provenance=qe.provenance,
    )
    fake._equation = tampered
    with pytest.raises(ShapeUnsupportedError):
        decider_for_shape(Shape.E3d_Q)(fake, {n: Fraction(0) for n in fake.free_names()})


def test_structured_decider_accepts_serialized_equation():
    from boolelim.elim import from_json, to_json

    phi, qe = built(Shape.AE3_Q, 8, clauses=2)
    back = from_json(to_json(qe))
    assert back.construction() is back
    rng = random.Random(42)
    for _ in range(8):
        pt = sample_point(rng, Field.Q, list(back.free_names()))
        assert decider_for_shape(Shape.AE3_Q)(back, pt) == eval_formula(phi, pt)


def test_complete_decider_rejects_leftover_variables():
    _, qe = built(Shape.E_R, 2)
    missing = {n: Fraction(1) for n in list(qe.free_names())[:-1]}
    with pytest.raises(UnexpectedVariablesError):
        decider_for_shape(Shape.E_R)(qe, missing)


# -- refuter ---------------------------------------------------------------------


def test_refute_finds_node_counterexample():
    phi = parse(CROSS_NEQ, Field.C)
    qe = build_for_shape(Shape.AE_C, to_cnf(phi))
    x = {"y": Fraction(1), "z": Fraction(1)}  # formula false here
    verdict = refute_ae(qe, x, SamplePlan(seed=1, count=16))
    assert verdict.kind is VerdictKind.REFUTED
    assert verdict.sample in (Fraction(1), Fraction(2))
    assert "REFUTED" in str(verdict)


def test_refute_unresolved_on_true_point():
    phi = parse(CROSS_NEQ, Field.C)
    qe = build_for_shape(Shape.AE_C, to_cnf(phi))
    x = {"y": Fraction(0), "z": Fraction(3)}  # formula true here
    verdict = refute_ae(qe, x, SamplePlan(seed=2, count=24))
    assert verdict.kind is VerdictKind.UNRESOLVED
    assert verdict.tried == 24
    assert "UNRESOLVED" in str(verdict)


def test_refute_rejects_exists_first_shape():
    _, qe = built(Shape.E_R, 1)
    with pytest.raises(ShapeUnsupportedError):
        refute_ae(qe, {n: Fraction(0) for n in qe.free_names()}, SamplePlan(seed=3))


def test_refute_consistent_with_structured_deciders():
    # soundness: a refutation sample can only appear where the decider says false
    rng = random.Random(43)
    for shape, decider in (
        (Shape.AE_C, decider_for_shape(Shape.AE_C)),
        (Shape.AE_R, decider_for_shape(Shape.AE_R)),
        (Shape.AE3_Q, decider_for_shape(Shape.AE3_Q)),
    ):
        fld = SHAPE_SETUPS[shape][0]
        for seed in range(4):
            phi, qe = built(shape, seed, clauses=2)
            for k in range(6):
                pt = sample_point(rng, fld, list(qe.free_names()))
                verdict = refute_ae(qe, pt, SamplePlan(seed=100 + k, count=12))
                if decider(qe, pt):
                    assert verdict.kind is VerdictKind.UNRESOLVED, (shape, seed, pt)
                else:
                    assert verdict.kind is VerdictKind.REFUTED, (shape, seed, pt)


def test_refuter_never_refutes_true_point():
    phi = parse(CROSS_ORDER, Field.R)
    qe = build_for_shape(Shape.AE_R, to_cnf(phi))
    x = {"y": Fraction(1, 3), "z": Fraction(1, 2)}  # false: neither is zero
    assert not eval_formula(phi, x)
    x = {"y": Fraction(0), "z": Fraction(1, 2)}
    assert eval_formula(phi, x)
    plan = SamplePlan(seed=7, count=50)
    verdict = refute_ae(qe, x, plan)
    assert verdict.kind is VerdictKind.UNRESOLVED
    assert verdict.tried == 50


def test_off_node_forall_values_always_admit_inner_root():
    # away from the selector nodes the guard factor supplies the inner root,
    # even at points where the formula is false; only nodes are decisive
    from boolelim.poly import count_real_roots

    phi = parse(CROSS_ORDER, Field.R)
    qe = build_for_shape(Shape.AE_R, to_cnf(phi))
    x = {"y": Fraction(1), "z": Fraction(1)}  # first clause fails
    assert not eval_formula(phi, x)
    rng = random.Random(46)
    for _ in range(50):
        alpha = Fraction(rng.randint(-40, 40), rng.choice((3, 7, 11)))
        if alpha.denominator == 1:
            continue
        fixed = qe.substituted_equation({**x, "r": alpha})
        assert count_real_roots(as_univariate(fixed, "s")) != 0, alpha
    # while the node of the failing clause refutes
    fixed = qe.substituted_equation({**x, "r": Fraction(1)})
    assert count_real_roots(as_univariate(fixed, "s")) == 0
    # and the node of the satisfied order clause still has its witness
    fixed = qe.substituted_equation({**x, "r": Fraction(2)})
    assert count_real_roots(as_univariate(fixed, "s")) != 0


# -- witness checking ---------------------------------------------------------------


def test_check_witness_golden_ea_slice():
    qe = build_case(GOLDEN_CASES[0])
    rec = witness_recipe(qe)
    x = {"y": Fraction(0), "z": Fraction(3)}
    w = extract_witness(rec, None, x)
    assert set(w) == {"a"}
    assert check_witness(qe, x, w)
    # the witnessed slice must vanish for every b, spot-checked by binding b too
    for b in range(-10, 11):
        full = dict(w)
        full["b"] = gaussian(b, 1)
        assert check_witness(qe, x, full)
    # a wrong slice fails
    assert not check_witness(qe, x, {"a": gaussian(2)})


def test_check_witness_requires_exists_assignment():
    qe = build_case(GOLDEN_CASES[0])
    with pytest.raises(MissingAssignmentError):
        check_witness(qe, {"y": Fraction(0), "z": Fraction(3)}, {})


def test_check_witness_sqrt_values():
    phi = parse(CROSS_ORDER, Field.R)
    qe = build_for_shape(Shape.Ed_R, to_cnf(phi))
    rec = witness_recipe(qe)
    x = {"y": Fraction(3), "z": Fraction(0)}
    w = extract_witness(rec, None, x)
    assert any(isinstance(v, SqrtValue) for v in w.values())
    assert check_witness(qe, x, w)
    # r2 carries the order witness here; breaking it must fail the check
    assert isinstance(w["r2"], SqrtValue)
    wrong = dict(w)
    wrong["r2"] = Fraction(17)
    assert not check_witness(qe, x, wrong)


def test_check_witness_all_shapes_random():
    rng = random.Random(44)
    recipes = {
        Shape.EA_C: None,
        Shape.E_R: None,
        Shape.Ed_R: None,
        Shape.E3d_Q: None,
    }
    for shape in recipes:
        fld = SHAPE_SETUPS[shape][0]
        found = 0
        seed = 0
        while found < 5 and seed < 60:
            phi, qe = built(shape, seed, clauses=2)
            seed += 1
            pt = sample_point(rng, fld, list(qe.free_names()))
            if not eval_formula(phi, pt):
                continue
            found += 1
            w = extract_witness(witness_recipe(qe), None, pt)
            assert check_witness(qe, pt, w), (shape, seed, pt)
        assert found == 5, shape


def test_check_witness_forall_shapes_at_values():
    rng = random.Random(45)
    for shape in (Shape.AE_C, Shape.AE_R, Shape.AE3_Q):
        fld = SHAPE_SETUPS[shape][0]
        found = 0
        seed = 0
        while found < 4 and seed < 60:
            phi, qe = built(shape, seed, clauses=2)
            seed += 1
            pt = sample_point(rng, fld, list(qe.free_names()))
            if not eval_formula(phi, pt):
                continue
            found += 1
            rec = witness_recipe(qe)
            for alpha in (1, qe.provenance.d, Fraction(5, 2), -1):
                w = extract_witness(rec, None, pt, forall_value=alpha)
                assert check_witness(qe, pt, w), (shape, seed, alpha)
        assert found == 4, shape


# -- equivalence runs ---------------------------------------------------------------


def test_equivalence_run_agrees_on_golden():
    for case, decider in (
        (GOLDEN_CASES[0], decider_for_shape(Shape.EA_C)),
        (GOLDEN_CASES[1], decider_for_shape(Shape.AE_C)),
        (GOLDEN_CASES[2], decider_for_shape(Shape.E_R)),
        (GOLDEN_CASES[3], decider_for_shape(Shape.AE_R)),
    ):
        qe = build_case(case)
        phi = parse(case.formula, case.field)
        out = equivalence_run(phi, qe, decider, SamplePlan(seed=9, count=40))
        assert out["points"] == 40
        assert out["agreements"] == 40
        assert out["disagreements"] == []
        assert out["seed"] == 9


def test_equivalence_run_reports_disagreement():
    qe = build_case(GOLDEN_CASES[2])
    lying = parse("true", Field.R)  # wrong formula for this equation
    out = equivalence_run(lying, qe, decider_for_shape(Shape.E_R), SamplePlan(seed=10, count=30))
    assert out["agreements"] < 30
    rec = out["disagreements"][0]
    assert set(rec) == {"point", "expected", "got", "seed", "index"}
    assert set(rec["point"]) == {"y", "z"}
    assert isinstance(rec["point"]["y"], str)


def test_verdict_and_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(seed=1, count=0)
    v = Verdict(VerdictKind.TRUE)
    assert str(v) == "TRUE"


# -- the layout walk ------------------------------------------------------------------


def test_layout_walk_matches_expanded_equation():
    """Evaluating and substituting through the layout agree with the expanded
    polynomial at full points, where a dropped power or guard would show
    (a witness check cannot see a dropped square: 0^2 = 0)."""
    from boolelim.elim import from_json, to_json

    rng = random.Random(46)
    for shape, (fld, _, _) in SHAPE_SETUPS.items():
        for seed in range(4):
            _, qe = built(shape, seed, clauses=1 + seed % 3)
            for eq in (qe, from_json(to_json(qe))):
                frees = list(eq.free_names())
                for _ in range(3):
                    x = sample_point(rng, fld, frees)
                    full = {**x, **sample_point(rng, fld, eq.quantified_names(), bound=3)}
                    value = eq.equation.evaluate(full)
                    assert eq.fold(lambda f: f.evaluate(full)) == value, (shape, seed)
                    exists = {n: full[n] for q, n in eq.prefix if q == "exists"}
                    frees_and_forall = {n: v for n, v in full.items() if n not in exists}
                    assert check_witness(eq, frees_and_forall, exists) == (value == 0)
                    assert eq.substituted_equation(x) == eq.equation.substitute(x), (shape, seed)
