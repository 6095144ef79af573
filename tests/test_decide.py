import itertools
import json
import random
from fractions import Fraction

import pytest

from boolelim.decide import (
    SamplePlan,
    Verdict,
    VerdictKind,
    check_witness,
    decider_for_shape,
    equivalence_run,
    has_real_root,
    refute_ae,
)
from boolelim.elim import (
    QuantifiedEquation,
    Shape,
    SqrtValue,
    build_for_shape,
    compile_formula,
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
    eval_formula,
    parse,
    random_formula,
    render_formula,
    to_cnf,
    to_dnf,
)
from boolelim.poly import Field, PolyRing, VarTable, as_univariate, render_poly
from oracles import SHAPE_SETUPS


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


# -- evaluating at square-root and Gaussian values -------------------------------


def test_evaluate_takes_square_root_values_by_their_powers():
    ring = PolyRing(Field.R, VarTable())
    r, y = ring.quantified("r"), ring.var("y")
    root = SqrtValue(Fraction(2))
    assert (r * r - 2 * y).evaluate({"r": root, "y": 1}) == 0
    # an odd power of an irrational root has no rational value
    with pytest.raises(ValueError):
        (r + 1).evaluate({"r": root})
    # a rational root enters by any power
    value = (r**3).evaluate({"r": SqrtValue(Fraction(4))})
    assert type(value) is Fraction and value == 8


@pytest.mark.parametrize("fld", [Field.R, Field.Q])
def test_evaluate_coerces_gaussian_values_into_ordered_fields(fld):
    ring = PolyRing(fld, VarTable())
    x = ring.var("x")
    value = (x * x + 1).evaluate({"x": gaussian(3, 0)})
    assert type(value) is Fraction and value == 10
    with pytest.raises(FieldMismatchError):
        (x * x + 1).evaluate({"x": gaussian(0, 1)})


# -- complete deciders vs formula truth -----------------------------------------


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


def _random_tree(rng, leaves, depth):
    """A random and/or/not formula text over the literal texts."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    op = rng.choice((" /\\ ", " \\/ "))
    kids = [_random_tree(rng, leaves, depth - 1) for _ in range(rng.randint(2, 3))]
    node = "(" + op.join(kids) + ")"
    return f"~{node}" if rng.random() < 0.2 else node


def _terms_vanishing_at(rng, ring, point, coeff) -> list:
    """Three nonconstant terms of one to three monomials over the point's
    names, with coefficients drawn by coeff, each shifted to vanish there."""
    names = list(point)
    bases = []
    while len(bases) < 3:
        t = ring.zero
        for _ in range(rng.randint(1, 3)):
            mono = ring.const(coeff())
            for n in rng.sample(names, rng.randint(1, 2)):
                mono = mono * ring.var(n)
            t = t + mono
        if not t.is_constant():
            bases.append(t - t.evaluate(point))
    return bases


@pytest.mark.parametrize("shape", [Shape.EA_C, Shape.AE_C])
def test_c_deciders_at_planted_zero_patterns(shape):
    """Over C a random point makes a literal term vanish almost never, so a
    random sweep sees only the all-nonzero pattern. Here each formula has
    three literal terms with Gaussian coefficients, shifted to vanish or not
    at one point in every one of the 8 patterns, and the construction's
    verdict there must be the formula's."""
    rng = random.Random(2101 + (shape is Shape.AE_C))
    names = ["x1", "x2", "x3"]
    verdicts = {True: 0, False: 0}
    for _ in range(12):
        ring = PolyRing(Field.C)
        point = {n: gaussian(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4))
                 for n in names}
        bases = _terms_vanishing_at(
            rng, ring, point, lambda: gaussian(rng.randint(-5, 5), rng.randint(-5, 5))
        )
        offsets = [gaussian(rng.randint(1, 5), rng.randint(-5, 5)) for _ in bases]
        rels = [rng.choice(("=", "!=")) for _ in bases]
        tree = _random_tree(rng, ["{0}", "{1}", "{2}"], 3)
        for pattern in range(8):
            zeros = [bool(pattern >> j & 1) for j in range(3)]
            terms = [b if z else b + c for b, z, c in zip(bases, zeros, offsets)]
            assert [t.evaluate(point) == 0 for t in terms] == zeros
            literals = [f"{render_poly(t)} {r} 0" for t, r in zip(terms, rels)]
            phi = parse(tree.format(*literals), Field.C)
            want = eval_formula(phi, point)
            qe = compile_formula(phi, shape, Field.C)
            assert decider_for_shape(shape)(qe, point) == want, (zeros, render_formula(phi))
            verdicts[want] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10, verdicts


@pytest.mark.parametrize("shape,fld", [
    (Shape.E_R, Field.R),
    (Shape.E_R, Field.Q),
    (Shape.Ed_R, Field.R),
    (Shape.AE_R, Field.R),
    (Shape.E3d_Q, Field.Q),
    (Shape.AE3_Q, Field.Q),
], ids=["E_R-R", "E_R-Q", "Ed_R", "AE_R", "E3d_Q", "AE3_Q"])
def test_r_and_q_deciders_at_planted_sign_patterns(shape, fld):
    """Criterion 3's random points make some R or Q literal term vanish at
    only 3-4% of them. Here each formula has three literal terms with rational
    coefficients, shifted to be negative, zero or positive at one rational
    point in every one of the 27 sign patterns, and the construction's
    verdict there must be the formula's. Over Q a positive value is 7 or
    2/7: 7 is not a sum of three rational squares but 1/14 is, so only the
    gadget's scale-2 branch finds the root, and 2/7 needs its scale-1 one."""
    rng = random.Random(f"signs:{shape.value}:{fld.value}")
    rels = ("=", "!=") if shape is Shape.E_R else ("=", "!=", ">", ">=", "<")
    sizes = (7, Fraction(2, 7)) if fld is Field.Q else (1, Fraction(7, 3), 4)
    verdicts = {True: 0, False: 0}
    for _ in range(6):
        ring = PolyRing(fld)
        point = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for n in ("x1", "x2", "x3")}
        bases = _terms_vanishing_at(rng, ring, point, lambda: rng.randint(-5, 5))
        shifts = [(-rng.choice(sizes), 0, rng.choice(sizes)) for _ in bases]
        literal_rels = [rng.choice(rels) for _ in bases]
        tree = _random_tree(rng, ["{0}", "{1}", "{2}"], 3)
        for signs in itertools.product(range(3), repeat=3):
            terms = [b + shift[k] for b, shift, k in zip(bases, shifts, signs)]
            values = [t.evaluate(point) for t in terms]
            assert [(v > 0) - (v < 0) + 1 for v in values] == list(signs)
            literals = [f"{render_poly(t)} {r} 0" for t, r in zip(terms, literal_rels)]
            phi = parse(tree.format(*literals), fld)
            want = eval_formula(phi, point)
            qe = compile_formula(phi, shape, fld)
            assert decider_for_shape(shape)(qe, point) == want, (signs, render_formula(phi))
            verdicts[want] += 1
    assert verdicts[True] > 10 and verdicts[False] > 10, verdicts


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


def test_has_real_root_refuses_a_point_naming_r():
    qe = quadrant_fixture()
    assert has_real_root(qe, {"y": 1, "z": 1})
    with pytest.raises(UnexpectedVariablesError, match="quantified"):
        has_real_root(qe, {"y": 1, "z": 1, "r": 5})


@pytest.mark.parametrize("equation,want", [("a*y", (True, False)), ("b*a - b*y", (True, True))])
def test_opaque_forall_exists_without_a_deciding_b_coefficient(equation, want):
    """a*y has no positive-degree b-coefficient, so it holds where its
    constant one, a*y, is zero in a: at y = 0 only. b*(a - y) has a zero
    constant coefficient, so b = 0 is a root for every a."""
    from boolelim.elim import from_json

    qe = from_json(json.dumps({
        "field": "C", "prefix": [["forall", "a"], ["exists", "b"]], "vars": ["y"],
        "equation": equation, "shape": "AE_C", "counts": {},
    }))
    assert qe.opaque
    decide = decider_for_shape(Shape.AE_C)
    assert (decide(qe, {"y": gaussian(0)}), decide(qe, {"y": gaussian(1)})) == want


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


def test_check_witness_with_the_forall_variable_unbound(monkeypatch):
    """AE_C with b assigned and a left: the guard is not zero in a, so the
    equation is zero in a exactly when every selector addend is, which at
    b = 0 is when every clause holds through an equation at x. That reading
    multiplies the layout out."""
    phi = parse(r"(y = 0 \/ z != 0) /\ (z = 0 \/ y != 0)", Field.C)
    qe = build_for_shape(Shape.AE_C, to_cnf(phi))
    expanded = []
    original = type(qe).substituted_equation
    monkeypatch.setattr(
        type(qe), "substituted_equation", lambda self, x: expanded.append(x) or original(self, x)
    )
    for y, z, want in ((0, 0, True), (0, 1, False), (1, 1, False)):
        x = {"y": gaussian(y), "z": gaussian(z)}
        for b in (gaussian(0), gaussian(1, 1)):
            assert check_witness(qe, x, {"b": b}) is want, (y, z, b)
    assert len(expanded) == 6


def test_exists_first_product_with_two_addends_is_refused():
    ring = PolyRing(Field.R, VarTable())
    r = ring.quantified("r")
    qe = QuantifiedEquation(Field.R, (("exists", "r"),), Shape.E_R, ring, addends=((r,), (r - 1,)))
    with pytest.raises(ShapeUnsupportedError, match="product of factors"):
        decider_for_shape(Shape.E_R)(qe, {})


def test_check_witness_requires_exists_assignment():
    qe = build_case(GOLDEN_CASES[0])
    with pytest.raises(MissingAssignmentError):
        check_witness(qe, {"y": Fraction(0), "z": Fraction(3)}, {})


def test_check_witness_refuses_an_assignment_that_rebinds_the_point():
    """The formula is false at y = 1; an assignment setting y = 0 must not
    make the check read it at y = 0."""
    qe = build_for_shape(Shape.EA_C, to_dnf(parse("y = 0", Field.C)))
    assert not decider_for_shape(Shape.EA_C)(qe, {"y": 1})
    with pytest.raises(UnexpectedVariablesError, match="unquantified"):
        check_witness(qe, {"y": 1}, {"a": 1, "y": 0})
    with pytest.raises(UnexpectedVariablesError, match="unquantified"):
        check_witness(qe, {"y": 0}, {"a": 1, "q": 0})
    with pytest.raises(UnexpectedVariablesError, match="rebinds"):
        check_witness(qe, {"y": 0, "b": 3}, {"a": 1, "b": 3})
    # the forall value may come in either mapping, but not in both
    assert check_witness(qe, {"y": 0, "b": 3}, {"a": 1})
    assert check_witness(qe, {"y": 0}, {"a": 1, "b": 3})


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


@pytest.mark.parametrize("shape,forall", [(Shape.Ed_R, None), (Shape.AE_R, Fraction(1))])
def test_check_witness_perfect_square_radicand(shape, forall):
    """At u = 1/4 the gadget 1 - r^2*u vanishes at r = sqrt(4) = 2."""
    qe = build_for_shape(shape, to_cnf(parse("y > 0", Field.R)))
    x = {"y": Fraction(1, 4)}
    w = extract_witness(witness_recipe(qe), None, x, forall_value=forall)
    root = next(v for v in w.values() if isinstance(v, SqrtValue))
    assert root.radicand == 4
    assert check_witness(qe, x, w)
    if shape is Shape.AE_R:
        # off the nodes the guard holds s to the first power, rational here
        assert check_witness(qe, x, {"r": Fraction(5, 2), "s": SqrtValue(Fraction(4))})


def test_check_witness_refuses_an_odd_power_of_an_irrational_root():
    """Off the nodes the AE_R guard 1 - s*prod(r - h) holds s to the first
    power, which sqrt(2) has no rational value for."""
    qe = build_for_shape(Shape.AE_R, to_cnf(parse("y > 0", Field.R)))
    with pytest.raises(ValueError):
        check_witness(qe, {"y": Fraction(1, 2)}, {"r": Fraction(5, 2), "s": SqrtValue(2)})


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
    for bound in (0, -3):
        with pytest.raises(ValueError, match=f"got bound {bound}"):
            SamplePlan(seed=1, bound=bound)
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
                    at_full = eq.substituted_equation(full).constant_value()
                    assert at_full == value, (shape, seed)
                    exists = {n: full[n] for q, n in eq.prefix if q == "exists"}
                    frees_and_forall = {n: v for n, v in full.items() if n not in exists}
                    assert check_witness(eq, frees_and_forall, exists) == (value == 0)
                    assert eq.substituted_equation(x) == eq.equation.substitute(x), (shape, seed)


def test_check_witness_refuses_a_square_root_with_the_forall_value_unbound():
    qe = build_for_shape(Shape.AE_R, to_cnf(parse("y > 0", Field.R)))
    x = {"y": Fraction(1, 4)}
    w = extract_witness(witness_recipe(qe), None, x, forall_value=Fraction(1))
    assert isinstance(w["s"], SqrtValue) and check_witness(qe, x, w)
    with pytest.raises(MissingAssignmentError):
        check_witness(qe, x, {"s": w["s"]})


def test_witness_recipe_needs_provenance():
    ring = PolyRing(Field.R, VarTable())
    r = ring.quantified("r")
    qe = QuantifiedEquation(Field.R, (("exists", "r"),), Shape.E_R, ring, addends=((r,),))
    with pytest.raises(ValueError):
        witness_recipe(qe)
