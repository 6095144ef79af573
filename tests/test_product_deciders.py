"""The deciders read the blocks of the layout, factor by factor, never the
expansion. The product forms `ea` (over C) and `e` (over R and Q) must equal
the rule on the expanded substituted equation, for built, JSON round-tripped
and opaque (provenance removed) equations alike, at small and wide points;
the sum-of-squares and forall-first blocks over R must equal the expanded
rule bracket by bracket and node by node; the refuter's node reduction must
equal the expanded rule sample by sample; and none of them may multiply the
equation out."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from boolelim import decide, poly
from boolelim.cli import EXIT_PARSE, main
from boolelim.decide import (
    SamplePlan,
    VerdictKind,
    check_witness,
    decider_for_shape,
    has_real_root,
    refute_ae,
)
from boolelim.elim import (
    QuantifiedEquation,
    Shape,
    build_for_shape,
    extract_witness,
    from_json,
    to_json,
    witness_recipe,
)
from boolelim.errors import FieldMismatchError, ShapeUnsupportedError, UnexpectedVariablesError
from boolelim.exactnum import gaussian
from boolelim.formula import eval_formula, parse, to_cnf, to_dnf
from boolelim.poly import (
    Field,
    PolyRing,
    as_univariate,
    count_real_roots,
    gcd_univariate,
    squarefree_part,
)

MONOMIALS = ("1", "y", "z", "y*z", "y^2", "z^2")
BITS = (4, 32, 64, 128)


def _term(rng) -> str:
    picks = rng.sample(MONOMIALS, rng.randint(1, 3))
    return " + ".join(f"({rng.choice([-3, -2, -1, 1, 2, 3])})*{m}" for m in picks)


def _wide(rng, bits) -> Fraction:
    return Fraction(rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) | 1)


def _point(rng, fld, bits) -> dict:
    if fld is Field.C:
        return {n: gaussian(_wide(rng, bits), _wide(rng, bits)) for n in ("y", "z")}
    return {n: _wide(rng, bits) for n in ("y", "z")}


def _vanishing_at(point, fld) -> str:
    """A term in y that is zero at the point."""
    y = point["y"]
    if fld is Field.C:
        return f"y - ({y.re.numerator}/{y.re.denominator}) - ({y.im.numerator}/{y.im.denominator})*i"
    return f"y - ({y.numerator}/{y.denominator})"


def _dnf_text(rng, d, point, fld, plant) -> str:
    """d random clauses of one or two literals; a planted clause holds an
    equation that is zero at the point, so that factor has a root there."""
    clauses = []
    for i in range(d):
        lits = [f"{_term(rng)} {rng.choice(['=', '!='])} 0" for _ in range(rng.randint(1, 2))]
        if plant and i == d - 1:
            lits = [f"{_vanishing_at(point, fld)} = 0"]
        clauses.append("(" + " /\\ ".join(lits) + ")")
    return " \\/ ".join(clauses)


def _three_kinds(qe) -> list:
    """The built equation, its JSON round trip, and the round trip with its
    provenance removed, which loads opaque."""
    text = to_json(qe)
    obj = json.loads(text)
    del obj["provenance"]
    return [qe, from_json(text), from_json(json.dumps(obj))]


def _expanded_ea_c(qe, x) -> bool:
    """The rule on the expansion: the nonzero b-coefficients share a root."""
    p = qe.substituted_equation(x)
    nonzero = [as_univariate(c, "a") for c in as_univariate(p, "b").coeffs if not c.is_zero()]
    if not nonzero:
        return True
    g = nonzero[0]
    for v in nonzero[1:]:
        g = gcd_univariate(g, v)
    return g.degree >= 1


def _expanded_e_r(qe, x) -> bool:
    return count_real_roots(as_univariate(qe.substituted_equation(x), "r")) != 0


CASES = [
    (Shape.EA_C, Field.C, decider_for_shape(Shape.EA_C), _expanded_ea_c),
    (Shape.E_R, Field.R, decider_for_shape(Shape.E_R), _expanded_e_r),
    (Shape.E_R, Field.Q, decider_for_shape(Shape.E_R), _expanded_e_r),
]


def _check_all_kinds(shape, decider, oracle, qe, x) -> bool:
    want = oracle(qe, x)
    built, loaded, opaque = _three_kinds(qe)
    assert opaque.provenance is None
    assert decider(built, x) == want
    assert decider(loaded, x) == want
    if shape is Shape.E_R:
        assert has_real_root(opaque, x) == want
    if qe.field is Field.Q:
        # an opaque Q equation's real roots need not be rational
        with pytest.raises(ShapeUnsupportedError):
            decider(opaque, x)
    else:
        assert decider(opaque, x) == want
    return want


@pytest.mark.parametrize("shape,fld,decider,oracle", CASES, ids=["ea_C", "e_R", "e_Q"])
def test_factorwise_verdicts_equal_the_expanded_rule(shape, fld, decider, oracle):
    rng = random.Random(f"product:{shape.value}:{fld.value}")
    seen = set()
    for d in (1, 2, 3, 4):
        for k, bits in enumerate(BITS):
            x = _point(rng, fld, bits)
            text = _dnf_text(rng, d, x, fld, plant=(d + k) % 2 == 0)
            qe = build_for_shape(shape, to_dnf(parse(text, fld)))
            seen.add(_check_all_kinds(shape, decider, oracle, qe, x))
    assert seen == {True, False}


@pytest.mark.parametrize("shape,fld,decider,oracle", CASES, ids=["ea_C", "e_R", "e_Q"])
def test_empty_matrices_decide_like_their_expansion(shape, fld, decider, oracle):
    x = _point(random.Random(5), fld, 32)
    for text, want in (("true", True), ("false", False)):
        qe = build_for_shape(shape, to_dnf(parse(text, fld)))
        assert _check_all_kinds(shape, decider, oracle, qe, x) is want


def _no_folds(monkeypatch) -> list:
    calls = []
    fold = QuantifiedEquation.fold

    def counting(self, fmap):
        calls.append(self.shape)
        return fold(self, fmap)

    monkeypatch.setattr(QuantifiedEquation, "fold", counting)
    return calls


@pytest.mark.parametrize("shape,fld,decider,oracle", CASES, ids=["ea_C", "e_R", "e_Q"])
def test_product_deciders_never_fold(monkeypatch, shape, fld, decider, oracle):
    rng = random.Random(11)
    x = _point(rng, fld, 64)
    qe = build_for_shape(shape, to_dnf(parse(_dnf_text(rng, 3, x, fld, plant=True), fld)))
    kinds = _three_kinds(qe)  # loading renders the expansion once, before counting
    calls = _no_folds(monkeypatch)
    for eq in kinds:
        if shape is Shape.E_R:
            assert has_real_root(eq, x)
        if eq.provenance is not None or eq.field is not Field.Q:
            assert decider(eq, x)
    assert calls == []


def _cnf_text(rng, d) -> str:
    """d random clauses of one or two equation or order literals."""
    clauses = [
        " \\/ ".join(f"{_term(rng)} {rng.choice(['=', '>'])} 0" for _ in range(rng.randint(1, 2)))
        for _ in range(d)
    ]
    return " /\\ ".join(f"({c})" for c in clauses)


def _real_root(p, name) -> bool:
    return count_real_roots(as_univariate(p, name)) != 0


def _expanded_ed_r(qe, x) -> bool:
    """Every squared bracket, multiplied out at x, has a real root."""
    brackets = []
    for i, addend in enumerate(qe.addends):
        bracket = qe.ring.one
        for f in addend:
            bracket = bracket * f.substitute(x)
        brackets.append((bracket, f"r{i + 1}"))
    return all(_real_root(b, name) for b, name in brackets)


def _expanded_ae_r(qe, x) -> bool:
    """The expansion at every node has a real root in s."""
    nodes = range(1, qe.provenance.d + 1)
    return all(_real_root(qe.substituted_equation({**x, "r": Fraction(n)}), "s") for n in nodes)


@pytest.mark.parametrize("shape,decider,oracle", [
    (Shape.Ed_R, decider_for_shape(Shape.Ed_R), _expanded_ed_r),
    (Shape.AE_R, decider_for_shape(Shape.AE_R), _expanded_ae_r),
], ids=["ed_R", "ae_R"])
def test_block_verdicts_equal_the_expanded_rule(shape, decider, oracle):
    rng = random.Random(f"blocks:{shape.value}")
    seen = set()
    for d in (1, 2, 3):
        for bits in BITS:
            x = _point(rng, Field.R, bits)
            qe = build_for_shape(shape, to_cnf(parse(_cnf_text(rng, d), Field.R)))
            want = oracle(qe, x)
            assert decider(qe, x) == want, (shape, d, bits)
            assert decider(from_json(to_json(qe)), x) == want, (shape, d, bits)
            seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("shape,point", [
    (Shape.Ed_R, {"y": 0, "z": 1}),
    (Shape.AE_R, {"y": 0, "z": 1}),
], ids=["ed_R", "ae_R"])
def test_zero_factor_zeroes_its_block_whatever_the_point_lacks(shape, point):
    """At y = 0 the block's factor y is zero, so its expansion has no w left:
    the point needs no value for w, as on the expansion."""
    qe = build_for_shape(shape, to_cnf(parse("w*z = 0 \\/ y = 0", Field.R)))
    assert qe.substituted_equation(point).variables() <= {"r", "r1", "s"}
    assert decider_for_shape(shape)(qe, point) is True
    with pytest.raises(UnexpectedVariablesError):
        decider_for_shape(shape)(qe, {"y": 1, "z": 1})


@pytest.mark.parametrize("shape,fld", [
    (Shape.EA_C, Field.C),
    (Shape.E_R, Field.R),
    (Shape.Ed_R, Field.R),
    (Shape.AE_R, Field.R),
], ids=["ea_C", "e_R", "ed_R", "ae_R"])
def test_each_point_value_becomes_a_ring_constant_once(monkeypatch, shape, fld):
    """The block walk converts the point once, not once per factor it
    substitutes into; a non-real value is still refused over R."""
    rng = random.Random(f"once:{shape.value}")
    x = _point(rng, fld, 32)
    if shape in (Shape.EA_C, Shape.E_R):
        matrix = to_dnf(parse(_dnf_text(rng, 3, x, fld, plant=False), fld))
    else:
        matrix = to_cnf(parse(_cnf_text(rng, 3), fld))
    qe = build_for_shape(shape, matrix)
    assert sum(len(a) for a in qe.addends) > 1
    converted = []
    const = PolyRing.const

    def counting(ring, v):
        if any(v is value for value in x.values()):
            converted.append(v)
        return const(ring, v)

    monkeypatch.setattr(PolyRing, "const", counting)
    decider_for_shape(shape)(qe, x)
    assert sorted(map(str, converted)) == sorted(map(str, x.values()))
    if fld is Field.R:
        with pytest.raises(FieldMismatchError):
            decider_for_shape(shape)(qe, {**x, "y": gaussian(1, 1)})


@pytest.mark.parametrize("shape,fld", [
    (Shape.Ed_R, Field.R),
    (Shape.AE_R, Field.R),
    (Shape.E3d_Q, Field.Q),
    (Shape.AE3_Q, Field.Q),
], ids=["ed_R", "ae_R", "e3d_Q", "ae3_Q"])
def test_structured_deciders_never_fold(monkeypatch, shape, fld):
    rng = random.Random(f"nofold:{shape.value}")
    x = _point(rng, fld, 64)
    qe = build_for_shape(shape, to_cnf(parse(_cnf_text(rng, 3), fld)))
    kinds = [qe, from_json(to_json(qe))]  # loading renders the expansion once
    calls = _no_folds(monkeypatch)
    for eq in kinds:
        decider_for_shape(shape)(eq, x)
    assert calls == []


def _expanded_refute(qe, x, plan) -> tuple:
    """refute_ae's samples decided on the expansion: (kind, sample, tried)."""
    exists = [n for q, n in qe.prefix if q == "exists"][0]
    d = qe.provenance.d
    samples = [Fraction(i) for i in range(1, d + 1)][: plan.count]
    rng = random.Random(plan.seed)
    while len(samples) < plan.count:
        samples.append(Fraction(rng.randint(-plan.bound, plan.bound), rng.randint(1, plan.bound)))
    for k, alpha in enumerate(samples, start=1):
        p = as_univariate(qe.substituted_equation({**x, qe.prefix[0][1]: alpha}), exists)
        has_root = p.degree >= 1 or p.is_zero() if qe.field is Field.C else count_real_roots(p) != 0
        if not has_root:
            return VerdictKind.REFUTED, alpha, k
    return VerdictKind.UNRESOLVED, None, len(samples)


@pytest.mark.parametrize("shape,fld", [(Shape.AE_C, Field.C), (Shape.AE_R, Field.R)])
def test_refuter_reads_the_nodes_and_never_folds(monkeypatch, shape, fld):
    rng = random.Random(f"refute:{shape.value}")
    rel = "!=" if fld is Field.C else ">"
    seen = set()
    for d in (1, 2, 3):
        for k in range(4):
            x = _point(rng, fld, 4)
            clauses = [
                " \\/ ".join(f"{_term(rng)} {rng.choice(['=', rel])} 0" for _ in range(2))
                for _ in range(d)
            ]
            phi = parse(" /\\ ".join(f"({c})" for c in clauses), fld)
            qe = build_for_shape(shape, to_cnf(phi))
            plan = SamplePlan(seed=k, count=2 + k * 4)
            want = _expanded_refute(qe, x, plan)
            calls = _no_folds(monkeypatch)
            got = refute_ae(qe, x, plan)
            monkeypatch.undo()
            assert calls == []
            assert (got.kind, got.sample, got.tried) == want, (shape, d, k)
            seen.add(got.kind)
    assert seen == {VerdictKind.REFUTED, VerdictKind.UNRESOLVED}


@pytest.mark.parametrize("form,fld,text", [
    ("ea", "c", "y = 0 \\/ z != 0"),
    ("e", "r", "y = 0 \\/ z != 0"),
])
def test_true_first_factor_does_not_hide_a_missing_variable(tmp_path, form, fld, text):
    """The first clause is true at y = 0, but the second clause's factor
    holds z, which the point lacks: an input error, as on the expansion."""
    src = tmp_path / "f.txt"
    src.write_text(text)
    eq = tmp_path / "eq.json"
    out = tmp_path / "out.txt"
    with open(out, "w") as fh:
        argv = ["eliminate", "--field", fld, "--form", form, "--input", str(src), "--output", "json"]
        assert main(argv, out=fh) == 0
    eq.write_text(json.dumps(json.loads(out.read_text())["equation"]))
    with open(out, "w") as fh:
        assert main(["decide", "--input", str(eq), "--point", "y=0,z=1"], out=fh) == 0
        assert main(["decide", "--input", str(eq), "--point", "y=0"], out=fh) == EXIT_PARSE


# -- forall a exists b over C ---------------------------------------------------------


AE_BITS = (4, 32, 128, 512)


def _ae_cnf_text(rng, d, point, plant) -> str:
    """d random clauses of one or two equation or inequation literals; when
    planted, every clause also holds a literal true at the point: an
    equation in y that vanishes there or a random inequation."""
    clauses = []
    for i in range(d):
        lits = [f"{_term(rng)} {rng.choice(['=', '!='])} 0" for _ in range(rng.randint(1, 2))]
        if plant:
            lits.append(f"{_vanishing_at(point, Field.C)} = 0" if i % 2 else f"{_term(rng)} != 0")
        clauses.append("(" + " \\/ ".join(lits) + ")")
    return " /\\ ".join(clauses)


def _expanded_ae_c(qe, x) -> bool:
    """The rule on the expansion: p = sum_j d_j(a) b^j has no root in b
    exactly where every d_j with j >= 1 vanishes and d_0 does not, so the
    statement holds iff every root of the gcd g of those d_j is one of d_0."""
    coeffs = as_univariate(qe.substituted_equation(x), "b").coeffs
    high = [as_univariate(c, "a") for c in coeffs[1:] if not c.is_zero()]
    if not high:
        return not coeffs or coeffs[0].is_zero()
    g = high[0]
    for v in high[1:]:
        g = gcd_univariate(g, v)
    d0 = as_univariate(coeffs[0], "a")
    if g.degree == 0 or d0.is_zero():
        return True
    sf = squarefree_part(g)
    return gcd_univariate(sf, d0).degree == sf.degree


def test_ae_c_node_walk_equals_the_expanded_rule():
    """Built and loaded constructions are decided at the nodes, the opaque
    equation by the gcd rule on its one polynomial; all three agree with the
    rule on the expansion, and with the formula, from 4- to 512-bit parts."""
    rng = random.Random("ae_c:nodes")
    seen = set()
    for d in (1, 2, 3, 4):
        for k, bits in enumerate(AE_BITS):
            x = _point(rng, Field.C, bits)
            phi = parse(_ae_cnf_text(rng, d, x, plant=(d + k) % 2 == 0), Field.C)
            qe = build_for_shape(Shape.AE_C, to_cnf(phi))
            want = _expanded_ae_c(qe, x)
            assert want == eval_formula(phi, x), (d, bits)
            built, loaded, opaque = _three_kinds(qe)
            assert opaque.provenance is None
            for eq in (built, loaded, opaque):
                assert decider_for_shape(Shape.AE_C)(eq, x) == want, (d, bits)
            seen.add(want)
    assert seen == {True, False}


def test_ae_c_decider_never_folds(monkeypatch):
    rng = random.Random("nofold:AE_C")
    x = _point(rng, Field.C, 64)
    phi = parse(_ae_cnf_text(rng, 3, x, plant=True), Field.C)
    kinds = _three_kinds(build_for_shape(Shape.AE_C, to_cnf(phi)))
    calls = _no_folds(monkeypatch)
    for eq in kinds:
        assert decider_for_shape(Shape.AE_C)(eq, x) is True
    assert calls == []


@pytest.mark.parametrize("plant", [True, False], ids=["true", "false"])
def test_ae_c_construction_proves_no_gcd_at_512_bits(monkeypatch, plant):
    """At the nodes a factor's root in b is a degree check: no gcd chain
    runs, however wide the point."""
    rng = random.Random(f"nogcd:{plant}")
    x = _point(rng, Field.C, 512)
    phi = parse(_ae_cnf_text(rng, 4, x, plant), Field.C)
    qe = build_for_shape(Shape.AE_C, to_cnf(phi))
    loaded = from_json(to_json(qe))
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return gcd_univariate(p, q)

    monkeypatch.setattr(decide, "gcd_univariate", counting)
    monkeypatch.setattr(poly, "gcd_univariate", counting)
    for eq in (qe, loaded):
        assert decider_for_shape(Shape.AE_C)(eq, x) == eval_formula(phi, x)
    assert calls == []


def test_ae_c_decider_refuses_other_layouts():
    """A copy of a construction, or a layout made by hand, is neither a
    construction nor an opaque equation."""
    qe = build_for_shape(Shape.AE_C, to_cnf(parse("y = 0 \\/ z != 0", Field.C)))
    point = {"y": gaussian(0), "z": gaussian(1)}
    assert decider_for_shape(Shape.AE_C)(qe, point) is True
    copy = dataclasses.replace(qe)
    with pytest.raises(ShapeUnsupportedError):
        decider_for_shape(Shape.AE_C)(copy, point)
    by_hand = QuantifiedEquation(
        qe.field, qe.prefix, qe.shape, qe.ring, guard=qe.guard, addends=qe.addends
    )
    with pytest.raises(ShapeUnsupportedError):
        decider_for_shape(Shape.AE_C)(by_hand, point)


def test_ea_c_witness_check_with_b_unbound_never_folds(monkeypatch):
    """The a-slice is the zero polynomial in b iff some factor is: the check
    agrees with the expanded slice on built, loaded and opaque equations,
    for the extracted witness and a wrong one, without multiplying out."""
    rng = random.Random("witness:EA_C")
    seen = set()
    for d in (1, 2, 3):
        for bits in (4, 64):
            x = _point(rng, Field.C, bits)
            phi = parse(_dnf_text(rng, d, x, Field.C, plant=True), Field.C)
            qe = build_for_shape(Shape.EA_C, to_dnf(phi))
            good = extract_witness(witness_recipe(qe), None, x)
            cases = []
            for eq in _three_kinds(qe):
                for w in (good, {"a": good["a"] + 1}):
                    want = eq.substituted_equation({**x, **w}).is_zero()
                    cases.append((eq, w, want))
            calls = _no_folds(monkeypatch)
            for eq, w, want in cases:
                assert check_witness(eq, x, w) is want, (d, bits)
                seen.add(want)
            monkeypatch.undo()
            assert calls == []
    assert seen == {True, False}
