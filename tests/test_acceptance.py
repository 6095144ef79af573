"""Acceptance suite.

Eight headline checks, one test per criterion, each ending in a single
PASS/FAIL line. Budgeted criteria also assert their wall-clock limit.
Everything is seeded; a red run reproduces byte for byte.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from boolelim.decide import (
    SamplePlan,
    VerdictKind,
    check_witness,
    decider_for_shape,
    refute_ae,
)
from boolelim.elim import (
    Shape,
    build_for_shape,
    degree_report,
    extract_witness,
    witness_recipe,
)
from boolelim.exactnum import (
    gaussian,
    is_sum_three_squares,
    positivity_witness_q,
    three_squares_pair,
)
from boolelim.fixtures import (
    GOLDEN_CASES,
    build_case,
    grid_points,
    quadrant_fixture,
    rendered_equation,
)
from boolelim.formula import (
    NormalForm,
    RandomFormulaParams,
    Rel,
    eval_formula,
    random_formula,
    to_cnf,
    to_dnf,
)
from boolelim.poly import Field, PolyRing, VarTable, as_univariate, count_real_roots
from oracles import make_true_instance, scan_real_roots, three_square_set


SHAPE_SETUPS = {
    Shape.EA_C: (Field.C, NormalForm.DNF, Rel.NEQ0),
    Shape.AE_C: (Field.C, NormalForm.CNF, Rel.NEQ0),
    Shape.E_R: (Field.R, NormalForm.DNF, Rel.NEQ0),
    Shape.Ed_R: (Field.R, NormalForm.CNF, Rel.GT0),
    Shape.AE_R: (Field.R, NormalForm.CNF, Rel.GT0),
    Shape.E3d_Q: (Field.Q, NormalForm.CNF, Rel.GT0),
    Shape.AE3_Q: (Field.Q, NormalForm.CNF, Rel.GT0),
}
SHAPE_ORDER = list(SHAPE_SETUPS)


def _verdict(label, bad, elapsed=None, budget=None):
    ok = not bad and (elapsed is None or elapsed < budget)
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert not bad, bad[:5]
    if elapsed is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s over the {budget}s budget"


def _built_random(shape, seed, clauses, max_e, max_f):
    fld, kind, ineq = SHAPE_SETUPS[shape]
    params = RandomFormulaParams(
        field=fld, kind=kind, ineq=ineq, clauses=clauses, max_e=max_e, max_f=max_f,
        coeff_bound=32,
    )
    phi = random_formula(seed, params)
    m = to_dnf(phi) if kind is NormalForm.DNF else to_cnf(phi)
    return phi, build_for_shape(shape, m)


def _sample_point(rng, fld, names, bound=32):
    if fld is Field.C:
        return {
            n: gaussian(Fraction(rng.randint(-bound, bound), rng.randint(1, 8)),
                        Fraction(rng.randint(-bound, bound), rng.randint(1, 8)))
            for n in names
        }
    return {n: Fraction(rng.randint(-bound, bound), rng.randint(1, 8)) for n in names}


def test_criterion_1_golden_reproduction():
    t0 = time.perf_counter()
    bad = []
    for case in GOLDEN_CASES:
        got = rendered_equation(build_case(case))
        if got != case.expected:
            bad.append((case.name, got))
    _verdict("criterion 1 golden reproduction", bad,
             elapsed=time.perf_counter() - t0, budget=1.0)


def test_criterion_2_degree_bounds():
    t0 = time.perf_counter()
    bad = []
    for idx, shape in enumerate(SHAPE_ORDER):
        meta = random.Random(20000 + idx)
        for k in range(500):
            seed = 20000 + idx * 1000 + k
            clauses = meta.randint(1, 6)
            _, qe = _built_random(shape, seed, clauses, max_e=4, max_f=4)
            rep = degree_report(qe)
            if not rep.satisfied:
                bad.append((shape.value, seed, "unsatisfied", rep.degrees, rep.bounds))
                continue
            d = rep.counts["d"]
            f_max = rep.counts["f_max"]
            if shape is Shape.EA_C and rep.degrees["a"] != d:
                bad.append((shape.value, seed, "deg a", rep.degrees["a"], d))
            if shape is Shape.AE_C and rep.degrees["a"] != 2 * d - 1:
                bad.append((shape.value, seed, "deg a", rep.degrees["a"], 2 * d - 1))
            if shape is Shape.E_R and rep.degrees["r"] != 2 * d:
                bad.append((shape.value, seed, "deg r", rep.degrees["r"], 2 * d))
            if shape is Shape.AE_R and rep.degrees["s"] > 2 * f_max + 1:
                bad.append((shape.value, seed, "deg s", rep.degrees["s"], 2 * f_max + 1))
    _verdict("criterion 2 degree bounds (500 per shape)", bad,
             elapsed=time.perf_counter() - t0, budget=60.0)


def test_criterion_3_semantic_equivalence():
    t0 = time.perf_counter()
    bad = []
    for idx, shape in enumerate(SHAPE_ORDER):
        fld = SHAPE_SETUPS[shape][0]
        decider = decider_for_shape(shape)
        rng = random.Random(777 + idx)
        meta = random.Random(30000 + idx)
        for k in range(200):
            seed = 30000 + idx * 1000 + k
            phi, qe = _built_random(shape, seed, meta.randint(1, 3), max_e=2, max_f=2)
            names = list(qe.free_names())
            for j in range(25):
                pt = _sample_point(rng, fld, names)
                want = eval_formula(phi, pt)
                got = decider(qe, pt)
                if want != got:
                    bad.append((shape.value, seed, j, {n: str(v) for n, v in pt.items()}))
                    break
    _verdict("criterion 3 semantic equivalence (200x25 per shape)", bad,
             elapsed=time.perf_counter() - t0, budget=300.0)


def test_criterion_4_witness_soundness():
    bad = []
    forall_shapes = {Shape.AE_C, Shape.AE_R, Shape.AE3_Q}
    for idx, shape in enumerate(SHAPE_ORDER):
        fld, kind, ineq = SHAPE_SETUPS[shape]
        rng = random.Random(40000 + idx)
        for k in range(200):
            m, x = make_true_instance(rng, fld, kind, ineq)
            if not eval_formula(m.as_formula(), x):
                bad.append((shape.value, k, "generator produced a false instance"))
                continue
            qe = build_for_shape(shape, m)
            rec = witness_recipe(qe)
            if shape in forall_shapes:
                values = (1, m.d, Fraction(7, 2), -1)
                for alpha in values:
                    w = extract_witness(rec, None, x, forall_value=alpha)
                    if not check_witness(qe, x, w):
                        bad.append((shape.value, k, "forall value", str(alpha)))
                continue
            w = extract_witness(rec, None, x)
            if not check_witness(qe, x, w):
                bad.append((shape.value, k, "witness rejected"))
            if shape is Shape.EA_C:
                # the witnessed a-slice must be the zero polynomial in b
                slice_poly = qe.substituted_equation({**x, "a": w["a"]})
                if not slice_poly.is_zero():
                    bad.append((shape.value, k, "nonzero a-slice"))
    _verdict("criterion 4 witness soundness (200 per shape)", bad)


def test_criterion_5_quadrant_fixture():
    bad = []
    qe = quadrant_fixture()
    raw = quadrant_fixture(simplified=False)
    grid = grid_points(Fraction(-2), Fraction(2), Fraction(1, 4))
    for y in grid:
        for z in grid:
            pt = {"y": y, "z": z}
            got = decider_for_shape(Shape.E_R)(qe, pt)
            if got != (y > 0 and z > 0):
                bad.append(("simplified", str(y), str(z), got))
            if decider_for_shape(Shape.E_R)(raw, pt) != got:
                bad.append(("raw disagrees", str(y), str(z)))
    _verdict("criterion 5 quadrant fixture (17x17 grid, both variants)", bad)


def test_criterion_6_number_theory():
    t0 = time.perf_counter()
    bad = []
    table = three_square_set(5000)
    for n in range(0, 5001):
        if is_sum_three_squares(n) != (n in table):
            bad.append(("criterion", n))
    for n in range(1, 10001):
        ts = three_squares_pair(n)
        p1, p2, p3 = ts.parts
        if p1 * p1 + p2 * p2 + p3 * p3 != ts.selector * n or ts.selector not in (1, 2):
            bad.append(("pair", n))
    rng = random.Random(60000)
    for _ in range(1000):
        u = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        s, (v1, v2, v3) = positivity_witness_q(u)
        if s * u * (v1 * v1 + v2 * v2 + v3 * v3) != 1:
            bad.append(("witness", str(u)))
    _verdict("criterion 6 number theory", bad,
             elapsed=time.perf_counter() - t0, budget=30.0)


def test_criterion_7_oracle_cross_validation():
    bad = []
    ring = PolyRing(Field.R, VarTable())
    x = ring.var("x")
    rng = random.Random(20260817)
    for k in range(500):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-32, 32)) for _ in range(deg)]
        coeffs.append(Fraction(rng.randint(1, 32) * rng.choice((1, -1))))
        p = ring.zero
        for i, c in enumerate(coeffs):
            p = p + ring.const(c) * x ** i
        want = count_real_roots(as_univariate(p, "x"))
        got = scan_real_roots(coeffs, target=want)
        if got != want:
            bad.append(("scanner", k, [str(c) for c in coeffs], want, got))
    rng = random.Random(555)
    meta = random.Random(556)
    for k in range(200):
        phi, qe = _built_random(Shape.AE_C, 70000 + k, meta.randint(1, 3), 2, 2)
        pt = _sample_point(rng, Field.C, list(qe.free_names()))
        truth = decider_for_shape(Shape.AE_C)(qe, pt)
        verdict = refute_ae(qe, pt, SamplePlan(seed=900 + k, count=8))
        if truth and verdict.kind is VerdictKind.REFUTED:
            bad.append(("refuted a true point", k, str(verdict.sample)))
        if not truth and verdict.kind is not VerdictKind.REFUTED:
            bad.append(("missed node refutation", k))
    _verdict("criterion 7 oracle cross-validation", bad)


def test_criterion_8_documented_limits():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    bad = []
    if not readme.exists():
        bad.append("README.md missing")
    else:
        text = readme.read_text()
        if "Scope and limitations" not in text:
            bad.append("scope section missing")
        if "optimal" not in text.lower():
            bad.append("degree optimality not documented")
        if "property" not in text.lower():
            bad.append("property coverage not documented")
    _verdict("criterion 8 non-reproducible results documented", bad)
