import random
import time
from fractions import Fraction

import pytest

from boolelim.errors import (
    FormulaSyntaxError,
    OrderInComplexError,
    OrderOnComplexError,
    SizeLimitError,
)
from boolelim.exactnum import gaussian
from boolelim.formula import (
    Atom,
    NormalForm,
    RandomFormulaParams,
    Rel,
    eval_formula,
    f_and,
    f_not,
    f_or,
    formula_ring,
    parse,
    random_formula,
    render_formula,
    rewrite_neq_to_orders,
    to_cnf,
    to_dnf,
    to_nnf,
)
from boolelim.poly import Field


CROSS = r"(y = 0 /\ z != 0) \/ (z = 0 /\ y != 0)"


def rational_point(rng, names):
    return {n: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for n in names}


def test_parse_render_roundtrip():
    rng = random.Random(20)
    for seed in range(40):
        phi = random_formula(seed, RandomFormulaParams())
        text = render_formula(phi)
        again = parse(text, Field.R)
        assert render_formula(again) == text


def test_parse_precedence_and_not():
    phi = parse(r"~(x = 0) /\ y = 0 \/ z = 0", Field.Q)
    # \/ binds loosest: (~(x=0) /\ y=0) \/ z=0
    assert eval_formula(phi, {"x": 1, "y": 0, "z": 5})
    assert eval_formula(phi, {"x": 0, "y": 9, "z": 0})
    assert not eval_formula(phi, {"x": 0, "y": 0, "z": 1})


def test_parse_relations_normalize_to_zero_comparisons():
    phi = parse("x^2 > 3", Field.R)
    assert eval_formula(phi, {"x": 2})
    assert not eval_formula(phi, {"x": Fraction(3, 2)})
    phi2 = parse("x < y", Field.R)
    assert eval_formula(phi2, {"x": 0, "y": 1})
    phi3 = parse("x >= 1", Field.R)
    assert eval_formula(phi3, {"x": 1})
    phi4 = parse("2 = 2", Field.Q)
    assert eval_formula(phi4, {})


def test_parse_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as e:
        parse(r"x = 0 /\ ", Field.Q)
    assert e.value.position == 9
    with pytest.raises(FormulaSyntaxError):
        parse("x ++ 1 = 0", Field.Q)
    with pytest.raises(FormulaSyntaxError):
        parse("", Field.Q)
    with pytest.raises(FormulaSyntaxError):
        parse("x = 0)", Field.Q)


def test_order_over_complex_rejected():
    with pytest.raises(OrderInComplexError):
        parse("x > 0", Field.C)
    with pytest.raises(OrderInComplexError):
        parse("x <= y", Field.C)


def test_order_atom_at_complex_value_rejected():
    # the parser blocks order atoms over C, but one can be built directly
    from boolelim.poly import PolyRing, VarTable

    ring = PolyRing(Field.C, VarTable())
    atom = Atom(ring.var("x"), Rel.GT0)
    with pytest.raises(OrderOnComplexError):
        eval_formula(atom, {"x": gaussian(0, 1)})
    assert eval_formula(atom, {"x": gaussian(2, 0)})


def test_true_false_literals():
    assert eval_formula(parse("true", Field.Q), {})
    assert not eval_formula(parse("false", Field.Q), {})
    m = to_dnf(parse("true", Field.Q))
    assert m.d == 1 and m.clauses == ((),)
    assert to_dnf(parse("false", Field.Q)).d == 0
    assert to_cnf(parse("true", Field.Q)).d == 0
    m2 = to_cnf(parse("false", Field.Q))
    assert m2.d == 1 and m2.clauses == ((),)


def test_nnf_pushes_negations_to_atoms():
    phi = parse(r"~((x = 0 \/ y != 0) /\ ~(z = 0))", Field.Q)
    nnf = to_nnf(phi)
    text = render_formula(nnf)
    assert "~(" not in text
    rng = random.Random(21)
    for _ in range(60):
        pt = rational_point(rng, ["x", "y", "z"])
        assert eval_formula(phi, pt) == eval_formula(nnf, pt)


def test_nnf_random_semantics():
    rng = random.Random(22)
    for seed in range(30):
        phi = f_not(random_formula(seed, RandomFormulaParams()))
        nnf = to_nnf(phi)
        for _ in range(10):
            pt = rational_point(rng, ["x1", "x2", "x3"])
            assert eval_formula(phi, pt) == eval_formula(nnf, pt)


def test_neq_rewrite_semantics_and_relations():
    phi = parse(CROSS, Field.R)
    rew = rewrite_neq_to_orders(phi)
    assert Rel.NEQ0 not in _rels(rew)
    rng = random.Random(23)
    for _ in range(80):
        pt = rational_point(rng, ["y", "z"])
        assert eval_formula(phi, pt) == eval_formula(rew, pt)


def _rels(phi):
    out = set()

    def walk(n):
        if isinstance(n, Atom):
            out.add(n.rel)
        for c in getattr(n, "children", ()):
            walk(c)
        if hasattr(n, "child"):
            walk(n.child)

    walk(phi)
    return out


def test_neq_rewrite_rejected_over_complex():
    with pytest.raises(OrderInComplexError):
        rewrite_neq_to_orders(parse("x != 0", Field.C))


def test_dnf_semantics_and_counts():
    phi = parse(CROSS, Field.R)
    m = to_dnf(phi)
    assert m.kind is NormalForm.DNF
    assert m.d == 2
    assert m.e_counts == (1, 1)
    assert m.f_counts == (1, 1)
    assert m.raw_clause_count == 2
    rng = random.Random(24)
    for _ in range(60):
        pt = rational_point(rng, ["y", "z"])
        assert eval_formula(phi, pt) == eval_formula(m.as_formula(), pt)


def test_cnf_semantics_and_pruning():
    phi = parse(CROSS, Field.R)
    m = to_cnf(phi)
    assert m.kind is NormalForm.CNF
    # distribution gives 4 syntactic clauses; two are tautologies (t = 0 \/ t != 0)
    assert m.raw_clause_count == 4
    assert m.d == 2
    rng = random.Random(25)
    for _ in range(60):
        pt = rational_point(rng, ["y", "z"])
        assert eval_formula(phi, pt) == eval_formula(m.as_formula(), pt)


def test_normal_forms_random_semantics():
    rng = random.Random(26)
    for seed in range(25):
        phi = random_formula(seed, RandomFormulaParams(clauses=2, max_e=1, max_f=1))
        for m in (to_dnf(phi), to_cnf(phi)):
            psi = m.as_formula()
            for _ in range(8):
                pt = rational_point(rng, ["x1", "x2", "x3"])
                assert eval_formula(phi, pt) == eval_formula(psi, pt), (seed, m.kind)


def test_duplicate_clauses_deduped():
    phi = parse(r"(x = 0) \/ (x = 0)", Field.Q)
    m = to_dnf(phi)
    assert m.d == 1
    assert m.raw_clause_count == 2


def test_contradictory_clause_dropped():
    phi = parse(r"(x = 0 /\ x != 0) \/ y = 0", Field.Q)
    m = to_dnf(phi)
    assert m.d == 1
    assert m.raw_clause_count == 2


@pytest.mark.parametrize("text", [r"(x > 0 /\ x = 0) \/ y = 0", r"(x > 0 /\ x < 0) \/ y = 0"])
def test_clause_with_a_contradictory_order_literal_dropped(text):
    """t > 0 contradicts t = 0 and -t > 0 in one DNF clause."""
    m = to_dnf(parse(text, Field.R))
    assert render_formula(m.as_formula()) == "y = 0"
    assert (m.d, m.raw_clause_count) == (1, 2)


def test_clause_limit_enforced():
    # (a=0 \/ b=0) /\ ... n times -> 2^n DNF clauses
    parts = [rf"(x{i} = 0 \/ y{i} = 0)" for i in range(1, 9)]
    phi = parse(" /\\ ".join(parts), Field.Q)
    with pytest.raises(SizeLimitError):
        to_dnf(phi, limit=100)
    m = to_dnf(phi, limit=256)
    assert m.d == 256
    # y = 0 takes no gather or product step, so no clause meets the limit
    for normal_form in (to_dnf, to_cnf):
        for limit in (0, -5):
            with pytest.raises(ValueError, match="clause limit must be at least 1"):
                normal_form(parse("y = 0", Field.Q), limit)


def test_random_formula_deterministic():
    p = RandomFormulaParams(field=Field.C)
    a = random_formula(77, p)
    b = random_formula(77, p)
    assert render_formula(a) == render_formula(b)
    assert render_formula(a) != render_formula(random_formula(78, p))


def test_random_formula_respects_params():
    p = RandomFormulaParams(clauses=4, max_e=2, max_f=2, kind=NormalForm.CNF, ineq=Rel.GT0)
    phi = random_formula(5, p)
    m = to_cnf(phi)
    assert 1 <= m.d <= 4
    assert all(e <= 2 for e in m.e_counts)
    assert all(f <= 2 for f in m.f_counts)
    assert _rels(phi) <= {Rel.EQ0, Rel.GT0}


def test_formula_ring_found():
    phi = parse(CROSS, Field.R)
    r = formula_ring(phi)
    assert r is not None and r.field is Field.R
    assert formula_ring(parse("true", Field.Q)) is None


def test_connective_constructors_flatten():
    phi = parse("x = 0", Field.Q)
    psi = parse("y = 0", Field.Q)
    both = f_and([phi, f_and([psi])])
    assert len(both.children) == 2
    chi = parse("z = 0", Field.Q)
    assert f_and([phi, f_and([psi, chi])]).children == (phi, psi, chi)
    assert f_or([]) is not None
    assert not eval_formula(f_or([]), {})
    assert eval_formula(f_and([]), {})


def test_render_formula_of_a_negation():
    assert render_formula(f_not(parse(r"x = 0 /\ y > 0", Field.Q))) == r"~(x = 0 /\ y > 0)"


@pytest.mark.parametrize("t", ["x", "x - 2/3*y + 1", "-x*y + 5/7"])
def test_cnf_clause_with_the_full_trichotomy_dropped(t):
    """t = 0, t > 0 and -t > 0 make a disjunctive clause trivially true;
    -t's key is t's with every coefficient negated."""
    m = to_cnf(parse(rf"({t} > 0 \/ {t} < 0 \/ {t} = 0) /\ z = 0", Field.Q))
    assert render_formula(m.as_formula()) == "z = 0"
    m = to_cnf(parse(rf"({t} > 0 \/ {t} < 0) /\ z = 0", Field.Q))
    assert m.d == 2


def test_normal_forms_key_each_literal_once(monkeypatch):
    """Distribution keys each leaf atom once however many clauses it
    enters: here 24 leaves spread into 4096 CNF clauses."""
    phi = parse(r" \/ ".join(f"(x{i} = 0 /\\ y{i} != 0)" for i in range(12)), Field.Q)
    calls = []
    key = Atom.key
    monkeypatch.setattr(Atom, "key", lambda a: calls.append(a) or key(a))
    t0 = time.perf_counter()
    m = to_cnf(phi)
    elapsed = time.perf_counter() - t0
    assert (m.d, m.raw_clause_count, len(calls)) == (4096, 4096, 24)
    assert elapsed < 0.5
