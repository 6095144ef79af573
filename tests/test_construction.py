"""An equation that build_for_shape returns is its own construction, and so
is a loaded one, which from_json rebuilds from its provenance once. Builder
calls are counted by wrapping the entries of elim._BUILDERS. Also here: constant
literals folded before construction, and the degree report's forall-degree
claim when the clause products cancel."""

import dataclasses
import io
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from boolelim import elim
from boolelim.cli import main
from boolelim.decide import SamplePlan, decider_for_shape, refute_ae
from boolelim.elim import SHAPE_SPECS, Shape, build_for_shape, from_json, to_json
from boolelim.errors import ShapeUnsupportedError
from boolelim.fixtures import CROSS_NEQ, CROSS_ORDER
from boolelim.formula import (
    Atom,
    ClauseMatrix,
    NormalForm,
    Rel,
    eval_formula,
    parse,
    to_cnf,
    to_dnf,
)
from boolelim.poly import Field, PolyRing

STRUCTURED = [
    (Shape.Ed_R, Field.R, CROSS_ORDER),
    (Shape.AE_R, Field.R, CROSS_ORDER),
    (Shape.E3d_Q, Field.Q, CROSS_ORDER),
    (Shape.AE3_Q, Field.Q, CROSS_ORDER),
    (Shape.E_R, Field.Q, CROSS_NEQ),
]
POINTS = [
    {"y": Fraction(0), "z": Fraction(2)},
    {"y": Fraction(1), "z": Fraction(1)},
    {"y": Fraction(0), "z": Fraction(0)},
    {"y": Fraction(-3), "z": Fraction(0)},
]


@pytest.fixture
def builder_calls(monkeypatch):
    calls = Counter()
    for shape, build in list(elim._BUILDERS.items()):
        def counted(m, shape=shape, build=build):
            calls[shape] += 1
            return build(m)

        monkeypatch.setitem(elim._BUILDERS, shape, counted)
    return calls


def built(shape, fld, text):
    phi = parse(text, fld)
    m = to_dnf(phi) if SHAPE_SPECS[shape].kind is NormalForm.DNF else to_cnf(phi)
    return phi, build_for_shape(shape, m)


@pytest.mark.parametrize("shape,fld,text", STRUCTURED, ids=lambda v: getattr(v, "value", ""))
def test_built_equation_decides_without_a_rebuild(shape, fld, text, builder_calls):
    phi, qe = built(shape, fld, text)
    assert builder_calls[shape] == 1
    assert qe.construction() is qe
    decide = decider_for_shape(shape)
    for x in POINTS:
        assert decide(qe, x) == eval_formula(phi, x)
    assert sum(builder_calls.values()) == 1


@pytest.mark.parametrize("shape,fld,text", STRUCTURED, ids=lambda v: getattr(v, "value", ""))
def test_loaded_equation_rebuilds_once(shape, fld, text, builder_calls):
    phi, qe = built(shape, fld, text)
    builder_calls.clear()
    back = from_json(to_json(qe))
    assert builder_calls == Counter({shape: 1})
    builder_calls.clear()
    decide = decider_for_shape(shape)
    for x in POINTS:
        assert decide(back, x) == eval_formula(phi, x)
    if shape is Shape.AE3_Q:
        refute_ae(back, POINTS[1], SamplePlan(seed=3, count=8))
    assert builder_calls == Counter()
    assert back.construction() is back


def test_copies_start_without_the_mark(builder_calls):
    _, qe = built(Shape.AE_R, Field.R, CROSS_ORDER)
    copy = dataclasses.replace(qe)
    assert copy == qe and "_construction" not in repr(copy)
    builder_calls.clear()
    with pytest.raises(ShapeUnsupportedError):
        copy.construction()
    assert builder_calls == Counter()


def test_copy_with_another_layout_does_not_keep_the_old_expansion():
    _, qe = built(Shape.E3d_Q, Field.Q, CROSS_ORDER)
    qe.equation  # fills the cache
    fake = dataclasses.replace(qe, addends=qe.addends[:1])
    assert fake.equation != qe.equation
    with pytest.raises(ShapeUnsupportedError, match="does not re-derive"):
        fake.construction()


def test_loaded_equation_that_does_not_re_derive_is_refused():
    _, qe = built(Shape.E3d_Q, Field.Q, CROSS_ORDER)
    obj = json.loads(to_json(qe))
    obj["equation"] += " + 1"
    with pytest.raises(ShapeUnsupportedError, match="does not re-derive"):
        decider_for_shape(Shape.E3d_Q)(from_json(json.dumps(obj)), POINTS[0])


def _cli(monkeypatch, argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    return main(argv, out=out), out.getvalue()


def _eliminated(monkeypatch, text, field, form):
    """The equation object of `eliminate --output json`."""
    argv = ["eliminate", "--field", field, "--form", form, "--output", "json"]
    return json.loads(_cli(monkeypatch, argv, text)[1])["equation"]


def test_loaded_ea_file_that_contradicts_its_provenance_exits_6(tmp_path, monkeypatch):
    obj = _eliminated(monkeypatch, CROSS_NEQ, "c", "ea")
    obj["equation"] += " + 1"
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(obj))
    assert _cli(monkeypatch, ["decide", "--input", str(path), "--point", "y=0,z=3"])[0] == 6


def test_loaded_ea_file_without_provenance_is_decided(tmp_path, monkeypatch):
    obj = _eliminated(monkeypatch, CROSS_NEQ, "c", "ea")
    del obj["provenance"]
    path = tmp_path / "eq.json"
    path.write_text(json.dumps(obj))
    for point, want in (("y=0,z=3", "TRUE\n"), ("y=1,z=1", "FALSE\n")):
        assert _cli(monkeypatch, ["decide", "--input", str(path), "--point", point]) == (0, want)


def test_round_tripped_file_keeps_the_order_of_its_free_variables(tmp_path, monkeypatch):
    """The provenance renders as -y^2 + z = 0 /\\ y - 1 != 0, naming y first;
    the loaded equation keeps the file's order, z before y."""
    obj = _eliminated(monkeypatch, "z = y^2 /\\ y != 1", "r", "e")
    assert obj["vars"] == ["z", "y"] and obj["provenance"]["formula"].startswith("-y^2")
    path = tmp_path / "eq.json"
    path.write_text(to_json(from_json(json.dumps(obj))))
    code, got = _cli(monkeypatch, ["plot", "--input", str(path), "--grid=0:1:1"])
    assert code == 0 and got.splitlines()[0] == "z,y,has_real_root"


# -- constant literals -------------------------------------------------------------


def _matrix(kind, fld, clauses):
    ring = PolyRing(fld)
    x = ring.var("x")

    def lit(spec):
        term, rel = spec
        return Atom(x if term == "x" else ring.const(term), rel)

    return ClauseMatrix(kind, tuple(tuple(map(lit, cl)) for cl in clauses), ring)


def test_constant_literal_survives_a_json_round_trip():
    m = _matrix(NormalForm.CNF, Field.Q, [[("x", Rel.GT0), (-9, Rel.GT0)]])
    qe = build_for_shape(Shape.AE3_Q, m)
    back = from_json(to_json(qe))
    assert decider_for_shape(Shape.AE3_Q)(back, {"x": Fraction(1)}) is True
    assert decider_for_shape(Shape.AE3_Q)(back, {"x": Fraction(-1)}) is False


@pytest.mark.parametrize("kind,shape,fld,rel", [
    (NormalForm.DNF, Shape.E_R, Field.R, Rel.NEQ0),
    (NormalForm.CNF, Shape.AE_R, Field.R, Rel.GT0),
])
def test_constant_literals_fold_like_make_atom(kind, shape, fld, rel):
    # a literal that holds: 3 != 0 or 3 > 0; one that fails: 0 != 0 or -3 > 0
    holds, fails = (3, rel), ((0 if rel is Rel.NEQ0 else -3), rel)
    m = _matrix(kind, fld, [[("x", Rel.EQ0), holds], [("x", rel), fails]])
    got = build_for_shape(shape, m).provenance
    # under DNF a true literal leaves its clause and a false one kills it;
    # under CNF a false literal leaves and a true one satisfies the clause
    want = Rel.EQ0 if kind is NormalForm.DNF else rel
    assert [[a.rel for a in cl] for cl in got.clauses] == [[want]]
    assert not got.clauses[0][0].term.is_constant()


def test_matrix_without_constant_literals_is_recorded_as_given():
    phi = parse(CROSS_ORDER, Field.R)
    m = to_cnf(phi)
    assert build_for_shape(Shape.AE_R, m).provenance is m


# -- degree report: cancelling clause products ----------------------------------------


@pytest.mark.parametrize("text", [
    "(x - y = 0) /\\ (y - z = 0) /\\ (z - x = 0)",
    "x = 0 /\\ 0 = x",
])
@pytest.mark.parametrize("field,form", [("c", "ae"), ("r", "ae"), ("q", "ae3")])
def test_cancelling_clause_products_keep_the_report_satisfied(text, field, form, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    out = io.StringIO()
    assert main(["report", "--field", field, "--form", form, "--output", "json"], out=out) == 0
    rep = json.loads(out.getvalue())
    zu = next(iter(rep["degrees"]))
    d = rep["counts"]["d"]
    assert rep["satisfied"] is True
    assert rep["bounds"][zu] == 2 * d - 1 and rep["exact"][zu] is False
    assert rep["degrees"][zu] < 2 * d - 1
