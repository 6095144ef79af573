"""Characterization of witness extraction and of the seven deciders,
recorded once and compared exactly: for seeded clause matrices of every
shape (and `E_R` over Q), the `extract_witness` assignment with each value's
type and exact value, or the exception class, and the shape's decider on the
built equation and, for matrices of at most three literals, on its JSON
round trip. Forall-first shapes are witnessed
at the forall values 1, d, 7/2 and -1, plus 1+2i for `AE_C`; the empty
matrices `true` and `false` are included.

Run this file as a script to rewrite the record."""

import json
import random
from fractions import Fraction
from pathlib import Path

from boolelim.decide import decider_for_shape
from boolelim.elim import (
    Shape,
    build_for_shape,
    extract_witness,
    from_json,
    to_json,
    witness_recipe,
)
from boolelim.exactnum import GaussianRational
from boolelim.formula import NormalForm, Rel, eval_formula, parse, to_cnf, to_dnf
from boolelim.poly import Field
from oracles import make_true_instance

RECORD = Path(__file__).parent / "data" / "witness_record.json"

SETUPS = {
    "EA_C": (Shape.EA_C, Field.C, NormalForm.DNF, Rel.NEQ0),
    "AE_C": (Shape.AE_C, Field.C, NormalForm.CNF, Rel.NEQ0),
    "E_R": (Shape.E_R, Field.R, NormalForm.DNF, Rel.NEQ0),
    "E_R@Q": (Shape.E_R, Field.Q, NormalForm.DNF, Rel.NEQ0),
    "Ed_R": (Shape.Ed_R, Field.R, NormalForm.CNF, Rel.GT0),
    "AE_R": (Shape.AE_R, Field.R, NormalForm.CNF, Rel.GT0),
    "E3d_Q": (Shape.E3d_Q, Field.Q, NormalForm.CNF, Rel.GT0),
    "AE3_Q": (Shape.AE3_Q, Field.Q, NormalForm.CNF, Rel.GT0),
}
FORALL_FIRST = {Shape.AE_C, Shape.AE_R, Shape.AE3_Q}
INSTANCES = 16


def _value(v):
    return [type(v).__name__, repr(v)]


def _outcome(fn):
    try:
        got = fn()
    except Exception as exc:  # the exception class is the recorded outcome
        return ["raises", type(exc).__name__]
    if isinstance(got, dict):
        return [[name, *_value(v)] for name, v in got.items()]
    return _value(got)


def _point_text(x):
    return {n: str(v) for n, v in x.items()}


def _forall_values(shape, d):
    values = [1, d, Fraction(7, 2), -1]
    if shape is Shape.AE_C:
        values.append(GaussianRational(Fraction(1), Fraction(2)))
    return values


def _entries(label, shape, m, points):
    qe = build_for_shape(shape, m)
    # the round trip expands the equation, so only small matrices take it
    back = from_json(to_json(qe)) if sum(m.e_counts) + sum(m.f_counts) <= 3 else None
    rec = witness_recipe(qe)
    decider = decider_for_shape(shape)
    out = []
    for x in points:
        entry = {
            "setup": label,
            "formula": str(m.as_formula()),
            "point": _point_text(x),
            "truth": eval_formula(m.as_formula(), x),
            "decide": _outcome(lambda: decider(qe, x)),
        }
        if back is not None:
            entry["decide_json"] = _outcome(lambda: decider(back, x))
        if shape in FORALL_FIRST:
            entry["witness"] = [
                [str(a), _outcome(lambda: extract_witness(rec, None, x, forall_value=a))]
                for a in _forall_values(shape, m.d)
            ]
        else:
            entry["witness"] = _outcome(lambda: extract_witness(rec, None, x))
        out.append(entry)
    return out


def compute_record() -> list:
    out = []
    for k, (label, (shape, fld, kind, ineq)) in enumerate(SETUPS.items()):
        rng = random.Random(7100 + k)
        for _ in range(INSTANCES):
            m, x = make_true_instance(rng, fld, kind, ineq, max_clauses=3)
            other = {n: v * 0 + rng.randint(-2, 2) for n, v in x.items()}
            out.extend(_entries(label, shape, m, [x, other]))
        for text in ("true", "false"):
            phi = parse(text, fld)
            m = to_dnf(phi) if kind is NormalForm.DNF else to_cnf(phi)
            out.extend(_entries(label, shape, m, [{}]))
    return out


def test_witnesses_and_verdicts_match_the_record():
    want = json.loads(RECORD.read_text())
    got = compute_record()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    entries = (json.dumps(e) for e in compute_record())
    RECORD.write_text("[\n" + ",\n".join(entries) + "\n]\n")
