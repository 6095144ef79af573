"""The command line's exit-code contract under generated input: `eliminate`,
`decide` and `decide --refute` end with a documented code (0, 2, 3, 4, 5
or 6) and never with a traceback, whatever the formula text, the form and
field, the point or the equation file: built, opaque (its provenance
dropped) or with a tampered prefix."""

import io
import json
import sys

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from boolelim.cli import main

DOCUMENTED = {0, 2, 3, 4, 5, 6}
FREE = ("x", "y", "z")
# names that some construction quantifies
QUANTIFIED = ("a", "b", "r", "s", "v1", "w2")
FORMS = {"ea": "c", "ae": "crq", "e": "rq", "ed": "r", "e3d": "q", "ae3": "q"}
DEFINED = [(form, fld) for form, flds in FORMS.items() for fld in flds]
PAIRS = [(form, fld) for form in FORMS for fld in "crq"]
VARIANTS = ("payload", "equation", "opaque", "flipped", "dropped", "renamed")

CONTRACT = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def formulas(names):
    leaves = st.one_of(
        st.sampled_from(names),
        st.sampled_from(names).map(lambda n: f"{n}^2"),
        st.sampled_from(["0", "1", "-2", "3/4", "5", "-1/3", "7", "1/0"]),
    )
    terms = st.recursive(
        leaves,
        lambda t: st.tuples(t, st.sampled_from(["+", "-", "*"]), t).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"
        ),
        max_leaves=3,
    )
    relations = ["=", "!=", ">", ">=", "<", "<="]
    atoms = st.one_of(
        st.tuples(terms, st.sampled_from(relations), terms).map(" ".join),
        st.sampled_from(["true", "false"]),
    )
    return st.recursive(
        atoms,
        lambda f: st.one_of(
            st.tuples(f, st.sampled_from([" /\\ ", " \\/ "]), f).map(
                lambda p: f"({p[0]}{p[1]}{p[2]})"
            ),
            f.map(lambda g: f"~({g})"),
        ),
        max_leaves=4,
    )


# formula text: well formed over free and quantifier-named variables, cut
# short, or arbitrary
texts = st.one_of(
    formulas(FREE + QUANTIFIED),
    st.tuples(formulas(FREE + QUANTIFIED), st.integers(0, 40)).map(lambda p: p[0][: p[1]]),
    st.text(alphabet="xyab01 ()=!<>/\\~^*+-", max_size=16),
)
values = ["0", "1", "-1", "1/2", "i", "1+2i"]
# a point: the free variables bound to plain values, every name so bound
# (quantified ones included), or a few names bound to anything
points = st.one_of(
    st.fixed_dictionaries({n: st.sampled_from(values) for n in FREE}),
    st.fixed_dictionaries({n: st.sampled_from(values) for n in FREE + QUANTIFIED}),
    st.dictionaries(
        st.sampled_from(FREE + QUANTIFIED), st.sampled_from(values + ["1/0", "", "q"]), max_size=4
    ),
).map(lambda d: ",".join(f"{n}={v}" for n, v in d.items()))


def cli(argv, stdin: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin, sys.stderr
    sys.stdin, sys.stderr = io.StringIO(stdin), io.StringIO()
    try:
        code = main(argv, out=out)
    finally:
        sys.stdin, sys.stderr = saved
    return code, out.getvalue()


def eliminate(formula: str, pair: tuple) -> tuple[int, str]:
    form, fld = pair
    return cli(["eliminate", "--field", fld, "--form", form, "--output", "json"], formula)


def equation_file(payload: str, variant: str) -> str:
    """The `eliminate --output json` payload as a `decide` input."""
    if variant == "payload":
        return payload
    eq = json.loads(payload)["equation"]
    if variant == "opaque":
        eq.pop("provenance", None)
    elif variant == "flipped":
        eq["prefix"] = [["forall" if q == "exists" else "exists", n] for q, n in eq["prefix"]]
    elif variant == "dropped":
        eq["prefix"] = eq["prefix"][1:]
        eq.pop("provenance", None)
    elif variant == "renamed":
        eq["prefix"] = [[q, "x"] for q, _ in eq["prefix"][:1]] + eq["prefix"][1:]
    return json.dumps(eq)


@CONTRACT
@given(formula=texts, pair=st.sampled_from(PAIRS))
def test_eliminate_exits_only_with_documented_codes(formula, pair):
    code, _ = eliminate(formula, pair)
    assert code in DOCUMENTED, (formula, pair)
    event(f"eliminate exits {code}")


@CONTRACT
@given(
    formula=formulas(FREE),
    pair=st.sampled_from(DEFINED),
    variant=st.sampled_from(VARIANTS),
    point=points,
    seed=st.integers(0, 3),
)
def test_decide_exits_only_with_documented_codes(formula, pair, variant, point, seed):
    code, payload = eliminate(formula, pair)
    assert code in DOCUMENTED, (formula, pair)
    if code != 0:
        return
    text = equation_file(payload, variant)
    code, _ = cli(["decide", "--point", point], text)
    assert code in DOCUMENTED, (formula, pair, variant, point)
    event(f"decide exits {code}")
    refute = ["decide", "--refute", "--seed", str(seed), "--points", "4", "--point", point]
    code, _ = cli(refute, text)
    assert code in DOCUMENTED, (formula, pair, variant, point, seed)
    event(f"decide --refute exits {code}")
