"""Built-in fixtures: the golden constructions with their frozen canonical
expansions, and the quadrant-projection polynomials for the real oracle.

The golden strings were derived once from an independent expansion of the
factored displays and are compared byte for byte; any change to term order,
coefficient rendering, or the constructions themselves will show up here."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .elim import QuantifiedEquation, Shape, build_for_shape
from .formula import NormalForm, parse, parse_term, to_cnf, to_dnf
from .poly import Field, PolyRing, VarTable, render_poly

# the coordinate cross with the origin removed, as equations and inequations
CROSS_NEQ = r"(y = 0 /\ z != 0) \/ (z = 0 /\ y != 0)"
# the two cross arms bordering the open positive quadrant
CROSS_ORDER = r"(y = 0 \/ z = 0) /\ (y > 0 \/ z > 0)"


@dataclass(frozen=True)
class FixtureCase:
    name: str
    formula: str
    field: Field
    kind: NormalForm
    shape: Shape
    expected: str


GOLDEN_CASES: tuple[FixtureCase, ...] = (
    FixtureCase(
        name="ea_c_cross",
        formula=CROSS_NEQ,
        field=Field.C,
        kind=NormalForm.DNF,
        shape=Shape.EA_C,
        expected=(
            "a^2*y*z - a*b*y^2 - a*b*z^2 + b^2*y*z - a*y - a*z + b*y + b*z + 1"
        ),
    ),
    FixtureCase(
        name="ae_c_cross",
        formula=CROSS_NEQ,
        field=Field.C,
        kind=NormalForm.CNF,
        shape=Shape.AE_C,
        expected=(
            "-a^3*b^3*y*z + 4*a^2*b^3*y*z + a^3*b^2*y + a^3*b^2*z - a^3*b*y*z"
            " - 5*a*b^3*y*z - 4*a^2*b^2*y - 4*a^2*b^2*z + 5*a^2*b*y*z + a*b^2*y*z"
            " + 2*b^3*y*z - a^3*b + 5*a*b^2*y + 5*a*b^2*z - 8*a*b*y*z - b^2*y*z"
            " + 4*a^2*b - a*b*y - a*b*z + a*y*z - 2*b^2*y - 2*b^2*z + 4*b*y*z"
            " - 5*a*b + b*y + b*z - 2*y*z + a + 2*b - 1"
        ),
    ),
    FixtureCase(
        name="e_r_cross",
        formula=CROSS_NEQ,
        field=Field.R,
        kind=NormalForm.DNF,
        shape=Shape.E_R,
        expected=(
            "r^4*y^2*z^2 - 2*r^3*y^2*z - 2*r^3*y*z^2 + r^2*y^4 + r^2*z^4"
            " + r^2*y^2 + 4*r^2*y*z + r^2*z^2 - 2*r*y^3 - 2*r*z^3 + y^2*z^2"
            " - 2*r*y - 2*r*z + y^2 + z^2 + 1"
        ),
    ),
    FixtureCase(
        name="ae_r_quadrant",
        formula=CROSS_ORDER,
        field=Field.R,
        kind=NormalForm.CNF,
        shape=Shape.AE_R,
        expected=(
            "-r^3*s^5*y*z + 4*r^2*s^5*y*z - 5*r*s^5*y*z + r^3*s^3*y + r^3*s^3*z"
            " + r*s^4*y*z + 2*s^5*y*z - r^3*s*y*z - 4*r^2*s^3*y - 4*r^2*s^3*z"
            " - s^4*y*z + 5*r^2*s*y*z + 5*r*s^3*y + 5*r*s^3*z - r^3*s - r*s^2*y"
            " - r*s^2*z - 8*r*s*y*z - 2*s^3*y - 2*s^3*z + 4*r^2*s + r*y*z + s^2*y"
            " + s^2*z + 4*s*y*z - 5*r*s - 2*y*z + r + 2*s - 1"
        ),
    ),
)


def build_case(case: FixtureCase) -> QuantifiedEquation:
    phi = parse(case.formula, case.field)
    m = to_dnf(phi) if case.kind is NormalForm.DNF else to_cnf(phi)
    return build_for_shape(case.shape, m)


def rendered_equation(qe: QuantifiedEquation) -> str:
    return render_poly(qe.equation, qe.quantified_names())


# -- quadrant projection fixtures ------------------------------------------------

# A single equation in one bound variable whose real solvability carves out
# exactly the open positive quadrant in (y, z). The raw variant has the same
# truth table; the simplified one drops a redundant y^2 scaling.
QUADRANT_SIMPLIFIED = "(r^2*y*z - z - 1)^2 - z"
QUADRANT_RAW = "(r^2*y*z - y^2*z - 1)^2 - y^2*z"


def quadrant_fixture(simplified: bool = True) -> QuantifiedEquation:
    ring = PolyRing(Field.R, VarTable())
    ring.quantified("r")
    ring.var("y")
    ring.var("z")
    eq = parse_term(QUADRANT_SIMPLIFIED if simplified else QUADRANT_RAW, ring)
    return QuantifiedEquation(
        field=Field.R,
        prefix=(("exists", "r"),),
        shape=Shape.E_R,
        ring=ring,
        addends=((eq,),),
    )


def grid_points(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    out = []
    v = Fraction(lo)
    while v <= hi:
        out.append(v)
        v += step
    return out
