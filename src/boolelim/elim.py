"""Quantified single-equation normal forms for Boolean constraint formulas.

Seven constructions, one per target shape:

  EA_C:  exists a forall b,  prod_i [ (1 - a*prod_k u_ik) + sum_j t_ij*b^j ] = 0
  AE_C:  forall a exists b,  [1 - b*prod_i (a-i)] *
                             [sum_i sel_i(a) * prod_j t_ij * prod_k (1 - b*u_ik)] = 0
  E_R:   exists r,           prod_i [ sum_j t_ij^2 + (1 - r*prod_k u_ik)^2 ] = 0
  Ed_R:  exists r_1..r_d,    sum_i [ prod_j t_ij * prod_k (1 - r_i^2*u_ik) ]^2 = 0
  AE_R:  forall r exists s,  the AE_C scheme with (1 - s^2*u) gadgets
  E3d_Q: exists v_1..v_3d,   sum_i [ prod_j t_ij * prod_k (1-u_ik*V_i)(1-2*u_ik*V_i) ]^2 = 0
  AE3_Q: forall v exists w1 w2 w3, the AE scheme with (1-u*W)(1-2*u*W) gadgets

with sel_i the Lagrange selector prod_{h != i}(v - h) on the integer nodes
1..d, V_i = v_{3i-2}^2 + v_{3i-1}^2 + v_{3i}^2 and W = w1^2 + w2^2 + w3^2.
DNF feeds the exists-first shapes, CNF the forall-first and per-conjunct ones.
Empty products are 1 and empty sums 0, so degenerate matrices come out right
without special cases.

Each construction fact has one home. GADGETS holds each field's clause
gadget 1 - s*u*W: its base W, its scales s, the exists values that zero it
for a literal value u and the zero block of a clause satisfied by an
equation; the CNF constructions, witness extraction and the deciders read it.
_node_product is the one product over the nodes 1..d, behind the selectors,
the guard, the off-node witness and the degree report. Quantified names are
spelled out only in _BUILDERS; everything else reads them from the prefix.
An equation that build_for_shape returns is its own construction(), and so
is one that from_json loads with a provenance entry: from_json rebuilds it
from the recorded matrix, the one place a loaded equation is re-derived.

Every equation has one layout, guard * sum_i (prod_j f_ij)^k with k in {1, 2}:
the product shapes have a unit guard and one addend holding the clause
factors, the sum-of-squares shapes a unit guard, one addend per clause and
k = 2, and the forall-first shapes the guard bracket over selector addends,
each starting with its selector. An equation loaded without provenance is
its expanded polynomial in the guard with one empty addend. Expanding,
substituting, evaluating, degree counting and LaTeX all walk this layout,
and the expanded polynomial is computed lazily. The facts each shape needs
of its input and its layout are in one table, SHAPE_SPECS.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Callable, Mapping

from .errors import (
    FieldMismatchError,
    MissingAssignmentError,
    NeqLiteralError,
    NoWitnessError,
    OrderLiteralError,
    ShapeUnsupportedError,
    WrongKindError,
)
from .exactnum import GaussianRational, positivity_witness_q
from .formula import (
    DEFAULT_CLAUSE_LIMIT,
    FALSE,
    TRUE,
    ClauseMatrix,
    NormalForm,
    Rel,
    eval_formula,
    make_atom,
    parse,
    parse_term,
    render_formula,
    rewrite_neq_to_orders,
    to_cnf,
    to_dnf,
)
from .poly import (
    Field,
    MultiPoly,
    PolyRing,
    TermBudget,
    as_univariate,
    render_poly,
    render_poly_latex,
)


class Shape(enum.Enum):
    EA_C = "EA_C"
    AE_C = "AE_C"
    E_R = "E_R"
    Ed_R = "Ed_R"
    AE_R = "AE_R"
    E3d_Q = "E3d_Q"
    AE3_Q = "AE3_Q"


def _is_unit(p: MultiPoly) -> bool:
    return len(p.terms) == 1 and p.terms.get(()) == 1


@dataclass
class QuantifiedEquation:
    """A quantifier prefix over one polynomial equation, kept in the layout
    guard * sum_i (prod_j f_ij)^power; `addends` holds one tuple of small
    factors f_ij per addend and a missing guard is the unit."""

    field: Field
    prefix: tuple
    shape: Shape
    ring: PolyRing = dc_field(repr=False)
    guard: MultiPoly | None = None
    addends: tuple = ()
    power: int = 1
    provenance: ClauseMatrix | None = None
    # which copies start without: the expansion cache, and the mark that
    # build_for_shape made this equation
    _equation: MultiPoly | None = dc_field(default=None, init=False, compare=False, repr=False)
    _construction: bool = dc_field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.guard is None:
            self.guard = self.ring.one

    def quantified_names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.prefix)

    def free_names(self) -> tuple[str, ...]:
        return self.ring.table.free_names()

    def addend_values(self, fmap: Callable, times: Callable = mul) -> list:
        """prod_j fmap(f_ij) per addend i, for a per-factor map: the
        identity, a substitution or an evaluation. An empty product maps 1."""
        return [reduce(times, map(fmap, a or (self.ring.one,))) for a in self.addends]

    def fold(self, fmap: Callable):
        """fmap(guard) * sum_i (prod_j fmap(f_ij))^power: the equation under
        a per-factor map, multiplied out after mapping the small factors.
        Its multiplications share one TermBudget (a scalar is one term), so
        past MAX_TERM_PRODUCTS in one fold it raises SizeLimitError."""
        times = TermBudget(f"expanding the {self.shape.value} equation").times
        values = self.addend_values(fmap, times)
        if self.power == 2:
            values = [times(v, v) for v in values]
        total = sum(values[1:], values[0]) if values else fmap(self.ring.zero)
        return total if _is_unit(self.guard) else times(fmap(self.guard), total)

    @property
    def opaque(self) -> bool:
        """No provenance, and the polynomial held whole as the guard over
        one empty addend, as from_json loads an equation without one."""
        return self.provenance is None and self.power == 1 and self.addends == ((),)

    def vanishes_at(self, x: Mapping) -> bool:
        """Whether the equation is zero at x, never multiplying a product
        out. Where x binds every quantified variable, the guard's value or
        the sum of the addend values to the power is zero. Otherwise a
        product (power 1, one addend) is the zero polynomial iff its guard
        or some factor substitutes to it, as a polynomial ring over a field
        has no zero divisors; another layout is multiplied out."""
        if x.keys() >= set(self.quantified_names()):
            total = sum(v**self.power for v in self.addend_values(lambda f: f.evaluate(x)))
            return not self.guard.evaluate(x) or not total
        if self.power == 1 and len(self.addends) == 1:
            return any(f.substitute(x).is_zero() for f in (self.guard, *self.addends[0]))
        return self.substituted_equation(x).is_zero()

    @property
    def equation(self) -> MultiPoly:
        if self._equation is None:
            self._equation = self.fold(lambda p: p)
        return self._equation

    def substituted_equation(self, x: Mapping) -> MultiPoly:
        """Expanded equation after substituting free variables; kept small by
        substituting into the layout factors before multiplying out."""
        x = dict(x)
        return self.fold(lambda p: p.substitute(x))

    def construction(self) -> "QuantifiedEquation":
        """The equation itself when build_for_shape made it, directly or in
        from_json; any other equation, such as a copy, is refused."""
        if not self._construction:
            if self.provenance is None:
                raise ShapeUnsupportedError("no provenance matrix to re-derive from")
            raise ShapeUnsupportedError("equation does not re-derive from its provenance")
        return self


# -- the shape table -----------------------------------------------------------


@dataclass(frozen=True)
class ShapeSpec:
    """What a construction accepts and how its layout combines."""

    kind: NormalForm  # the clause matrix it is built from
    literals: frozenset  # literal relations its gadgets encode
    fields: frozenset  # matrix fields it accepts
    power: int  # k in guard * sum_i (prod_j f_ij)^k
    bounds: Callable  # degree report counts -> [(bound, exact)] in prefix order
    notes: tuple  # the witness recipe
    # the fields over which an equation that is not a construction is
    # decided, and the prefix kinds it must have; over any other field the
    # deciders take only the construction
    unbuilt_fields: frozenset = frozenset()
    unbuilt_prefix: tuple = ()


def _node_bound(c: dict) -> tuple:
    """The forall variable of a selector sum over d nodes: 2d - 1, claimed
    exact; the degree report withdraws the claim when the leading
    coefficient cancels."""
    return max(0, 2 * c["d"] - 1), c["d"] > 0


_EQ_NEQ = frozenset((Rel.EQ0, Rel.NEQ0))
_EQ_GT = frozenset((Rel.EQ0, Rel.GT0))
_C = frozenset((Field.C,))
_R = frozenset((Field.R,))
_RQ = frozenset((Field.R, Field.Q))
_Q = frozenset((Field.Q,))

SHAPE_SPECS: dict[Shape, ShapeSpec] = {
    Shape.EA_C: ShapeSpec(
        NormalForm.DNF, _EQ_NEQ, _C, 1,
        lambda c: [(c["d"], True), (c["e_total"], True)],
        ("pick the first true clause i; a := 1/prod_k u_ik(x); any b works",),
        _C, ("exists", "forall"),
    ),
    Shape.AE_C: ShapeSpec(
        NormalForm.CNF, _EQ_NEQ, _C, 1,
        lambda c: [_node_bound(c), (c["f_max"] + 1, False)],
        (
            "at a = node i: b := 0 if some t_ij(x) = 0, else b := 1/u_ik(x) for a nonzero u",
            "at a outside the nodes: b := 1/prod_i (a - i)",
        ),
        _C, ("forall", "exists"),
    ),
    Shape.E_R: ShapeSpec(
        NormalForm.DNF, _EQ_NEQ, _RQ, 1,
        lambda c: [(2 * c["d"], True)],
        ("pick the first true clause i; r := 1/prod_k u_ik(x)",),
        _R, ("exists",),
    ),
    Shape.Ed_R: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _RQ, 2,
        lambda c: [(4 * f, False) for f in c["f"]],
        ("clause i: r_i := 0 if some t_ij(x) = 0, else r_i := sqrt(1/u_ik(x)) for a positive u",),
    ),
    Shape.AE_R: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _RQ, 1,
        lambda c: [_node_bound(c), (2 * c["f_max"] + 1, False)],
        (
            "at r = node i: s := 0 on a zero equation, else s := sqrt(1/u_ik(x))",
            "at r outside the nodes: s := 1/prod_i (r - i)",
        ),
    ),
    Shape.E3d_Q: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _Q, 2,
        lambda c: [(8 * f, False) for f in c["f"] for _ in range(3)],
        ("clause i: block i := (0,0,0) on a zero equation, else the three-squares triple for u_ik(x)",),
    ),
    Shape.AE3_Q: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _Q, 1,
        lambda c: [_node_bound(c), (4 * c["f_max"] + 1, False)] + [(4 * c["f_max"], False)] * 2,
        (
            "at v = node i: w := (0,0,0) on a zero equation, else the three-squares triple",
            "at v outside the nodes: w1 := 1/prod_i (v - i), w2 = w3 = 0",
        ),
    ),
}


# -- the per-field gadget and the selector nodes --------------------------------


@dataclass(frozen=True)
class SqrtValue:
    """The positive square root of a nonnegative rational."""

    radicand: Fraction

    def __post_init__(self):
        if self.radicand < 0:
            raise ValueError("negative radicand")

    def __str__(self):
        return f"sqrt({self.radicand})"


@dataclass(frozen=True)
class Gadget:
    """A field's clause gadget 1 - s*u*W: some exists values zero it exactly
    when the literal value u is nonzero (over C) or positive (over R and Q)."""

    squares: bool  # W sums the squares of the exists variables, else W is the one variable
    scales: tuple  # one gadget per scale s; over Q, u > 0 needs s = 1 or s = 2
    roots: Callable  # u -> exists values zeroing a gadget of the literal value u
    zero: tuple  # exists values of a clause that an equation satisfies

    def base(self, ys: list) -> MultiPoly:
        if not self.squares:
            return ys[0]
        return sum((y * y for y in ys[1:]), ys[0] * ys[0])


GADGETS = {
    Field.C: Gadget(False, (1,), lambda u: (1 / u,), (GaussianRational.of(0),)),
    Field.R: Gadget(True, (1,), lambda u: (SqrtValue(1 / u),), (Fraction(0),)),
    Field.Q: Gadget(True, (1, 2), lambda u: positivity_witness_q(u)[1], (Fraction(0),) * 3),
}


def _node_product(v, d: int, skip: int | None = None):
    """prod over the nodes h in 1..d, h != skip, of (v - h), for a polynomial
    or a field scalar v; the empty product is the unit v ** 0 of v's type."""
    out = v**0
    for h in range(1, d + 1):
        if h != skip:
            out = out * (v - h)
    return out


def lagrange_selector(i: int, d: int, v: MultiPoly) -> MultiPoly:
    """prod over h in 1..d, h != i, of (v - h); selects clause i at v = i."""
    if not 1 <= i <= d:
        raise IndexError(f"selector index {i} outside 1..{d}")
    return _node_product(v, d, skip=i)


def _is_node(value, d: int) -> int | None:
    """The integer node 1..d that value equals, if any."""
    if isinstance(value, GaussianRational):
        if value.im != 0:
            return None
        value = value.re
    value = Fraction(value)
    if value.denominator != 1:
        return None
    n = value.numerator
    return n if 1 <= n <= d else None


# -- construction helpers -----------------------------------------------------


def _out_ring(m: ClauseMatrix, out_field: Field) -> PolyRing:
    ring = PolyRing(out_field)
    if m.ring is not None:
        for name in m.ring.table.free_names():
            ring.var(name)
    return ring


def _transplant(p: MultiPoly, ring: PolyRing) -> MultiPoly:
    """Rebuild a matrix-ring polynomial inside the output ring."""
    src = p.ring.table
    table = ring.table
    out: dict = {}
    for m, c in p.terms.items():
        mono = tuple(sorted((table.get(src.name_of(i)).index, e) for i, e in m))
        out[mono] = ring.scalar(c)
    return MultiPoly(ring, out)


def _u_product(m: ClauseMatrix, i: int, ring: PolyRing) -> MultiPoly:
    out = ring.one
    for atom in m.ineqs(i):
        out = out * _transplant(atom.term, ring)
    return out


def _clause_factors(m: ClauseMatrix, i: int, ring: PolyRing, w: MultiPoly) -> tuple:
    """Clause i as factors: its equation terms, then the field's gadgets
    1 - s*u*w per inequation or order term u."""
    parts = [_transplant(atom.term, ring) for atom in m.eqs(i)]
    for atom in m.ineqs(i):
        uw = _transplant(atom.term, ring) * w
        parts.extend(ring.one - s * uw for s in GADGETS[ring.field].scales)
    return tuple(parts)


# -- the constructions: each returns (ring, prefix, guard, addends) ------------


def _build_ea_c(m: ClauseMatrix, a_name: str, b_name: str) -> tuple:
    ring = _out_ring(m, Field.C)
    a = ring.quantified(a_name)
    b = ring.quantified(b_name)
    factors = []
    for i in range(m.d):
        f = ring.one - a * _u_product(m, i, ring)
        for j, atom in enumerate(m.eqs(i), start=1):
            f = f + _transplant(atom.term, ring) * b**j
        factors.append(f)
    return ring, (("exists", a_name), ("forall", b_name)), None, (tuple(factors),)


def _build_e_r(m: ClauseMatrix, r_name: str) -> tuple:
    ring = _out_ring(m, m.ring.field if m.ring is not None else Field.R)
    r = ring.quantified(r_name)
    factors = []
    for i in range(m.d):
        gadget = ring.one - r * _u_product(m, i, ring)
        f = gadget * gadget
        for atom in m.eqs(i):
            t = _transplant(atom.term, ring)
            f = f + t * t
        factors.append(f)
    return ring, (("exists", r_name),), None, (tuple(factors),)


def _build_brackets(m: ClauseMatrix, fld: Field, names: Callable) -> tuple:
    """Sum-of-squares shapes: clause i is one addend over its own exists
    variables names(i). Over R these are r_i, whose square-root witnesses
    live in R whether the matrix was tagged R or Q."""
    ring = _out_ring(m, fld)
    prefix, addends = [], []
    for i in range(m.d):
        ys = [ring.quantified(n) for n in names(i)]
        prefix.extend(("exists", n) for n in names(i))
        addends.append(_clause_factors(m, i, ring, GADGETS[fld].base(ys)))
    return ring, tuple(prefix), None, addends


def _build_guarded(m: ClauseMatrix, fld: Field, univ: str, exists: tuple) -> tuple:
    """Forall-first shapes: the guard 1 - y1*prod_i (z - i) vanishes off the
    nodes, and at node i the selector sum leaves clause i's factors."""
    ring = _out_ring(m, fld)
    z = ring.quantified(univ)
    ys = [ring.quantified(n) for n in exists]
    w = GADGETS[fld].base(ys)
    d = m.d
    guard = ring.one - ys[0] * _node_product(z, d)
    addends = [
        (lagrange_selector(i, d, z), *_clause_factors(m, i - 1, ring, w))
        for i in range(1, d + 1)
    ]
    prefix = (("forall", univ), *(("exists", n) for n in exists))
    return ring, prefix, guard, addends


_BUILDERS: dict[Shape, Callable[[ClauseMatrix], tuple]] = {
    Shape.EA_C: lambda m: _build_ea_c(m, "a", "b"),
    Shape.AE_C: lambda m: _build_guarded(m, Field.C, "a", ("b",)),
    Shape.E_R: lambda m: _build_e_r(m, "r"),
    Shape.Ed_R: lambda m: _build_brackets(m, Field.R, lambda i: (f"r{i+1}",)),
    Shape.AE_R: lambda m: _build_guarded(m, Field.R, "r", ("s",)),
    Shape.E3d_Q: lambda m: _build_brackets(
        m, Field.Q, lambda i: tuple(f"v{3*i+k}" for k in (1, 2, 3))
    ),
    Shape.AE3_Q: lambda m: _build_guarded(m, Field.Q, "v", ("w1", "w2", "w3")),
}


def build_for_shape(shape: Shape, m: ClauseMatrix) -> QuantifiedEquation:
    """Check the matrix against the shape's spec, then construct."""
    spec = SHAPE_SPECS[shape]
    what = f"the {shape.value} construction"
    if m.kind is not spec.kind:
        raise WrongKindError(f"{what} takes a {spec.kind.value} matrix, got {m.kind.value}")
    bad = m.rels_used() - spec.literals
    if Rel.GT0 in bad:
        raise OrderLiteralError(f"{what} does not accept order literals")
    if bad:
        raise NeqLiteralError(f"{what} needs inequations rewritten to order literals first")
    if m.ring is not None and m.ring.field not in spec.fields:
        names = "/".join(sorted(f.value for f in spec.fields))
        raise FieldMismatchError(f"{what} works over {names}, got {m.ring.field.value}")
    m = _fold_constants(m)
    ring, prefix, guard, addends = _BUILDERS[shape](m)
    qe = QuantifiedEquation(
        field=ring.field,
        prefix=prefix,
        shape=shape,
        ring=ring,
        guard=guard,
        addends=tuple(addends),
        power=spec.power,
        provenance=m,
    )
    qe._construction = True
    return qe


def compile_formula(phi, shape: Shape, fld: Field, limit: int = DEFAULT_CLAUSE_LIMIT):
    """phi's construction of the shape: inequations rewritten to order
    literals where the shape's gadgets encode those, then the spec's normal
    form within the clause limit, tagged with fld when phi is constant and
    so names no ring of its own."""
    spec = SHAPE_SPECS[shape]
    if Rel.GT0 in spec.literals:
        phi = rewrite_neq_to_orders(phi)
    m = to_dnf(phi, limit) if spec.kind is NormalForm.DNF else to_cnf(phi, limit)
    return build_for_shape(shape, m if m.ring is not None else replace(m, ring=PolyRing(fld)))


def _fold_constants(m: ClauseMatrix) -> ClauseMatrix:
    """m with its constant literals folded as make_atom folds them: under
    DNF a true literal leaves its clause and a false one drops the clause,
    under CNF the other way round. A matrix without constant literals comes
    back as it is."""
    if not any(a.term.is_constant() for cl in m.clauses for a in cl):
        return m
    drops_clause = FALSE if m.kind is NormalForm.DNF else TRUE
    clauses = tuple(
        tuple(a for a in cl if not a.term.is_constant())
        for cl in m.clauses
        if not any(
            a.term.is_constant() and make_atom(a.term, a.rel) is drops_clause for a in cl
        )
    )
    return ClauseMatrix(m.kind, clauses, m.ring, m.raw_clause_count)


# -- degree reports ------------------------------------------------------------


@dataclass
class DegreeReport:
    shape: Shape
    degrees: dict
    bounds: dict
    exact: dict
    counts: dict
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "shape": self.shape.value,
            "degrees": dict(self.degrees),
            "bounds": dict(self.bounds),
            "exact": dict(self.exact),
            "counts": dict(self.counts),
            "satisfied": self.satisfied,
        }


def _selector_coeff_rows(d: int) -> list[list[Fraction]]:
    """Row i-1: coefficients of prod_{h != i}(z - h) by ascending power."""
    z = PolyRing(Field.Q).var("z")
    return [as_univariate(_node_product(z, d, skip=i), "z").scalars() for i in range(1, d + 1)]


def _universal_degree(qe: QuantifiedEquation, zu: str) -> int:
    """Exact degree in the forall variable of the selector sum.

    Each summand is sel_i(z) * A_i with A_i free of z, so the coefficient of
    z^m is a known rational combination of the A_i. The selectors are a
    basis of the polynomials of degree < d and every A_i is a nonzero
    product once constants are folded, so the sum is not zero: when the
    coefficients of z^(d-1) .. z^1 vanish, the constant one does not. Random
    evaluation certifies a nonzero coefficient cheaply; only when sampling
    keeps returning zero is the combination expanded exactly, within one
    TermBudget.
    """
    d = len(qe.addends)
    tails = [addend[1:] for addend in qe.addends]  # the A_i, after the selectors
    rows = _selector_coeff_rows(d)
    ring = qe.ring
    names = [v.name for v in ring.table.all_vars() if v.name != zu]
    rng = random.Random(9173)
    expanded: list[MultiPoly] | None = None
    times = TermBudget(f"the exact degree check of the {qe.shape.value} selector sum").times
    for m in range(d - 1, 0, -1):
        sigma = [rows[i][m] if m < len(rows[i]) else Fraction(0) for i in range(d)]
        for _ in range(8):
            point = {nm: Fraction(rng.randint(-17, 17)) for nm in names}
            val = ring.scalar(0)
            for i in range(d):
                if not sigma[i]:
                    continue
                acc = ring.scalar(sigma[i])
                for f in tails[i]:
                    acc = acc * f.evaluate(point)
                val = val + acc
            if val:
                return m
        if expanded is None:
            expanded = [reduce(times, tail, ring.one) for tail in tails]
        coeff = ring.zero
        for i in range(d):
            if sigma[i]:
                coeff = coeff + times(expanded[i], ring.const(sigma[i]))
        if not coeff.is_zero():
            return m
    return 0


def _deg(p: MultiPoly, name: str) -> int:
    d = p.degree_in(name)
    return int(d) if d > 0 else 0


def _measured_degrees(qe: QuantifiedEquation) -> tuple[dict, bool]:
    """deg(guard) + power * max_i sum_j deg f_ij per quantified variable; the
    forall variable of a forall-first prefix takes the exact degree of the
    selector sum instead of the addend bound. Also whether that selector sum
    has its full degree, the selectors' d - 1, which is when its leading
    coefficient, the sum of the A_i, is nonzero."""
    names = qe.quantified_names()
    if not qe.addends:
        return {z: 0 for z in names}, True
    out = {
        z: _deg(qe.guard, z)
        + qe.power * max(sum(_deg(f, z) for f in addend) for addend in qe.addends)
        for z in names
    }
    if qe.prefix and qe.prefix[0][0] == "forall":
        zu = names[0]
        s_deg = _universal_degree(qe, zu)
        out[zu] = _deg(qe.guard, zu) + s_deg
        return out, s_deg == len(qe.addends) - 1
    return out, True


def degree_report(qe: QuantifiedEquation) -> DegreeReport:
    """Measured degrees of the quantified variables against the shape's
    stated bounds. Degrees are read off the factored layout: products add
    factor degrees, a sum of squares takes twice its own bracket's degree,
    and the selector sum resolves possible leading-coefficient cancellation
    exactly. Exactness claims are checked with equality, plain bounds with <=."""
    m = qe.provenance
    if m is None:
        raise ValueError("degree report needs the provenance matrix")
    d = m.d
    e_counts = list(m.e_counts)
    f_counts = list(m.f_counts)
    e_total = sum(e_counts)
    f_max = max(f_counts, default=0)
    counts = {
        "d": d,
        "e": e_counts,
        "f": f_counts,
        "e_total": e_total,
        "f_max": f_max,
        "raw_d": m.raw_clause_count,
    }
    degrees, full = _measured_degrees(qe)
    claims = dict(zip(qe.quantified_names(), SHAPE_SPECS[qe.shape].bounds(counts)))
    bounds = {z: b for z, (b, _) in claims.items()}
    exact = {z: e for z, (_, e) in claims.items()}
    if d == 0:  # an empty matrix: every degree is exactly 0
        bounds = {z: 0 for z in degrees}
        exact = {z: True for z in degrees}
    elif not full:
        # the selectors are monic of degree d - 1, so the forall degree is
        # 2d - 1 only when the A_i do not sum to zero; else 2d - 1 bounds it
        exact[qe.prefix[0][1]] = False
    ok = True
    for z, dv in degrees.items():
        b = bounds.get(z, 0)
        if exact.get(z, False):
            ok = ok and dv == b
        else:
            ok = ok and dv <= b
    return DegreeReport(qe.shape, degrees, bounds, exact, counts, ok)


# -- witnesses ------------------------------------------------------------------


@dataclass
class WitnessRecipe:
    shape: Shape
    matrix: ClauseMatrix
    field: Field
    notes: tuple
    prefix: tuple


def witness_recipe(qe: QuantifiedEquation) -> WitnessRecipe:
    if qe.provenance is None:
        raise ValueError("witness recipe needs the provenance matrix")
    notes = SHAPE_SPECS[qe.shape].notes
    return WitnessRecipe(qe.shape, qe.provenance, qe.field, notes, qe.prefix)


def _clause_true(m: ClauseMatrix, i: int, x: Mapping) -> bool:
    if m.kind is NormalForm.DNF:
        return all(eval_formula(a, x) for a in m.clauses[i])
    return any(eval_formula(a, x) for a in m.clauses[i])


def _first_true_clause(m: ClauseMatrix, x: Mapping) -> int | None:
    for i in range(m.d):
        if _clause_true(m, i, x):
            return i
    return None


def _inv_u_product(m: ClauseMatrix, i: int, x: Mapping):
    prod = None
    for atom in m.ineqs(i):
        v = atom.term.evaluate(x)
        prod = v if prod is None else prod * v
    if prod is None:
        return Fraction(1) if m.ring is None or m.ring.field is not Field.C else GaussianRational.of(1)
    return 1 / prod


def _clause_block(m: ClauseMatrix, i: int, x: Mapping, gadget: Gadget) -> tuple:
    """The exists values that zero CNF clause i's factors at x: the zero
    block on a zero equation, else the roots of the first gadget whose
    inequation or order literal holds."""
    for atom in m.eqs(i):
        if not atom.term.evaluate(x):
            return gadget.zero
    for atom in m.ineqs(i):
        v = atom.term.evaluate(x)
        holds = bool(v) if atom.rel is Rel.NEQ0 else v > 0
        if holds:
            return gadget.roots(v)
    raise NoWitnessError("formula is false at the point")


def extract_witness(
    recipe: WitnessRecipe,
    m: ClauseMatrix | None,
    x: Mapping,
    forall_value=None,
):
    """Exact scalars for the exists variables, named by the prefix.

    A DNF construction takes 1/prod_k u_ik(x) at its first true clause i; an
    exists-only CNF one takes one gadget block per clause; a forall-first one
    takes clause i's block at the node i and, off the nodes, the value
    1/prod_h (forall_value - h) that zeroes the guard, padded with zeros. For
    these the caller supplies the forall value, which the returned
    assignment includes. Square roots come back as SqrtValue markers."""
    m = recipe.matrix if m is None else m
    names = [n for _, n in recipe.prefix]
    gadget = GADGETS[recipe.field]
    if m.kind is NormalForm.DNF:
        i = _first_true_clause(m, x)
        if i is None:
            raise NoWitnessError("formula is false at the point")
        return {names[0]: _inv_u_product(m, i, x)}
    if not recipe.prefix or recipe.prefix[0][0] == "exists":
        blocks = [_clause_block(m, i, x, gadget) for i in range(m.d)]
        return dict(zip(names, (v for block in blocks for v in block)))
    if forall_value is None:
        raise MissingAssignmentError("forall value required for this shape")
    if not all(_clause_true(m, i, x) for i in range(m.d)):
        raise NoWitnessError("formula is false at the point")
    alpha = PolyRing(recipe.field).scalar(forall_value)
    node = _is_node(alpha, m.d)
    if node is None:
        block = (1 / _node_product(alpha, m.d), *gadget.zero[1:])
    else:
        block = _clause_block(m, node - 1, x, gadget)
    return dict(zip(names, (alpha, *block)))


# -- serialization ---------------------------------------------------------------


def to_json(qe: QuantifiedEquation) -> str:
    names = list(qe.quantified_names())
    m = qe.provenance
    counts = {}
    if m is not None:
        counts = {
            "d": m.d,
            "e": list(m.e_counts),
            "f": list(m.f_counts),
            "raw_d": m.raw_clause_count,
        }
    obj = {
        "field": qe.field.value,
        "prefix": [[q, n] for q, n in qe.prefix],
        "vars": list(qe.free_names()),
        "equation": render_poly(qe.equation, names),
        "shape": qe.shape.value,
        "counts": counts,
    }
    if m is not None:
        obj["provenance"] = {
            "kind": m.kind.value,
            "formula": render_formula(m.as_formula()),
        }
    return json.dumps(obj)


def from_json(text: str) -> QuantifiedEquation:
    """Load a serialized equation. With a provenance entry, build_for_shape
    rebuilds it from the recorded matrix, so it is its own construction();
    the file's equation text is not parsed, only compared with the rebuild's
    rendering, and a file whose field, prefix or equation differs from the
    rebuild's is refused with ShapeUnsupportedError. Without one it is
    opaque, its parsed polynomial only, which the complete deciders read."""
    obj = json.loads(text)
    fld = Field(obj["field"])
    ring = PolyRing(fld)
    for name in obj.get("vars", ()):
        ring.var(name)
    prefix = tuple((q, n) for q, n in obj["prefix"])
    shape = Shape(obj["shape"])
    prov = obj.get("provenance")
    if prov is not None:
        phi = parse(prov["formula"], fld, ring)
        m = to_dnf(phi) if NormalForm(prov["kind"]) is NormalForm.DNF else to_cnf(phi)
        if m.ring is None:  # a constant formula: the file's field tags it
            m = replace(m, ring=ring)
        qe = build_for_shape(shape, m)
        rendered = render_poly(qe.equation, qe.quantified_names())
        if (qe.field, qe.prefix, rendered) != (fld, prefix, obj["equation"]):
            raise ShapeUnsupportedError("equation does not re-derive from its provenance")
        return qe
    for _, n in prefix:
        ring.quantified(n)
    eq = parse_term(obj["equation"], ring)
    qe = QuantifiedEquation(fld, prefix, shape, ring, guard=eq, addends=((),))
    qe._equation = eq
    return qe


_QUANT_TEX = {"exists": "\\exists", "forall": "\\forall"}


def _latex_factor(p: MultiPoly, names) -> str:
    body = render_poly_latex(p, names)
    if len(p.terms) > 1:
        return f"({body})"
    return body


def to_latex(qe: QuantifiedEquation) -> str:
    names = list(qe.quantified_names())
    head = "\\, ".join(f"{_QUANT_TEX[q]} {n}" for q, n in qe.prefix)
    if head:
        head += "\\; "
    unit_guard = _is_unit(qe.guard)
    if unit_guard and qe.power == 1:
        # a bare product: one bracket per clause factor
        body = "".join(
            f"\\Big[{render_poly_latex(f, names)}\\Big]" for a in qe.addends for f in a
        ) or "1"
    else:
        parts = ["".join(_latex_factor(f, names) for f in a) or "1" for a in qe.addends]
        if qe.power == 2:
            parts = [f"\\Big[{p}\\Big]^2" for p in parts]
        body = " + ".join(parts) or "0"
        if not unit_guard:
            body = f"\\Big[{render_poly_latex(qe.guard, names)}\\Big]\\Big[{body}\\Big]"
    return f"{head}{body} = 0"
