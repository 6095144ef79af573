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
the guard and the off-node witness. Quantified names are spelled out only
in _BUILDERS, suffixed _k where one is a free variable; everything else
reads them from the prefix. A construction lives in its
clause matrix's ring, using the literal terms as the t_ij and u_ik; its
field is the statement's: C for EA_C and AE_C, the matrix's for E_R, R for
Ed_R and AE_R, Q for E3d_Q and AE3_Q.
An equation that build_for_shape returns is its own construction(), and so
is one that from_json loads with a provenance entry: from_json rebuilds it
from the recorded matrix, the one place a loaded equation is re-derived.

Every equation has one layout, guard * sum_i (prod_j f_ij)^k with k in {1, 2}:
the product shapes have a unit guard and one addend holding the clause
factors, the sum-of-squares shapes a unit guard, one addend per clause and
k = 2, and the forall-first shapes the guard bracket over selector addends,
each starting with its selector. An equation loaded without provenance is
opaque: a product of one factor, its polynomial, under the unit guard.
Expanding, substituting, evaluating, degree counting and LaTeX all walk this
layout, and the expanded polynomial is computed lazily. The facts each shape
needs of its input and its layout are in one table, SHAPE_SPECS.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import asdict, dataclass, field as dc_field, replace
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
    is_identifier,
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
    fold_layout,
    render_poly,
    render_poly_latex,
    weighted_sums,
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

    def _expand(self, x: Mapping | None = None) -> MultiPoly:
        """guard * sum_i (prod_j f_ij)^power multiplied out in
        poly.fold_layout's one integer pass, after substituting x into each
        small factor when given. Its multiplications share one TermBudget,
        so past MAX_TERM_PRODUCTS it raises SizeLimitError."""
        one = self.ring.one

        def value(f):
            return f if x is None else f.substitute(x)

        guard = None if _is_unit(self.guard) else value(self.guard)
        addends = [[value(f) for f in a or (one,)] for a in self.addends]
        budget = TermBudget(f"expanding the {self.shape.value} equation")
        return fold_layout(self.ring, guard, addends, self.power, budget, self.quantified_names())

    @property
    def opaque(self) -> bool:
        """No provenance, and the polynomial held whole as the one factor of
        a product under the unit guard, as from_json loads an equation
        without one."""
        return (
            self.provenance is None and self.power == 1 and _is_unit(self.guard)
            and [len(a) for a in self.addends] == [1]
        )

    def vanishes_at(self, x: Mapping) -> bool:
        """Whether the equation is zero at x, never multiplying a product
        out. Where x binds every quantified variable, the guard's value or
        the sum of the addend values to the power is zero, each factor
        taking the values but the SqrtValue roots first, so its like terms
        collect (a guard's s*0 goes), and then the roots by their powers.
        Otherwise a product (power 1, one addend) is the zero polynomial iff
        its guard or some factor substitutes to it, as a polynomial ring
        over a field has no zero divisors; another layout is multiplied
        out."""
        if x.keys() >= set(self.quantified_names()):
            roots = {n: v for n, v in x.items() if isinstance(v, SqrtValue)}
            rest = {n: v for n, v in x.items() if n not in roots}
            one = self.ring.one

            def value(f):
                return f.substitute(rest).evaluate(roots)

            total = sum(reduce(mul, map(value, a or (one,))) ** self.power for a in self.addends)
            return not value(self.guard) or not total
        if self.power == 1 and len(self.addends) == 1:
            return any(f.substitute(x).is_zero() for f in (self.guard, *self.addends[0]))
        return self.substituted_equation(x).is_zero()

    @property
    def equation(self) -> MultiPoly:
        """The expanded equation, computed once and cached: a poly.PackedPoly,
        integer numerators over one denominator packed in render order for
        the quantified names, which to_json, from_json's compare and the text
        output render directly; its term dict is built only when read."""
        if self._equation is None:
            self._equation = self._expand()
        return self._equation

    def substituted_equation(self, x: Mapping) -> MultiPoly:
        """Expanded equation after substituting free variables; kept small by
        substituting into the layout factors before multiplying out."""
        return self._expand(dict(x))

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
        _C, ("exists", "forall"),
    ),
    Shape.AE_C: ShapeSpec(
        NormalForm.CNF, _EQ_NEQ, _C, 1,
        lambda c: [_node_bound(c), (c["f_max"] + 1, False)],
        _C, ("forall", "exists"),
    ),
    Shape.E_R: ShapeSpec(
        NormalForm.DNF, _EQ_NEQ, _RQ, 1,
        lambda c: [(2 * c["d"], True)],
        _R, ("exists",),
    ),
    Shape.Ed_R: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _RQ, 2,
        lambda c: [(4 * f, False) for f in c["f"]],
    ),
    Shape.AE_R: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _RQ, 1,
        lambda c: [_node_bound(c), (2 * c["f_max"] + 1, False)],
    ),
    Shape.E3d_Q: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _Q, 2,
        lambda c: [(8 * f, False) for f in c["f"] for _ in range(3)],
    ),
    Shape.AE3_Q: ShapeSpec(
        NormalForm.CNF, _EQ_GT, _Q, 1,
        lambda c: [_node_bound(c), (4 * c["f_max"] + 1, False)] + [(4 * c["f_max"], False)] * 2,
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

    def __pow__(self, e: int) -> Fraction:
        """radicand ** (e/2), rational for an even e or a square radicand;
        an odd power of an irrational root raises ValueError."""
        q = Fraction(self.radicand)
        if e % 2 == 0:
            return q ** (e // 2)
        root = Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))
        if root * root != q:
            raise ValueError(f"odd power {e} of the irrational {self}")
        return root**e

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


def _node_coeffs(d: int) -> list[int]:
    """prod over the nodes h in 1..d of (v - h) as integer coefficients,
    constant first; the product is monic."""
    coeffs = [1]
    for h in range(1, d + 1):
        coeffs = [a - h * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def _node_product(v, d: int, skip: int | None = None, nodes: list | None = None):
    """prod over the nodes h in 1..d, h != skip, of (v - h), for a ring
    variable or a field scalar v, from its integer coefficients: those of
    the full product, nodes when given (a construction computes them once
    for its guard and all d selectors), divided synthetically by (v - skip)
    for a skipped node, in O(d). A variable's terms are written from them,
    a scalar evaluates them by Horner's rule, and no polynomials multiply.
    Another v raises ValueError."""
    coeffs = _node_coeffs(d) if nodes is None else nodes
    if skip is not None:
        quotient = [coeffs[-1]]  # highest power first
        for c in coeffs[-2:0:-1]:
            quotient.append(c + skip * quotient[-1])
        coeffs = quotient[::-1]
    if not isinstance(v, MultiPoly):
        out = v**0
        for c in reversed(coeffs[:-1]):
            out = out * v + c
        return out
    mono = next(iter(v.terms), ())
    if len(v.terms) != 1 or len(mono) != 1 or mono[0][1] != 1 or v.terms[mono] != 1:
        raise ValueError(f"node product in {v.render()}, not a ring variable")
    ((idx, _),) = mono
    terms = {((idx, k),) if k else (): v.ring.scalar(c) for k, c in enumerate(coeffs) if c}
    return MultiPoly(v.ring, terms)


def lagrange_selector(i: int, d: int, v: MultiPoly) -> MultiPoly:
    """prod over h in 1..d, h != i, of (v - h) for a ring variable v, which
    selects clause i at v = i; any other v raises ValueError."""
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


def _fresh(m: ClauseMatrix, names) -> list:
    """The names, or when one is a free variable of m's ring, each with the
    suffix _k of the smallest k >= 1 that clears every free variable."""
    free = set(m.ring.table.free_names())
    out, k = list(names), 0
    while free.intersection(out):
        k += 1
        out = [f"{n}_{k}" for n in names]
    return out


def _u_product(m: ClauseMatrix, i: int, times: Callable) -> MultiPoly:
    return reduce(times, (atom.term for atom in m.ineqs(i)), m.ring.one)


def _clause_factors(m: ClauseMatrix, i: int, fld: Field, w: MultiPoly, times: Callable) -> tuple:
    """Clause i as factors: its equation terms, then the field's gadgets
    1 - s*u*w per inequation or order term u."""
    parts = [atom.term for atom in m.eqs(i)]
    for atom in m.ineqs(i):
        uw = times(atom.term, w)
        parts.extend(m.ring.one - s * uw for s in GADGETS[fld].scales)
    return tuple(parts)


# -- the constructions: each returns (field, prefix, guard, addends) -----------
# Each charges one TermBudget with every product of a literal's term; the
# selector products are not charged.


def _build_ea_c(m: ClauseMatrix, a_name: str, b_name: str) -> tuple:
    ring = m.ring
    a = ring.quantified(a_name)
    b = ring.quantified(b_name)
    times = TermBudget("building the construction").times
    factors = []
    for i in range(m.d):
        f = ring.one - times(a, _u_product(m, i, times))
        for j, atom in enumerate(m.eqs(i), start=1):
            f = f + times(atom.term, b**j)
        factors.append(f)
    return Field.C, (("exists", a_name), ("forall", b_name)), None, (tuple(factors),)


def _build_e_r(m: ClauseMatrix, r_name: str) -> tuple:
    ring = m.ring
    r = ring.quantified(r_name)
    times = TermBudget("building the construction").times
    factors = []
    for i in range(m.d):
        gadget = ring.one - times(r, _u_product(m, i, times))
        f = times(gadget, gadget)
        for atom in m.eqs(i):
            f = f + times(atom.term, atom.term)
        factors.append(f)
    return ring.field, (("exists", r_name),), None, (tuple(factors),)


def _build_brackets(m: ClauseMatrix, fld: Field, names: list) -> tuple:
    """Sum-of-squares shapes: clause i is one addend over the i-th block of
    the exists names, a block as wide as the field's gadget zero. Over R
    these are r_i, whose square-root witnesses live in R whether the matrix
    was tagged R or Q."""
    k = len(GADGETS[fld].zero)
    times = TermBudget("building the construction").times
    addends = []
    for i in range(m.d):
        ys = [m.ring.quantified(n) for n in names[k * i : k * i + k]]
        addends.append(_clause_factors(m, i, fld, GADGETS[fld].base(ys), times))
    return fld, tuple(("exists", n) for n in names), None, addends


def _build_guarded(m: ClauseMatrix, fld: Field, names: list) -> tuple:
    """Forall-first shapes, the forall name then the exists ones: the guard
    1 - y1*prod_i (z - i) vanishes off the nodes, and at node i the
    selector sum leaves clause i's factors. The d selectors of d terms each
    are charged to a budget of their own before any is written."""
    ring = m.ring
    univ, *exists = names
    z = ring.quantified(univ)
    ys = [ring.quantified(n) for n in exists]
    w = GADGETS[fld].base(ys)
    d = m.d
    TermBudget("writing the selectors").charge(d, d)
    nodes = _node_coeffs(d)
    guard = ring.one - ys[0] * _node_product(z, d, nodes=nodes)
    times = TermBudget("building the construction").times
    addends = [
        (_node_product(z, d, i, nodes), *_clause_factors(m, i - 1, fld, w, times))
        for i in range(1, d + 1)
    ]
    prefix = (("forall", univ), *(("exists", n) for n in exists))
    return fld, prefix, guard, addends


_BUILDERS: dict[Shape, Callable[[ClauseMatrix], tuple]] = {
    Shape.EA_C: lambda m: _build_ea_c(m, *_fresh(m, ("a", "b"))),
    Shape.AE_C: lambda m: _build_guarded(m, Field.C, _fresh(m, ("a", "b"))),
    Shape.E_R: lambda m: _build_e_r(m, *_fresh(m, ("r",))),
    Shape.Ed_R: lambda m: _build_brackets(
        m, Field.R, _fresh(m, [f"r{i}" for i in range(1, m.d + 1)])
    ),
    Shape.AE_R: lambda m: _build_guarded(m, Field.R, _fresh(m, ("r", "s"))),
    Shape.E3d_Q: lambda m: _build_brackets(
        m, Field.Q, _fresh(m, [f"v{k}" for k in range(1, 3 * m.d + 1)])
    ),
    Shape.AE3_Q: lambda m: _build_guarded(m, Field.Q, _fresh(m, ("v", "w1", "w2", "w3"))),
}


def build_for_shape(shape: Shape, m: ClauseMatrix) -> QuantifiedEquation:
    """Check the matrix against the shape's spec, then construct in the
    matrix's ring. A matrix without one, a constant formula, gets a fresh
    ring of the construction's field: R where the spec accepts R, else its
    one field."""
    spec = SHAPE_SPECS[shape]
    what = f"the {shape.value} construction"
    if m.kind is not spec.kind:
        raise WrongKindError(f"{what} takes a {spec.kind.value} matrix, got {m.kind.value}")
    bad = m.rels_used() - spec.literals
    if Rel.GT0 in bad:
        raise OrderLiteralError(f"{what} does not accept order literals")
    if bad:
        raise NeqLiteralError(f"{what} needs inequations rewritten to order literals first")
    if m.ring is None:
        fld = Field.R if Field.R in spec.fields else next(iter(spec.fields))
        m = replace(m, ring=PolyRing(fld))
    if m.ring.field not in spec.fields:
        names = "/".join(sorted(f.value for f in spec.fields))
        raise FieldMismatchError(f"{what} works over {names}, got {m.ring.field.value}")
    m = _fold_constants(m)
    fld, prefix, guard, addends = _BUILDERS[shape](m)
    qe = QuantifiedEquation(
        field=fld,
        prefix=prefix,
        shape=shape,
        ring=m.ring,
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
        return {**asdict(self), "shape": self.shape.value}


def _universal_degree(qe: QuantifiedEquation, zu: str) -> int:
    """Exact degree in the forall variable of the selector sum
    sum_i sel_i(z) * A_i, A_i being addend i after its selector.

    With P(z) = prod_h (z - h) = sum_j p_j z^(d-j), sel_i = P/(z - i), so the
    coefficient of z^(d-1-k) in the sum is M_k + sum_{j=1..k} p_j * M_(k-j)
    for the selector moments M_k = sum_i i^k * A_i. That relation is unit
    triangular: the degree is d - 1 - k at the first nonzero M_k, and 0 when
    M_0 .. M_(d-2) all vanish. Up to 8 seeded random points, drawn lazily and
    shared by every k, certify a nonzero moment cheaply; only when all of
    them read zero is M_k computed exactly: poly.weighted_sums multiplies
    each A_i out once, packed and charged to the check's one TermBudget, and
    forms each moment from those by integer scaling.
    """
    d = len(qe.addends)
    ring = qe.ring
    tails = [addend[1:] or (ring.one,) for addend in qe.addends]
    names = [v.name for v in ring.table.all_vars() if v.name != zu]
    rng = random.Random(9173)
    samples: list[list] = []  # the A_i at each point drawn so far
    budget = TermBudget(f"the exact degree check of the {qe.shape.value} selector sum")
    weights = ([i**k for i in range(1, d + 1)] for k in range(d - 1))
    moments = weighted_sums(ring, tails, budget, weights)  # taken in order of k
    for k in range(d - 1):
        for s in range(8):
            if s == len(samples):
                point = {nm: Fraction(rng.randint(-17, 17)) for nm in names}
                samples.append(
                    [reduce(mul, (f.evaluate(point) for f in t), ring.scalar(1)) for t in tails]
                )
            if sum(i**k * a for i, a in enumerate(samples[s], start=1)):
                return d - 1 - k
        if not next(moments).is_zero():
            return d - 1 - k
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
    d, e_counts, f_counts = m.d, list(m.e_counts), list(m.f_counts)
    counts = {
        "d": d, "e": e_counts, "f": f_counts, "e_total": sum(e_counts),
        "f_max": max(f_counts, default=0), "raw_d": m.raw_clause_count,
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
    ok = all(
        dv == bounds.get(z, 0) if exact.get(z, False) else dv <= bounds.get(z, 0)
        for z, dv in degrees.items()
    )
    return DegreeReport(qe.shape, degrees, bounds, exact, counts, ok)


# -- witnesses ------------------------------------------------------------------


def witness_recipe(qe: QuantifiedEquation) -> QuantifiedEquation:
    """The equation itself, whose provenance, field and prefix
    extract_witness reads; an equation without provenance raises
    ValueError."""
    if qe.provenance is None:
        raise ValueError("witness recipe needs the provenance matrix")
    return qe


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
    """1/prod_k u_ik(x) in the ring's scalars."""
    return 1 / reduce(mul, (atom.term.evaluate(x) for atom in m.ineqs(i)), m.ring.scalar(1))


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
    qe: QuantifiedEquation,
    m: ClauseMatrix | None,
    x: Mapping,
    forall_value=None,
):
    """Exact scalars for the exists variables of the construction qe (from
    witness_recipe), named by its prefix, read from m, qe's provenance when
    None. Three rules, by the matrix and the prefix:

      DNF (EA_C, E_R): pick the first true clause i; the exists variable
        takes 1/prod_k u_ik(x), and over C any forall value works.
      exists-only CNF (Ed_R, E3d_Q): clause i's block is the gadget's zero
        block where some t_ij(x) = 0, else the roots of the first gadget
        whose literal u_ik(x) holds: sqrt(1/u) over R, the three-squares
        triple over Q.
      forall-first (AE_C, AE_R, AE3_Q): at the node i, clause i's block as
        above (1/u over C); off the nodes, 1/prod_h (forall_value - h),
        which zeroes the guard, padded with zeros. The caller supplies the
        forall value, which the returned assignment includes.

    Square roots come back as SqrtValue markers."""
    m = qe.provenance if m is None else m
    names = [n for _, n in qe.prefix]
    gadget = GADGETS[qe.field]
    if m.kind is NormalForm.DNF:
        i = _first_true_clause(m, x)
        if i is None:
            raise NoWitnessError("formula is false at the point")
        return {names[0]: _inv_u_product(m, i, x)}
    if not qe.prefix or qe.prefix[0][0] == "exists":
        blocks = [_clause_block(m, i, x, gadget) for i in range(m.d)]
        return dict(zip(names, (v for block in blocks for v in block)))
    if forall_value is None:
        raise MissingAssignmentError("forall value required for this shape")
    if not all(_clause_true(m, i, x) for i in range(m.d)):
        raise NoWitnessError("formula is false at the point")
    alpha = qe.ring.scalar(forall_value)
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
    counts = {} if m is None else {
        "d": m.d, "e": list(m.e_counts), "f": list(m.f_counts), "raw_d": m.raw_clause_count
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
    rebuild's is refused with ShapeUnsupportedError. Each prefix entry must
    be ["exists"|"forall", name] and every name and vars entry a string
    that tokenizes as one identifier, with no name bound twice and none
    named i over C, where i is the imaginary unit, else ValueError. The raw
    clause count is the file's counts.raw_d when it has one. Without
    provenance it is opaque: its parsed polynomial as the one factor of a
    product under the unit guard, which the complete deciders read."""
    obj = json.loads(text)
    fld = Field(obj["field"])
    ring = PolyRing(fld)
    names, prefix = obj.get("vars", []), obj["prefix"]
    if not (isinstance(names, list) and all(map(is_identifier, names))):
        raise ValueError(f"vars must be a list of identifiers, not {names!r}")
    for entry in prefix if isinstance(prefix, list) else [prefix]:
        if not (isinstance(entry, list) and len(entry) == 2 and entry[0] in ("exists", "forall")
                and is_identifier(entry[1])):
            raise ValueError(f'a prefix entry must be ["exists"|"forall", name], not {entry!r}')
    for name in names:
        ring.var(name)
    prefix = tuple((q, n) for q, n in prefix)
    if len({n for _, n in prefix}) < len(prefix):
        raise ValueError(f"the prefix names one variable twice: {obj['prefix']!r}")
    if fld is Field.C and "i" in {*names, *(n for _, n in prefix)}:
        raise ValueError("over C the name 'i' is the imaginary unit, not a variable")
    shape = Shape(obj["shape"])
    prov = obj.get("provenance")
    if prov is not None:
        phi = parse(prov["formula"], fld, ring)
        m = to_dnf(phi) if NormalForm(prov["kind"]) is NormalForm.DNF else to_cnf(phi)
        if m.ring is None:  # a constant formula: the file's field tags it
            m = replace(m, ring=ring)
        counts = obj.get("counts")
        if isinstance(counts, dict) and "raw_d" in counts:
            # the recorded formula is pruned; only the file knows the raw count
            raw = counts["raw_d"]
            if type(raw) is not int or raw < 0:
                raise ValueError(f"counts.raw_d must be a non-negative int, not {raw!r}")
            m = replace(m, raw_clause_count=raw)
        qe = build_for_shape(shape, m)
        rendered = render_poly(qe.equation, qe.quantified_names())
        if (qe.field, qe.prefix, rendered) != (fld, prefix, obj["equation"]):
            raise ShapeUnsupportedError("equation does not re-derive from its provenance")
        return qe
    for _, n in prefix:
        ring.quantified(n)
    eq = parse_term(obj["equation"], ring)
    qe = QuantifiedEquation(fld, prefix, shape, ring, addends=((eq,),))
    qe._equation = eq
    return qe


_QUANT_TEX = {"exists": "\\exists", "forall": "\\forall"}


def _latex_product(factors, names) -> str:
    """The factors side by side. A factor of several terms, or of one term
    that starts with a sign or a digit, is parenthesized, and two adjacent
    one-term factors stand apart by a thin space, so no sign reads as a
    subtraction and no two variables as one word."""
    out = []
    after_single = False
    for f in factors:
        body = render_poly_latex(f, names)
        single = len(f.terms) == 1
        if after_single and single:
            out.append("\\,")
        if not single or body[0] == "-" or body[0].isdigit():
            body = f"({body})"
        out.append(body)
        after_single = single
    return "".join(out)


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
        parts = [
            _latex_product([f for f in a if not _is_unit(f)], names) or "1"
            for a in qe.addends
        ]
        if qe.power == 2:
            parts = [f"\\Big[{p}\\Big]^2" for p in parts]
        body = " + ".join(parts) or "0"
        if not unit_guard:
            body = f"\\Big[{render_poly_latex(qe.guard, names)}\\Big]\\Big[{body}\\Big]"
    return f"{head}{body} = 0"
