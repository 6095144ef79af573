"""Exact decision oracles for quantified single-equation statements.

One rule decides every shape, read from the shape's SHAPE_SPECS entry. An
equation over a field of the spec's unbuilt_fields (the exists-forall and
forall-exists forms over C, the single-exists form over R) is decided as
it stands once its prefix fits the spec's unbuilt_prefix. Any other
equation must be its own construction: built, or loaded with a provenance
that from_json rebuilds. So an opaque equation of another shape, a copy of
a construction, and a Q equation whose roots need not be rational are
refused.

The block walk then reads the layout, never the expansion: the statement
holds at a point x exactly when every decisive block of the layout has a
vanishing factor. A product (the exists-forall form over C, the
single-exists form over R and Q, and any opaque equation, whose one factor
is its polynomial) is one block; a sum of squares has one per bracket, in
its own exists variables; a forall-first construction has clause i's at
the selector node i, the only decisive universal values. With a forall
variable left a factor vanishes when its coefficients in it share a root
(a nonconstant gcd), since C[b] has no zero divisors. Otherwise, over C,
unless the substituted factor is a nonzero constant, since a univariate of
positive degree has a complex root; over R and Q, at a Sturm-counted real
root. The Q gadget blocks take the three-squares criterion on the clause's
literals.
Only an opaque forall-exists equation over C has no nodes to read: it
fails only where every positive-degree b-coefficient of its one polynomial
vanishes and the constant one does not, a gcd and squarefree computation.
A sampling refuter runs the block walk at each sampled universal value,
returning REFUTED with the bad value or UNRESOLVED.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from .elim import GADGETS, SHAPE_SPECS, QuantifiedEquation, Shape, SqrtValue, _is_node
from .errors import (
    MissingAssignmentError,
    ShapeUnsupportedError,
    UnexpectedVariablesError,
)
from .exactnum import GaussianRational, is_sum_three_squares
from .formula import NormalForm, eval_formula, formula_ring
from .poly import (
    Field,
    MultiPoly,
    UniView,
    as_univariate,
    count_real_roots,
    gcd_univariate,
    squarefree_part,
)


# -- complete oracles over C ----------------------------------------------------


def _gcd_fold(polys: list, name: str) -> UniView:
    """gcd of nonzero polynomials in name, stopping at the first constant."""
    views = [as_univariate(c, name) for c in polys]
    g = views[0]
    for v in views[1:]:
        g = gcd_univariate(g, v)
        if g.degree == 0:
            break
    return g


# -- the block walk ------------------------------------------------------------------


def _blocks(qe: QuantifiedEquation, forall_value=None) -> list:
    """The decisive blocks of the layout, as (clause, binding, factors,
    exists variable), where the binding is what the block adds to the
    point. A product, exists-first with power 1 (an opaque equation's one
    factor is its whole polynomial), is one block: the guard and the one
    addend. A sum of squares has one block per addend, in the first of its
    own variables. A forall-first construction has addend i at the node
    i + 1, where the guard is 1 and every other selector vanishes; given a
    forall value, only the node it is on, if any, since off the nodes the
    guard vanishes at 1/prod(value - i). At a forall value an opaque
    equation with one exists variable is one product block."""
    exists = [n for q, n in qe.prefix if q == "exists"]
    if not qe.prefix or qe.prefix[0][0] == "exists":
        if qe.power == 2:
            k = len(exists) // max(len(qe.addends), 1)
            return [(i, {}, a, exists[k * i]) for i, a in enumerate(qe.addends)]
        if len(qe.addends) != 1:
            raise ShapeUnsupportedError(f"decide {qe.shape.value} needs a product of factors")
        return [(0, {}, (qe.guard, *qe.addends[0]), exists[0])]
    univ = qe.prefix[0][1]
    if forall_value is not None and qe.opaque and len(exists) == 1:
        return [(0, {univ: forall_value}, (qe.guard, *qe.addends[0]), exists[0])]
    d = qe.construction().provenance.d
    if forall_value is None:
        nodes = range(1, d + 1)
    else:
        node = _is_node(forall_value, d)
        nodes = [node] if node else []
    return [(n - 1, {univ: Fraction(n)}, qe.addends[n - 1], exists[0]) for n in nodes]


def _factor_vanishes(f: MultiPoly, name: str, forall: str | None, fld: Field) -> bool:
    """Whether some value of name zeroes the factor: identically in the
    forall variable left, if any, when its coefficients in it are all zero
    or share a root, a nonconstant gcd; else over C unless the factor, a
    univariate in name, is a nonzero constant, and over R and Q at a real
    root, by Sturm counting."""
    if forall is not None:
        nonzero = [c for c in as_univariate(f, forall).coeffs if not c.is_zero()]
        return not nonzero or _gcd_fold(nonzero, name).degree >= 1
    if fld is Field.C:
        return f.is_zero() or not f.is_constant()
    return count_real_roots(as_univariate(f, name)) != 0


def _q_positive_representable(u: Fraction) -> bool:
    """Whether some gadget factor (1 - s*u*V) of the Q gadget's scales s can
    vanish with V a sum of three rational squares: u must be positive and
    some 1/(s*u) a three-square rational, checked on numerator times
    denominator, scale by scale."""
    if u <= 0:
        return False
    for s in GADGETS[Field.Q].scales:
        inv = 1 / (s * Fraction(u))
        if is_sum_three_squares(inv.numerator * inv.denominator):
            return True
    return False


def _every_block_vanishes(qe: QuantifiedEquation, x: Mapping, forall_value=None) -> bool:
    """Whether every decisive block of the layout at x has a vanishing
    factor, which is when the statement holds there. The variables of every
    block are checked against the point before any factor answers, so a
    point that lacks one is refused as the expansion would refuse it; a
    block with a zero factor vanishes whatever its other factors hold.
    Factors are substituted only as they are decided. The Q gadget blocks,
    whose gadgets vanish on sums of three squares, take the three-squares
    test on clause i's literals instead: an equation term is zero or an
    order term passes it."""
    blocks = _blocks(qe, forall_value)
    if not blocks:
        return True
    what = f"decide {qe.shape.value}"
    m = qe.provenance
    if qe.field is Field.Q and m is not None and m.kind is NormalForm.CNF:
        clauses = [i for i, _, _, _ in blocks]
        _require_only([a.term for i in clauses for a in m.clauses[i]], set(x), what)
        return all(
            any(not a.term.evaluate(x) for a in m.eqs(i))
            or any(_q_positive_representable(a.term.evaluate(x)) for a in m.ineqs(i))
            for i in clauses
        )
    # the forall variable after an exists one stays in its blocks (ea)
    forall = next((n for q, n in qe.prefix[1:] if q == "forall"), None)
    # each value becomes a field scalar once, not once per factor: x's
    # values, then each binding's, which name only quantified variables
    ring = qe.ring
    shared = {n: ring.scalar(v) for n, v in x.items() if ring.table.has(n)}
    read = []
    for _, binding, factors, name in blocks:
        point = {**shared, **{n: ring.scalar(v) for n, v in binding.items()}}
        allowed = {name, forall}
        if set().union(*(f.variables() for f in factors)) - allowed - point.keys():
            # a variable the point lacks stays unless the substitution
            # cancels it or zeroes a factor, and with it the block
            fs = [f.substitute(point) for f in factors]
            if any(f.is_zero() for f in fs):
                factors = (qe.ring.zero,)
            else:
                _require_only(fs, allowed, what)
        read.append((point, factors, name))
    return all(
        any(_factor_vanishes(f.substitute(point), name, forall, qe.field) for f in factors)
        for point, factors, name in read
    )


# -- the decision rule ---------------------------------------------------------------


def _require_only(polys: list, allowed: set, what: str):
    extra = set().union(*(p.variables() for p in polys)) - allowed
    if extra:
        raise UnexpectedVariablesError(f"{what}: unexpected variables {sorted(extra)}")


def _require_free(qe: QuantifiedEquation, x: Mapping) -> None:
    named = set(qe.quantified_names()).intersection(x)
    if named:
        raise UnexpectedVariablesError(f"the point names quantified variables {sorted(named)}")


def _require_prefix(qe: QuantifiedEquation, kinds: tuple) -> None:
    got = tuple(q for q, _ in qe.prefix)
    if got != kinds:
        raise ShapeUnsupportedError(f"prefix {got} does not fit the expected pattern {kinds}")


def _opaque_ae_c(qe: QuantifiedEquation, x: Mapping) -> bool:
    """forall a exists b: p(a, b, x) = 0 over C for an opaque equation,
    which has no selector nodes to read. p = sum_j d_j(a) b^j has no root
    in b exactly where all d_j with j >= 1 vanish and d_0 does not, so the
    statement fails iff the gcd g of the positive-degree coefficients has
    a root that d_0 misses."""
    (_, a_name), (_, b_name) = qe.prefix
    p = qe.addends[0][0].substitute(x)
    _require_only([p], {a_name, b_name}, f"decide {qe.shape.value}")
    coeffs = as_univariate(p, b_name).coeffs
    if not coeffs:
        return True
    d0 = coeffs[0]
    high = [c for c in coeffs[1:] if not c.is_zero()]
    if not high:
        return d0.is_zero()
    g = _gcd_fold(high, a_name)
    if g.degree == 0:
        return True
    sf = squarefree_part(g)
    d0_view = as_univariate(d0, a_name)
    if d0_view.is_zero():
        return True
    common = gcd_univariate(sf, d0_view)
    return common.degree == sf.degree


def _decide(shape: Shape, qe: QuantifiedEquation, x: Mapping) -> bool:
    """Whether the statement of an equation of the given shape holds at x.

    An equation over one of the spec's unbuilt_fields needs only the spec's
    prefix: an opaque forall-first one takes the gcd rule, any other the
    block walk, whose forall-first blocks still ask for the construction.
    Every other equation must be its own construction. A point that names
    a quantified variable is refused."""
    _require_free(qe, x)
    if qe.shape is not shape:
        raise ShapeUnsupportedError(f"expected shape {shape.value}, got {qe.shape.value}")
    spec = SHAPE_SPECS[shape]
    if qe.field not in spec.unbuilt_fields:
        qe = qe.construction()
    else:
        _require_prefix(qe, spec.unbuilt_prefix)
        if qe.opaque and qe.prefix[0][0] == "forall":
            return _opaque_ae_c(qe, x)
    return _every_block_vanishes(qe, x)


def has_real_root(qe: QuantifiedEquation, x: Mapping) -> bool:
    """Whether p(r, x) = 0 has a real root r: whether some factor has one,
    by Sturm root counting. A point that names r is refused."""
    _require_free(qe, x)
    _require_prefix(qe, ("exists",))
    return _every_block_vanishes(qe, x)


# one entry per shape, each refusing another shape's equation; callers look
# the entry up at call time
DECIDER_FOR_SHAPE: dict[Shape, Callable] = {shape: partial(_decide, shape) for shape in Shape}


def decider_for_shape(shape: Shape) -> Callable:
    return DECIDER_FOR_SHAPE[shape]


# -- sampling refuter ---------------------------------------------------------------


class VerdictKind(enum.Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    REFUTED = "REFUTED"
    UNRESOLVED = "UNRESOLVED"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    sample: object = None
    tried: int = 0

    def __str__(self):
        if self.kind is VerdictKind.REFUTED:
            return f"REFUTED at {self.sample}"
        if self.kind is VerdictKind.UNRESOLVED:
            return f"UNRESOLVED after {self.tried} samples"
        return self.kind.value


@dataclass(frozen=True)
class SamplePlan:
    seed: int
    count: int = 64
    bound: int = 32

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample plan needs count >= 1")
        if self.bound < 1:
            raise ValueError(f"sample plan needs bound >= 1, got bound {self.bound}")


def refute_ae(qe: QuantifiedEquation, x: Mapping, plan: SamplePlan) -> Verdict:
    """Sample the universal variable, integers 1..d first, deciding the inner
    exists exactly by the block walk at each sample; REFUTED carries the
    first failing sample."""
    _require_free(qe, x)
    if not qe.prefix or qe.prefix[0][0] != "forall":
        raise ShapeUnsupportedError("refuter needs a forall-first prefix")
    d = qe.provenance.d if qe.provenance is not None else 0
    samples: list = [Fraction(i) for i in range(1, d + 1)][: plan.count]
    rng = random.Random(plan.seed)
    while len(samples) < plan.count:
        samples.append(Fraction(rng.randint(-plan.bound, plan.bound), rng.randint(1, plan.bound)))
    tried = 0
    for alpha in samples:
        tried += 1
        if not _every_block_vanishes(qe, x, alpha):
            return Verdict(VerdictKind.REFUTED, sample=alpha, tried=tried)
    return Verdict(VerdictKind.UNRESOLVED, tried=tried)


# -- witness checking -----------------------------------------------------------------


def check_witness(qe: QuantifiedEquation, x: Mapping, assignment: Mapping) -> bool:
    """Exact substitution of the witness into the layout.

    All exists variables must be assigned. Unassigned forall variables are
    allowed only when the substituted equation is the zero polynomial in
    them (the exists-forall case); otherwise the fully bound value must be
    exactly zero. qe.vanishes_at answers both without multiplying a product
    out. A SqrtValue witness needs every quantified variable bound; it is
    checked by its square, after the rest of the point has collected like
    terms, and an odd power of an irrational root raises ValueError. The
    assignment may name only quantified variables the point leaves unbound;
    the forall value may come in either."""
    extra = assignment.keys() - set(qe.quantified_names())
    if extra:
        raise UnexpectedVariablesError(
            f"the assignment names unquantified variables {sorted(extra)}"
        )
    rebound = assignment.keys() & x.keys()
    if rebound:
        raise UnexpectedVariablesError(f"the assignment rebinds point variables {sorted(rebound)}")
    exists_names = {n for q, n in qe.prefix if q == "exists"}
    missing = exists_names - set(assignment)
    if missing:
        raise MissingAssignmentError(f"unassigned exists variables {sorted(missing)}")
    bound = {**x, **assignment}
    unbound = [n for _, n in qe.prefix if n not in bound]
    if unbound and any(isinstance(v, SqrtValue) for v in assignment.values()):
        raise MissingAssignmentError(
            f"square-root witnesses need every quantified variable bound; missing {unbound}"
        )
    return qe.vanishes_at(bound)


# -- equivalence harness ---------------------------------------------------------------


def _sample_scalar(rng: random.Random, fld: Field, bound: int):
    def frac():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    if fld is Field.C:
        return GaussianRational(frac(), frac())
    return frac()


def equivalence_run(phi, qe: QuantifiedEquation, decider: Callable, plan: SamplePlan) -> dict:
    """Compare formula truth against the decider on sampled points."""
    names = list(qe.free_names())
    phi_ring = formula_ring(phi)
    if phi_ring is not None:
        for n in phi_ring.table.free_names():
            if n not in names:
                names.append(n)
    rng = random.Random(plan.seed)
    agreements = 0
    disagreements = []
    for k in range(plan.count):
        point = {n: _sample_scalar(rng, qe.field, plan.bound) for n in names}
        expected = eval_formula(phi, point)
        got = decider(qe, point)
        if expected == got:
            agreements += 1
        else:
            disagreements.append(
                {
                    "point": {n: str(v) for n, v in point.items()},
                    "expected": expected,
                    "got": got,
                    "seed": plan.seed,
                    "index": k,
                }
            )
    return {
        "points": plan.count,
        "agreements": agreements,
        "disagreements": disagreements,
        "seed": plan.seed,
    }
