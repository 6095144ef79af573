"""Exact decision oracles for quantified single-equation statements.

Every decider reads the layout, never the expansion: the statement holds at
a point x exactly when every decisive block of the layout has a vanishing
factor, and one block walk decides them all. A product (the exists-forall
form over C, the single-exists form over R and Q, and any opaque equation,
whose one factor is its polynomial) is one block; a sum of squares has one
per bracket, in its own exists variables; a forall-first construction has
clause i's at the selector node i, the only decisive universal values. With
a forall variable left a factor vanishes when its coefficients in it share
a root (a nonconstant gcd), since C[b] has no zero divisors; otherwise at a
complex root over C, or a Sturm-counted real root over R and Q. The Q
gadget blocks take the three-squares criterion on the clause's literals.
The single-exists form over Q, whose construction has only rational real
roots, and the per-conjunct and forall-exists shapes are decided on
constructions only: built, or loaded with a provenance that from_json
rebuilds. Only an opaque "forall a exists b" equation over C has no nodes
to read: it fails only where every positive-degree b-coefficient of its
one polynomial vanishes and the constant one does not, a gcd and
squarefree computation. A sampling refuter runs the block walk at each
sampled universal value, returning REFUTED with the bad value or
UNRESOLVED.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .elim import GADGETS, QuantifiedEquation, Shape, SqrtValue, _is_node
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


# -- scalar helpers -----------------------------------------------------------


@dataclass(frozen=True)
class QuadScalar:
    """a + b*sqrt(q) with rational a, b and nonnegative rational q.

    Arithmetic collapses back to Fraction whenever the radical part cancels,
    so values from different radicands never actually mix in the even
    contexts the witness checker evaluates."""

    a: Fraction
    b: Fraction
    q: Fraction

    def is_zero(self) -> bool:
        # a + b*sqrt(q) = 0 iff a^2 = b^2 q and a, b have opposite signs
        return self.a * self.a == self.b * self.b * self.q and self.a * self.b <= 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _join(self, other) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if isinstance(other, QuadScalar):
            if self.q != other.q:
                raise ValueError("mixed radicands in quadratic scalar arithmetic")
            return self.a, self.b, other.a, other.b
        if isinstance(other, (int, Fraction)):
            return self.a, self.b, Fraction(other), Fraction(0)
        raise TypeError(f"cannot combine QuadScalar with {other!r}")

    def __add__(self, other):
        a, b, c, d = self._join(other)
        return _quad(a + c, b + d, self.q)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.q)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadScalar) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b, c, d = self._join(other)
        return _quad(a * c + b * d * self.q, a * d + b * c, self.q)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a quadratic scalar")
        out = Fraction(1)
        base = self
        while e:
            if e & 1:
                out = base * out
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadScalar)):
            diff = self - other if not isinstance(other, QuadScalar) else self + (-other)
            if isinstance(diff, Fraction):
                return diff == 0
            return diff.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.q))

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.q})"


def _quad(a: Fraction, b: Fraction, q: Fraction):
    return Fraction(a) if b == 0 else QuadScalar(a, b, q)


def _require_only(polys: list, allowed: set, what: str):
    extra = set().union(*(p.variables() for p in polys)) - allowed
    if extra:
        raise UnexpectedVariablesError(f"{what}: unexpected variables {sorted(extra)}")


# -- complete oracles over C ----------------------------------------------------


def exists_root_c(view: UniView) -> bool:
    """Whether a univariate with scalar coefficients has a complex root;
    false exactly for nonzero constants."""
    return view.is_zero() or view.degree >= 1 or not view.scalars()[0]


def _gcd_fold(polys: list, name: str) -> UniView:
    """gcd of nonzero polynomials in name, stopping at the first constant."""
    views = [as_univariate(c, name) for c in polys]
    g = views[0]
    for v in views[1:]:
        g = gcd_univariate(g, v)
        if g.degree == 0:
            break
    return g


def _prefix_names(qe: QuantifiedEquation, pattern: tuple) -> tuple:
    kinds = tuple(q for q, _ in qe.prefix)
    if kinds != pattern:
        raise ShapeUnsupportedError(
            f"prefix {kinds} does not fit the expected pattern {pattern}"
        )
    return tuple(n for _, n in qe.prefix)


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
    or share a root, a nonconstant gcd; else at any complex root over C and
    at a real root, by Sturm counting, over R and Q."""
    if forall is not None:
        nonzero = [c for c in as_univariate(f, forall).coeffs if not c.is_zero()]
        return not nonzero or _gcd_fold(nonzero, name).degree >= 1
    view = as_univariate(f, name)
    return exists_root_c(view) if fld is Field.C else count_real_roots(view) != 0


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
    # each value becomes a constant of the ring once, not once per factor:
    # x's values that no binding overrides, then each binding's
    ring = qe.ring
    bound = {n for _, binding, _, _ in blocks for n in binding}
    shared = {n: ring.const(v) for n, v in x.items() if n not in bound and ring.table.has(n)}
    read = []
    for _, binding, factors, name in blocks:
        point = {**shared, **{n: ring.const(v) for n, v in binding.items()}}
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


# -- the deciders ---------------------------------------------------------------------


def decide_ea_c(qe: QuantifiedEquation, x: Mapping) -> bool:
    """exists a forall b: p(a, b, x) = 0, decided exactly over C.

    C[b] has no zero divisors, so the product vanishes identically in b iff
    some factor does: iff every b-coefficient of that factor vanishes or its
    nonzero b-coefficients have a common root, i.e. a nonconstant gcd."""
    _prefix_names(qe, ("exists", "forall"))
    return _every_block_vanishes(qe, x)


def decide_ae_c(qe: QuantifiedEquation, x: Mapping) -> bool:
    """forall a exists b: p(a, b, x) = 0, decided exactly over C.

    A construction is decided at its selector nodes: off them the guard
    vanishes at b = 1/prod(a - h), and at node i clause i's factors remain,
    one of which must have a root in b. An opaque equation's one polynomial
    p = sum_j d_j(a) b^j has no root in b exactly where all d_j with j >= 1
    vanish and d_0 does not, so the statement fails iff the gcd g of the
    positive-degree coefficients has a root that d_0 misses. Any other
    equation, such as a copy of a construction, is refused."""
    a_name, b_name = _prefix_names(qe, ("forall", "exists"))
    if not qe.opaque:
        return _every_block_vanishes(_construction_of(qe, Shape.AE_C), x)
    p = qe.guard.substitute(x)
    _require_only([p], {a_name, b_name}, "decide_ae_c")
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


def has_real_root(qe: QuantifiedEquation, x: Mapping) -> bool:
    """Whether p(r, x) = 0 has a real root r: whether some factor has one,
    by Sturm root counting."""
    _prefix_names(qe, ("exists",))
    return _every_block_vanishes(qe, x)


def decide_e_r(qe: QuantifiedEquation, x: Mapping) -> bool:
    """exists r: p(r, x) = 0 over the equation's field, by real roots.

    Over Q only the construction is decided: its roots are r = 1/prod u(x),
    so at a rational point a real root is a rational one. A Q equation that
    does not re-derive from its provenance is refused."""
    if qe.field is Field.Q:
        qe = _construction_of(qe, Shape.E_R)
    return has_real_root(qe, x)


def _construction_of(qe: QuantifiedEquation, shape: Shape) -> QuantifiedEquation:
    """The construction of an equation of the given shape."""
    if qe.shape is not shape:
        raise ShapeUnsupportedError(f"expected shape {shape.value}, got {qe.shape.value}")
    return qe.construction()


def decide_ed_r(qe: QuantifiedEquation, x: Mapping) -> bool:
    """Sum of squared brackets with disjoint r_i: zero iff every bracket,
    a product in its own r_i, has a factor with a real root or a zero one."""
    return _every_block_vanishes(_construction_of(qe, Shape.Ed_R), x)


def decide_ae_r_structured(qe: QuantifiedEquation, x: Mapping) -> bool:
    """forall r exists s for the constructed real shape.

    Only the selector nodes 1..d are decisive: anywhere else the guard
    vanishes at s = 1/prod(r - i). At node i clause i's factors go to Sturm."""
    return _every_block_vanishes(_construction_of(qe, Shape.AE_R), x)


def decide_e3d_q_structured(qe: QuantifiedEquation, x: Mapping) -> bool:
    """Each bracket must vanish: some equation hits zero, or some gadget's
    reciprocal test passes the three-squares criterion."""
    return _every_block_vanishes(_construction_of(qe, Shape.E3d_Q), x)


def decide_ae3_q_structured(qe: QuantifiedEquation, x: Mapping) -> bool:
    """Node reduction as in the real forall-exists case, with the inner
    exists decided by the three-squares criterion."""
    return _every_block_vanishes(_construction_of(qe, Shape.AE3_Q), x)


DECIDER_FOR_SHAPE: dict[Shape, Callable] = {
    Shape.EA_C: decide_ea_c,
    Shape.AE_C: decide_ae_c,
    Shape.E_R: decide_e_r,
    Shape.Ed_R: decide_ed_r,
    Shape.AE_R: decide_ae_r_structured,
    Shape.E3d_Q: decide_e3d_q_structured,
    Shape.AE3_Q: decide_ae3_q_structured,
}


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


def refute_ae(qe: QuantifiedEquation, x: Mapping, plan: SamplePlan) -> Verdict:
    """Sample the universal variable, integers 1..d first, deciding the inner
    exists exactly by the block walk at each sample; REFUTED carries the
    first failing sample."""
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


def _as_check_scalar(v):
    if isinstance(v, SqrtValue):
        return QuadScalar(Fraction(0), Fraction(1), v.radicand)
    return v


def check_witness(qe: QuantifiedEquation, x: Mapping, assignment: Mapping) -> bool:
    """Exact substitution of the witness into the layout.

    All exists variables must be assigned. Unassigned forall variables are
    allowed only when the substituted equation is the zero polynomial in
    them (the exists-forall case); otherwise the fully bound value must be
    exactly zero. qe.vanishes_at answers both without multiplying a product
    out. Square-root witnesses evaluate in the quadratic extension."""
    exists_names = {n for q, n in qe.prefix if q == "exists"}
    missing = exists_names - set(assignment)
    if missing:
        raise MissingAssignmentError(f"unassigned exists variables {sorted(missing)}")
    bound = dict(x)
    has_quad = False
    for name, v in assignment.items():
        v = _as_check_scalar(v)
        has_quad = has_quad or isinstance(v, QuadScalar)
        bound[name] = v
    unbound = [n for _, n in qe.prefix if n not in bound]
    if unbound and has_quad:
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
