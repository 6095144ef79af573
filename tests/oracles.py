"""Independent reference implementations used only by the tests.

The real-root scanner works from plain coefficient lists with Fraction
arithmetic and shares no code with the package, and so does the schoolbook
product of multivariate polynomials given as exponent-tuple dicts. The
true-instance generator builds clause matrices around a preselected point so
the expected truth value is known by construction.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from boolelim.elim import SHAPE_SPECS, Shape
from boolelim.formula import Atom, ClauseMatrix, NormalForm, Rel
from boolelim.poly import Field, PolyRing


# -- what the tests build each shape from ----------------------------------------


def shape_setup(shape: Shape) -> tuple:
    """(field, normal form, inequation literal) to build the shape from: the
    spec's kind, its order literal where its gadgets take one, and R where
    the spec accepts both R and Q."""
    spec = SHAPE_SPECS[shape]
    fld = Field.R if Field.R in spec.fields else next(iter(spec.fields))
    return fld, spec.kind, Rel.GT0 if Rel.GT0 in spec.literals else Rel.NEQ0


SHAPE_SETUPS = {shape: shape_setup(shape) for shape in Shape}


# -- schoolbook multivariate product ---------------------------------------------


def _coeff_times(x, y):
    if isinstance(x, tuple):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    return x * y


def _coeff_plus(x, y):
    if isinstance(x, tuple):
        return (x[0] + y[0], x[1] + y[1])
    return x + y


def _coeff_nonzero(x) -> bool:
    return any(x) if isinstance(x, tuple) else x != 0


def schoolbook_product(p: dict, q: dict) -> dict:
    """p * q for polynomials as {exponent tuple: coefficient} dicts, every
    tuple of one length, one exponent per variable: one coefficient product
    per pair of terms, and a sum that comes to zero is dropped. Coefficients
    are Fractions, or (re, im) pairs of Fractions over Q(i)."""
    out: dict = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            e = tuple(a + b for a, b in zip(ep, eq))
            c = _coeff_times(cp, cq)
            out[e] = _coeff_plus(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if _coeff_nonzero(c)}


# -- univariate views back to polynomials ----------------------------------------


def view_poly(view):
    """sum_j coeffs[j] * var^j of a univariate view, in the view's ring. A
    view of degree 0 or less does not name its variable, so the ring's
    variables stay as they are."""
    out = view.ring.zero
    for j, c in enumerate(view.coeffs):
        out = out + (c * view.ring.var(view.var) ** j if j else c)
    return out


# -- grid-plus-Cauchy-bound real root scanner -----------------------------------


def horner(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def strip_poly(coeffs) -> list[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def cauchy_bound(coeffs: list[Fraction]) -> Fraction:
    lead = coeffs[-1]
    if len(coeffs) == 1:
        return Fraction(1)
    return 1 + max(abs(c / lead) for c in coeffs[:-1])


def _scan_once(coeffs: list[Fraction], lo: Fraction, hi: Fraction, step: Fraction) -> int:
    """Distinct-root lower bound: exact zeros at grid points plus strict sign
    changes between neighbours."""
    count = 0
    prev_sign = None
    x = lo
    while x <= hi:
        v = horner(coeffs, x)
        if v == 0:
            count += 1
            prev_sign = None
        else:
            sign = 1 if v > 0 else -1
            if prev_sign is not None and sign != prev_sign:
                count += 1
            prev_sign = sign
        x += step
    return count


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    while len(r) >= len(b) and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= q * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _squarefree(coeffs: list[Fraction]) -> list[Fraction]:
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    deriv = strip_poly(deriv)
    if not deriv:
        return coeffs
    g = _poly_gcd(coeffs, deriv)
    if len(g) <= 1:
        return coeffs
    # exact division by the gcd
    num = list(coeffs)
    out = [Fraction(0)] * (len(num) - len(g) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = num[k + len(g) - 1] / g[-1]
        for i, c in enumerate(g):
            num[k + i] -= out[k] * c
    return strip_poly(out)


def scan_real_roots(coeffs, target: int | None = None, max_refinements: int = 7) -> int:
    """Count distinct real roots by grid scanning the squarefree part inside
    the Cauchy bound, refining the grid while the count can still grow; each
    scan is a lower bound on the true count, so refinement only increases it."""
    cs = strip_poly(coeffs)
    if not cs:
        raise ValueError("zero polynomial has infinitely many roots")
    if len(cs) == 1:
        return 0
    cs = _squarefree(cs)
    m = cauchy_bound(cs)
    step = m / 16
    best = 0
    for _ in range(max_refinements):
        best = max(best, _scan_once(cs, -m, m, step))
        if target is not None and best >= target:
            return best
        step /= 4
    return best


# -- exhaustive three-squares search ----------------------------------------------


def three_squares_by_search(n: int) -> bool:
    """Exhaustive integer search, sharing nothing with the closed criterion."""
    if n < 0:
        return False
    for a in range(math.isqrt(n) + 1):
        rest_a = n - a * a
        for b in range(a, math.isqrt(rest_a) + 1):
            rest = rest_a - b * b
            c = math.isqrt(rest)
            if c * c == rest and c >= b:
                return True
    return False


def three_square_set(limit: int) -> set[int]:
    """Every n <= limit that is a sum of three integer squares, by direct
    triple enumeration."""
    out = set()
    top = math.isqrt(limit)
    for a in range(top + 1):
        aa = a * a
        for b in range(a, top + 1):
            ab = aa + b * b
            if ab > limit:
                break
            for c in range(b, top + 1):
                s = ab + c * c
                if s > limit:
                    break
                out.add(s)
    return out


def rational_three_squares_by_search(v: Fraction, table: set[int], den_multiples: int = 2) -> bool:
    """Search for rational triples (a/m, b/m, c/m) summing to v: such a triple
    exists iff v*m^2 lands on an integer three-square sum for some m."""
    if v < 0:
        return False
    if v == 0:
        return True
    for m in range(1, den_multiples * v.denominator + 1):
        t = v * m * m
        if t.denominator == 1 and t.numerator in table:
            return True
    return False


# -- true-instance generation -------------------------------------------------------


def make_true_instance(rng: random.Random, field: Field, kind: NormalForm, ineq: Rel,
                       n_vars: int = 3, max_clauses: int = 4, max_e: int = 2, max_f: int = 2):
    """A clause matrix and a point where it evaluates to true.

    Terms are built as (random polynomial) - (its value at the point) + offset,
    so each literal's exact value at the point is the chosen offset."""
    names = [f"x{i+1}" for i in range(n_vars)]
    ring = PolyRing(field, None)
    for n in names:
        ring.var(n)
    if field is Field.C:
        from boolelim.exactnum import GaussianRational

        point = {
            n: GaussianRational(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            for n in names
        }
    else:
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for n in names}

    def random_term():
        p = ring.zero
        for _ in range(rng.randint(1, 2)):
            mono = ring.const(Fraction(rng.randint(1, 9) * rng.choice((1, -1))))
            for _ in range(rng.randint(1, 2)):
                mono = mono * ring.var(rng.choice(names))
            p = p + mono
        return p

    def term_with_offset(offset):
        p = random_term()
        return p - ring.const(p.evaluate(point)) + ring.const(offset)

    d = rng.randint(1, max_clauses)
    make_clause_true = rng.randrange(d)  # DNF: one true clause is enough
    clauses = []
    for i in range(d):
        e = rng.randint(0, max_e)
        f = rng.randint(0, max_f)
        if e + f == 0:
            e = 1
        want_true = (kind is NormalForm.CNF) or i == make_clause_true
        atoms = []
        for j in range(e):
            if kind is NormalForm.DNF:
                # conjunctive clause: every literal must hold when selected
                offset = 0 if want_true else rng.randint(1, 9)
            else:
                # disjunctive clause: make the first literal carry the truth
                offset = 0 if want_true and j == 0 else rng.randint(1, 9)
            atoms.append(Atom(term_with_offset(Fraction(offset)), Rel.EQ0))
        for k in range(f):
            if ineq is Rel.GT0:
                good, bad = rng.randint(1, 9), -rng.randint(1, 9)
            else:
                good, bad = rng.randint(1, 9) * rng.choice((1, -1)), 0
            if kind is NormalForm.DNF:
                offset = good if want_true else bad
            else:
                offset = good if want_true and (e == 0 and k == 0) else bad
            atoms.append(Atom(term_with_offset(Fraction(offset)), ineq))
        clauses.append(tuple(atoms))
    m = ClauseMatrix(kind, tuple(clauses), ring, d)
    return m, point
