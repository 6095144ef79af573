"""Sparse multivariate polynomials over exact scalar fields.

Polynomials are dicts mapping monomials (sorted tuples of (variable index,
exponent) pairs, exponents > 0) to nonzero scalars. Every polynomial belongs
to a PolyRing, which fixes the coefficient field and owns the variable table;
mixing rings raises. The canonical text rendering sorts terms graded
lexicographically with quantified variables ranked before free ones, which is
what the golden files and the JSON round-trip rely on; each term's place
comes from one packed int (its exponents in significance order under its
total degree), so the sort compares ints. Text and LaTeX are one term walk; a
small style record says how each spells numbers (from numerator and
denominator), the imaginary unit, mixed Gaussians, products and powers.

Products, powers and the expansion of an equation's layout go through one
integer kernel, _packed_product. A one-term operand scales and shifts the
other's terms; otherwise each operand is cleared to integer numerators
(Gaussian integer pairs over C) over one denominator, its monomials are
packed into one int each with a field per variable as wide as the largest
exponent sum needs, and the numerators accumulate as ints; a square takes
each cross pair once. fold_layout keeps a whole layout packed, with one
running denominator, through its products, squares and sum, so field
scalars and monomial tuples are built once, for the result.

Evaluation and substitution are one term walk that multiplies each bound
variable's power into the coefficient. Both coerce an int, Fraction or
GaussianRational value into the ring's scalars (so a real Gaussian becomes a
Fraction over R and Q, and a non-real one raises FieldMismatchError);
evaluation uses any other value, a square-root witness, as given, and
substitution refuses it, as it refuses a non-constant polynomial.

Univariate views expose one variable with polynomial coefficients, at most
MAX_UNIVARIATE_DEGREE of them (SizeLimitError above). Views with scalar
coefficients go through one fraction-free kernel: denominators are cleared
once per view, gcds and squarefree parts come from subresultant remainder
sequences over Z or Z[i], and Sturm chains from primitive integer
pseudo-remainders; only the views the gcd and the squarefree part return
are field scalars again.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    FieldMismatchError,
    SizeLimitError,
    UnexpectedVariablesError,
    VariableCollisionError,
    ZeroPolynomialError,
)
from .exactnum import GaussianRational

NEG_INF = float("-inf")
INFINITE = float("inf")
# a univariate view holds one coefficient per power up to its degree; the
# constructions stay far below this within the default clause budget
MAX_UNIVARIATE_DEGREE = 1 << 16
# the term products one parsed product chain or power, one construction, one
# expansion of an equation's layout, or one exact degree check of a selector
# sum may multiply out, charged by TermBudget.times before each product;
# parsing a rendered construction multiplies only single terms
MAX_TERM_PRODUCTS = 1 << 18
# the parentheses, negations and signs a parsed formula or term may nest; the
# parser descends about six frames per level, so a parse at this depth stays
# near 620 frames, under the interpreter's default recursion limit of 1000
# with room for a caller's own stack, such as a test runner's
MAX_NESTING_DEPTH = 100

Scalar = Union[Fraction, GaussianRational]
Mono = tuple  # tuple[tuple[int, int], ...]
_EXACT = (int, Fraction, GaussianRational)  # point values coerced into a ring
_UNBOUND = object()  # a variable the bindings leave in the monomial


class TermBudget:
    """The term products one parsed product chain or power, one construction,
    one expansion or one exact degree check has spent against
    MAX_TERM_PRODUCTS, a scalar counting as one term. `charge` counts m * n
    products before they are taken and raises SizeLimitError naming `what`
    once the total passes the budget; `times` charges a product of two
    operands and takes it."""

    def __init__(self, what: str):
        self.what = what
        self.spent = 0

    def charge(self, m: int, n: int) -> None:
        self.spent += m * n
        if self.spent > MAX_TERM_PRODUCTS:
            raise SizeLimitError(
                f"{self.what} multiplies out more than {MAX_TERM_PRODUCTS} term products"
            )

    def times(self, p, q):
        self.charge(_term_count(p), _term_count(q))
        return p * q


def _term_count(v) -> int:
    return len(v.terms) if isinstance(v, MultiPoly) else 1


def power(p: MultiPoly, e: int, times: Callable = operator.mul) -> MultiPoly:
    """p ** e by square-and-multiply, every product taken by times: per bit
    of e from the lowest, out * p when the bit is set, then p * p while
    higher bits remain. A TermBudget's times charges each product."""
    if e < 0:
        raise ValueError("negative polynomial power")
    out = p.ring.one
    while e:
        if e & 1:
            out = times(out, p)
        if e > 1:
            p = times(p, p)
        e >>= 1
    return out


class Field(enum.Enum):
    C = "C"
    R = "R"
    Q = "Q"

    @staticmethod
    def from_letter(letter: str) -> "Field":
        return Field(letter.strip().upper())


@dataclass(frozen=True)
class Var:
    name: str
    index: int
    quantified: bool


class VarTable:
    """Registry of variable names; indices are registration order."""

    def __init__(self):
        self._vars: list[Var] = []
        self._by_name: dict[str, Var] = {}

    def register(self, name: str, quantified: bool = False) -> Var:
        existing = self._by_name.get(name)
        if existing is not None:
            if quantified and not existing.quantified:
                raise VariableCollisionError(
                    f"free variable {name!r} clashes with a quantifier name"
                )
            return existing
        v = Var(name, len(self._vars), quantified)
        self._vars.append(v)
        self._by_name[name] = v
        return v

    def get(self, name: str) -> Var:
        return self._by_name[name]

    def has(self, name: str) -> bool:
        return name in self._by_name

    def name_of(self, index: int) -> str:
        return self._vars[index].name

    def all_vars(self) -> tuple[Var, ...]:
        return tuple(self._vars)

    def free_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._vars if not v.quantified)


def _coerce_scalar(fld: Field, x) -> Scalar:
    if fld is Field.C:
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational.of(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into C")
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise FieldMismatchError(f"non-real scalar {x} in field {fld.value}")
        return x.re
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise FieldMismatchError(f"cannot coerce {x!r} into {fld.value}")


class PolyRing:
    """A coefficient field plus a variable table."""

    def __init__(self, fld: Field, table: VarTable | None = None):
        self.field = fld
        self.table = table if table is not None else VarTable()

    def const(self, x) -> "MultiPoly":
        c = _coerce_scalar(self.field, x)
        return MultiPoly(self, {(): c} if c else {})

    @property
    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    @property
    def one(self) -> "MultiPoly":
        return self.const(1)

    def var(self, name: str) -> "MultiPoly":
        v = self.table.register(name, quantified=False)
        return MultiPoly(self, {((v.index, 1),): _coerce_scalar(self.field, 1)})

    def quantified(self, name: str) -> "MultiPoly":
        v = self.table.register(name, quantified=True)
        return MultiPoly(self, {((v.index, 1),): _coerce_scalar(self.field, 1)})

    def scalar(self, x) -> Scalar:
        return _coerce_scalar(self.field, x)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = dict(m1)
    for idx, e in m2:
        out[idx] = out.get(idx, 0) + e
    return tuple(sorted(out.items()))


def _product(fld: Field, a: dict, b: dict) -> dict:
    """The terms of the product of the term dicts a and b. A one-term
    operand scales and shifts the other's terms, which stay distinct and
    nonzero. Otherwise both go through the packed kernel: each is cleared
    once to integer numerators over one denominator, its monomials packed
    at a field width that holds the largest exponent sum, and multiplied by
    _packed_product, a square (a is b) taking each cross pair once."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= 1:
        if not a:
            return {}
        ((m1, c1),) = a.items()
        if not m1:
            return {m: c1 * c for m, c in b.items()}
        return {_mono_mul(m1, m): c1 * c for m, c in b.items()}
    width = (_top_exponent(a) + _top_exponent(b)).bit_length()
    gauss = fld is Field.C
    da, pa = _packed(a, width, gauss)
    db, pb = (da, pa) if a is b else _packed(b, width, gauss)
    return _unpacked_terms(_packed_product(pa, pb, gauss), da * db, width, gauss)


def fold_layout(ring: PolyRing, guard, addends: list, power: int, budget: TermBudget):
    """The MultiPoly guard * sum_i (prod_j f_ij)^power multiplied out in one
    integer pass, for a guard (None for the unit) and one non-empty list of
    factors f_ij per addend. Each distinct factor (by identity) is cleared
    and packed once, at one field width that holds the largest exponent the
    whole layout can reach; every addend's products, then the squares, the
    sum and the guard's product run on packed integer terms with one
    running denominator, and field scalars and monomial tuples are built
    once, for the result. The budget is charged before each product with
    the term counts the MultiPoly products would have, in their order, a
    square as len^2, so SizeLimitError fires where theirs would."""
    gauss = ring.field is Field.C
    # the largest exponent any product, square or sum below can reach
    reach = power * max((sum(_top_exponent(f.terms) for f in a) for a in addends), default=0)
    if guard is not None:
        reach += _top_exponent(guard.terms)
    width = reach.bit_length()
    packed: dict = {}

    def pack(f):
        p = packed.get(id(f))
        if p is None:
            p = packed[id(f)] = _packed(f.terms, width, gauss)
        return p

    values = []
    for factors in addends:
        d, acc = pack(factors[0])
        for f in factors[1:]:
            df, pf = pack(f)
            budget.charge(len(acc), len(pf))
            acc = _packed_product(acc, pf, gauss)
            d *= df
        values.append((d, acc))
    if power == 2:
        for k, (d, acc) in enumerate(values):
            budget.charge(len(acc), len(acc))
            values[k] = d * d, _packed_product(acc, acc, gauss)
    den, total = _packed_sum(values, gauss)
    if guard is not None:
        dg, pg = pack(guard)
        budget.charge(len(pg), len(total))
        total = _packed_product(pg, total, gauss)
        den *= dg
    return MultiPoly(ring, _unpacked_terms(total, den, width, gauss))


def _top_exponent(t: dict) -> int:
    return max((e for m in t for _, e in m), default=0)


def _packed(t: dict, width: int, gauss: bool) -> tuple[int, dict]:
    """(den, {packed monomial: numerator}) with each coefficient of t its
    numerator over den, an (re, im) pair over C; variable i's exponent sits
    at bit i * width of the packed monomial."""
    den, nums = _integers(list(t.values()), gauss)
    keys = []
    for m in t:
        k = 0
        for i, e in m:
            k += e << i * width
        keys.append(k)
    return den, dict(zip(keys, nums))


def _packed_product(a: dict, b: dict, gauss: bool) -> dict:
    """a * b for packed term dicts, a monomial product being one int
    addition and the numerators accumulating as ints ((re, im) pairs over
    C); for a square, a is b, each cross pair is taken once and doubled. A
    term whose numerator sums to zero is left out."""
    acc: dict = {}
    get = acc.get
    if not gauss:
        if a is b:
            items = list(a.items())
            for n, (ka, ca) in enumerate(items):
                k = ka + ka
                acc[k] = get(k, 0) + ca * ca
                ca += ca
                for kb, cb in items[n + 1 :]:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        else:
            items = list(b.items())
            for ka, ca in a.items():
                for kb, cb in items:
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
        return {k: n for k, n in acc.items() if n}
    imag: dict = {}
    iget = imag.get
    if a is b:
        items = list(a.items())
        for n, (ka, (ar, ai)) in enumerate(items):
            k = ka + ka
            acc[k] = get(k, 0) + ar * ar - ai * ai
            imag[k] = iget(k, 0) + 2 * ar * ai
            ar += ar
            ai += ai
            for kb, (br, bi) in items[n + 1 :]:
                k = ka + kb
                acc[k] = get(k, 0) + ar * br - ai * bi
                imag[k] = iget(k, 0) + ar * bi + ai * br
    else:
        items = list(b.items())
        for ka, (ar, ai) in a.items():
            for kb, (br, bi) in items:
                k = ka + kb
                acc[k] = get(k, 0) + ar * br - ai * bi
                imag[k] = iget(k, 0) + ar * bi + ai * br
    return {k: (n, imag[k]) for k, n in acc.items() if n or imag[k]}


def _packed_sum(values: list, gauss: bool) -> tuple[int, dict]:
    """(den, terms) of the sum of the packed term dicts t / d over the (d, t)
    in values, den the lcm of the d; a term that cancels is left out."""
    if len(values) == 1:
        return values[0]
    den = math.lcm(*(d for d, _ in values))
    out: dict = {}
    get = out.get
    if gauss:
        for d, t in values:
            s = den // d
            for k, (r, i) in t.items():
                z = get(k, (0, 0))
                out[k] = (z[0] + r * s, z[1] + i * s)
        return den, {k: z for k, z in out.items() if z[0] or z[1]}
    for d, t in values:
        s = den // d
        for k, n in t.items():
            out[k] = get(k, 0) + n * s
    return den, {k: n for k, n in out.items() if n}


def _unpacked_terms(t: dict, den: int, width: int, gauss: bool) -> dict:
    """The term dict of the packed terms t over den: monomial tuples, and
    one field scalar per distinct numerator, which the terms share."""
    if gauss:
        parts = {x for z in t.values() for x in z}
        fracs = {n: Fraction(n, den) for n in parts}
        scalars = {z: GaussianRational(fracs[z[0]], fracs[z[1]]) for z in set(t.values())}
    else:
        scalars = {n: Fraction(n, den) for n in set(t.values())}
    return {_unpacked(k, width): scalars[n] for k, n in t.items()}


def _unpacked(k: int, width: int) -> Mono:
    mask = (1 << width) - 1
    m = []
    i = 0
    while k:
        e = k & mask
        if e:
            m.append((i, e))
        k >>= width
        i += 1
    return tuple(m)


def _integers(cs: list, gauss: bool) -> tuple[int, list]:
    """(den, nums) with cs[j] = nums[j] / den and den the lcm of every
    denominator, both parts' over C: nums[j] is an int, or an (re, im) pair
    of ints for Gaussian scalars."""
    if gauss:
        den, parts = _integers([x for c in cs for x in (c.re, c.im)], False)
        return den, list(zip(parts[::2], parts[1::2]))
    dens = [c.denominator for c in cs]
    den = math.lcm(*dens)
    return den, [c.numerator * (den // d) for c, d in zip(cs, dens)]


class MultiPoly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return self.ring.scalar(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[()]

    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e for _, e in m) for m in self.terms)

    def degree_in(self, name: str):
        if not self.terms or not self.ring.table.has(name):
            return NEG_INF if not self.terms else 0
        idx = self.ring.table.get(name).index
        best = NEG_INF
        for m in self.terms:
            d = 0
            for i, e in m:
                if i == idx:
                    d = e
                    break
            if d > best:
                best = d
        return best

    def variables(self) -> set[str]:
        names = self.ring.table
        return {names.name_of(i) for m in self.terms for i, _ in m}

    def key(self):
        """Ring-independent identity: field plus name-keyed terms."""
        names = self.ring.table
        items = tuple(
            sorted(
                (tuple(sorted((names.name_of(i), e) for i, e in m)), c)
                for m, c in self.terms.items()
            )
        )
        return (self.ring.field, items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring is other.ring:
            return self.terms == other.terms
        return self.key() == other.key()

    __hash__ = None  # type: ignore[assignment]

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring:
                raise FieldMismatchError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        o = self._coerce(other)
        out = dict(self.terms)
        for m, c in o.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return MultiPoly(self.ring, _product(self.ring.field, self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return power(self, e)

    # -- evaluation and substitution --------------------------------------

    def _bind(self, values: Mapping[str, object], coerce: Callable, strict: bool) -> dict:
        """The terms with each variable that values binds multiplied into
        the coefficient as coerce(value) ** exponent, one power per
        (variable, exponent), collected by the monomial left. Strict, a
        variable values lacks raises UnexpectedVariablesError."""
        name_of = self.ring.table.name_of
        powers: dict = {}
        out: dict = {}
        for m, c in self.terms.items():
            left = ()
            for k in m:
                p = powers.get(k)
                if p is None:
                    name = name_of(k[0])
                    if name in values:
                        p = coerce(values[name]) ** k[1]
                    elif strict:
                        raise UnexpectedVariablesError(f"the point gives no value for {name!r}")
                    else:
                        p = _UNBOUND
                    powers[k] = p
                if p is _UNBOUND:
                    left += (k,)
                else:
                    c = c * p
            s = out.get(left)
            s = c if s is None else s + c
            if s:
                out[left] = s
            else:
                out.pop(left, None)
        return out

    def evaluate(self, point: Mapping[str, object]) -> Scalar:
        """Exact value at a full point; a variable present that the point
        does not bind raises UnexpectedVariablesError. An int, Fraction or
        GaussianRational value is coerced into the ring's scalars; any other
        value, a SqrtValue, is used as given and enters by its powers."""
        ring = self.ring
        terms = self._bind(point, lambda v: ring.scalar(v) if isinstance(v, _EXACT) else v, True)
        return terms[()] if terms else ring.scalar(0)

    def substitute(self, bindings: Mapping[str, object]) -> "MultiPoly":
        """Replace variables by field scalars or constants of the ring;
        others stay. A non-constant polynomial, one from another ring, or a
        value that is no scalar of the field raises FieldMismatchError."""
        ring = self.ring

        def coerce(v):
            if not isinstance(v, MultiPoly):
                return ring.scalar(v)
            if v.ring is not ring or not v.is_constant():
                raise FieldMismatchError("substitution value is not a constant of the ring")
            return v.constant_value()

        return MultiPoly(ring, self._bind(bindings, coerce, False))

    # -- rendering ---------------------------------------------------------

    def render(self, quantified: Sequence[str] = ()) -> str:
        return render_poly(self, quantified)

    def __repr__(self):
        return f"<poly {self.render()}>"


# -- canonical rendering ---------------------------------------------------


def _significance(ring: PolyRing, quantified: Sequence[str], indices) -> dict[int, tuple]:
    """The rank of each variable index: the quantified names in the given
    order, then other quantified variables, then free ones, both by name, so
    the rendering does not depend on the order the table registered them in."""
    qrank = {name: k for k, name in enumerate(quantified)}
    table = ring.table.all_vars()
    ranks = {}
    for i in indices:
        v = table[i]
        if v.name in qrank:
            ranks[i] = (0, qrank[v.name], "")
        else:
            ranks[i] = (1 if v.quantified else 2, 0, v.name)
    return ranks


def _text_number(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def _latex_number(n: int, d: int) -> str:
    if d == 1:
        return str(n)
    return f"{'-' if n < 0 else ''}\\tfrac{{{abs(n)}}}{{{d}}}"


@dataclass(frozen=True)
class _Style:
    """How a rendering spells the pieces of a term; the walk is shared."""

    number: Callable[[int, int], str]  # a numerator over a positive denominator
    imag: str  # a non-unit imaginary magnitude, from its number
    mixed: str  # a Gaussian with both parts: real part, sign, imaginary part
    times: tuple[str, str]  # coefficient to monomial, after a number or a ")"
    var_join: str
    power: str


_TEXT = _Style(_text_number, "{}*i", "({}{}{})", ("*", "*"), "*", "{}^{}")
_LATEX = _Style(_latex_number, "{}i", "({} {} {})", (" ", ""), " ", "{}^{{{}}}")


def _coeff_pieces(c: Scalar, style: _Style) -> tuple[bool, str]:
    """(negative, magnitude text) for a coefficient, spelled from numerators
    and denominators; a mixed Gaussian is not negative."""
    if isinstance(c, GaussianRational):
        re, im = c.re, c.im
        if im:
            n, d = im.numerator, im.denominator
            im_s = "i" if d == 1 and abs(n) == 1 else style.imag.format(style.number(abs(n), d))
            if not re:
                return n < 0, im_s
            op = "+" if n > 0 else "-"
            return False, style.mixed.format(style.number(re.numerator, re.denominator), op, im_s)
        c = re
    n = c.numerator
    return n < 0, style.number(abs(n), c.denominator)


def _render(p: MultiPoly, quantified: Sequence[str], style: _Style) -> str:
    """Terms in canonical order, total degree then lex on significance, and
    each monomial's variables by significance. Each distinct (variable,
    exponent) pair is looked at once, for its text, its rank and its share
    of a packed sort key: the exponents sit in fields of one width in
    significance order, the most significant highest, with the total degree
    in a field above them, so a term's key is the sum of its pairs' shares
    and one int comparison orders two terms."""
    if not p.terms:
        return "0"
    pairs = {q for m in p.terms for q in m}
    ranks = _significance(p.ring, quantified, {i for i, _ in pairs})
    pos = {i: k for k, i in enumerate(sorted(ranks, key=ranks.__getitem__))}
    width = max((e for _, e in pairs), default=0).bit_length()
    top = len(pos) * width
    name_of = p.ring.table.name_of
    share = {}
    rank = {}
    text = {}
    for q in pairs:
        i, e = q
        share[q] = (e << (top - (pos[i] + 1) * width)) + (e << top)
        rank[q] = pos[i]
        text[q] = name_of(i) if e == 1 else style.power.format(name_of(i), e)
    by_key = {sum(map(share.__getitem__, m)): (m, c) for m, c in p.terms.items()}
    # the terms may share coefficient objects, each spelled once
    spelled: dict = {}
    out: list[str] = []
    for key in sorted(by_key, reverse=True):
        m, c = by_key[key]
        spell = spelled.get(id(c))
        if spell is None:
            neg, body = _coeff_pieces(c, style)
            lead = "" if body == "1" else body + style.times[body.endswith(")")]
            spell = spelled[id(c)] = (neg, lead, body)
        neg, lead, body = spell
        if m:
            names = map(text.__getitem__, sorted(m, key=rank.__getitem__))
            body = lead + style.var_join.join(names)
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def render_poly(p: MultiPoly, quantified: Sequence[str] = ()) -> str:
    return _render(p, quantified, _TEXT)


def render_poly_latex(p: MultiPoly, quantified: Sequence[str] = ()) -> str:
    return _render(p, quantified, _LATEX)


# -- univariate views -------------------------------------------------------


@dataclass(frozen=True)
class UniView:
    """p seen as sum coeffs[j] * var^j; coeffs hold no trailing zero."""

    var: str
    coeffs: tuple[MultiPoly, ...]
    ring: PolyRing = dc_field(repr=False)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def scalars(self) -> list[Scalar]:
        out = []
        for c in self.coeffs:
            if not c.is_constant():
                raise ValueError(
                    f"univariate view in {self.var!r} has a nonconstant coefficient"
                )
            out.append(c.constant_value())
        return out


def as_univariate(p: MultiPoly, name: str) -> UniView:
    """p as a univariate in name; a name the ring lacks leaves the ring as
    it is and gives the degree-0 view."""
    ring = p.ring
    idx = ring.table.get(name).index if ring.table.has(name) else -1
    buckets: dict[int, dict] = {}
    for m, c in p.terms.items():
        e = 0
        rest = []
        for i, ex in m:
            if i == idx:
                e = ex
            else:
                rest.append((i, ex))
        b = buckets.setdefault(e, {})
        key = tuple(rest)
        s = b.get(key)
        s = c if s is None else s + c
        if s:
            b[key] = s
        else:
            b.pop(key, None)
    top = max((e for e, t in buckets.items() if t), default=-1)
    if top > MAX_UNIVARIATE_DEGREE:
        raise SizeLimitError(
            f"degree {top} in {name!r} exceeds the limit {MAX_UNIVARIATE_DEGREE}"
        )
    coeffs = tuple(MultiPoly(ring, buckets.get(j, {})) for j in range(top + 1))
    return UniView(name, coeffs, ring)


def univariate_from_scalars(ring: PolyRing, name: str, coeffs: Iterable) -> UniView:
    cs = [ring.const(c) for c in coeffs]
    while cs and cs[-1].is_zero():
        cs.pop()
    return UniView(name, tuple(cs), ring)


# -- the fraction-free univariate kernel ------------------------------------
#
# A scalar view is cleared of denominators once, by the lcm of every
# coefficient's denominators (both parts over C), into a list of ints over R
# and Q, of Gaussian integers over C. Remainders are pseudo-remainders,
# lc(b)^(deg a - deg b + 1) * a mod b, so every division in the kernel is
# exact; field scalars come back only in the views the public functions
# return.


class _GaussInt:
    """re + im*i with int parts, the ring Z[i] the kernel works in over C."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re or self.im)

    def __sub__(self, o):
        return _GaussInt(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        if type(o) is int:
            return _GaussInt(self.re * o, self.im * o)
        return _GaussInt(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        out = _GaussInt(1, 0)
        for _ in range(e):
            out = out * self
        return out

    def __floordiv__(self, o):
        """The exact quotient; the kernel divides only where o divides."""
        if type(o) is int:
            return _GaussInt(self.re // o, self.im // o)
        n = o.re * o.re + o.im * o.im
        return _GaussInt(
            (self.re * o.re + self.im * o.im) // n, (self.im * o.re - self.re * o.im) // n
        )


def _strim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _cleared(view: UniView) -> list:
    """The view's scalars times the lcm of their denominators: ints over R
    and Q, Gaussian integers over C."""
    gauss = view.ring.field is Field.C
    nums = _integers(view.scalars(), gauss)[1]
    return [_GaussInt(*z) for z in nums] if gauss else nums


def _primitive(c: list) -> list:
    """c divided by the positive gcd of all its integer parts, which keeps
    every sign; c is nonzero."""
    if type(c[0]) is _GaussInt:
        g = math.gcd(*(x for z in c for x in (z.re, z.im)))
    else:
        g = math.gcd(*c)
    return c if g == 1 else [x // g for x in c]


def _deriv(c: list) -> list:
    return _strim([c[j] * j for j in range(1, len(c))])


def _pdivmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with lc(b)^(deg a - deg b + 1) * a = q*b + r and deg r < deg b,
    for a nonzero b of degree at most deg a."""
    lb = b[-1]
    n = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        lr = r.pop()
        q = [x * lb for x in q]
        q[k] = lr
        r = [x * lb for x in r]
        if lr:
            for j in range(n):
                r[k + j] = r[k + j] - lr * b[j]
    return q, _strim(r)


def _monic(c: list) -> list:
    """c divided by its leading coefficient, as field scalars."""
    lc = c[-1]
    if type(lc) is not _GaussInt:
        return [Fraction(x, lc) for x in c]
    n = lc.re * lc.re + lc.im * lc.im
    return [
        GaussianRational(
            Fraction(x.re * lc.re + x.im * lc.im, n), Fraction(x.im * lc.re - x.re * lc.im, n)
        )
        for x in c
    ]


def _subresultant_prs(a: list, b: list) -> Iterator[list]:
    """The remainders after a and b of their subresultant remainder sequence
    (Collins 1967; Brown & Traub 1971), up to the first constant one, for
    deg a >= deg b. Each pseudo-remainder is divided exactly by g*h^delta,
    which keeps the coefficients the size of subresultants."""
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        _, r = _pdivmod(a, b)
        if not r:
            return
        div = g * h**delta
        a, b = b, [x // div for x in r]
        yield b
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h


def _prs_gcd(a: list, b: list) -> list:
    """A gcd of a and b up to a constant factor: the last remainder of the
    subresultant sequence of their primitive parts."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    a, b = _primitive(a), _primitive(b)
    last = b
    for last in _subresultant_prs(a, b):
        pass
    return last


def gcd_univariate(p: UniView, q: UniView) -> UniView:
    """Monic gcd over the scalar field; gcd(p, 0) is monic(p), gcd(0,0) = 0."""
    if p.var != q.var:
        raise ValueError("views over different variables")
    g = _prs_gcd(_cleared(p), _cleared(q))
    return univariate_from_scalars(p.ring, p.var, _monic(g) if g else g)


def squarefree_part(p: UniView) -> UniView:
    """p / gcd(p, p'), monic: the radical of a nonzero scalar univariate."""
    c = _cleared(p)
    if not c:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    g = _prs_gcd(c, _deriv(c))
    # a constant gcd leaves p squarefree; dividing by it would only scale
    quo = c if len(g) == 1 else _pdivmod(c, _primitive(g))[0]
    return univariate_from_scalars(p.ring, p.var, _monic(quo))


@dataclass(frozen=True)
class SturmChain:
    """A Sturm chain as primitive integer coefficient lists, constant term
    first: positive multiples of p, p' and the negated Euclidean remainders,
    so it has the sign variations of the Euclidean chain everywhere."""

    var: str
    polys: tuple[tuple[int, ...], ...]

    def variations_at_minus_inf(self) -> int:
        signs = [(-1 if c[-1] < 0 else 1) * (-1) ** (len(c) - 1) for c in self.polys]
        return _sign_changes(signs)

    def variations_at_plus_inf(self) -> int:
        signs = [-1 if c[-1] < 0 else 1 for c in self.polys]
        return _sign_changes(signs)


def _sign_changes(signs: list[int]) -> int:
    n = 0
    prev = None
    for s in signs:
        if s == 0:
            continue
        if prev is not None and s != prev:
            n += 1
        prev = s
    return n


def _rational_cleared(view: UniView) -> list[int]:
    if view.ring.field is Field.C:
        raise FieldMismatchError("Sturm chains are defined over ordered fields")
    return _cleared(view)


def sturm_chain(p: UniView) -> SturmChain:
    """p, p', then negated pseudo-remainders, each made primitive. A
    pseudo-remainder is lc^(delta+1) times the Euclidean remainder, so its
    sign is turned back where that power is negative; divided by its
    positive content, every member is a positive multiple of the Euclidean
    chain's."""
    c = _rational_cleared(p)
    if not c:
        raise ZeroPolynomialError("Sturm chain of the zero polynomial")
    chain = [_primitive(c)]
    if len(c) > 1:
        chain.append(_primitive(_deriv(chain[0])))
        while len(chain[-1]) > 1:
            a, b = chain[-2], chain[-1]
            _, r = _pdivmod(a, b)
            if not r:
                break
            flipped = b[-1] < 0 and (len(a) - len(b)) % 2 == 0
            chain.append(_primitive(r if flipped else [-x for x in r]))
    return SturmChain(p.var, tuple(tuple(q) for q in chain))


def count_real_roots(p: UniView):
    """Number of distinct real roots; INFINITE for the zero polynomial."""
    if p.degree < 1:
        return 0 if _rational_cleared(p) else INFINITE
    chain = sturm_chain(p)
    return chain.variations_at_minus_inf() - chain.variations_at_plus_inf()
