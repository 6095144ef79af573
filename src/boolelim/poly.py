"""Sparse multivariate polynomials over exact scalar fields.

Polynomials are dicts mapping monomials (sorted tuples of (variable index,
exponent) pairs, exponents > 0) to nonzero scalars. Every polynomial belongs
to a PolyRing, which fixes the coefficient field and owns the variable table;
mixing rings raises.

Products, powers and expansions go through one integer kernel,
_packed_product: each operand is cleared to integer numerators (Gaussian
integer pairs over C) over one denominator and each monomial packed into one
int, so a monomial product is one int addition; a one-term operand only
scales and shifts the other's terms. fold_layout keeps a whole layout packed
and returns a PackedPoly, whose keys hold the exponents in render order under
the total degree, so each key is its own sort key; its term dict of monomial
tuples and field scalars is built only when read.

Text and LaTeX are one walk over packed terms, any other polynomial packed
the same way first: terms graded lexicographically with the quantified
variables ranked before free ones, which the golden files and the JSON round
trip rely on, each distinct numerator spelled once, as n/g over den/g. A
style record says how each spells numbers, the imaginary unit, mixed
Gaussians, products and powers.

Evaluation and substitution are one term walk that multiplies each bound
variable's power into the coefficient. Both coerce an int, Fraction or
GaussianRational value into the ring's scalars (so a real Gaussian becomes a
Fraction over R and Q, and a non-real one raises FieldMismatchError);
evaluation uses any other value, a square-root witness, as given, and
substitution takes field scalars only, refusing every polynomial, constant
or not, as it refuses a square-root witness.

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
_EXACT = (int, Fraction, GaussianRational)  # point values coerced into a ring
_UNBOUND = object()  # a variable the bindings leave in the monomial


class TermBudget:
    """The term products one parsed product chain or power, one construction,
    one expansion or one exact degree check has spent against
    MAX_TERM_PRODUCTS, a scalar counting as one term. `charge` counts m * n
    products before they are taken, raising SizeLimitError naming `what`
    past the budget; `times` charges a product of two operands and takes it."""

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
    if isinstance(x, GaussianRational):
        if fld is not Field.C and x.im != 0:
            raise FieldMismatchError(f"non-real scalar {x} in field {fld.value}")
        return x if fld is Field.C else x.re
    if isinstance(x, (int, Fraction)):
        if fld is Field.C:
            return GaussianRational.of(x)
        return Fraction(x) if isinstance(x, int) else x
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


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m2:
        return m1
    out = dict(m1)
    for idx, e in m2:
        out[idx] = out.get(idx, 0) + e
    return tuple(sorted(out.items()))


def _product(ring: PolyRing, a: dict, b: dict) -> dict:
    """The terms of the product of the term dicts a and b. A one-term
    operand scales and shifts the other's terms; otherwise _packed_product
    multiplies them packed, variable i at bit i * width (a square, a is b,
    takes each cross pair once)."""
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
    order = range(len(ring.table.all_vars()))
    unit = [1 << i * width for i in order]
    gauss = ring.field is Field.C
    da, pa = _packed(a, unit, gauss)
    db, pb = (da, pa) if a is b else _packed(b, unit, gauss)
    return _unpacked_terms(_packed_product(pa, pb, gauss), da * db, gauss, width, order)


def fold_layout(ring: PolyRing, guard, addends: list, power: int, budget: TermBudget,
                quantified: Sequence[str] = ()) -> "PackedPoly":
    """The PackedPoly guard * sum_i (prod_j f_ij)^power, packed in render order for
    the quantified names, a guard None for the unit, no addend empty."""
    return next(_folds(ring, guard, addends, power, budget, quantified, [None]))


def weighted_sums(ring: PolyRing, addends: list, budget: TermBudget, weights: Iterable):
    """For each list of ints w in weights, the PackedPoly sum_i w_i * prod_j f_ij;
    the products are taken and charged once, before the first sum."""
    return _folds(ring, None, addends, 1, budget, (), weights)


def _folds(ring, guard, addends, power, budget, quantified, weights):
    """guard * sum_i w_i * (prod_j f_ij)^power for each w in weights (None for
    all ones), each distinct factor (by identity) packed once, at a width
    for the largest exponent reachable. The budget is charged before each
    product as the MultiPoly products would be, in order, a square as len^2
    and the guard's last, so SizeLimitError fires where theirs would."""
    gauss = ring.field is Field.C
    reach = power * max((sum(_top_exponent(f.terms) for f in a) for a in addends), default=0)
    if guard is not None:
        reach += _top_exponent(guard.terms)
    width = reach.bit_length()
    unit, order = _layout(ring, quantified, range(len(ring.table.all_vars())), width)
    packed: dict = {}

    def pack(f):
        p = packed.get(id(f))
        if p is None:
            p = packed[id(f)] = _packed(f.terms, unit, gauss)
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
    for w in weights:
        den, total = _packed_sum(values, gauss, w)
        if guard is not None:
            dg, pg = pack(guard)
            budget.charge(len(pg), len(total))
            total = _packed_product(pg, total, gauss)
            den *= dg
        yield PackedPoly(ring, den, total, width, order, tuple(quantified))


def _top_exponent(t: dict) -> int:
    return max((e for m in t for _, e in m), default=0)


def _layout(ring: PolyRing, quantified: Sequence[str], indices, width: int) -> tuple[dict, list]:
    """(unit, order) packing monomials in the variable indices in render order:
    fields of the width by significance, highest first (the quantified names
    in their order, other quantified variables, then free ones, both by
    name), and one more field above them all for the total degree. unit[i]
    is one at the low bit of variable i's field and of the degree field, so
    adding two keys multiplies two monomials, and a greater key renders
    earlier. order lists the indices field by field from the lowest."""
    qrank = {name: k for k, name in enumerate(quantified)}
    table = ring.table.all_vars()

    def rank(i):
        v = table[i]
        return (0, qrank[v.name]) if v.name in qrank else (2 - v.quantified, v.name)

    order = sorted(indices, key=rank, reverse=True)
    top = 1 << len(order) * width
    return {i: (1 << p * width) + top for p, i in enumerate(order)}, order


def _packed(t: dict, unit, gauss: bool) -> tuple[int, dict]:
    """(den, {packed monomial: numerator}) with each coefficient of t its
    numerator over den, an (re, im) pair over C; a monomial packs as the
    sum of e * unit[i] over its (i, e)."""
    den, nums = _integers(list(t.values()), gauss)
    keys = []
    for m in t:
        k = 0
        for i, e in m:
            k += e * unit[i]
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


def _packed_sum(values: list, gauss: bool, weights=None) -> tuple[int, dict]:
    """(den, terms) of the sum of w * t / d over the (d, t) in values and
    the ints w in weights (all 1 when None), den the lcm of the d; a term
    that cancels is left out."""
    if weights is None:
        if len(values) == 1:
            return values[0]
        weights = [1] * len(values)
    den = math.lcm(*(d for d, _ in values))
    out: dict = {}
    get = out.get
    if gauss:
        for (d, t), w in zip(values, weights):
            s = den // d * w
            for k, (r, i) in t.items():
                z = get(k, (0, 0))
                out[k] = (z[0] + r * s, z[1] + i * s)
        return den, {k: z for k, z in out.items() if z[0] or z[1]}
    for (d, t), w in zip(values, weights):
        s = den // d * w
        for k, n in t.items():
            out[k] = get(k, 0) + n * s
    return den, {k: n for k, n in out.items() if n}


def _unpacked_terms(packed: dict, den: int, gauss: bool, width: int, order) -> dict:
    """The term dict of packed terms over den, order giving each field's variable
    index (sorted unless a range), with one field scalar per distinct numerator."""
    if gauss:
        fracs = {x: Fraction(x, den) for x in {x for z in packed.values() for x in z}}
        scalars = {z: GaussianRational(fracs[z[0]], fracs[z[1]]) for z in set(packed.values())}
    else:
        scalars = {n: Fraction(n, den) for n in set(packed.values())}
    mask, low = (1 << width) - 1, (1 << len(order) * width) - 1  # low: no degree field
    ordered = type(order) is range
    terms = {}
    for k, n in packed.items():
        k &= low
        m = []
        p = 0
        while k:
            if e := k & mask:
                m.append((order[p], e))
            k >>= width
            p += 1
        terms[tuple(m) if ordered else tuple(sorted(m))] = scalars[n]
    return terms


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
        self.ring, self.terms = ring, terms

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
        if not self.terms:
            return NEG_INF
        idx = self.ring.table.get(name).index if self.ring.table.has(name) else -1
        return max((e for m in self.terms for i, e in m if i == idx), default=0)

    def variables(self) -> set[str]:
        names = self.ring.table
        return {names.name_of(i) for m in self.terms for i, _ in m}

    def key(self):
        """Ring-independent identity: field plus name-keyed terms."""
        name_of = self.ring.table.name_of
        items = ((tuple(sorted((name_of(i), e) for i, e in m)), c) for m, c in self.terms.items())
        return (self.ring.field, tuple(sorted(items)))

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
        return MultiPoly(self.ring, _product(self.ring, self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return power(self, e)

    # -- evaluation and substitution --------------------------------------

    def _bind(self, values: Mapping[str, object], strict: bool) -> dict:
        """The terms with each variable that values binds multiplied into
        the coefficient as value ** exponent, one power per (variable,
        exponent), collected by the monomial left. An int, Fraction or
        GaussianRational value is coerced into the ring's scalars first.
        Strict (evaluation), a variable values lacks raises
        UnexpectedVariablesError and any other value, a SqrtValue, enters
        as given; otherwise (substitution) such a variable stays and any
        other value raises FieldMismatchError."""
        scalar, name_of = self.ring.scalar, self.ring.table.name_of
        powers: dict = {}
        out: dict = {}
        for m, c in self.terms.items():
            left = ()
            for k in m:
                p = powers.get(k)
                if p is None:
                    name = name_of(k[0])
                    if name in values:
                        v = values[name]
                        p = (scalar(v) if not strict or isinstance(v, _EXACT) else v) ** k[1]
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
        terms = self._bind(point, True)
        return terms[()] if terms else self.ring.scalar(0)

    def substitute(self, bindings: Mapping[str, object]) -> "MultiPoly":
        """Replace variables by field scalars; others stay. Any other value,
        a polynomial (constant or not) or a non-real scalar over R or Q,
        raises FieldMismatchError."""
        return MultiPoly(self.ring, self._bind(bindings, False))

    # -- rendering ---------------------------------------------------------

    def render(self, quantified: Sequence[str] = ()) -> str:
        return render_poly(self, quantified)

    def __repr__(self):
        return f"<poly {self.render()}>"


class PackedPoly(MultiPoly):
    """A MultiPoly as fold_layout builds it: integer numerators ((re, im) pairs
    over C) over one denominator den, keyed by monomials packed by _layout; it
    renders from these and builds its term dict on the first read of .terms."""

    __slots__ = ("den", "packed", "width", "order", "quantified")

    def __init__(self, ring, den, packed, width, order, quantified):
        self.ring, self.den, self.packed = ring, den, packed
        self.width, self.order, self.quantified = width, order, quantified

    def __getattr__(self, name):
        """.terms, built on its first read."""
        if name != "terms":
            raise AttributeError(name)
        gauss = self.ring.field is Field.C
        self.terms = terms = _unpacked_terms(self.packed, self.den, gauss, self.width, self.order)
        return terms

    def is_zero(self) -> bool:
        return not self.packed


# -- canonical rendering ---------------------------------------------------


@dataclass(frozen=True)
class _Style:
    """How a rendering spells the pieces of a term; the walk is shared."""

    number: Callable[[int, int], str]  # a numerator over a positive denominator
    imag: str  # a non-unit imaginary magnitude, from its number
    mixed: str  # a Gaussian with both parts: real part, sign, imaginary part
    times: tuple[str, str]  # coefficient to monomial, after a number or a ")"
    var_join: str
    power: str


_TEXT = _Style(lambda n, d: str(n) if d == 1 else f"{n}/{d}",
               "{}*i", "({}{}{})", ("*", "*"), "*", "{}^{}")
_LATEX = _Style(
    lambda n, d: str(n) if d == 1 else f"{'-' if n < 0 else ''}\\tfrac{{{abs(n)}}}{{{d}}}",
    "{}i", "({} {} {})", (" ", ""), " ", "{}^{{{}}}",
)


def _spell(n, den: int, style: _Style) -> tuple[bool, str, str]:
    """(negative, lead, magnitude) of the coefficient n / den, n an (re, im)
    pair over C, each part reduced by its gcd with den; lead is what stands
    before a monomial, nothing for 1; a mixed Gaussian is not negative."""
    re, im = n if type(n) is tuple else (n, 0)
    g, h = math.gcd(re, den), math.gcd(im, den)
    body = style.number(abs(re) // g, den // g)
    if im:
        ims = "i" if abs(im) == den else style.imag.format(style.number(abs(im) // h, den // h))
        if re:
            ims = style.mixed.format(style.number(re // g, den // g), "+" if im > 0 else "-", ims)
        body = ims
    neg = re < 0 and not im or im < 0 and not re
    return neg, "" if body == "1" else body + style.times[body.endswith(")")], body


def _render(p: MultiPoly, quantified: Sequence[str], style: _Style) -> str:
    """Terms in canonical order, total degree then lex on significance, and
    each monomial's variables by significance: p packed by _layout, unless
    it already is, sorted by key, each distinct numerator spelled once."""
    quantified = tuple(quantified)
    if not (isinstance(p, PackedPoly) and p.quantified == quantified):
        t = p.terms
        width = _top_exponent(t).bit_length()
        unit, order = _layout(p.ring, quantified, {i for m in t for i, _ in m}, width)
        den, packed = _packed(t, unit, p.ring.field is Field.C)
        p = PackedPoly(p.ring, den, packed, width, order, quantified)
    if not p.packed:
        return "0"
    terms, names, join = p.packed, list(map(p.ring.table.name_of, p.order)), style.var_join
    den, number, gcd, width = p.den, style.number, math.gcd, p.width
    # low masks off the total-degree field; cut splits the variable fields
    # into a high half, k - (k & cut), and a low one, each spelled once
    low, cut = (1 << len(names) * width) - 1, (1 << len(names) // 2 * width) - 1
    texts = {0: ""}

    def spell(half):
        pieces = []
        while half:
            s = (half.bit_length() - 1) // width * width
            e = half >> s
            half -= e << s
            name = names[s // width]
            pieces.append(name if e == 1 else style.power.format(name, e))
        return join.join(pieces)

    spelled: dict = {}
    out: list[str] = []
    for k in sorted(terms, reverse=True):
        n = terms[k]
        spelled_n = spelled.get(n)
        if spelled_n is None:
            if type(n) is int:  # a rational, the common case, spelled inline
                g = gcd(n, den)
                body = number(abs(n) // g, den // g)
                spelled_n = n < 0, "" if body == "1" else body + style.times[0], body
            else:
                spelled_n = _spell(n, den, style)
            spelled[n] = spelled_n
        neg, lead, body = spelled_n
        k &= low
        if k:
            lo = k & cut
            hi = texts.get(k - lo)
            if hi is None:
                hi = texts[k - lo] = spell(k - lo)
            lo = texts.get(lo)
            if lo is None:
                lo = texts[k & cut] = spell(k & cut)
            body = lead + (hi + join + lo if hi and lo else hi or lo)
        out.append(f" - {body}" if neg else f" + {body}")
    joined = "".join(out)
    return "-" + joined[3:] if joined[1] == "-" else joined[3:]


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
                raise ValueError(f"univariate view in {self.var!r} has a nonconstant coefficient")
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
        # distinct monomials leave distinct (e, rest), so nothing collects
        buckets.setdefault(e, {})[tuple(rest)] = c
    top = max(buckets, default=-1)
    if top > MAX_UNIVARIATE_DEGREE:
        raise SizeLimitError(f"degree {top} in {name!r} exceeds the limit {MAX_UNIVARIATE_DEGREE}")
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
        self.re, self.im = re, im

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
    return [GaussianRational(Fraction(x.re * lc.re + x.im * lc.im, n),
                             Fraction(x.im * lc.re - x.re * lc.im, n)) for x in c]


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
        return _sign_changes([(c[-1] < 0) != (len(c) % 2 == 0) for c in self.polys])

    def variations_at_plus_inf(self) -> int:
        return _sign_changes([c[-1] < 0 for c in self.polys])


def _sign_changes(negative: list[bool]) -> int:
    return sum(map(operator.ne, negative, negative[1:]))


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
