"""Boolean formulas over polynomial constraints, and their normal forms.

Grammar (whitespace-insensitive):

    formula := or ;  or := and (("\\/"|"or") and)* ;  and := not (("/\\"|"and") not)*
    not     := ("~"|"not") not | primary
    primary := "true" | "false" | "(" formula ")" | term REL term
    REL     := "=" | "!=" | ">" | ">=" | "<" | "<="
    term    := usual +, -, *, ^ arithmetic over identifiers and integer or
               rational literals (e.g. 3/2); "^" takes a nonnegative integer.

Every relation is normalized to a constraint against zero: p REL q becomes
(p - q) REL 0, and the order sugar resolves at parse time (t >= 0 becomes
t > 0 \\/ t = 0, t < 0 becomes -t > 0, t <= 0 becomes -t > 0 \\/ t = 0).
Order relations are rejected over the complex field. Over C the identifier
"i" denotes the imaginary unit. A product chain or power charges one
TermBudget per product as it multiplies, a power each product of the
repeated squaring that computes it, and is refused with SizeLimitError
before the product that would pass MAX_TERM_PRODUCTS term products; so is
nesting deeper than MAX_NESTING_DEPTH parentheses, negations and signs.
"""

from __future__ import annotations

import enum
import math
import random
import re as _re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

from .errors import (
    FormulaSyntaxError,
    OrderInComplexError,
    OrderOnComplexError,
    SizeLimitError,
    VariableCollisionError,
)
from .exactnum import IMAG_UNIT, GaussianRational
from .poly import MAX_NESTING_DEPTH, Field, MultiPoly, PolyRing, TermBudget, power

DEFAULT_CLAUSE_LIMIT = 4096


class Rel(enum.Enum):
    EQ0 = "="
    NEQ0 = "!="
    GT0 = ">"


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    term: MultiPoly
    rel: Rel

    def key(self):
        return (self.rel, self.term.key())


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple


@dataclass(frozen=True)
class Or(Formula):
    children: tuple


@dataclass(frozen=True)
class TrueConst(Formula):
    pass


@dataclass(frozen=True)
class FalseConst(Formula):
    pass


TRUE = TrueConst()
FALSE = FalseConst()


def make_atom(term: MultiPoly, rel: Rel) -> Formula:
    """Atom with constant folding; order atoms only over ordered fields."""
    if rel is Rel.GT0 and term.ring.field is Field.C:
        raise OrderInComplexError("order constraint over C")
    if term.is_constant():
        v = term.constant_value()
        if rel is Rel.EQ0:
            return TRUE if not v else FALSE
        if rel is Rel.NEQ0:
            return FALSE if not v else TRUE
        rv = v.re if isinstance(v, GaussianRational) else v
        return TRUE if rv > 0 else FALSE
    return Atom(term, rel)


def f_not(phi: Formula) -> Formula:
    if phi is TRUE:
        return FALSE
    if phi is FALSE:
        return TRUE
    if isinstance(phi, Not):
        return phi.child
    return Not(phi)


def f_and(children) -> Formula:
    out = []
    for c in children:
        if c is FALSE:
            return FALSE
        if c is TRUE:
            continue
        if isinstance(c, And):
            out.extend(c.children)
        else:
            out.append(c)
    if not out:
        return TRUE
    if len(out) == 1:
        return out[0]
    return And(tuple(out))


def f_or(children) -> Formula:
    out = []
    for c in children:
        if c is TRUE:
            return TRUE
        if c is FALSE:
            continue
        if isinstance(c, Or):
            out.extend(c.children)
        else:
            out.append(c)
    if not out:
        return FALSE
    if len(out) == 1:
        return out[0]
    return Or(tuple(out))


def formula_ring(phi: Formula) -> PolyRing | None:
    if isinstance(phi, Atom):
        return phi.term.ring
    if isinstance(phi, Not):
        return formula_ring(phi.child)
    if isinstance(phi, (And, Or)):
        for c in phi.children:
            r = formula_ring(c)
            if r is not None:
                return r
    return None


# -- tokenizer / parser -----------------------------------------------------

_TWO_CHAR = {"/\\": "AND", "\\/": "OR", "!=": "NEQ", ">=": "GEQ", "<=": "LEQ"}
_ONE_CHAR = {
    "(": "LPAREN", ")": "RPAREN", "+": "PLUS", "-": "MINUS", "*": "STAR",
    "^": "CARET", "=": "EQ", ">": "GT", "<": "LT", "~": "NOT", "/": "SLASH",
}
_KEYWORDS = {"and": "AND", "or": "OR", "not": "NOT", "true": "TRUE", "false": "FALSE"}
_IDENT_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = _re.compile(r"\d+")


def is_identifier(name) -> bool:
    """Whether name is a str that tokenizes as one identifier."""
    return isinstance(name, str) and bool(_IDENT_RE.fullmatch(name)) and name not in _KEYWORDS


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    n = len(text)
    k = 0
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        two = text[k : k + 2]
        if two in _TWO_CHAR:
            toks.append(_Tok(_TWO_CHAR[two], two, k))
            k += 2
            continue
        m = _NUM_RE.match(text, k)
        if m:
            toks.append(_Tok("NUM", m.group(), k))
            k = m.end()
            continue
        m = _IDENT_RE.match(text, k)
        if m:
            word = m.group()
            toks.append(_Tok(_KEYWORDS.get(word, "IDENT"), word, k))
            k = m.end()
            continue
        if ch in _ONE_CHAR:
            toks.append(_Tok(_ONE_CHAR[ch], ch, k))
            k += 1
            continue
        raise FormulaSyntaxError(k, "a token", repr(ch))
    toks.append(_Tok("EOF", "", n))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], ring: PolyRing):
        self.toks = toks
        self.k = 0
        self.ring = ring
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def advance(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind: str, what: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise FormulaSyntaxError(t.pos, what, t.text or "end of input")
        return self.advance()

    def nested(self, parse: Callable):
        """Skip the opening token, then parse() one level deeper."""
        t = self.advance()
        if self.depth >= MAX_NESTING_DEPTH:
            raise SizeLimitError(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels at position {t.pos}"
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # formula level

    def formula(self) -> Formula:
        node = self.or_expr()
        t = self.peek()
        if t.kind != "EOF":
            raise FormulaSyntaxError(t.pos, "end of input or a connective", t.text)
        return node

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.peek().kind == "OR":
            self.advance()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else f_or(parts)

    def and_expr(self) -> Formula:
        parts = [self.not_expr()]
        while self.peek().kind == "AND":
            self.advance()
            parts.append(self.not_expr())
        return parts[0] if len(parts) == 1 else f_and(parts)

    def not_expr(self) -> Formula:
        if self.peek().kind == "NOT":
            return f_not(self.nested(self.not_expr))
        return self.primary()

    def primary(self) -> Formula:
        t = self.peek()
        if t.kind == "TRUE":
            self.advance()
            return TRUE
        if t.kind == "FALSE":
            self.advance()
            return FALSE
        if t.kind == "LPAREN":
            # "(" opens either a parenthesized formula or a term; try atom first
            mark = self.k
            try:
                return self.atom()
            except FormulaSyntaxError:
                self.k = mark
            node = self.nested(self.or_expr)
            self.expect("RPAREN", "')'")
            return node
        return self.atom()

    def atom(self) -> Formula:
        left = self.term()
        t = self.peek()
        rel = t.kind
        if rel not in ("EQ", "NEQ", "GT", "GEQ", "LT", "LEQ"):
            raise FormulaSyntaxError(t.pos, "a relation (=, !=, >, >=, <, <=)", t.text or "end of input")
        self.advance()
        right = self.term()
        if rel in ("GT", "GEQ", "LT", "LEQ") and self.ring.field is Field.C:
            raise OrderInComplexError(f"order relation at position {t.pos} over C")
        diff = left - right
        if rel == "EQ":
            return make_atom(diff, Rel.EQ0)
        if rel == "NEQ":
            return make_atom(diff, Rel.NEQ0)
        if rel == "GT":
            return make_atom(diff, Rel.GT0)
        if rel == "GEQ":
            return f_or([make_atom(diff, Rel.GT0), make_atom(diff, Rel.EQ0)])
        if rel == "LT":
            return make_atom(-diff, Rel.GT0)
        return f_or([make_atom(-diff, Rel.GT0), make_atom(-diff, Rel.EQ0)])

    # term level

    def term(self) -> MultiPoly:
        node = self.product()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance().kind
            rhs = self.product()
            node = node + rhs if op == "PLUS" else node - rhs
        return node

    def product(self) -> MultiPoly:
        node = self.unary()
        budget = None
        while self.peek().kind == "STAR":
            t = self.advance()
            budget = budget or TermBudget(f"the product at position {t.pos}")
            node = budget.times(node, self.unary())
        return node

    def unary(self) -> MultiPoly:
        if self.peek().kind == "MINUS":
            return -self.nested(self.unary)
        return self.power()

    def power(self) -> MultiPoly:
        base = self.base()
        while self.peek().kind == "CARET":
            t = self.advance()
            e = int(self.expect("NUM", "a nonnegative integer exponent").text)
            base = power(base, e, TermBudget(f"the power at position {t.pos}").times)
        return base

    def base(self) -> MultiPoly:
        t = self.peek()
        if t.kind == "NUM":
            self.advance()
            num = int(t.text)
            if self.peek().kind == "SLASH":
                self.advance()
                den = self.expect("NUM", "a denominator")
                return self.ring.const(Fraction(num, int(den.text)))
            return self.ring.const(num)
        if t.kind == "IDENT":
            self.advance()
            if t.text == "i" and self.ring.field is Field.C:
                return self.ring.const(IMAG_UNIT)
            return self.ring.var(t.text)
        if t.kind == "LPAREN":
            node = self.nested(self.term)
            self.expect("RPAREN", "')'")
            return node
        raise FormulaSyntaxError(t.pos, "a variable, number, or '('", t.text or "end of input")


def parse(text: str, fld: Field, ring: PolyRing | None = None) -> Formula:
    """Parse a formula over fld; free variables register in order of first
    appearance, after those a given ring of that field already holds. A
    name the ring holds as quantified, as a construction built in it
    registers, raises VariableCollisionError."""
    ring = ring or PolyRing(fld)
    toks = _tokenize(text)
    quantified = {v.name for v in ring.table.all_vars() if v.quantified}
    for t in toks:
        if t.kind == "IDENT" and t.text in quantified:
            raise VariableCollisionError(f"free variable {t.text!r} clashes with a quantifier name")
    return _Parser(toks, ring).formula()


def parse_term(text: str, ring: PolyRing) -> MultiPoly:
    p = _Parser(_tokenize(text), ring)
    node = p.term()
    t = p.peek()
    if t.kind != "EOF":
        raise FormulaSyntaxError(t.pos, "end of input", t.text)
    return node


# -- rendering ---------------------------------------------------------------


def render_formula(phi: Formula) -> str:
    if phi is TRUE or isinstance(phi, TrueConst):
        return "true"
    if phi is FALSE or isinstance(phi, FalseConst):
        return "false"
    if isinstance(phi, Atom):
        return f"{phi.term.render()} {phi.rel.value} 0"
    if isinstance(phi, Not):
        return f"~({render_formula(phi.child)})"
    if isinstance(phi, And):
        parts = [
            f"({render_formula(c)})" if isinstance(c, Or) else render_formula(c)
            for c in phi.children
        ]
        return " /\\ ".join(parts)
    if isinstance(phi, Or):
        return " \\/ ".join(render_formula(c) for c in phi.children)
    raise TypeError(f"not a formula: {phi!r}")


# -- negation normal form ----------------------------------------------------


def _negate_atom(a: Atom) -> Formula:
    if a.rel is Rel.EQ0:
        return make_atom(a.term, Rel.NEQ0)
    if a.rel is Rel.NEQ0:
        return make_atom(a.term, Rel.EQ0)
    return f_or([make_atom(-a.term, Rel.GT0), make_atom(a.term, Rel.EQ0)])


def to_nnf(phi: Formula) -> Formula:
    """Push negations to atoms; the result contains no Not nodes."""

    def walk(node: Formula, positive: bool) -> Formula:
        if isinstance(node, TrueConst):
            return TRUE if positive else FALSE
        if isinstance(node, FalseConst):
            return FALSE if positive else TRUE
        if isinstance(node, Atom):
            return node if positive else _negate_atom(node)
        if isinstance(node, Not):
            return walk(node.child, not positive)
        if isinstance(node, And):
            parts = [walk(c, positive) for c in node.children]
            return f_and(parts) if positive else f_or(parts)
        if isinstance(node, Or):
            parts = [walk(c, positive) for c in node.children]
            return f_or(parts) if positive else f_and(parts)
        raise TypeError(f"not a formula: {node!r}")

    return walk(phi, True)


def rewrite_neq_to_orders(phi: Formula) -> Formula:
    """Replace t != 0 by (t > 0 \\/ -t > 0); only meaningful over R and Q."""
    r = formula_ring(phi)
    if r is not None and r.field is Field.C:
        raise OrderInComplexError("inequation-to-order rewrite over C")

    def walk(node: Formula) -> Formula:
        if isinstance(node, Atom):
            if node.rel is Rel.NEQ0:
                return f_or([make_atom(node.term, Rel.GT0), make_atom(-node.term, Rel.GT0)])
            return node
        if isinstance(node, And):
            return f_and([walk(c) for c in node.children])
        if isinstance(node, Or):
            return f_or([walk(c) for c in node.children])
        return node

    return walk(to_nnf(phi))


# -- clause matrices ----------------------------------------------------------


class NormalForm(enum.Enum):
    DNF = "DNF"
    CNF = "CNF"


@dataclass(frozen=True)
class ClauseMatrix:
    """Clauses of literals: conjunctive clauses under DNF, disjunctive under CNF."""

    kind: NormalForm
    clauses: tuple
    ring: PolyRing | None = dc_field(repr=False, default=None)
    raw_clause_count: int = 0

    @property
    def d(self) -> int:
        return len(self.clauses)

    def eqs(self, i: int) -> tuple:
        return tuple(a for a in self.clauses[i] if a.rel is Rel.EQ0)

    def ineqs(self, i: int) -> tuple:
        return tuple(a for a in self.clauses[i] if a.rel is not Rel.EQ0)

    @property
    def e_counts(self) -> tuple[int, ...]:
        return tuple(len(self.eqs(i)) for i in range(self.d))

    @property
    def f_counts(self) -> tuple[int, ...]:
        return tuple(len(self.ineqs(i)) for i in range(self.d))

    def rels_used(self) -> set[Rel]:
        return {a.rel for cl in self.clauses for a in cl}

    def as_formula(self) -> Formula:
        inner = f_and if self.kind is NormalForm.DNF else f_or
        outer = f_or if self.kind is NormalForm.DNF else f_and
        return outer([inner(list(cl)) for cl in self.clauses])


def _merge_clause(base: dict, extra: dict, conjunctive: bool):
    """Merge two clauses, each a dict from literal key to atom in first-seen
    order; None means the merged clause was pruned.

    Conjunctive clauses die on contradictions (t=0 with t!=0, t>0 with t=0,
    t>0 with -t>0); disjunctive clauses die, i.e. become trivially true, on
    t=0 with t!=0 or the full trichotomy t=0, t>0, -t>0. The prunes read
    only keys: -t>0's key is t>0's with every coefficient negated.
    """
    out = dict(base)
    for k, a in extra.items():
        out.setdefault(k, a)
    for rel, (fld, items) in out:
        if rel is Rel.EQ0:
            if (Rel.NEQ0, (fld, items)) in out:
                return None
        elif rel is Rel.GT0:
            eq = (Rel.EQ0, (fld, items)) in out
            opposite = (Rel.GT0, (fld, tuple((m, -c) for m, c in items))) in out
            if (eq or opposite) if conjunctive else (eq and opposite):
                return None
    return out


def _distribute(phi: Formula, want: NormalForm, limit: int):
    """Clauses for the NNF input; returns (clauses, raw_count), the raw
    count being that of the plain distribution with no pruning or dedup.
    While they distribute, clauses are dicts from literal key to atom, so
    each leaf literal is keyed once. Dedup keeps the first clause of each
    key set, which leaves as the tuple of its atoms. A limit below 1 is
    refused with ValueError, since a matrix that no gather or product step
    builds is never checked against it."""
    if limit < 1:
        raise ValueError(f"clause limit must be at least 1, got {limit}")
    conjunctive = want is NormalForm.DNF

    def product(lists):
        acc = [{}]
        for cl_list in lists:
            nxt = []
            for left in acc:
                for right in cl_list:
                    merged = _merge_clause(left, right, conjunctive)
                    if merged is not None:
                        nxt.append(merged)
                    if len(nxt) > limit:
                        raise SizeLimitError(
                            f"clause budget {limit} exceeded during distribution"
                        )
            acc = nxt
        return acc

    def walk(node: Formula):
        # (clauses, raw count): the count adds at the gathering connective
        # and multiplies at the other
        if isinstance(node, TrueConst):
            return ([{}], 1) if conjunctive else ([], 0)
        if isinstance(node, FalseConst):
            return ([], 0) if conjunctive else ([{}], 1)
        if isinstance(node, Atom):
            return [{node.key(): node}], 1
        gather = Or if conjunctive else And
        spread = And if conjunctive else Or
        if isinstance(node, gather):
            out, raw = [], 0
            for c in node.children:
                clauses, n = walk(c)
                out.extend(clauses)
                raw += n
                if len(out) > limit:
                    raise SizeLimitError(f"clause budget {limit} exceeded")
            return out, raw
        if isinstance(node, spread):
            parts = [walk(c) for c in node.children]
            raw = math.prod(n for _, n in parts)
            return product([clauses for clauses, _ in parts]), raw
        raise TypeError(f"unexpected node in NNF: {node!r}")

    clauses, raw = walk(phi)
    deduped = {}
    for cl in clauses:
        deduped.setdefault(frozenset(cl), cl)
    return [tuple(cl.values()) for cl in deduped.values()], raw


def to_dnf(phi: Formula, limit: int = DEFAULT_CLAUSE_LIMIT) -> ClauseMatrix:
    nnf = to_nnf(phi)
    clauses, raw = _distribute(nnf, NormalForm.DNF, limit)
    return ClauseMatrix(NormalForm.DNF, tuple(clauses), formula_ring(phi), raw)


def to_cnf(phi: Formula, limit: int = DEFAULT_CLAUSE_LIMIT) -> ClauseMatrix:
    nnf = to_nnf(phi)
    clauses, raw = _distribute(nnf, NormalForm.CNF, limit)
    return ClauseMatrix(NormalForm.CNF, tuple(clauses), formula_ring(phi), raw)


# -- evaluation ----------------------------------------------------------------


def _atom_holds(a: Atom, point) -> bool:
    v = a.term.evaluate(point)
    if a.rel is Rel.EQ0:
        return not v
    if a.rel is Rel.NEQ0:
        return bool(v)
    if isinstance(v, GaussianRational):
        if v.im != 0:
            raise OrderOnComplexError(f"order atom evaluated at non-real value {v}")
        v = v.re
    return v > 0


def eval_formula(phi: Formula, point) -> bool:
    """Exact truth value at a point mapping free variable names to scalars."""
    if isinstance(phi, TrueConst):
        return True
    if isinstance(phi, FalseConst):
        return False
    if isinstance(phi, Atom):
        return _atom_holds(phi, point)
    if isinstance(phi, Not):
        return not eval_formula(phi.child, point)
    if isinstance(phi, And):
        return all(eval_formula(c, point) for c in phi.children)
    if isinstance(phi, Or):
        return any(eval_formula(c, point) for c in phi.children)
    raise TypeError(f"not a formula: {phi!r}")


# -- seeded random formulas ------------------------------------------------------


@dataclass
class RandomFormulaParams:
    n_vars: int = 3
    clauses: int = 3
    max_e: int = 2
    max_f: int = 2
    field: Field = Field.R
    coeff_bound: int = 32
    kind: NormalForm = NormalForm.DNF
    ineq: Rel = Rel.NEQ0
    max_monomials: int = 2
    max_degree: int = 2


def _random_term(rng: random.Random, ring: PolyRing, names, p: RandomFormulaParams) -> MultiPoly:
    n_mono = 1 if p.max_monomials <= 1 or rng.random() < 0.7 else 2
    out = ring.zero
    used = set()
    for j in range(n_mono):
        for _ in range(20):
            coeff = rng.randint(1, p.coeff_bound) * rng.choice((1, -1))
            deg = rng.randint(0 if j > 0 else 1, p.max_degree)
            mono = ring.one
            picked = []
            for _ in range(deg):
                picked.append(rng.choice(names))
            for nm in picked:
                mono = mono * ring.var(nm)
            key = tuple(sorted(picked))
            if key not in used:
                used.add(key)
                out = out + coeff * mono
                break
    return out


def random_formula(seed: int, params: RandomFormulaParams) -> Formula:
    """Deterministic pseudo-random clause matrix realized as a formula.

    Clause i carries e_i equations and f_i inequality literals (relation per
    params.ineq), each a sparse nonconstant term; terms within a clause are
    distinct and non-complementary so normalization keeps the clause counts.
    """
    rng = random.Random(seed)
    ring = PolyRing(params.field)
    names = [f"x{k+1}" for k in range(params.n_vars)]
    for nm in names:
        ring.var(nm)
    clauses = []
    for _ in range(params.clauses):
        e_i = rng.randint(0, params.max_e)
        f_i = rng.randint(0, params.max_f)
        if e_i + f_i == 0:
            e_i = 1
        atoms = []
        taken = set()
        for rel, count in ((Rel.EQ0, e_i), (params.ineq, f_i)):
            for _ in range(count):
                for _ in range(30):
                    t = _random_term(rng, ring, names, params)
                    k = t.key()
                    nk = (-t).key()
                    if k not in taken and nk not in taken:
                        taken.add(k)
                        taken.add(nk)
                        atoms.append(Atom(t, rel))
                        break
        if params.kind is NormalForm.DNF:
            clauses.append(f_and(atoms))
        else:
            clauses.append(f_or(atoms))
    if params.kind is NormalForm.DNF:
        return f_or(clauses) if clauses else FALSE
    return f_and(clauses) if clauses else TRUE
