"""Boolean formulas over polynomial constraints, and their normal forms.

Syntax (whitespace-insensitive), by binding power, loosest first:

    "\\/" or "or"        connective, folds left
    "/\\" or "and"       connective, folds left
    "~" or "not"        prefix; its operand is a relation, "true", "false",
                        "~" or a parenthesis
    = != > >= < <=      relation between two terms, not chained
    + -                 infix, folds left
    *                   infix, folds left
    -                   prefix sign
    ^                   infix; takes a nonnegative integer, folds left

A term is built from identifiers, integer or rational literals (e.g. 3/2)
and the operators from "+" up; only a term may stand where a relation, an
arithmetic operator or a sign reads its operand. A parenthesis holds a
formula or a term, whichever its contents turn out to be, and is read once.

Every relation is normalized to a constraint against zero: p REL q becomes
(p - q) REL 0, and the order sugar resolves at parse time (t >= 0 becomes
t > 0 \\/ t = 0, t < 0 becomes -t > 0, t <= 0 becomes -t > 0 \\/ t = 0).
Negation is resolved as a formula is read, so no formula holds a negation
node: each literal is negated once, by the parity of the "~"s around it.
Under an odd number, "/\\" builds an Or, "\\/" an And, true and false swap,
t = 0 and t != 0 swap, and t > 0 becomes -t > 0 \\/ t = 0; under an even
number nothing changes, so double negations cancel. f_not pushes a negation
through a built formula by the same rule.

Order relations are rejected over the complex field. Over C the identifier
"i" denotes the imaginary unit. A product chain or power charges one
TermBudget per product as it multiplies, a power each product of the
repeated squaring that computes it, and is refused with SizeLimitError
before the product that would pass MAX_TERM_PRODUCTS term products; so is
a power whose exponent times a coefficient's bit length passes
MAX_POWER_BITS, and nesting deeper than MAX_NESTING_DEPTH parentheses,
negations and signs.
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
    """The complement of phi, pushed onto its literals: each connective
    becomes its dual, each constant the other and each literal its
    negation, t = 0 and t != 0 swapping and t > 0 becoming -t > 0 \\/ t = 0,
    so the result holds no negation node."""
    if isinstance(phi, Atom):
        if phi.rel is Rel.GT0:
            return f_or([make_atom(-phi.term, Rel.GT0), make_atom(phi.term, Rel.EQ0)])
        return make_atom(phi.term, Rel.NEQ0 if phi.rel is Rel.EQ0 else Rel.EQ0)
    if isinstance(phi, And):
        return f_or([f_not(c) for c in phi.children])
    if isinstance(phi, Or):
        return f_and([f_not(c) for c in phi.children])
    if isinstance(phi, TrueConst):
        return FALSE
    if isinstance(phi, FalseConst):
        return TRUE
    raise TypeError(f"not a formula: {phi!r}")


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
    if isinstance(phi, (And, Or)):
        for c in phi.children:
            r = formula_ring(c)
            if r is not None:
                return r
    return None


# -- tokenizer / parser -----------------------------------------------------

_IDENT_RE = _re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# one alternative per token kind, each two-character operator before its
# one-character prefix; a keyword matches as IDENT and takes its own kind,
# and no other token's text is a keyword
_TOKEN_RE = _re.compile(
    r"(?P<SPACE>\s+)|(?P<AND>/\\)|(?P<OR>\\/)|(?P<NEQ>!=)|(?P<GEQ>>=)|(?P<LEQ><=)"
    rf"|(?P<NUM>\d+)|(?P<IDENT>{_IDENT_RE.pattern})|(?P<LPAREN>\()|(?P<RPAREN>\))"
    r"|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)|(?P<CARET>\^)|(?P<EQ>=)|(?P<GT>>)"
    r"|(?P<LT><)|(?P<NOT>~)|(?P<SLASH>/)|(?P<BAD>.)"
)
_KEYWORDS = {"and": "AND", "or": "OR", "not": "NOT", "true": "TRUE", "false": "FALSE"}

# binding powers, loosest first; "~" reads its operand at _NOT and a sign at
# _SIGN. A connective folds a formula, every other operator a term, and
# from _REL up only a term may start
_OR, _AND, _NOT, _REL, _ADD, _MUL, _SIGN, _POW = range(1, 9)
_BINDING = {
    "OR": _OR, "AND": _AND, "EQ": _REL, "NEQ": _REL, "GT": _REL, "GEQ": _REL, "LT": _REL,
    "LEQ": _REL, "PLUS": _ADD, "MINUS": _ADD, "STAR": _MUL, "CARET": _POW,
}


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
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "BAD":
            raise FormulaSyntaxError(m.start(), "a token", repr(word))
        if kind != "SPACE":
            toks.append(_Tok(_KEYWORDS.get(word, kind), word, m.start()))
    toks.append(_Tok("EOF", "", len(text)))
    return toks


class _Parser:
    """Operator precedence over _BINDING: each token is read once, and a
    parenthesis is a formula or a term by what it turns out to hold."""

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

    def nested(self, parse: Callable, *args):
        """Skip the opening token, then parse(*args) one level deeper."""
        t = self.advance()
        if self.depth >= MAX_NESTING_DEPTH:
            raise SizeLimitError(
                f"nesting deeper than {MAX_NESTING_DEPTH} levels at position {t.pos}"
            )
        self.depth += 1
        try:
            return parse(*args)
        finally:
            self.depth -= 1

    # positive is False under an odd number of negations, which swaps the
    # connectives and constants and negates each relation

    def formula(self, node: Formula | MultiPoly) -> Formula:
        """node, if a formula; a term is refused at the token that ends it."""
        if not isinstance(node, Formula):
            t = self.peek()
            raise FormulaSyntaxError(t.pos, "a relation (=, !=, >, >=, <, <=)", t.text or "end of input")
        return node

    def expr(self, rbp: int, positive: bool = True) -> Formula | MultiPoly:
        """The formula or term from here up to the first operator that binds
        no tighter than rbp or does not take what is on its left. One
        product chain shares the budget named at its first "*"."""
        left = self.prefix(rbp, positive)
        budget = None
        while True:
            t = self.peek()
            bp = _BINDING.get(t.kind, 0)
            if bp <= rbp or (bp <= _AND) != isinstance(left, Formula):
                return left
            self.advance()
            if bp <= _AND:
                right = self.formula(self.expr(bp, positive))
                left = (f_and if (bp == _AND) == positive else f_or)([left, right])
            elif bp == _REL:
                left = self.relation(t, left, self.expr(_REL), positive)
            elif bp == _ADD:
                right = self.expr(_ADD)
                left = left + right if t.kind == "PLUS" else left - right
            elif bp == _MUL:
                budget = budget or TermBudget(f"the product at position {t.pos}")
                left = budget.times(left, self.expr(_MUL))
            else:
                e = int(self.expect("NUM", "a nonnegative integer exponent").text)
                left = power(left, e, TermBudget(f"the power at position {t.pos}").times)

    def prefix(self, rbp: int, positive: bool) -> Formula | MultiPoly:
        t = self.peek()
        if t.kind == "NUM":
            self.advance()
            if self.peek().kind != "SLASH":
                return self.ring.const(int(t.text))
            self.advance()
            den = self.expect("NUM", "a denominator")
            return self.ring.const(Fraction(int(t.text), int(den.text)))
        if t.kind == "IDENT":
            self.advance()
            if t.text == "i" and self.ring.field is Field.C:
                return self.ring.const(IMAG_UNIT)
            return self.ring.var(t.text)
        if t.kind == "MINUS":
            return -self.nested(self.expr, _SIGN)
        if t.kind == "LPAREN":
            node = self.nested(self.expr, _REL if rbp >= _REL else 0, positive)
            self.expect("RPAREN", "')'")
            return node
        if rbp < _REL and t.kind in ("TRUE", "FALSE"):
            self.advance()
            return TRUE if (t.kind == "TRUE") == positive else FALSE
        if rbp < _REL and t.kind == "NOT":
            return self.formula(self.nested(self.expr, _NOT, not positive))
        raise FormulaSyntaxError(t.pos, "a variable, number, or '('", t.text or "end of input")

    def relation(self, t: _Tok, left: MultiPoly, right: MultiPoly, positive: bool) -> Formula:
        """left REL right against zero, negated under negative polarity."""
        rel = t.kind
        if rel in ("GT", "GEQ", "LT", "LEQ") and self.ring.field is Field.C:
            raise OrderInComplexError(f"order relation at position {t.pos} over C")
        diff = left - right if rel not in ("LT", "LEQ") else -(left - right)
        node = make_atom(diff, {"EQ": Rel.EQ0, "NEQ": Rel.NEQ0}.get(rel, Rel.GT0))
        if rel in ("GEQ", "LEQ"):
            node = f_or([node, make_atom(diff, Rel.EQ0)])
        return node if positive else f_not(node)


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
    p = _Parser(toks, ring)
    node = p.formula(p.expr(0))
    p.expect("EOF", "end of input or a connective")
    return node


def parse_term(text: str, ring: PolyRing) -> MultiPoly:
    p = _Parser(_tokenize(text), ring)
    node = p.expr(_REL)
    p.expect("EOF", "end of input")
    return node


# -- rendering ---------------------------------------------------------------


def render_formula(phi: Formula) -> str:
    if phi is TRUE or isinstance(phi, TrueConst):
        return "true"
    if phi is FALSE or isinstance(phi, FalseConst):
        return "false"
    if isinstance(phi, Atom):
        return f"{phi.term.render()} {phi.rel.value} 0"
    if isinstance(phi, And):
        parts = [
            f"({render_formula(c)})" if isinstance(c, Or) else render_formula(c)
            for c in phi.children
        ]
        return " /\\ ".join(parts)
    if isinstance(phi, Or):
        return " \\/ ".join(render_formula(c) for c in phi.children)
    raise TypeError(f"not a formula: {phi!r}")


# -- order rewrite -------------------------------------------------------------


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

    return walk(phi)


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
    """Clauses of phi; returns (clauses, raw_count), the raw
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
        raise TypeError(f"not a formula: {node!r}")

    clauses, raw = walk(phi)
    deduped = {}
    for cl in clauses:
        deduped.setdefault(frozenset(cl), cl)
    return [tuple(cl.values()) for cl in deduped.values()], raw


def to_dnf(phi: Formula, limit: int = DEFAULT_CLAUSE_LIMIT) -> ClauseMatrix:
    clauses, raw = _distribute(phi, NormalForm.DNF, limit)
    return ClauseMatrix(NormalForm.DNF, tuple(clauses), formula_ring(phi), raw)


def to_cnf(phi: Formula, limit: int = DEFAULT_CLAUSE_LIMIT) -> ClauseMatrix:
    clauses, raw = _distribute(phi, NormalForm.CNF, limit)
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
