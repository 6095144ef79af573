"""Seeded input generation for the benchmark.

Everything here is plain Python over `fractions.Fraction` and shares no code
with boolelim: polynomials are dicts from monomials to coefficients, the
expected answers are computed by this module's own exact evaluator (or are
known by construction), and the program only ever receives formula text and
points. The same seed always yields byte-identical inputs (see `fingerprint`).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

# shape -> (field letter, matrix kind, inequality literal, CLI form)
SHAPES = {
    "EA_C": ("c", "DNF", "!=", "ea"),
    "AE_C": ("c", "CNF", "!=", "ae"),
    "E_R": ("r", "DNF", "!=", "e"),
    "Ed_R": ("r", "CNF", ">", "ed"),
    "AE_R": ("r", "CNF", ">", "ae"),
    "E3d_Q": ("q", "CNF", ">", "e3d"),
    "AE3_Q": ("q", "CNF", ">", "ae3"),
}
FORALL_SHAPES = ("AE_C", "AE_R", "AE3_Q")
NAMES = ("x1", "x2", "x3")


class Gauss:
    """re + im*i over Fraction; only what evaluation and rendering need."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, Gauss) else Gauss(x)

    def __add__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, o):
        return self + (-Gauss.of(o))

    def __mul__(self, o):
        o = Gauss.of(o)
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __pow__(self, e):
        out = Gauss(1)
        for _ in range(e):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def text(self) -> str:
        """Point syntax of the command line: 1/2, 3i, 1/2-3/4i."""
        if not self.im:
            return str(self.re)
        im = f"{self.im}i"
        if not self.re:
            return im
        return f"{self.re}{'' if self.im < 0 else '+'}{im}"


# -- polynomials: {((var, exp), ...): coeff} ---------------------------------


COEFF_BOUND = 9
MAX_DEG = 2


def rand_poly(rng: random.Random, names, max_mono=2, shapes=None) -> dict:
    """Sparse polynomial without constant term: 1..max_mono monomials of
    degree 1..MAX_DEG with integer coefficients in +-[1, COEFF_BOUND]. The
    monomials come from `shapes` when given, the coefficients from `rng`."""
    shapes = shapes or rng
    poly: dict = {}
    for _ in range(shapes.randint(1, max_mono)):
        exps: dict = {}
        for _ in range(shapes.randint(1, MAX_DEG)):
            v = shapes.choice(names)
            exps[v] = exps.get(v, 0) + 1
        mono = tuple(sorted(exps.items()))
        c = rng.randint(1, COEFF_BOUND) * rng.choice((1, -1))
        poly[mono] = poly.get(mono, 0) + c
    return {m: Fraction(c) for m, c in poly.items() if c}


def evaluate(poly: dict, point: dict):
    total = Fraction(0)
    for mono, c in poly.items():
        acc = c
        for v, e in mono:
            acc = acc * point[v] ** e
        total = acc + total
    return total


def with_constant(poly: dict, c) -> dict:
    out = dict(poly)
    out[()] = out.get((), 0) + c
    if not out[()]:
        del out[()]
    return out


def _coeff_text(c) -> str:
    if isinstance(c, Gauss):
        return f"(({c.re}) + ({c.im})*i)"
    return f"({c})"


def render(poly: dict) -> str:
    parts = []
    for mono, c in sorted(poly.items()):
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
        parts.append(f"{_coeff_text(c)}*{body}" if body else _coeff_text(c))
    return " + ".join(parts) if parts else "0"


def planted_term(rng, names, point, value) -> dict:
    """A random polynomial shifted so that its exact value at `point` is `value`."""
    p = rand_poly(rng, names)
    return with_constant(p, value - evaluate(p, point))


# -- literals and clause matrices ---------------------------------------------


def holds(rel: str, v) -> bool:
    if rel == "=":
        return not v
    if rel == "!=":
        return bool(v)
    if rel == ">":
        return v > 0
    if rel == ">=":
        return v >= 0
    if rel == "<":
        return v < 0
    if rel == "<=":
        return v <= 0
    raise ValueError(rel)


def small_rational(rng, num=32, den=8) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _nonzero(rng) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))


def literal_value(rng, rel: str, want: bool) -> Fraction:
    """A value at which `t rel 0` has truth `want`."""
    if rel == "=":
        return Fraction(0) if want else _nonzero(rng)
    if rel == "!=":
        return _nonzero(rng) if want else Fraction(0)
    pos = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return pos if want else -pos + (rng.random() < 0.25) * pos


# (equations, inequations) per clause for decide_small and witness, taken in
# turn rather than drawn, so every seed has the same mix of clause sizes and
# only terms and points vary: one decision's cost spans 10x across them
PATTERNS = ((1, 1), (0, 1), (2, 1), (1, 0), (1, 2), (0, 2), (2, 0), (2, 2))


def pattern_counts(j: int, d: int):
    return [PATTERNS[(j * d + i) % len(PATTERNS)] for i in range(d)]


def matrix_text(kind: str, clauses) -> str:
    """clauses: lists of (term text, rel)."""
    inner, outer = (" /\\ ", " \\/ ") if kind == "DNF" else (" \\/ ", " /\\ ")
    return outer.join("(" + inner.join(f"{t} {rel} 0" for t, rel in cl) + ")" for cl in clauses)


def point_of(rng, field: str, num=32, den=8) -> dict:
    if field == "c":
        return {n: Gauss(small_rational(rng, num, den), small_rational(rng, num, den)) for n in NAMES}
    return {n: small_rational(rng, num, den) for n in NAMES}


def planted_matrix(rng, shape: str, d: int, want: bool, point: dict, counts, ineq_values=None):
    """Literal (relation, value) rows whose matrix truth is `want`.

    The value of every literal at the point is chosen first, so the truth of
    the matrix follows from those values alone. With `ineq_values` (rational
    witness shapes, `want` true) each clause is carried by exactly one order
    literal holding the given value and every other literal is false, so the
    witness must use the planted value. `counts` gives each clause's
    (equations, inequalities)."""
    _, kind, ineq, _ = SHAPES[shape]
    carrier = rng.randrange(d)
    rows = []
    for i in range(d):
        e, f = counts[i]
        if ineq_values is not None:
            f = max(f, 1)
        rels = ["="] * e + [ineq] * f
        rng.shuffle(rels)
        n = len(rels)
        truths = [rng.random() < 0.5 for _ in rels]
        if kind == "DNF":
            # a conjunctive clause: true iff every literal is
            if want and i == carrier:
                truths = [True] * n
            elif not want:
                truths[rng.randrange(n)] = False
        elif ineq_values is not None:
            truths = [False] * n
        elif want or i != carrier:
            truths[rng.randrange(n)] = True
        else:
            truths = [False] * n
        row = [(rel, literal_value(rng, rel, t)) for rel, t in zip(rels, truths)]
        if ineq_values is not None:
            row[rels.index(ineq)] = (ineq, ineq_values[i])
        rows.append(row)
    return rows


def matrix_truth(kind: str, clauses) -> bool:
    inner = all if kind == "DNF" else any
    outer = any if kind == "DNF" else all
    return outer(inner(holds(rel, v) for rel, v in cl) for cl in clauses)


def realize(rng, clauses, point, field: str) -> list:
    """Term texts for literal values: [[(text, rel), ...], ...]."""
    out = []
    for cl in clauses:
        row = []
        for rel, v in cl:
            value = Gauss(v) if field == "c" else v
            row.append((render(planted_term(rng, NAMES, point, value)), rel))
        out.append(row)
    return out


@dataclass
class DecideCase:
    """One decision: formula text under a shape, a point, and its verdict."""

    shape: str
    d: int
    formula: str
    point: dict  # name -> [re, im] as fraction strings
    expected: bool


def _point_text(point: dict) -> dict:
    """name -> [re, im] as fraction strings."""
    return {n: [str(Gauss.of(v).re), str(Gauss.of(v).im)] for n, v in point.items()}


def cli_point(point: dict) -> str:
    """The --point argument for a stored point."""
    return ",".join(f"{n}={Gauss(re, im).text()}" for n, (re, im) in point.items())


def decide_small(seed: int, per_cell: int = 15) -> list[DecideCase]:
    """All seven shapes x d in 1..4, `per_cell` planted instances each, about
    half of them true; returned interleaved so every prefix is balanced."""
    rng = random.Random(f"decide_small:{seed}")
    cells = [(s, d) for s in SHAPES for d in range(1, 5)]
    out = []
    for j in range(per_cell):
        for shape, d in cells:
            field, kind = SHAPES[shape][:2]
            point = point_of(rng, field)
            want = rng.random() < 0.5
            clauses = planted_matrix(rng, shape, d, want, point, pattern_counts(j, d))
            assert matrix_truth(kind, clauses) == want
            text = matrix_text(kind, realize(rng, clauses, point, field))
            out.append(DecideCase(shape, d, text, _point_text(point), want))
    return out


# -- decide_wide: generic deciders at wide random points ------------------------

WIDE_SHAPES = ("EA_C", "AE_C", "E_R")
WIDE_BITS = 64


def wide_rational(rng) -> Fraction:
    """Numerator and denominator uniform below 2^WIDE_BITS, the sign random."""
    top = 2 ** WIDE_BITS
    return Fraction(rng.randrange(-top + 1, top), rng.randrange(1, top))


def decide_wide(seed: int, rounds: int = 30) -> list[DecideCase]:
    """EA_C, AE_C and E_R at d = 2, 3, 3 in each of `rounds` rounds, at points
    whose coordinates (both parts for the Gaussian shapes) have numerators
    and denominators uniform below 2^WIDE_BITS. Terms are random
    polynomials as in decide_small with no planted constant; the verdict
    comes from this module's own evaluator. A shape's 2 + 3 + 3 clauses in
    a round take each PATTERNS entry once, so every whole number of rounds
    has the same mix of clause sizes. Monomials and the dealing of patterns
    come from one fixed generator, so every seed has the same term shapes;
    the seed draws coefficients and points. d = 3 comes twice a round so
    that the median op lies inside the d = 3 ops of EA_C and E_R, which cost
    about the same, rather than in the gap between the d = 2 and d = 3 ops."""
    rng = random.Random(f"decide_wide:{seed}")
    shapes = random.Random("decide_wide:shapes")
    out = []
    for _ in range(rounds):
        for shape in WIDE_SHAPES:
            field, kind, ineq, _ = SHAPES[shape]
            counts = shapes.sample(PATTERNS, len(PATTERNS))
            for d in (2, 3, 3):
                if field == "c":
                    point = {n: Gauss(wide_rational(rng), wide_rational(rng)) for n in NAMES}
                else:
                    point = {n: wide_rational(rng) for n in NAMES}
                terms = [[(rand_poly(rng, NAMES, shapes=shapes), rel)
                          for rel in ["="] * e + [ineq] * f]
                         for e, f in counts[:d]]
                del counts[:d]
                values = [[(rel, evaluate(t, point)) for t, rel in cl] for cl in terms]
                text = matrix_text(kind, [[(render(t), rel) for t, rel in cl] for cl in terms])
                out.append(DecideCase(shape, d, text, _point_text(point), matrix_truth(kind, values)))
    return out


# -- witness: planted true instances --------------------------------------------


@dataclass
class WitnessCase:
    shape: str
    d: int
    formula: str
    point: dict
    forall_value: str | None  # None for exists-first shapes


def witness(seed: int, per_shape: int = 32, lo_bits: int = 20, hi_bits: int = 36) -> list[WitnessCase]:
    """Planted true instances, `per_shape` for each of the seven shapes.

    Round k uses d = 1 + (k // 4) mod 4 and, for the forall-first shapes, the
    forall value (1, d, 7/2, -1)[k mod 4], so every 16 rounds hold each
    pairing once. In the two rational shapes every clause is carried by an order
    literal of value u = 1/(2n), so the witness decomposes n = num*den of
    1/(2u). The searched n form one fixed grid, log-uniform over
    [2^lo_bits, 2^hi_bits], dealt out in one fixed shuffled order: the
    brute-force search's cost jumps erratically between neighbouring n, so
    every seed searches the same n in the same instances and the seed varies
    the formulas and points around them."""
    rng = random.Random(f"witness:{seed}")
    searches = 0
    for k in range(per_shape):
        d = 1 + (k // 4) % 4
        searches += d + (k % 4 < 2)  # E3d_Q: every clause; AE3_Q: node values only
    grid = [_three_squares_target(lo_bits + (hi_bits - lo_bits) * (i + 0.5) / searches)
            for i in range(searches)]
    random.Random(0).shuffle(grid)
    out = []
    for k in range(per_shape):
        d = 1 + (k // 4) % 4
        for shape in SHAPES:
            field, kind = SHAPES[shape][:2]
            point = point_of(rng, field, num=9, den=9)
            fv = None
            if shape in FORALL_SHAPES:
                fv = ("1", str(d), "7/2", "-1")[k % 4]
            ineq_values = None
            if field == "q":
                # only node values of the forall variable search, in one clause
                searched = range(d) if fv is None else ([int(fv) - 1] if k % 4 < 2 else [])
                ns = [grid.pop() if i in searched else rng.randint(2, 2 ** lo_bits) for i in range(d)]
                ineq_values = [Fraction(1, 2 * n) for n in ns]
            clauses = planted_matrix(rng, shape, d, True, point, pattern_counts(k, d), ineq_values)
            assert matrix_truth(kind, clauses)
            text = matrix_text(kind, realize(rng, clauses, point, field))
            out.append(WitnessCase(shape, d, text, _point_text(point), fv))
    assert not grid
    return out


def _three_squares_target(bits: float) -> int:
    """An odd n near 2^bits."""
    return int(2 ** bits) | 1


def fingerprint(cases) -> bytes:
    """Canonical bytes of a generated corpus, for the determinism check."""
    return json.dumps([asdict(c) for c in cases], sort_keys=True).encode()


# -- compile_json: random Boolean trees with three planted points ---------------

# each relation's negation
_NEGATE = {"=": "!=", "!=": "=", ">": "<=", "<=": ">", ">=": "<", "<": ">="}
_ORDER_RELS = ("=", "!=", ">", ">=", "<", "<=")
_EQ_RELS = ("=", "!=")


@dataclass
class CompileCase:
    form: str
    field: str
    shape: str
    formula: str
    points: list  # three stored points
    expected: list  # verdict at each point
    d: int  # clauses of the plain distribution, before pruning and dedup


def _solve3(rows, rhs):
    """Cramer's rule for a 3x3 system over Fraction; None when singular."""

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    dm = det(rows)
    if not dm:
        return None
    out = []
    for j in range(3):
        m = [list(r) for r in rows]
        for i in range(3):
            m[i][j] = rhs[i]
        out.append(det(m) / dm)
    return out


def _atom_pool(rng, shapes, points, k):
    """k polynomials c0 + c1*x1 + c2*m with m a monomial drawn from `shapes`,
    the three coefficients solved so that each polynomial takes values drawn
    from `rng` at the three points. Values are drawn again until no
    coefficient is 0, so every atom has three terms whatever the seed."""
    pool = []
    while len(pool) < k:
        mono = next(iter(rand_poly(shapes, NAMES, max_mono=1)))
        if mono == (("x1", 1),):
            continue
        rows = [[Fraction(1), p["x1"], evaluate({mono: Fraction(1)}, p)] for p in points]
        if _solve3(rows, [Fraction(0)] * 3) is None:
            continue
        while True:
            targets = [Fraction(0) if rng.random() < 0.35 else _nonzero(rng) for _ in points]
            c = _solve3(rows, targets)
            if all(c):
                break
        pool.append(({(): c[0], (("x1", 1),): c[1], mono: c[2]}, targets))
    return pool


class _TooBig(Exception):
    """A tree drawn by `_tree` went past its leaf budget."""


def _tree(rng, depth, k, rels, budget):
    """A random tree of at most budget[0] leaves; drawing a leaf past that
    raises _TooBig, which cuts a draw that would be rejected short."""
    if depth == 0 or rng.random() < 0.3:
        budget[0] -= 1
        if budget[0] < 0:
            raise _TooBig
        node = ("lit", rng.randrange(k), rng.choice(rels))
    else:
        op = rng.choice(("and", "or"))
        node = (op, [_tree(rng, depth - 1, k, rels, budget) for _ in range(rng.choice((2, 2, 3)))])
    return ("not", node) if rng.random() < 0.2 else node


def _conjunction_tree(rng, d, k):
    """A tree that normalizes to d one-literal clauses: nested conjunctions
    of =, > and < literals, where a group of equations may be written as
    the negation of a disjunction of inequations."""
    rels = [rng.choice((">", "<")) for _ in range(d // 2)] + ["="] * (d - d // 2)
    rng.shuffle(rels)
    leaves = [("lit", rng.randrange(k), rel) for rel in rels]

    def group(items):
        if len(items) == 1:
            return items[0]
        cut = rng.randrange(1, len(items))
        parts = [group(items[:cut]), group(items[cut:])]
        if all(p[0] == "lit" and p[2] == "=" for p in parts) and rng.random() < 0.7:
            return ("not", ("or", [("lit", p[1], "!=") for p in parts]))
        return ("and", parts)

    return group(leaves)


def _expand(node, positive: bool, order_form: bool):
    """The literal structure boolelim normalizes a tree to, per its documented
    grammar: t >= 0 and t <= 0 parse as a disjunction with an equation, a
    negated t > 0 becomes -t > 0 or t = 0, and order forms rewrite t != 0 as
    t > 0 or -t > 0. Negations end up at the leaves, which are 1-tuples."""
    if node[0] == "not":
        return _expand(node[1], not positive, order_form)
    if node[0] == "lit":
        rel = node[2]
        parsed = ("or", [(">",), ("=",)]) if rel in (">=", "<=") else ((">",) if rel in (">", "<") else (rel,))
        return _expand(parsed, positive, order_form)
    if len(node) == 1:
        kind = node[0] if positive else {"=": "!=", "!=": "=", ">": "or"}[node[0]]
        if kind == "or":
            return ("or", [(">",), ("=",)])
        if kind == "!=" and order_form:
            return ("or", [(">",), (">",)])
        return (kind,)
    op = node[0] if positive else {"and": "or", "or": "and"}[node[0]]
    return (op, [_expand(c, positive, order_form) for c in node[1]])


def _clause_shape(node, kind: str) -> tuple[int, int, int]:
    """(clauses, widest clause, literals in all clauses) of the plain
    distribution, no pruning or dedup."""
    if len(node) == 1:
        return 1, 1, 1
    parts = [_clause_shape(c, kind) for c in node[1]]
    if node[0] == ("or" if kind == "DNF" else "and"):
        return sum(p[0] for p in parts), max(p[1] for p in parts), sum(p[2] for p in parts)
    n = math.prod(p[0] for p in parts)
    return n, sum(p[1] for p in parts), sum(p[2] * n // p[0] for p in parts)


def _tree_truth(node, values) -> bool:
    if node[0] == "not":
        return not _tree_truth(node[1], values)
    if node[0] == "lit":
        return holds(node[2], values[node[1]])
    parts = (_tree_truth(c, values) for c in node[1])
    return all(parts) if node[0] == "and" else any(parts)


def _tree_text(node, terms) -> str:
    if node[0] == "not":
        return f"~({_tree_text(node[1], terms)})"
    if node[0] == "lit":
        return f"{terms[node[1]]} {node[2]} 0"
    sep = " /\\ " if node[0] == "and" else " \\/ "
    return "(" + sep.join(_tree_text(c, terms) for c in node[1]) + ")"


# clause counts of compile_json's plain distribution, taken in turn, and the
# widest clause its non-rational trees may have
D_RANGE = (2, 3)
MAX_WIDTH = 2


def compile_json(seed: int, per_shape: int = 14) -> list[CompileCase]:
    """Random Boolean trees (negation, nested and/or, >=/<= sugar) over a
    pool of 3 reused atoms, for all seven shapes. Round j asks for
    d = D_RANGE[0] + j mod |D_RANGE| clauses from plain distribution and
    keeps the first tree whose clauses hold d + d//2 literals, at most
    MAX_WIDTH per clause; the rational shapes take d one-literal clauses,
    d//2 of them order literals. Three planted points each, verdicts known
    from the atoms' values."""
    rng = random.Random(f"compile_json:{seed}")
    # points, tree shapes, relations and monomials are the same for every
    # seed, which fixes most of each op's cost; the seed draws the atoms'
    # values at the points, hence their coefficients and every verdict
    shapes = random.Random("compile_json:shapes")
    out = []
    for j in range(per_shape):
        # every d in the range in turn, so each whole round has the same mix
        d = D_RANGE[0] + j % (D_RANGE[1] - D_RANGE[0] + 1)
        for shape in SHAPES:
            field, kind, ineq, form = SHAPES[shape]
            order_form = ineq == ">"
            rels = _ORDER_RELS if order_form else _EQ_RELS
            while True:
                # small integer points keep the solved coefficients short
                points = [{n: Fraction(shapes.randint(-4, 4)) for n in NAMES} for _ in range(3)]
                if len({p["x1"] for p in points}) == 3:
                    break
            k = 3
            pool = _atom_pool(rng, shapes, points, k)
            while True:
                # one-literal clauses for the rational shapes: each further
                # literal multiplies their expanded size several times over
                if field == "q":
                    tree = _conjunction_tree(shapes, d, k)
                else:
                    # plain distribution gives each leaf at least one
                    # literal, so a tree with more leaves than the wanted
                    # literals cannot pass
                    try:
                        tree = _tree(shapes, 3, k, rels, [d + d // 2])
                    except _TooBig:
                        continue
                size = _clause_shape(_expand(tree, True, order_form), kind)
                if size == ((d, 1, d) if field == "q" else (d, MAX_WIDTH, d + d // 2)):
                    break
            terms = [render(p) for p, _ in pool]
            expected = [_tree_truth(tree, [t[j] for _, t in pool]) for j in range(3)]
            out.append(CompileCase(form, field, shape, _tree_text(tree, terms),
                                   [_point_text(p) for p in points], expected, d))
    return out
