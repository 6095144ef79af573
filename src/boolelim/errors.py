"""Exception types shared across the package.

Stdlib exceptions are reused where they fit (ZeroDivisionError for scalar
division, IndexError for out-of-range selector indices); everything else
gets a class here so the CLI can map failures to exit codes.
"""

from __future__ import annotations


class BoolElimError(Exception):
    pass


class NotPositiveError(BoolElimError):
    """A positivity witness was requested for a non-positive rational."""


class FieldMismatchError(BoolElimError):
    """Mixed scalars or polynomials from different coefficient fields or rings."""


class ZeroPolynomialError(BoolElimError):
    """Operation undefined on the zero polynomial (e.g. squarefree part)."""


class FormulaSyntaxError(BoolElimError):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected {expected}, found {found}"
        )


class OrderInComplexError(BoolElimError):
    """Order relation (>, >=, <, <=) in a formula over the complex field."""


class OrderOnComplexError(BoolElimError):
    """Order atom evaluated at a point with a non-real coordinate."""


class SizeLimitError(BoolElimError):
    """A size budget was exceeded: the clause budget of normal-form
    distribution, the term budget of a parsed product or power or of an
    equation's expansion, the parser's nesting depth, or the degree limit of
    a univariate view."""


class WrongKindError(BoolElimError):
    """Construction fed a clause matrix of the wrong normal form."""


class OrderLiteralError(BoolElimError):
    """Construction cannot encode order literals (t > 0)."""


class NeqLiteralError(BoolElimError):
    """Construction requires inequations to be rewritten as order literals first."""


class VariableCollisionError(BoolElimError):
    """A free variable clashes with a quantifier name the construction needs."""


class UnexpectedVariablesError(BoolElimError):
    """Equation still contains free variables the point did not cover."""


class ShapeUnsupportedError(BoolElimError):
    """Decider requires a construction-shaped equation and did not get one."""


class NoWitnessError(BoolElimError):
    """Witness extraction at a point where the formula is false."""


class MissingAssignmentError(BoolElimError):
    """check_witness called without values for every quantified variable."""
