"""Compile Boolean combinations of polynomial constraints into a single
quantified equation over C, R, or Q, with exact deciders and witnesses."""

from .decide import (
    DECIDER_FOR_SHAPE,
    SamplePlan,
    Verdict,
    VerdictKind,
    check_witness,
    decider_for_shape,
    equivalence_run,
    refute_ae,
)
from .elim import (
    SHAPE_SPECS,
    DegreeReport,
    QuantifiedEquation,
    Shape,
    ShapeSpec,
    SqrtValue,
    build_for_shape,
    degree_report,
    extract_witness,
    from_json,
    lagrange_selector,
    to_json,
    to_latex,
    witness_recipe,
)
from .errors import (
    BoolElimError,
    FieldMismatchError,
    FormulaSyntaxError,
    MissingAssignmentError,
    NoWitnessError,
    NotPositiveError,
    OrderInComplexError,
    OrderOnComplexError,
    ShapeUnsupportedError,
    SizeLimitError,
    UnexpectedVariablesError,
    VariableCollisionError,
    WrongKindError,
    ZeroPolynomialError,
)
from .exactnum import (
    GaussianRational,
    IMAG_UNIT,
    ThreeSquares,
    is_sum_three_squares,
    positivity_witness_q,
    three_squares_pair,
)
from .formula import (
    Atom,
    ClauseMatrix,
    Formula,
    NormalForm,
    RandomFormulaParams,
    Rel,
    eval_formula,
    parse,
    parse_term,
    random_formula,
    render_formula,
    rewrite_neq_to_orders,
    to_cnf,
    to_dnf,
)
from .poly import (
    Field,
    MultiPoly,
    PolyRing,
    UniView,
    as_univariate,
    count_real_roots,
    gcd_univariate,
    render_poly,
    render_poly_latex,
    squarefree_part,
    sturm_chain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
