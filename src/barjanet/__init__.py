"""Bar codes for finite monomial sets.

Build the bar code of a set of terms, read Janet multiplicative variables
and Janet-like nonmultiplicative powers off it, test and perform
completeness, describe cones by corner vectors, and compute reduced
Janet-like bases of vanishing ideals of rational points by exact
evaluation-matrix interpolation.
"""

from .barcode import (
    BarCode,
    EList,
    StarPlacement,
    barcode_from_json,
    canonical_labels,
    decode,
    e_list,
    is_admissible,
    render_ascii,
    star_positions,
    star_set,
    star_set_bruteforce,
    to_json_dict,
)
from .corners import INF, CornerVector, infinite_corners
from .errors import (
    AdmissibilityError,
    BarjanetError,
    CompletionBoundError,
    DimensionError,
    EmptyInputError,
    InputError,
    InternalInvariantError,
    MembershipError,
    SingularMatrixError,
    TermSyntaxError,
)
from .janet import (
    CompletionReport,
    JanetAnnotation,
    Witness,
    complete,
    divisors_for_nm_product,
    is_complete,
    is_multiplier,
    janet_divisor,
    janet_implies_janet_like,
    janet_like_divisors,
    multiplicative_variables,
    multiplicative_variables_from_stars,
    nmp_table,
    nmp_table_bruteforce,
)
from .points import (
    PointSet,
    Polynomial,
    RationalMatrix,
    evaluation_matrix,
    format_polynomial,
    groebner_escalier,
    janet_like_basis,
    monomial_generators,
    normal_form,
    parse_points,
    parse_rational,
)
from .terms import (
    MAX_EXPONENT,
    MAX_VARS,
    Term,
    TermSet,
    box_terms,
    format_term,
    lex_compare,
    parse_term,
    parse_term_set,
)

__version__ = "0.1.0"
