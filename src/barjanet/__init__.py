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
    canonical_labels,
    decode,
    e_list,
    is_admissible,
    render_ascii,
    star_positions,
    star_set,
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
    Witness,
    complete,
    divisors_for_nm_product,
    is_complete,
    multiplicative_variables_from_stars,
    nmp_table,
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
    format_term,
    lex_compare,
    parse_term,
    parse_term_set,
)

__version__ = "0.1.0"
