"""Exact toolkit for the majorization preorder on rational vectors.

The package decides majorization and its equivalence, constructs doubly
stochastic witnesses, decomposes doubly stochastic matrices over
permutations, enumerates rearrangement-inequality extremizers, and
decides or samples the isotonicity of linear maps at a point and
globally.  All core logic runs over exact rationals.
"""

from .numerics import (
    DEFAULT_GUARD,
    DimensionMismatch,
    GuardExceeded,
    Mat,
    Perm,
    Rational,
    Vec,
    as_rational,
    enumerate_perms,
)
from .majorization import (
    SortedView,
    Violation,
    desc_prefix_sums,
    equivalent,
    first_violation,
    majorizes,
    permutohedron_vertices,
    sort_desc,
    trace,
)
from .doubly_stochastic import (
    BirkhoffDecomposition,
    DoublyStochastic,
    MajorizationWitness,
    NotMajorized,
    TTransform,
    birkhoff,
    check_ds,
    random_ds,
    witness_ds,
)
from .rearrangement import (
    ExtremizerReport,
    distinct_count,
    extremes,
    extremizer_bound,
    extremizer_sets,
    permuted_dot,
)
from .isotone import (
    AnchorPoint,
    CampaignReport,
    IsotoneVerdict,
    PermScaled,
    StatementCheck,
    TraceMap,
    choose_positive_shift,
    classify_at_point,
    classify_global,
    column_sums_equal,
    is_equiv_preserving_at,
    is_global_isotone_sampled,
    is_isotone_at,
    is_left_isotone_at,
    is_right_isotone_at,
    isotone_point_campaign,
    shift_by_J,
    verify_statements,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
