"""Secret sharing on algebraic curves over prime fields.

Builds evaluation/share code pairs on elliptic and odd-degree hyperelliptic
curves, decides qualified subsets by three independent oracles, counts
subset sums over the curve's point group exactly, and measures how the
undetermined size range of the access structure collapses as the field
grows.
"""

__version__ = "0.1.0"

from .field import (
    DivisionByZeroError,
    FieldElement,
    FieldMismatchError,
    NoSolutionError,
    PrimeField,
    is_prime,
)
from .curves import (
    AffinePoint,
    BadDegreeError,
    EllipticCurve,
    EvalAtInfinityError,
    HyperellipticCurve,
    INFINITY,
    MonomialBasis,
    PointNotOnCurveError,
    SingularCurveError,
    elliptic_curve,
    enumerate_points,
    eval_basis,
    format_curve_spec,
    group_structure,
    hyperelliptic_curve,
    parse_curve_spec,
    rr_basis,
)
from .groups import (
    AbelianGroup,
    BudgetExceededError,
    Character,
    InstanceTooLargeError,
    InvalidCycleTypeError,
    TrivialCharacterError,
    TrivialGroupError,
    amplitude,
    char_sum,
    cycle_gen_function,
    cycle_type_count,
    cycle_types,
    falling_factorial,
    generalized_binomial,
    li_wan_bound_check,
    li_wan_m,
    log_generalized_binomial,
    parse_group_spec,
    sieve_identity_eval,
    subset_sum_count,
    subset_sum_table,
)
from .scheme import (
    AccessCount,
    DegreeOutOfRangeError,
    DuplicatePointError,
    NotQualifiedError,
    PrivacyVerdict,
    QualifiedVerdict,
    SchemeInstance,
    SecretPositionDegenerateError,
    ShareVector,
    WrongGenusError,
    enumerate_access,
    is_qualified_clx,
    is_qualified_dual,
    is_qualified_kernel,
    privacy_check,
    reconstruct,
    scheme_build,
    share,
)
from .experiments import (
    BoundReport,
    ExperimentConfig,
    HasseReport,
    ProportionEstimate,
    RegimeMismatchError,
    UnsupportedOffsetError,
    bound_regime2,
    bound_theorem3,
    bound_theorem4,
    curve_char_sum,
    exact_proportion_elliptic,
    find_elliptic_curve,
    find_hyperelliptic_curve,
    hasse_checks,
    mc_proportion,
    standard_scheme,
    sweep_csv,
    sweep_rows,
    wilson_interval,
)
