"""Secret sharing on algebraic curves over prime fields.

Builds evaluation/share code pairs on elliptic and odd-degree hyperelliptic
curves, decides qualified subsets by three independent oracles, counts
subset sums over the curve's point group exactly, and measures how the
undetermined size range of the access structure collapses as the field
grows.

The names below are the documented API; everything else is imported from
its submodule (``agss.curves``, ``agss.scheme``, ...).
"""

__version__ = "0.1.0"  # before the submodule imports: agss.experiments reads it

from .field import FieldElement, PrimeField
from .curves import (
    elliptic_curve,
    enumerate_points,
    group_structure,
    hyperelliptic_curve,
    parse_curve_spec,
)
from .groups import AbelianGroup, li_wan_bound_check, subset_sum_count
from .scheme import (
    NotQualifiedError,
    is_qualified_clx,
    is_qualified_dual,
    is_qualified_kernel,
    privacy_check,
    reconstruct,
    scheme_build,
    share,
)
from .experiments import (
    ExperimentConfig,
    exact_proportion_elliptic,
    mc_proportion,
    standard_scheme,
    sweep_csv,
)
