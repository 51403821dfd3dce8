"""Exact Hilbert and Funk metrics on polyhedral domains.

The library computes Hilbert's projective metric and its asymmetric Funk
halves on open polyhedral cones with exact rational arithmetic, realises
the Busemann points of the horofunction boundary together with the detour
metric and the part decomposition in closed form, and implements the
isometry group of the simplex geometry in its variation-norm model.
"""

from .geometry import (
    BOUNDARY,
    ConstructionError,
    DomainError,
    EXTERIOR,
    Face,
    HilbertGeometryError,
    HPolytope,
    INTERIOR,
    LinearFunctional,
    ParseError,
    PointLocation,
    PolyCone,
    classify_point,
    cone_from_polytope,
    cone_subset,
    face_contains,
    face_lattice_active_sets,
    face_of,
    format_rational,
    interior_point,
    lift_to_cone,
    parse_point,
    parse_rational,
)
from .horoboundary import (
    BusemannPoint,
    FACET_PART,
    OTHER_PART,
    PartId,
    VERTEX_PART,
    busemann_eval,
    busemann_from_line,
    busemann_point,
    classify_part,
    detour_cost,
    detour_decomposition,
    detour_metric,
    enumerate_parts,
    horolimit_residual,
    part_dimension,
    part_of,
)
from .linalg import Vector, vector
from .metrics import (
    LogValue,
    almost_geodesic_check,
    face_hilbert,
    face_m_ratio,
    funk,
    gromov_product,
    hilbert_cone,
    hilbert_cross_ratio,
    j_eval,
    m_ratio,
    reverse_funk,
)
from .simplex import (
    CollinearityWitness,
    LinearMap,
    SimplexIsometry,
    VClass,
    apply_isometry,
    collineation_witness_failure,
    compose,
    exp_chart,
    exp_chart_float,
    identity_isometry,
    inverse,
    is_metric_preserving,
    log_chart,
    permutation_group_elements,
    permutation_group_order,
    point_group_elements,
    positive_orthant,
    reciprocal_map,
    simplex_collineation,
    var_ball_vertices,
    var_dist,
    var_norm,
    vclass,
)
from .tangent import (
    TangentFamilyEntry,
    canonical_index_set,
    hilbert_dimension,
    subcone,
    tangent_cone,
    tangent_family,
)

from types import ModuleType as _ModuleType

# The submodules are attributes of the package, not names it exports.
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
