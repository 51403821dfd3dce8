"""Exact Hilbert and Funk metrics on polyhedral domains.

The library computes Hilbert's projective metric and its asymmetric Funk
halves on open polyhedral cones with exact rational arithmetic, realises
the Busemann points of the horofunction boundary together with the detour
metric and the part decomposition in closed form, and implements the
isometry group of the simplex geometry in its variation-norm model.

`import hilbertgeom` loads no submodule.  The first access of a public
name imports them all and binds the whole API in the package (PEP 562).
"""

# Home module -> the public names the package takes from it.
_HOMES = {
    "geometry": (
        "BOUNDARY", "ConstructionError", "DomainError", "EXTERIOR", "Face", "HilbertGeometryError",
        "HPolytope", "INTERIOR", "LinearFunctional", "ParseError", "PointLocation", "PolyCone",
        "classify_point", "cone_from_polytope", "cone_subset", "face_contains",
        "face_lattice_active_sets", "face_of", "format_rational", "interior_point", "lift_to_cone",
        "parse_point", "parse_rational",
    ),
    "horoboundary": (
        "BusemannPoint", "FACET_PART", "OTHER_PART", "PartId", "VERTEX_PART", "busemann_eval",
        "busemann_from_line", "busemann_point", "classify_part", "detour_cost",
        "detour_decomposition", "detour_metric", "enumerate_parts", "horolimit_residual",
        "part_dimension", "part_of",
    ),
    "linalg": ("Vector", "vector"),
    "metrics": (
        "LogValue", "almost_geodesic_check", "face_hilbert", "face_m_ratio", "funk",
        "gromov_product", "hilbert_cone", "hilbert_cross_ratio", "j_eval", "m_ratio", "reverse_funk",
    ),
    "simplex": (
        "CollinearityWitness", "LinearMap", "SimplexIsometry", "VClass", "apply_isometry",
        "collineation_witness_failure", "compose", "exp_chart", "exp_chart_float",
        "identity_isometry", "inverse", "is_metric_preserving", "log_chart",
        "permutation_group_elements", "permutation_group_order", "point_group_elements",
        "positive_orthant", "reciprocal_map", "simplex_collineation", "var_ball_vertices",
        "var_dist", "var_norm", "vclass",
    ),
    "tangent": (
        "TangentFamilyEntry", "canonical_index_set", "hilbert_dimension", "subcone", "tangent_cone",
        "tangent_family",
    ),
}

# The submodules are attributes of the package, not names it exports.
__all__ = sorted(name for names in _HOMES.values() for name in names)


def __getattr__(name: str):
    from importlib import import_module

    if name in _HOMES:
        return import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The whole API at once: a later first access could otherwise bind a
    # wrapper that a tracer put on the home module, and keep it afterwards.
    namespace = globals()
    for module, names in _HOMES.items():
        home = import_module(f"{__name__}.{module}")
        namespace.update((public, getattr(home, public)) for public in names)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
