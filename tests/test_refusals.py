"""Every refusal the rest of the suite does not reach: its exception class and its exact message.

One row per refusal.  Each row names the call that trips it, the
`HilbertGeometryError` subclass it must raise, and the message word for
word, so a rewrite of the code behind a refusal cannot change either.
"""

from fractions import Fraction as F
from functools import cache

import pytest

from hilbertgeom import (
    BusemannPoint,
    CollinearityWitness,
    ConstructionError,
    DomainError,
    Face,
    HilbertGeometryError,
    HPolytope,
    LinearFunctional,
    LinearMap,
    LogValue,
    ParseError,
    PartId,
    PolyCone,
    SimplexIsometry,
    VClass,
    almost_geodesic_check,
    apply_isometry,
    busemann_eval,
    busemann_point,
    canonical_index_set,
    classify_part,
    classify_point,
    collineation_witness_failure,
    compose,
    cone_from_polytope,
    cone_subset,
    detour_cost,
    detour_decomposition,
    detour_metric,
    enumerate_parts,
    exp_chart,
    exp_chart_float,
    face_contains,
    face_hilbert,
    face_lattice_active_sets,
    face_m_ratio,
    face_of,
    format_rational,
    gromov_product,
    hilbert_cone,
    hilbert_cross_ratio,
    hilbert_dimension,
    horolimit_residual,
    identity_isometry,
    interior_point,
    inverse,
    is_metric_preserving,
    j_eval,
    lift_to_cone,
    log_chart,
    m_ratio,
    part_dimension,
    part_of,
    permutation_group_elements,
    permutation_group_order,
    point_group_elements,
    positive_orthant,
    simplex_collineation,
    subcone,
    tangent_cone,
    tangent_family,
    var_ball_vertices,
    var_dist,
    var_norm,
)

from helpers import simplex2, unit_square

CENTRE = lift_to_cone((F(1, 2), F(1, 2)))
EDGE = lift_to_cone((0, F(1, 2)))
EDGE_LOW = lift_to_cone((0, F(1, 4)))
MID = (F(1, 2), F(1, 2))  # the square's centre, before lifting
OUTSIDE = (F(-1, 2), F(-1, 2), -1)  # every facet value negative
HALF_FLOAT = (0.5, 1, 1)
SHORT = (1, 1)


@cache
def square():
    return cone_from_polytope(unit_square())


@cache
def left_edge():
    """The square cone's face x = 0, on which EDGE and EDGE_LOW lie."""
    return Face(square(), classify_point(square(), EDGE).active)


@cache
def triangle():
    return cone_from_polytope(simplex2())


def on_square():
    """A Busemann point on the square's cone: the edge x = 0, its full tangent cone."""
    return busemann_point(square(), EDGE, classify_point(square(), EDGE).active, lift_to_cone((F(1, 3), F(1, 3))), CENTRE)


def busemann_with(**field):
    """`on_square()` rebuilt from its fields, one of them swapped."""
    point = on_square()
    return BusemannPoint(**{**{name: getattr(point, name) for name in BusemannPoint._fields}, **field})


@cache
def witness():
    return collineation_witness_failure(2)


def witness_with(**field):
    """`witness()` rebuilt from its fields, one of them swapped."""
    return CollinearityWitness(**{**{name: getattr(witness(), name) for name in CollinearityWitness._fields}, **field})


def on_triangle():
    base = lift_to_cone((F(1, 4), F(1, 4)))
    return busemann_point(triangle(), EDGE, classify_point(triangle(), EDGE).active, base, base)


def infinite(a, b):
    return LogValue.INFINITY


def zero_distance(a, b):
    return LogValue(1)


def int_from_centre_to_edge(a, b):
    """An int on the direct distance of the path CENTRE, EDGE_LOW, EDGE; every step a LogValue."""
    return 5 if (a, b) == (CENTRE, EDGE) else LogValue(1)


PART = "part has empty index data"
NESTED = "part cone indices must be active on the face"
SIZE = "dimension must be an integer, not {!r}"
BASE = "chart base must be positive and different from 1"
AT_LEAST_ONE = "dimension must be at least 1"
FLOAT = "coordinate 0 is the float 0.5, not an exact rational"
DIM = "polytope dim must be an integer of at least 1, not {!r}"
ZERO3 = VClass([0, 0, 0])
POINT = "point must be a VClass, not {}"
ISOMETRY = "isometry must be a SimplexIsometry, not {}"
INTERIOR = "gauge denominator point must be interior"
RELATIVE = "denominator point is not in the relative interior of the face"
FUNK_SIGN = "Funk metric undefined: gauge argument is not positive"
SHORT_DIM = "point has dimension 2, cone lives in 3"
J_BASE = "normalising gauge M(base/x) is not positive"
OVERFLOW = "coordinate {} overflows the float range, up to 1.7976931348623157e+308"

REFUSALS = [
    # PolyCone: the same checks in the same order, whatever route construction takes.
    ("cone-zero-functional", lambda: PolyCone([(0, 0)]), ConstructionError, "the zero functional is not allowed"),
    ("cone-float", lambda: PolyCone([(0.5, 1)]), ParseError, FLOAT),
    ("cone-zero-before-float", lambda: PolyCone([(0, 0), (0.5, 1)]), ConstructionError, "the zero functional is not allowed"),
    ("cone-float-before-zero", lambda: PolyCone([(0.5, 1), (0, 0)]), ParseError, FLOAT),
    ("cone-no-functional", lambda: PolyCone([]), ConstructionError, "a cone needs at least one facet functional"),
    ("cone-mixed-dimensions", lambda: PolyCone([(1, 0), (1, 0, 0)]), ConstructionError, "facet functionals have mixed dimensions"),
    ("cone-wrong-ambient-dim", lambda: PolyCone([(1, 0)], 3), ConstructionError, "functionals have dimension 2, expected 3"),
    ("cone-empty-interior", lambda: PolyCone([(1, 0), (-1, 0)]), ConstructionError, "cone has empty interior"),
    ("cone-not-iterable", lambda: PolyCone(5), ConstructionError, "facets must be an iterable of facet functionals, not 5"),
    ("cone-subset-ambient", lambda: cone_subset(square(), positive_orthant(2)), DomainError, "cones live in different ambient spaces"),
    # HPolytope.
    ("polytope-normal-dimension", lambda: HPolytope(2, [((1, 0, 0), 0)]), ConstructionError, "normal of dimension 3, expected 2"),
    ("polytope-no-halfspace", lambda: HPolytope(2, []), ConstructionError, "a polytope needs at least one halfspace"),
    ("polytope-no-vertices", lambda: HPolytope(1, [((1,), 1), ((-1,), 0)]), ConstructionError, "polytope has no vertices"),
    ("polytope-halfspaces-int", lambda: HPolytope(2, 5), ConstructionError, "halfspaces must be an iterable of (normal, offset) pairs, not 5"),
    ("polytope-halfspace-single", lambda: HPolytope(2, [((1, 0),)]), ConstructionError, "halfspace 0 is not a (normal, offset) pair: ((1, 0),)"),
    ("polytope-halfspace-int", lambda: HPolytope(2, [((1, 0), 0), 3]), ConstructionError, "halfspace 1 is not a (normal, offset) pair: 3"),
    # The dim is checked before anything else, so a bad dim is named even with bad halfspaces.
    ("polytope-dim-float", lambda: HPolytope(2.0, unit_square().halfspaces), ConstructionError, DIM.format(2.0)),
    ("polytope-dim-string", lambda: HPolytope("2", unit_square().halfspaces), ConstructionError, DIM.format("2")),
    ("polytope-dim-bool", lambda: HPolytope(True, [((1,), 0), ((-1,), -1)]), ConstructionError, DIM.format(True)),
    ("polytope-dim-zero", lambda: HPolytope(0, [((), 1)]), ConstructionError, DIM.format(0)),
    ("polytope-dim-before-halfspaces", lambda: HPolytope(-1, 5), ConstructionError, DIM.format(-1)),
    # LogValue.
    ("log-zero", lambda: LogValue(0), DomainError, "log argument must be positive, got 0"),
    ("log-infinite-arg", lambda: LogValue.INFINITY.arg, DomainError, "infinite value has no rational argument"),
    ("log-negate-infinite", lambda: -LogValue.INFINITY, DomainError, "cannot negate an infinite value"),
    ("log-subtract-infinite", lambda: LogValue(2) - LogValue.INFINITY, DomainError, "cannot subtract an infinite value"),
    # Metrics.
    ("face-all-active", lambda: face_m_ratio(CENTRE, CENTRE, Face(square(), frozenset(range(4)))), DomainError, "face has no inactive constraints"),
    ("gromov-infinite", lambda: gromov_product(CENTRE, CENTRE, CENTRE, infinite), DomainError, "Gromov product needs finite distances"),
    ("geodesic-slack", lambda: almost_geodesic_check([CENTRE, CENTRE], zero_distance, F(1, 2)), DomainError, "slack is e^eps and must be at least 1"),
    # Callables and point sequences are refused by their class on entry, before any is called or read.
    ("gromov-metric-none", lambda: gromov_product(CENTRE, CENTRE, CENTRE, None), DomainError, "metric must be callable, not NoneType"),
    ("geodesic-points-none", lambda: almost_geodesic_check(None, zero_distance), DomainError, "points must be a sequence of points, not NoneType"),
    ("geodesic-metric-none", lambda: almost_geodesic_check([CENTRE, CENTRE], None), DomainError, "metric must be callable, not NoneType"),
    # A metric value that is not a LogValue is refused by its class.
    ("gromov-metric-int", lambda: gromov_product(CENTRE, CENTRE, CENTRE, lambda a, b: 5), DomainError, "metric value must be a LogValue, not int"),
    ("geodesic-metric-int", lambda: almost_geodesic_check([CENTRE, CENTRE], lambda a, b: 5), DomainError, "metric value must be a LogValue, not int"),
    ("geodesic-direct-int", lambda: almost_geodesic_check([CENTRE, EDGE_LOW, EDGE], int_from_centre_to_edge), DomainError, "metric value must be a LogValue, not int"),
    # A Face checks its parent and its active set when it is built, so a bad one never reaches a gauge.
    ("face-parent-none", lambda: face_m_ratio(EDGE, EDGE_LOW, Face(None, frozenset({0}))), DomainError, "cone must be a PolyCone, not NoneType"),
    ("face-active-none", lambda: face_contains(Face(square(), None), EDGE), DomainError, "face active set must be a frozenset, not NoneType"),
    ("face-active-float", lambda: face_hilbert(EDGE, EDGE_LOW, Face(square(), frozenset({1.5}))), DomainError, "facet index 1.5 is not an integer"),
    # A BusemannPoint and a LinearMap check the class of each field when built, so a bad one is never used.
    ("busemann-field-cone", lambda: busemann_with(cone=None), DomainError, "Busemann point cone must be a PolyCone, not NoneType"),
    ("busemann-field-x", lambda: busemann_with(x=[0, 1, 1]), DomainError, "Busemann point x must be a tuple, not list"),
    ("busemann-field-x-active", lambda: busemann_with(x_active=None), DomainError, "Busemann point x_active must be a frozenset, not NoneType"),
    ("busemann-field-funk-index", lambda: busemann_with(funk_index={0}), DomainError, "Busemann point funk_index must be a frozenset, not set"),
    ("busemann-field-funk-cone", lambda: busemann_with(funk_cone=left_edge()), DomainError, "Busemann point funk_cone must be a PolyCone, not Face"),
    ("busemann-field-p", lambda: busemann_with(p=None), DomainError, "Busemann point p must be a tuple, not NoneType"),
    ("busemann-field-base", lambda: busemann_with(base="1/2,1/2,1"), DomainError, "Busemann point base must be a tuple, not str"),
    # Its index fields name facets, the funk indices are active at x, and the funk cone is the one they cut out.
    ("busemann-field-funk-index-range", lambda: busemann_with(funk_index=frozenset({99})), DomainError, "facet index 99 out of range for a cone with 4 facets"),
    ("busemann-field-funk-index-negative", lambda: busemann_with(funk_index=frozenset({-1})), DomainError, "facet index -1 out of range for a cone with 4 facets"),
    ("busemann-field-funk-index-negative-inactive", lambda: busemann_with(funk_index=frozenset({-2})), DomainError, "facet index -2 out of range for a cone with 4 facets"),
    ("busemann-field-funk-index-string", lambda: busemann_with(funk_index=frozenset({"a"})), DomainError, "facet index 'a' is not an integer"),
    ("busemann-field-funk-index-bool", lambda: busemann_with(funk_index=frozenset({True})), DomainError, "facet index True is not an integer"),
    ("busemann-field-funk-index-empty", lambda: busemann_with(funk_index=frozenset()), DomainError, "facet index set must be nonempty"),
    ("busemann-field-x-active-range", lambda: busemann_with(x_active=frozenset({99})), DomainError, "facet index 99 out of range for a cone with 4 facets"),
    # x = (0, 1/2, 1) lies on facet 3 alone: with {1, 3}, detour_cost would read +inf where the true point gives 3/2.
    ("busemann-field-x-active-extra", lambda: busemann_with(x=EDGE, x_active=frozenset({1, 3})), DomainError, "Busemann point x_active is not the set of facets active at x"),
    ("busemann-field-x-active-empty", lambda: busemann_with(x_active=frozenset()), DomainError, "Busemann point x_active is not the set of facets active at x"),
    # The activity check reads x as busemann_point does: its dimension, then its entries as rationals.
    ("busemann-field-x-short", lambda: busemann_with(x=SHORT), DomainError, "point has dimension 2, cone lives in 3"),
    ("busemann-field-x-float", lambda: busemann_with(x=HALF_FLOAT), ParseError, "coordinate 0 is the float 0.5, not an exact rational"),
    ("busemann-field-funk-index-inactive", lambda: busemann_with(funk_index=frozenset({0})), DomainError, "funk cone indices must be active at the boundary point"),
    ("busemann-field-funk-cone-parent", lambda: busemann_with(funk_cone=square()), DomainError, "Busemann point funk_cone is not the cone its funk_index cuts out"),
    ("busemann-field-funk-cone-other", lambda: busemann_with(funk_cone=subcone(square(), [0])), DomainError, "Busemann point funk_cone is not the cone its funk_index cuts out"),
    ("linear-map-rows", lambda: LinearMap(None), DomainError, "linear map rows must be a tuple, not NoneType"),
    ("linear-map-row", lambda: LinearMap(((1, 0), [0, 1])), DomainError, "linear map row must be a tuple, not list"),
    # So does a CollinearityWitness: three Fraction vectors twice, three int columns, a Fraction determinant.
    ("witness-field-points", lambda: witness_with(points=None), DomainError, "witness points must be a tuple, not NoneType"),
    ("witness-field-points-two", lambda: witness_with(points=witness().points[:2]), DomainError, "witness points must hold three entries, not 2"),
    ("witness-field-images", lambda: witness_with(images=list(witness().images)), DomainError, "witness images must be a tuple, not list"),
    ("witness-field-point-string", lambda: witness_with(points=("111", *witness().points[1:])), DomainError, "witness point must be a tuple, not str"),
    ("witness-field-image-int", lambda: witness_with(images=(*witness().images[:2], (1, 2, 3))), DomainError, "witness image coordinate must be a Fraction, not int"),
    ("witness-field-columns-string", lambda: witness_with(columns="111"), DomainError, "witness columns must be a tuple, not str"),
    ("witness-field-columns-four", lambda: witness_with(columns=(0, 1, 2, 3)), DomainError, "witness columns must hold three entries, not 4"),
    ("witness-field-column-bool", lambda: witness_with(columns=(0, True, 2)), DomainError, "witness column True is not an integer"),
    ("witness-field-determinant", lambda: witness_with(determinant=-1), DomainError, "witness determinant must be a Fraction, not int"),
    # Two-sided gauges read each point once, x then y, and refuse as the
    # one-sided gauges they combine: hilbert_cone as funk then reverse_funk
    # (y interior, the Funk sign, x interior), face_hilbert as
    # face_m_ratio(x, y) then face_m_ratio(y, x), j_eval as M(base/x) then M(y/x).
    ("hilbert-cone-bad-x", lambda: hilbert_cone(EDGE, CENTRE, square()), DomainError, INTERIOR),
    ("hilbert-cone-bad-y", lambda: hilbert_cone(CENTRE, EDGE, square()), DomainError, INTERIOR),
    ("hilbert-cone-funk-sign-before-x", lambda: hilbert_cone(OUTSIDE, CENTRE, square()), DomainError, FUNK_SIGN),
    ("hilbert-cone-both-y-interior-first", lambda: hilbert_cone(OUTSIDE, EDGE, square()), DomainError, INTERIOR),
    ("hilbert-cone-both-x-parsed-first", lambda: hilbert_cone(HALF_FLOAT, SHORT, square()), ParseError, FLOAT),
    ("hilbert-cone-both-x-dimension-first", lambda: hilbert_cone(SHORT, HALF_FLOAT, square()), DomainError, SHORT_DIM),
    ("hilbert-cone-both-x-read-before-y-interior", lambda: hilbert_cone(SHORT, EDGE, square()), DomainError, SHORT_DIM),
    ("face-hilbert-bad-x", lambda: face_hilbert(CENTRE, EDGE, left_edge()), DomainError, RELATIVE),
    ("face-hilbert-bad-y", lambda: face_hilbert(EDGE_LOW, CENTRE, left_edge()), DomainError, RELATIVE),
    # A point on the face's span with every inactive value negative: the relative-interior refusal, not a sign one.
    ("face-hilbert-x-outside-on-the-span", lambda: face_hilbert((0, F(-1, 2), -1), EDGE, left_edge()), DomainError, RELATIVE),
    ("face-hilbert-y-outside-on-the-span", lambda: face_hilbert(EDGE, (0, F(-1, 2), -1), left_edge()), DomainError, RELATIVE),
    ("face-hilbert-both-x-parsed-first", lambda: face_hilbert(HALF_FLOAT, SHORT, left_edge()), ParseError, FLOAT),
    ("face-hilbert-both-x-dimension-first", lambda: face_hilbert(SHORT, HALF_FLOAT, left_edge()), DomainError, SHORT_DIM),
    ("face-hilbert-both-x-read-before-y-relative", lambda: face_hilbert(SHORT, CENTRE, left_edge()), DomainError, SHORT_DIM),
    ("face-hilbert-all-active-first", lambda: face_hilbert(HALF_FLOAT, SHORT, Face(square(), frozenset(range(4)))), DomainError, "face has no inactive constraints"),
    ("j-eval-bad-x", lambda: j_eval(square(), EDGE, CENTRE, CENTRE), DomainError, INTERIOR),
    ("j-eval-bad-y", lambda: j_eval(square(), CENTRE, SHORT, CENTRE), DomainError, SHORT_DIM),
    ("j-eval-both-x-interior-first", lambda: j_eval(square(), EDGE, HALF_FLOAT, CENTRE), DomainError, INTERIOR),
    ("j-eval-both-x-parsed-before-y", lambda: j_eval(square(), HALF_FLOAT, SHORT, CENTRE), ParseError, FLOAT),
    ("j-eval-base-parsed-first", lambda: j_eval(square(), SHORT, CENTRE, HALF_FLOAT), ParseError, FLOAT),
    # M(base/x) is checked as soon as it is known, before y is read.
    ("j-eval-base-at-origin", lambda: j_eval(positive_orthant(3), (1, 1, 1), (1, 2, 1), (0, 0, 0)), DomainError, J_BASE),
    ("j-eval-base-outside", lambda: j_eval(positive_orthant(3), (1, 1, 1), (1, 2, 1), (-1, -1, -1)), DomainError, J_BASE),
    ("j-eval-base-before-y", lambda: j_eval(positive_orthant(3), (1, 1, 1), SHORT, (-1, -1, -1)), DomainError, J_BASE),
    # The chord reads x then y: both parsed, then x's dimension and interior, then y's.
    ("cross-ratio-x-dimension", lambda: hilbert_cross_ratio(unit_square(), CENTRE, MID), DomainError, "point has dimension 3, polytope has 2"),
    ("cross-ratio-y-dimension", lambda: hilbert_cross_ratio(unit_square(), MID, (1, 1, 1, 1)), DomainError, "point has dimension 4, polytope has 2"),
    ("cross-ratio-x-exterior", lambda: hilbert_cross_ratio(unit_square(), (2, 2), MID), DomainError, "point ('2', '2') is not interior"),
    ("cross-ratio-y-exterior", lambda: hilbert_cross_ratio(unit_square(), MID, (0, F(1, 2))), DomainError, "point ('0', '1/2') is not interior"),
    # x == y is answered only after both interior tests: a boundary point is refused, not at distance zero.
    ("cross-ratio-equal-boundary-points", lambda: hilbert_cross_ratio(unit_square(), (0, F(1, 2)), (0, F(1, 2))), DomainError, "point ('0', '1/2') is not interior"),
    ("cross-ratio-x-dimension-first", lambda: hilbert_cross_ratio(unit_square(), CENTRE, (1, 1, 1, 1)), DomainError, "point has dimension 3, polytope has 2"),
    ("cross-ratio-x-exterior-before-y-dimension", lambda: hilbert_cross_ratio(unit_square(), (2, 2), (1, 1, 1, 1)), DomainError, "point ('2', '2') is not interior"),
    ("cross-ratio-y-parsed-before-x-dimension", lambda: hilbert_cross_ratio(unit_square(), CENTRE, (0.5, 1)), ParseError, FLOAT),
    ("geodesic-one-point", lambda: almost_geodesic_check([CENTRE], zero_distance), DomainError, "an almost-geodesic needs at least two points"),
    # Formatting reads its value as `rational` does.
    ("format-rational-float", lambda: format_rational(1.5), ParseError, "the float 1.5 is not an exact rational"),
    ("format-rational-string", lambda: format_rational("x"), ParseError, "not an exact rational: 'x'"),
    # Simplex.
    ("var-dist-sizes", lambda: var_dist(VClass([0, 1]), VClass([0, 1, 2])), DomainError, "variation classes of different dimension"),
    ("apply-sizes", lambda: apply_isometry(identity_isometry(2), VClass([0, 1])), DomainError, "isometry and class dimensions differ"),
    ("compose-sizes", lambda: compose(identity_isometry(2), identity_isometry(1)), DomainError, "isometry dimensions differ"),
    # Isometry input: each field by class, and each function by the class of its arguments.
    ("isometry-float-entry", lambda: SimplexIsometry(ZERO3, (2.0, 0, 1), False), DomainError, "permutation entry 2.0 is not an integer"),
    ("isometry-bool-entry", lambda: SimplexIsometry(ZERO3, (True, 0, 2), False), DomainError, "permutation entry True is not an integer"),
    ("isometry-set-permutation", lambda: SimplexIsometry(ZERO3, {0, 1, 2}, False), DomainError, "permutation must be a sequence of integers, not {0, 1, 2}"),
    ("isometry-translation", lambda: SimplexIsometry((0, 0, 0), (0, 1, 2), False), DomainError, "translation must be a VClass, not tuple"),
    ("isometry-flip-int", lambda: SimplexIsometry(ZERO3, (0, 1, 2), 1), DomainError, "flip must be a bool, not 1"),
    ("isometry-flip-none", lambda: SimplexIsometry(ZERO3, (0, 1, 2), None), DomainError, "flip must be a bool, not None"),
    ("var-dist-first", lambda: var_dist((0, 1), VClass([0, 1])), DomainError, POINT.format("tuple")),
    ("var-dist-second", lambda: var_dist(VClass([0, 1]), [0, 1]), DomainError, POINT.format("list")),
    ("var-norm-point", lambda: var_norm([0, 1]), DomainError, POINT.format("list")),
    ("apply-isometry", lambda: apply_isometry(VClass([0, 1]), VClass([0, 1])), DomainError, ISOMETRY.format("VClass")),
    ("apply-point", lambda: apply_isometry(identity_isometry(1), (0, 1)), DomainError, POINT.format("tuple")),
    ("compose-first", lambda: compose(None, identity_isometry(1)), DomainError, ISOMETRY.format("NoneType")),
    ("compose-second", lambda: compose(identity_isometry(1), VClass([0, 1])), DomainError, ISOMETRY.format("VClass")),
    ("inverse-isometry", lambda: inverse((0, 1)), DomainError, ISOMETRY.format("tuple")),
    ("exp-chart-point", lambda: exp_chart((0, 1), 2), DomainError, POINT.format("tuple")),
    ("exp-chart-float-point", lambda: exp_chart_float((0, 1)), DomainError, POINT.format("tuple")),
    # A float chart coordinate overflows in the division (|x| too large) or in e^x; either is named.
    ("exp-chart-float-huge", lambda: exp_chart_float(VClass([0, 10**400])), DomainError, OVERFLOW.format(1)),
    ("exp-chart-float-huge-negative", lambda: exp_chart_float(VClass([0, -10**400])), DomainError, OVERFLOW.format(1)),
    ("exp-chart-float-exp", lambda: exp_chart_float(VClass([0, 1, 1000])), DomainError, OVERFLOW.format(2)),
    ("ball-zero", lambda: var_ball_vertices(0), DomainError, AT_LEAST_ONE),
    ("ball-guard", lambda: var_ball_vertices(13), DomainError, "vertex enumeration guard: n <= 12"),
    ("point-group-zero", lambda: point_group_elements(0), DomainError, AT_LEAST_ONE),
    ("point-group-guard", lambda: point_group_elements(7), DomainError, "point group guard: n <= 6"),
    ("permutation-group-guard", lambda: permutation_group_elements(7), DomainError, "point group guard: n <= 6"),
    # The closed-form order refuses as the enumeration it counts.
    ("permutation-order-guard", lambda: permutation_group_order(7), DomainError, "point group guard: n <= 6"),
    ("permutation-order-zero", lambda: permutation_group_order(0), DomainError, AT_LEAST_ONE),
    ("permutation-order-bool", lambda: permutation_group_order(True), DomainError, SIZE.format(True)),
    # Sizes: one check refuses a non-integer before the range, naming it.
    ("ball-float", lambda: var_ball_vertices(2.5), DomainError, SIZE.format(2.5)),
    ("point-group-float", lambda: point_group_elements(2.0), DomainError, SIZE.format(2.0)),
    ("permutation-group-float", lambda: permutation_group_elements(2.0), DomainError, SIZE.format(2.0)),
    ("orthant-float", lambda: positive_orthant(2.0), DomainError, SIZE.format(2.0)),
    ("orthant-bool", lambda: positive_orthant(True), DomainError, SIZE.format(True)),
    ("witness-string", lambda: collineation_witness_failure("2"), DomainError, SIZE.format("2")),
    ("identity-string", lambda: identity_isometry("x"), DomainError, SIZE.format("x")),
    ("identity-zero", lambda: identity_isometry(0), DomainError, AT_LEAST_ONE),
    ("exp-base-one", lambda: exp_chart(VClass([0, 1]), 1), DomainError, BASE),
    ("exp-base-zero", lambda: exp_chart(VClass([0, 1]), 0), DomainError, BASE),
    ("log-chart-base-one", lambda: log_chart((1, 2), 1), DomainError, BASE),
    ("log-chart-base-negative", lambda: log_chart((1, 2), -2), DomainError, BASE),
    ("log-chart-nonpositive", lambda: log_chart((1, 0), 2), DomainError, "chart point must have strictly positive coordinates"),
    ("orthant-zero", lambda: positive_orthant(0), DomainError, AT_LEAST_ONE),
    ("collineation-permutation", lambda: simplex_collineation([0, 0], [1, 1]), DomainError, "not a permutation of the coordinates"),
    ("collineation-diagonal", lambda: simplex_collineation([0, 1], [1]), DomainError, "diagonal and permutation sizes differ"),
    # One permutation check serves both callers, the sequence test included.
    ("collineation-int-permutation", lambda: simplex_collineation(5, [1]), DomainError, "permutation must be a sequence of integers, not 5"),
    # sorted([True, 0]) == [0, 1], so only the entry check refuses it, as `SimplexIsometry` does.
    ("collineation-bool-entry", lambda: simplex_collineation([True, 0], [1, 1]), DomainError, "permutation entry True is not an integer"),
    ("witness-zero", lambda: collineation_witness_failure(0), DomainError, AT_LEAST_ONE),
    ("metric-preserving-sample", lambda: is_metric_preserving(lambda p: p, positive_orthant(2), [(1, 0)]), DomainError, "sample point is not interior"),
    ("metric-preserving-transform-none", lambda: is_metric_preserving(None, positive_orthant(2), [(1, 1)]), DomainError, "transform must be callable, not NoneType"),
    ("metric-preserving-samples-none", lambda: is_metric_preserving(lambda p: p, positive_orthant(2), None), DomainError, "samples must be a sequence of points, not NoneType"),
    # Horoboundary.
    ("busemann-base", lambda: busemann_point(square(), EDGE, classify_point(square(), EDGE).active, CENTRE, EDGE), DomainError, "base-point must be interior"),
    ("busemann-eval-point", lambda: busemann_eval(on_square(), EDGE), DomainError, "horofunctions are evaluated at interior points"),
    ("busemann-eval-exterior", lambda: busemann_eval(on_square(), OUTSIDE), DomainError, "horofunctions are evaluated at interior points"),
    ("busemann-eval-parsed-first", lambda: busemann_eval(on_square(), HALF_FLOAT), ParseError, FLOAT),
    ("busemann-eval-dimension", lambda: busemann_eval(on_square(), SHORT), DomainError, SHORT_DIM),
    ("detour-cost-cones", lambda: detour_cost(on_square(), on_triangle()), DomainError, "Busemann points live on different cones"),
    ("detour-decomposition-cones", lambda: detour_decomposition(on_square(), on_triangle()), DomainError, "Busemann points live on different cones"),
    ("detour-metric-cones", lambda: detour_metric(on_square(), on_triangle()), DomainError, "Busemann points live on different cones"),
    ("parts-improper", lambda: enumerate_parts(PolyCone([(1, 0, 0)], 3)), DomainError, "part enumeration requires a proper cone"),
    ("classify-part-empty", lambda: classify_part(square(), PartId(frozenset(), frozenset())), DomainError, PART),
    ("classify-part-nested", lambda: classify_part(square(), PartId(frozenset({0}), frozenset({1}))), DomainError, NESTED),
    ("classify-part-range", lambda: classify_part(square(), PartId(frozenset({7}), frozenset({7}))), DomainError, "facet index 7 out of range for a cone with 4 facets"),
    ("classify-part-string", lambda: classify_part(square(), PartId(frozenset({"a"}), frozenset({"a"}))), DomainError, "facet index 'a' is not an integer"),
    # Plain sets and lists are not hashable, so the lattice could not look them up.
    ("classify-part-sets", lambda: classify_part(square(), PartId({0}, {0})), DomainError, "part index sets must be frozensets, not set"),
    ("part-dimension-lists", lambda: part_dimension(square(), PartId([0], [0])), DomainError, "part index sets must be frozensets, not list"),
    ("classify-part-tuple", lambda: classify_part(square(), (frozenset({0}), frozenset({0}))), DomainError, "part must be a PartId, not tuple"),
    ("part-dimension-tuple", lambda: part_dimension(square(), (frozenset({0}), frozenset({0}))), DomainError, "part must be a PartId, not tuple"),
    ("part-dimension-empty", lambda: part_dimension(square(), PartId(frozenset({0}), frozenset())), DomainError, PART),
    ("part-dimension-nested", lambda: part_dimension(square(), PartId(frozenset({0}), frozenset({1}))), DomainError, NESTED),
    ("part-dimension-range", lambda: part_dimension(square(), PartId(frozenset({-1}), frozenset({-1}))), DomainError, "facet index -1 out of range for a cone with 4 facets"),
    # 1.0 == 1, so the cone index passes the nesting test; it is refused as a float.
    ("part-dimension-float-cone-index", lambda: part_dimension(square(), PartId(frozenset({0, 1}), frozenset({1.0}))), DomainError, "facet index 1.0 is not an integer"),
    ("horolimit-leaves", lambda: horolimit_residual(square(), (0, F(1, 2), 1), (2, F(1, 2), 1), CENTRE, CENTRE, 1), DomainError, "line point left the cone interior"),
    ("tangent-family-empty", lambda: tangent_family(square(), []), DomainError, "facet index set must be nonempty"),
    # The pool is checked before the size guard, which bounds a 2^k output only a valid pool can produce.
    ("tangent-family-range-before-guard", lambda: tangent_family(square(), range(25)), DomainError, "facet index 4 out of range for a cone with 4 facets"),
    ("tangent-family-string", lambda: tangent_family(square(), ["a"]), DomainError, "facet index 'a' is not an integer"),
    ("tangent-family-mixed", lambda: tangent_family(square(), [0, "a"]), DomainError, "facet index 'a' is not an integer"),
    ("tangent-family-int", lambda: tangent_family(square(), 5), DomainError, "facet indices must be an iterable of integers, not int"),
    ("index-set-none", lambda: canonical_index_set(square(), None), DomainError, "facet indices must be an iterable of integers, not NoneType"),
    ("subcone-none", lambda: subcone(square(), None), DomainError, "facet indices must be an iterable of integers, not NoneType"),
    # Facet index sets: ints only, each naming a facet.
    ("index-set-float", lambda: canonical_index_set(square(), [1.5]), DomainError, "facet index 1.5 is not an integer"),
    ("index-set-bool", lambda: canonical_index_set(square(), [True]), DomainError, "facet index True is not an integer"),
    ("index-set-range", lambda: canonical_index_set(square(), [0, 4]), DomainError, "facet index 4 out of range for a cone with 4 facets"),
    ("subcone-float", lambda: subcone(square(), [1.5]), DomainError, "facet index 1.5 is not an integer"),
    ("busemann-float-index", lambda: busemann_point(square(), EDGE, [3.0], CENTRE, CENTRE), DomainError, "facet index 3.0 is not an integer"),
    # The index types and range are checked before activity, so an inactive 0.0 is refused as a float too.
    ("busemann-float-inactive-index", lambda: busemann_point(square(), EDGE, [0.0], CENTRE, CENTRE), DomainError, "facet index 0.0 is not an integer"),
    ("busemann-range-index", lambda: busemann_point(square(), EDGE, [7], CENTRE, CENTRE), DomainError, "facet index 7 out of range for a cone with 4 facets"),
    ("busemann-inactive-index", lambda: busemann_point(square(), EDGE, [0], CENTRE, CENTRE), DomainError, "funk cone indices must be active at the boundary point"),
    ("busemann-index-not-iterable", lambda: busemann_point(square(), EDGE, None, CENTRE, CENTRE), DomainError, "facet indices must be an iterable of integers, not NoneType"),
    ("busemann-empty-index", lambda: busemann_point(square(), EDGE, [], CENTRE, CENTRE), DomainError, "facet index set must be nonempty"),
    # Facet callables: a float is refused, and a wrong dimension names both.
    ("functional-float", lambda: LinearFunctional((1, 2))((0.5, 1)), ParseError, FLOAT),
    ("orthant-m-ratio-float", lambda: m_ratio((0.5, 1), (1, 1), positive_orthant(2)), ParseError, FLOAT),
    ("functional-dimension", lambda: LinearFunctional((1, 2))((1, 2, 3)), DomainError, "point has dimension 3, expected 2"),
    ("collineation-dimension", lambda: simplex_collineation([0, 1], [1, 1])((1, 2, 3)), DomainError, "point has dimension 3, expected 2"),
]

CONE = "cone must be a PolyCone, not NoneType"
FACE = "face must be a Face, not NoneType"
POLYTOPE = "polytope must be a HPolytope, not NoneType"
BUSEMANN = "Busemann point must be a BusemannPoint, not NoneType"
SOME_PART = PartId(frozenset({0}), frozenset({0}))

# None where a cone, face, polytope or Busemann point belongs: refused by its type, never an AttributeError.
NONE_ARGUMENTS = [
    ("classify-point", lambda: classify_point(None, CENTRE), CONE),
    ("m-ratio", lambda: m_ratio(CENTRE, CENTRE, None), CONE),
    ("hilbert-cone", lambda: hilbert_cone(CENTRE, CENTRE, None), CONE),
    ("j-eval", lambda: j_eval(None, CENTRE, CENTRE, CENTRE), CONE),
    ("cone-subset-inner", lambda: cone_subset(None, square()), CONE),
    ("cone-subset-outer", lambda: cone_subset(square(), None), CONE),
    ("face-lattice", lambda: face_lattice_active_sets(None), CONE),
    ("face-of", lambda: face_of(None, EDGE), CONE),
    ("hilbert-dimension", lambda: hilbert_dimension(None), CONE),
    ("tangent-cone", lambda: tangent_cone(None, EDGE), CONE),
    ("tangent-family", lambda: tangent_family(None), CONE),
    ("index-set-cone", lambda: canonical_index_set(None, [0]), CONE),
    ("subcone-cone", lambda: subcone(None, [0]), CONE),
    ("enumerate-parts", lambda: enumerate_parts(None), CONE),
    ("classify-part", lambda: classify_part(None, SOME_PART), CONE),
    ("part-dimension", lambda: part_dimension(None, SOME_PART), CONE),
    ("busemann-point", lambda: busemann_point(None, EDGE, [0], CENTRE, CENTRE), CONE),
    ("is-metric-preserving", lambda: is_metric_preserving(lambda p: p, None, []), CONE),
    ("face-m-ratio", lambda: face_m_ratio(EDGE, EDGE_LOW, None), FACE),
    ("face-hilbert", lambda: face_hilbert(EDGE, EDGE_LOW, None), FACE),
    ("face-contains", lambda: face_contains(None, EDGE), FACE),
    ("interior-point", lambda: interior_point(None), POLYTOPE),
    ("cone-from-polytope", lambda: cone_from_polytope(None), POLYTOPE),
    ("cross-ratio", lambda: hilbert_cross_ratio(None, MID, MID), POLYTOPE),
    ("busemann-eval", lambda: busemann_eval(None, CENTRE), BUSEMANN),
    ("part-of", lambda: part_of(None), BUSEMANN),
    ("detour-cost", lambda: detour_cost(on_square(), None), BUSEMANN),
    ("detour-decomposition", lambda: detour_decomposition(None, on_square()), BUSEMANN),
    ("detour-metric", lambda: detour_metric(on_square(), None), BUSEMANN),
]

# One contract for a facet index set, whichever entry point reads it.
INDEX_ENTRY_POINTS = {
    "canonical_index_set": lambda indices: canonical_index_set(square(), indices),
    "subcone": lambda indices: subcone(square(), indices),
    "tangent_family": lambda indices: tangent_family(square(), indices),
    "busemann_point": lambda indices: busemann_point(square(), EDGE, indices, CENTRE, CENTRE),
}
INDEX_CONTRACT = [
    ("nested-list", [[0]], "facet index [0] is not an integer"),
    ("int", 5, "facet indices must be an iterable of integers, not int"),
    ("empty", [], "facet index set must be nonempty"),
    ("float", [1.5], "facet index 1.5 is not an integer"),
    ("bool", [True], "facet index True is not an integer"),
    ("range", [4], "facet index 4 out of range for a cone with 4 facets"),
    ("string-after-int", [0, "a"], "facet index 'a' is not an integer"),
    ("none", None, "facet indices must be an iterable of integers, not NoneType"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal(call, error, message):
    assert issubclass(error, HilbertGeometryError)
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("call, message", [row[1:] for row in NONE_ARGUMENTS], ids=[row[0] for row in NONE_ARGUMENTS])
def test_none_as_the_argument(call, message):
    with pytest.raises(DomainError) as caught:
        call()
    assert type(caught.value) is DomainError
    assert str(caught.value) == message


@pytest.mark.parametrize("indices, message", [row[1:] for row in INDEX_CONTRACT], ids=[row[0] for row in INDEX_CONTRACT])
def test_one_index_contract(indices, message):
    outcomes = {}
    for name, call in INDEX_ENTRY_POINTS.items():
        if indices is None and name == "tangent_family":
            continue  # there None means every facet
        with pytest.raises(HilbertGeometryError) as caught:
            call(indices)
        outcomes[name] = (type(caught.value), str(caught.value))
    assert set(outcomes.values()) == {(DomainError, message)}, outcomes
