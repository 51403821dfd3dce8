"""Busemann points of polyhedral Hilbert geometries and their detour metric.

A Busemann point of the Hilbert geometry on a proper open cone C is
parametrised by a boundary ray x, a member T of the tangent family at x,
and a point p interior to T; its horofunction is

    w  |->  [log M(x/w;C) - log M(x/b;C)] + [log M(w/p;T) - log M(b/p;T)]

with base-point b.  The detour cost between two such points is a closed
form in the same gauges, and the detour metric, its symmetrisation, is
finite exactly within a part (same face, same cone).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .geometry import (
    DomainError,
    Face,
    PolyCone,
    _check_indices,
    _face_lattice_cached,
    _row_values,
    classify_point,
    face_lattice_active_sets,
)
from .linalg import Vector, _Frozen, _fractions, _gauss_jordan, _refuse, _scaled, _set, _unit_lead, rational, vector
from .metrics import _INTERIOR, LogValue, _arg_max, _two_sided, face_hilbert, hilbert_cone
from .tangent import _cut, canonical_index_set


class BusemannPoint(_Frozen):
    """A Busemann point: boundary ray x, funk cone cut by the facets `funk_index`, reference point p.

    `busemann_point` builds it canonical: x and p have a leading coordinate
    of absolute value one and p is reduced modulo the funk cone's lineality
    space, so equal fields mean equal Busemann points.  A `DomainError`
    refuses a field of the wrong class, an index that names no facet, an
    empty `funk_index` or one not inside `x_active`, and a `funk_cone` other
    than the cone `funk_index` cuts out.

    `_values`, filled on first use and out of equality, hashing, repr and
    pickling, is the record (X, P, inactive, funk, an, ad): x's and p's
    integer values on the cone's rows, the rows inactive at x, the sorted
    funk indices, and the anchor an / ad = M(X/b; cone) M(b/P; funk_cone).
    It holds no scale: b's cancels inside the anchor, which carries x's
    scale over p's, and each formula divides that out again.  The funk
    cone's rows are the parent's, unscaled, so every gauge of the horofunction
    and the detour cost selects rows of the record.
    """

    __slots__ = ("cone", "x", "x_active", "funk_index", "funk_cone", "p", "base", "_values")
    _classes = (PolyCone, tuple, frozenset, frozenset, PolyCone, tuple, tuple)  # checked per field when built

    def __init__(self, cone: PolyCone, x: Vector, x_active: frozenset[int], funk_index: frozenset[int],
                 funk_cone: PolyCone, p: Vector, base: Vector):
        values = (cone, x, x_active, funk_index, funk_cone, p, base)
        for name, cls, value in zip(self.__slots__, self._classes, values):
            if value.__class__ is not cls:
                _refuse(f"Busemann point {name}", cls, value)
            _set(self, name, value)
        _check_indices(cone, x_active)
        canonical_index_set(cone, funk_index)
        if not funk_index <= x_active:
            raise DomainError("funk cone indices must be active at the boundary point")
        if funk_cone._rows != tuple(cone._rows[i] for i in sorted(funk_index)):
            raise DomainError("Busemann point funk_cone is not the cone its funk_index cuts out")
        _set(self, "_values", None)


def _values(point: BusemannPoint) -> tuple[list[int], list[int], list[int], list[int], int, int]:
    """The record of `BusemannPoint`, filled on first use; a bad base-point, then p, is refused as `m_ratio` refuses."""
    values = point._values
    if values is None:
        xs, _ = _row_values(point.cone, point.x)
        ps, _ = _row_values(point.cone, point.p)
        bs, _ = _row_values(point.cone, point.base)
        funk = sorted(point.funk_index)
        n, d = _arg_max(xs, bs, _INTERIOR)
        m, e = _arg_max([bs[i] for i in funk], [ps[i] for i in funk], _INTERIOR)
        anchor = Fraction(n * m, d * e)
        inactive = [i for i in range(len(xs)) if i not in point.x_active]
        values = (xs, ps, inactive, funk, anchor.numerator, anchor.denominator)
        _set(point, "_values", values)
    return values


# Stored values are positive on the rows they divide by: x on its inactive rows, p on its funk rows.
_STALE = "a Busemann point's stored row values are not positive where a gauge divides by them"


def busemann_point(
    cone: PolyCone,
    x: Sequence[Fraction],
    funk_index: Iterable[int],
    p: Sequence[Fraction],
    base: Sequence[Fraction],
) -> BusemannPoint:
    """Validate and canonicalise the data of a Busemann point.

    A `DomainError` refuses an improper cone, an x off the boundary or at
    the apex, a base-point off the interior, a funk index set that
    `canonical_index_set` refuses or that is not active at x, and a p off
    the funk cone's interior.  p is reduced modulo the funk cone's lineality
    space L: the reduced echelon form R / d of L's integer basis is L's own,
    and d P - sum P_c R_c, for P the integer vector of p, is zero at each
    pivot column c.  x and p are stored in unit-lead form.
    """
    _refuse("cone", PolyCone, cone)
    if not cone.is_proper:
        raise DomainError("Busemann points require a proper cone")
    x = vector(x)
    base = vector(base)
    values, _ = _row_values(cone, x)
    active = frozenset(i for i, v in enumerate(values) if v == 0)
    if not active or min(values) < 0 or not any(x):
        raise DomainError("boundary point must lie on the cone boundary, away from the apex")
    if min(_row_values(cone, base)[0]) <= 0:
        raise DomainError("base-point must be interior")
    index = canonical_index_set(cone, funk_index)
    if not index <= active:
        raise DomainError("funk cone indices must be active at the boundary point")
    funk_cone = _cut(cone, index)
    p = vector(p)
    if min(_row_values(funk_cone, p)[0]) <= 0:
        raise DomainError("reference point must be interior to the funk cone")
    ints = _scaled(p)[0]
    if funk_cone._lineality:
        reduced, pivots, d = _gauss_jordan(funk_cone._lineality)
        moved = [d * v for v in ints]
        for row, c in zip(reduced, pivots):
            if ints[c]:
                moved = [v - ints[c] * w for v, w in zip(moved, row)]
        ints = moved if d > 0 else [-v for v in moved]
    x_ints = _scaled(x)[0]
    return BusemannPoint(
        cone=cone,
        x=_fractions(x_ints, _unit_lead(x_ints)),
        x_active=active,
        funk_index=index,
        funk_cone=funk_cone,
        p=_fractions(ints, _unit_lead(ints)),
        base=base,
    )


def busemann_from_line(
    cone: PolyCone,
    z: Sequence[Fraction],
    y: Sequence[Fraction],
    base: Sequence[Fraction],
) -> BusemannPoint:
    """Horofunction limit of the straight-line path (1-t)z + ty as t -> 0.

    The limit is the Busemann point with boundary ray z, funk cone the
    tangent cone at z, and reference point y.
    """
    z = vector(z)
    loc = classify_point(cone, z)
    if not loc.is_boundary or all(c == 0 for c in z):
        raise DomainError("line endpoint must lie on the cone boundary, away from the apex")
    return busemann_point(cone, z, loc.active, y, base)


_OFF_INTERIOR = "horofunctions are evaluated at interior points"


def busemann_eval(point: BusemannPoint, w: Sequence[Fraction]) -> LogValue:
    """Exact horofunction value at w; zero at the base-point.  A w off the interior is a `DomainError`.

    On the record, M(x/w; cone) M(w/p; funk_cone) = (n / d)(m / e) in the
    units of the anchor an / ad: w's scale cancels, and so do x's and p's
    against the anchor.
    """
    _refuse("Busemann point", BusemannPoint, point)
    ws, _ = _row_values(point.cone, w)
    xs, ps, _, funk, an, ad = _values(point)
    n, d = _arg_max(xs, ws, _OFF_INTERIOR)
    m, e = _arg_max([ws[i] for i in funk], [ps[i] for i in funk], _STALE, ArithmeticError)
    return LogValue(Fraction(n * m * ad, d * e * an))


def _check_comparable(g: BusemannPoint, h: BusemannPoint) -> None:
    _refuse("Busemann point", BusemannPoint, g, h)
    if g.cone != h.cone:
        raise DomainError("Busemann points live on different cones")
    if g.base != h.base:
        raise DomainError("Busemann points carry different base-points")


def detour_cost(g: BusemannPoint, h: BusemannPoint) -> LogValue:
    """One-sided cost of reaching h through g.

    Finite exactly when h's boundary point lies in the face of g's and g's
    funk cone is contained in h's; then it is a reverse-Funk gauge along the
    face plus a Funk gauge between the reference points.  Points on
    different cones or with different base-points are a `DomainError`.
    """
    _check_comparable(g, h)
    # Both funk cones are cut from one irredundant facet list, so g's is
    # contained in h's exactly when h's index set is a subset of g's.
    if not (g.x_active <= h.x_active and h.funk_index <= g.funk_index):
        return LogValue.INFINITY
    # M(h.x/g.x; face) M(g.p/h.p; h's funk cone) over the anchors at the shared base-point: every scale cancels.
    gx, gp, inactive, _, gn, gd = _values(g)
    hx, hp, _, funk, hn, hd = _values(h)
    f, fd = _arg_max([hx[i] for i in inactive], [gx[i] for i in inactive], _STALE, ArithmeticError)
    k, kd = _arg_max([gp[i] for i in funk], [hp[i] for i in funk], _STALE, ArithmeticError)
    return LogValue(Fraction(f * k * gn * hd, fd * kd * gd * hn))


def detour_decomposition(g: BusemannPoint, h: BusemannPoint) -> tuple[LogValue, LogValue] | None:
    """(face Hilbert distance, funk-cone Hilbert distance) when finite, else None."""
    _check_comparable(g, h)
    if g.x_active != h.x_active or g.funk_cone != h.funk_cone:
        return None
    return face_hilbert(g.x, h.x, Face(g.cone, g.x_active)), hilbert_cone(g.p, h.p, g.funk_cone)


def detour_metric(g: BusemannPoint, h: BusemannPoint) -> LogValue:
    """Symmetrised detour cost; finite exactly within a part.

    Both costs are finite exactly when the points share their active and
    funk index sets, and then the anchors cancel.  The value is checked
    against the sum of `detour_decomposition`; a disagreement raises
    `ArithmeticError`.
    """
    _check_comparable(g, h)
    if g.x_active != h.x_active or g.funk_index != h.funk_index:
        delta = LogValue.INFINITY
    else:
        gx, gp, inactive, funk, _, _ = _values(g)
        hx, hp, _, _, _, _ = _values(h)
        fn, fd = _two_sided(hx, gx, inactive, _STALE, ArithmeticError)
        kn, kd = _two_sided(gp, hp, funk, _STALE, ArithmeticError)
        delta = LogValue(Fraction(fn * kn, fd * kd))
    decomposition = detour_decomposition(g, h)
    expected = LogValue.INFINITY if decomposition is None else decomposition[0] + decomposition[1]
    if delta != expected:
        raise ArithmeticError(f"detour metric routes disagree: {delta!r} vs {expected!r}")
    return delta


class PartId(_Frozen):
    """Name of a part: the face's active set and the funk cone's index set."""

    __slots__ = ("face_active", "cone_index")

    def __init__(self, face_active: frozenset[int], cone_index: frozenset[int]):
        _set(self, "face_active", face_active)
        _set(self, "cone_index", cone_index)


def part_of(point: BusemannPoint) -> PartId:
    """The part holding the point: its active set and funk index set."""
    _refuse("Busemann point", BusemannPoint, point)
    return PartId(point.x_active, point.funk_index)


def enumerate_parts(cone: PolyCone) -> list[PartId]:
    """All parts of a proper cone: pairs (boundary face, member of the tangent family there).

    Ordered by the face's sorted active set, then by the size of the cone
    index set, then lexicographically, which is the order they are built in.
    """
    _refuse("cone", PolyCone, cone)
    if not cone.is_proper:
        raise DomainError("part enumeration requires a proper cone")
    return [
        PartId(active, canonical_index_set(cone, subset))
        for active in sorted(face_lattice_active_sets(cone), key=sorted)
        for r in range(1, len(active) + 1)
        for subset in combinations(sorted(active), r)
    ]


VERTEX_PART = "vertex"
FACET_PART = "facet"
OTHER_PART = "other"


def _validate_part(cone: PolyCone, part: PartId) -> int:
    """The dimension of the span of `part`'s face; a part that names no part of `cone` is a `DomainError`."""
    if part.__class__ is not PartId:
        raise DomainError(f"part must be a PartId, not {type(part).__name__}")
    if not part.face_active or not part.cone_index:
        raise DomainError("part has empty index data")
    for indices in (part.face_active, part.cone_index):
        if not isinstance(indices, frozenset):
            raise DomainError(f"part index sets must be frozensets, not {type(indices).__name__}")
    if not part.cone_index <= part.face_active:
        raise DomainError("part cone indices must be active on the face")
    # Both sets, not their union: a cone index 1.0 equals the face index 1, passes the nesting and
    # would vanish from a union.  Once every index is an int, lattice membership decides the rest.
    _check_indices(cone, (*part.face_active, *part.cone_index))
    span = _face_lattice_cached(cone).get(part.face_active)
    if span is None:
        raise DomainError("face active set does not describe a boundary face")
    return span


def classify_part(cone: PolyCone, part: PartId) -> str:
    """Vertex part, facet part, or neither.

    Vertex: the face is an extreme ray and the cone is the full tangent cone
    there.  Facet: the face has top boundary dimension with the full tangent
    cone.  In ambient dimension two a boundary ray is both, and is a vertex part.
    """
    span = _validate_part(cone, part)
    full_tangent = part.cone_index == part.face_active
    if span == 1 and full_tangent:
        return VERTEX_PART
    if span == cone.ambient_dim - 1 and full_tangent:
        return FACET_PART
    return OTHER_PART


def part_dimension(cone: PolyCone, part: PartId) -> int:
    """Detour-metric dimension: (face dimension - 1) + Hilbert dimension of the cone.

    The cone cut out by the `cone_index` rows I has Hilbert dimension
    rank(I) - 1.  The face's active rows A have rank ambient dimension minus
    span; when that is |A| they are independent, so rank(I) = |I|.
    """
    span = _validate_part(cone, part)
    if cone.ambient_dim - span == len(part.face_active):
        independent = len(part.cone_index)
    else:
        independent = len(_gauss_jordan([cone._rows[i] for i in sorted(part.cone_index)])[1])
    return (span - 1) + (independent - 1)


def horolimit_residual(
    cone: PolyCone,
    z: Sequence[Fraction],
    y: Sequence[Fraction],
    base: Sequence[Fraction],
    w: Sequence[Fraction],
    t: Fraction,
) -> LogValue:
    """Difference between the finite-t centred distance and the horofunction.

    Evaluates [d(w, gamma(t)) - d(base, gamma(t))] - xi(w) for the line
    gamma(t) = (1-t)z + ty; the argument tends to one as t -> 0.
    """
    t = rational(t)
    if not 0 < t <= 1:
        raise DomainError("line parameter must satisfy 0 < t <= 1")
    z = vector(z)
    y = vector(y)
    point = busemann_from_line(cone, z, y, base)
    gamma = tuple((1 - t) * a + t * b for a, b in zip(z, y))
    if not classify_point(cone, gamma).is_interior:
        raise DomainError("line point left the cone interior")
    moving = hilbert_cone(w, gamma, cone) - hilbert_cone(vector(base), gamma, cone)
    return moving - busemann_eval(point, w)
