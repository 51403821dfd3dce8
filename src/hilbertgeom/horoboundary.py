"""Busemann points of polyhedral Hilbert geometries and their detour metric.

A Busemann point of the Hilbert geometry on a proper open cone C is
parametrised by a boundary ray x, a member T of the tangent family at x,
and a point p interior to T; its horofunction is

    w  |->  [log M(x/w;C) - log M(x/b;C)] + [log M(w/p;T) - log M(b/p;T)]

with base-point b.  The detour cost between two such points has a closed
form in the same gauges, finite exactly when the first boundary point lies
in the face of the second and the first tangent-family cone is contained in
the second; symmetrising gives the detour metric, which is finite exactly
within a "part" (same face, same cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .geometry import (
    DomainError,
    PolyCone,
    _unit_lead,
    classify_point,
    face_of,
    face_lattice_active_sets,
)
from .linalg import Vector, rank, rref, vector
from .metrics import LogValue, face_m_ratio, hilbert_cone, m_ratio
from .tangent import canonical_index_set, hilbert_dimension, subcone


@dataclass(frozen=True)
class BusemannPoint:
    """Canonical data (boundary ray, tangent-family cone, reference point).

    Stored in canonical form: the boundary point and the reference point are
    scaled so their leading nonzero coordinate has absolute value one, and
    the reference point is reduced modulo the lineality space of the funk
    cone.  Equality of canonical forms is used as identity of Busemann
    points; the horofunction itself is available through `busemann_eval`.
    """

    cone: PolyCone
    x: Vector
    x_active: frozenset[int]
    funk_index: frozenset[int]
    funk_cone: PolyCone
    p: Vector
    base: Vector


def _reduce_mod_subspace(point: Vector, basis: Sequence[Vector]) -> Vector:
    """Zero the coordinates of `point` along the pivot directions of the subspace."""
    if not basis:
        return point
    reduced, pivots = rref(basis)
    out = list(point)
    for row, c in zip(reduced, pivots):
        factor = out[c]
        if factor != 0:
            out = [v - factor * w for v, w in zip(out, row)]
    return tuple(out)


def busemann_point(
    cone: PolyCone,
    x: Sequence[Fraction],
    funk_index: Iterable[int],
    p: Sequence[Fraction],
    base: Sequence[Fraction],
) -> BusemannPoint:
    """Validate and canonicalise the data of a Busemann point."""
    if not cone.is_proper:
        raise DomainError("Busemann points require a proper cone")
    x = vector(x)
    base = vector(base)
    loc = classify_point(cone, x)
    if not loc.is_boundary or all(c == 0 for c in x):
        raise DomainError("boundary point must lie on the cone boundary, away from the apex")
    if not classify_point(cone, base).is_interior:
        raise DomainError("base-point must be interior")
    index = frozenset(funk_index)
    if not index:
        raise DomainError("funk cone index set must be nonempty")
    if not index <= loc.active:
        raise DomainError("funk cone indices must be active at the boundary point")
    funk_cone = subcone(cone, index)
    p = vector(p)
    if not classify_point(funk_cone, p).is_interior:
        raise DomainError("reference point must be interior to the funk cone")
    p_reduced = _reduce_mod_subspace(p, funk_cone.lineality_basis)
    return BusemannPoint(
        cone=cone,
        x=_unit_lead(x),
        x_active=loc.active,
        funk_index=index,
        funk_cone=funk_cone,
        p=_unit_lead(p_reduced),
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


def busemann_eval(point: BusemannPoint, w: Sequence[Fraction]) -> LogValue:
    """Exact horofunction value at an interior point; zero at the base-point."""
    w = vector(w)
    if not classify_point(point.cone, w).is_interior:
        raise DomainError("horofunctions are evaluated at interior points")
    arg = (
        m_ratio(point.x, w, point.cone)
        * m_ratio(w, point.p, point.funk_cone)
        / (m_ratio(point.x, point.base, point.cone) * m_ratio(point.base, point.p, point.funk_cone))
    )
    return LogValue(arg)


def _check_comparable(g: BusemannPoint, h: BusemannPoint) -> None:
    if g.cone != h.cone:
        raise DomainError("Busemann points live on different cones")
    if g.base != h.base:
        raise DomainError("Busemann points carry different base-points")


def detour_cost(g: BusemannPoint, h: BusemannPoint) -> LogValue:
    """One-sided cost of reaching h through g.

    Finite exactly when h's boundary point lies in the face of g's and g's
    funk cone is contained in h's; then it splits into a reverse-Funk part
    along the face and a Funk part between the reference points.
    """
    _check_comparable(g, h)
    # Both funk cones are cut from one irredundant facet list, so g's is
    # contained in h's exactly when h's index set is a subset of g's.
    if not (g.x_active <= h.x_active and h.funk_index <= g.funk_index):
        return LogValue.INFINITY
    cone = g.cone
    face = face_of(cone, g.x)
    reverse_part = (
        m_ratio(g.x, g.base, cone)
        * face_m_ratio(h.x, g.x, face)
        / m_ratio(h.x, g.base, cone)
    )
    funk_part = (
        m_ratio(g.base, g.p, g.funk_cone)
        * m_ratio(g.p, h.p, h.funk_cone)
        / m_ratio(g.base, h.p, h.funk_cone)
    )
    return LogValue(reverse_part * funk_part)


def detour_decomposition(g: BusemannPoint, h: BusemannPoint) -> tuple[LogValue, LogValue] | None:
    """(face Hilbert distance, funk-cone Hilbert distance) when finite, else None."""
    _check_comparable(g, h)
    if g.x_active != h.x_active or g.funk_cone != h.funk_cone:
        return None
    face = face_of(g.cone, g.x)
    d_face = LogValue(face_m_ratio(h.x, g.x, face) * face_m_ratio(g.x, h.x, face))
    d_cone = hilbert_cone(g.p, h.p, g.funk_cone)
    return d_face, d_cone


def detour_metric(g: BusemannPoint, h: BusemannPoint) -> LogValue:
    """Symmetrised detour cost; finite exactly within a part.

    When finite the value equals the face Hilbert distance between the
    boundary points plus the Hilbert distance of the reference points in
    the shared funk cone; both routes are computed and compared, and a
    disagreement raises `ArithmeticError`.
    """
    delta = detour_cost(g, h) + detour_cost(h, g)
    decomposition = detour_decomposition(g, h)
    expected = LogValue.INFINITY if decomposition is None else decomposition[0] + decomposition[1]
    if delta != expected:
        raise ArithmeticError(f"detour metric routes disagree: {delta!r} vs {expected!r}")
    return delta


@dataclass(frozen=True)
class PartId:
    """Name of a part: the face's active set and the funk cone's index set."""

    face_active: frozenset[int]
    cone_index: frozenset[int]


def part_of(point: BusemannPoint) -> PartId:
    return PartId(point.x_active, point.funk_index)


def enumerate_parts(cone: PolyCone) -> list[PartId]:
    """All parts: pairs (boundary face, member of the tangent family there)."""
    if not cone.is_proper:
        raise DomainError("part enumeration requires a proper cone")
    out = [
        PartId(active, canonical_index_set(cone, subset))
        for active in face_lattice_active_sets(cone)
        for r in range(1, len(active) + 1)
        for subset in combinations(sorted(active), r)
    ]
    return sorted(out, key=lambda p: (sorted(p.face_active), len(p.cone_index), sorted(p.cone_index)))


def _face_span_dim(cone: PolyCone, active: frozenset[int]) -> int:
    return cone.ambient_dim - rank([cone.facets[i].coeffs for i in sorted(active)])


VERTEX_PART = "vertex"
FACET_PART = "facet"
OTHER_PART = "other"


def _validate_part(cone: PolyCone, part: PartId) -> None:
    if not part.face_active or not part.cone_index:
        raise DomainError("part has empty index data")
    if not part.cone_index <= part.face_active:
        raise DomainError("part cone indices must be active on the face")
    if any(i < 0 or i >= cone.num_facets for i in part.face_active):
        raise DomainError("part indices out of range")
    if part.face_active not in face_lattice_active_sets(cone):
        raise DomainError("face active set does not describe a boundary face")


def classify_part(cone: PolyCone, part: PartId) -> str:
    """Vertex part, facet part, or neither.

    Vertex: the face is an extreme ray and the cone is the full tangent cone
    there.  Facet: the face has top boundary dimension with the full tangent
    cone.  In ambient dimension two a boundary ray is both; it is reported
    as a vertex part.
    """
    _validate_part(cone, part)
    span = _face_span_dim(cone, part.face_active)
    full_tangent = part.cone_index == part.face_active
    if span == 1 and full_tangent:
        return VERTEX_PART
    if span == cone.ambient_dim - 1 and full_tangent:
        return FACET_PART
    return OTHER_PART


def part_dimension(cone: PolyCone, part: PartId) -> int:
    """Detour-metric dimension: (face dimension - 1) + Hilbert dimension of the cone."""
    _validate_part(cone, part)
    span = _face_span_dim(cone, part.face_active)
    return (span - 1) + hilbert_dimension(subcone(cone, part.cone_index))


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
    t = Fraction(t)
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
