"""Exact polyhedral geometry: cones, polytopes, faces, point classification.

All coordinates are rationals and every predicate here is decided exactly.
The central object is the open polyhedral cone

    C = {x : psi_i(x) > 0 for each facet functional psi_i},

kept in a canonical form so that cone equality is plain list equality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .linalg import (
    ONE,
    ZERO,
    Vector,
    dot,
    in_cone,
    kernel_basis,
    linear_system_feasible,
    solve_square,
    vector,
)

VERTEX_ENUM_MAX_DIM = 6
VERTEX_ENUM_MAX_FACETS = 32


class HilbertGeometryError(Exception):
    """Base class for all library errors."""


class ParseError(HilbertGeometryError):
    """Malformed rational, point, or polytope input."""


class ConstructionError(HilbertGeometryError):
    """Input does not define a valid cone or polytope."""


class DomainError(HilbertGeometryError):
    """A point lies outside the region an operation requires."""


_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q"; floats and anything else are rejected."""
    token = text.strip()
    if not _RATIONAL.match(token):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_point(text: str, dim: int | None = None) -> Vector:
    """Parse a comma-separated rational point, e.g. "1/2,3,-2/5"."""
    coords = vector(parse_rational(part) for part in text.split(","))
    if dim is not None and len(coords) != dim:
        raise ParseError(f"expected {dim} coordinates, got {len(coords)}")
    return coords


@dataclass(frozen=True)
class LinearFunctional:
    """A nonzero linear form x -> <coeffs, x>."""

    coeffs: Vector

    def __post_init__(self):
        object.__setattr__(self, "coeffs", vector(self.coeffs))
        if all(c == 0 for c in self.coeffs):
            raise ConstructionError("the zero functional is not allowed")

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        return dot(self.coeffs, point)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def canonical(self) -> "LinearFunctional":
        """Scale so the leading nonzero coefficient has absolute value one.

        Only positive scalings are applied, so the halfspace is unchanged.
        """
        coeffs = _unit_lead(self.coeffs)
        return self if coeffs is self.coeffs else LinearFunctional(coeffs)


def _unit_lead(coords: Vector) -> Vector:
    """Positive rescaling that makes the leading nonzero entry +1 or -1.

    The one normaliser for facet functionals and for rays: both matter only
    up to positive scaling.  Returns `coords` itself when already normal.
    """
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise DomainError("cannot normalise the zero vector")
    if abs(lead) == 1:
        return coords
    scale = ONE / abs(lead)
    return tuple(c * scale for c in coords)


def _as_functionals(facets: Iterable) -> list[LinearFunctional]:
    out = []
    for f in facets:
        out.append(f if isinstance(f, LinearFunctional) else LinearFunctional(vector(f)))
    return out


def _strictly_feasible(functionals: Sequence[LinearFunctional], dim: int) -> bool:
    # Scale invariance lets us test psi_i(x) >= 1 instead of psi_i(x) > 0.
    return linear_system_feasible([], [(f.coeffs, ONE) for f in functionals], dim)


def _irredundant(functionals: Sequence[LinearFunctional]) -> list[LinearFunctional]:
    kept = list(functionals)
    i = 0
    while i < len(kept):
        others = [g.coeffs for j, g in enumerate(kept) if j != i]
        if others and in_cone(kept[i].coeffs, others):
            del kept[i]
        else:
            i += 1
    return kept


class PolyCone:
    """Open polyhedral cone with a canonical, irredundant facet list.

    Canonical form: each functional is scaled so its leading nonzero
    coefficient has absolute value one, functionals implied by the others
    are removed, and the list is sorted.  Two cones are equal as sets of
    points exactly when their canonical facet lists coincide.
    """

    __slots__ = ("ambient_dim", "facets", "lineality_basis")

    def __init__(self, facets: Iterable, ambient_dim: int | None = None):
        funcs = _as_functionals(facets)
        if not funcs:
            raise ConstructionError("a cone needs at least one facet functional")
        dims = {f.dim for f in funcs}
        if len(dims) != 1:
            raise ConstructionError("facet functionals have mixed dimensions")
        dim = dims.pop()
        if ambient_dim is not None and ambient_dim != dim:
            raise ConstructionError(f"functionals have dimension {dim}, expected {ambient_dim}")
        scaled = sorted({f.canonical() for f in funcs}, key=lambda f: f.coeffs)
        if not _strictly_feasible(scaled, dim):
            raise ConstructionError("cone has empty interior")
        self._assign(tuple(_irredundant(scaled)), dim)

    def _assign(self, facets: tuple[LinearFunctional, ...], dim: int) -> None:
        """Store an already canonical facet list and its lineality space."""
        self.ambient_dim = dim
        self.facets = facets
        self.lineality_basis = tuple(kernel_basis([f.coeffs for f in facets], dim))

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    def values(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(point) != self.ambient_dim:
            raise DomainError(f"point has dimension {len(point)}, cone lives in {self.ambient_dim}")
        return tuple(f(point) for f in self.facets)

    @property
    def is_proper(self) -> bool:
        return not self.lineality_basis

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyCone):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.facets))

    def __repr__(self) -> str:
        rows = ", ".join("(" + ",".join(format_rational(c) for c in f.coeffs) + ")" for f in self.facets)
        return f"PolyCone(dim={self.ambient_dim}, facets=[{rows}])"


INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


@dataclass(frozen=True)
class PointLocation:
    kind: str
    active: frozenset[int] = frozenset()

    @property
    def is_interior(self) -> bool:
        return self.kind == INTERIOR

    @property
    def is_boundary(self) -> bool:
        return self.kind == BOUNDARY


def classify_point(cone: PolyCone, point: Sequence[Fraction]) -> PointLocation:
    """Interior, boundary (with the active facet set), or exterior."""
    values = cone.values(vector(point))
    if any(v < 0 for v in values):
        return PointLocation(EXTERIOR)
    active = frozenset(i for i, v in enumerate(values) if v == 0)
    if active:
        return PointLocation(BOUNDARY, active)
    return PointLocation(INTERIOR)


@dataclass(frozen=True)
class Face:
    """Face of a cone, realised by its active facet set.

    The face of x is {y in closure(C) : psi_i(y) = 0 for all i active at x};
    `span_basis` spans the linear hull of that set.
    """

    parent: PolyCone
    active: frozenset[int]
    span_basis: tuple[Vector, ...]


def face_of(cone: PolyCone, x: Sequence[Fraction]) -> Face:
    x = vector(x)
    if all(c == 0 for c in x):
        raise DomainError("the face of the origin is not defined")
    loc = classify_point(cone, x)
    if loc.kind == EXTERIOR:
        raise DomainError("point lies outside the closed cone")
    active = loc.active
    span = kernel_basis([cone.facets[i].coeffs for i in sorted(active)], cone.ambient_dim)
    return Face(cone, active, tuple(span))


def face_contains(face: Face, y: Sequence[Fraction]) -> bool:
    """Membership y in face: y in closure(C) with every active functional zero."""
    loc = classify_point(face.parent, vector(y))
    if loc.kind == EXTERIOR:
        return False
    return face.active <= loc.active


def same_face(cone: PolyCone, x: Sequence[Fraction], y: Sequence[Fraction]) -> bool:
    """True when x and y have identical active facet sets (mutual face membership)."""
    return face_of(cone, x).active == face_of(cone, y).active


def lineality_dim(cone: PolyCone) -> int:
    """Dimension of the largest linear subspace contained in the closed cone."""
    return len(cone.lineality_basis)


def cone_subset(inner: PolyCone, outer: PolyCone) -> bool:
    """Exact containment test inner <= outer.

    Farkas: the cone defined by the inner facet list is contained in the
    outer one iff every outer functional is a nonnegative combination of
    inner functionals.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise DomainError("cones live in different ambient spaces")
    generators = [f.coeffs for f in inner.facets]
    return all(in_cone(f.coeffs, generators) for f in outer.facets)


class HPolytope:
    """Bounded open polytope {x : <a_i, x> > b_i} with nonempty interior.

    Construction enumerates the vertices (exactly) and fails on unbounded,
    empty, or lower-dimensional input.
    """

    __slots__ = ("dim", "halfspaces", "vertices")

    def __init__(self, dim: int, halfspaces: Iterable):
        pairs: list[tuple[LinearFunctional, Fraction]] = []
        for normal, offset in halfspaces:
            functional = normal if isinstance(normal, LinearFunctional) else LinearFunctional(vector(normal))
            if functional.dim != dim:
                raise ConstructionError(f"normal of dimension {functional.dim}, expected {dim}")
            pairs.append((functional, Fraction(offset)))
        if not pairs:
            raise ConstructionError("a polytope needs at least one halfspace")
        if dim > VERTEX_ENUM_MAX_DIM or len(pairs) > VERTEX_ENUM_MAX_FACETS:
            raise ConstructionError(
                f"desk-scale guard: dim <= {VERTEX_ENUM_MAX_DIM} and at most "
                f"{VERTEX_ENUM_MAX_FACETS} halfspaces"
            )
        self.dim = dim
        self.halfspaces = tuple(pairs)
        if not self._is_bounded():
            raise ConstructionError("polytope is unbounded")
        verts = self._enumerate_vertices()
        if not verts:
            raise ConstructionError("polytope has no vertices")
        self.vertices = tuple(sorted(verts))
        if not self.contains_interior(interior_point(self)):
            raise ConstructionError("polytope has empty interior")

    def _is_bounded(self) -> bool:
        # Bounded iff the normals positively span the whole space.
        normals = [f.coeffs for f, _ in self.halfspaces]
        for j in range(self.dim):
            for sign in (ONE, -ONE):
                axis = tuple(sign if k == j else ZERO for k in range(self.dim))
                if not in_cone(axis, normals):
                    return False
        return True

    def _enumerate_vertices(self) -> list[Vector]:
        found: set[Vector] = set()
        n = self.dim
        for idx in combinations(range(len(self.halfspaces)), n):
            rows = [self.halfspaces[i][0].coeffs for i in idx]
            rhs = [self.halfspaces[i][1] for i in idx]
            solution = solve_square(rows, rhs)
            if solution is None:
                continue
            if all(f(solution) >= b for f, b in self.halfspaces):
                found.add(solution)
        return sorted(found)

    def contains_interior(self, point: Sequence[Fraction]) -> bool:
        point = vector(point)
        if len(point) != self.dim:
            raise DomainError(f"point has dimension {len(point)}, polytope has {self.dim}")
        return all(f(point) > b for f, b in self.halfspaces)

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim}, halfspaces={len(self.halfspaces)}, vertices={len(self.vertices)})"


def vertex_enumeration(polytope: HPolytope) -> list[Vector]:
    """All vertices, each the solution of dim active constraints."""
    return list(polytope.vertices)


def interior_point(polytope: HPolytope) -> Vector:
    """Vertex centroid; interior whenever the polytope is full-dimensional."""
    n = len(polytope.vertices)
    acc = [ZERO] * polytope.dim
    for v in polytope.vertices:
        for i, c in enumerate(v):
            acc[i] += c
    return tuple(c / n for c in acc)


def cone_from_polytope(polytope: HPolytope) -> PolyCone:
    """Homogenise: embed the polytope at height one.

    Each halfspace <a, x> > b becomes the facet functional
    (x, h) -> <a, x> - b*h on R^(dim+1); the height coordinate is last.
    """
    facets = [tuple(f.coeffs) + (-b,) for f, b in polytope.halfspaces]
    cone = PolyCone(facets, polytope.dim + 1)
    if not cone.is_proper:
        raise ConstructionError("homogenisation produced an improper cone")
    return cone


def lift_to_cone(point: Sequence[Fraction]) -> Vector:
    """Append the height-one coordinate."""
    return vector(point) + (ONE,)


@lru_cache(maxsize=None)
def _face_lattice_cached(cone: PolyCone) -> tuple[frozenset[int], ...]:
    n = cone.num_facets
    if n > 20:
        raise ConstructionError("face enumeration guard: more than 20 facets")
    out: list[frozenset[int]] = []
    indices = range(n)
    for r in range(1, n):
        for subset in combinations(indices, r):
            active = set(subset)
            equalities = [(cone.facets[i].coeffs, ZERO) for i in subset]
            inequalities = [(cone.facets[j].coeffs, ONE) for j in indices if j not in active]
            if linear_system_feasible(equalities, inequalities, cone.ambient_dim):
                out.append(frozenset(active))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


def face_lattice_active_sets(cone: PolyCone) -> list[frozenset[int]]:
    """Active sets of the nonzero relatively open boundary faces.

    A proper nonempty subset I of the facet indices is listed when
    {psi_i = 0 on I, psi_j > 0 off I} has a (necessarily nonzero) solution.
    Results are memoised per canonical cone; cones are immutable values.
    """
    return list(_face_lattice_cached(cone))
