"""Exact polyhedral geometry: cones, polytopes, faces, point classification.

All coordinates are rationals and every predicate here is decided exactly.
The central object is the open polyhedral cone

    C = {x : psi_i(x) > 0 for each facet functional psi_i},

kept in a canonical form so that cone equality is plain tuple equality.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from operator import mul
from typing import Iterable, Sequence

from .linalg import (
    ONE,
    ZERO,
    DomainError,
    HilbertGeometryError,
    ParseError,
    Vector,
    _Frozen,
    _fraction_kernel,
    _gauss_jordan,
    _gordan_empty,
    _kernel,
    _over,
    _primitive,
    _set,
    dot,
    in_cone,
    rational,
    vector,
)

VERTEX_ENUM_MAX_DIM = 6
VERTEX_ENUM_MAX_FACETS = 32
FACE_LATTICE_MAX_FACETS = 20


class ConstructionError(HilbertGeometryError):
    """Input does not define a valid cone or polytope."""


_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p", "-p" or "p/q"; floats and anything else are rejected."""
    if not isinstance(text, str):
        raise ParseError(f"a rational literal must be a string, not {type(text).__name__}")
    token = text.strip()
    if not _RATIONAL.match(token):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError:
        # The regex admits only digits, so this is the int-string length limit.
        raise ParseError(
            f"rational literal of {len(token)} characters exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits per integer"
        ) from None


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_point(text: str, dim: int | None = None) -> Vector:
    """Parse a comma-separated rational point, e.g. "1/2,3,-2/5"."""
    if not isinstance(text, str):
        raise ParseError(f"a point must be a string of comma-separated rationals, not {type(text).__name__}")
    coords = vector(parse_rational(part) for part in text.split(","))
    if dim is not None and len(coords) != dim:
        raise ParseError(f"expected {dim} coordinates, got {len(coords)}")
    return coords


class LinearFunctional(_Frozen):
    """A nonzero linear form x -> <coeffs, x>."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        _set(self, "coeffs", _nonzero(vector(coeffs)))

    def __call__(self, point: Sequence[Fraction]) -> Fraction:
        return dot(self.coeffs, vector(point))

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

    The one normaliser for facet functionals, integer facet rows and rays:
    all matter only up to positive scaling.  Returns `coords` itself when
    already normal, and `Fraction`s otherwise.
    """
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise DomainError("cannot normalise the zero vector")
    if abs(lead) == 1:
        return coords
    scale = ONE / abs(lead)
    return tuple(scale * c for c in coords)


def _nonzero(coeffs: Vector) -> Vector:
    if not any(coeffs):
        raise ConstructionError("the zero functional is not allowed")
    return coeffs


class PolyCone:
    """Open polyhedral cone, stored only as its canonical integer rows.

    Each facet is one primitive integer row, the positive multiple of its
    functional with coprime entries.  Implied rows are removed, and the rest
    are sorted by unit-lead form (leading nonzero entry of absolute value
    one).  Two cones are equal as sets exactly when their rows coincide, so
    equality and hashing read the rows, and so do sign tests and gauges.
    `facets` is a view: the unit-lead `LinearFunctional`s, built on access.

    Construction keeps one primitive row per halfspace and keeps a row
    exactly when its singleton face test succeeds: some x has row . x = 0
    and every other row . x > 0, one kernel and one LP of `dim` rows per
    row (a lone row needs none).  A facet row passes in its facet's relative
    interior; any other row is a nonnegative combination of the facet rows,
    so it fails, whatever the order.  The same tests decide emptiness: an
    empty cone has a Gordan certificate y >= 0, sum(y_j row_j) = 0, on two
    or more rows, so every test fails, while a nonempty one has a facet.
    The cone is refused when no row passes.
    """

    __slots__ = ("ambient_dim", "lineality_basis", "_rows")

    def __init__(self, facets: Iterable, ambient_dim: int | None = None):
        rows = [_primitive(f.coeffs if isinstance(f, LinearFunctional) else _nonzero(vector(f))) for f in facets]
        if not rows:
            raise ConstructionError("a cone needs at least one facet functional")
        dims = {len(row) for row in rows}
        if len(dims) != 1:
            raise ConstructionError("facet functionals have mixed dimensions")
        dim = dims.pop()
        if ambient_dim is not None and ambient_dim != dim:
            raise ConstructionError(f"functionals have dimension {dim}, expected {ambient_dim}")
        rows = list(set(rows))
        if len(rows) > 1:
            rows = [r for i, r in enumerate(rows) if not _gordan_empty(_kernel([r], dim)[0], rows[:i] + rows[i + 1 :])]
            if not rows:
                raise ConstructionError("cone has empty interior")
        self._assign(tuple(sorted(rows, key=_unit_lead)), dim)

    def _assign(self, rows: tuple[tuple[int, ...], ...], dim: int) -> None:
        """Store already canonical integer rows and their lineality space."""
        self.ambient_dim = dim
        self._rows = rows
        self.lineality_basis = tuple(_fraction_kernel(rows, dim))

    @property
    def facets(self) -> tuple[LinearFunctional, ...]:
        """The facet functionals in unit-lead form, built from the rows on each access."""
        return tuple(LinearFunctional(_unit_lead(row)) for row in self._rows)

    @property
    def num_facets(self) -> int:
        return len(self._rows)

    def _check_dim(self, point: Sequence[Fraction]) -> None:
        if len(point) != self.ambient_dim:
            raise DomainError(f"point has dimension {len(point)}, cone lives in {self.ambient_dim}")

    @property
    def is_proper(self) -> bool:
        return not self.lineality_basis

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyCone):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._rows))

    def __repr__(self) -> str:
        rows = ", ".join("(" + ",".join(format_rational(c) for c in f.coeffs) + ")" for f in self.facets)
        return f"PolyCone(dim={self.ambient_dim}, facets=[{rows}])"


INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


class PointLocation(_Frozen):
    __slots__ = ("kind", "active")

    def __init__(self, kind: str, active: frozenset[int] = frozenset()):
        _set(self, "kind", kind)
        _set(self, "active", active)

    @property
    def is_interior(self) -> bool:
        return self.kind == INTERIOR

    @property
    def is_boundary(self) -> bool:
        return self.kind == BOUNDARY


def _row_values(owner: PolyCone | HPolytope, point: Sequence[Fraction]) -> tuple[list[int], int]:
    """The integer rows of a cone or polytope at `point` scaled to integers once, and that scale.

    The point times the lcm s of its denominators is an integer vector, so
    each value is s times the row's `Fraction` value at the point: signs and
    zeros are exact, and two points' values give each rational ratio with
    their scales folded in.  A polytope's rows (a, -b) are one longer than
    its points and read the point at height one, scaled to s; a cone's rows
    stop before that last entry.
    """
    point = vector(point)
    owner._check_dim(point)
    scale = lcm(*[q.denominator for q in point])
    ints = _over(scale, point)
    ints.append(scale)
    return [sum(map(mul, row, ints)) for row in owner._rows], scale


def classify_point(cone: PolyCone, point: Sequence[Fraction]) -> PointLocation:
    """Interior, boundary (with the active facet set), or exterior."""
    values, _ = _row_values(cone, point)
    if any(v < 0 for v in values):
        return PointLocation(EXTERIOR)
    active = frozenset(i for i, v in enumerate(values) if v == 0)
    if active:
        return PointLocation(BOUNDARY, active)
    return PointLocation(INTERIOR)


class Face(_Frozen):
    """Face of a cone, named by its active facet set.

    The face of x is {y in closure(C) : psi_i(y) = 0 for all i active at x}.
    The face lattice maps each boundary face's active set to its span dimension.
    """

    __slots__ = ("parent", "active")

    def __init__(self, parent: PolyCone, active: frozenset[int]):
        _set(self, "parent", parent)
        _set(self, "active", active)


def face_of(cone: PolyCone, x: Sequence[Fraction]) -> Face:
    x = vector(x)
    if all(c == 0 for c in x):
        raise DomainError("the face of the origin is not defined")
    loc = classify_point(cone, x)
    if loc.kind == EXTERIOR:
        raise DomainError("point lies outside the closed cone")
    return Face(cone, loc.active)


def face_contains(face: Face, y: Sequence[Fraction]) -> bool:
    """Membership y in face: y in closure(C) with every active functional zero."""
    loc = classify_point(face.parent, vector(y))
    if loc.kind == EXTERIOR:
        return False
    return face.active <= loc.active


def cone_subset(inner: PolyCone, outer: PolyCone) -> bool:
    """Exact containment test inner <= outer.

    Per outer row psi, the face test with no equations: is {inner rows > 0,
    -psi > 0} empty?  One LP on the primitive integer rows as they are held.
    As `inner` has an interior, Gordan's certificate weighs -psi positively,
    so this is Farkas: psi is a nonnegative combination of the inner rows.
    """
    if inner.ambient_dim != outer.ambient_dim:
        raise DomainError("cones live in different ambient spaces")
    free = _kernel([], inner.ambient_dim)[0]  # the identity: no equations
    return all(_gordan_empty(free, [*inner._rows, tuple(-v for v in psi)]) for psi in outer._rows)


class HPolytope:
    """Bounded open polytope {x : <a_i, x> > b_i} with nonempty interior.

    Construction enumerates the vertices (exactly) and fails on unbounded,
    empty, or lower-dimensional input.  Each halfspace is also kept as the
    primitive integer row of (a_i, -b_i), on which membership is a sign
    test of `_row_values`, the rows at the point at height one.  The
    integer rows go into elimination as they are: boundedness is one rank
    and one LP on their normal parts, and each vertex candidate is one
    integer kernel of a dim-subset of them.
    """

    __slots__ = ("dim", "halfspaces", "vertices", "_rows")

    def __init__(self, dim: int, halfspaces: Iterable):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ConstructionError(f"polytope dim must be an integer of at least 1, not {dim!r}")
        if not isinstance(halfspaces, Iterable):
            raise ConstructionError(f"halfspaces must be an iterable of (normal, offset) pairs, not {halfspaces!r}")
        pairs: list[tuple[LinearFunctional, Fraction]] = []
        for k, entry in enumerate(halfspaces):
            if not isinstance(entry, Sequence) or len(entry) != 2:
                raise ConstructionError(f"halfspace {k} is not a (normal, offset) pair: {entry!r}")
            normal, offset = entry
            functional = normal if isinstance(normal, LinearFunctional) else LinearFunctional(vector(normal))
            if functional.dim != dim:
                raise ConstructionError(f"normal of dimension {functional.dim}, expected {dim}")
            pairs.append((functional, rational(offset)))
        if not pairs:
            raise ConstructionError("a polytope needs at least one halfspace")
        if dim > VERTEX_ENUM_MAX_DIM or len(pairs) > VERTEX_ENUM_MAX_FACETS:
            raise ConstructionError(
                f"desk-scale guard: got dim {dim} with {len(pairs)} halfspaces; the limits are "
                f"dim <= {VERTEX_ENUM_MAX_DIM} and at most {VERTEX_ENUM_MAX_FACETS} halfspaces"
            )
        self.dim = dim
        self.halfspaces = tuple(pairs)
        self._rows = tuple(_primitive((*f.coeffs, -b)) for f, b in pairs)
        if not self._is_bounded():
            raise ConstructionError("polytope is unbounded")
        verts = self._enumerate_vertices()
        if not verts:
            raise ConstructionError("polytope has no vertices")
        self.vertices = tuple(verts)
        if not self.contains_interior(interior_point(self)):
            raise ConstructionError("polytope has empty interior")

    def _is_bounded(self) -> bool:
        """Do the normals positively span the whole space?  Then no direction recedes.

        Vectors positively span R^n exactly when they have rank n and a
        strictly positive linear dependence (Davis 1954), that is when
        -sum(a_i) is a nonnegative combination of the a_i: one LP.  The
        normals are read off the integer rows, each a positive multiple of
        its a_i, which changes neither property.
        """
        normals = [row[: self.dim] for row in self._rows]
        if len(_gauss_jordan(normals)[1]) < self.dim:
            return False
        return in_cone([-sum(column) for column in zip(*normals)], normals)

    def _enumerate_vertices(self) -> list[Vector]:
        """The points where dim halfspace boundaries meet and every halfspace holds, sorted.

        A dim-subset of the integer rows (a_i, -b_i) meets in one point x
        exactly when its kernel is a single line, spanned by v = h (x, 1)
        with h != 0.  That point is a vertex when every row . v is zero or
        has the sign of h.  The test runs on integers; only accepted points
        become `Fraction`s.
        """
        found: set[Vector] = set()
        n = self.dim
        for subset in combinations(self._rows, n):
            basis, _ = _kernel(subset, n + 1)
            if len(basis) != 1 or not basis[0][n]:
                continue
            v = basis[0]
            h = v[n]
            if all(sum(map(mul, row, v)) * h >= 0 for row in self._rows):
                found.add(tuple(Fraction(c, h) for c in v[:n]))
        return sorted(found)

    def _check_dim(self, point: Sequence[Fraction]) -> None:
        if len(point) != self.dim:
            raise DomainError(f"point has dimension {len(point)}, polytope has {self.dim}")

    def contains_interior(self, point: Sequence[Fraction]) -> bool:
        return min(_row_values(self, point)[0]) > 0

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim}, halfspaces={len(self.halfspaces)}, vertices={len(self.vertices)})"


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
    The polytope's integer rows are positive multiples of these functionals.
    """
    cone = PolyCone(polytope._rows, polytope.dim + 1)
    if not cone.is_proper:
        raise ConstructionError("homogenisation produced an improper cone")
    return cone


def lift_to_cone(point: Sequence[Fraction]) -> Vector:
    """Append the height-one coordinate."""
    return vector(point) + (ONE,)


# Bounded: every fresh cone would otherwise stay cached for the life of the process.
@lru_cache(maxsize=16)
def _face_lattice_cached(cone: PolyCone) -> dict[frozenset[int], int]:
    """Each face's active set, mapped to the dimension of the face's linear span.

    Callers only read the dict; it is shared by every hit on `cone`.
    """
    n = cone.num_facets
    if n > FACE_LATTICE_MAX_FACETS:
        raise ConstructionError(
            f"face enumeration guard: the cone has {n} facets, more than {FACE_LATTICE_MAX_FACETS}"
        )
    rows = cone._rows
    dim = cone.ambient_dim
    lineality = len(cone.lineality_basis)
    full_rank = dim - lineality  # the rank of all facet rows
    out = {frozenset({i}): dim - 1 for i in range(n)} if n > 1 else {}
    spanning: set[tuple[int, ...]] = set()  # subsets of the previous size with full rank
    for r in range(2, n):
        larger = set()
        for subset in combinations(range(n), r):
            if r > full_rank and any(subset[:k] + subset[k + 1 :] in spanning for k in range(r)):
                larger.add(subset)
                continue
            # One kernel per subset: it decides spanning, poses the LP and gives the span.
            basis, _ = _kernel([rows[i] for i in subset], dim)
            if r == full_rank and len(basis) == lineality:
                larger.add(subset)
            elif not _gordan_empty(basis, [rows[j] for j in range(n) if j not in subset]):
                out[frozenset(subset)] = len(basis)
        if len(larger) == comb(n, r):
            break  # every larger subset contains a spanning one
        spanning = larger
    return out


def face_lattice_active_sets(cone: PolyCone) -> list[frozenset[int]]:
    """Active sets of the nonzero relatively open boundary faces.

    A proper nonempty subset I of the facet indices is listed when
    {psi_i = 0 on I, psi_j > 0 off I} has a (necessarily nonzero) solution.
    Rank and irredundancy decide most subsets without an LP:

    - every singleton is listed: the constructor kept exactly the rows
      whose singleton face test succeeds, the same question asked here;
    - no subset whose rows reach the rank of the whole list is listed: its
      kernel is the lineality space, where every functional vanishes.  A
      subset larger than that rank reaches it exactly when one of its
      one-smaller subsets does, so only subsets of exactly that size are
      checked by their kernel.  Once every subset of some size reaches it,
      so does every larger one, and the walk stops.

    Each subset left to check takes one integer kernel K of the cone's rows
    as held.  K decides spanning (dim K equals the lineality dimension),
    poses the face test (`linalg._gordan_empty`, one LP) and gives the span
    dimension, dim K.  Sets come ordered by size, then lexicographically,
    and are memoised per cone (cones are immutable values keyed by rows).
    """
    return list(_face_lattice_cached(cone))
