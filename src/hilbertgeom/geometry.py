"""Exact polyhedral geometry: rational parsing, cones, polytopes, faces and point classification.

Every predicate is decided exactly.  An open cone C = {x : psi_i(x) > 0}
is held in a canonical form, so cone equality is tuple equality.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from operator import and_, mul
from typing import Iterable, Sequence

from .linalg import (
    ONE,
    ZERO,
    DomainError,
    HilbertGeometryError,
    ParseError,
    Vector,
    _Frozen,
    _Sealed,
    _extreme_rays,
    _fractions,
    _gordan_empty,
    _identity,
    _kernel_step,
    _primitive,
    _refuse,
    _scaled,
    _set,
    _sorted_over,
    _unit_lead,
    dot,
    kernel_basis,
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
    """Parse "p", "-p" or "p/q"; anything else, a float literal included, is a `ParseError`."""
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
    """"p" or "p/q" in lowest terms; the value is read by `rational`, so a float is refused."""
    q = rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_point(text: str, dim: int | None = None) -> Vector:
    """Parse a comma-separated rational point, e.g. "1/2,3,-2/5"; a bad literal or count is a `ParseError`."""
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


def _nonzero(coeffs: Vector) -> Vector:
    if not any(coeffs):
        raise ConstructionError("the zero functional is not allowed")
    return coeffs


class PolyCone(_Sealed):
    """Open polyhedral cone {x : psi_i(x) > 0}, stored as canonical integer rows and a lineality basis.

    Each facet is one primitive integer row (coprime entries, a positive
    multiple of its functional); implied rows are removed and the rest sorted
    by unit-lead form, so cones are equal as sets exactly when their rows
    coincide.  No functional, a zero or mixed-dimension one, a dimension
    other than `ambient_dim`, or an empty interior is a `ConstructionError`.

    The rows are read off the extreme rays of the closed cone
    (`linalg._extreme_rays`).  The closed cone is the lineality space plus
    the cone of its rays, and every row vanishes on the lineality space, so
    a row that vanishes on every ray vanishes on the closed cone: the
    interior is empty.  Otherwise each row's face is spanned by the rays it
    vanishes on, and a row is a facet exactly when its set of rays is not
    strictly inside another row's.  Two rows with one facet are positive
    multiples of each other, so each facet keeps exactly one row.
    """

    __slots__ = ("ambient_dim", "_rows", "_lineality")

    def __init__(self, facets: Iterable, ambient_dim: int | None = None):
        if not isinstance(facets, Iterable):
            raise ConstructionError(f"facets must be an iterable of facet functionals, not {facets!r}")
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
        _, zeros, lineality = _extreme_rays(rows, dim)
        # Per row, the bit mask of the rays it vanishes on.
        touched = [sum(1 << k for k, z in enumerate(zeros) if z >> i & 1) for i in range(len(rows))]
        if (1 << len(zeros)) - 1 in touched:
            raise ConstructionError("cone has empty interior")
        rows = [r for r, t in zip(rows, touched) if not any(t & u == t != u for u in touched)]
        self._assign(tuple(_sorted_over(rows, [_unit_lead(row) for row in rows])), dim, lineality)

    def _assign(self, rows: tuple[tuple[int, ...], ...], dim: int, lineality: Iterable[Sequence[int]]) -> None:
        """Store already canonical integer rows and an integer basis of the space they vanish on."""
        _set(self, "ambient_dim", dim)
        _set(self, "_rows", rows)
        _set(self, "_lineality", tuple(map(tuple, lineality)))

    @property
    def facets(self) -> tuple[LinearFunctional, ...]:
        """The facet functionals in unit-lead form, built from the rows on each access."""
        return tuple(LinearFunctional(_fractions(row, _unit_lead(row))) for row in self._rows)

    @property
    def lineality_basis(self) -> tuple[Vector, ...]:
        return tuple(kernel_basis(self._rows, self.ambient_dim))

    @property
    def num_facets(self) -> int:
        return len(self._rows)

    def _check_dim(self, point: Sequence[Fraction]) -> None:
        if len(point) != self.ambient_dim:
            raise DomainError(f"point has dimension {len(point)}, cone lives in {self.ambient_dim}")

    @property
    def is_proper(self) -> bool:
        return not self._lineality

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
    """Where a point lies: `kind` is INTERIOR, BOUNDARY or EXTERIOR, `active` the facets zero at a boundary point."""

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
    """The integer rows of a cone or polytope at `point`, and the point's scale s (`_scaled`).

    Each value is s times the row's value at the point, so signs and zeros
    are exact, and two points' values give each ratio once their scales are
    folded in.  A polytope's rows (a, -b) read the point at height one.  A
    non-cone, a float or a wrong dimension is refused.
    """
    if owner.__class__ is not PolyCone and owner.__class__ is not HPolytope:
        _refuse("cone", PolyCone, owner)
    point = vector(point)
    owner._check_dim(point)
    ints, scale = _scaled(point)
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
    """Face {y in closure(C) : psi_i(y) = 0 for i in `active`} of the cone `parent`.

    `active` must be a `frozenset` of the parent's facet indices, empty for
    the cone itself; anything else is a `DomainError`.
    """

    __slots__ = ("parent", "active")

    def __init__(self, parent: PolyCone, active: frozenset[int]):
        _refuse("face active set", frozenset, active)
        _check_indices(parent, active)
        _set(self, "parent", parent)
        _set(self, "active", active)


def _check_indices(cone: PolyCone, indices: Iterable) -> None:
    """Refuse a non-cone, then the first index, in order, that is not an `int`, is a `bool` or names no facet."""
    _refuse("cone", PolyCone, cone)
    n = cone.num_facets
    for i in indices:
        if type(i) is int and 0 <= i < n:
            continue
        if isinstance(i, bool) or not isinstance(i, int):
            raise DomainError(f"facet index {i!r} is not an integer")
        if not 0 <= i < n:
            raise DomainError(f"facet index {i} out of range for a cone with {n} facets")


def face_of(cone: PolyCone, x: Sequence[Fraction]) -> Face:
    """The face of a nonzero point of the closed cone; the origin or an exterior point is a `DomainError`."""
    x = vector(x)
    if all(c == 0 for c in x):
        raise DomainError("the face of the origin is not defined")
    loc = classify_point(cone, x)
    if loc.kind == EXTERIOR:
        raise DomainError("point lies outside the closed cone")
    return Face(cone, loc.active)


def face_contains(face: Face, y: Sequence[Fraction]) -> bool:
    """Membership y in face: y in closure(C) with every active functional zero."""
    _refuse("face", Face, face)
    loc = classify_point(face.parent, vector(y))
    if loc.kind == EXTERIOR:
        return False
    return face.active <= loc.active


def cone_subset(inner: PolyCone, outer: PolyCone) -> bool:
    """Is inner <= outer?  Cones of different ambient dimensions are a `DomainError`.

    Both open cones are the interiors of their closures, so inner <= outer
    exactly when the closure of `inner` lies in {psi >= 0} for every outer
    row psi.  That closure is the lineality space plus the cone of the
    extreme rays, so psi must vanish on the lineality basis and be >= 0 on
    every ray.
    """
    _refuse("cone", PolyCone, inner, outer)
    if inner.ambient_dim != outer.ambient_dim:
        raise DomainError("cones live in different ambient spaces")
    rays = _extreme_rays(inner._rows, inner.ambient_dim)[0]
    return all(
        not any(sum(map(mul, psi, line)) for line in inner._lineality)
        and all(sum(map(mul, psi, ray)) >= 0 for ray in rays)
        for psi in outer._rows
    )


class HPolytope(_Sealed):
    """Bounded open polytope {x : <a_i, x> > b_i} with nonempty interior, and its exact vertices.

    A float is a `ParseError`; malformed, unbounded, empty or
    lower-dimensional input, or input past the `VERTEX_ENUM_MAX_*` guard, is
    a `ConstructionError`.

    The vertices come from the extreme rays of
    K = {(x, h) : (a_i, -b_i) . (x, h) >= 0, h >= 0}.  K's face at h = 0 is
    {a_i . x >= 0}, which is {0} exactly when the polytope is bounded, so the
    polytope is unbounded exactly when K keeps a line or a ray with h = 0.
    Otherwise K is the cone over the closed polytope, its rays (x h, h) give
    the vertices x, and no ray means the polytope is empty.  The interior is
    empty exactly when some row vanishes on every vertex.
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
        _set(self, "dim", dim)
        _set(self, "halfspaces", tuple(pairs))
        _set(self, "_rows", tuple(_primitive((*f.coeffs, -b)) for f, b in pairs))
        rays, zeros, lineality = _extreme_rays(((0,) * dim + (1,), *self._rows), dim + 1)
        if lineality or not all(ray[dim] for ray in rays):
            raise ConstructionError("polytope is unbounded")
        if not rays:
            raise ConstructionError("polytope has no vertices")
        rays = _sorted_over(rays, [ray[dim] for ray in rays])
        _set(self, "vertices", tuple(_fractions(ray[:dim], ray[dim]) for ray in rays))
        if reduce(and_, zeros):  # the rows that vanish on every vertex
            raise ConstructionError("polytope has empty interior")

    def _check_dim(self, point: Sequence[Fraction]) -> None:
        if len(point) != self.dim:
            raise DomainError(f"point has dimension {len(point)}, polytope has {self.dim}")

    def contains_interior(self, point: Sequence[Fraction]) -> bool:
        return min(_row_values(self, point)[0]) > 0

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim}, halfspaces={len(self.halfspaces)}, vertices={len(self.vertices)})"


def interior_point(polytope: HPolytope) -> Vector:
    """Vertex centroid; interior whenever the polytope is full-dimensional."""
    _refuse("polytope", HPolytope, polytope)
    n = len(polytope.vertices)
    acc = [ZERO] * polytope.dim
    for v in polytope.vertices:
        for i, c in enumerate(v):
            acc[i] += c
    return tuple(c / n for c in acc)


def cone_from_polytope(polytope: HPolytope) -> PolyCone:
    """The cone over the polytope at height one: (x, h) -> <a, x> - b h per halfspace, height last.

    The cone is always proper.  For (v, s) in the rows' common kernel and an
    interior point x, each slack at x + t(v - s x) is (1 - s t) times the
    slack at x, so the points with s t <= 0 stay interior; boundedness then
    gives v = s x, and s times a positive slack is zero, so (v, s) = 0.
    """
    _refuse("polytope", HPolytope, polytope)
    return PolyCone(polytope._rows, polytope.dim + 1)


def lift_to_cone(point: Sequence[Fraction]) -> Vector:
    """Append the height-one coordinate."""
    return vector(point) + (ONE,)


# Bounded: every fresh cone would otherwise stay cached for the life of the process.
@lru_cache(maxsize=16)
def _face_lattice_cached(cone: PolyCone) -> dict[frozenset[int], int]:
    """Each face's active set, mapped to the dimension of its span; callers must not change the shared dict."""
    n = cone.num_facets
    if n > FACE_LATTICE_MAX_FACETS:
        raise ConstructionError(
            f"face enumeration guard: the cone has {n} facets, more than {FACE_LATTICE_MAX_FACETS}"
        )
    rows = cone._rows
    dim = cone.ambient_dim
    lineality = len(cone._lineality)
    full_rank = dim - lineality  # the rank of all facet rows
    out = {frozenset({i}): dim - 1 for i in range(n)} if n > 1 else {}
    identity = _identity(dim)
    kernels = {(i,): _kernel_step(identity, rows[i]) for i in range(n)}  # by subset, for the next size to carry from
    spanning: set[tuple[int, ...]] = set()  # subsets of the previous size with full rank
    for r in range(2, n):
        larger = set()
        carried = {}
        for subset in combinations(range(n), r):
            if r > full_rank and any(subset[:k] + subset[k + 1 :] in spanning for k in range(r)):
                larger.add(subset)
                continue
            basis = _kernel_step(kernels[subset[:-1]], rows[subset[-1]])
            if r == full_rank and len(basis) == lineality:
                larger.add(subset)
                continue
            if subset[-1] < n - 1:  # the prefix of a larger subset
                carried[subset] = basis
            if not _gordan_empty(basis, [rows[j] for j in range(n) if j not in subset]):
                out[frozenset(subset)] = len(basis)
        if len(larger) == comb(n, r):
            break  # every larger subset contains a spanning one
        spanning, kernels = larger, carried
    return out


def face_lattice_active_sets(cone: PolyCone) -> list[frozenset[int]]:
    """Active sets of the nonzero relatively open boundary faces, by size and then lexicographically.

    A proper nonempty subset I of the facets is listed when
    {psi_i = 0 on I, psi_j > 0 off I} has a solution.  Every singleton is,
    since every row is a facet.  No subset whose rows reach the rank of the
    whole list is, since its kernel is the lineality space, where every row
    vanishes; a larger subset reaches that rank exactly when a one-smaller
    subset does, and once every subset of a size reaches it, so does every
    larger one.  Each other subset's kernel K is carried from its prefix's
    by one `linalg._kernel_step` on its last row, each singleton's from the
    identity: only a subset that does not span is ever a prefix, and the
    walk keeps those of the previous size.  K decides spanning and poses the
    face test (`linalg._gordan_empty`); neither the test's answer nor dim K,
    the span dimension, depends on which basis of K is carried.  More than
    `FACE_LATTICE_MAX_FACETS` facets is a `ConstructionError`.
    """
    _refuse("cone", PolyCone, cone)
    return list(_face_lattice_cached(cone))
