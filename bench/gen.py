"""Seeded input generator for the hilbertgeom benchmark.

Standard library only, and independent of the library under test: every
domain comes with its vertices computed here, so the benchmark can check
the library's vertex enumeration and part census against them.

Domains are circumscribed about the unit circle or sphere.  Each facet is
the tangent hyperplane <u, x> = 1 at a rational point u of the circle or
sphere, stored in the library's convention as the halfspace
<-u, x> > -1.  Every facet is irredundant (it touches the ball at u) and
the origin is interior.  Generated 3-polytopes are simple: exactly three
facets meet at each vertex, so the census formulas in `census` hold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

F = Fraction

DEFAULT_SEED = 1
# Reserved for confirming a claimed gain; do not tune against it.
HELDOUT_SEED = 7919

SMALL_DEN = 12
LARGE_DEN = 2**40


@dataclass(frozen=True)
class Domain:
    """An H-polytope {x : <a, x> > b} with its vertices computed here."""

    name: str
    dim: int
    halfspaces: tuple  # ((normal, offset), ...) with Fraction entries
    vertices: tuple  # sorted, Fraction entries

    @property
    def num_facets(self) -> int:
        return len(self.halfspaces)

    def is_interior(self, x) -> bool:
        return all(_dot(a, x) > b for a, b in self.halfspaces)

    def facet_vertices(self, k: int) -> list:
        a, b = self.halfspaces[k]
        return [v for v in self.vertices if _dot(a, v) == b]


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _solve(rows, rhs):
    """Unique solution of a square rational system, or None (Gaussian elimination)."""
    n = len(rows)
    m = [list(r) + [c] for r, c in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [v - f * w for v, w in zip(m[i], m[col])]
    return tuple(m[i][n] for i in range(n))


# ---------------------------------------------------------------------------
# Fixed domains shared with the test suite's fixtures


def _from_halfspaces(name, dim, halfspaces, vertices) -> Domain:
    hs = tuple((tuple(F(c) for c in a), F(b)) for a, b in halfspaces)
    vs = tuple(sorted(tuple(F(c) for c in v) for v in vertices))
    return Domain(name, dim, hs, vs)


def square() -> Domain:
    return _from_halfspaces(
        "square", 2,
        [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
    )


def pentagon() -> Domain:
    verts = [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]
    halfspaces = []
    for i, p in enumerate(verts):
        q = verts[(i + 1) % len(verts)]
        normal = (p[1] - q[1], q[0] - p[0])
        halfspaces.append((normal, normal[0] * p[0] + normal[1] * p[1]))
    return _from_halfspaces("pentagon", 2, halfspaces, verts)


def cube() -> Domain:
    halfspaces = []
    for i in range(3):
        halfspaces.append((tuple(1 if j == i else 0 for j in range(3)), 0))
        halfspaces.append((tuple(-1 if j == i else 0 for j in range(3)), -1))
    verts = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    return _from_halfspaces("cube", 3, halfspaces, verts)


# ---------------------------------------------------------------------------
# Rational points on the unit circle and sphere
#
# Tangent points are lattice points of one circle or sphere, scaled to
# radius one, so every facet normal has the same denominator and op costs
# vary with the shape rather than with the size of its numbers.

CIRCLE_RADIUS = 325  # 60 lattice points
SPHERE_RADIUS = 21  # 270 lattice points


def _lattice_circle():
    r = CIRCLE_RADIUS
    pts = set()
    for a in range(-r, r + 1):
        b = math.isqrt(r * r - a * a)
        if a * a + b * b == r * r:
            pts.update({(F(a, r), F(b, r)), (F(a, r), F(-b, r))})
    return sorted(pts)


def _lattice_sphere():
    r = SPHERE_RADIUS
    pts = set()
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            c2 = r * r - a * a - b * b
            c = math.isqrt(c2) if c2 >= 0 else -1
            if c >= 0 and c * c == c2:
                pts.add((F(a, r), F(b, r), F(c, r)))
                pts.add((F(a, r), F(b, r), F(-c, r)))
    return sorted(pts)


CIRCLE = _lattice_circle()
SPHERE = _lattice_sphere()


def _tangent_halfspaces(points):
    return tuple((tuple(-c for c in u), F(-1)) for u in points)


def tangent_polygon(rng: random.Random, m: int, name: str = "polygon") -> Domain:
    """An m-gon circumscribed about the unit circle, one tangent point per angular bin.

    Each point lies in the middle half of its bin, so neighbours are
    distinct, sorted by angle, and less than pi apart: the polygon is bounded.
    """
    if m < 3:
        raise ValueError("a polygon needs at least three sides")
    offset = rng.random() * 2 * math.pi / m
    points = []
    for k in range(m):
        lo = offset + 2 * math.pi * (k + 0.25) / m
        hi = offset + 2 * math.pi * (k + 0.75) / m
        choices = [p for p in CIRCLE
                   if any(lo <= math.atan2(p[1], p[0]) + turn <= hi for turn in (0, 2 * math.pi))]
        points.append(rng.choice(choices))
    verts = []
    for k in range(m):
        u, w = points[k], points[(k + 1) % m]
        verts.append(_solve([u, w], [F(1), F(1)]))
    return Domain(name, 2, _tangent_halfspaces(points), tuple(sorted(verts)))


def _hull_vertices(points):
    """Vertices of the polytope {<u, x> <= 1} from the convex hull of the u.

    Returns None unless the hull is simplicial (the polytope is simple) and
    holds the origin strictly inside (the polytope is bounded).
    """
    verts = []
    for i, j, k in combinations(range(len(points)), 3):
        p, q, r = points[i], points[j], points[k]
        e1 = tuple(a - b for a, b in zip(q, p))
        e2 = tuple(a - b for a, b in zip(r, p))
        normal = (
            e1[1] * e2[2] - e1[2] * e2[1],
            e1[2] * e2[0] - e1[0] * e2[2],
            e1[0] * e2[1] - e1[1] * e2[0],
        )
        sides = [_dot(normal, tuple(a - b for a, b in zip(points[l], p)))
                 for l in range(len(points)) if l not in (i, j, k)]
        if any(s == 0 for s in sides):
            if all(s <= 0 for s in sides) or all(s >= 0 for s in sides):
                return None  # four tangent points on one hull facet
            continue
        if all(s < 0 for s in sides):
            origin_side = -_dot(normal, p)
        elif all(s > 0 for s in sides):
            origin_side = _dot(normal, p)
        else:
            continue
        if origin_side >= 0:
            return None  # origin on or outside the hull: unbounded polytope
        verts.append(_solve([p, q, r], [F(1), F(1), F(1)]))
    return verts


def tangent_polytope3(rng: random.Random, m: int, name: str = "polytope3") -> Domain:
    """A simple 3-polytope with m facets circumscribed about the unit sphere."""
    if m < 4:
        raise ValueError("a 3-polytope needs at least four facets")
    min_cos = math.cos(1.4 / math.sqrt(m))
    while True:
        points = []
        while len(points) < m:
            u = rng.choice(SPHERE)
            if all(float(_dot(u, w)) < min_cos for w in points):
                points.append(u)
        verts = _hull_vertices(points)
        if verts is not None and len(verts) == 2 * m - 4:
            return Domain(name, 3, _tangent_halfspaces(points), tuple(sorted(verts)))


# ---------------------------------------------------------------------------
# Points


def interior_point(rng: random.Random, domain: Domain, large: bool) -> tuple:
    """A strictly interior rational point with small (<= 12) or large (~2^40) denominators."""
    lo = [min(v[i] for v in domain.vertices) for i in range(domain.dim)]
    hi = [max(v[i] for v in domain.vertices) for i in range(domain.dim)]
    while True:
        point = []
        for a, b in zip(lo, hi):
            q = LARGE_DEN + 2 * rng.randrange(1 << 20) + 1 if large else rng.randint(1, SMALL_DEN)
            lo_n = math.floor(a * q) + 1
            hi_n = math.ceil(b * q) - 1
            point.append(F(rng.randint(lo_n, hi_n), q) if lo_n <= hi_n else F(lo_n, q))
        point = tuple(point)
        if domain.is_interior(point):
            return point


def relative_interior(rng: random.Random, vertices) -> tuple:
    """A positive rational combination of the given vertices."""
    weights = [F(rng.randint(1, SMALL_DEN)) for _ in vertices]
    total = sum(weights)
    dim = len(vertices[0])
    return tuple(sum(w * v[i] for w, v in zip(weights, vertices)) / total for i in range(dim))


def lift(point) -> tuple:
    return tuple(point) + (F(1),)


@dataclass(frozen=True)
class BusemannSpec:
    """Data of a Busemann point before the library resolves facet indices.

    `x` is a lifted boundary point and `p` a lifted interior point of the
    domain (hence interior to every tangent-family cone).  `single` selects
    the funk cone: False for the full tangent cone at x, True for the cone
    of the lowest active facet alone.  Specs with equal `group` lie in one
    part, so their detour metric is finite; across groups it is infinite.
    """

    group: int
    x: tuple
    single: bool
    p: tuple


def busemann_specs(rng: random.Random, domain: Domain, pairs: int = 2) -> list:
    """Two specs per group: vertex parts, facet parts and vertex/single-facet parts."""
    specs = []
    group = 0
    facets = rng.sample(range(domain.num_facets), pairs)
    verts = rng.sample(range(len(domain.vertices)), pairs)
    for k in facets:
        on_facet = domain.facet_vertices(k)
        for _ in range(2):
            x = lift(relative_interior(rng, on_facet))
            specs.append(BusemannSpec(group, x, False, lift(interior_point(rng, domain, False))))
        group += 1
    for single in (False, True):
        for k in verts:
            x = lift(domain.vertices[k])
            for _ in range(2):
                specs.append(BusemannSpec(group, x, single, lift(interior_point(rng, domain, False))))
            group += 1
    return specs


# ---------------------------------------------------------------------------
# Variation classes


def vclass_pairs(rng: random.Random, n: int, count: int) -> list:
    """Pairs of coordinate tuples of length n+1 with entries k/12, |k| <= 24."""
    def one():
        return tuple(F(rng.randint(-24, 24), 12) for _ in range(n + 1))
    return [(one(), one()) for _ in range(count)]


# ---------------------------------------------------------------------------
# Census of a simple polytope's parts


def census(domain: Domain) -> dict:
    """Expected part counts of a simple polytope.

    A face with k active facets carries 2^k - 1 parts, one per nonempty
    facet subset, since every subset of an irredundant facet list is
    irredundant.  Vertices have `dim` active facets, facets one.
    """
    return {
        "vertex": len(domain.vertices),
        "facet": domain.num_facets,
        "total": sum(2 ** len(s) - 1 for s in face_active_sets(domain)),
    }


def face_active_sets(domain: Domain) -> set:
    """Active facet sets of the nonempty proper faces.

    The vertex-facet incidences closed under intersection, after Kaibel and
    Pfetsch: the facets containing the join of two faces are those that
    contain both.
    """
    incid = {frozenset(i for i, (a, b) in enumerate(domain.halfspaces) if _dot(a, v) == b)
             for v in domain.vertices}
    faces = set(incid)
    frontier = set(incid)
    while frontier:
        frontier = {s & t for s in frontier for t in incid} - faces - {frozenset()}
        faces |= frontier
    return faces
