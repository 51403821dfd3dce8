"""Shared test fixtures: standard domains and exact random sampling."""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from operator import mul
from pathlib import Path

import hilbertgeom.linalg as linalg
from hilbertgeom import (
    ConstructionError, DomainError, HPolytope, LinearFunctional, PolyCone, cone_from_polytope, lift_to_cone, vector,
)
from hilbertgeom.linalg import _gauss_jordan, _gordan_empty, _integer_rows, _kernel, kernel_basis, rank, rref

F = Fraction


def _unit_lead(coords) -> tuple:
    """Oracle for the unit-lead form: the vector over the absolute value of its leading nonzero entry, in `Fraction`s."""
    lead = abs(next(F(c) for c in coords if c))
    return tuple(F(c) / lead for c in coords)


def _primitive(values) -> tuple:
    """Oracle for the primitive integer row: the values times the lcm of their denominators, over the gcd."""
    values = [F(v) for v in values]
    scale = math.lcm(*[v.denominator for v in values])
    ints = [int(v * scale) for v in values]
    g = math.gcd(*ints) or 1
    return tuple(v // g for v in ints)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def det3(rows) -> Fraction:
    """The determinant of a 3x3 matrix, by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def bench_gen():
    """The benchmark's input generator `bench/gen.py`, loaded from its file without touching `sys.path`."""
    module = sys.modules.get("bench_gen")
    if module is None:
        spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_gen"] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    return module


def linear_system_feasible(equalities, inequalities, nvars) -> bool:
    """Primal oracle: feasibility of {a.x = b} and {c.x >= d} over free rational variables.

    Free variables are split into positive and negative parts and
    inequalities get slack columns, reducing to standard form.  The rows
    are built as integers over one common denominator, which leaves the
    kernel's pivots unchanged.
    """
    system = [*equalities, *inequalities]
    nge = len(inequalities)
    first_slack = len(system) - nge
    scale = math.lcm(*[c.denominator for coeffs, b in system for c in (*coeffs, b)])
    rows, rhs = [], []
    for k, (coeffs, b) in enumerate(system):
        *plus, b = [int(c * scale) for c in (*coeffs, b)]
        row = plus + [-c for c in plus] + [0] * nge
        if k >= first_slack:
            row[2 * nvars + k - first_slack] = -scale
        rows.append(row)
        rhs.append(b)
    return linalg.feasible_standard(rows, rhs)


def in_cone(target, generators) -> bool:
    """Farkas membership: is `target` a nonnegative combination of `generators`?  One LP."""
    if not generators:
        return all(x == 0 for x in target)
    rows = [[g[i] for g in generators] for i in range(len(target))]
    return linalg.feasible_standard(rows, list(target))


def open_cone_feasible(zero_rows, positive_rows, dim) -> bool:
    """Is {x : z.x = 0 for each zero row, p.x > 0 for each positive row} nonempty?

    The face test on `Fraction` rows: the integer kernel of the zero rows
    and the primitive positive rows go into `linalg._gordan_empty`, the
    library's one entry, which cone construction and `cone_subset` call
    directly on rows that are already primitive.
    """
    basis, _ = _kernel(_integer_rows(zero_rows), dim)
    return not _gordan_empty(basis, [_primitive(p) for p in positive_rows])


def _checked_points(cone, *points):
    """The points as `Fraction` vectors, refused for parse or dimension as the library refuses them."""
    out = []
    for point in points:
        point = vector(point)
        cone._check_dim(point)
        out.append(point)
    return out


def fraction_m_ratio(numerator, denominator, cone):
    """Gauge oracle: the largest ratio of the unit-lead `Fraction` facets' values.

    The route `m_ratio` took while the cone stored those facets beside its
    integer rows.
    """
    numerator, denominator = _checked_points(cone, numerator, denominator)
    nums = [f(numerator) for f in cone.facets]
    dens = [f(denominator) for f in cone.facets]
    if any(d <= 0 for d in dens):
        raise DomainError("gauge denominator point must be interior")
    return max(n / d for n, d in zip(nums, dens))


def fraction_face_m_ratio(numerator, denominator, face):
    """Face-gauge oracle: `fraction_m_ratio` over the facets inactive on the face."""
    facets = face.parent.facets
    inactive = [i for i in range(len(facets)) if i not in face.active]
    if not inactive:
        raise DomainError("face has no inactive constraints")
    numerator, denominator = _checked_points(face.parent, numerator, denominator)
    nums = [f(numerator) for f in facets]
    dens = [f(denominator) for f in facets]
    if any(dens[i] != 0 for i in face.active) or any(dens[i] <= 0 for i in inactive):
        raise DomainError("denominator point is not in the relative interior of the face")
    return max(nums[i] / dens[i] for i in inactive)


def fraction_j_eval(cone, x, y, base):
    """`j_eval` oracle: M(y/x) / M(base/x) on `fraction_m_ratio`.

    Refuses base, then x, then a nonpositive M(base/x), then y.
    """
    denominator = fraction_m_ratio(base, x, cone)
    if denominator <= 0:
        raise DomainError("normalising gauge M(base/x) is not positive")
    return fraction_m_ratio(y, x, cone) / denominator


def two_pass_hilbert_cone(x, y, cone):
    """Hilbert-metric oracle: `funk` plus `reverse_funk` on `fraction_m_ratio`, each reading both points.

    The route `hilbert_cone` took before it read each point's row values
    once, in `Fraction` arithmetic.
    """
    from hilbertgeom import LogValue

    forward = fraction_m_ratio(x, y, cone)
    if forward <= 0:
        raise DomainError("Funk metric undefined: gauge argument is not positive")
    reverse = fraction_m_ratio(y, x, cone)
    if reverse <= 0:
        raise DomainError("reverse-Funk metric undefined: gauge argument is not positive")
    return LogValue(forward * reverse)


def two_pass_face_hilbert(x, y, face):
    """Face-metric oracle: the product of the two `fraction_face_m_ratio`s, each reading both points."""
    from hilbertgeom import LogValue

    return LogValue(fraction_face_m_ratio(x, y, face) * fraction_face_m_ratio(y, x, face))


def fraction_cross_ratio(polytope, x, y):
    """Chord oracle: the cross-ratio on each halfspace's `Fraction` slack, the route `hilbert_cross_ratio` took before integer rows.

    Each halfspace <f, .> > b is read once at each point, as the slack
    s = f(.) - b: x and y are interior when every slack is positive, and the
    chord x + t(y - x) meets the halfspace's boundary at t = -s_x / (s_y - s_x).
    """
    from hilbertgeom import LogValue, format_rational

    linalg._refuse("polytope", HPolytope, polytope)
    x = vector(x)
    y = vector(y)
    slacks = []
    for point in (x, y):
        polytope._check_dim(point)
        slacks.append([sum(map(mul, f.coeffs, point), -b) for f, b in polytope.halfspaces])
        if min(slacks[-1]) <= 0:
            raise DomainError(f"point {tuple(map(format_rational, point))} is not interior")
    if x == y:
        return LogValue.zero()
    lower = None
    upper = None
    for sx, sy in zip(*slacks):
        slope = sy - sx
        if slope == 0:
            continue
        t = -sx / slope
        if slope > 0:
            lower = t if lower is None or t > lower else lower
        else:
            upper = t if upper is None or t < upper else upper
    if lower is None or upper is None:
        raise ConstructionError("chord does not meet the boundary twice")
    # Boundary points: x' at t=lower < 0 and y' at t=upper > 1.
    return LogValue(((1 - lower) * upper) / ((-lower) * (upper - 1)))


def four_gauge_busemann_eval(point, w):
    """Horofunction oracle: all four `fraction_m_ratio` gauges at every call, the base gauges included."""
    from hilbertgeom import LogValue, classify_point

    w = vector(w)
    if not classify_point(point.cone, w).is_interior:
        raise DomainError("horofunctions are evaluated at interior points")
    return LogValue(
        fraction_m_ratio(point.x, w, point.cone)
        * fraction_m_ratio(w, point.p, point.funk_cone)
        / (fraction_m_ratio(point.x, point.base, point.cone) * fraction_m_ratio(point.base, point.p, point.funk_cone))
    )


def six_gauge_detour_cost(g, h):
    """Detour-cost oracle: all six `Fraction` gauges at every call, the base gauges of both points included."""
    from hilbertgeom import Face, LogValue

    if g.cone != h.cone:
        raise DomainError("Busemann points live on different cones")
    if g.base != h.base:
        raise DomainError("Busemann points carry different base-points")
    if not (g.x_active <= h.x_active and h.funk_index <= g.funk_index):
        return LogValue.INFINITY
    cone = g.cone
    reverse_part = (
        fraction_m_ratio(g.x, g.base, cone)
        * fraction_face_m_ratio(h.x, g.x, Face(cone, g.x_active))
        / fraction_m_ratio(h.x, g.base, cone)
    )
    funk_part = (
        fraction_m_ratio(g.base, g.p, g.funk_cone)
        * fraction_m_ratio(g.p, h.p, h.funk_cone)
        / fraction_m_ratio(g.base, h.p, h.funk_cone)
    )
    return LogValue(reverse_part * funk_part)


def fraction_busemann_canonical(x, p, funk_cone):
    """Canonical (x, p) of a Busemann point on `Fraction`s, the route `busemann_point` took before integers.

    p is reduced modulo the funk cone's lineality space by the rational
    RREF of its `Fraction` basis, zeroing p at each pivot column; then both
    are rescaled by `_unit_lead`.
    """
    p = vector(p)
    if funk_cone.lineality_basis:
        reduced, pivots = rref(funk_cone.lineality_basis)
        for row, c in zip(reduced, pivots):
            if p[c]:
                p = tuple(v - p[c] * w for v, w in zip(p, row))
    return _unit_lead(vector(x)), _unit_lead(p)


def solve_square(rows, rhs):
    """Solve an n x n linear system exactly; None if there is no unique solution."""
    n = len(rows)
    reduced, pivots, d = _gauss_jordan(_integer_rows([[*row, r] for row, r in zip(rows, rhs)]))
    if pivots != list(range(n)):
        return None
    return tuple(Fraction(row[n], d) for row in reduced)


def farkas_irredundant(rows) -> list:
    """Irredundancy oracle: the indices left after dropping, in order, each row the remaining rows imply.

    One `in_cone` (Farkas) LP per row still kept, on `Fraction` rows: the
    sequential route `PolyCone` took before the singleton face test.
    """
    kept = list(range(len(rows)))
    i = 0
    while i < len(kept):
        others = [rows[j] for j in kept if j != kept[i]]
        if others and in_cone(rows[kept[i]], others):
            del kept[i]
        else:
            i += 1
    return kept


def sequential_cone(facets, dim):
    """Oracle for `PolyCone`: its facets, integer rows and lineality basis, or None for an empty interior.

    The former route: unit-lead functionals without duplicates, sorted; one
    strict-feasibility LP; then `farkas_irredundant` on the sorted list.
    """
    scaled = sorted({LinearFunctional(_unit_lead(LinearFunctional(f).coeffs)) for f in facets}, key=lambda f: f.coeffs)
    if not open_cone_feasible([], [f.coeffs for f in scaled], dim):
        return None
    kept = [scaled[i] for i in farkas_irredundant([f.coeffs for f in scaled])]
    rows = tuple(_primitive(f.coeffs) for f in kept)
    return tuple(kept), rows, tuple(kernel_basis([f.coeffs for f in kept], dim))


def lattice_kernels(cone) -> list:
    """The face lattice's kernels by the slow route: one elimination per subset, in the lattice's order.

    The subsets are those whose kernel the lattice carries: each singleton,
    then each subset of size 2 to n - 1 whose rows fall short of the full
    rank or whose size is the full rank.  Each comes with the integer kernel
    of its rows by `linalg._kernel`, the route the lattice took before it
    carried each subset's kernel from its prefix's.
    """
    n, rows, dim = cone.num_facets, cone._rows, cone.ambient_dim
    full = rank(rows)
    subsets = [(i,) for i in range(n)] + [
        subset
        for r in range(2, n)
        for subset in combinations(range(n), r)
        if r == full or rank([rows[i] for i in subset]) < full
    ]
    return [(subset, _kernel([rows[i] for i in subset], dim)[0]) for subset in subsets]


def face_test_rows(facets, dim):
    """Oracle for `PolyCone`: its integer rows by one singleton face test (one LP) per row, or None when empty.

    The route construction took before the double description: a merged
    row is kept exactly when some x has row . x = 0 and every other row
    . x > 0; the cone is empty when no row passes.  A lone row is kept.
    """
    rows = list({_primitive(vector(f)) for f in facets})
    if len(rows) > 1:
        rows = [r for i, r in enumerate(rows) if not _gordan_empty(_kernel([r], dim)[0], rows[:i] + rows[i + 1 :])]
        if not rows:
            return None
    return tuple(sorted(rows, key=_unit_lead))


def lp_bounded(rows, dim) -> bool:
    """Boundedness oracle on a polytope's integer rows (a, -b): the normals positively span R^dim.

    Vectors positively span R^n exactly when they have rank n and -sum(a_i)
    is a nonnegative combination of them (Davis 1954): one rank and one LP,
    the route `HPolytope` took before the double description.
    """
    normals = [row[:dim] for row in rows]
    if len(_gauss_jordan(normals)[1]) < dim:
        return False
    return in_cone([-sum(column) for column in zip(*normals)], normals)


def kernel_vertices(rows, dim) -> list:
    """Vertex oracle on a polytope's integer rows: one integer kernel per dim-subset, sorted.

    A dim-subset meets in one point x exactly when its kernel is a line
    spanned by v = h (x, 1), h != 0; x is a vertex when every row . v is
    zero or has the sign of h.
    """
    found = set()
    for subset in combinations(rows, dim):
        basis, _ = _kernel(subset, dim + 1)
        if len(basis) != 1 or not basis[0][dim]:
            continue
        v = basis[0]
        h = v[dim]
        if all(sum(a * b for a, b in zip(row, v)) * h >= 0 for row in rows):
            found.add(tuple(Fraction(c, h) for c in v[:dim]))
    return sorted(found)


def lp_polytope(dim, halfspaces):
    """Oracle for `HPolytope`: its vertices, or its refusal message, by `lp_bounded` and `kernel_vertices`."""
    rows = [_primitive((*vector(a), -F(b))) for a, b in halfspaces]
    if not lp_bounded(rows, dim):
        return "polytope is unbounded"
    vertices = kernel_vertices(rows, dim)
    if not vertices:
        return "polytope has no vertices"
    centroid = [sum(column) / len(vertices) for column in zip(*vertices)]
    if not all(sum(a * b for a, b in zip(row, (*centroid, 1))) > 0 for row in rows):
        return "polytope has empty interior"
    return vertices


def primal_cone_subset(inner, outer) -> bool:
    """Containment oracle: every outer functional is a nonnegative combination of the inner ones (Farkas)."""
    generators = [f.coeffs for f in inner.facets]
    return all(in_cone(f.coeffs, generators) for f in outer.facets)


def axes_bounded(dim: int, halfspaces) -> bool:
    """Boundedness oracle: the normals positively span R^dim when their cone holds every +-axis.

    The 2 * dim LPs `HPolytope` asked before one rank and one LP replaced them.
    """
    normals = [vector(a) for a, _ in halfspaces]
    for j in range(dim):
        for sign in (1, -1):
            axis = tuple(F(sign if k == j else 0) for k in range(dim))
            if not in_cone(axis, normals):
                return False
    return True


def oracle_vertices(polytope: HPolytope) -> list:
    """Vertices by solving every dim-subset of halfspace boundaries and testing the solution.

    The rational route `HPolytope` took before its sign test moved to
    integer kernel vectors.
    """
    found = set()
    for idx in combinations(polytope.halfspaces, polytope.dim):
        solution = solve_square([f.coeffs for f, _ in idx], [b for _, b in idx])
        if solution is not None and all(f(solution) >= b for f, b in polytope.halfspaces):
            found.add(solution)
    return sorted(found)


def facet_lists(rng: random.Random, count: int) -> list[tuple[list, int]]:
    """Seeded (functionals, dim): dim 1-4, 1-7 functionals with entries p/q, |p| <= 3, q <= 3.

    About half the lists also get a positive multiple of one functional and
    the sum of two, so merged and implied rows are common; about a third of
    all lists have an empty interior.
    """
    lists = []
    while len(lists) < count:
        dim = rng.randint(1, 4)
        facets = []
        for _ in range(rng.randint(1, 7)):
            f = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            if any(f):
                facets.append(f)
        if not facets:
            continue
        if len(facets) > 1 and rng.random() < 0.5:
            a, b = rng.sample(facets, 2)
            facets.append(tuple(F(rng.randint(1, 3), rng.randint(1, 3)) * c for c in a))
            if any(x + y for x, y in zip(a, b)):
                facets.append(tuple(x + y for x, y in zip(a, b)))
        rng.shuffle(facets)
        lists.append((facets, dim))
    return lists


def halfspace_systems(rng: random.Random, count: int) -> list[tuple[int, list]]:
    """Seeded (dim, halfspaces) in dim 1-3, in three shapes taken in turn.

    - free: 1-6 random halfspaces, mostly unbounded;
    - cut box: the box [-1, 1]^dim and 1-3 random cuts, so bounded, and
      sometimes empty or touching the box in a face only;
    - flat box: the box with a halfspace and its opposite, so lower-dimensional
      or empty.
    """
    systems = []
    while len(systems) < count:
        shape = len(systems) % 3
        dim = rng.randint(1, 3)

        def normal():
            while True:
                a = tuple(rng.randint(-3, 3) for _ in range(dim))
                if any(a):
                    return a

        box = [(tuple(s * int(j == i) for j in range(dim)), -1) for i in range(dim) for s in (1, -1)]
        if shape == 0:
            halfspaces = [(normal(), F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(rng.randint(1, 6))]
        elif shape == 1:
            halfspaces = box + [(normal(), F(rng.randint(-2 * dim, 2 * dim), rng.randint(1, 2)))
                                for _ in range(rng.randint(1, 3))]
        else:
            a, b = normal(), F(rng.randint(-2, 2), rng.randint(1, 2))
            halfspaces = box + [(a, b), (tuple(-c for c in a), -b)]
        rng.shuffle(halfspaces)
        systems.append((dim, halfspaces))
    return systems


def unit_square() -> HPolytope:
    return HPolytope(2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])


def simplex2() -> HPolytope:
    return HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])


def interval(lo=0, hi=4) -> HPolytope:
    return HPolytope(1, [((1,), lo), ((-1,), -hi)])


def unit_cube() -> HPolytope:
    halfspaces = []
    for i in range(3):
        plus = tuple(1 if j == i else 0 for j in range(3))
        minus = tuple(-1 if j == i else 0 for j in range(3))
        halfspaces.append((plus, 0))
        halfspaces.append((minus, -1))
    return HPolytope(3, halfspaces)


def polygon(vertices) -> HPolytope:
    """H-representation of a convex polygon from counter-clockwise vertices."""
    pts = [vector(v) for v in vertices]
    halfspaces = []
    m = len(pts)
    for i in range(m):
        p, q = pts[i], pts[(i + 1) % m]
        d = (q[0] - p[0], q[1] - p[1])
        normal = (-d[1], d[0])
        offset = normal[0] * p[0] + normal[1] * p[1]
        halfspaces.append((normal, offset))
    return HPolytope(2, halfspaces)


def pentagon() -> HPolytope:
    return polygon([(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)])


def octahedron():
    """|x| + |y| + |z| < 1: four facets meet at each vertex, so it is not simple."""
    signs = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    return HPolytope(3, [(s, -1) for s in signs])


def square_pyramid():
    """Apex (0, 0, 1) over the square [-1, 1]^2: four facets meet at the apex."""
    sides = [((-1, 0, -1), -1), ((1, 0, -1), -1), ((0, -1, -1), -1), ((0, 1, -1), -1)]
    return HPolytope(3, [((0, 0, 1), 0)] + sides)


def pentagonal_pyramid():
    """Apex (1, 2, 1) over a pentagon: five facets, more than the rank four, meet at the apex."""
    sides = []
    for f, b in pentagon().halfspaces:
        a = f.coeffs
        c = a[0] * 1 + a[1] * 2 - b  # the side through the apex and one base edge
        sides.append(((a[0], a[1], -c), b))
    return HPolytope(3, [((0, 0, 1), 0)] + sides)


def square_with_line():
    """The square's cone times a line: four facets of rank three in R^4."""
    return PolyCone([(1, 0, 0, 0), (-1, 0, 1, 0), (0, 1, 0, 0), (0, -1, 1, 0)], 4)


def _circumscribed(dim: int, points) -> HPolytope:
    """{x : <u, x> < 1 for each u}: tangent to the unit sphere at each point u."""
    return HPolytope(dim, [(tuple(-c for c in u), -1) for u in points])


def tangent_polygon(rng: random.Random, m: int) -> HPolytope:
    """A seeded m-gon circumscribed about the unit circle.

    Tangent points are rational points ((1 - t^2), 2t) / (1 + t^2) with
    t = tan(theta / 2), one per angular bin, so no three facet lines meet.
    """
    points = []
    for k in range(m):
        theta = 2 * math.pi * (k + rng.uniform(0.3, 0.7)) / m
        t = F(math.tan(theta / 2)).limit_denominator(40)
        points.append(((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))
    return _circumscribed(2, points)


def tangent_polytope3(rng: random.Random, m: int) -> HPolytope:
    """A seeded simple 3-polytope with m facets, circumscribed about the unit sphere.

    Tangent points are inverse stereographic images of small rationals;
    no four of them are coplanar, so no four facet planes share a point
    and every four lifted facet functionals are independent.
    """
    while True:
        points = set()
        while len(points) < m:
            a, b = (F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(2))
            s = a * a + b * b
            points.add((2 * a / (s + 1), 2 * b / (s + 1), (s - 1) / (s + 1)))
        points = sorted(points)
        lifted = [(*u, F(1)) for u in points]
        if any(rank([lifted[i] for i in quad]) < 4 for quad in combinations(range(m), 4)):
            continue
        try:
            return _circumscribed(3, points)
        except ConstructionError:  # unbounded: the points miss an open hemisphere
            continue


def interior_sample(polytope: HPolytope, rng: random.Random, hi: int = 12):
    """Exact interior point: positive rational convex combination of the vertices."""
    weights = [F(rng.randint(1, hi)) for _ in polytope.vertices]
    total = sum(weights)
    point = [F(0)] * polytope.dim
    for w, v in zip(weights, polytope.vertices):
        for i, c in enumerate(v):
            point[i] += w * c
    return tuple(c / total for c in point)


def distinct_interior_pair(polytope: HPolytope, rng: random.Random):
    while True:
        x = interior_sample(polytope, rng)
        y = interior_sample(polytope, rng)
        if x != y:
            return x, y


def boundary_sample(polytope: HPolytope, rng: random.Random):
    """Point on the boundary: a vertex or a proper combination of two vertices.

    An interval's only boundary points are its two vertices.
    """
    verts = list(polytope.vertices)
    if rng.random() < 0.25 or polytope.dim == 1:
        return rng.choice(verts)
    while True:
        a, b = rng.sample(verts, 2)
        lam = rng.choice([F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)])
        p = tuple(lam * x + (1 - lam) * y for x, y in zip(a, b))
        on_facet = any(f(p) == off for f, off in polytope.halfspaces)
        inside = all(f(p) >= off for f, off in polytope.halfspaces)
        if inside and on_facet:
            return p


def cone_and_lift(polytope: HPolytope):
    return cone_from_polytope(polytope), lift_to_cone


def facet_index(cone, coeffs) -> int:
    """Position of a functional (given by raw coefficients) in the canonical list."""
    target = _unit_lead(vector(coeffs))
    for i, f in enumerate(cone.facets):
        if f.coeffs == target:
            return i
    raise AssertionError(f"functional {coeffs} not a facet of {cone}")


def boundary_face_points(polytope, cone, active, weight_patterns):
    """Boundary points whose active set is exactly `active`.

    Takes strict positive combinations of the polytope vertices lying on the
    face; patterns that land on a smaller face are skipped.
    """
    from hilbertgeom import classify_point

    on_face = [
        v
        for v in polytope.vertices
        if active <= classify_point(cone, lift_to_cone(v)).active
    ]
    points = []
    for weights in weight_patterns:
        ws = [F(w) for w in weights[: len(on_face)]]
        if len(ws) < len(on_face):
            ws += [F(1)] * (len(on_face) - len(ws))
        total = sum(ws)
        combo = [F(0)] * polytope.dim
        for w, v in zip(ws, on_face):
            for i, c in enumerate(v):
                combo[i] += w * c
        z = lift_to_cone(tuple(c / total for c in combo))
        if classify_point(cone, z).active == active:
            points.append(z)
    unique = []
    for p in points:
        if p not in unique:
            unique.append(p)
    return unique


def small_point_in_subcone_outside(cone, index_set):
    """A point satisfying the subset constraints strictly and violating another."""
    from itertools import product as iproduct

    from hilbertgeom import classify_point

    dim = cone.ambient_dim
    others = [i for i in range(cone.num_facets) if i not in index_set]
    facets = cone.facets
    for cand in iproduct(range(-2, 3), repeat=dim):
        if all(c == 0 for c in cand):
            continue
        vals = [f(vector(cand)) for f in facets]
        if all(vals[i] > 0 for i in index_set) and any(vals[j] < 0 for j in others):
            return vector(cand)
    return None


def distinct_reference_points(cone, base, x, index_set, count):
    """Reference points in the given funk cone with distinct canonical forms."""
    from hilbertgeom import busemann_point

    # Fixed candidates: the chosen reference points must not depend on the
    # base point, or base-point independence checks would be vacuous.
    candidates = [
        lift_to_cone((F(5, 9), F(4, 9))),
        lift_to_cone((F(1, 3), F(2, 3))),
        lift_to_cone((F(2, 3), F(1, 3))),
        lift_to_cone((F(1, 4), F(1, 2))),
        lift_to_cone((F(1, 2), F(1, 4))),
        lift_to_cone((F(1, 5), F(4, 5))),
    ]
    outside = small_point_in_subcone_outside(cone, index_set)
    if outside is not None:
        candidates.insert(2, outside)
    chosen = []
    seen = set()
    for p in candidates:
        candidate = busemann_point(cone, x, index_set, p, base)
        if candidate.p not in seen:
            seen.add(candidate.p)
            chosen.append(candidate)
        if len(chosen) == count:
            return chosen
    raise AssertionError("could not find enough distinct reference points")


def square_busemann_sample(base=None):
    """A spread of Busemann points on the unit-square cone.

    Three boundary rays per facet part, three reference points per vertex
    part, and one point in each remaining part; 32 points in total.
    """
    from hilbertgeom import busemann_point, cone_from_polytope, face_lattice_active_sets

    polytope = unit_square()
    cone = cone_from_polytope(polytope)
    if base is None:
        base = lift_to_cone((F(1, 2), F(1, 2)))
    points = []
    patterns = [(1, 1), (1, 3), (3, 1)]
    fixed_p = lift_to_cone((F(5, 9), F(4, 9)))
    for active in face_lattice_active_sets(cone):
        xs = boundary_face_points(polytope, cone, active, patterns)
        if len(xs) > 1:
            # facet part: vary the boundary ray, full tangent cone only
            for x in xs:
                points.append(busemann_point(cone, x, active, fixed_p, base))
        else:
            x = xs[0]
            # vertex part: vary the reference point in the full tangent cone
            points.extend(distinct_reference_points(cone, base, x, active, 3))
            # remaining parts: each strict subset of the active pair
            for j in sorted(active):
                points.extend(distinct_reference_points(cone, base, x, frozenset({j}), 1))
    if len(points) != len(set(points)):
        raise AssertionError("the sample repeats a Busemann point")
    return cone, base, points


def basis_action_group(n: int, flips) -> list:
    """Oracle: the point group as the dedupe on the action that faithfulness replaced.

    Every permutation in lexicographic order, for each flip in turn, with
    zero translation; an element is kept when its images of the basis
    classes e_1, ..., e_n differ from those of every element kept before.
    """
    from itertools import permutations

    from hilbertgeom import SimplexIsometry, VClass, apply_isometry

    size = n + 1
    zero = VClass([0] * size)
    basis = [VClass([int(j == i) for j in range(size)]) for i in range(1, size)]
    first = {}
    for flip in flips:
        for perm in permutations(range(size)):
            g = SimplexIsometry(zero, perm, flip)
            first.setdefault(tuple(apply_isometry(g, b) for b in basis), g)
    return list(first.values())


def loop_int_log(q, base):
    """Oracle for `simplex._int_log`: divide by the base once per unit of the exponent, the route it took before.

    Quadratic in the exponent, on ever longer `Fraction`s: about 1.2 s at base 2 and exponent 2^16.
    """
    if base < 1:
        return -loop_int_log(q, 1 / base)
    if q == 1:
        return 0
    k = 0
    if q > 1:
        while q > 1:
            q /= base
            k += 1
    else:
        while q < 1:
            q *= base
            k -= 1
    if q != 1:
        raise DomainError("coordinate is not an exact power of the base")
    return k
