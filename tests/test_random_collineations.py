"""Random collineations: the canonical cone of a linear image is the image's own, up to a facet permutation.

A seeded tangent polygon or simple 3-polytope gives a cone C, and a seeded
invertible rational map A with AC != C gives the cone D = AC, rebuilt by
`PolyCone` from the functionals psi_i o A^-1.  Those functionals carry
non-unit leads and denominators in the thousands, so the rebuild goes
through every step of the integer codec.  Their primitive rows, computed
here in `Fraction`s, are D's rows in some order: that order is the facet
permutation pi.  Everything the library derives from the rows must then
agree under pi: the Hilbert metric, the face lattice, the parts, their
classes and dimensions, and the detour metric on pushed Busemann points.
"""

import random
from itertools import combinations

from hilbertgeom import (
    PartId,
    PolyCone,
    busemann_point,
    classify_part,
    classify_point,
    cone_from_polytope,
    detour_metric,
    enumerate_parts,
    hilbert_cone,
    lift_to_cone,
    part_dimension,
    subcone,
)
from hilbertgeom.geometry import _face_lattice_cached

from helpers import F, _primitive, _unit_lead, interior_sample, tangent_polygon, tangent_polytope3

DENOMINATORS = (1, 3, 7, 64, 997, 1024)


def inverse(a):
    """The inverse of a square `Fraction` matrix by Gauss-Jordan elimination, or None when it is singular."""
    n = len(a)
    m = [[F(v) for v in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [v - m[r][c] * w for v, w in zip(m[r], m[c])]
    return [row[n:] for row in m]


def apply(a, x):
    return tuple(sum(r * c for r, c in zip(row, x)) for row in a)


def random_map(rng, dim):
    """A seeded invertible rational map and its inverse; entries p/q with q up to 1024."""
    while True:
        a = [[F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(dim)] for _ in range(dim)]
        a_inv = inverse(a)
        if a_inv is not None:
            return a, a_inv


def pushed(rng, cone, a_inv):
    """D = AC from the shuffled functionals psi_i o A^-1, and pi: facet i of C is facet pi[i] of D."""
    dim = cone.ambient_dim
    images = [tuple(sum(f.coeffs[k] * a_inv[k][j] for k in range(dim)) for j in range(dim)) for f in cone.facets]
    shuffled = rng.sample(images, len(images))
    image = PolyCone(shuffled)
    where = {row: j for j, row in enumerate(image._rows)}
    pi = [where[_primitive(g)] for g in images]
    assert sorted(pi) == list(range(cone.num_facets))
    return image, pi


def domains():
    rng = random.Random(20260419)
    polytopes = [tangent_polygon(rng, m) for m in (4, 5, 6)] + [tangent_polytope3(rng, m) for m in (5, 6)]
    for polytope in polytopes:
        cone = cone_from_polytope(polytope)
        a, a_inv = random_map(rng, cone.ambient_dim)
        assert apply(a, apply(a_inv, (1,) * cone.ambient_dim)) == (1,) * cone.ambient_dim
        image, pi = pushed(rng, cone, a_inv)
        assert image != cone
        yield rng, polytope, cone, a, image, pi


def face_point(polytope, cone, active, skew):
    """A positive combination of the polytope's vertices on the face, lifted: a point of its relative interior."""
    on_face = [v for v in polytope.vertices if active <= classify_point(cone, lift_to_cone(v)).active]
    weights = [1 + skew * k for k in range(len(on_face))]
    x = lift_to_cone(tuple(sum(w * c for w, c in zip(weights, column)) / sum(weights) for column in zip(*on_face)))
    assert classify_point(cone, x).active == active
    return x


def test_random_collineations_keep_everything_under_the_facet_permutation():
    checked = 0
    for rng, polytope, cone, a, image, pi in domains():
        # The codec's canonical form, read independently: primitive rows sorted by unit-lead form,
        # and `facets` their unit-lead forms.
        assert list(image._rows) == sorted(image._rows, key=_unit_lead)
        assert [f.coeffs for f in image.facets] == [_unit_lead(row) for row in image._rows]

        def move(indices):
            return frozenset(pi[i] for i in indices)

        lattice = _face_lattice_cached(cone)
        assert _face_lattice_cached(image) == {move(face): span for face, span in lattice.items()}

        parts = enumerate_parts(cone)
        assert {PartId(move(p.face_active), move(p.cone_index)) for p in parts} == set(enumerate_parts(image))
        for p in parts:
            q = PartId(move(p.face_active), move(p.cone_index))
            assert classify_part(image, q) == classify_part(cone, p)
            assert part_dimension(image, q) == part_dimension(cone, p)

        samples = [lift_to_cone(interior_sample(polytope, rng)) for _ in range(6)]
        for x, y in combinations(samples, 2):
            assert hilbert_cone(apply(a, x), apply(a, y), image) == hilbert_cone(x, y, cone)
            checked += 1

        # Busemann points: two per part, at two points of the face and with reference points q - s x,
        # off C for s > 0 but in the funk cone.
        base = samples[0]
        points = []
        for p in parts:
            for skew, q in zip((0, 1), samples[1:3]):
                x = face_point(polytope, cone, p.face_active, skew)
                s = rng.choice((0, 1, 3))
                ref = tuple(c - s * d for c, d in zip(q, x))
                g = busemann_point(cone, x, p.cone_index, ref, base)
                h = busemann_point(image, apply(a, g.x), move(g.funk_index), apply(a, g.p), apply(a, base))
                assert (h.x_active, h.funk_cone) == (move(g.x_active), subcone(image, move(g.funk_index)))
                points.append((g, h))
        # Each part's own pair is finite; random pairs are mostly infinite.
        pairs = [(i, i + 1) for i in range(0, len(points), 2)]
        pairs += [tuple(rng.sample(range(len(points)), 2)) for _ in range(20)]
        for i, j in pairs:
            (g, h), (g2, h2) = points[i], points[j]
            assert detour_metric(h, h2) == detour_metric(g, g2)
            checked += 1
    assert checked > 100
