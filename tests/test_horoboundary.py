"""Busemann points, detour cost and metric, parts, and horofunction limits."""

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations

import pytest

from hilbertgeom import (
    DomainError,
    LogValue,
    PartId,
    PolyCone,
    busemann_eval,
    busemann_from_line,
    busemann_point,
    classify_part,
    classify_point,
    cone_from_polytope,
    detour_cost,
    detour_decomposition,
    detour_metric,
    enumerate_parts,
    face_lattice_active_sets,
    gromov_product,
    hilbert_cone,
    horolimit_residual,
    interior_point,
    lift_to_cone,
    part_dimension,
    part_of,
    positive_orthant,
    reciprocal_map,
    subcone,
    tangent_cone,
)

from helpers import (
    F,
    boundary_face_points,
    boundary_sample,
    facet_index,
    fraction_busemann_canonical,
    interior_sample,
    interval,
    octahedron,
    pentagon,
    simplex2,
    solve_square,
    square_busemann_sample,
    tangent_polytope3,
    unit_cube,
    unit_square,
)


def orthant3():
    return PolyCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


class TestBusemannFromLine:
    def test_orthant_vertex_ray(self):
        cone = orthant3()
        b = (1, 1, 1)
        g = busemann_from_line(cone, (1, 0, 0), b, b)
        assert g.funk_cone == PolyCone([(0, 1, 0), (0, 0, 1)], 3)
        # closed form: -log w_0 + log max(w_1, w_2)
        assert busemann_eval(g, (2, 1, 4)) == LogValue(2)
        assert busemann_eval(g, b) == LogValue.zero()

    def test_square_cone_facet_point(self):
        cone = cone_from_polytope(unit_square())
        b = lift_to_cone((F(1, 2), F(1, 2)))
        g = busemann_from_line(cone, (0, F(1, 2), 1), b, b)
        assert g.funk_cone == PolyCone([(1, 0, 0)], 3)
        assert g.funk_cone == tangent_cone(cone, (0, F(1, 2), 1))

    def test_normalised_at_base_point(self):
        domain = simplex2()
        cone = cone_from_polytope(domain)
        rng = random.Random(47)
        for _ in range(10):
            z = lift_to_cone(boundary_sample(domain, rng))
            y = lift_to_cone(interior_sample(domain, rng))
            b = lift_to_cone(interior_sample(domain, rng))
            g = busemann_from_line(cone, z, y, b)
            assert busemann_eval(g, b) == LogValue.zero()

    def test_rejects_interior_endpoint(self):
        cone = orthant3()
        with pytest.raises(DomainError):
            busemann_from_line(cone, (1, 1, 1), (2, 1, 1), (1, 1, 1))


class TestBusemannCanonicalForm:
    def test_reference_point_reduced_modulo_lineality(self):
        cone = orthant3()
        b = (1, 1, 1)
        g = busemann_point(cone, (1, 0, 0), {0, 1}, (1, 2, 3), b)
        lineal = g.funk_cone.lineality_basis
        assert len(lineal) == 1
        shifted = tuple(2 * p + 5 * z for p, z in zip((1, 2, 3), lineal[0]))
        h = busemann_point(cone, (1, 0, 0), {0, 1}, shifted, b)
        assert g == h
        for w in [(1, 1, 1), (2, 1, 4), (1, 3, 2)]:
            assert busemann_eval(g, w) == busemann_eval(h, w)

    def test_boundary_ray_scaling(self):
        cone = orthant3()
        b = (1, 1, 1)
        g = busemann_point(cone, (1, 0, 0), {0, 1}, (1, 2, 3), b)
        h = busemann_point(cone, (7, 0, 0), {0, 1}, (1, 2, 3), b)
        assert g == h

    def test_rejects_bad_data(self):
        cone = orthant3()
        b = (1, 1, 1)
        with pytest.raises(DomainError):
            busemann_point(cone, (1, 1, 1), {0}, b, b)  # interior x
        with pytest.raises(DomainError):
            busemann_point(cone, (1, 0, 0), set(), b, b)  # empty index set
        with pytest.raises(DomainError):
            busemann_point(cone, (1, 0, 0), {2}, b, b)  # index not active at x
        with pytest.raises(DomainError):
            busemann_point(cone, (1, 0, 0), {0}, (0, -1, 0), b)  # p outside funk cone
        improper = PolyCone([(1, 0, 0), (0, 1, 0)], 3)
        with pytest.raises(DomainError):
            busemann_point(improper, (0, 1, 1), {0}, (1, 1, 0), (1, 1, 0))

    def test_integer_canonical_form_matches_the_fraction_route(self):
        rng = random.Random(20261019)
        checked = reduced = 0
        for polytope in (unit_square(), pentagon(), unit_cube(), octahedron(), tangent_polytope3(random.Random(8), 8)):
            cone = cone_from_polytope(polytope)
            for active in face_lattice_active_sets(cone):
                x = boundary_face_points(polytope, cone, active, [(1, 2, 3, 4)])[0]
                for r in range(1, len(active) + 1):
                    for index in list(combinations(sorted(active), r))[:3]:
                        funk = subcone(cone, index)
                        p = lift_to_cone(interior_sample(polytope, rng, hi=300))
                        for line in funk.lineality_basis:
                            shift = F(rng.randint(-50, 50), rng.randint(1, 2**40))
                            p = tuple(a + shift * b for a, b in zip(p, line))
                        lam = F(rng.randint(1, 2**40), rng.randint(1, 99))
                        g = busemann_point(cone, tuple(lam * c for c in x), index, p, lift_to_cone(interior_point(polytope)))
                        assert (g.x, g.p) == fraction_busemann_canonical(tuple(lam * c for c in x), p, funk)
                        assert all(type(c) is Fraction for c in (*g.x, *g.p))
                        checked += 1
                        reduced += bool(funk.lineality_basis)
        assert checked > 300 and reduced > 200

    def test_distinct_canonical_points_disagree_somewhere(self):
        # The parametrisation is treated as injective; scan a rational grid
        # and report any pair of distinct points whose horofunctions agree
        # everywhere on it.
        cone, base, points = square_busemann_sample()
        ticks = (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(7, 8))
        grid = [(a, c, F(1)) for a in ticks for c in ticks]
        tables = [tuple(busemann_eval(g, w) for w in grid) for g in points]
        agreeing = []
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if tables[i] == tables[j]:
                    agreeing.append((i, j))
        if agreeing:  # pragma: no cover - diagnostic path
            print(f"canonical-form pairs agreeing on the grid: {agreeing}")
        assert not agreeing


class TestDetourCost:
    def test_vanishes_on_the_diagonal(self):
        cone, base, points = square_busemann_sample()
        for g in points[:8]:
            assert detour_cost(g, g) == LogValue.zero()

    def test_different_faces_infinite(self):
        cone = orthant3()
        b = (1, 1, 1)
        g = busemann_from_line(cone, (1, 0, 0), b, b)
        h = busemann_from_line(cone, (0, 1, 0), b, b)
        assert detour_cost(g, h).is_infinite
        assert detour_cost(h, g).is_infinite

    def test_square_facet_worked_example(self):
        cone = cone_from_polytope(unit_square())
        base = lift_to_cone((F(1, 2), F(1, 2)))
        x = (0, F(1, 4), 1)
        y = (0, F(1, 2), 1)
        g = busemann_point(cone, x, classify_point(cone, x).active, base, base)
        h = busemann_point(cone, y, classify_point(cone, y).active, base, base)
        assert detour_cost(g, h) == LogValue(2)
        assert detour_cost(h, g) == LogValue(F(3, 2))
        assert detour_metric(g, h) == LogValue(3)
        d_face, d_cone = detour_decomposition(g, h)
        assert (d_face, d_cone) == (LogValue(3), LogValue.zero())

    def test_one_sided_finiteness(self):
        # The vertex lies in the closed face of the facet point, and with the
        # funk cones matched one detour cost is finite while the other is not.
        cone = cone_from_polytope(unit_square())
        base = lift_to_cone((F(1, 2), F(1, 2)))
        vertex = (0, 0, 1)
        facet_point = (0, F(1, 2), 1)
        facet_active = classify_point(cone, facet_point).active
        g = busemann_point(cone, facet_point, facet_active, base, base)
        h = busemann_point(cone, vertex, facet_active, base, base)
        assert not detour_cost(g, h).is_infinite
        assert detour_cost(h, g).is_infinite
        assert detour_metric(g, h).is_infinite

    def test_vertex_and_facet_points_are_never_at_finite_distance(self):
        cone = cone_from_polytope(unit_square())
        base = lift_to_cone((F(1, 2), F(1, 2)))
        vertex = (0, 0, 1)
        facet_point = (0, F(1, 2), 1)
        g = busemann_point(cone, facet_point, classify_point(cone, facet_point).active, base, base)
        h = busemann_point(cone, vertex, classify_point(cone, vertex).active, base, base)
        # faces differ and neither funk cone contains the other direction needed
        assert detour_cost(g, h).is_infinite
        assert detour_cost(h, g).is_infinite
        assert detour_metric(g, h).is_infinite

    def test_mismatched_base_points_rejected(self):
        cone = orthant3()
        g = busemann_from_line(cone, (1, 0, 0), (1, 1, 1), (1, 1, 1))
        h = busemann_from_line(cone, (1, 0, 0), (1, 1, 1), (1, 2, 1))
        with pytest.raises(DomainError):
            detour_cost(g, h)


class TestDetourMetric:
    def test_finite_exactly_within_parts(self):
        cone, base, points = square_busemann_sample()
        for g in points:
            for h in points:
                delta = detour_metric(g, h)
                assert delta.is_infinite == (part_of(g) != part_of(h))
                assert delta == detour_metric(h, g)
                if g == h:
                    assert delta == LogValue.zero()

    def test_decomposition_identity(self):
        cone, base, points = square_busemann_sample()
        for g in points:
            for h in points:
                if part_of(g) != part_of(h):
                    continue
                d_face, d_cone = detour_decomposition(g, h)
                assert detour_metric(g, h) == d_face + d_cone
                # Oracle: both boundary rays are interior to the cone of the
                # facets inactive on their face, whose Hilbert metric is the face's.
                inactive = subcone(cone, set(range(cone.num_facets)) - g.x_active)
                assert d_face == hilbert_cone(g.x, h.x, inactive)
                assert d_cone == hilbert_cone(g.p, h.p, g.funk_cone)

    @pytest.mark.parametrize("wrong", [(LogValue(2), LogValue.zero()), None])
    def test_route_disagreement_raises(self, monkeypatch, wrong):
        import hilbertgeom.horoboundary as horoboundary

        _, _, points = square_busemann_sample()
        g = points[0]
        monkeypatch.setattr(horoboundary, "detour_decomposition", lambda g, h: wrong)
        with pytest.raises(ArithmeticError):
            detour_metric(g, g)

    def test_triangle_inequality_on_finite_triples(self):
        cone, base, points = square_busemann_sample()
        by_part = defaultdict(list)
        for g in points:
            by_part[part_of(g)].append(g)
        checked = 0
        for group in by_part.values():
            for a in group:
                for b in group:
                    for c in group:
                        dab = detour_metric(a, b).arg
                        dbc = detour_metric(b, c).arg
                        dac = detour_metric(a, c).arg
                        assert dac <= dab * dbc
                        checked += 1
        assert checked > 0

    def test_base_point_independence(self):
        _, _, points = square_busemann_sample()
        _, _, moved = square_busemann_sample(base=lift_to_cone((F(1, 4), F(2, 3))))
        assert len(points) == len(moved)
        for g, g2 in zip(points, moved):
            assert (g.x, g.funk_index, g.funk_cone) == (g2.x, g2.funk_index, g2.funk_cone)
        for i in range(len(points)):
            for j in range(len(points)):
                assert detour_metric(points[i], points[j]) == detour_metric(moved[i], moved[j])

    def test_equivariance_under_permutation_collineation(self):
        cone = orthant3()
        b = (1, 2, 1)
        perm = (1, 2, 0)  # coordinate i moves to position perm[i]

        def act(point):
            out = [F(0)] * 3
            for i, c in enumerate(point):
                out[perm[i]] = F(c)
            return tuple(out)

        index_map = {}
        for i, f in enumerate(cone.facets):
            index_map[i] = facet_index(cone, act(f.coeffs))

        def push(g):
            return busemann_point(
                cone,
                act(g.x),
                {index_map[j] for j in g.funk_index},
                act(g.p),
                act(g.base),
            )

        samples = [
            busemann_point(cone, (1, 0, 0), {0, 1}, (1, 1, 1), b),
            busemann_point(cone, (2, 0, 0), {0, 1}, (1, 3, 1), b),
            busemann_point(cone, (1, 0, 0), {0}, (1, -1, 1), b),
            busemann_point(cone, (1, 1, 0), {0}, (2, 1, 1), b),
            busemann_point(cone, (0, 1, 0), {0, 2}, (1, 1, 2), b),
        ]
        for g in samples:
            for h in samples:
                assert detour_metric(g, h) == detour_metric(push(g), push(h))


class TestReciprocalIsometry:
    """The simplex's isometry that is no collineation, w -> 1/w, acting on the horoboundary.

    On the positive orthant with base (1, ..., 1) it sends the Busemann point
    with face A, cone index I, boundary point x and reference point p to the
    one with face complement(I) and cone index complement(A) (complements in
    the facet set), boundary point 1/p_i on I and 0 elsewhere, and reference
    point 1/x_i off A.  Its funk cone has lineality along A, so the reference
    point's entries there are free, and every image point exercises the
    reduction modulo the lineality space.  Each check is exact.

    Points are named by their facet values y_k = psi_k(x), which carry any
    simplex cone onto the orthant; on the orthant itself that is a
    coordinate permutation, so the map is `reciprocal_map` as it stands.
    """

    SWAP = {"vertex": "facet", "facet": "vertex", "other": "other"}

    @pytest.mark.parametrize(
        "make", [lambda: positive_orthant(3), lambda: positive_orthant(4), lambda: cone_from_polytope(simplex2())],
        ids=["orthant3", "orthant4", "triangle"],
    )
    def test_parts_points_and_detour_map_exactly(self, make):
        cone = make()
        n = cone.num_facets
        every = frozenset(range(n))
        rng = random.Random(20261019 + n)
        rows = [f.coeffs for f in cone.facets]

        def point(values):
            """The point of the cone's space whose facet k has value values[k], and 0 where none is given."""
            return solve_square(rows, [values.get(k, F(0)) for k in range(n)])

        def mirror(part):
            return PartId(every - part.cone_index, every - part.face_active)

        def positive():
            return F(rng.randint(1, 9), rng.randint(1, 9))

        def signed():
            return F(rng.randint(-9, 9), rng.randint(1, 9))

        parts = enumerate_parts(cone)
        assert {mirror(part) for part in parts} == set(parts)
        kinds = Counter()
        for part in parts:
            kind = classify_part(cone, part)
            kinds[kind] += 1
            assert classify_part(cone, mirror(part)) == self.SWAP[kind]
            assert part_dimension(cone, mirror(part)) == part_dimension(cone, part)
            if kind == "vertex":
                assert len(part.face_active) == n - 1  # an extreme ray of the simplex cone
        assert kinds["vertex"] == kinds["facet"] == n

        base = point(dict.fromkeys(every, F(1)))
        points, images = [], []
        for part in parts:
            face, index = part.face_active, part.cone_index
            for _ in range(2):
                x = {k: positive() for k in every - face}
                p = {k: positive() if k in index else signed() for k in every}
                g = busemann_point(cone, point(x), index, point(p), base)
                image_x = point({k: 1 / p[k] for k in index})
                image_p = {k: 1 / x[k] for k in every - face}
                image = busemann_point(cone, image_x, every - face, point({**image_p, **dict.fromkeys(face, F(1))}), base)
                free = point({**image_p, **{k: signed() for k in face}})
                assert busemann_point(cone, image_x, every - face, free, base) == image
                assert part_of(image) == mirror(part)
                for _ in range(3):
                    w = [positive() for _ in range(n)]
                    moved, unmoved = (point(dict(enumerate(values))) for values in (reciprocal_map(w), w))
                    assert busemann_eval(g, moved) == busemann_eval(image, unmoved)
                points.append(g)
                images.append(image)
        same_part = [(i, j) for i in range(len(points)) for j in (i - i % 2, i - i % 2 + 1)]
        pairs = same_part + [tuple(rng.sample(range(len(points)), 2)) for _ in range(100)]
        finite = 0
        for i, j in pairs:
            assert detour_cost(images[i], images[j]) == detour_cost(points[i], points[j])
            distance = detour_metric(points[i], points[j])
            assert detour_metric(images[i], images[j]) == distance
            finite += distance != LogValue.INFINITY
        assert finite >= len(same_part)


class TestParts:
    def test_part_of_examples(self):
        cone = orthant3()
        b = (1, 1, 1)
        active = classify_point(cone, (1, 0, 0)).active
        g = busemann_point(cone, (1, 0, 0), active, b, b)
        assert part_of(g) == PartId(active, active)
        h = busemann_point(cone, (1, 0, 0), {min(active)}, (1, 1, 1), b)
        assert part_of(h) != part_of(g)
        assert detour_metric(g, h).is_infinite
        scaled = busemann_point(cone, (5, 0, 0), active, b, b)
        assert part_of(scaled) == part_of(g)

    @pytest.mark.parametrize(
        "domain,total,census",
        [
            (unit_square(), 16, {"facet": 4, "vertex": 4, "other": 8}),
            (simplex2(), 12, {"facet": 3, "vertex": 3, "other": 6}),
            (interval(0, 4), 2, None),
        ],
    )
    def test_census(self, domain, total, census):
        cone = cone_from_polytope(domain)
        parts = enumerate_parts(cone)
        assert len(parts) == total
        if census is not None:
            counts = Counter(classify_part(cone, p) for p in parts)
            assert counts == census

    def test_every_face_active_set_is_realised_by_a_point(self):
        # Constructive cross-check of the face enumeration behind the parts.
        domain = unit_square()
        cone = cone_from_polytope(domain)
        expected = {
            classify_point(cone, lift_to_cone(v)).active for v in domain.vertices
        }
        verts = list(domain.vertices)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                mid = tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
                loc = classify_point(cone, lift_to_cone(mid))
                if loc.is_boundary:
                    expected.add(loc.active)
        assert expected == {p.face_active for p in enumerate_parts(cone)}

    def test_classify_part_examples(self):
        cone = cone_from_polytope(unit_square())
        vertex_active = classify_point(cone, (0, 0, 1)).active
        facet_active = classify_point(cone, (0, F(1, 2), 1)).active
        assert classify_part(cone, PartId(vertex_active, vertex_active)) == "vertex"
        assert classify_part(cone, PartId(facet_active, facet_active)) == "facet"
        singleton = frozenset([min(vertex_active)])
        assert classify_part(cone, PartId(vertex_active, singleton)) == "other"

    def test_classify_part_rejects_unknown(self):
        cone = cone_from_polytope(unit_square())
        # Opposite facets never vanish together, so {0, 3} is not a face.
        infeasible = frozenset({0, 3})
        assert infeasible not in {p.face_active for p in enumerate_parts(cone)}
        with pytest.raises(DomainError):
            classify_part(cone, PartId(infeasible, infeasible))

    @pytest.mark.parametrize(
        "domain", [unit_square(), simplex2(), pentagon(), unit_cube()]
    )
    def test_maximal_dimension_parts_have_full_tangent_cones(self, domain):
        cone = cone_from_polytope(domain)
        n = cone.ambient_dim - 1
        parts = enumerate_parts(cone)
        dims = {p: part_dimension(cone, p) for p in parts}
        assert max(dims.values()) == n - 1
        maximal = {p for p, d in dims.items() if d == n - 1}
        full_tangent = {p for p in parts if p.cone_index == p.face_active}
        assert maximal == full_tangent

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), pentagon()])
    def test_maximal_parts_are_vertex_and_facet_parts_in_the_plane(self, domain):
        cone = cone_from_polytope(domain)
        n = cone.ambient_dim - 1
        parts = enumerate_parts(cone)
        maximal = {p for p in parts if part_dimension(cone, p) == n - 1}
        named = {p for p in parts if classify_part(cone, p) in ("vertex", "facet")}
        assert maximal == named


class TestHorolimit:
    def test_trivial_at_t_one(self):
        cone = orthant3()
        b = (1, 1, 1)
        res = horolimit_residual(cone, (1, 0, 0), b, b, b, F(1))
        assert res == LogValue.zero()

    def test_orthant_example_decays_monotonically(self):
        cone = orthant3()
        b = (1, 1, 1)
        w = (2, 1, 4)
        mags = []
        for k in range(1, 21):
            res = horolimit_residual(cone, (1, 0, 0), b, b, w, F(1, 2**k))
            a = res.arg
            mags.append(max(a, 1 / a))
        for early, late in zip(mags, mags[1:]):
            assert late <= early
        assert mags[-1] == 1

    def test_general_boundary_rays_decay(self):
        rng = random.Random(53)
        for domain in (unit_square(), simplex2()):
            cone = cone_from_polytope(domain)
            for _ in range(8):
                z = lift_to_cone(boundary_sample(domain, rng))
                y = lift_to_cone(interior_sample(domain, rng))
                b = lift_to_cone(interior_sample(domain, rng))
                w = lift_to_cone(interior_sample(domain, rng))
                mags = []
                for k in range(12, 25, 3):
                    res = horolimit_residual(cone, z, y, b, w, F(1, 2**k))
                    a = res.arg
                    mags.append(max(a, 1 / a))
                for early, late in zip(mags, mags[1:]):
                    assert late <= early
                final = mags[-1]
                assert math.log(final.numerator) - math.log(final.denominator) < 1e-6

    def test_rejects_bad_parameter(self):
        cone = orthant3()
        with pytest.raises(DomainError):
            horolimit_residual(cone, (1, 0, 0), (1, 1, 1), (1, 1, 1), (1, 1, 1), F(2))


class TestGromovDichotomy:
    def test_bounded_toward_distinct_faces_unbounded_toward_a_vertex(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)

        def d(a, b):
            return hilbert_cone(a, b, cone)

        r = lift_to_cone((F(1, 2), F(1, 2)))
        # Sequences approaching boundary points whose chord crosses the interior.
        x0 = lift_to_cone((F(1, 2), F(1, 4)))
        y0 = lift_to_cone((F(1, 4), F(1, 2)))
        bound = 10 * d(x0, y0).to_float()
        separated = []
        same_vertex = []
        for k in range(2, 13, 2):
            eps = F(1, 2**k)
            xk = lift_to_cone((eps, F(1, 4)))
            yk = lift_to_cone((F(1, 4), eps))
            separated.append(0.5 * math.log(float(gromov_product(xk, yk, r, d))))
            uk = lift_to_cone((eps, eps / 2))
            vk = lift_to_cone((eps / 2, eps))
            same_vertex.append(0.5 * math.log(float(gromov_product(uk, vk, r, d))))
        assert all(value <= bound for value in separated)
        assert same_vertex[-1] > same_vertex[0]
        assert same_vertex[-1] > 5.0
