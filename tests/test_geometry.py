"""Cone, polytope, and face primitives."""

from fractions import Fraction

import pytest

from hilbertgeom import (
    ConstructionError,
    DomainError,
    HPolytope,
    LinearFunctional,
    ParseError,
    PolyCone,
    classify_point,
    cone_from_polytope,
    cone_subset,
    face_contains,
    face_of,
    format_rational,
    interior_point,
    lift_to_cone,
    lineality_dim,
    parse_point,
    parse_rational,
    same_face,
    tangent_family,
    vertex_enumeration,
)
from hilbertgeom.linalg import in_cone

from helpers import F, facet_index, interior_sample, interval, simplex2, unit_square

import random


def quadrant3():
    return PolyCone([(1, 0, 0), (0, 1, 0)], 3)


def halfspace3():
    return PolyCone([(1, 0, 0)], 3)


def orthant3():
    return PolyCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


class TestRationals:
    def test_roundtrip(self):
        for text in ["-3/4", "2", "0", "7/3", "-12"]:
            assert format_rational(parse_rational(text)) == format_rational(Fraction(text))

    @pytest.mark.parametrize("bad", ["1.5", "a", "3/0", "1e3", "", "1/2/3", "2."])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_parse_point_dimension_check(self):
        assert parse_point("1/2,3") == (F(1, 2), F(3))
        with pytest.raises(ParseError):
            parse_point("1,2,3", dim=2)


class TestConeFromPolytope:
    def test_unit_square_facets(self):
        cone = cone_from_polytope(unit_square())
        coeff_sets = {f.coeffs for f in cone.facets}
        assert coeff_sets == {
            (F(1), F(0), F(0)),
            (F(-1), F(0), F(1)),
            (F(0), F(1), F(0)),
            (F(0), F(-1), F(1)),
        }
        assert cone.is_proper

    def test_interval_facets(self):
        cone = cone_from_polytope(interval(0, 4))
        coeff_sets = {f.coeffs for f in cone.facets}
        # u > 0 and 4h - u > 0, the latter scaled to leading coefficient -1.
        assert coeff_sets == {(F(1), F(0)), (F(-1), F(4))}

    def test_simplex_cone_linearly_equivalent_to_orthant(self):
        # Explicit rational isomorphism (u, v, h) -> (u, v, h - u - v) carries
        # the simplex cone facets onto the coordinate functionals.
        cone = cone_from_polytope(simplex2())
        matrix = [(F(1), 0, 0), (0, F(1), 0), (F(-1), F(-1), F(1))]

        def pull_back(functional_coeffs):
            # coefficients of x -> <e_i, M x> are the i-th matrix row
            return LinearFunctional(functional_coeffs).canonical()

        mapped = {pull_back(row) for row in matrix}
        assert mapped == set(cone.facets)

    def test_rejects_unbounded(self):
        with pytest.raises(ConstructionError):
            HPolytope(1, [((1,), 0)])

    def test_rejects_empty_interior(self):
        with pytest.raises(ConstructionError):
            HPolytope(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), -1), ((-1, 0), -1)])


class TestClassifyPoint:
    def test_square_cone_examples(self):
        cone = cone_from_polytope(unit_square())
        assert classify_point(cone, (F(1, 2), F(1, 2), 1)).is_interior
        loc = classify_point(cone, (0, F(1, 2), 1))
        assert loc.is_boundary
        assert loc.active == {facet_index(cone, (1, 0, 0))}
        assert classify_point(cone, (-1, 0, 1)).kind == "exterior"

    def test_scaling_invariance(self):
        cone = cone_from_polytope(unit_square())
        rng = random.Random(11)
        points = [(0, F(1, 2), 1), (F(1, 3), F(2, 3), 1), (-1, 0, 1), (0, 0, 0)]
        for w in points:
            for _ in range(5):
                lam = F(rng.randint(1, 40), rng.randint(1, 40))
                scaled = tuple(lam * c for c in w)
                assert classify_point(cone, scaled) == classify_point(cone, w)


class TestFaces:
    def test_orthant_extreme_ray(self):
        cone = orthant3()
        face = face_of(cone, (1, 0, 0))
        assert face.active == {
            facet_index(cone, (0, 1, 0)),
            facet_index(cone, (0, 0, 1)),
        }
        assert len(face.span_basis) == 1

    def test_square_cone_facet_face(self):
        cone = cone_from_polytope(unit_square())
        face = face_of(cone, (0, F(1, 2), 1))
        assert face.active == {facet_index(cone, (1, 0, 0))}
        assert len(face.span_basis) == 2

    def test_interior_gives_whole_cone(self):
        cone = cone_from_polytope(unit_square())
        face = face_of(cone, (F(1, 2), F(1, 2), 1))
        assert face.active == frozenset()
        assert len(face.span_basis) == 3

    def test_rejects_origin_and_exterior(self):
        cone = orthant3()
        with pytest.raises(DomainError):
            face_of(cone, (0, 0, 0))
        with pytest.raises(DomainError):
            face_of(cone, (-1, 0, 0))

    def test_same_face_examples(self):
        cone = orthant3()
        assert same_face(cone, (1, 0, 0), (2, 0, 0))
        assert not same_face(cone, (1, 0, 0), (0, 1, 0))
        square_cone = cone_from_polytope(unit_square())
        assert same_face(square_cone, (0, F(1, 4), 1), (0, F(1, 2), 1))

    def test_membership_monotone_in_active_sets(self):
        cone = cone_from_polytope(unit_square())
        boundary = [
            (0, F(1, 4), 1),
            (0, F(3, 4), 1),
            (0, 0, 1),
            (1, 1, 1),
            (F(1, 3), 0, 1),
            (1, 0, 1),
            (0, 1, 1),
        ]
        for x in boundary:
            fx = face_of(cone, x)
            for y in boundary:
                fy = face_of(cone, y)
                inside = face_contains(fx, y)
                assert inside == (fx.active <= fy.active)
                # same face holds exactly when membership is mutual
                assert same_face(cone, x, y) == (inside and face_contains(fy, x))


class TestLineality:
    def test_examples(self):
        assert lineality_dim(orthant3()) == 0
        assert lineality_dim(halfspace3()) == 2
        assert lineality_dim(quadrant3()) == 1


class TestConeSubset:
    def test_examples(self):
        assert cone_subset(quadrant3(), halfspace3())
        assert not cone_subset(halfspace3(), quadrant3())
        assert cone_subset(orthant3(), orthant3())

    @pytest.mark.parametrize("domain", [unit_square(), simplex2()])
    def test_partial_order_on_tangent_family(self, domain):
        cone = cone_from_polytope(domain)
        cones = [entry.cone for entry in tangent_family(cone)]
        n = len(cones)
        below = [[cone_subset(cones[i], cones[j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            assert below[i][i]
            for j in range(n):
                if below[i][j] and below[j][i]:
                    assert cones[i] == cones[j]
                for k in range(n):
                    if below[i][j] and below[j][k]:
                        assert below[i][k]


class TestVertexEnumeration:
    def test_examples(self):
        assert set(vertex_enumeration(unit_square())) == {
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        }
        assert set(vertex_enumeration(interval(0, 4))) == {(F(0),), (F(4),)}
        assert len(vertex_enumeration(simplex2())) == 3

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), interval(0, 4)])
    def test_vertices_are_boundary_in_the_cone(self, domain):
        cone = cone_from_polytope(domain)
        for v in vertex_enumeration(domain):
            loc = classify_point(cone, lift_to_cone(v))
            assert loc.is_boundary
            assert len(loc.active) >= domain.dim


class TestIrredundance:
    def test_positive_multiple_dropped(self):
        cone = PolyCone([(1, 0, 0), (2, 0, 0), (0, 1, 0)], 3)
        assert cone.num_facets == 2

    def test_orthant_unchanged(self):
        cone = orthant3()
        assert PolyCone(cone.facets, cone.ambient_dim) == cone
        assert cone.num_facets == 3

    def test_conic_combination_dropped(self):
        cone = PolyCone([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
        assert {f.coeffs for f in cone.facets} == {(F(1), F(0), F(0)), (F(0), F(1), F(0))}
        # Independent Farkas oracle for the dropped functional.
        assert in_cone((F(1), F(1), F(0)), [(F(1), F(0), F(0)), (F(0), F(1), F(0))])

    def test_idempotent_and_membership_preserving(self):
        raw = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]
        cone = PolyCone(raw, 3)
        assert PolyCone(cone.facets, cone.ambient_dim) == cone
        rng = random.Random(5)
        for _ in range(100):
            p = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3))
            raw_inside = all(LinearFunctional(c)(p) > 0 for c in raw)
            cone_inside = classify_point(cone, p).is_interior
            assert raw_inside == cone_inside


class TestInteriorPoint:
    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), interval(0, 4)])
    def test_centroid_is_interior(self, domain):
        assert domain.contains_interior(interior_point(domain))

    def test_samples_are_interior(self):
        rng = random.Random(7)
        domain = unit_square()
        for _ in range(30):
            assert domain.contains_interior(interior_sample(domain, rng))
