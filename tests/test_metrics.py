"""Gauge, Funk, Hilbert, cross-ratio, and variation-norm computations."""

import random
from fractions import Fraction

import pytest

from hilbertgeom import (
    DomainError,
    HPolytope,
    LogValue,
    PolyCone,
    almost_geodesic_check,
    classify_point,
    cone_from_polytope,
    face_hilbert,
    face_m_ratio,
    face_of,
    funk,
    gromov_product,
    hilbert_cone,
    hilbert_cross_ratio,
    j_eval,
    lift_to_cone,
    m_ratio,
    reverse_funk,
    variation_distance,
    variation_norm,
)

from helpers import (
    F,
    distinct_interior_pair,
    interior_sample,
    interval,
    pentagon,
    simplex2,
    unit_square,
)


def orthant3():
    return PolyCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


def assert_gauge_is_infimum(numerator, denominator, cone, value):
    """Independent oracle for the gauge.

    The gauge is inf{lam : lam*den - num in closure}; feasibility in lam is
    monotone, so checking membership at the claimed value and failure just
    below pins the infimum.  Random dual functionals give the matching
    lower-bound certificates.
    """
    shifted = tuple(value * d - n for n, d in zip(numerator, denominator))
    assert classify_point(cone, shifted).kind != "exterior"
    eps = F(1, 10**15)
    below = tuple((value - eps) * d - n for n, d in zip(numerator, denominator))
    assert classify_point(cone, below).kind == "exterior"
    rng = random.Random(hash((tuple(numerator), tuple(denominator))) & 0xFFFF)
    for _ in range(40):
        coeffs = [F(rng.randint(0, 8)) for _ in cone.facets]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(len(coeffs))] = F(1)
        phi = [sum(c * f.coeffs[i] for c, f in zip(coeffs, cone.facets)) for i in range(cone.ambient_dim)]
        num = sum(p * q for p, q in zip(phi, numerator))
        den = sum(p * q for p, q in zip(phi, denominator))
        assert den > 0
        assert num / den <= value


class TestGauge:
    def test_orthant_examples(self):
        cone = orthant3()
        assert m_ratio((2, 1, 1), (1, 1, 1), cone) == 2
        assert m_ratio((2, 2, 1), (1, 2, 4), cone) == 2

    def test_square_cone_example(self):
        cone = cone_from_polytope(unit_square())
        assert m_ratio((F(3, 4), F(1, 2), 1), (F(1, 2), F(1, 2), 1), cone) == F(3, 2)

    def test_requires_interior_denominator(self):
        cone = orthant3()
        with pytest.raises(DomainError):
            m_ratio((1, 1, 1), (1, 0, 1), cone)

    @pytest.mark.parametrize("numerator", [(1, 1), (1, 1, 1, 1)])
    def test_rejects_numerator_of_wrong_dimension(self, numerator):
        with pytest.raises(DomainError):
            m_ratio(numerator, (1, 1, 1), orthant3())

    def test_gauge_can_be_nonpositive_for_general_points(self):
        cone = orthant3()
        assert m_ratio((-1, -2, -1), (1, 1, 1), cone) == -1
        with pytest.raises(DomainError):
            funk((-1, -2, -1), (1, 1, 1), cone)

    @pytest.mark.parametrize("domain", [unit_square(), simplex2()])
    def test_against_infimum_oracle(self, domain):
        cone = cone_from_polytope(domain)
        rng = random.Random(13)
        for _ in range(25):
            x = lift_to_cone(interior_sample(domain, rng))
            y = lift_to_cone(interior_sample(domain, rng))
            assert_gauge_is_infimum(y, x, cone, m_ratio(y, x, cone))

    def test_oracle_on_orthant_examples(self):
        cone = orthant3()
        assert_gauge_is_infimum((2, 2, 1), (1, 2, 4), cone, F(2))
        assert_gauge_is_infimum((2, 1, 1), (1, 1, 1), cone, F(2))


class TestFunk:
    def test_examples(self):
        cone = orthant3()
        assert funk((1, 1, 1), (2, 1, 1), cone) == LogValue(1)
        assert reverse_funk((1, 1, 1), (2, 1, 1), cone) == LogValue(2)
        assert funk((3, 5, 7), (3, 5, 7), cone) == LogValue.zero()

    def test_triangle_inequality_and_identity(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)
        rng = random.Random(17)
        for _ in range(60):
            x = lift_to_cone(interior_sample(domain, rng))
            y = lift_to_cone(interior_sample(domain, rng))
            z = lift_to_cone(interior_sample(domain, rng))
            assert funk(x, z, cone).arg <= funk(x, y, cone).arg * funk(y, z, cone).arg
            assert funk(x, x, cone) == LogValue.zero()


class TestHilbertCone:
    def test_orthant_example(self):
        assert hilbert_cone((1, 2, 4), (2, 2, 1), orthant3()) == LogValue(8)

    def test_square_cone_example_matches_cross_ratio(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)
        x = (F(1, 2), F(1, 2))
        y = (F(3, 4), F(1, 2))
        cone_value = hilbert_cone(lift_to_cone(x), lift_to_cone(y), cone)
        assert cone_value == LogValue(3)
        assert cone_value == hilbert_cross_ratio(domain, x, y)

    def test_projective_invariance(self):
        cone = orthant3()
        x = (1, 2, 4)
        assert hilbert_cone(tuple(2 * c for c in x), tuple(3 * c for c in x), cone) == LogValue.zero()

    def test_symmetry_and_separation(self):
        domain = simplex2()
        cone = cone_from_polytope(domain)
        rng = random.Random(19)
        for _ in range(40):
            x, y = distinct_interior_pair(domain, rng)
            d = hilbert_cone(lift_to_cone(x), lift_to_cone(y), cone)
            assert d == hilbert_cone(lift_to_cone(y), lift_to_cone(x), cone)
            assert d.arg > 1


class TestCrossRatio:
    def test_interval_example(self):
        assert hilbert_cross_ratio(interval(0, 4), (1,), (2,)) == LogValue(3)

    def test_square_example(self):
        assert hilbert_cross_ratio(unit_square(), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 2))) == LogValue(3)

    def test_coincident_points(self):
        assert hilbert_cross_ratio(pentagon(), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))) == LogValue.zero()

    def test_rejects_boundary_and_exterior(self):
        domain = unit_square()
        with pytest.raises(DomainError):
            hilbert_cross_ratio(domain, (0, F(1, 2)), (F(1, 2), F(1, 2)))
        with pytest.raises(DomainError):
            hilbert_cross_ratio(domain, (2, 2), (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), pentagon()])
    def test_agrees_with_cone_formulation(self, domain):
        cone = cone_from_polytope(domain)
        rng = random.Random(23)
        for _ in range(40):
            x, y = distinct_interior_pair(domain, rng)
            assert hilbert_cross_ratio(domain, x, y) == hilbert_cone(
                lift_to_cone(x), lift_to_cone(y), cone
            )


class TestFaceMetrics:
    def test_square_facet_matches_interval_cross_ratio(self):
        cone = cone_from_polytope(unit_square())
        x = (0, F(1, 4), 1)
        y = (0, F(1, 2), 1)
        face = face_of(cone, x)
        assert face_m_ratio(y, x, face) == 2
        assert face_m_ratio(x, y, face) == F(3, 2)
        value = face_hilbert(x, y, face)
        assert value == LogValue(3)
        # The facet section is the interval (0, 1); its own Hilbert metric
        # between the same parameters is an independent oracle.
        assert value == hilbert_cross_ratio(interval(0, 1), (F(1, 4),), (F(1, 2),))

    def test_vertex_ray_face_is_projectively_trivial(self):
        cone = cone_from_polytope(unit_square())
        x = (0, 0, 1)
        face = face_of(cone, x)
        assert face_hilbert(x, (0, 0, 5), face) == LogValue.zero()

    def test_empty_active_set_degenerates_to_cone_metric(self):
        domain = simplex2()
        cone = cone_from_polytope(domain)
        rng = random.Random(29)
        x = lift_to_cone(interior_sample(domain, rng))
        y = lift_to_cone(interior_sample(domain, rng))
        face = face_of(cone, x)
        assert face.active == frozenset()
        assert face_hilbert(x, y, face) == hilbert_cone(x, y, cone)

    def test_rejects_numerator_of_wrong_dimension(self):
        cone = cone_from_polytope(unit_square())
        x = (0, F(1, 4), 1)
        with pytest.raises(DomainError):
            face_m_ratio((0, F(1, 2)), x, face_of(cone, x))

    def test_rejects_point_off_relative_interior(self):
        cone = cone_from_polytope(unit_square())
        face = face_of(cone, (0, F(1, 4), 1))
        with pytest.raises(DomainError):
            face_m_ratio((0, F(1, 2), 1), (F(1, 2), F(1, 2), 1), face)


class TestVariationNorm:
    def test_examples(self):
        assert variation_norm((1, 0, 0)) == 1
        assert variation_norm((1, 0, 0)) == variation_norm((2, 1, 1))
        assert variation_norm((-1, 0, 2)) == 3

    def test_quotient_invariance(self):
        rng = random.Random(31)
        for _ in range(30):
            v = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
            shift = F(rng.randint(-5, 5), rng.randint(1, 5))
            shifted = [c + shift for c in v]
            assert variation_norm(v) == variation_norm(shifted)
            assert variation_distance(v, shifted) == 0


class TestGromovProduct:
    def metric(self, cone):
        return lambda a, b: hilbert_cone(a, b, cone)

    def test_coincident_arguments(self):
        cone = orthant3()
        d = self.metric(cone)
        x, r = (2, 1, 1), (1, 1, 1)
        assert gromov_product(x, x, r, d) == d(x, r).arg ** 2

    def test_base_point_argument(self):
        cone = orthant3()
        d = self.metric(cone)
        assert gromov_product((2, 1, 1), (1, 1, 1), (1, 1, 1), d) == 1

    def test_orthant_example_vanishes(self):
        cone = orthant3()
        d = self.metric(cone)
        assert gromov_product((2, 1, 1), (1, 2, 1), (1, 1, 1), d) == 1

    def test_nonnegative(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)
        d = self.metric(cone)
        rng = random.Random(37)
        for _ in range(40):
            x = lift_to_cone(interior_sample(domain, rng))
            y = lift_to_cone(interior_sample(domain, rng))
            r = lift_to_cone(interior_sample(domain, rng))
            assert gromov_product(x, y, r, d) >= 1


class TestAlmostGeodesics:
    def metric(self, cone):
        return lambda a, b: hilbert_cone(a, b, cone)

    def test_collinear_points_are_geodesic(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)
        start = (F(1, 8), F(1, 2))
        end = (F(7, 8), F(1, 2))
        path = []
        for t in (0, F(1, 4), F(1, 2), F(3, 4), 1):
            path.append(lift_to_cone(tuple((1 - t) * a + t * b for a, b in zip(start, end))))
        assert almost_geodesic_check(path, self.metric(cone))

    def test_any_pair_is_geodesic(self):
        cone = orthant3()
        assert almost_geodesic_check([(1, 1, 1), (5, 1, 2)], self.metric(cone))

    def test_segment_toward_an_extreme_point(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)
        # points marching along the diagonal toward the corner (1, 1)
        path = [
            lift_to_cone((1 - F(1, 2**k), 1 - F(1, 2**k))) for k in range(1, 6)
        ]
        assert almost_geodesic_check(path, self.metric(cone))

    def test_detour_exceeding_slack_fails(self):
        domain = unit_square()
        cone = cone_from_polytope(domain)
        metric = self.metric(cone)
        path = [
            lift_to_cone((F(1, 8), F(1, 2))),
            lift_to_cone((F(1, 2), F(7, 8))),
            lift_to_cone((F(7, 8), F(1, 2))),
        ]
        total = metric(path[0], path[1]).arg * metric(path[1], path[2]).arg
        direct = metric(path[0], path[2]).arg
        assert total > direct
        assert not almost_geodesic_check(path, metric)
        # A generous slack absorbs the detour again.
        assert almost_geodesic_check(path, metric, slack=total / direct)


class TestJEval:
    def test_examples(self):
        cone = orthant3()
        base = (1, 1, 1)
        assert j_eval(cone, (3, 1, 2), base, base) == 1
        assert j_eval(cone, (1, 1, 1), (2, 1, 1), (1, 1, 1)) == 2

    def test_midpoint_convexity(self):
        cone = cone_from_polytope(unit_square())
        domain = unit_square()
        rng = random.Random(41)
        base = lift_to_cone((F(1, 2), F(1, 2)))
        for _ in range(50):
            x = lift_to_cone(interior_sample(domain, rng))
            y = lift_to_cone(interior_sample(domain, rng))
            y2 = lift_to_cone(interior_sample(domain, rng))
            mid = tuple((a + b) / 2 for a, b in zip(y, y2))
            left = j_eval(cone, x, mid, base)
            right = (j_eval(cone, x, y, base) + j_eval(cone, x, y2, base)) / 2
            assert left <= right
