"""Gauge, Funk, Hilbert, cross-ratio, and variation-norm computations."""

import math
import operator
import random
from fractions import Fraction

import pytest

from hilbertgeom import (
    DomainError,
    Face,
    HilbertGeometryError,
    HPolytope,
    LogValue,
    ParseError,
    PolyCone,
    almost_geodesic_check,
    busemann_eval,
    classify_point,
    cone_from_polytope,
    face_hilbert,
    face_lattice_active_sets,
    face_m_ratio,
    face_of,
    funk,
    gromov_product,
    hilbert_cone,
    hilbert_cross_ratio,
    j_eval,
    lift_to_cone,
    m_ratio,
    positive_orthant,
    reverse_funk,
    tangent_family,
    var_dist,
    var_norm,
    vclass,
)

from helpers import (
    F,
    boundary_face_points,
    boundary_sample,
    distinct_interior_pair,
    fraction_face_m_ratio,
    fraction_j_eval,
    fraction_m_ratio,
    interior_sample,
    interval,
    pentagon,
    simplex2,
    square_busemann_sample,
    two_pass_face_hilbert,
    two_pass_hilbert_cone,
    unit_square,
)
from test_geometry import rational_cones, seeded_domains


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


class TestLogValueOperands:
    @pytest.mark.parametrize("other", [3, F(3), 1.5, "3", None])
    @pytest.mark.parametrize("value", [LogValue(2), LogValue.INFINITY])
    def test_foreign_operands_raise_type_error(self, value, other):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(value, other)
            with pytest.raises(TypeError):
                op(other, value)
        assert value != other


class TestLogValueContract:
    """Order, hashing and arithmetic; the order comes from `__lt__` and `__eq__` alone."""

    def test_order_among_finite_values_and_infinity(self):
        small, large, inf = LogValue(F(1, 2)), LogValue(3), LogValue.INFINITY
        for a, b in ((small, large), (large, inf), (small, inf)):
            assert a < b and a <= b and not a > b and not a >= b
            assert b > a and b >= a and not b < a and not b <= a
        for a in (small, LogValue(3), inf):
            assert a <= a and a >= a and not a < a and not a > a
        assert large == LogValue(3) and large <= LogValue(3) and large >= LogValue(3)
        assert sorted([inf, large, LogValue.zero(), small]) == [small, LogValue.zero(), large, inf]

    def test_equal_values_hash_equal_and_dedupe(self):
        assert hash(LogValue(F(6, 4))) == hash(LogValue(F(3, 2)))
        assert len({LogValue(F(6, 4)), LogValue(F(3, 2)), LogValue(2), LogValue.INFINITY, LogValue(None)}) == 3

    @pytest.mark.parametrize("q", [F(2), F(3, 7), F(1)])
    def test_negation_inverts_the_argument(self, q):
        assert -LogValue(q) == LogValue(1 / q)

    def test_infinity_saturates(self):
        assert LogValue.INFINITY.to_float() == math.inf
        assert LogValue.INFINITY - LogValue(2) == LogValue.INFINITY


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

    @pytest.mark.parametrize("point, kind", [(None, "NoneType"), (5, "int")])
    def test_non_iterable_point_is_a_parse_error(self, point, kind):
        with pytest.raises(ParseError, match=rf"^a vector must be an iterable of rationals, not {kind}$"):
            hilbert_cone(point, (1, 1, 1), positive_orthant(3))


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
        assert var_norm(vclass((1, 0, 0))) == 1
        assert var_norm(vclass((1, 0, 0))) == var_norm(vclass((2, 1, 1)))
        assert var_norm(vclass((-1, 0, 2))) == 3

    def test_quotient_invariance(self):
        rng = random.Random(31)
        for _ in range(30):
            v = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
            shift = F(rng.randint(-5, 5), rng.randint(1, 5))
            shifted = [c + shift for c in v]
            assert var_norm(vclass(v)) == var_norm(vclass(shifted))
            assert var_dist(vclass(v), vclass(shifted)) == 0


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


def gauge_points(rng, domain, cone):
    """Seeded points of the cone's space: interior, boundary and exterior.

    Each is scaled by a positive rational whose denominator is at most 12
    or near 2^40, so the integer rows meet both small and large arguments.
    """
    dim = cone.ambient_dim
    points = [
        lift_to_cone(interior_sample(domain, rng)),
        lift_to_cone(boundary_sample(domain, rng)),
        tuple(F(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(dim)),
    ]
    scaled = []
    for point in points:
        den = rng.randint(1, 12) if rng.random() < 0.5 else 2**40 + rng.randint(-99, 99)
        lam = F(rng.randint(1, 2 * den), den)
        scaled.append(tuple(lam * c for c in point))
    return scaled


def same_gauge(call, oracle) -> bool:
    """`call` and `oracle` agree exactly: the same value, or a refusal of the same class and message.

    Returns whether the oracle gave a value.
    """
    try:
        expected = oracle()
    except HilbertGeometryError as refusal:
        with pytest.raises(HilbertGeometryError) as caught:
            call()
        assert type(caught.value) is type(refusal) and str(caught.value) == str(refusal)
        return False
    assert call() == expected
    return True


class TestRowGaugeAgainstFractionFacets:
    """The gauges on integer rows against the unit-lead `Fraction` facets they replaced."""

    def test_cones_and_tangent_family_members(self):
        rng = random.Random(20261025)
        answers = {True: 0, False: 0}
        for domain in seeded_domains():
            cone = cone_from_polytope(domain)
            members = [cone] + [entry.cone for entry in tangent_family(cone)]
            for _ in range(24):
                points = gauge_points(rng, domain, cone)
                interior = points[0]
                for member in (cone, rng.choice(members)):
                    for num in points:
                        for den in (interior, rng.choice(points)):
                            answers[same_gauge(lambda: m_ratio(num, den, member),
                                               lambda: fraction_m_ratio(num, den, member))] += 1
        for cone in rational_cones():
            for _ in range(40):
                num, den = (tuple(F(rng.randint(-24, 24), rng.choice([rng.randint(1, 12), 2**40 + 1]))
                                  for _ in range(cone.ambient_dim)) for _ in range(2))
                answers[same_gauge(lambda: m_ratio(num, den, cone), lambda: fraction_m_ratio(num, den, cone))] += 1
        assert min(answers.values()) >= 500

    def test_faces(self):
        rng = random.Random(20261026)
        answers = {True: 0, False: 0}
        patterns = [(1, 1), (1, 3), (3, 1), (2, 5, 7), (11, 1, 4)]
        for domain in seeded_domains():
            cone = cone_from_polytope(domain)
            for active in face_lattice_active_sets(cone):
                face = Face(cone, active)
                dens = boundary_face_points(domain, cone, active, patterns)
                others = gauge_points(rng, domain, cone)
                for num in others + dens[:1]:
                    for den in dens[:2] + others[:2]:
                        answers[same_gauge(lambda: face_m_ratio(num, den, face),
                                           lambda: fraction_face_m_ratio(num, den, face))] += 1
        assert min(answers.values()) >= 500

    def test_funk_cone_gauges_of_busemann_points(self):
        cone, base, points = square_busemann_sample()
        rng = random.Random(20261027)
        square = unit_square()
        for point in points:
            for _ in range(3):
                w = gauge_points(rng, square, cone)[0]
                expected = (
                    fraction_m_ratio(point.x, w, cone) * fraction_m_ratio(w, point.p, point.funk_cone)
                    / (fraction_m_ratio(point.x, base, cone) * fraction_m_ratio(base, point.p, point.funk_cone))
                )
                assert busemann_eval(point, w).arg == expected
                assert m_ratio(w, point.p, point.funk_cone) == fraction_m_ratio(w, point.p, point.funk_cone)

    def test_two_sided_metrics(self):
        rng = random.Random(20261028)
        answers = {True: 0, False: 0}
        patterns = [(1, 1), (1, 3), (2, 5, 7)]
        for domain in seeded_domains():
            cone = cone_from_polytope(domain)
            for _ in range(6):
                points = gauge_points(rng, domain, cone) + gauge_points(rng, domain, cone)
                base = points[3]  # interior, so M(base/x) is positive wherever x is interior
                for x in points:
                    for y in points:
                        answers[same_gauge(lambda: hilbert_cone(x, y, cone),
                                           lambda: two_pass_hilbert_cone(x, y, cone))] += 1
                        answers[same_gauge(lambda: j_eval(cone, x, y, base),
                                           lambda: fraction_j_eval(cone, x, y, base))] += 1
            for active in face_lattice_active_sets(cone):
                face = Face(cone, active)
                points = boundary_face_points(domain, cone, active, patterns)[:2] + gauge_points(rng, domain, cone)
                for x in points:
                    for y in points:
                        answers[same_gauge(lambda: face_hilbert(x, y, face),
                                           lambda: two_pass_face_hilbert(x, y, face))] += 1
        assert min(answers.values()) >= 500


SQUARE = cone_from_polytope(unit_square())
EDGE_FACE = Face(SQUARE, classify_point(SQUARE, (0, F(1, 2), 1)).active)
NEAR_2_40 = 2**40 + 3


class TestIntegerKernelEdgeCases:
    """Cases the integer cross-multiplication must get right, against the `Fraction` oracles."""

    @pytest.mark.parametrize("x, y, gauge, hilbert", [
        # Two facet ratios tie at the maximum, from different value pairs (1/4 over 1/8, 1/2 over 1/4).
        ((F(1, 2), F(1, 4), 1), (F(1, 4), F(1, 8), 1), F(2), F(3)),
        # Every ratio ties: y is a multiple of x.
        ((F(1, 2), F(1, 2), 1), (F(3, 2), F(3, 2), 3), F(1, 3), F(1)),
        # Scales 1 and about 2^40.
        ((1, 1, 4), (F(5, NEAR_2_40), F(7, NEAR_2_40), F(12, NEAR_2_40)), F(3 * NEAR_2_40, 5), F(21, 5)),
        ((F(5, NEAR_2_40), F(7, NEAR_2_40), F(12, NEAR_2_40)), (1, 1, 4), F(7, NEAR_2_40), F(21, 5)),
    ])
    def test_ties_and_wide_scales(self, x, y, gauge, hilbert):
        assert m_ratio(x, y, SQUARE) == fraction_m_ratio(x, y, SQUARE) == gauge
        assert hilbert_cone(x, y, SQUARE).arg == two_pass_hilbert_cone(x, y, SQUARE).arg == hilbert
        base = (F(1, 3), F(1, 5), 1)
        assert j_eval(SQUARE, y, x, base) == fraction_j_eval(SQUARE, y, x, base)

    def test_ties_and_wide_scales_on_a_face(self):
        for x, y in [
            ((0, F(1, 2), 1), (0, F(3, 2), 3)),  # every inactive ratio ties
            ((0, 1, 4), (0, F(5, NEAR_2_40), F(12, NEAR_2_40))),
            ((0, F(5, NEAR_2_40), F(12, NEAR_2_40)), (0, 1, 4)),
        ]:
            assert face_m_ratio(x, y, EDGE_FACE) == fraction_face_m_ratio(x, y, EDGE_FACE)
            assert face_hilbert(x, y, EDGE_FACE) == two_pass_face_hilbert(x, y, EDGE_FACE)

    @pytest.mark.parametrize("x, gauge", [
        ((0, 0, 0), F(0)),  # every numerator value zero
        ((0, F(1, 2), 0), F(1)),  # zero and negative numerator values, a positive maximum
        ((-1, F(1, 2), 1), F(4)),
        ((-3, -1, -1), F(4)),
        ((F(-1, 2), F(-1, 2), -1), F(-1)),  # every numerator value negative
        ((-3, -1, -5), F(-2)),
    ])
    def test_nonpositive_numerator_values(self, x, gauge):
        y = (F(1, 2), F(1, 2), 1)
        assert m_ratio(x, y, SQUARE) == fraction_m_ratio(x, y, SQUARE) == gauge
        same_gauge(lambda: hilbert_cone(x, y, SQUARE), lambda: two_pass_hilbert_cone(x, y, SQUARE))
        same_gauge(lambda: hilbert_cone(y, x, SQUARE), lambda: two_pass_hilbert_cone(y, x, SQUARE))
        assert j_eval(SQUARE, y, x, y) == fraction_j_eval(SQUARE, y, x, y) == gauge
        assert face_m_ratio(x, (0, F(1, 2), 1), EDGE_FACE) == fraction_face_m_ratio(x, (0, F(1, 2), 1), EDGE_FACE)

    def test_refusal_parity(self):
        good = [(F(1, 2), F(1, 3), 1), (0, F(1, 2), 1), (1, 1, 4)]
        bad = [
            (0, 0, 1),  # a vertex: on the face's inactive rows too
            (F(1, 2), F(1, 2), 1),  # interior, off the face
            (2, F(1, 2), 1),  # exterior
            (F(1, 2), 1),  # wrong dimension
            (F(1, 2), 0.5, 1),  # a float
            5,  # not a vector
        ]
        refused = 0
        for x in good + bad:
            for y in good + bad:
                if x in good and y in good:
                    continue
                calls = [
                    (lambda: hilbert_cone(x, y, SQUARE), lambda: two_pass_hilbert_cone(x, y, SQUARE)),
                    (lambda: face_hilbert(x, y, EDGE_FACE), lambda: two_pass_face_hilbert(x, y, EDGE_FACE)),
                    (lambda: j_eval(SQUARE, x, y, good[0]), lambda: fraction_j_eval(SQUARE, x, y, good[0])),
                    (lambda: j_eval(SQUARE, good[0], x, y), lambda: fraction_j_eval(SQUARE, good[0], x, y)),
                ]
                refused += sum(not same_gauge(call, oracle) for call, oracle in calls)
        assert refused >= 240
