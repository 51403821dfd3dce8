"""Variation-norm model of the simplex geometry and its isometry group."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from hilbertgeom import (
    DomainError,
    LogValue,
    ParseError,
    apply_isometry,
    collineation_witness_failure,
    compose,
    exp_chart,
    exp_chart_float,
    hilbert_cone,
    identity_isometry,
    inverse,
    is_metric_preserving,
    log_chart,
    m_ratio,
    permutation_group_elements,
    permutation_group_order,
    point_group_elements,
    positive_orthant,
    reciprocal_map,
    simplex_collineation,
    var_ball_vertices,
    var_dist,
    var_norm,
    vclass,
    SimplexIsometry,
    VClass,
)
from hilbertgeom.linalg import rank
from hilbertgeom.simplex import _int_log

from helpers import F, basis_action_group, det3, loop_int_log


def random_vclass(rng, n, den=12):
    return vclass([F(rng.randint(-4 * den, 4 * den), den) for _ in range(n + 1)])


def random_element(rng, n, den=12):
    perm = list(range(n + 1))
    rng.shuffle(perm)
    translation = random_vclass(rng, n, den)
    return SimplexIsometry(translation, tuple(perm), rng.random() < 0.5)


# Reference implementation on `Fraction` representatives (first coordinate
# shifted to zero), the arithmetic the integer classes replaced.


def _shift(values):
    return tuple(c - values[0] for c in values)


def _permute(perm, values):
    out = [F(0)] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def ref_apply(g, rep):
    if g.flip:
        rep = tuple(-c for c in rep)
    rep = _permute(g.permutation, rep)
    return _shift(tuple(a + b for a, b in zip(g.translation.rep, rep)))


def ref_compose(g, h):
    perm = tuple(g.permutation[h.permutation[i]] for i in range(len(g.permutation)))
    return ref_apply(g, h.translation.rep), perm, g.flip != h.flip


def ref_inverse(g):
    inv = [0] * len(g.permutation)
    for i, target in enumerate(g.permutation):
        inv[target] = i
    moved = _permute(tuple(inv), g.translation.rep)
    if g.flip:
        moved = tuple(-c for c in moved)
    return _shift(tuple(-c for c in moved)), tuple(inv), g.flip


def ref_var_dist(v, w):
    diffs = [a - b for a, b in zip(v, w)]
    return max(diffs) - min(diffs)


# Breadth-first closure over `compose` words: the point group construction
# that enumeration replaced.


def _basis_classes(n):
    return [vclass([1 if j == i else 0 for j in range(n + 1)]) for i in range(1, n + 1)]


def _signature(g, basis):
    return tuple(apply_isometry(g, b).rep for b in basis)


def _closure(n, generators):
    basis = _basis_classes(n)
    identity = identity_isometry(n)
    seen = {_signature(identity, basis): identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for h in generators:
                e = compose(h, g)
                sig = _signature(e, basis)
                if sig not in seen:
                    seen[sig] = e
                    fresh.append(e)
        frontier = fresh
    return sorted(seen.values(), key=lambda e: (e.flip, e.permutation))


def _permutation_generators(n):
    size = n + 1
    zero = vclass([0] * size)
    swap = list(range(size))
    swap[0], swap[1] = swap[1], swap[0]
    cycle = tuple((i + 1) % size for i in range(size))
    return [
        SimplexIsometry(zero, tuple(swap), False),
        SimplexIsometry(zero, cycle, False),
    ]


def canonical(v):
    return v.nums[0] == 0 and v.den > 0 and math.gcd(v.den, *v.nums) == 1


class TestAction:
    def test_identity(self):
        v = vclass([1, 0, 0])
        assert apply_isometry(identity_isometry(2), v) == v

    def test_n_is_the_simplex_dimension(self):
        assert vclass([0, 1, 2, 3]).n == 3
        assert identity_isometry(3).n == 3

    def test_flip_only(self):
        flip = SimplexIsometry(vclass([0, 0, 0]), (0, 1, 2), True)
        v = vclass([1, 0, 0])
        image = apply_isometry(flip, v)
        assert image == vclass([-1, 0, 0])
        assert var_norm(v) == var_norm(image) == 1

    def test_transposition(self):
        swap = SimplexIsometry(vclass([0, 0, 0]), (1, 0, 2), False)
        assert apply_isometry(swap, vclass([1, 0, 0])) == vclass([0, 1, 0])

    def test_preserves_variation_distance(self):
        rng = random.Random(59)
        for n in (2, 3):
            for _ in range(50):
                g = random_element(rng, n)
                v, w = random_vclass(rng, n), random_vclass(rng, n)
                assert var_dist(apply_isometry(g, v), apply_isometry(g, w)) == var_dist(v, w)


class TestGroupStructure:
    def test_compose_matches_pointwise_action(self):
        rng = random.Random(61)
        for n in (1, 2, 3):
            for _ in range(40):
                g, h = random_element(rng, n), random_element(rng, n)
                v = random_vclass(rng, n)
                assert apply_isometry(compose(g, h), v) == apply_isometry(g, apply_isometry(h, v))

    def test_associativity(self):
        rng = random.Random(67)
        for _ in range(40):
            g, h, k = (random_element(rng, 3) for _ in range(3))
            v = random_vclass(rng, 3)
            left = apply_isometry(compose(compose(g, h), k), v)
            right = apply_isometry(compose(g, compose(h, k)), v)
            assert left == right

    def test_inverse_neutralises(self):
        rng = random.Random(71)
        for _ in range(40):
            g = random_element(rng, 2)
            v = random_vclass(rng, 2)
            assert apply_isometry(compose(g, inverse(g)), v) == v
            assert apply_isometry(compose(inverse(g), g), v) == v

    def test_two_flips_compose_to_a_collineation(self):
        rng = random.Random(73)
        g = random_element(rng, 3)
        h = random_element(rng, 3)
        g = SimplexIsometry(g.translation, g.permutation, True)
        h = SimplexIsometry(h.translation, h.permutation, True)
        assert compose(g, h).flip is False


class TestIntegerClasses:
    """Integer classes against the `Fraction` reference and the BFS closure."""

    def test_action_composition_inverse_and_distance_match_the_reference(self):
        rng = random.Random(107)
        reduced = 0
        for n in (1, 2, 3, 4):
            for _ in range(60):
                g = random_element(rng, n, rng.choice((3, 4)))
                h = random_element(rng, n, rng.choice((3, 4, 6)))
                v = random_vclass(rng, n, rng.choice((1, 3, 4)))
                w = random_vclass(rng, n, rng.choice((2, 3, 4)))
                image = apply_isometry(g, v)
                assert image.rep == ref_apply(g, v.rep)
                assert canonical(image)
                reduced += image.den < math.lcm(g.translation.den, v.den)
                gh = compose(g, h)
                assert (gh.translation.rep, gh.permutation, gh.flip) == ref_compose(g, h)
                assert canonical(gh.translation)
                inv = inverse(g)
                assert (inv.translation.rep, inv.permutation, inv.flip) == ref_inverse(g)
                assert var_dist(v, w) == ref_var_dist(v.rep, w.rep)
                assert var_dist(image, apply_isometry(g, w)) == var_dist(v, w)
        assert reduced > 0  # the sum's gcd was reduced on some inputs

    def test_reduction_after_translation(self):
        g = SimplexIsometry(vclass([0, F(1, 3), F(1, 4)]), (0, 1, 2), False)
        image = apply_isometry(g, vclass([0, F(2, 3), F(3, 4)]))
        assert (image.nums, image.den) == ((0, 1, 1), 1)
        assert image == vclass([5, 6, 6])
        assert hash(image) == hash(vclass([5, 6, 6]))

    def test_routes_to_one_class_agree(self):
        rng = random.Random(109)
        for n in (1, 2, 3):
            for _ in range(30):
                v = random_vclass(rng, n, rng.choice((3, 4, 12)))
                g = random_element(rng, n, rng.choice((3, 4)))
                constant = F(rng.randint(-9, 9), rng.choice((1, 5, 7)))
                routes = [
                    vclass([c + constant for c in v.rep]),
                    VClass(tuple(str(c) for c in v.rep)),
                    apply_isometry(identity_isometry(n), v),
                    apply_isometry(inverse(g), apply_isometry(g, v)),
                    apply_isometry(compose(inverse(g), g), v),
                ]
                for u in routes:
                    assert u == v and hash(u) == hash(v) and u.rep == v.rep
        vertices = var_ball_vertices(3)
        assert vertices == [vclass(v.rep) for v in vertices]
        assert log_chart((2, 4, 1), F(2)) == vclass([1, 2, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_translation_action_matches_the_reference(self, n):
        """Every point group element acts by its gather alone, as the reference does.

        The classes have denominator 1 and above 1, and each element's
        gathered first numerator is zero for some and nonzero for others, so
        both branches of the shift run, with and without the flip.
        """
        rng = random.Random(113 + n)
        classes = [random_vclass(rng, n, den) for den in (1, 1, 3, 4, 12)]
        seen = set()
        for g in point_group_elements(n):
            assert g._get(tuple(range(n + 1))) == g._gather
            rebuilt = SimplexIsometry(g.translation, g.permutation, g.flip)
            for v in classes:
                image = apply_isometry(g, v)
                assert image.rep == ref_apply(g, v.rep)
                assert canonical(image)
                assert apply_isometry(rebuilt, v) == image
                seen.add((v.den > 1, v.nums[g._gather[0]] != 0, g.flip))
        flips = (False,) if n == 1 else (False, True)
        assert seen == set(itertools.product((False, True), (False, True), flips))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_enumeration_matches_the_closure(self, n):
        zero = vclass([0] * (n + 1))
        flip = SimplexIsometry(zero, tuple(range(n + 1)), True)
        assert point_group_elements(n) == _closure(n, _permutation_generators(n) + [flip])
        assert permutation_group_elements(n) == _closure(n, _permutation_generators(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_enumeration_matches_the_basis_action_dedupe(self, n):
        for built, flips in ((point_group_elements(n), (False, True)), (permutation_group_elements(n), (False,))):
            expected = basis_action_group(n, flips)
            assert built == expected  # the same elements in the same order
            assert [g._gather for g in built] == [
                tuple(sorted(range(n + 1), key=g.permutation.__getitem__)) for g in expected
            ]
            assert all(type(g.permutation) is tuple and type(g.flip) is bool for g in built)
            assert all(g._shift is None for g in built)

    def test_floats_are_refused(self):
        with pytest.raises(ParseError, match=r"coordinate 0 is the float 0\.5"):
            vclass([0.5, 1])
        with pytest.raises(ParseError, match=r"coordinate 1 is the float 0\.25"):
            VClass((1, 0.25, F(1, 2)))
        with pytest.raises(ParseError, match=r"the float 2\.0 is not an exact rational"):
            exp_chart(vclass([0, 1]), 2.0)

    def test_non_iterable_is_a_parse_error(self):
        with pytest.raises(ParseError, match=r"^a vector must be an iterable of rationals, not NoneType$"):
            VClass(None)


class TestBallVertices:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 6), (3, 14), (6, 2**7 - 2)])
    def test_counts(self, n, count):
        vertices = var_ball_vertices(n)
        assert len(vertices) == count
        assert len(set(vertices)) == count

    def test_unit_norm(self):
        for n in (1, 2, 3, 4):
            assert all(var_norm(v) == 1 for v in var_ball_vertices(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_point_group_permutes_vertex_set(self, n):
        vertex_set = set(var_ball_vertices(n))
        for g in point_group_elements(n):
            assert {apply_isometry(g, v) for v in vertex_set} == vertex_set

    def test_flip_exchanges_single_one_and_single_zero_vertices(self):
        n = 3
        ones = {vclass(tuple(F(1 if j == i else 0) for j in range(n + 1))) for i in range(n + 1)}
        zeros = {vclass(tuple(F(0 if j == i else 1) for j in range(n + 1))) for i in range(n + 1)}
        flip = SimplexIsometry(vclass([0] * (n + 1)), tuple(range(n + 1)), True)
        assert {apply_isometry(flip, v) for v in ones} == zeros


class TestPointGroup:
    def test_orders(self):
        assert len(point_group_elements(1)) == 2  # the swap already acts as the flip
        assert len(point_group_elements(2)) == 12
        assert len(point_group_elements(3)) == 48

    def test_permutation_closure_orders(self):
        assert permutation_group_order(1) == 2
        assert permutation_group_order(2) == 6
        assert permutation_group_order(3) == 24

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_closed_form_order_counts_the_enumeration(self, n):
        assert permutation_group_order(n) == len(permutation_group_elements(n)) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_index_two(self, n):
        assert len(point_group_elements(n)) == 2 * permutation_group_order(n)

    @pytest.mark.parametrize("n,order", [(5, 1440), (6, 10080)])
    def test_large_orders(self, n, order):
        assert len(point_group_elements(n)) == order == 2 * permutation_group_order(n)

    def test_contains_all_permutations(self):
        n = 2
        elements = point_group_elements(n)
        perms = {e.permutation for e in elements if not e.flip}
        assert len(perms) == 6

    def test_size_guard(self):
        with pytest.raises(DomainError):
            point_group_elements(7)


class TestCharts:
    def test_origin_maps_to_the_unit_ray(self):
        assert exp_chart(vclass([0, 0, 0]), F(2)) == (1, 1, 1)

    def test_exponent_lattice_isometry_example(self):
        x = exp_chart(vclass([0, 1, 2]), F(2))
        y = exp_chart(vclass([1, 1, 0]), F(2))
        assert x == (1, 2, 4)
        # canonical representative of the class of (1, 1, 0) is (0, 0, -1)
        assert y == (1, 1, F(1, 2))
        assert tuple(2 * c for c in y) == (2, 2, 1)
        distance = hilbert_cone(x, y, positive_orthant(3))
        exponent_distance = var_dist(vclass([0, 1, 2]), vclass([1, 1, 0]))
        assert exponent_distance == 3
        assert distance == LogValue(F(2) ** 3)

    def test_log_chart_base_below_one(self):
        assert log_chart((1, 2, 4), F(1, 2)) == vclass([0, -1, -2])

    def test_round_trip(self):
        rng = random.Random(79)
        for _ in range(30):
            v = vclass([rng.randint(-6, 6) for _ in range(4)])
            assert log_chart(exp_chart(v, F(3, 2)), F(3, 2)) == v

    def test_lattice_isometry_random(self):
        rng = random.Random(83)
        cone = positive_orthant(4)
        for _ in range(40):
            v = vclass([rng.randint(-5, 5) for _ in range(4)])
            w = vclass([rng.randint(-5, 5) for _ in range(4)])
            lhs = hilbert_cone(exp_chart(v, F(2)), exp_chart(w, F(2)), cone)
            assert lhs == LogValue(F(2) ** var_dist(v, w))

    def test_float_chart_isometry(self):
        rng = random.Random(89)
        cone = positive_orthant(3)
        for _ in range(40):
            v = random_vclass(rng, 2)
            w = random_vclass(rng, 2)
            x = exp_chart_float(v)
            y = exp_chart_float(w)
            ratios = [a / b for a, b in zip(x, y)]
            value = math.log(max(ratios)) - math.log(min(ratios))
            assert abs(value - float(var_dist(v, w))) < 1e-12

    def test_rejects_non_integer_exponents(self):
        with pytest.raises(DomainError):
            exp_chart(vclass([0, F(1, 2), 1]), F(2))
        with pytest.raises(DomainError):
            log_chart((1, 3, 2), F(2))


INT_LOG_BASES = [F(2), F(3, 2), F(1, 3), F(4), F(10), F(10**3), F(1, 10**2)]


def int_log_cases(rng, base, exponents):
    """q = base**k for each k, and beside each a q that is off the powers or may be (the oracle decides)."""
    a, b = base.numerator, base.denominator
    cases = []
    for k in exponents:
        q = base**k
        cases += [q, q * F(5, 7), q + 1, F(a ** abs(k), b ** (abs(k) + 1)), F(2) ** (2 * abs(k) + 1)]
        cases.append(q * base ** rng.choice((-1, 1)))
    return cases


class TestIntLogAgainstTheLoop:
    """`_int_log` reads the exponent off the sizes; the loop it replaced is the oracle."""

    def same_int_log(self, q, base):
        try:
            expected = loop_int_log(q, base)
        except DomainError as refusal:
            with pytest.raises(DomainError) as caught:
                _int_log(q, base)
            assert str(caught.value) == str(refusal) == "coordinate is not an exact power of the base"
            return False
        assert _int_log(q, base) == expected
        return True

    def test_seeded_bases_and_exponents(self):
        rng = random.Random(20261020)
        answers = {True: 0, False: 0}
        for base in INT_LOG_BASES:
            exponents = list(range(-12, 13)) + [rng.choice((-1, 1)) * rng.randint(13, 2**10) for _ in range(6)]
            for q in int_log_cases(rng, base, exponents):
                answers[self.same_int_log(q, base)] += 1
        assert min(answers.values()) >= 300

    def test_exponent_two_to_the_sixteen(self):
        assert self.same_int_log(F(2) ** 2**16, F(2))
        assert not self.same_int_log(F(2) ** 2**14 * 3, F(2))
        for base in INT_LOG_BASES:
            for k in (2**16, -(2**16) + 1):
                assert _int_log(base**k, base) == k
                for off in (base**k * F(5, 7), base**k + 1):
                    with pytest.raises(DomainError, match="coordinate is not an exact power of the base"):
                        _int_log(off, base)

    def test_large_exponent_through_log_chart(self):
        assert log_chart((1, 2**64000), F(2)) == vclass([0, 64000])
        assert log_chart((3**4096, 2**4096), F(2, 3)) == vclass([0, 4096])


class TestReciprocalMap:
    def test_fixed_point(self):
        assert reciprocal_map((1, 1, 1)) == (1, 1, 1)

    def test_example_preserves_distance_to_the_unit(self):
        cone = positive_orthant(3)
        x = (1, 2, 4)
        unit = (1, 1, 1)
        assert hilbert_cone(unit, x, cone) == LogValue(4)
        assert hilbert_cone(unit, reciprocal_map(x), cone) == LogValue(4)
        assert reciprocal_map(x) == (1, F(1, 2), F(1, 4))

    def test_involution(self):
        rng = random.Random(97)
        for _ in range(20):
            x = tuple(F(rng.randint(1, 40), rng.randint(1, 11)) for _ in range(4))
            assert reciprocal_map(reciprocal_map(x)) == x

    def test_exact_gauge_identity(self):
        rng = random.Random(101)
        cone = positive_orthant(3)
        for _ in range(60):
            x = tuple(F(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(3))
            y = tuple(F(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(3))
            assert m_ratio(reciprocal_map(y), reciprocal_map(x), cone) == m_ratio(x, y, cone)

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(DomainError):
            reciprocal_map((1, 0, 1))


class TestCollineations:
    def test_diagonal_acts_as_chart_translation(self):
        mapping = simplex_collineation((0, 1, 2), (1, 2, 4))
        for exponents in [(0, 0, 0), (1, -1, 2), (3, 0, 1)]:
            v = vclass(exponents)
            image = mapping(exp_chart(v, F(2)))
            shifted = log_chart(image, F(2))
            expected = vclass([e + d for e, d in zip(v.rep, (0, 1, 2))])
            assert shifted == expected

    def test_pure_permutation(self):
        mapping = simplex_collineation((1, 2, 0), (1, 1, 1))
        assert mapping((1, 2, 4)) == (4, 1, 2)

    def test_metric_preserving_on_random_pairs(self):
        rng = random.Random(103)
        cone = positive_orthant(3)
        mapping = simplex_collineation((2, 0, 1), (F(1, 3), 5, F(7, 2)))
        samples = [
            tuple(F(rng.randint(1, 30), rng.randint(1, 9)) for _ in range(3)) for _ in range(15)
        ]
        assert is_metric_preserving(mapping, cone, samples)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(DomainError):
            simplex_collineation((0, 1, 2), (1, 0, 1))


class TestWitness:
    # Columns (0, 1, 2) certify at every n >= 2, so there is no column search.
    @pytest.mark.parametrize("n", range(2, 13))
    def test_nonzero_determinant_certificate(self, n):
        witness = collineation_witness_failure(n)
        assert witness.columns == (0, 1, 2)
        assert witness.determinant == Fraction(-(n + 2) ** 3, 12)
        p1, p2, p3 = witness.points
        assert all(sum(p) == 1 for p in witness.points)
        assert p3 == tuple((a + b) / 2 for a, b in zip(p1, p2))
        # The image rays span three directions: exact rank certificate.
        assert rank(list(witness.images)) == 3
        # The printed determinant is the minor of the images on the printed columns.
        assert det3([[row[c] for c in witness.columns] for row in witness.images]) == witness.determinant

    def test_known_determinant_for_the_plane(self):
        witness = collineation_witness_failure(2)
        assert witness.points[0] == (F(1, 2), F(1, 4), F(1, 4))
        assert witness.determinant == F(-16, 3)

    def test_no_witness_on_the_interval(self):
        assert collineation_witness_failure(1) is None


class TestIsMetricPreserving:
    def test_reciprocal_map_passes(self):
        cone = positive_orthant(3)
        samples = [(1, 2, 4), (2, 2, 1), (3, 1, 5), (F(1, 2), F(1, 3), 1)]
        assert is_metric_preserving(reciprocal_map, cone, samples)

    def test_shear_fails(self):
        from hilbertgeom import cone_from_polytope, lift_to_cone
        from helpers import unit_square

        cone = cone_from_polytope(unit_square())

        def shear(point):
            u, v, h = point
            return (u, v + u / 2, h)

        samples = [
            lift_to_cone((F(1, 2), F(1, 8))),
            lift_to_cone((F(3, 4), F(1, 8))),
            lift_to_cone((F(1, 4), F(1, 4))),
        ]
        assert not is_metric_preserving(shear, cone, samples)

    def test_image_leaving_interior_is_an_error(self):
        from hilbertgeom import cone_from_polytope, lift_to_cone
        from helpers import unit_square

        cone = cone_from_polytope(unit_square())

        def shear(point):
            u, v, h = point
            return (u, v + u, h)

        with pytest.raises(DomainError):
            is_metric_preserving(shear, cone, [lift_to_cone((F(3, 4), F(3, 4)))])
