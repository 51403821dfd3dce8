"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact rational arithmetic unless a tolerance is stated
explicitly with the criterion.
"""

import json
import math
import random
import time
from collections import Counter, defaultdict
from fractions import Fraction

from hilbertgeom import (
    LogValue,
    PolyCone,
    apply_isometry,
    busemann_point,
    classify_part,
    classify_point,
    collineation_witness_failure,
    cone_from_polytope,
    detour_decomposition,
    detour_metric,
    enumerate_parts,
    exp_chart,
    funk,
    hilbert_cone,
    hilbert_cross_ratio,
    horolimit_residual,
    lift_to_cone,
    m_ratio,
    part_dimension,
    part_of,
    permutation_group_order,
    point_group_elements,
    positive_orthant,
    var_ball_vertices,
    var_dist,
    vclass,
)

from helpers import (
    F,
    distinct_interior_pair,
    interior_sample,
    pentagon,
    simplex2,
    square_busemann_sample,
    unit_cube,
    unit_square,
)
from test_cli import GOLDEN_CASES, golden_bytes, run_cli, SQUARE


def report(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


DOMAINS = {
    "square": unit_square,
    "pentagon": pentagon,
    "triangle": simplex2,
    "cube": unit_cube,
}


def test_criterion_1_cross_formulation_identity():
    def body():
        started = time.monotonic()
        rng = random.Random(101)
        for name, factory in DOMAINS.items():
            domain = factory()
            cone = cone_from_polytope(domain)
            for _ in range(500):
                x, y = distinct_interior_pair(domain, rng)
                chord = hilbert_cross_ratio(domain, x, y)
                gauge = hilbert_cone(lift_to_cone(x), lift_to_cone(y), cone)
                assert chord == gauge, (name, x, y)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"

    report(1, "chord cross-ratio equals the cone gauge on 500 pairs per domain", body)


def test_criterion_2_metric_axioms():
    def body():
        rng = random.Random(103)
        for factory in DOMAINS.values():
            domain = factory()
            cone = cone_from_polytope(domain)
            for _ in range(200):
                x = lift_to_cone(interior_sample(domain, rng))
                y = lift_to_cone(interior_sample(domain, rng))
                z = lift_to_cone(interior_sample(domain, rng))
                dxy = hilbert_cone(x, y, cone)
                assert dxy == hilbert_cone(y, x, cone)
                assert hilbert_cone(x, x, cone) == LogValue.zero()
                assert hilbert_cone(x, z, cone).arg <= dxy.arg * hilbert_cone(y, z, cone).arg
                assert funk(x, z, cone).arg <= funk(x, y, cone).arg * funk(y, z, cone).arg
                assert funk(x, x, cone) == LogValue.zero()

    report(2, "symmetry, identity, and triangle inequalities hold exactly", body)


def test_criterion_3_projective_and_lineality_invariance():
    def body():
        rng = random.Random(107)
        for factory in (unit_square, simplex2):
            domain = factory()
            cone = cone_from_polytope(domain)
            for _ in range(100):
                x = lift_to_cone(interior_sample(domain, rng))
                y = lift_to_cone(interior_sample(domain, rng))
                alpha = F(rng.randint(1, 60), rng.randint(1, 60))
                beta = F(rng.randint(1, 60), rng.randint(1, 60))
                scaled = hilbert_cone(
                    tuple(alpha * c for c in x), tuple(beta * c for c in y), cone
                )
                assert scaled == hilbert_cone(x, y, cone)
        halfspace = PolyCone([(1, 0, 0)], 3)
        quadrant = PolyCone([(1, 0, 0), (0, 1, 0)], 3)
        for cone in (halfspace, quadrant):
            basis = cone.lineality_basis
            assert basis
            for _ in range(100):
                x = tuple(F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(3))
                y = tuple(F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(3))
                if not (classify_point(cone, x).is_interior and classify_point(cone, y).is_interior):
                    continue
                shift = [F(0)] * 3
                for direction in basis:
                    c = F(rng.randint(-9, 9), rng.randint(1, 5))
                    shift = [s + c * d for s, d in zip(shift, direction)]
                moved = tuple(a + s for a, s in zip(x, shift))
                assert hilbert_cone(moved, y, cone) == hilbert_cone(x, y, cone)

    report(3, "scaling and lineality shifts leave the metric unchanged", body)


def test_criterion_4_horolimit():
    def body():
        rng = random.Random(109)
        configs = 0
        for factory in (unit_square, simplex2):
            domain = factory()
            cone = cone_from_polytope(domain)
            vertices = list(domain.vertices)
            for _ in range(30):
                z = lift_to_cone(rng.choice(vertices))
                y = lift_to_cone(interior_sample(domain, rng))
                b = lift_to_cone(interior_sample(domain, rng))
                w = lift_to_cone(interior_sample(domain, rng))
                magnitudes = []
                for k in range(10, 21):
                    residual = horolimit_residual(cone, z, y, b, w, F(1, 2**k))
                    arg = residual.arg
                    magnitudes.append(max(arg, 1 / arg))
                for early, late in zip(magnitudes, magnitudes[1:]):
                    assert late <= early
                final = magnitudes[-1]
                value = math.log(final.numerator) - math.log(final.denominator)
                assert value < 1e-6
                configs += 1
        assert configs >= 50

    report(4, "straight-line horolimit residuals decay below 1e-6 by k = 20", body)


def test_criterion_5_detour_metric_matrix():
    def body():
        cone, base, points = square_busemann_sample()
        assert len(points) >= 30
        table = {}
        for g in points:
            for h in points:
                delta = detour_metric(g, h)
                table[(g, h)] = delta
                same_part = (g.x_active == h.x_active) and (g.funk_cone == h.funk_cone)
                assert delta.is_infinite == (not same_part)
                if not delta.is_infinite:
                    d_face, d_cone = detour_decomposition(g, h)
                    assert delta == d_face + d_cone
        for g in points:
            assert table[(g, g)] == LogValue.zero()
            for h in points:
                assert table[(g, h)] == table[(h, g)]
        groups = defaultdict(list)
        for g in points:
            groups[part_of(g)].append(g)
        triples = 0
        for members in groups.values():
            for a in members:
                for b in members:
                    for c in members:
                        assert table[(a, c)].arg <= table[(a, b)].arg * table[(b, c)].arg
                        triples += 1
        assert triples > 0
        _, _, moved = square_busemann_sample(base=lift_to_cone((F(2, 5), F(3, 5))))
        for g, g2 in zip(points, moved):
            assert (g.x, g.funk_index, g.p) == (g2.x, g2.funk_index, g2.p)
        for i, g in enumerate(points):
            for j, h in enumerate(points):
                assert table[(g, h)] == detour_metric(moved[i], moved[j])

    report(5, "detour metric matches its face/cone decomposition and base change", body)


def test_criterion_6_part_census():
    def body():
        started = time.monotonic()
        expected = {
            unit_square: (16, {"vertex": 4, "facet": 4, "other": 8}),
            simplex2: (12, {"vertex": 3, "facet": 3, "other": 6}),
        }
        for factory, (total, census) in expected.items():
            domain = factory()
            cone = cone_from_polytope(domain)
            n = cone.ambient_dim - 1
            parts = enumerate_parts(cone)
            assert len(parts) == total
            kinds = {p: classify_part(cone, p) for p in parts}
            assert Counter(kinds.values()) == census
            maximal = {p for p in parts if part_dimension(cone, p) == n - 1}
            named = {p for p, kind in kinds.items() if kind in ("vertex", "facet")}
            assert maximal == named
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    report(6, "part census is 16 = 4+4+8 and 12 = 3+3+6 with the dimension law", body)


def test_criterion_7_simplex_isometry_group():
    def body():
        assert [len(point_group_elements(n)) for n in (2, 3, 4)] == [12, 48, 240]
        for n in (2, 3, 4):
            assert len(point_group_elements(n)) == 2 * permutation_group_order(n)
        for n in range(1, 7):
            vertices = var_ball_vertices(n)
            assert len(vertices) == 2 ** (n + 1) - 2
        rng = random.Random(113)
        for n in (2, 3, 4):
            elements = point_group_elements(n)
            pairs = []
            for _ in range(1000):
                v = vclass([F(rng.randint(-24, 24), 12) for _ in range(n + 1)])
                w = vclass([F(rng.randint(-24, 24), 12) for _ in range(n + 1)])
                pairs.append((v, w))
            for g in elements:
                for v, w in pairs:
                    assert var_dist(apply_isometry(g, v), apply_isometry(g, w)) == var_dist(v, w)

    report(7, "group orders 12/48/240 with index-two collineations, exact isometries", body)


def test_criterion_8_simplex_bridge():
    def body():
        rng = random.Random(127)
        for n in (2, 3):
            cone = positive_orthant(n + 1)
            for _ in range(500):
                x = tuple(F(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(n + 1))
                y = tuple(F(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(n + 1))
                rx = tuple(1 / c for c in x)
                ry = tuple(1 / c for c in y)
                assert m_ratio(ry, rx, cone) == m_ratio(x, y, cone)
                assert m_ratio(rx, ry, cone) == m_ratio(y, x, cone)
            witness = collineation_witness_failure(n)
            assert witness is not None and witness.determinant != 0

    report(8, "reciprocal map is an exact isometry yet not a collineation", body)


def test_criterion_9_variation_norm_correspondence():
    def body():
        rng = random.Random(131)
        for size in (3, 4):
            cone = positive_orthant(size)
            for _ in range(200):
                v = vclass([rng.randint(-6, 6) for _ in range(size)])
                w = vclass([rng.randint(-6, 6) for _ in range(size)])
                distance = hilbert_cone(exp_chart(v, F(2)), exp_chart(w, F(2)), cone)
                assert distance == LogValue(F(2) ** var_dist(v, w))
        cone = positive_orthant(3)
        for _ in range(200):
            x = tuple(F(rng.randint(1, 60), rng.randint(1, 17)) for _ in range(3))
            y = tuple(F(rng.randint(1, 60), rng.randint(1, 17)) for _ in range(3))
            exact = hilbert_cone(x, y, cone).to_float()
            logs = [math.log(a.numerator) - math.log(a.denominator) for a in x]
            logs = [la - (math.log(b.numerator) - math.log(b.denominator)) for la, b in zip(logs, y)]
            assert abs(exact - (max(logs) - min(logs))) < 1e-12

    report(9, "cone metric equals the variation distance through the chart", body)


def test_criterion_10_cli_conformance():
    def body():
        for name, args in GOLDEN_CASES:
            result = run_cli(*args)
            assert result.returncode == 0, (name, result.stderr)
            assert result.stdout == golden_bytes(name), name
        ok = run_cli("dist", "--polytope", SQUARE, "--x", "1/2,1/2", "--y", "3/4,1/2")
        assert ok.returncode == 0
        domain = run_cli("dist", "--polytope", SQUARE, "--x", "0,1/2", "--y", "3/4,1/2")
        assert domain.returncode == 1
        parse = run_cli("dist", "--polytope", SQUARE, "--x", "0.5,1/2", "--y", "3/4,1/2")
        assert parse.returncode == 2

    report(10, "CLI outputs are byte-identical with correct exit codes", body)
