"""Each gauge on the query path is computed once.

The one-pass routes (`hilbert_cone`, `face_hilbert`, the chord
`hilbert_cross_ratio`, and `busemann_eval`, `detour_cost` and
`detour_metric` on a Busemann point that keeps its base gauges and its
stored row values) against the routes they replaced, kept as oracles in
`helpers`: the same exact value, or the same refusal.  Then the number of
row-value passes each call makes, counted on `_row_values`, which every
gauge and the chord go through.
"""

import copy
import pickle
import random
from fractions import Fraction as F
from functools import cache

import pytest

import corpus
import hilbertgeom.geometry as geometry
import hilbertgeom.horoboundary as horoboundary
import hilbertgeom.metrics as metrics
from hilbertgeom import (
    DomainError,
    Face,
    HPolytope,
    busemann_eval,
    busemann_point,
    classify_point,
    cone_from_polytope,
    detour_cost,
    detour_decomposition,
    detour_metric,
    face_hilbert,
    face_lattice_active_sets,
    hilbert_cone,
    hilbert_cross_ratio,
    j_eval,
    lift_to_cone,
    part_of,
)
from hilbertgeom.horoboundary import _values

from helpers import (
    bench_gen,
    boundary_face_points,
    boundary_sample,
    four_gauge_busemann_eval,
    fraction_cross_ratio,
    interior_sample,
    interval,
    pentagon,
    six_gauge_detour_cost,
    tangent_polygon,
    tangent_polytope3,
    two_pass_face_hilbert,
    two_pass_hilbert_cone,
    unit_cube,
    unit_square,
)
from test_metrics import gauge_points, same_gauge

DOMAINS = {
    "square": unit_square,
    "pentagon": pentagon,
    "cube": unit_cube,
    "octa8": lambda: tangent_polytope3(random.Random(8), 8),
}
PATTERNS = [(1, 1, 1, 1), (1, 3, 2, 5)]


@cache
def domain(name):
    polytope = DOMAINS[name]()
    return polytope, cone_from_polytope(polytope)


def scaled(rng, point):
    """`point` times a positive rational whose denominator is at most 12 or near 2^40."""
    den = rng.randint(1, 12) if rng.random() < 0.5 else 2**40 + rng.randint(-99, 99)
    lam = F(rng.randint(1, 2 * den), den)
    return tuple(lam * c for c in point)


def fresh(point):
    """An equal Busemann point whose base gauges are not yet computed."""
    return busemann_point(point.cone, point.x, point.funk_index, point.p, point.base)


@cache
def busemann_sample(name):
    """Busemann points on every boundary face, with one shared base-point.

    Each face carries its full tangent cone and the single facet of lowest
    index, with two reference points each, so every group of two is a
    finite-cost pair.
    """
    polytope, cone = domain(name)
    rng = random.Random(f"busemann-{name}")
    base = lift_to_cone(interior_sample(polytope, rng))
    groups = []
    for active in face_lattice_active_sets(cone):
        x = boundary_face_points(polytope, cone, active, PATTERNS)[0]
        for index in (active, frozenset({min(active)})):
            groups.append([
                busemann_point(cone, x, index, scaled(rng, lift_to_cone(interior_sample(polytope, rng))), base)
                for _ in range(2)
            ])
    return base, groups


@pytest.mark.parametrize("name", DOMAINS)
class TestOnePassAgainstTheOldRoutes:
    def test_hilbert_cone_is_funk_plus_reverse_funk(self, name):
        polytope, cone = domain(name)
        rng = random.Random(f"cone-{name}")
        answers = {True: 0, False: 0}
        for _ in range(12):
            points = gauge_points(rng, polytope, cone) + gauge_points(rng, polytope, cone)
            for x in points:
                for y in points:
                    answers[same_gauge(lambda: hilbert_cone(x, y, cone),
                                       lambda: two_pass_hilbert_cone(x, y, cone))] += 1
        assert min(answers.values()) >= 40

    def test_face_hilbert_is_a_product_of_two_face_gauges(self, name):
        polytope, cone = domain(name)
        rng = random.Random(f"face-{name}")
        answers = {True: 0, False: 0}
        for active in face_lattice_active_sets(cone):
            face = Face(cone, active)
            on_face = [scaled(rng, p) for p in boundary_face_points(polytope, cone, active, PATTERNS) for _ in range(2)]
            points = on_face + gauge_points(rng, polytope, cone)[1:]
            for x in points:
                for y in points:
                    answers[same_gauge(lambda: face_hilbert(x, y, face),
                                       lambda: two_pass_face_hilbert(x, y, face))] += 1
        assert min(answers.values()) >= 40

    def test_busemann_eval_before_and_after_the_anchor_is_filled(self, name):
        polytope, cone = domain(name)
        base, groups = busemann_sample(name)
        rng = random.Random(f"eval-{name}")
        for group in groups:
            for kept in group:
                point = fresh(kept)
                assert point._anchor is None
                for w in [base] + gauge_points(rng, polytope, cone):
                    same_gauge(lambda: busemann_eval(point, w), lambda: four_gauge_busemann_eval(point, w))
                assert point._anchor is not None
                assert busemann_eval(point, base).arg == 1

    def test_detour_cost_before_and_after_the_anchors_are_filled(self, name):
        base, groups = busemann_sample(name)
        points = [p for group in groups for p in group]
        rng = random.Random(f"detour-{name}")
        pairs = [tuple(group) for group in groups] + [tuple(rng.sample(points, 2)) for _ in range(3 * len(groups))]
        answers = {"finite": 0, "infinite": 0}
        for g, h in pairs:
            for a, b in ((g, h), (h, g), (g, g)):
                a, b = fresh(a), fresh(b)
                expected = six_gauge_detour_cost(a, b)
                assert detour_cost(a, b) == expected
                assert detour_cost(a, b) == expected  # the anchors are filled now when finite
                answers["infinite" if expected.is_infinite else "finite"] += 1
        assert min(answers.values()) >= 20


def query_domains(seed):
    """The `query` workload's four domains and Busemann points, built as its set-up builds them.

    Each entry is (polytope, cone, points, interior points for evaluation).
    """
    gen = bench_gen()
    rng = random.Random(f"query/{seed}")
    out = []
    for d in [gen.square(), gen.pentagon(), gen.cube(), gen.tangent_polytope3(rng, 8, "octa8")]:
        polytope = HPolytope(d.dim, d.halfspaces)
        cone = cone_from_polytope(polytope)
        base = gen.lift(tuple(sum(v[i] for v in d.vertices) / len(d.vertices) for i in range(d.dim)))
        points = []
        for spec in gen.busemann_specs(rng, d):
            active = classify_point(cone, spec.x).active
            points.append(busemann_point(cone, spec.x, {min(active)} if spec.single else active, spec.p, base))
        out.append((polytope, cone, points, [base] + [gen.lift(gen.interior_point(rng, d, big)) for big in (False, True)]))
    return out


def corpus_points(name, polytope):
    """Busemann points on up to three seeded boundary faces of a corpus domain, with one base-point.

    Each face carries its full tangent cone and the single facet of lowest
    index, with two scaled reference points each.
    """
    cone = cone_from_polytope(polytope)
    rng = random.Random(f"stored-{name}")
    base = lift_to_cone(interior_sample(polytope, rng))
    faces = sorted(face_lattice_active_sets(cone), key=sorted)
    points = []
    for active in rng.sample(faces, min(3, len(faces))):
        x = boundary_face_points(polytope, cone, active, PATTERNS)[0]
        for index in (active, frozenset({min(active)})):
            for _ in range(2):
                points.append(busemann_point(cone, x, index, scaled(rng, lift_to_cone(interior_sample(polytope, rng))), base))
    return polytope, cone, points, [base, lift_to_cone(interior_sample(polytope, rng))]


def same_on_every_pair(polytope, cone, points, ws, answers):
    """`busemann_eval` at each w, and `detour_cost` and `detour_metric` on every ordered pair, against the oracles.

    Each point is evaluated on a fresh equal point, so that the first call
    fills the stored values and the later ones read them.
    """
    rng = random.Random(len(points))
    extra = gauge_points(rng, polytope, cone)
    for point in points:
        q = fresh(point)
        for w in ws + extra:
            answers["value" if same_gauge(lambda: busemann_eval(q, w), lambda: four_gauge_busemann_eval(q, w))
                    else "refused"] += 1
    costs = {(i, j): six_gauge_detour_cost(g, h) for i, g in enumerate(points) for j, h in enumerate(points)}
    for (i, j), expected in costs.items():
        g, h = points[i], points[j]
        assert detour_cost(g, h) == expected
        assert detour_metric(g, h) == expected + costs[j, i]
        answers["infinite" if expected.is_infinite else "finite"] += 1


class TestStoredValuesAgainstTheOracles:
    """`busemann_eval`, `detour_cost` and `detour_metric` on stored row values against the `Fraction` oracles."""

    @pytest.mark.parametrize("seed", [1, 7919])
    def test_query_domains(self, seed):
        answers = dict.fromkeys(("value", "refused", "finite", "infinite"), 0)
        for polytope, cone, points, ws in query_domains(seed):
            same_on_every_pair(polytope, cone, points, ws, answers)
        assert answers["value"] >= 150 and answers["refused"] >= 80
        assert answers["finite"] >= 120 and answers["infinite"] >= 400

    def test_corpus_domains(self):
        answers = dict.fromkeys(("value", "refused", "finite", "infinite"), 0)
        for name, polytope in corpus.domains():
            same_on_every_pair(*corpus_points(name, polytope), answers)
        assert answers["value"] >= 1200 and answers["refused"] >= 800
        assert answers["finite"] >= 1500 and answers["infinite"] >= 3500

    def test_stale_or_wrongly_selected_stored_values_raise(self):
        points = [p for _, _, points, _ in query_domains(1) for p in points]
        g, h = next((g, h) for g in points for h in points if part_of(g) == part_of(h) and g.p != h.p)
        assert detour_decomposition(g, h)[1].arg > 1  # the reference points are apart in the funk cone
        xs, x_scale, ps, p_scale, inactive, funk = _values(g)
        for stale in [
            (xs, x_scale, _values(h)[2], p_scale, inactive, funk),  # h's p in g's place: the routes disagree
            (xs, x_scale, ps, p_scale, list(range(len(xs))), funk),  # active rows taken as inactive: g.x divides by zero
        ]:
            twin = fresh(g)
            object.__setattr__(twin, "_values", stale)
            with pytest.raises(ArithmeticError):
                detour_metric(twin, h)

    def test_copy_and_pickle_keep_the_point_and_its_values(self):
        _, _, points, ws = query_domains(1)[2]
        g, h = points[0], points[1]
        detour_metric(g, h)
        busemann_eval(g, ws[1])
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
            assert twin._values is None and twin._anchor is None
            for w in ws:
                assert busemann_eval(twin, w) == busemann_eval(g, w)
            assert detour_cost(twin, h) == detour_cost(g, h) and detour_metric(h, twin) == detour_metric(h, g)
            assert twin._values == g._values and twin._anchor == g._anchor


@cache
def chord_domains():
    """The corpus's 40 domains and eight seeded tangent 5- to 8-gons."""
    polygons = [(f"polygon{m}-{k}", tangent_polygon(random.Random(f"chord-{m}-{k}"), m))
                for m in range(5, 9) for k in range(2)]
    return corpus.domains() + polygons


def chord_points(rng, polytope):
    """Seeded points of the polytope's space: three interior, one on the boundary and one outside.

    The third interior point lies between the first two, at a parameter whose
    denominator is near 2^40, so the row values meet small and large scales.
    """
    x = interior_sample(polytope, rng)
    y = interior_sample(polytope, rng)
    lam = F(rng.randint(1, 2**40 - 100), 2**40 + rng.randint(-99, 99))
    between = tuple(a + lam * (b - a) for a, b in zip(x, y))
    outside = tuple(F(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(polytope.dim))
    # An interval's only boundary points are its two vertices.
    boundary = boundary_sample(polytope, rng) if polytope.dim > 1 else rng.choice(polytope.vertices)
    return [x, y, between, boundary, outside]


def same_chord(polytope, points, answers):
    """The chord against the `Fraction` chord on every ordered pair of `points`, x == y included."""
    for x in points:
        for y in points:
            answers[same_gauge(lambda: hilbert_cross_ratio(polytope, x, y),
                               lambda: fraction_cross_ratio(polytope, x, y))] += 1


def redundant(polytope):
    """The polytope with one halfspace repeated, repeated at 3/2 its scale, or relaxed by one (implied)."""
    pairs = list(polytope.halfspaces)
    f, b = pairs[0]
    return [
        HPolytope(polytope.dim, pairs + [(f, b)]),
        HPolytope(polytope.dim, [(tuple(F(3, 2) * c for c in f.coeffs), F(3, 2) * b)] + pairs),
        HPolytope(polytope.dim, pairs[:1] + [(f, b - 1)] + pairs[1:]),
    ]


class TestChordAgainstFractionSlacks:
    """`hilbert_cross_ratio` on integer rows against the `Fraction` chord it replaced."""

    @pytest.mark.parametrize("name", DOMAINS)
    def test_query_domains(self, name):
        polytope = domain(name)[0]
        rng = random.Random(f"chord-{name}")
        answers = {True: 0, False: 0}
        for _ in range(6):
            same_chord(polytope, chord_points(rng, polytope), answers)
        assert min(answers.values()) >= 40

    def test_corpus_domains_and_tangent_polygons(self):
        rng = random.Random(20261020)
        answers = {True: 0, False: 0}
        for _, polytope in chord_domains():
            same_chord(polytope, chord_points(rng, polytope), answers)
        assert min(answers.values()) >= 400

    @pytest.mark.parametrize("name", ["square", "pentagon", "cube"])
    def test_redundant_halfspaces_are_read_and_change_nothing(self, name):
        polytope = domain(name)[0]
        rng = random.Random(f"redundant-{name}")
        answers = {True: 0, False: 0}
        for variant in redundant(polytope):
            for _ in range(3):
                points = chord_points(rng, polytope)
                same_chord(variant, points, answers)
                for x in points[:3]:
                    for y in points[:3]:
                        assert hilbert_cross_ratio(variant, x, y) == hilbert_cross_ratio(polytope, x, y)
        assert min(answers.values()) >= 20

    def test_scale_one_against_a_scale_near_two_to_the_forty(self):
        den = 2**40 + 3
        cases = [
            (interval(0, 4), (1,), (F(2 * den - 1, den),)),
            (HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -4)]), (1, 1), (F(den + 1, den), F(2 * den - 1, den))),
        ]
        for polytope, x, y in cases:
            cone = cone_from_polytope(polytope)
            for a, b in ((x, y), (y, x)):
                assert same_gauge(lambda: hilbert_cross_ratio(polytope, a, b),
                                  lambda: fraction_cross_ratio(polytope, a, b))
                assert hilbert_cross_ratio(polytope, a, b) == hilbert_cone(lift_to_cone(a), lift_to_cone(b), cone)


def counter(monkeypatch, function, modules):
    """A one-item list counting calls to `function` through the names it has in `modules`."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return function(*args)

    for module in modules:
        monkeypatch.setattr(module, function.__name__, counted)
    return count


@pytest.fixture
def passes(monkeypatch):
    """The number of `_row_values` calls, from `metrics` or `horoboundary`, since set-up."""
    return counter(monkeypatch, geometry._row_values, (metrics, horoboundary))


def square_points():
    cone = domain("square")[1]
    centre = lift_to_cone((F(1, 2), F(1, 2)))
    edge = lift_to_cone((0, F(1, 2)))
    return cone, centre, edge, Face(cone, classify_point(cone, edge).active)


class TestGaugePasses:
    """One row-value pass per point and call; a Busemann point's base gauges once per point."""

    def test_two_sided_metrics(self, passes):
        cone, centre, edge, face = square_points()
        hilbert_cone(centre, lift_to_cone((F(1, 3), F(1, 4))), cone)
        assert passes[0] == 2
        face_hilbert(edge, lift_to_cone((0, F(1, 4))), face)
        assert passes[0] == 4
        j_eval(cone, centre, lift_to_cone((F(1, 3), F(1, 4))), lift_to_cone((F(1, 4), F(1, 4))))
        assert passes[0] == 7

    def test_chord(self, passes):
        square = domain("square")[0]
        centre = (F(1, 2), F(1, 2))
        hilbert_cross_ratio(square, centre, (F(1, 3), F(1, 4)))
        assert passes[0] == 2
        assert hilbert_cross_ratio(square, centre, centre).arg == 1
        assert passes[0] == 4  # x == y is answered after both interior tests
        with pytest.raises(DomainError, match="is not interior"):
            hilbert_cross_ratio(square, (2, 2), centre)
        assert passes[0] == 5  # an exterior x is refused before y is read

    def test_busemann_point_fills_no_anchor(self, passes, monkeypatch):
        cone, centre, edge, face = square_points()
        classified = counter(monkeypatch, classify_point, (geometry, horoboundary))
        point = busemann_point(cone, edge, face.active, centre, centre)
        # One row-value pass each for x, the base-point and p, and no classification.
        assert passes[0] == 3 and classified[0] == 0 and point._anchor is None

    def test_busemann_eval(self, passes, monkeypatch):
        cone, centre, edge, face = square_points()
        point = busemann_point(cone, edge, face.active, lift_to_cone((F(1, 3), F(1, 3))), centre)
        passes[0] = 0  # construction's three passes are pinned above; count the evaluation's
        classified = counter(monkeypatch, classify_point, (geometry, horoboundary))
        busemann_eval(point, lift_to_cone((F(1, 4), F(2, 3))))
        # w, then x's and p's stored values, then the two base gauges of the anchor, two passes each
        assert passes[0] == 7 and point._values is not None and point._anchor is not None
        for k in range(1, 4):
            busemann_eval(point, lift_to_cone((F(1, 5), F(k, 5))))
            assert passes[0] == 7 + k  # w alone
        # w is found interior from its row values in the gauge M(x/w), with no classification
        with pytest.raises(DomainError, match="horofunctions are evaluated at interior points"):
            busemann_eval(point, edge)
        assert classified[0] == 0 and passes[0] == 11

    def test_detour_cost(self, passes):
        cone, centre, edge, face = square_points()
        g, h = (busemann_point(cone, x, face.active, centre, centre) for x in (edge, lift_to_cone((0, F(1, 4)))))
        passes[0] = 0  # construction's three passes per point
        detour_cost(g, h)
        assert passes[0] == 12  # each point's two stored value lists and its anchor's two base gauges, two passes each
        for _ in range(3):
            detour_cost(h, g)
            detour_cost(g, h)
            assert passes[0] == 12  # the cost reads the stored values alone

    def test_detour_metric(self, passes):
        cone, centre, edge, face = square_points()
        g, h = (busemann_point(cone, x, face.active, centre, centre) for x in (edge, lift_to_cone((0, F(1, 4)))))
        passes[0] = 0  # construction's three passes per point
        detour_metric(g, h)
        # The cost route fills each point's stored values and no anchor; the decomposition reads all four points itself.
        assert passes[0] == 4 + 4 and g._anchor is None and h._anchor is None
        for k in range(1, 4):
            detour_metric(h, g)
            assert passes[0] == 8 + 4 * k

    def test_infinite_detour_cost_makes_no_pass(self, passes):
        cone, centre, edge, face = square_points()
        g = busemann_point(cone, edge, face.active, centre, centre)
        h = busemann_point(cone, lift_to_cone((F(1, 2), 0)), classify_point(cone, lift_to_cone((F(1, 2), 0))).active,
                           centre, centre)
        passes[0] = 0  # construction's three passes per point
        assert detour_cost(g, h).is_infinite and detour_cost(h, g).is_infinite
        assert passes[0] == 0 and g._anchor is None and h._anchor is None

    def test_infinite_detour_metric_makes_no_pass(self, passes):
        cone, centre, edge, face = square_points()
        g = busemann_point(cone, edge, face.active, centre, centre)
        h = busemann_point(cone, lift_to_cone((F(1, 2), 0)), classify_point(cone, lift_to_cone((F(1, 2), 0))).active,
                           centre, centre)
        passes[0] = 0  # construction's three passes per point
        assert detour_metric(g, h).is_infinite and detour_metric(h, g).is_infinite
        assert passes[0] == 0 and g._values is None and h._values is None
