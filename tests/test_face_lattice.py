"""The face lattice: rank and irredundancy decide, the LP decides only the rest."""

import random
import time
from itertools import combinations

import pytest

import hilbertgeom.horoboundary as horoboundary
import hilbertgeom.linalg as linalg
from hilbertgeom import (
    ConstructionError,
    PolyCone,
    classify_point,
    cone_from_polytope,
    enumerate_parts,
    face_lattice_active_sets,
    lift_to_cone,
    part_dimension,
    tangent_family,
)
from hilbertgeom.geometry import FACE_LATTICE_MAX_FACETS, _face_lattice_cached
from hilbertgeom.linalg import rank

from helpers import (
    F, linear_system_feasible, octahedron, pentagonal_pyramid, simplex2, square_pyramid, square_with_line,
    tangent_polygon, tangent_polytope3, unit_cube, unit_square,
)


def lp_lattice(cone):
    """Reference lattice: one LP for every proper nonempty facet subset."""
    n = cone.num_facets
    rows = [f.coeffs for f in cone.facets]
    out = []
    for r in range(1, n):
        for subset in combinations(range(n), r):
            equalities = [(rows[i], F(0)) for i in subset]
            inequalities = [(rows[j], F(1)) for j in range(n) if j not in subset]
            if linear_system_feasible(equalities, inequalities, cone.ambient_dim):
                out.append(frozenset(subset))
    return out


def undecided_by_rank(cone):
    """Subsets the LP must decide: not singletons, and rows short of the full rank.

    One entry per subset, in the lattice's order: the row count of its
    Farkas LP, which is the dimension of the subset's kernel plus one.
    """
    n = cone.num_facets
    rows = [f.coeffs for f in cone.facets]
    full = rank(rows)
    ranks = (rank([rows[i] for i in subset]) for r in range(2, n) for subset in combinations(range(n), r))
    return [cone.ambient_dim - k + 1 for k in ranks if k < full]


def eliminated_by_lattice(cone):
    """Subsets the lattice must eliminate, in its order: rows of each subset rank leaves open or of size full_rank."""
    n = cone.num_facets
    rows = [f.coeffs for f in cone.facets]
    full = rank(rows)
    return [
        [cone._rows[i] for i in subset]
        for r in range(2, n)
        for subset in combinations(range(n), r)
        if r == full or rank([rows[i] for i in subset]) < full
    ]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The row lists eliminated, by a kernel or a rank; the lattice cache starts cold."""
    calls = []
    original = linalg._gauss_jordan

    def counted(rows):
        calls.append(list(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    _face_lattice_cached.cache_clear()
    yield calls
    _face_lattice_cached.cache_clear()


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts LP solves; the lattice cache starts cold."""
    calls = []
    original = linalg.feasible_standard

    def counted(rows, rhs):
        calls.append(len(rows))
        return original(rows, rhs)

    monkeypatch.setattr(linalg, "feasible_standard", counted)
    _face_lattice_cached.cache_clear()
    yield calls
    _face_lattice_cached.cache_clear()


class TestAgainstLPLattice:
    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), unit_cube()], ids=["square", "triangle", "cube"])
    def test_tangent_family(self, domain):
        cone = cone_from_polytope(domain)
        members = [entry.cone for entry in tangent_family(cone)]
        assert any(not member.is_proper for member in members)
        for member in members:
            assert face_lattice_active_sets(member) == lp_lattice(member), member

    @pytest.mark.parametrize(
        "domain, apex",
        [(octahedron(), 4), (square_pyramid(), 4), (pentagonal_pyramid(), 5)],
        ids=["octahedron", "pyramid", "pentagonal-pyramid"],
    )
    def test_non_simple_polytopes(self, domain, apex):
        cone = cone_from_polytope(domain)
        lattice = face_lattice_active_sets(cone)
        assert lattice == lp_lattice(cone)
        assert max(len(active) for active in lattice) == apex

    def test_pyramid_tangent_family(self):
        for entry in tangent_family(cone_from_polytope(square_pyramid())):
            assert face_lattice_active_sets(entry.cone) == lp_lattice(entry.cone), entry.index_set

    @pytest.mark.parametrize("m", range(3, 10))
    def test_seeded_polygons(self, m):
        cone = cone_from_polytope(tangent_polygon(random.Random(m), m))
        lattice = face_lattice_active_sets(cone)
        assert lattice == lp_lattice(cone)
        assert len(lattice) == 2 * m

    def test_seeded_simple_polytope(self):
        cone = cone_from_polytope(tangent_polytope3(random.Random(8), 8))
        assert face_lattice_active_sets(cone) == lp_lattice(cone)

    def test_cones_with_lineality(self):
        # A simplicial cone in R^3, the same facets in R^4 with a line of
        # lineality, and the square's cone times a line.
        proper = PolyCone([(1, 0, 0), (0, 1, 0), (-1, -1, 1)], 3)
        with_line = PolyCone([(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 1, 0)], 4)
        assert proper.is_proper and not with_line.is_proper
        for cone in (proper, with_line, square_with_line()):
            assert face_lattice_active_sets(cone) == lp_lattice(cone)


class TestLPCount:
    def test_polygon_asks_only_the_pairs(self, lp_calls):
        cone = cone_from_polytope(tangent_polygon(random.Random(8), 8))
        lp_calls.clear()
        face_lattice_active_sets(cone)
        assert lp_calls == undecided_by_rank(cone) == [2] * 28

    def test_simple_polytope_asks_pairs_and_triples(self, lp_calls):
        cone = cone_from_polytope(tangent_polytope3(random.Random(8), 8))
        lp_calls.clear()
        face_lattice_active_sets(cone)
        assert lp_calls == undecided_by_rank(cone) == [3] * 28 + [2] * 56

    def test_non_simple_polytope_asks_the_dependent_subsets(self, lp_calls):
        cone = cone_from_polytope(octahedron())
        lp_calls.clear()
        face_lattice_active_sets(cone)
        assert lp_calls == undecided_by_rank(cone)
        assert len(lp_calls) == 96

    def test_lineality_lowers_the_rank_that_decides(self, lp_calls):
        cone = square_with_line()
        lp_calls.clear()
        face_lattice_active_sets(cone)
        assert lp_calls == undecided_by_rank(cone) == [3] * 6

    def test_warm_cache_asks_nothing(self, lp_calls):
        cone = cone_from_polytope(unit_cube())
        face_lattice_active_sets(cone)
        lp_calls.clear()
        face_lattice_active_sets(cone)
        assert lp_calls == []


class TestEliminationCount:
    """One integer kernel per subset that rank leaves open or that has size full_rank, and no other."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: cone_from_polytope(tangent_polygon(random.Random(8), 8)),
            lambda: cone_from_polytope(tangent_polytope3(random.Random(8), 8)),
            lambda: cone_from_polytope(octahedron()),
            lambda: cone_from_polytope(square_pyramid()),
            lambda: cone_from_polytope(pentagonal_pyramid()),
            square_with_line,
            lambda: PolyCone([(1, 0, 0), (0, 1, 0), (-1, -1, 1)], 3),
        ],
        ids=["8-gon", "simple-3-polytope", "octahedron", "pyramid", "pentagonal-pyramid", "with-line", "simplicial"],
    )
    def test_once_per_subset(self, kernel_calls, make):
        cone = make()
        expected = eliminated_by_lattice(cone)
        kernel_calls.clear()
        face_lattice_active_sets(cone)
        assert kernel_calls == expected

    def test_polygon_counts(self, kernel_calls, lp_calls):
        # Every pair of a polygon cone is short of rank three and is one LP;
        # every triple has size full_rank, spans, and takes its kernel but no LP.
        cone = cone_from_polytope(tangent_polygon(random.Random(8), 8))
        kernel_calls.clear()
        lp_calls.clear()
        face_lattice_active_sets(cone)
        assert [len(rows) for rows in kernel_calls] == [2] * 28 + [3] * 56
        assert lp_calls == [2] * 28

    def test_warm_cache_eliminates_nothing(self, kernel_calls):
        cone = cone_from_polytope(unit_cube())
        face_lattice_active_sets(cone)
        kernel_calls.clear()
        face_lattice_active_sets(cone)
        assert kernel_calls == []


def rank_part_dimension(cone, part):
    """Oracle: (face span - 1) + (rank of the cone_index rows - 1), both by `rank` on the facets."""
    rows = [f.coeffs for f in cone.facets]
    span = cone.ambient_dim - rank([rows[i] for i in part.face_active])
    return (span - 1) + (rank([rows[i] for i in part.cone_index]) - 1)


class TestPartDimension:
    @pytest.mark.parametrize(
        "domain",
        [octahedron(), square_pyramid(), pentagonal_pyramid()],
        ids=["octahedron", "pyramid", "pentagonal-pyramid"],
    )
    def test_non_simple_polytopes_match_rank(self, domain, monkeypatch):
        cone = cone_from_polytope(domain)
        rows = [f.coeffs for f in cone.facets]
        calls = []
        original = horoboundary._gauss_jordan

        def counted(rows):
            calls.append(len(rows))
            return original(rows)

        monkeypatch.setattr(horoboundary, "_gauss_jordan", counted)
        dependent = non_simple = 0
        for part in enumerate_parts(cone):
            assert part_dimension(cone, part) == rank_part_dimension(cone, part), part
            simple = rank([rows[i] for i in part.face_active]) == len(part.face_active)
            non_simple += not simple
            dependent += rank([rows[i] for i in part.cone_index]) < len(part.cone_index)
        # Only parts on a non-simple face eliminate; the apex makes |I| wrong for some.
        assert len(calls) == non_simple > 0
        assert dependent > 0

    @pytest.mark.parametrize("seed", [3, 8, 11])
    def test_seeded_simple_polytopes_match_rank_without_elimination(self, seed, monkeypatch):
        cone = cone_from_polytope(tangent_polytope3(random.Random(seed), 7))
        monkeypatch.setattr(horoboundary, "_gauss_jordan", None)  # a simple polytope never eliminates
        for part in enumerate_parts(cone):
            assert part_dimension(cone, part) == rank_part_dimension(cone, part), part


class TestEarlyStop:
    def test_twenty_gon_is_its_edges_and_vertices(self, lp_calls):
        domain = tangent_polygon(random.Random(20), 20)
        cone = cone_from_polytope(domain)
        lp_calls.clear()
        start = time.perf_counter()
        lattice = face_lattice_active_sets(cone)
        elapsed = time.perf_counter() - start
        vertices = {classify_point(cone, lift_to_cone(v)).active for v in domain.vertices}
        assert len(vertices) == 20 and all(len(active) == 2 for active in vertices)
        assert set(lattice) == {frozenset({i}) for i in range(20)} | vertices
        assert len(lattice) == 40
        # Every triple spans, so the walk stops there: one LP per pair, none larger.
        assert lp_calls == [2] * 190
        assert elapsed < 1.0

    def test_concurrent_facets_take_the_full_walk(self):
        # Five facets meet at the pyramid's apex, more than the rank four.
        cone = cone_from_polytope(pentagonal_pyramid())
        apex = classify_point(cone, lift_to_cone((1, 2, 1))).active
        assert len(apex) == 5 and apex in face_lattice_active_sets(cone)
        assert face_lattice_active_sets(cone) == lp_lattice(cone)


class TestSpanDimensions:
    def test_cached_spans_match_rank(self):
        cones = [cone_from_polytope(d) for d in (octahedron(), pentagonal_pyramid(), tangent_polytope3(random.Random(8), 8))]
        cones += [entry.cone for d in (unit_cube(), square_pyramid()) for entry in tangent_family(cone_from_polytope(d))]
        cones.append(square_with_line())
        for cone in cones:
            faces = _face_lattice_cached(cone)
            assert list(faces) == face_lattice_active_sets(cone)
            for active, span in faces.items():
                assert span == cone.ambient_dim - rank([cone.facets[i].coeffs for i in active])


class TestGuard:
    def test_names_the_facet_count(self):
        m = FACE_LATTICE_MAX_FACETS + 1
        cone = cone_from_polytope(tangent_polygon(random.Random(m), m))
        assert cone.num_facets == m
        with pytest.raises(ConstructionError, match=rf"has {m} facets, more than {FACE_LATTICE_MAX_FACETS}"):
            face_lattice_active_sets(cone)
