"""Cone, polytope, and face primitives."""

import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import hilbertgeom
import hilbertgeom.horoboundary as horoboundary
import hilbertgeom.linalg as linalg
from hilbertgeom import (
    ConstructionError,
    DomainError,
    HPolytope,
    LinearFunctional,
    LogValue,
    ParseError,
    PolyCone,
    VClass,
    busemann_point,
    classify_point,
    cone_from_polytope,
    cone_subset,
    face_contains,
    face_lattice_active_sets,
    face_of,
    format_rational,
    hilbert_cone,
    hilbert_cross_ratio,
    hilbert_dimension,
    interior_point,
    lift_to_cone,
    parse_point,
    parse_rational,
    tangent_family,
)
from hilbertgeom.geometry import _face_lattice_cached
from hilbertgeom.linalg import rank, rational, vector

from test_face_lattice import lp_calls  # noqa: F401  (fixture)

from helpers import (
    F,
    _primitive,
    _unit_lead,
    axes_bounded,
    bench_gen,
    boundary_sample,
    face_test_rows,
    facet_index,
    facet_lists,
    halfspace_systems,
    in_cone,
    interior_sample,
    interval,
    lp_bounded,
    lp_polytope,
    octahedron,
    oracle_vertices,
    pentagon,
    pentagonal_pyramid,
    primal_cone_subset,
    sequential_cone,
    simplex2,
    square_pyramid,
    tangent_polygon,
    tangent_polytope3,
    unit_cube,
    unit_square,
)

import math
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

    def test_overlong_literal_names_the_limit(self):
        with pytest.raises(ParseError, match=str(sys.get_int_max_str_digits())):
            parse_rational("7" * (sys.get_int_max_str_digits() + 1))

    @pytest.mark.parametrize("bad", [5, Fraction(1, 2), None, ["1"]])
    def test_rejects_non_strings(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)
        with pytest.raises(ParseError):
            parse_point(bad)

    def test_parse_point_dimension_check(self):
        assert parse_point("1/2,3") == (F(1, 2), F(3))
        with pytest.raises(ParseError):
            parse_point("1,2,3", dim=2)


class TestFloatsRefused:
    def test_vector_names_the_coordinate(self):
        with pytest.raises(ParseError, match=r"coordinate 1 is the float 0\.1, not an exact rational"):
            vector((F(1), 0.1, 2))
        with pytest.raises(ParseError, match=r"the float 0\.25 is not an exact rational"):
            vector(iter([0.25]))
        assert vector((1, F(1, 3), "2/5")) == (F(1), F(1, 3), F(2, 5))

    def test_library_entry_points(self):
        square = unit_square()
        with pytest.raises(ParseError, match=r"coordinate 0 is the float 0\.1"):
            hilbert_cross_ratio(square, (0.1, 0.5), (F(1, 2), F(1, 2)))
        with pytest.raises(ParseError, match=r"the float -1\.5 is not an exact rational"):
            HPolytope(1, [((1,), 0), ((-1,), -1.5)])
        with pytest.raises(ParseError, match=r"coordinate 1 is the float 1\.0"):
            HPolytope(2, [((1, 1.0), 0), ((-1, 0), -1), ((0, -1), -1)])
        with pytest.raises(ParseError, match=r"the float 0\.5 is not an exact rational"):
            LogValue(0.5)
        with pytest.raises(ParseError, match=r"coordinate 2 is the float 1\.0"):
            classify_point(cone_from_polytope(square), (F(1, 2), F(1, 2), 1.0))
        assert rational(F(3, 4)) == F(3, 4) and rational(-2) == F(-2)

    @pytest.mark.parametrize("bad", ["nan", "1/0", None, Decimal("Infinity"), 1j])
    def test_unreadable_values_name_the_input(self, bad):
        with pytest.raises(ParseError, match=re.escape(repr(bad))):
            rational(bad)

    def test_unreadable_values_at_library_entry_points(self):
        with pytest.raises(ParseError, match="'nan'"):
            vector((1, "nan"))
        with pytest.raises(ParseError, match="'1/0'"):
            LogValue("1/0")
        with pytest.raises(ParseError, match="'nan'"):
            LogValue("nan")
        with pytest.raises(ParseError, match="None"):
            VClass((0, None))
        with pytest.raises(ParseError, match="'nan'"):
            hilbert_cone(("nan", 1, 2), (1, 1, 1), orthant3())

    def test_one_parse_error_class(self):
        assert hilbertgeom.ParseError is ParseError is hilbertgeom.linalg.ParseError
        assert hilbertgeom.geometry.ParseError is ParseError
        assert issubclass(ParseError, hilbertgeom.HilbertGeometryError)


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
            return LinearFunctional(_unit_lead(functional_coeffs))

        mapped = {pull_back(row) for row in matrix}
        assert mapped == set(cone.facets)

    def test_rejects_unbounded(self):
        with pytest.raises(ConstructionError):
            HPolytope(1, [((1,), 0)])

    def test_desk_scale_guard_names_the_input(self):
        halfspaces = [(tuple(int(j == i) for j in range(7)), 0) for i in range(7)]
        with pytest.raises(ConstructionError, match=r"got dim 7 with 7 halfspaces; the limits are dim <= 6"):
            HPolytope(7, halfspaces)
        many = [((1, 0), -k) for k in range(33)]
        with pytest.raises(ConstructionError, match=r"got dim 2 with 33 halfspaces; .* at most 32 halfspaces"):
            HPolytope(2, many)

    def test_rejects_empty_interior(self):
        with pytest.raises(ConstructionError):
            HPolytope(2, [((0, 1), 0), ((0, -1), 0), ((1, 0), -1), ((-1, 0), -1)])

    def test_every_accepted_polytope_homogenises_to_a_proper_cone(self):
        # `cone_from_polytope` has no properness check: boundedness and a nonempty interior imply it.
        accepted = []
        for dim, halfspaces in halfspace_systems(random.Random("corpus-systems"), 300):
            try:
                accepted.append(HPolytope(dim, halfspaces))
            except ConstructionError:
                pass
        accepted += [tangent_polygon(random.Random(seed), m) for seed, m in enumerate(range(3, 9))]
        accepted += [tangent_polytope3(random.Random(seed), m) for seed, m in enumerate(range(5, 9))]
        assert len(accepted) > 50
        for polytope in accepted:
            cone = cone_from_polytope(polytope)
            assert cone.is_proper
            assert hilbert_dimension(cone) == polytope.dim

    def test_repr_counts_halfspaces_and_vertices(self):
        assert repr(pentagon()) == "HPolytope(dim=2, halfspaces=5, vertices=5)"

    def test_cone_equality_with_another_type_is_not_implemented(self):
        cone = cone_from_polytope(unit_square())
        assert cone.__eq__(3) is NotImplemented
        assert (cone == 3) is False


class TestBoundedness:
    """No LP: the rays decide, as the 2 * dim axis LPs and the rank-and-one-LP route do."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        original = linalg.feasible_standard

        def counted(rows, rhs):
            calls.append(len(rows))
            return original(rows, rhs)

        monkeypatch.setattr(linalg, "feasible_standard", counted)
        return calls

    def test_seeded_benchmark_polytopes(self, lp_calls):
        gen = bench_gen()
        rng = random.Random(20261023)
        checked = 0
        for _ in range(3):
            domains = [gen.tangent_polygon(rng, m) for m in range(3, 11)]
            domains += [gen.tangent_polytope3(rng, m) for m in range(4, 9)]
            for domain in domains:
                assert axes_bounded(domain.dim, domain.halfspaces)
                lp_calls.clear()
                polytope = HPolytope(domain.dim, domain.halfspaces)
                assert lp_calls == []
                assert lp_bounded(polytope._rows, polytope.dim)
                checked += 1
        assert checked == 39

    @pytest.mark.parametrize(
        "dim, halfspaces, bounded",
        [
            (2, [((0, 1), 0), ((0, -1), -1)], False),  # strip
            (2, [((1, 0), 0), ((1, 1), 0)], False),  # wedge
            (2, [((1, -1), 0)], False),  # half-plane
            (2, [((1, 0), 0), ((1, 0), -1)], False),  # half-plane, duplicated normal
            (2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((1, 0), -1)], True),  # triangle, duplicated normal
            (2, [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)], True),  # square: the normals sum to zero
            (3, [((1, 0, 0), 0), ((-1, 0, 0), -1), ((0, 1, 0), 0), ((0, -1, 0), -1), ((0, 0, 1), 0)], False),
            (3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -1)], True),
            (2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 0), ((0, -1), -1)], True),  # empty, but bounded: no vertices
            (2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 0)], False),  # empty and unbounded: unbounded wins
        ],
        ids=["strip", "wedge", "half-plane", "duplicated-normal", "triangle-duplicated", "square", "chimney",
             "tetrahedron", "empty-box", "empty-strip"],
    )
    def test_unbounded_and_rank_deficient(self, lp_calls, dim, halfspaces, bounded):
        assert axes_bounded(dim, halfspaces) is bounded
        rows = [_primitive((*vector(a), -F(b))) for a, b in halfspaces]
        assert lp_bounded(rows, dim) is bounded
        expected = lp_polytope(dim, halfspaces)
        lp_calls.clear()
        if isinstance(expected, str):
            with pytest.raises(ConstructionError, match=rf"^{expected}$"):
                HPolytope(dim, halfspaces)
            assert (expected == "polytope is unbounded") is not bounded
        else:
            assert list(HPolytope(dim, halfspaces).vertices) == expected
        assert lp_calls == []


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


def span_dimension(face) -> int:
    """Dimension of the face's linear span: the kernel of its active rows, by rank."""
    cone = face.parent
    return cone.ambient_dim - rank([cone.facets[i].coeffs for i in sorted(face.active)])


class TestFaces:
    def test_orthant_extreme_ray(self):
        cone = orthant3()
        face = face_of(cone, (1, 0, 0))
        assert face.active == {
            facet_index(cone, (0, 1, 0)),
            facet_index(cone, (0, 0, 1)),
        }
        assert span_dimension(face) == 1

    def test_square_cone_facet_face(self):
        cone = cone_from_polytope(unit_square())
        face = face_of(cone, (0, F(1, 2), 1))
        assert face.active == {facet_index(cone, (1, 0, 0))}
        assert span_dimension(face) == 2

    def test_interior_gives_whole_cone(self):
        cone = cone_from_polytope(unit_square())
        face = face_of(cone, (F(1, 2), F(1, 2), 1))
        assert face.active == frozenset()
        assert span_dimension(face) == 3

    def test_rejects_origin_and_exterior(self):
        cone = orthant3()
        with pytest.raises(DomainError):
            face_of(cone, (0, 0, 0))
        with pytest.raises(DomainError):
            face_of(cone, (-1, 0, 0))

    def test_same_face_examples(self):
        def same_face(cone, x, y):
            return face_of(cone, x).active == face_of(cone, y).active

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
                assert (fx.active == fy.active) == (inside and face_contains(fy, x))

    def test_exterior_point_is_in_no_face(self):
        cone = cone_from_polytope(unit_square())
        assert face_contains(face_of(cone, (0, F(1, 2), 1)), (-1, F(1, 2), 1)) is False


class TestLineality:
    def test_examples(self):
        assert len(orthant3().lineality_basis) == 0
        assert len(halfspace3().lineality_basis) == 2
        assert len(quadrant3().lineality_basis) == 1

    def test_stored_basis_is_integer_and_spans_the_kernel(self):
        # The cones of the constructor's lists and their tangent families: built whole and sliced.
        checked = with_lines = 0
        for facets, dim in TestFaceTestConstruction().lists():
            try:
                cone = PolyCone(facets, dim)
            except ConstructionError:
                continue
            for member in [cone, *(entry.cone for entry in tangent_family(cone))]:
                stored, rows = member._lineality, member._rows
                assert all(type(v) is int for vector_ in (*stored, *rows) for v in vector_)
                assert member.lineality_basis == tuple(linalg.kernel_basis(rows, dim))
                assert all(sum(r * v for r, v in zip(row, line)) == 0 for row in rows for line in stored)
                assert rank(stored) == len(stored) == len(member.lineality_basis)
                checked += 1
                with_lines += bool(stored)
        assert checked > 9000 and with_lines > 7000

    POLYTOPES = (unit_square(), unit_cube(), octahedron(), tangent_polytope3(random.Random(8), 8))

    @pytest.fixture
    def eliminated(self, monkeypatch):
        """The rows of each `linalg._gauss_jordan` call, through `linalg` or a module that imported it."""
        calls = []
        original = linalg._gauss_jordan

        def recorded(rows):
            calls.append([tuple(row) for row in rows])
            return original(rows)

        for module in (linalg, horoboundary):
            monkeypatch.setattr(module, "_gauss_jordan", recorded)
        return calls

    def test_cone_from_polytope_eliminates_nothing(self, eliminated):
        for polytope in self.POLYTOPES:
            cone_from_polytope(polytope)
        assert eliminated == []

    def test_busemann_point_eliminates_the_funk_rows_once(self, eliminated):
        for polytope in self.POLYTOPES:
            cone = cone_from_polytope(polytope)
            base = lift_to_cone(interior_point(polytope))
            for vertex in polytope.vertices:
                x = lift_to_cone(vertex)
                active = sorted(classify_point(cone, x).active)
                for index in (active, active[:1]):
                    eliminated.clear()
                    point = busemann_point(cone, x, index, base, base)
                    assert eliminated.count(list(point.funk_cone._rows)) == 1
                    # Beside the funk rows, only the stored lineality basis, when there is one.
                    assert len(eliminated) == 1 + bool(point.funk_cone._lineality)


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
        assert set(unit_square().vertices) == {
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        }
        assert set(interval(0, 4).vertices) == {(F(0),), (F(4),)}
        assert len(simplex2().vertices) == 3

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), interval(0, 4)])
    def test_vertices_are_boundary_in_the_cone(self, domain):
        cone = cone_from_polytope(domain)
        for v in domain.vertices:
            loc = classify_point(cone, lift_to_cone(v))
            assert loc.is_boundary
            assert len(loc.active) >= domain.dim

    def test_integer_kernel_matches_oracle(self):
        """Seeded polygons and simple 3-polytopes of the benchmark, and non-simple fixed ones.

        Each must give exactly the vertices of the rational oracle, which
        are also the ones the generator computes by its own elimination.
        """
        gen = bench_gen()
        rng = random.Random(20261018)
        checked = 0
        for _ in range(3):
            for m in range(3, 11):
                domain = gen.tangent_polygon(rng, m)
                polytope = HPolytope(domain.dim, domain.halfspaces)
                assert list(polytope.vertices) == oracle_vertices(polytope) == list(domain.vertices)
                checked += 1
            for m in range(4, 9):
                domain = gen.tangent_polytope3(rng, m)
                polytope = HPolytope(domain.dim, domain.halfspaces)
                assert list(polytope.vertices) == oracle_vertices(polytope) == list(domain.vertices)
                checked += 1
        # Non-simple vertices, parallel facets and a redundant halfspace through a vertex.
        redundant = HPolytope(2, [*unit_square().halfspaces, ((-1, -1), -2)])
        for polytope in (unit_cube(), octahedron(), square_pyramid(), pentagonal_pyramid(), redundant):
            assert list(polytope.vertices) == oracle_vertices(polytope)
            checked += 1
        assert len(redundant.vertices) == 4
        assert checked == 44


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


class TestRowIdentity:
    """A cone is its primitive integer rows: scaling, order and repeats do not change it."""

    def test_scaled_lists_are_one_cone_and_one_lattice_entry(self):
        first = PolyCone([(2, -1, 0), (0, 3, 1), (-1, 0, 4), (1, 1, 1)], 3)
        second = PolyCone(
            [(F(-1, 3), 0, F(4, 3)), (F(7, 2), F(7, 2), F(7, 2)), (0, 6, 2), (F(2, 5), F(-1, 5), 0), (4, -2, 0)], 3
        )
        assert first is not second and first == second and hash(first) == hash(second)
        assert first._rows == second._rows and first.facets == second.facets
        assert first.num_facets == 3 and first != PolyCone([(2, -1, 0), (0, 3, 1)], 3)
        _face_lattice_cached.cache_clear()
        face_lattice_active_sets(first)
        face_lattice_active_sets(second)
        info = _face_lattice_cached.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_facets_are_a_unit_lead_view_of_the_rows(self):
        cone = PolyCone([(4, -6, 2), (0, F(3, 7), 3), (F(-1, 2), 0, 5)], 3)
        assert cone._rows == ((-1, 0, 10), (0, 1, 7), (2, -3, 1))
        assert [f.coeffs for f in cone.facets] == [
            (F(-1), F(0), F(10)),
            (F(0), F(1), F(7)),
            (F(1), F(-3, 2), F(1, 2)),
        ]
        # Only integers are stored: the rows and a lineality basis; `lineality_basis` is a view too.
        assert PolyCone.__slots__ == ("ambient_dim", "_rows", "_lineality")


def seeded_facet_lists(rng, count):
    """Seeded (functionals, dim): dim 2-4, 1-7 functionals with entries p/q, |p| <= 3, q <= 3.

    About half the lists also get a positive multiple of one functional and
    the sum of two, so duplicates and implied functionals are common.
    """
    lists = []
    while len(lists) < count:
        dim = rng.randint(2, 4)
        size = rng.randint(1, 7)
        facets = []
        while len(facets) < size:
            f = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
            if any(f):
                facets.append(f)
        if len(facets) > 1 and rng.random() < 0.5:
            a, b = rng.sample(facets, 2)
            facets.append(tuple(F(rng.randint(1, 3), rng.randint(1, 3)) * c for c in a))
            if any(x + y for x, y in zip(a, b)):
                facets.append(tuple(x + y for x, y in zip(a, b)))
        rng.shuffle(facets)
        lists.append((facets, dim))
    return lists


# Each special shape the constructor must reduce exactly as the sequential oracle does.
SPECIAL_FACET_LISTS = [
    ([(1, 0, 0), (1, 0, 0), (0, 1, 0)], 3),  # a duplicate
    ([(2, 0, 0), (F(1, 3), 0, 0), (0, 5, 0)], 3),  # positive multiples
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 2, 3)], 3),  # implied sums
    ([(1, 0, 0, 0), (-1, 0, 1, 0), (0, 1, 0, 0), (0, -1, 1, 0)], 4),  # a line of lineality
    ([(F(2, 3), F(-5, 7), 0)], 3),  # a lone functional
    ([(1, -1)], 2),  # a lone functional already in unit-lead form
    ([(1, 0), (-1, 0)], 2),  # empty interior
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], 3),  # empty interior, no opposite pair
    ([(1, 0), (0, 1), (1, 1), (2, 2)], 2),  # an implied functional, twice
    ([(1,), (-1,)], 1),  # empty interior: each singleton's kernel is {0}
    ([(1,), (2,)], 1),  # one row after merging, so no LP
]


class TestFaceTestConstruction:
    """The rays keep what the sequential Farkas loop kept, in the same order."""

    def lists(self):
        return SPECIAL_FACET_LISTS + seeded_facet_lists(random.Random(20261018), 1000)

    def test_matches_sequential_oracle(self):
        refused = 0
        for facets, dim in self.lists():
            expected = sequential_cone(facets, dim)
            if expected is None:
                refused += 1
                with pytest.raises(ConstructionError, match=r"^cone has empty interior$"):
                    PolyCone(facets, dim)
                continue
            cone = PolyCone(facets, dim)
            assert (cone.facets, cone._rows, cone.lineality_basis) == expected, facets
        assert 100 < refused < 500

    def test_lp_count(self, lp_calls):
        # No LP, refused or not: emptiness and facets are read off the rays.
        for facets, dim in self.lists():
            lp_calls.clear()
            try:
                PolyCone(facets, dim)
            except ConstructionError:
                pass
            assert lp_calls == []

    def test_cone_subset_matches_primal_oracle(self, lp_calls):
        by_dim = {}
        for facets, dim in self.lists()[:200]:
            try:
                cone = PolyCone(facets, dim)
            except ConstructionError:
                continue
            family = by_dim.setdefault(dim, [])
            family.append(cone)
            # Every subcone contains the cone, so true answers are common too.
            family.extend(entry.cone for entry in tangent_family(cone)[: cone.num_facets])
        pairs = contained = 0
        for cones in by_dim.values():
            for inner in cones[:24]:
                for outer in cones[:24]:
                    lp_calls.clear()
                    answer = cone_subset(inner, outer)
                    assert lp_calls == []  # read off inner's rays and lineality basis
                    assert answer == primal_cone_subset(inner, outer)
                    pairs += 1
                    contained += answer
        assert pairs == 3 * 24 * 24 + 2 * 2  # 24 cones in each of dims 2 to 4; in dim 1, [(1,), (2,)] and its subcone
        assert 3 * 24 < contained < pairs


class TestRaysAgainstTheOldRoutes:
    """Construction on the rays against the LP and kernel routes it replaced, kept as oracles."""

    def test_facet_lists_match_the_singleton_face_tests(self):
        lists = SPECIAL_FACET_LISTS + facet_lists(random.Random(20261019), 3000)
        refused = 0
        for facets, dim in lists:
            expected = face_test_rows(facets, dim)
            if expected is None:
                refused += 1
                with pytest.raises(ConstructionError, match=r"^cone has empty interior$"):
                    PolyCone(facets, dim)
            else:
                assert PolyCone(facets, dim)._rows == expected, (facets, dim)
        assert 500 < refused < 1500

    def test_halfspace_systems_match_the_kernel_vertices(self):
        outcomes = {}
        for dim, halfspaces in halfspace_systems(random.Random(20261019), 1500):
            expected = lp_polytope(dim, halfspaces)
            if isinstance(expected, str):
                with pytest.raises(ConstructionError, match=rf"^{expected}$"):
                    HPolytope(dim, halfspaces)
            else:
                assert list(HPolytope(dim, halfspaces).vertices) == expected, (dim, halfspaces)
                expected = "built"
            outcomes[expected] = outcomes.get(expected, 0) + 1
        assert len(outcomes) == 4 and min(outcomes.values()) >= 150, outcomes

    def test_construction_makes_no_lp_and_the_lattice_still_does(self, lp_calls):
        for polytope in (octahedron(), tangent_polytope3(random.Random(8), 8), tangent_polygon(random.Random(9), 9)):
            lp_calls.clear()
            rebuilt = HPolytope(polytope.dim, polytope.halfspaces)
            cone = cone_from_polytope(rebuilt)
            PolyCone(cone.facets, cone.ambient_dim)
            assert lp_calls == []
            face_lattice_active_sets(cone)
            assert len(lp_calls) > 0


class TestInteriorPoint:
    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), interval(0, 4)])
    def test_centroid_is_interior(self, domain):
        assert domain.contains_interior(interior_point(domain))

    def test_samples_are_interior(self):
        rng = random.Random(7)
        domain = unit_square()
        for _ in range(30):
            assert domain.contains_interior(interior_sample(domain, rng))


def seeded_domains():
    return [
        unit_square(),
        simplex2(),
        pentagon(),
        unit_cube(),
        tangent_polygon(random.Random(7), 7),
        tangent_polytope3(random.Random(8), 8),
    ]


def rational_cones():
    """Cones with rational facets, two with lineality."""
    return [
        PolyCone([(F(2, 3), F(-5, 7), 1), (F(-1, 9), F(4, 11), F(1, 2)), (0, F(3, 250), F(1, 8))], 3),
        PolyCone([(F(2, 3), F(-5, 7), 0), (F(-1, 9), F(4, 11), 0)], 3),
        PolyCone([(F(1, 6), 0, 0, F(-7, 12)), (F(-3, 4), 0, F(5, 2), 0), (0, 0, F(1, 300), F(2, 299))], 4),
    ]


def subcones_of_all():
    """Every cone of the seeded domains and rational cones, with all their tangent-family members."""
    cones = [cone_from_polytope(d) for d in seeded_domains()] + rational_cones()
    return [entry.cone for cone in cones for entry in tangent_family(cone)]


def rational_point(rng, dim, den=300):
    return tuple(F(rng.randint(-4 * den, 4 * den), rng.randint(1, den)) for _ in range(dim))


def fraction_location(cone, point):
    """Reference classification from the `Fraction` facet values."""
    values = [f(vector(point)) for f in cone.facets]
    if any(v < 0 for v in values):
        return "exterior", frozenset()
    active = frozenset(i for i, v in enumerate(values) if v == 0)
    return ("boundary" if active else "interior"), active


class TestIntegerRows:
    def test_stored_rows_are_positive_primitive_multiples(self):
        for cone in subcones_of_all():
            assert len(cone._rows) == cone.num_facets
            for row, f in zip(cone._rows, cone.facets):
                assert all(type(v) is int for v in row) and math.gcd(*row) == 1
                lead = next(j for j, c in enumerate(f.coeffs) if c != 0)
                scale = row[lead] / f.coeffs[lead]
                assert scale > 0 and row == tuple(scale * c for c in f.coeffs)
        for domain in seeded_domains():
            for row, (f, b) in zip(domain._rows, domain.halfspaces):
                full = (*f.coeffs, -b)
                lead = next(j for j, c in enumerate(full) if c != 0)
                scale = row[lead] / full[lead]
                assert math.gcd(*row) == 1 and scale > 0 and row == tuple(scale * c for c in full)

    def test_classify_point_matches_fraction_signs(self):
        rng = random.Random(20261023)
        kinds = {"interior": 0, "boundary": 0, "exterior": 0}
        for domain in seeded_domains():
            cone = cone_from_polytope(domain)
            members = [entry.cone for entry in tangent_family(cone)]
            for _ in range(40):
                lam = F(rng.randint(1, 300), rng.randint(1, 300))
                points = [
                    lift_to_cone(interior_sample(domain, rng, hi=300)),
                    lift_to_cone(boundary_sample(domain, rng)),
                    rational_point(rng, cone.ambient_dim),
                ]
                for point in points:
                    point = tuple(lam * c for c in point)
                    for member in (cone, rng.choice(members)):
                        kind, active = fraction_location(member, point)
                        loc = classify_point(member, point)
                        assert (loc.kind, loc.active) == (kind, active), (member, point)
                        kinds[kind] += 1
        for cone in rational_cones():
            for _ in range(200):
                point = rational_point(rng, cone.ambient_dim, den=rng.choice([7, 300]))
                kind, active = fraction_location(cone, point)
                loc = classify_point(cone, point)
                assert (loc.kind, loc.active) == (kind, active), (cone, point)
                kinds[kind] += 1
        assert min(kinds.values()) >= 200

    def test_contains_interior_matches_fraction_signs(self):
        rng = random.Random(20261024)
        answers = {True: 0, False: 0}
        for domain in seeded_domains():
            for _ in range(60):
                for point in (
                    interior_sample(domain, rng, hi=300),
                    boundary_sample(domain, rng),
                    rational_point(rng, domain.dim, den=rng.choice([3, 300])),
                ):
                    expected = all(f(point) > b for f, b in domain.halfspaces)
                    assert domain.contains_interior(point) is expected, (domain, point)
                    answers[expected] += 1
        assert min(answers.values()) >= 300

    def test_input_messages_unchanged(self):
        cone = cone_from_polytope(pentagon())
        with pytest.raises(DomainError, match=r"^point has dimension 2, cone lives in 3$"):
            classify_point(cone, (F(1), F(1)))
        with pytest.raises(ParseError, match=r"^coordinate 1 is the float 0\.5, not an exact rational$"):
            classify_point(cone, (F(1), 0.5, F(1)))
        with pytest.raises(DomainError, match=r"^point has dimension 3, polytope has 2$"):
            pentagon().contains_interior((F(1), F(1), F(1)))
        with pytest.raises(ParseError, match=r"^coordinate 0 is the float 1\.5, not an exact rational$"):
            pentagon().contains_interior((1.5, F(1)))
