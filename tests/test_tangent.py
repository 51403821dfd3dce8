"""Tangent cones, the facet-subset family, and Hilbert-geometry dimensions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from hilbertgeom import (
    ConstructionError,
    DomainError,
    PolyCone,
    canonical_index_set,
    classify_point,
    cone_from_polytope,
    cone_subset,
    face_lattice_active_sets,
    hilbert_dimension,
    lift_to_cone,
    lineality_dim,
    subcone,
    tangent_cone,
    tangent_family,
)

from hilbertgeom.linalg import in_cone

from helpers import F, facet_index, interval, simplex2, unit_cube, unit_square


def orthant3():
    return PolyCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)


class TestTangentCone:
    def test_square_cone_facet_point(self):
        cone = cone_from_polytope(unit_square())
        tangent = tangent_cone(cone, (0, F(1, 2), 1))
        assert tangent == PolyCone([(1, 0, 0)], 3)

    def test_square_cone_vertex_ray(self):
        cone = cone_from_polytope(unit_square())
        tangent = tangent_cone(cone, (0, 0, 1))
        assert tangent == PolyCone([(1, 0, 0), (0, 1, 0)], 3)

    def test_apex_gives_the_cone_back(self):
        cone = cone_from_polytope(unit_square())
        assert tangent_cone(cone, (0, 0, 0)) == cone

    def test_rejects_interior_and_exterior(self):
        cone = cone_from_polytope(unit_square())
        with pytest.raises(DomainError):
            tangent_cone(cone, (F(1, 2), F(1, 2), 1))
        with pytest.raises(DomainError):
            tangent_cone(cone, (-1, 0, 1))

    def test_contains_the_cone(self):
        cone = cone_from_polytope(unit_square())
        for z in [(0, F(1, 2), 1), (0, 0, 1), (1, 1, 1), (F(1, 3), 0, 1)]:
            assert cone_subset(cone, tangent_cone(cone, z))

    def test_membership_characterisation_sampled(self):
        # u is in the tangent cone at z exactly when z + lam*u enters the
        # open cone for some (equivalently, every small) lam > 0.
        cone = cone_from_polytope(unit_square())
        rng = random.Random(43)
        for z in [(0, F(1, 2), 1), (0, 0, 1)]:
            tangent = tangent_cone(cone, z)
            for _ in range(60):
                u = tuple(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3))
                if all(c == 0 for c in u):
                    continue
                in_tangent = classify_point(tangent, u).is_interior
                lam = F(1, 2**40)
                probe = tuple(a + lam * b for a, b in zip(z, u))
                entered = classify_point(cone, probe).is_interior
                assert in_tangent == entered


def facet_subsets(cone):
    n = cone.num_facets
    return [frozenset(s) for r in range(1, n + 1) for s in combinations(range(n), r)]


class TestFacetSubsets:
    """The irredundancy invariant of canonical cones, against LP oracles."""

    @staticmethod
    def lp_reduction(cone, subset):
        """Drop each index whose functional the rest of the subset implies (Farkas)."""
        kept = sorted(subset)
        i = 0
        while i < len(kept):
            others = [cone.facets[j].coeffs for j in kept if j != kept[i]]
            if others and in_cone(cone.facets[kept[i]].coeffs, others):
                del kept[i]
            else:
                i += 1
        return frozenset(kept)

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), unit_cube()])
    def test_every_subset_is_its_own_canonical_name(self, domain):
        cone = cone_from_polytope(domain)
        for subset in facet_subsets(cone):
            assert self.lp_reduction(cone, subset) == subset
            assert canonical_index_set(cone, subset) == subset

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), unit_cube()])
    def test_subcone_matches_recanonicalised_cone(self, domain):
        cone = cone_from_polytope(domain)
        for subset in facet_subsets(cone):
            fast = subcone(cone, subset)
            slow = PolyCone([cone.facets[i] for i in sorted(subset)], cone.ambient_dim)
            assert fast == slow
            assert fast.lineality_basis == slow.lineality_basis

    @pytest.mark.parametrize("domain", [unit_square(), simplex2()])
    def test_containment_reverses_index_inclusion(self, domain):
        cone = cone_from_polytope(domain)
        subsets = facet_subsets(cone)
        for g in subsets:
            for h in subsets:
                assert cone_subset(subcone(cone, g), subcone(cone, h)) == (h <= g)

    @pytest.mark.parametrize("indices", [[0, 7], [4], [-1], [0, -1]])
    def test_rejects_out_of_range_indices(self, indices):
        cone = cone_from_polytope(unit_square())
        with pytest.raises(DomainError):
            canonical_index_set(cone, indices)
        with pytest.raises(DomainError):
            subcone(cone, indices)

    def test_rejects_empty_index_set(self):
        cone = cone_from_polytope(unit_square())
        with pytest.raises(DomainError):
            canonical_index_set(cone, [])


class TestTangentFamily:
    def family_oracle(self, cone):
        """Exhaustive enumeration with pairwise mutual-containment dedup."""
        seen = []
        n = cone.num_facets
        for r in range(1, n + 1):
            for subset in combinations(range(n), r):
                candidate = subcone(cone, subset)
                if not any(
                    cone_subset(candidate, other) and cone_subset(other, candidate)
                    for other in seen
                ):
                    seen.append(candidate)
        return seen

    @pytest.mark.parametrize(
        "domain,expected",
        [(interval(0, 4), 3), (unit_square(), 15), (simplex2(), 7)],
    )
    def test_counts_match_oracle(self, domain, expected):
        cone = cone_from_polytope(domain)
        family = tangent_family(cone)
        assert len(family) == expected
        assert len(self.family_oracle(cone)) == expected

    def test_entries_are_canonical_and_distinct(self):
        cone = cone_from_polytope(unit_square())
        family = tangent_family(cone)
        cones = [entry.cone for entry in family]
        assert len(set(cones)) == len(cones)
        for entry in family:
            assert entry.cone == subcone(cone, entry.index_set)

    @pytest.mark.parametrize("domain", [unit_square(), simplex2()])
    def test_closed_under_iterated_tangents(self, domain):
        cone = cone_from_polytope(domain)
        family_cones = {entry.cone for entry in tangent_family(cone)}
        for member in list(family_cones):
            for active in face_lattice_active_sets(member):
                iterated = subcone(member, active)
                assert iterated in family_cones

    def test_size_guard(self):
        cone = cone_from_polytope(unit_square())
        with pytest.raises(ConstructionError):
            tangent_family(cone, indices=range(25))

    def test_subfamily_of_boundary_point(self):
        cone = cone_from_polytope(unit_square())
        active = classify_point(cone, (0, 0, 1)).active
        family = tangent_family(cone, indices=active)
        assert len(family) == 3
        assert all(entry.index_set <= active for entry in family)


class TestHilbertDimension:
    def test_examples(self):
        assert hilbert_dimension(orthant3()) == 2
        assert hilbert_dimension(PolyCone([(1, 0, 0)], 3)) == 0
        assert hilbert_dimension(PolyCone([(1, 0, 0), (0, 1, 0)], 3)) == 1

    @pytest.mark.parametrize("domain", [unit_square(), simplex2(), unit_cube()])
    def test_tangent_cone_dimension_complements_face_dimension(self, domain):
        cone = cone_from_polytope(domain)
        n = cone.ambient_dim - 1
        for active in face_lattice_active_sets(cone):
            tangent = subcone(cone, active)
            from hilbertgeom.linalg import rank

            face_dim = cone.ambient_dim - rank([cone.facets[i].coeffs for i in sorted(active)])
            assert lineality_dim(tangent) == face_dim
            assert hilbert_dimension(tangent) == n - face_dim
