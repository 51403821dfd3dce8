"""Tangent cones and the family of cones generated by facet subsets.

For a canonical cone C with facets psi_1..psi_N, the tangent cone at a
boundary point z is C_I = {x : psi_i(x) > 0 for i in I(z)} with I(z) the
active set of z, and iterating tangent-cone formation never leaves the
family {C_I : I a nonempty facet subset}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from fractions import Fraction

from .geometry import (
    BOUNDARY,
    ConstructionError,
    DomainError,
    PolyCone,
    classify_point,
)
from .linalg import vector

TANGENT_FAMILY_MAX_FACETS = 20


def canonical_index_set(cone: PolyCone, indices: Iterable[int]) -> frozenset[int]:
    """Validate a facet subset of `cone` and return it as the name of its cone.

    A canonical facet list is irredundant: no functional is a nonnegative
    combination of the others.  By Farkas, C_I <= C_J then holds exactly
    when J <= I, so distinct subsets cut out distinct cones and every
    nonempty subset is already the canonical name of the cone it cuts out.
    """
    index = frozenset(indices)
    if not index:
        raise DomainError("facet index set must be nonempty")
    if not all(0 <= i < cone.num_facets for i in index):
        raise DomainError(f"facet index out of range for a cone with {cone.num_facets} facets")
    return index


def subcone(cone: PolyCone, indices: Iterable[int]) -> PolyCone:
    """The cone cut out by the facet subset `indices` of `cone`.

    A subset of a canonical facet list is canonical as it stands: still
    scaled, sorted and irredundant, and its cone contains the parent, so
    its interior is nonempty.  Nothing is re-canonicalised.
    """
    idx = sorted(canonical_index_set(cone, indices))
    sub = PolyCone.__new__(PolyCone)
    sub._assign(tuple(cone.facets[i] for i in idx), cone.ambient_dim)
    return sub


def tangent_cone(cone: PolyCone, z: Sequence[Fraction]) -> PolyCone:
    """Open tangent cone at a point of the closed cone.

    Realised by the active facet subset at z.  At the apex z = 0 every facet
    is active and the tangent cone is the cone itself; at an interior point
    the tangent cone would be the whole space, which is not polyhedral here,
    so that case is rejected.
    """
    z = vector(z)
    loc = classify_point(cone, z)
    if loc.kind != BOUNDARY:
        if loc.is_interior:
            raise DomainError("tangent cone at an interior point is the whole space")
        raise DomainError("point lies outside the closed cone")
    return subcone(cone, loc.active)


@dataclass(frozen=True)
class TangentFamilyEntry:
    """A member cone of the tangent family, named by parent facet indices."""

    index_set: frozenset[int]
    cone: PolyCone


def tangent_family(cone: PolyCone, indices: Iterable[int] | None = None) -> list[TangentFamilyEntry]:
    """All cones cut out by nonempty subsets of the given facet indices.

    Defaults to every facet, which yields the full family of iterated
    tangent cones.  Distinct subsets give distinct cones (see
    `canonical_index_set`), so there is one entry per subset, ordered by
    size and then lexicographically.
    """
    pool = sorted(set(range(cone.num_facets) if indices is None else indices))
    if not pool:
        raise DomainError("tangent family over an empty index pool")
    if len(pool) > TANGENT_FAMILY_MAX_FACETS:
        raise ConstructionError(f"tangent family guard: more than {TANGENT_FAMILY_MAX_FACETS} facets")
    return [
        TangentFamilyEntry(frozenset(subset), subcone(cone, subset))
        for r in range(1, len(pool) + 1)
        for subset in combinations(pool, r)
    ]


def hilbert_dimension(cone: PolyCone) -> int:
    """Dimension of the Hilbert geometry on the cone: n minus the lineality."""
    return (cone.ambient_dim - 1) - len(cone.lineality_basis)
