"""Tangent cones and the family of cones cut out by facet subsets.

For a canonical cone C with facets psi_1..psi_N, the tangent cone at a
boundary point z is C_I = {x : psi_i(x) > 0 for i in I(z)}, I(z) the active
set of z, so iterated tangent cones stay in the family {C_I : I nonempty}.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from fractions import Fraction

from .geometry import (
    BOUNDARY,
    ConstructionError,
    DomainError,
    PolyCone,
    _check_indices,
    classify_point,
)
from .linalg import _Frozen, _kernel, _refuse, _set, vector

TANGENT_FAMILY_MAX_FACETS = 20


def canonical_index_set(cone: PolyCone, indices: Iterable[int]) -> frozenset[int]:
    """Validate a facet subset of `cone` and return it as the name of its cone.

    A canonical facet list is irredundant: no functional is a nonnegative
    combination of the others.  By Farkas, C_I <= C_J then holds exactly
    when J <= I, so distinct subsets cut out distinct cones and every
    nonempty subset is already the canonical name of the cone it cuts out.
    A `DomainError` refuses what is not iterable, then, in order and before
    any is hashed, an entry that is a `bool`, is not an `int` or names no
    facet, then an empty set.
    """
    try:
        indices = tuple(indices)
    except TypeError:
        if isinstance(indices, Iterable):
            raise
        raise DomainError(f"facet indices must be an iterable of integers, not {type(indices).__name__}") from None
    _check_indices(cone, indices)
    if not indices:
        raise DomainError("facet index set must be nonempty")
    return frozenset(indices)


def _cut(cone: PolyCone, index: Iterable[int]) -> PolyCone:
    """The cone cut out by a facet index set of `cone` that has already been checked.

    A subset of a canonical facet list is canonical as it stands: still
    primitive, sorted and irredundant, and its cone contains the parent, so
    its interior is nonempty.
    """
    rows = tuple(cone._rows[i] for i in sorted(index))
    sub = PolyCone.__new__(PolyCone)
    sub._assign(rows, cone.ambient_dim, _kernel(rows, cone.ambient_dim)[0])
    return sub


def subcone(cone: PolyCone, indices: Iterable[int]) -> PolyCone:
    """The cone cut out by the facet subset `indices` of `cone`, checked by `canonical_index_set`."""
    return _cut(cone, canonical_index_set(cone, indices))


def tangent_cone(cone: PolyCone, z: Sequence[Fraction]) -> PolyCone:
    """Open tangent cone at a boundary point z: the cone cut out by the facets active at z.

    At the apex z = 0 it is the cone itself.  An interior point, whose
    tangent cone is the whole space, or an exterior one is a `DomainError`.
    """
    z = vector(z)
    loc = classify_point(cone, z)
    if loc.kind != BOUNDARY:
        if loc.is_interior:
            raise DomainError("tangent cone at an interior point is the whole space")
        raise DomainError("point lies outside the closed cone")
    return _cut(cone, loc.active)


class TangentFamilyEntry(_Frozen):
    """A member cone of the tangent family, named by parent facet indices."""

    __slots__ = ("index_set", "cone")

    def __init__(self, index_set: frozenset[int], cone: PolyCone):
        _set(self, "index_set", index_set)
        _set(self, "cone", cone)


def tangent_family(cone: PolyCone, indices: Iterable[int] | None = None) -> list[TangentFamilyEntry]:
    """All cones cut out by nonempty subsets of `indices`, every facet by default.

    Distinct subsets cut out distinct cones (see `canonical_index_set`), so
    there is one entry per subset, by size and then lexicographically.  The
    indices are refused as `canonical_index_set` refuses them, and more than
    `TANGENT_FAMILY_MAX_FACETS` of them is a `ConstructionError`.
    """
    _refuse("cone", PolyCone, cone)
    pool = sorted(canonical_index_set(cone, range(cone.num_facets) if indices is None else indices))
    if len(pool) > TANGENT_FAMILY_MAX_FACETS:
        raise ConstructionError(
            f"tangent family guard: the index pool has {len(pool)} facets, more than {TANGENT_FAMILY_MAX_FACETS}"
        )
    return [
        TangentFamilyEntry(frozenset(subset), _cut(cone, subset))
        for r in range(1, len(pool) + 1)
        for subset in combinations(pool, r)
    ]


def hilbert_dimension(cone: PolyCone) -> int:
    """Dimension of the Hilbert geometry on the cone: n minus the lineality."""
    _refuse("cone", PolyCone, cone)
    return (cone.ambient_dim - 1) - len(cone._lineality)
