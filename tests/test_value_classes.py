"""The ten immutable value classes: field-wise equality and hashing, no assignment.

Each factory builds a fresh object from fresh field values, so equality is
never decided by identity alone.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from hilbertgeom import (
    BOUNDARY,
    BusemannPoint,
    CollinearityWitness,
    ConstructionError,
    DomainError,
    Face,
    LinearFunctional,
    LinearMap,
    PartId,
    PointLocation,
    SimplexIsometry,
    TangentFamilyEntry,
    VClass,
    busemann_eval,
    busemann_point,
    collineation_witness_failure,
    cone_from_polytope,
    simplex_collineation,
    subcone,
    vclass,
)

from helpers import unit_square


def _cone():
    return cone_from_polytope(unit_square())


def _busemann():
    centre = (F(1, 2), F(1, 2), 1)
    return busemann_point(_cone(), (0, F(1, 4), 1), [3], centre, centre)


# class -> (factory, compared fields in order)
CASES = {
    LinearFunctional: (lambda: LinearFunctional([F(1, 2), 1]), ("coeffs",)),
    PointLocation: (lambda: PointLocation(BOUNDARY, frozenset({0, 2})), ("kind", "active")),
    Face: (lambda: Face(_cone(), frozenset({0})), ("parent", "active")),
    BusemannPoint: (_busemann, ("cone", "x", "x_active", "funk_index", "funk_cone", "p", "base")),
    PartId: (lambda: PartId(frozenset({0, 2}), frozenset({2})), ("face_active", "cone_index")),
    TangentFamilyEntry: (lambda: TangentFamilyEntry(frozenset({1}), subcone(_cone(), {1})), ("index_set", "cone")),
    VClass: (lambda: vclass([0, F(1, 3), 2]), ("nums", "den")),
    SimplexIsometry: (
        lambda: SimplexIsometry(vclass([0, 1, 2]), (2, 0, 1), True), ("translation", "permutation", "flip")
    ),
    LinearMap: (lambda: simplex_collineation((1, 0), (1, 2)), ("rows",)),
    CollinearityWitness: (lambda: collineation_witness_failure(2), ("points", "images", "columns", "determinant")),
}
IDS = [cls.__name__ for cls in CASES]


@pytest.fixture(params=list(CASES), ids=IDS)
def case(request):
    cls = request.param
    factory, fields = CASES[cls]
    return cls, factory, fields


def test_equal_fields_give_equal_objects_and_hashes(case):
    cls, factory, fields = case
    a, b = factory(), factory()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))


def test_other_class_with_the_same_fields_is_not_equal(case):
    cls, factory, fields = case
    a = factory()
    twin_class = type("Twin", (cls,), {"__slots__": ()})
    twin = object.__new__(twin_class)
    for name in cls.__slots__:
        object.__setattr__(twin, name, getattr(a, name))
    assert a != twin and twin != a
    assert a != tuple(getattr(a, f) for f in fields)


def test_assignment_and_deletion_raise(case):
    cls, factory, fields = case
    a = factory()
    for name in fields:
        before = getattr(a, name)
        with pytest.raises(AttributeError, match=name):
            setattr(a, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(a, name)
        assert getattr(a, name) is before
    with pytest.raises(AttributeError):
        a.extra = 1


def test_keyword_construction_copy_and_pickle(case):
    cls, factory, fields = case
    a = factory()
    if cls is not VClass:  # built from a representative, not from its fields
        assert cls(**{f: getattr(a, f) for f in fields}) == a
    assert copy.copy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{cls.__name__}({fields[0]}=")


@pytest.mark.parametrize("factory", [_cone, unit_square], ids=["PolyCone", "HPolytope"])
def test_cones_and_polytopes_refuse_assignment_and_survive_copy_and_pickle(factory):
    """Cones key the face-lattice cache and polytopes feed the gauges, so neither may change once built."""
    a = factory()
    for name in type(a).__slots__:
        before = getattr(a, name)
        with pytest.raises(AttributeError, match=name):
            setattr(a, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(a, name)
        assert getattr(a, name) is before
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a)
        assert all(getattr(twin, name) == getattr(a, name) for name in type(a).__slots__)


def test_simplex_isometry_equality_ignores_gather():
    a = SimplexIsometry(vclass([0, 1, 2]), (2, 0, 1), False)
    b = SimplexIsometry(vclass([0, 1, 2]), (2, 0, 1), False)
    object.__setattr__(b, "_gather", (0, 1, 2))
    assert a._gather == (1, 2, 0) and a == b and hash(a) == hash(b)
    assert "_gather" not in repr(a)


def test_busemann_point_with_a_filled_anchor_is_the_same_value():
    a = _busemann()
    busemann_eval(a, (F(1, 3), F(1, 4), 1))
    assert a._values is not None  # the record, its anchor included
    b = _busemann()
    assert b._values is None and a == b and b == a and hash(a) == hash(b)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and hash(twin) == hash(a)
    assert repr(a) == repr(b) and "_values" not in repr(a)


def test_simplex_isometry_takes_any_sequence_of_ints_as_a_tuple():
    expected = SimplexIsometry(vclass([0, 1, 2]), (2, 0, 1), False)
    for permutation in ([2, 0, 1], (2, 0, 1)):
        g = SimplexIsometry(vclass([0, 1, 2]), permutation, False)
        assert g.permutation == (2, 0, 1) and type(g.permutation) is tuple
        assert g == expected and hash(g) == hash(expected)
    identity = SimplexIsometry(vclass([0, 0]), range(2), False)
    assert identity.permutation == (0, 1) and identity._gather == (0, 1)


def test_validation_messages():
    with pytest.raises(ConstructionError, match="^the zero functional is not allowed$"):
        LinearFunctional([0, F(0)])
    zero = vclass([0, 0, 0])
    with pytest.raises(DomainError, match="^not a permutation of the coordinates$"):
        SimplexIsometry(zero, (0, 0, 1), False)
    with pytest.raises(DomainError, match="^permutation and translation sizes differ$"):
        SimplexIsometry(zero, (1, 0), False)
    with pytest.raises(DomainError, match="^a variation class needs at least two coordinates$"):
        VClass([1])
