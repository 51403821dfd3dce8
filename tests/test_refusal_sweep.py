"""A generated sweep: every public callable, each required argument swapped for garbage.

The callables come from `hilbertgeom.__all__` and their parameters from
`inspect.signature`.  Each required parameter has one valid default, looked
up by the callable's name and the parameter's name, then by the parameter's
name alone; the call with every default must succeed.  Each required
position in turn then takes `None`, `1.5`, `"x"` and `[[]]`, and the call
must either succeed or raise a `HilbertGeometryError`: never a `TypeError`,
`AttributeError` or any other class.  Each position whose default is a
vector then takes a digit string of the same length, which must be refused
as a `ParseError`, not read one character per coordinate.
"""

import inspect
from fractions import Fraction as F

import pytest

import hilbertgeom
from hilbertgeom import (
    Face,
    HilbertGeometryError,
    ParseError,
    PartId,
    VClass,
    busemann_point,
    classify_point,
    cone_from_polytope,
    hilbert_cone,
    identity_isometry,
    lift_to_cone,
)

from helpers import unit_square

SQUARE = cone_from_polytope(unit_square())
CENTRE = lift_to_cone((F(1, 2), F(1, 2)))
NEAR = lift_to_cone((F(3, 4), F(1, 2)))
EDGE = lift_to_cone((0, F(1, 2)))
EDGE_LOW = lift_to_cone((0, F(1, 4)))
EDGE_ACTIVE = classify_point(SQUARE, EDGE).active
ON_EDGE = busemann_point(SQUARE, EDGE, EDGE_ACTIVE, NEAR, CENTRE)
ISOMETRY = identity_isometry(2)
CLASS = VClass([0, 1, 2])

# A valid value for each parameter name, as most callables read it.
BY_NAME = {
    "cone": SQUARE, "inner": SQUARE, "outer": SQUARE, "parent": SQUARE, "funk_cone": SQUARE,
    "polytope": unit_square(), "face": Face(SQUARE, EDGE_ACTIVE),
    "x": CENTRE, "y": NEAR, "z": EDGE, "w": CENTRE, "r": lift_to_cone((F(1, 4), F(1, 4))),
    "p": NEAR, "base": CENTRE, "point": CENTRE, "numerator": CENTRE, "denominator": NEAR,
    "g": ON_EDGE, "h": ON_EDGE, "part": PartId(frozenset({0}), frozenset({0})),
    "indices": [0], "funk_index": EDGE_ACTIVE, "active": frozenset({0}), "x_active": EDGE_ACTIVE,
    "face_active": frozenset({0}), "cone_index": frozenset({0}), "index_set": frozenset({0}),
    "facets": [(1, 0), (0, 1)], "halfspaces": unit_square().halfspaces, "coeffs": (1, 0, 0),
    "rows": ((1, 0), (0, 1)), "dim": 2, "n": 2, "t": F(1, 2), "q": F(1, 2), "arg": 2, "kind": "interior",
    "text": "1/2", "values": (1, 2), "rep": (0, 1, 2), "v": CLASS,
    "translation": CLASS, "permutation": (0, 1, 2), "flip": False, "perm": (1, 0), "diag": (1, 2),
    "transform": lambda point: point, "samples": [CENTRE, NEAR], "points": [CENTRE, NEAR],
    "metric": lambda a, b: hilbert_cone(a, b, SQUARE),
    "images": (CENTRE, NEAR, EDGE), "columns": (0, 1, 2), "determinant": F(1),
}

# Where a callable reads a parameter name otherwise.
BY_CALLABLE = {
    "busemann_point": {"x": EDGE},
    "face_of": {"x": EDGE},
    "face_contains": {"y": EDGE},
    "face_m_ratio": {"numerator": EDGE, "denominator": EDGE_LOW},
    "face_hilbert": {"x": EDGE, "y": EDGE_LOW},
    "hilbert_cross_ratio": {"x": (F(1, 2), F(1, 2)), "y": (F(3, 4), F(1, 2))},
    "lift_to_cone": {"point": (F(1, 2), F(1, 2))},
    "log_chart": {"base": 2},
    "exp_chart": {"base": 2},
    "busemann_eval": {"point": ON_EDGE},
    "part_of": {"point": ON_EDGE},
    "parse_point": {"text": "1/2,1/2"},
    "var_dist": {"w": VClass([0, 2, 1])},
    "apply_isometry": {"g": ISOMETRY},
    "compose": {"g": ISOMETRY, "h": ISOMETRY},
    "inverse": {"g": ISOMETRY},
    "CollinearityWitness": {"points": (CENTRE, NEAR, EDGE)},
    "BusemannPoint": {"x": ON_EDGE.x, "funk_cone": ON_EDGE.funk_cone, "p": ON_EDGE.p},
}

GARBAGE = [None, 1.5, "x", [[]]]


def _public_callables():
    """Every exported callable the package defines, exceptions apart."""
    for name in hilbertgeom.__all__:
        value = getattr(hilbertgeom, name)
        if not callable(value) or not getattr(value, "__module__", "").startswith("hilbertgeom"):
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        yield name, value


def _required(function):
    return [p.name for p in inspect.signature(function).parameters.values() if p.default is p.empty]


def _defaults(name, function):
    own = BY_CALLABLE.get(name, {})
    return [own[p] if p in own else BY_NAME[p] for p in _required(function)]


CALLABLES = dict(_public_callables())
SWAPS = [
    (name, position, bad)
    for name, function in CALLABLES.items()
    for position in range(len(_required(function)))
    for bad in GARBAGE
]


@pytest.mark.parametrize("name", CALLABLES)
def test_defaults_are_accepted(name):
    function = CALLABLES[name]
    function(*_defaults(name, function))


@pytest.mark.parametrize(
    "name, position, bad", SWAPS, ids=[f"{name}-{position}-{bad!r}" for name, position, bad in SWAPS]
)
def test_only_library_errors_escape(name, position, bad):
    function = CALLABLES[name]
    args = _defaults(name, function)
    args[position] = bad
    try:
        function(*args)
    except HilbertGeometryError:
        pass


# Tuples of ints that name indices, not coordinates; and the record `BusemannPoint`, whose
# fields are refused by their class before any is read (`test_refusals`).
NOT_VECTORS = {"permutation", "perm", "columns"}


def _is_vector(value):
    return type(value) is tuple and bool(value) and all(type(c) is int or type(c) is F for c in value)


DIGIT_STRINGS = [
    (name, position)
    for name, function in CALLABLES.items()
    if name != "BusemannPoint"
    for position, (param, value) in enumerate(zip(_required(function), _defaults(name, function)))
    if param not in NOT_VECTORS and _is_vector(value)
]


@pytest.mark.parametrize("name, position", DIGIT_STRINGS, ids=[f"{name}-{position}" for name, position in DIGIT_STRINGS])
def test_a_digit_string_is_not_a_vector(name, position):
    function = CALLABLES[name]
    args = _defaults(name, function)
    args[position] = "1" * len(args[position])
    with pytest.raises(ParseError, match="^a vector must be an iterable of rationals, not str$"):
        function(*args)


def test_every_vector_position_is_swept():
    assert len(DIGIT_STRINGS) >= 40
