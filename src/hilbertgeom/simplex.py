"""The simplex Hilbert geometry in its normed-space model and its isometries.

The Hilbert geometry of an open n-simplex is isometric to the quotient
V = R^(n+1) / constants with the variation norm max - min.  Its isometry
group is generated by translations, coordinate permutations and the flip
x -> -x; without the flip they are the collineations.  The exponential
chart carries V to the positive cone, where the flip is the coordinate-wise
reciprocal map.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter, sub
from typing import Callable, Sequence

from .geometry import DomainError, PolyCone, classify_point
from .linalg import ONE, ZERO, Vector, _Frozen, _fractions, _refuse, _scaled, _set, dot, rational, vector

POINT_GROUP_MAX_N = 6
BALL_VERTICES_MAX_N = 12


class VClass(_Frozen):
    """A vector of R^(n+1), n >= 1, modulo constant shifts, stored canonically.

    The representative `rep` = nums / den has first coordinate zero, and
    `den` > 0 is the lcm of its reduced denominators, so gcd(nums, den) == 1
    and two inputs that differ by a constant are equal objects.  A float is a
    `ParseError`; fewer than two coordinates is a `DomainError`.
    """

    __slots__ = ("nums", "den")

    def __init__(self, rep: Sequence) -> None:
        rep = vector(rep)
        if len(rep) < 2:
            raise DomainError("a variation class needs at least two coordinates")
        nums, den = _scaled([c - rep[0] for c in rep])
        _set_nums(self, tuple(nums))
        _set_den(self, den)

    @property
    def rep(self) -> Vector:
        return _fractions(self.nums, self.den)

    def __reduce__(self):
        return _vclass, (self.nums, self.den)

    @property
    def n(self) -> int:
        return len(self.nums) - 1


_set_nums = VClass.nums.__set__
_set_den = VClass.den.__set__


def _vclass(nums: tuple[int, ...], den: int) -> VClass:
    """A class from numerators already in canonical form, without checks."""
    v = object.__new__(VClass)
    _set_nums(v, nums)
    _set_den(v, den)
    return v


def vclass(values: Sequence[Fraction]) -> VClass:
    """The class of `values` modulo constants: `VClass(values)`."""
    return VClass(values)


def var_norm(v: VClass) -> Fraction:
    """The variation norm max - min of the class; a non-`VClass` is a `DomainError`."""
    if v.__class__ is not VClass:
        _refuse("point", VClass, v)
    return Fraction(max(v.nums) - min(v.nums), v.den)


def var_dist(v: VClass, w: VClass) -> Fraction:
    """The variation norm of v - w; a non-`VClass` or a dimension mismatch is a `DomainError`."""
    if v.__class__ is not VClass or w.__class__ is not VClass:
        _refuse("point", VClass, v, w)
    if len(v.nums) != len(w.nums):
        raise DomainError("variation classes of different dimension")
    dv, dw = v.den, w.den
    if dv == dw:
        diffs = list(map(sub, v.nums, w.nums))
        return Fraction(max(diffs) - min(diffs), dv)
    diffs = [a * dw - b * dv for a, b in zip(v.nums, w.nums)]
    return Fraction(max(diffs) - min(diffs), dv * dw)


class SimplexIsometry(_Frozen):
    """Translation + permutation + optional flip, acting on variation classes.

    The action is v -> translation + permutation(flip ? -v : v), where the
    permutation moves coordinate i to position permutation[i].  The
    permutation may be any sequence of `int`s and is stored as a tuple;
    `flip` must be a `bool` and `translation` a `VClass` of the same size.
    Anything else is a `DomainError`.
    """

    # Derived, so out of equality, hashing, repr and pickling: `_gather`, the inverse permutation
    # (image coordinate j comes from _gather[j]), `_get` = itemgetter(*_gather), and `_shift`, the
    # translation or None when it is zero.
    __slots__ = ("translation", "permutation", "flip", "_gather", "_get", "_shift")

    def __init__(self, translation: VClass, permutation: Sequence[int], flip: bool):
        _check_permutation(permutation)
        permutation = tuple(permutation)
        _refuse("translation", VClass, translation)
        if len(permutation) != len(translation.nums):
            raise DomainError("permutation and translation sizes differ")
        if flip.__class__ is not bool:
            raise DomainError(f"flip must be a bool, not {flip!r}")
        _fill(self, translation, permutation, flip, _inverse(permutation))

    @property
    def n(self) -> int:
        return len(self.permutation) - 1


_set_translation = SimplexIsometry.translation.__set__
_set_permutation = SimplexIsometry.permutation.__set__
_set_flip = SimplexIsometry.flip.__set__
_set_gather = SimplexIsometry._gather.__set__
_set_get = SimplexIsometry._get.__set__
_set_shift = SimplexIsometry._shift.__set__


def _check_permutation(permutation: Sequence[int]) -> None:
    """Refuse what is not a sequence, an entry that is not an `int` (a `bool` included), then a non-permutation."""
    if not isinstance(permutation, Sequence):
        raise DomainError(f"permutation must be a sequence of integers, not {permutation!r}")
    for p in permutation:
        if p.__class__ is not int:
            raise DomainError(f"permutation entry {p!r} is not an integer")
    if sorted(permutation) != list(range(len(permutation))):
        raise DomainError("not a permutation of the coordinates")


def _fill(g: SimplexIsometry, translation: VClass, permutation: tuple[int, ...], flip: bool,
          gather: tuple[int, ...]) -> SimplexIsometry:
    _set_translation(g, translation)
    _set_permutation(g, permutation)
    _set_flip(g, flip)
    _set_gather(g, gather)
    _set_get(g, itemgetter(*gather))
    _set_shift(g, translation if any(translation.nums) else None)
    return g


def _isometry(translation: VClass, permutation: tuple[int, ...], flip: bool,
              gather: tuple[int, ...]) -> SimplexIsometry:
    """An element from valid parts and the inverse of its permutation, without checks."""
    return _fill(object.__new__(SimplexIsometry), translation, permutation, flip, gather)


def _inverse(permutation: tuple[int, ...]) -> tuple[int, ...]:
    gather = [0] * len(permutation)
    for i, p in enumerate(permutation):
        gather[p] = i
    return tuple(gather)


def identity_isometry(n: int) -> SimplexIsometry:
    """The identity of V for the n-simplex; n not an `int` of at least 1 is a `DomainError`."""
    _check_size(n)
    return SimplexIsometry(vclass([0] * (n + 1)), tuple(range(n + 1)), False)


def _move(moved: tuple[int, ...], negate: bool) -> tuple[int, ...]:
    """Gathered numerators, negated for the flip, then shifted so the first is zero.

    Differences of canonical numerators keep gcd 1 with the denominator.
    """
    first = moved[0]
    if negate:
        return tuple([first - a for a in moved])
    if first:
        return tuple([a - first for a in moved])
    return moved


def _act(g: SimplexIsometry, nums: tuple[int, ...], den: int) -> VClass:
    """g applied to the class nums / den; reduced only after a translation."""
    moved = _move(g._get(nums), g.flip)
    t = g._shift
    if t is None:
        return _vclass(moved, den)
    common = math.lcm(den, t.den)
    sm, st = common // den, common // t.den
    total = tuple([a * st + b * sm for a, b in zip(t.nums, moved)])
    k = math.gcd(common, *total)
    if k > 1:
        total = tuple([a // k for a in total])
        common //= k
    return _vclass(total, common)


def apply_isometry(g: SimplexIsometry, v: VClass) -> VClass:
    """g(v); a non-isometry, a non-`VClass` or a dimension mismatch is a `DomainError`."""
    if g.__class__ is not SimplexIsometry:
        _refuse("isometry", SimplexIsometry, g)
    if v.__class__ is not VClass:
        _refuse("point", VClass, v)
    if len(g._gather) != len(v.nums):
        raise DomainError("isometry and class dimensions differ")
    if g._shift is not None:
        return _act(g, v.nums, v.den)
    # With no translation the class is only moved, and stays canonical.
    return _vclass(_move(g._get(v.nums), g.flip), v.den)


def compose(g: SimplexIsometry, h: SimplexIsometry) -> SimplexIsometry:
    """The isometry acting as g after h."""
    if g.__class__ is not SimplexIsometry or h.__class__ is not SimplexIsometry:
        _refuse("isometry", SimplexIsometry, g, h)
    if len(g._gather) != len(h._gather):
        raise DomainError("isometry dimensions differ")
    perm = tuple([g.permutation[j] for j in h.permutation])
    gather = tuple([h._gather[j] for j in g._gather])
    translation = _act(g, h.translation.nums, h.translation.den)
    return _isometry(translation, perm, g.flip != h.flip, gather)


def inverse(g: SimplexIsometry) -> SimplexIsometry:
    """The isometry that undoes g."""
    if g.__class__ is not SimplexIsometry:
        _refuse("isometry", SimplexIsometry, g)
    t = g.translation
    translation = _vclass(_move(itemgetter(*g.permutation)(t.nums), not g.flip), t.den)
    return _isometry(translation, g._gather, g.flip, g.permutation)


def _check_size(n: int) -> None:
    """Refuse a size that is not an `int` (a `bool` included) of at least 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"dimension must be an integer, not {n!r}")
    if n < 1:
        raise DomainError("dimension must be at least 1")


def var_ball_vertices(n: int) -> list[VClass]:
    """Vertices of the unit variation ball: 0/1 vectors minus the two constants."""
    _check_size(n)
    if n > BALL_VERTICES_MAX_N:
        raise DomainError(f"vertex enumeration guard: n <= {BALL_VERTICES_MAX_N}")
    out = []
    for bits in product((0, 1), repeat=n + 1):
        if 0 < sum(bits) <= n:
            out.append(_vclass(tuple(b - bits[0] for b in bits), 1))
    return out


def _check_group_size(n: int) -> None:
    _check_size(n)
    if n > POINT_GROUP_MAX_N:
        raise DomainError(f"point group guard: n <= {POINT_GROUP_MAX_N}")


def _enumerate_group(n: int, flips: tuple[bool, ...]) -> list[SimplexIsometry]:
    """One zero-translation element per permutation for each flip, refused as `permutation_group_order` refuses.

    No two act alike (see `point_group_elements`); for n = 1 only the
    unflipped ones are made, since there the flip acts as the swap.
    """
    _check_group_size(n)
    if n == 1:
        flips = (False,)
    zero = _vclass((0,) * (n + 1), 1)
    parts = []
    for perm in permutations(range(n + 1)):
        gather = _inverse(perm)
        parts.append((perm, gather, itemgetter(*gather)))
    out = []
    for flip in flips:
        for perm, gather, get in parts:
            g = object.__new__(SimplexIsometry)
            _set_translation(g, zero)
            _set_permutation(g, perm)
            _set_flip(g, flip)
            _set_gather(g, gather)
            _set_get(g, get)
            _set_shift(g, None)
            out.append(g)
    return out


def point_group_elements(n: int) -> list[SimplexIsometry]:
    """The coordinate permutations times the flip, one element per isometry of V fixing the origin.

    They come in lexicographic order of the permutations, without then with
    the flip; n must be an `int` from 1 to `POINT_GROUP_MAX_N`, else a
    `DomainError`.  For n >= 2 the action on V is faithful: the element
    (P, flip) sends the basis class e_k to e_P(k), or to -e_P(k) with the
    flip.  With at least three coordinates, e_i and e_j differ for i != j,
    and e_i and -e_j differ for all i and j, because neither e_i - e_j nor
    e_i + e_j is constant.  So the images of the basis give back P and the
    flip, and the group has order 2 (n + 1)!.  For n = 1, -e_0 and e_1 are
    the same class: the swap acts as the flip, and the group has order 2.
    """
    return _enumerate_group(n, (False, True))


def permutation_group_elements(n: int) -> list[SimplexIsometry]:
    """The collineations among `point_group_elements(n)`: those without the flip."""
    return _enumerate_group(n, (False,))


def permutation_group_order(n: int) -> int:
    """(n + 1)!, the number of elements `permutation_group_elements(n)` lists, refused as it refuses."""
    _check_group_size(n)
    return math.factorial(n + 1)


def exp_chart(v: VClass, base: Fraction) -> Vector:
    """Coordinate-wise base^k for an integer class; base <= 0, base 1 or a non-integer class is a `DomainError`.

    Restricting the irrational exponential chart to integer exponents over
    one rational base keeps the isometry check between the variation
    distance and the cone metric exact.
    """
    if v.__class__ is not VClass:
        _refuse("point", VClass, v)
    base = rational(base)
    if base <= 0 or base == 1:
        raise DomainError("chart base must be positive and different from 1")
    if v.den != 1:
        raise DomainError("exact chart needs integer exponents")
    return tuple(base ** k for k in v.nums)


def _int_log(q: Fraction, base: Fraction) -> int:
    """The integer k with base**k == q, for q > 0 and 0 < base != 1; a q that is no power is a `DomainError`.

    For base = a/b > 1 in lowest terms and k != 0, base**k is a**|k| / b**|k|
    or its inverse, in lowest terms, so the larger of q's numerator and
    denominator is a**|k|.  |k| is read off the sizes as log2 of that integer
    over log2(a), rounded, with a >= 2; the estimate and its two neighbours
    are checked by exact powers, so the answer rests on no float equality.
    """
    if base < 1:
        return -_int_log(q, 1 / base)
    if q == 1:
        return 0
    big, small = (q.numerator, q.denominator) if q > 1 else (q.denominator, q.numerator)
    a, b = base.numerator, base.denominator
    guess = round(math.log2(big) / math.log2(a))
    for k in (guess, guess - 1, guess + 1):
        if k > 0 and a**k == big and b**k == small:
            return k if q > 1 else -k
    raise DomainError("coordinate is not an exact power of the base")


def log_chart(x: Sequence[Fraction], base: Fraction) -> VClass:
    """Inverse of the exact chart, up to projective scaling of x."""
    base = rational(base)
    if base <= 0 or base == 1:
        raise DomainError("chart base must be positive and different from 1")
    x = vector(x)
    if any(c <= 0 for c in x):
        raise DomainError("chart point must have strictly positive coordinates")
    return VClass([0] + [_int_log(c / x[0], base) for c in x[1:]])


def exp_chart_float(v: VClass) -> tuple[float, ...]:
    """Coordinate-wise e^x in floats; a coordinate that overflows a float, or whose e^x does, is refused."""
    if v.__class__ is not VClass:
        _refuse("point", VClass, v)
    out = []
    for i, a in enumerate(v.nums):
        try:
            out.append(math.exp(a / v.den))
        except OverflowError:
            raise DomainError(f"coordinate {i} overflows the float range, up to {sys.float_info.max!r}") from None
    return tuple(out)


def reciprocal_map(x: Sequence[Fraction]) -> Vector:
    """Coordinate-wise reciprocal; an exact isometry of the positive cone."""
    x = vector(x)
    if any(c <= 0 for c in x):
        raise DomainError("reciprocal map needs strictly positive coordinates")
    return tuple(1 / c for c in x)


def positive_orthant(dim: int) -> PolyCone:
    """The open positive orthant of R^dim; dim not an `int` of at least 1 is a `DomainError`."""
    _check_size(dim)
    facets = []
    for i in range(dim):
        facets.append(tuple(ONE if j == i else ZERO for j in range(dim)))
    return PolyCone(facets, dim)


class LinearMap(_Frozen):
    """A matrix acting on column points."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[Vector, ...]):
        _refuse("linear map rows", tuple, rows)
        _refuse("linear map row", tuple, *rows)
        _set(self, "rows", rows)

    def __call__(self, point: Sequence[Fraction]) -> Vector:
        point = vector(point)
        return tuple(dot(row, point) for row in self.rows)


def simplex_collineation(perm: Sequence[int], diag: Sequence[Fraction]) -> LinearMap:
    """Permutation times positive diagonal: the collineations of the orthant.

    Sends coordinate i to position perm[i] scaled by diag[i]; preserves the
    projective metric exactly.
    """
    _check_permutation(perm)
    size = len(perm)
    diag = vector(diag)
    if len(diag) != size:
        raise DomainError("diagonal and permutation sizes differ")
    if any(d <= 0 for d in diag):
        raise DomainError("diagonal entries must be positive")
    rows = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        rows[perm[i]][i] = diag[i]
    return LinearMap(tuple(tuple(row) for row in rows))


class CollinearityWitness(_Frozen):
    """Three collinear points whose reciprocal images are not collinear.

    The nonzero 3x3 determinant over the given coordinate columns certifies
    that the image rays span three projective directions, so the reciprocal
    map is an isometry that is not a collineation.  A field that does not
    match its annotation is a `DomainError`.
    """

    __slots__ = ("points", "images", "columns", "determinant")

    def __init__(self, points: tuple[Vector, Vector, Vector], images: tuple[Vector, Vector, Vector],
                 columns: tuple[int, int, int], determinant: Fraction):
        for name, triple in (("points", points), ("images", images), ("columns", columns)):
            _refuse(f"witness {name}", tuple, triple)
            if len(triple) != 3:
                raise DomainError(f"witness {name} must hold three entries, not {len(triple)}")
        for name, rows in (("point", points), ("image", images)):
            _refuse(f"witness {name}", tuple, *rows)
            for row in rows:
                _refuse(f"witness {name} coordinate", Fraction, *row)
        for c in columns:
            if c.__class__ is not int:
                raise DomainError(f"witness column {c!r} is not an integer")
        _refuse("witness determinant", Fraction, determinant)
        for name, value in zip(self.__slots__, (points, images, columns, determinant)):
            _set(self, name, value)


def collineation_witness_failure(n: int) -> CollinearityWitness | None:
    """Certificate that the reciprocal map is not a collineation, for n >= 2.

    Picks a collinear rational triple in the simplex section of the positive
    cone and exhibits a nonzero 3x3 minor of the image matrix: with
    T = n + 2 the points are (2, 1, ..., 1)/T, (1, 2, 1, ..., 1)/T and their
    midpoint, whose images on columns (0, 1, 2) are T (1/2, 1, 1),
    T (1, 1/2, 1) and T (2/3, 2/3, 1), with minor -T^3/12.  For n = 1 the
    reciprocal map is the swap up to scale, a collineation: None is returned.
    """
    _check_size(n)
    if n == 1:
        return None
    size = n + 1
    total = Fraction(size + 1)
    p1 = tuple((Fraction(2) if i == 0 else ONE) / total for i in range(size))
    p2 = tuple((Fraction(2) if i == 1 else ONE) / total for i in range(size))
    p3 = tuple((a + b) / 2 for a, b in zip(p1, p2))
    points = (p1, p2, p3)
    images = tuple(reciprocal_map(p) for p in points)
    return CollinearityWitness(points, images, (0, 1, 2), Fraction(-(n + 2) ** 3, 12))


def is_metric_preserving(
    transform: Callable[[Vector], Sequence[Fraction]],
    cone: PolyCone,
    samples: Sequence[Sequence[Fraction]],
) -> bool:
    """Exact check that the map preserves the projective metric on all sample pairs."""
    from .metrics import hilbert_cone

    if not callable(transform):
        raise DomainError(f"transform must be callable, not {type(transform).__name__}")
    _refuse("cone", PolyCone, cone)
    if not isinstance(samples, Sequence):
        raise DomainError(f"samples must be a sequence of points, not {type(samples).__name__}")
    points = [vector(s) for s in samples]
    images = []
    for p in points:
        if not classify_point(cone, p).is_interior:
            raise DomainError("sample point is not interior")
        image = vector(transform(p))
        if not classify_point(cone, image).is_interior:
            raise DomainError("image left the cone interior")
        images.append(image)
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if hilbert_cone(points[i], points[j], cone) != hilbert_cone(images[i], images[j], cone):
                return False
    return True
