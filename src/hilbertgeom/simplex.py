"""The simplex Hilbert geometry in its normed-space model and its isometries.

The Hilbert geometry of an open n-simplex is isometric to the quotient
V = R^(n+1) / constants with the variation norm max - min.  Its isometry
group is generated by translations, coordinate permutations, and the global
flip x -> -x; dropping the flip gives exactly the collineations.  The
exponential chart carries V to the interior of the positive cone, where the
flip becomes the coordinate-wise reciprocal map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Sequence

from .geometry import DomainError, PolyCone, classify_point
from .linalg import ONE, ZERO, Vector, dot, vector
from .metrics import m_ratio, variation_distance, variation_norm

POINT_GROUP_MAX_N = 6
BALL_VERTICES_MAX_N = 12


@dataclass(frozen=True)
class VClass:
    """A vector of R^(n+1) modulo constant shifts, stored canonically.

    The representative is normalised so its first coordinate is zero; two
    inputs differing by a multiple of (1, ..., 1) become equal objects.
    """

    rep: Vector

    def __post_init__(self):
        rep = vector(self.rep)
        if len(rep) < 2:
            raise DomainError("a variation class needs at least two coordinates")
        if rep[0] != 0:
            shift = rep[0]
            rep = tuple(c - shift for c in rep)
        object.__setattr__(self, "rep", rep)

    @property
    def n(self) -> int:
        return len(self.rep) - 1


def vclass(values: Sequence[Fraction]) -> VClass:
    return VClass(vector(values))


def var_norm(v: VClass) -> Fraction:
    return variation_norm(v.rep)


def var_dist(v: VClass, w: VClass) -> Fraction:
    if v.n != w.n:
        raise DomainError("variation classes of different dimension")
    return variation_distance(v.rep, w.rep)


@dataclass(frozen=True)
class SimplexIsometry:
    """Translation + permutation + optional flip, acting on variation classes.

    The action is v -> translation + permutation(flip ? -v : v), where the
    permutation moves coordinate i to position permutation[i].
    """

    translation: VClass
    permutation: tuple[int, ...]
    flip: bool

    def __post_init__(self):
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise DomainError("not a permutation of the coordinates")
        if len(self.permutation) != len(self.translation.rep):
            raise DomainError("permutation and translation sizes differ")

    @property
    def n(self) -> int:
        return len(self.permutation) - 1


def identity_isometry(n: int) -> SimplexIsometry:
    return SimplexIsometry(vclass([ZERO] * (n + 1)), tuple(range(n + 1)), False)


def _permute(perm: tuple[int, ...], values: Vector) -> Vector:
    out = [ZERO] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def apply_isometry(g: SimplexIsometry, v: VClass) -> VClass:
    if g.n != v.n:
        raise DomainError("isometry and class dimensions differ")
    rep = v.rep
    if g.flip:
        rep = tuple(-c for c in rep)
    rep = _permute(g.permutation, rep)
    rep = tuple(a + b for a, b in zip(g.translation.rep, rep))
    return VClass(rep)


def compose(g: SimplexIsometry, h: SimplexIsometry) -> SimplexIsometry:
    """The isometry acting as g after h."""
    if g.n != h.n:
        raise DomainError("isometry dimensions differ")
    perm = tuple(g.permutation[h.permutation[i]] for i in range(len(g.permutation)))
    moved = _permute(g.permutation, h.translation.rep)
    if g.flip:
        moved = tuple(-c for c in moved)
    translation = VClass(tuple(a + b for a, b in zip(g.translation.rep, moved)))
    return SimplexIsometry(translation, perm, g.flip != h.flip)


def inverse(g: SimplexIsometry) -> SimplexIsometry:
    size = len(g.permutation)
    inv = [0] * size
    for i, target in enumerate(g.permutation):
        inv[target] = i
    moved = _permute(tuple(inv), g.translation.rep)
    if g.flip:
        moved = tuple(-c for c in moved)
    translation = VClass(tuple(-c for c in moved))
    return SimplexIsometry(translation, tuple(inv), g.flip)


def var_ball_vertices(n: int) -> list[VClass]:
    """Vertices of the unit variation ball: 0/1 vectors minus the two constants."""
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if n > BALL_VERTICES_MAX_N:
        raise DomainError(f"vertex enumeration guard: n <= {BALL_VERTICES_MAX_N}")
    out = []
    for bits in product((ZERO, ONE), repeat=n + 1):
        if all(b == 0 for b in bits) or all(b == 1 for b in bits):
            continue
        out.append(VClass(bits))
    return out


def _basis_classes(n: int) -> list[VClass]:
    classes = []
    for i in range(1, n + 1):
        classes.append(VClass(tuple(ONE if j == i else ZERO for j in range(n + 1))))
    return classes


def _signature(g: SimplexIsometry, basis: list[VClass]) -> tuple:
    return tuple(apply_isometry(g, b).rep for b in basis)


def _closure(n: int, generators: list[SimplexIsometry]) -> list[SimplexIsometry]:
    basis = _basis_classes(n)
    identity = identity_isometry(n)
    seen = {_signature(identity, basis): identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in frontier:
            for h in generators:
                e = compose(h, g)
                sig = _signature(e, basis)
                if sig not in seen:
                    seen[sig] = e
                    fresh.append(e)
        frontier = fresh
    return sorted(seen.values(), key=lambda e: (e.flip, e.permutation))

def _permutation_generators(n: int) -> list[SimplexIsometry]:
    size = n + 1
    zero = vclass([ZERO] * size)
    swap = list(range(size))
    swap[0], swap[1] = swap[1], swap[0]
    cycle = tuple((i + 1) % size for i in range(size))
    return [
        SimplexIsometry(zero, tuple(swap), False),
        SimplexIsometry(zero, cycle, False),
    ]


def _check_point_group_n(n: int) -> None:
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if n > POINT_GROUP_MAX_N:
        raise DomainError(f"point group guard: n <= {POINT_GROUP_MAX_N}")


def point_group_elements(n: int) -> list[SimplexIsometry]:
    """Closure of the coordinate permutations and the flip, up to equal action.

    Distinct generator words collapsing to the same map on V are identified,
    which is what shrinks the group for n = 1.
    """
    _check_point_group_n(n)
    zero = vclass([ZERO] * (n + 1))
    flip = SimplexIsometry(zero, tuple(range(n + 1)), True)
    return _closure(n, _permutation_generators(n) + [flip])


def point_group_closure(n: int) -> int:
    return len(point_group_elements(n))


def permutation_group_elements(n: int) -> list[SimplexIsometry]:
    _check_point_group_n(n)
    return _closure(n, _permutation_generators(n))


def permutation_group_order(n: int) -> int:
    return len(permutation_group_elements(n))


def exp_chart(v: VClass, base: Fraction) -> Vector:
    """Coordinate-wise base^k for an integer exponent class; exact.

    The general exponential chart is irrational; restricting to integer
    exponents over one rational base keeps an exact isometry check between
    the variation distance and the cone metric.
    """
    base = Fraction(base)
    if base <= 0 or base == 1:
        raise DomainError("chart base must be positive and different from 1")
    exponents = []
    for c in v.rep:
        if c.denominator != 1:
            raise DomainError("exact chart needs integer exponents")
        exponents.append(int(c))
    return tuple(base ** k for k in exponents)


def _int_log(q: Fraction, base: Fraction) -> int:
    if q <= 0:
        raise DomainError("logarithm of a nonpositive rational")
    if base < 1:
        return -_int_log(q, 1 / base)
    if q == 1:
        return 0
    k = 0
    if q > 1:
        while q > 1:
            q /= base
            k += 1
    else:
        while q < 1:
            q *= base
            k -= 1
    if q != 1:
        raise DomainError("coordinate is not an exact power of the base")
    return k


def log_chart(x: Sequence[Fraction], base: Fraction) -> VClass:
    """Inverse of the exact chart, up to projective scaling of x."""
    base = Fraction(base)
    if base <= 0 or base == 1:
        raise DomainError("chart base must be positive and different from 1")
    x = vector(x)
    if any(c <= 0 for c in x):
        raise DomainError("chart point must have strictly positive coordinates")
    exponents = [ZERO]
    for c in x[1:]:
        exponents.append(Fraction(_int_log(c / x[0], base)))
    return VClass(tuple(exponents))


def exp_chart_float(v: VClass) -> tuple[float, ...]:
    return tuple(math.exp(float(c)) for c in v.rep)


def reciprocal_map(x: Sequence[Fraction]) -> Vector:
    """Coordinate-wise reciprocal; an exact isometry of the positive cone."""
    x = vector(x)
    if any(c <= 0 for c in x):
        raise DomainError("reciprocal map needs strictly positive coordinates")
    return tuple(1 / c for c in x)


def positive_orthant(dim: int) -> PolyCone:
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    facets = []
    for i in range(dim):
        facets.append(tuple(ONE if j == i else ZERO for j in range(dim)))
    return PolyCone(facets, dim)


@dataclass(frozen=True)
class LinearMap:
    """A matrix acting on column points."""

    rows: tuple[Vector, ...]

    def __call__(self, point: Sequence[Fraction]) -> Vector:
        point = vector(point)
        return tuple(dot(row, point) for row in self.rows)


def simplex_collineation(perm: Sequence[int], diag: Sequence[Fraction]) -> LinearMap:
    """Permutation times positive diagonal: the collineations of the orthant.

    Sends coordinate i to position perm[i] scaled by diag[i]; preserves the
    projective metric exactly.
    """
    size = len(perm)
    if sorted(perm) != list(range(size)):
        raise DomainError("not a permutation of the coordinates")
    diag = vector(diag)
    if len(diag) != size:
        raise DomainError("diagonal and permutation sizes differ")
    if any(d <= 0 for d in diag):
        raise DomainError("diagonal entries must be positive")
    rows = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        rows[perm[i]][i] = diag[i]
    return LinearMap(tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class CollinearityWitness:
    """Three collinear points whose reciprocal images are not collinear.

    The nonzero 3x3 determinant over the given coordinate columns certifies
    that the image rays span three projective directions, so the reciprocal
    map is an isometry that is not a collineation.
    """

    points: tuple[Vector, Vector, Vector]
    images: tuple[Vector, Vector, Vector]
    columns: tuple[int, int, int]
    determinant: Fraction


def _det3(rows: Sequence[Vector], cols: tuple[int, int, int]) -> Fraction:
    a, b, c = cols
    m = [[row[a], row[b], row[c]] for row in rows]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def collineation_witness_failure(n: int) -> CollinearityWitness | None:
    """Certificate that the reciprocal map is not a collineation, for n >= 2.

    Picks a collinear rational triple in the simplex section of the positive
    cone and exhibits a nonzero 3x3 minor of the image matrix.  For n = 1
    every candidate triple stays collinear and None is returned.
    """
    if n < 1:
        raise DomainError("dimension must be at least 1")
    if n == 1:
        return None
    size = n + 1
    total = Fraction(size + 1)
    p1 = tuple((Fraction(2) if i == 0 else ONE) / total for i in range(size))
    p2 = tuple((Fraction(2) if i == 1 else ONE) / total for i in range(size))
    p3 = tuple((a + b) / 2 for a, b in zip(p1, p2))
    points = (p1, p2, p3)
    images = tuple(reciprocal_map(p) for p in points)
    for cols in combinations(range(size), 3):
        det = _det3(images, cols)
        if det != 0:
            return CollinearityWitness(points, images, cols, det)
    return None


def is_metric_preserving(
    transform: Callable[[Vector], Sequence[Fraction]],
    cone: PolyCone,
    samples: Sequence[Sequence[Fraction]],
) -> bool:
    """Exact check that the map preserves the projective metric on all sample pairs."""
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
            before = m_ratio(points[i], points[j], cone) * m_ratio(points[j], points[i], cone)
            after = m_ratio(images[i], images[j], cone) * m_ratio(images[j], images[i], cone)
            if before != after:
                return False
    return True
