"""Funk, reverse-Funk, Hilbert, and cross-ratio metrics, all exact.

Metric values are logarithms of rationals.  They are stored multiplicatively
as `LogValue` objects that carry the exact argument; floats only appear when
a value is rendered for display.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .geometry import (
    ConstructionError,
    DomainError,
    Face,
    HPolytope,
    PolyCone,
    format_rational,
)
from .linalg import ONE, Vector, vector, vsub


class LogValue:
    """Extended metric value log(arg) for an exact rational arg > 0.

    `LogValue.INFINITY` is the saturating plus-infinity element.  Addition
    multiplies arguments, negation inverts; comparisons are exact.
    """

    __slots__ = ("_arg",)

    INFINITY: "LogValue"

    def __init__(self, arg):
        if arg is not None:
            arg = Fraction(arg)
            if arg <= 0:
                raise DomainError(f"log argument must be positive, got {arg}")
        self._arg = arg

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(1)

    @property
    def is_infinite(self) -> bool:
        return self._arg is None

    @property
    def arg(self) -> Fraction:
        if self._arg is None:
            raise DomainError("infinite value has no rational argument")
        return self._arg

    def to_float(self) -> float:
        if self._arg is None:
            return math.inf
        return math.log(self._arg.numerator) - math.log(self._arg.denominator)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self._arg is None or other._arg is None:
            return LogValue.INFINITY
        return LogValue(self._arg * other._arg)

    def __neg__(self) -> "LogValue":
        if self._arg is None:
            raise DomainError("cannot negate an infinite value")
        return LogValue(1 / self._arg)

    def __sub__(self, other: "LogValue") -> "LogValue":
        if other._arg is None:
            raise DomainError("cannot subtract an infinite value")
        if self._arg is None:
            return LogValue.INFINITY
        return LogValue(self._arg / other._arg)

    def _key(self):
        return (1, Fraction(0)) if self._arg is None else (0, self._arg)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __eq__(self, other):
        if not isinstance(other, LogValue):
            return NotImplemented
        return self._arg == other._arg

    def __hash__(self):
        return hash(self._arg)

    def __repr__(self):
        if self._arg is None:
            return "LogValue(+inf)"
        return f"LogValue({format_rational(self._arg)})"


LogValue.INFINITY = LogValue(None)

Metric = Callable[[Sequence[Fraction], Sequence[Fraction]], LogValue]


def _max_ratio(numerators: Sequence[Fraction], denominators: Sequence[Fraction], refusal: str) -> Fraction:
    """The gauge kernel: the largest ratio of paired facet values.

    Raises `DomainError(refusal)` unless every denominator value is positive.
    """
    if any(d <= 0 for d in denominators):
        raise DomainError(refusal)
    return max(n / d for n, d in zip(numerators, denominators))


def _log_gauge(arg: Fraction, metric: str) -> LogValue:
    if arg <= 0:
        raise DomainError(f"{metric} metric undefined: gauge argument is not positive")
    return LogValue(arg)


def m_ratio(numerator: Sequence[Fraction], denominator: Sequence[Fraction], cone: PolyCone) -> Fraction:
    """Order-unit gauge M(numerator / denominator; cone).

    Equals inf{lam : numerator <= lam * denominator in the cone order} and,
    for polyhedral cones, the maximum of facet ratios: the supremum over the
    dual cone is attained at a facet functional because a ratio of linear
    forms with positive denominators obeys the mediant inequality.  The
    result may be nonpositive for points far outside the cone.
    """
    return _max_ratio(
        cone.values(vector(numerator)),
        cone.values(vector(denominator)),
        "gauge denominator point must be interior",
    )


def funk(x: Sequence[Fraction], y: Sequence[Fraction], cone: PolyCone) -> LogValue:
    """Funk metric log M(x/y); y must be interior and the gauge positive."""
    return _log_gauge(m_ratio(x, y, cone), "Funk")


def reverse_funk(x: Sequence[Fraction], y: Sequence[Fraction], cone: PolyCone) -> LogValue:
    """Reverse-Funk metric log M(y/x); x must be interior."""
    return _log_gauge(m_ratio(y, x, cone), "reverse-Funk")


def hilbert_cone(x: Sequence[Fraction], y: Sequence[Fraction], cone: PolyCone) -> LogValue:
    """Hilbert's projective metric: Funk plus reverse-Funk."""
    return funk(x, y, cone) + reverse_funk(x, y, cone)


def _require_interior(polytope: HPolytope, point: Vector) -> None:
    if not polytope.contains_interior(point):
        raise DomainError(f"point {tuple(map(format_rational, point))} is not interior")


def hilbert_cross_ratio(polytope: HPolytope, x: Sequence[Fraction], y: Sequence[Fraction]) -> LogValue:
    """Hilbert distance as the log cross-ratio of the chord through x and y.

    The chord is parametrised as x + t(y - x); working with parameter
    differences instead of Euclidean lengths keeps the cross-ratio rational
    (lengths along a fixed line are proportional to parameter differences).
    """
    x = vector(x)
    y = vector(y)
    _require_interior(polytope, x)
    _require_interior(polytope, y)
    if x == y:
        return LogValue.zero()
    direction = vsub(y, x)
    lower = None
    upper = None
    for f, b in polytope.halfspaces:
        slope = f(direction)
        if slope == 0:
            continue
        t = (b - f(x)) / slope
        if slope > 0:
            lower = t if lower is None or t > lower else lower
        else:
            upper = t if upper is None or t < upper else upper
    if lower is None or upper is None:
        raise ConstructionError("chord does not meet the boundary twice")
    # Boundary points: x' at t=lower < 0 and y' at t=upper > 1.
    arg = ((1 - lower) * upper) / ((-lower) * (upper - 1))
    return LogValue(arg)


def face_m_ratio(numerator: Sequence[Fraction], denominator: Sequence[Fraction], face: Face) -> Fraction:
    """Gauge of the face cone: the maximum ratio over the inactive constraints.

    Valid because the denominator point satisfies every inactive constraint
    strictly; active constraints vanish on the whole face and drop out.
    """
    cone = face.parent
    inactive = [i for i in range(cone.num_facets) if i not in face.active]
    if not inactive:
        raise DomainError("face has no inactive constraints")
    nums = cone.values(vector(numerator))
    dens = cone.values(vector(denominator))
    refusal = "denominator point is not in the relative interior of the face"
    if any(dens[i] != 0 for i in face.active):
        raise DomainError(refusal)
    return _max_ratio([nums[i] for i in inactive], [dens[i] for i in inactive], refusal)


def face_funk(x: Sequence[Fraction], y: Sequence[Fraction], face: Face) -> LogValue:
    return _log_gauge(face_m_ratio(x, y, face), "face Funk")


def face_reverse_funk(x: Sequence[Fraction], y: Sequence[Fraction], face: Face) -> LogValue:
    return _log_gauge(face_m_ratio(y, x, face), "face reverse-Funk")


def face_hilbert(x: Sequence[Fraction], y: Sequence[Fraction], face: Face) -> LogValue:
    """Hilbert metric of the face cone, inside its span."""
    return face_funk(x, y, face) + face_reverse_funk(x, y, face)


def variation_norm(v: Sequence[Fraction]) -> Fraction:
    """max_i v_i - min_j v_j; constant shifts leave it unchanged."""
    v = vector(v)
    if not v:
        raise DomainError("variation norm of the empty vector")
    return max(v) - min(v)


def variation_distance(v: Sequence[Fraction], w: Sequence[Fraction]) -> Fraction:
    return variation_norm(vsub(vector(v), vector(w)))


def gromov_product(
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    r: Sequence[Fraction],
    metric: Metric,
) -> Fraction:
    """Exact rational A with (x|y)_r = (1/2) * log A.

    A = arg d(x,r) * arg d(y,r) / arg d(x,y); the half-log convention keeps
    the value exact (a square root of A would generally be irrational).
    """
    dxr = metric(x, r)
    dyr = metric(y, r)
    dxy = metric(x, y)
    if dxr.is_infinite or dyr.is_infinite or dxy.is_infinite:
        raise DomainError("Gromov product needs finite distances")
    return (dxr.arg * dyr.arg) / dxy.arg


def almost_geodesic_check(
    points: Sequence[Sequence[Fraction]],
    metric: Metric,
    slack: Fraction = ONE,
) -> bool:
    """Is the sequence an almost-geodesic with multiplicative slack e^eps?

    Checks, for every prefix, that the accumulated path length exceeds the
    direct distance by at most log(slack); slack = 1 means eps = 0.
    """
    slack = Fraction(slack)
    if slack < 1:
        raise DomainError("slack is e^eps and must be at least 1")
    if len(points) < 2:
        raise DomainError("an almost-geodesic needs at least two points")
    running = ONE
    for m in range(len(points) - 1):
        running *= metric(points[m], points[m + 1]).arg
        if running > slack * metric(points[0], points[m + 1]).arg:
            return False
    return True


def j_eval(
    cone: PolyCone,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    base: Sequence[Fraction],
) -> Fraction:
    """Normalised gauge M(y/x) / M(base/x); convex in y, equals 1 at y = base."""
    denominator = m_ratio(base, x, cone)
    return m_ratio(y, x, cone) / denominator
