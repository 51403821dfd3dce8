"""Funk, reverse-Funk, Hilbert and cross-ratio metrics, all exact.

A metric value log(arg) is held as its exact rational argument, a
`LogValue`.  The gauges take the largest ratio of two points' integer row
values (`geometry._row_values`); a row is a positive multiple of its facet
functional, so each ratio and sign is the functional's own, and in the
two-sided M(x/y) M(y/x) the points' scales cancel.  `hilbert_cross_ratio`
shares no cone, canonical form or gauge with `hilbert_cone`, so each is
the other's independent check.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Sequence

from .geometry import (
    DomainError,
    Face,
    HPolytope,
    PolyCone,
    _row_values,
    format_rational,
)
from .linalg import ONE, _refuse, rational, vector


@total_ordering
class LogValue:
    """Extended metric value log(arg) for an exact rational arg > 0.

    `LogValue.INFINITY` is the saturating plus-infinity element, above every
    finite value.  Addition multiplies arguments, negation inverts; `__lt__`
    and `__eq__` compare exactly, and `total_ordering` derives the rest.
    """

    __slots__ = ("_arg",)

    INFINITY: "LogValue"

    def __init__(self, arg):
        if arg is not None:
            if type(arg) is not Fraction:
                arg = rational(arg)
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
        if not isinstance(other, LogValue):
            return NotImplemented
        if self._arg is None or other._arg is None:
            return LogValue.INFINITY
        return LogValue(self._arg * other._arg)

    def __neg__(self) -> "LogValue":
        if self._arg is None:
            raise DomainError("cannot negate an infinite value")
        return LogValue(1 / self._arg)

    def __sub__(self, other: "LogValue") -> "LogValue":
        if not isinstance(other, LogValue):
            return NotImplemented
        if other._arg is None:
            raise DomainError("cannot subtract an infinite value")
        if self._arg is None:
            return LogValue.INFINITY
        return LogValue(self._arg / other._arg)

    def _key(self):
        return (1, Fraction(0)) if self._arg is None else (0, self._arg)

    def __lt__(self, other):
        return self._key() < other._key() if isinstance(other, LogValue) else NotImplemented

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


def _arg_max(nums: list[int], dens: list[int], refusal: str, error: type = DomainError) -> tuple[int, int]:
    """The pair (n, d) of paired integer values with the largest ratio n/d, by cross-multiplying.

    Raises `error(refusal)` unless every denominator value is positive.
    """
    if min(dens) <= 0:
        raise error(refusal)
    bn = nums[0]
    bd = dens[0]
    for n, d in zip(nums, dens):
        if n * bd > bn * d:
            bn = n
            bd = d
    return bn, bd


def _max_ratio(numerators: tuple[list[int], int], denominators: tuple[list[int], int], refusal: str) -> Fraction:
    """The one-sided gauge of two `_row_values` pairs: with the scales ns and ds, (n * ds) / (d * ns)."""
    n, d = _arg_max(numerators[0], denominators[0], refusal)
    return Fraction(n * denominators[1], d * numerators[1])


def _log_gauge(arg: Fraction, metric: str) -> LogValue:
    if arg <= 0:
        raise DomainError(f"{metric} metric undefined: gauge argument is not positive")
    return LogValue(arg)


_INTERIOR = "gauge denominator point must be interior"
_RELATIVE_INTERIOR = "denominator point is not in the relative interior of the face"


def m_ratio(numerator: Sequence[Fraction], denominator: Sequence[Fraction], cone: PolyCone) -> Fraction:
    """Order-unit gauge M(numerator / denominator; cone).

    Equals inf{lam : numerator <= lam * denominator in the cone order} and,
    for polyhedral cones, the maximum of facet ratios: the supremum over the
    dual cone is attained at a facet functional because a ratio of linear
    forms with positive denominators obeys the mediant inequality.  The
    result may be nonpositive for points far outside the cone.  A
    denominator that is not interior is a `DomainError`.
    """
    return _max_ratio(_row_values(cone, numerator), _row_values(cone, denominator), _INTERIOR)


def funk(x: Sequence[Fraction], y: Sequence[Fraction], cone: PolyCone) -> LogValue:
    """Funk metric log M(x/y); y must be interior and the gauge positive."""
    return _log_gauge(m_ratio(x, y, cone), "Funk")


def reverse_funk(x: Sequence[Fraction], y: Sequence[Fraction], cone: PolyCone) -> LogValue:
    """Reverse-Funk metric log M(y/x); x must be interior."""
    return _log_gauge(m_ratio(y, x, cone), "reverse-Funk")


def hilbert_cone(x: Sequence[Fraction], y: Sequence[Fraction], cone: PolyCone) -> LogValue:
    """Hilbert's projective metric, Funk plus reverse-Funk, refused as `funk` then `reverse_funk` refuse.

    Once both points are interior every row value is positive, so the
    reverse gauge needs no sign test.
    """
    xs, _ = _row_values(cone, x)
    ys, _ = _row_values(cone, y)
    fn, fd = _arg_max(xs, ys, _INTERIOR)
    if fn <= 0:
        raise DomainError("Funk metric undefined: gauge argument is not positive")
    rn, rd = _arg_max(ys, xs, _INTERIOR)
    return LogValue(Fraction(fn * rn, fd * rd))


def hilbert_cross_ratio(polytope: HPolytope, x: Sequence[Fraction], y: Sequence[Fraction]) -> LogValue:
    """Hilbert distance as the log cross-ratio of the chord through x and y.

    A point that is not interior is a `DomainError`, x before y.  On the
    chord x + t(y - x) lengths are proportional to parameter differences, so
    the cross-ratio is rational.  A row's value is X = c p s_x at x of scale
    p, for the halfspace's slack s = f(.) - b and the row's multiple c > 0,
    and Y = c q s_y at y; the chord meets the row's boundary at
    t = -s_x / (s_y - s_x) = -Xq / (Yp - Xq).  For x != y some row has
    Yp - Xq > 0 and some has Yp - Xq < 0, since Yp - Xq = c p q f(y - x)
    and a bounded polytope keeps no ray from x.
    """
    _refuse("polytope", HPolytope, polytope)
    x = vector(x)
    y = vector(y)
    values = []
    for point in (x, y):
        values.append(_row_values(polytope, point))
        if min(values[-1][0]) <= 0:
            raise DomainError(f"point {tuple(map(format_rational, point))} is not interior")
    if x == y:
        return LogValue.zero()
    (xs, p), (ys, q) = values
    # The boundary parameters l = ln/ld < 0 and u = un/ud > 1; (-1, 0) and (1, 0) stand for -inf and +inf.
    ln, ld, un, ud = -1, 0, 1, 0
    for X, Y in zip(xs, ys):
        n = X * q
        d = Y * p - n
        if d > 0 and -n * ld > ln * d:
            ln, ld = -n, d
        elif d < 0 and n * ud < un * -d:
            un, ud = n, -d
    # ((1 - l) u) / ((-l)(u - 1)) with x' at t=l and y' at t=u; ld and ud cancel.
    return LogValue(Fraction((ld - ln) * un, -ln * (un - ud)))


def _inactive(face: Face) -> list[int]:
    _refuse("face", Face, face)
    inactive = [i for i in range(face.parent.num_facets) if i not in face.active]
    if not inactive:
        raise DomainError("face has no inactive constraints")
    return inactive


def face_m_ratio(numerator: Sequence[Fraction], denominator: Sequence[Fraction], face: Face) -> Fraction:
    """Gauge of the face cone: the maximum ratio over the inactive constraints.

    Valid because the denominator point satisfies every inactive constraint
    strictly; active constraints vanish on the whole face and drop out.  A
    face with no inactive constraint, or a denominator off the face's
    relative interior, is a `DomainError`.
    """
    inactive = _inactive(face)
    nums, ns = _row_values(face.parent, numerator)
    dens, ds = _row_values(face.parent, denominator)
    if any(dens[i] for i in face.active):
        raise DomainError(_RELATIVE_INTERIOR)
    n, d = _arg_max([nums[i] for i in inactive], [dens[i] for i in inactive], _RELATIVE_INTERIOR)
    return Fraction(n * ds, d * ns)


def _two_sided(xs: list[int], ys: list[int], rows: list[int], refusal: str, error: type = DomainError) -> tuple[int, int]:
    """M(x/y) M(y/x) over `rows` of two points' integer values, as one integer pair: the scales cancel."""
    xs = [xs[i] for i in rows]
    ys = [ys[i] for i in rows]
    fn, fd = _arg_max(xs, ys, refusal, error)
    rn, rd = _arg_max(ys, xs, refusal, error)
    return fn * rn, fd * rd


def face_hilbert(x: Sequence[Fraction], y: Sequence[Fraction], face: Face) -> LogValue:
    """Hilbert metric of the face cone inside its span, refused as `face_m_ratio` both ways refuses."""
    inactive = _inactive(face)
    xs, _ = _row_values(face.parent, x)
    ys, _ = _row_values(face.parent, y)
    if any(xs[i] or ys[i] for i in face.active):
        raise DomainError(_RELATIVE_INTERIOR)
    return LogValue(Fraction(*_two_sided(xs, ys, inactive, _RELATIVE_INTERIOR)))


def gromov_product(
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    r: Sequence[Fraction],
    metric: Metric,
) -> Fraction:
    """Exact rational A with (x|y)_r = (1/2) * log A.

    A = arg d(x,r) * arg d(y,r) / arg d(x,y); the half-log convention keeps
    the value exact (a square root of A would generally be irrational).  A
    `metric` that is not callable, a value that is not a `LogValue` or an
    infinite distance is a `DomainError`.
    """
    if not callable(metric):
        raise DomainError(f"metric must be callable, not {type(metric).__name__}")
    dxr = metric(x, r)
    dyr = metric(y, r)
    dxy = metric(x, y)
    _refuse("metric value", LogValue, dxr, dyr, dxy)
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
    direct distance by at most log(slack); slack = 1 means eps = 0.  Fewer
    than two points, slack < 1, a `metric` that is not callable or a value
    that is not a finite `LogValue` is a `DomainError`.
    """
    if not isinstance(points, Sequence):
        raise DomainError(f"points must be a sequence of points, not {type(points).__name__}")
    if not callable(metric):
        raise DomainError(f"metric must be callable, not {type(metric).__name__}")
    slack = rational(slack)
    if slack < 1:
        raise DomainError("slack is e^eps and must be at least 1")
    if len(points) < 2:
        raise DomainError("an almost-geodesic needs at least two points")
    running = ONE
    for m in range(len(points) - 1):
        step = metric(points[m], points[m + 1])
        _refuse("metric value", LogValue, step)
        running *= step.arg
        direct = metric(points[0], points[m + 1])
        _refuse("metric value", LogValue, direct)
        if running > slack * direct.arg:
            return False
    return True


def j_eval(
    cone: PolyCone,
    x: Sequence[Fraction],
    y: Sequence[Fraction],
    base: Sequence[Fraction],
) -> Fraction:
    """Normalised gauge M(y/x) / M(base/x); convex in y, equals 1 at y = base.

    A nonpositive M(base/x) is a `DomainError`; it is positive for any base
    in the closed cone off its lineality space.
    """
    bases = _row_values(cone, base)
    xs = _row_values(cone, x)
    denominator = _max_ratio(bases, xs, _INTERIOR)
    if denominator <= 0:
        raise DomainError("normalising gauge M(base/x) is not positive")
    return _max_ratio(_row_values(cone, y), xs, _INTERIOR) / denominator
