"""Exact rational linear algebra, an integer double description and an exact LP feasibility test.

Values are `Fraction`s or ints; a float is refused with `ParseError`, never
converted.  Elimination and the LP pivot on integers and build `Fraction`s
only for what they return.  The codec between rational and integer vectors
(`_scaled`, `_over`, `_fractions`, `_divided`, `_primitive`, `_unit_lead`,
`_sorted_over`) encodes by positive multiples, so signs, ratios and rays,
and any canonical form read off the integers, are the rationals' own.  The
module also holds the error classes, `_refuse` and the bases of the
immutable classes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class HilbertGeometryError(Exception):
    """Base class for all library errors."""


class ParseError(HilbertGeometryError):
    """Malformed rational, point, or polytope input."""


class DomainError(HilbertGeometryError):
    """A point lies outside the region an operation requires."""


def _refuse(role: str, cls: type, *values) -> None:
    """Raise the refusal for the first of `values` that is not a `cls`."""
    for value in values:
        if value.__class__ is not cls:
            raise DomainError(f"{role} must be a {cls.__name__}, not {type(value).__name__}")


_set = object.__setattr__


class _Sealed:
    """Base of the classes whose objects never change: assignment and deletion raise `AttributeError`.

    A subclass lists its fields in `__slots__` and sets them with `_set`;
    copy and pickle restore the slot state through `_set` too.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            _set(self, name, value)


class _Frozen(_Sealed):
    """Base of the immutable value classes: a frozen dataclass's behaviour on slots.

    The fields not named with a leading underscore are compared and hashed
    as one tuple, between objects of the same class only, and one object is
    rebuilt from them by its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        slots = [name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for name in slots if name[0] != "_")
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __reduce__(self):
        return type(self), self._key(self)


def rational(value) -> Fraction:
    """`Fraction(value)`; a float, or anything `Fraction` cannot read ("nan", "1/0", None), is a `ParseError`."""
    if isinstance(value, float):
        raise ParseError(f"the float {value!r} is not an exact rational")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise ParseError(f"not an exact rational: {value!r}") from None


def vector(values: Iterable) -> Vector:
    """The values as a tuple of `Fraction`s; a float, a string or a non-iterable is refused with a `ParseError`."""
    if isinstance(values, (str, bytes, bytearray)):
        raise ParseError(f"a vector must be an iterable of rationals, not {type(values).__name__}")
    try:
        return tuple(v if type(v) is Fraction else rational(v) for v in values)
    except TypeError:
        try:
            iter(values)
        except TypeError:
            raise ParseError(f"a vector must be an iterable of rationals, not {type(values).__name__}") from None
        raise
    except ParseError:
        if isinstance(values, Sequence):
            for i, v in enumerate(values):
                if isinstance(v, float):
                    raise ParseError(f"coordinate {i} is the float {v!r}, not an exact rational") from None
        raise


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise DomainError(f"point has dimension {len(b)}, expected {len(a)}")
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    reduced, pivots, d = _gauss_jordan(_integer_rows(rows))
    return [list(_fractions(row, d)) for row in reduced], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_gauss_jordan(_integer_rows(rows))[1])


def kernel_basis(rows: Sequence[Sequence[Fraction]], dim: int) -> list[Vector]:
    """Basis of the joint kernel {x : row . x = 0 for every row}."""
    basis, d = _kernel(_integer_rows(rows), dim)
    return [_fractions(k, d) for k in basis]


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its own denominators: same row space, same echelon form."""
    return [_scaled(row)[0] for row in rows]


def _kernel(rows: Sequence[Sequence[int]], dim: int) -> tuple[list[list[int]], int]:
    """The kernel basis of `kernel_basis` for integer rows, as integer vectors d times it, and d.

    For each non-pivot column c the vector holds d at c and minus the
    reduced entry of each pivot row there.
    """
    reduced, pivots, d = _gauss_jordan(rows)
    basis: list[list[int]] = []
    for free in (c for c in range(dim) if c not in pivots):
        v = [0] * dim
        v[free] = d
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis, d


def _kernel_step(basis: list[list[int]], row: Sequence[int]) -> list[list[int]]:
    """A primitive integer basis of K ∩ row⊥, for `basis` a primitive integer basis of K.

    With c_i = row . K_i and p the first index with c_p != 0, each
    c_p K_i - c_i K_p (i != p), over the gcd of its entries, lies in row⊥.
    They are independent, since each holds K_i with the nonzero weight c_p
    and no other K_j but K_p, and they are dim K - 1, the dimension of
    K ∩ row⊥, so they span it.  When every c_i is zero the row vanishes on
    K, and K itself is returned.  So a facet subset's kernel is carried
    from its prefix's by one step on its last row, from the identity for a
    singleton, with no elimination.
    """
    values = [sum(map(mul, row, k)) for k in basis]
    p = next((i for i, c in enumerate(values) if c), None)
    if p is None:
        return basis
    line, a = basis[p], values[p]
    return [_divided([a * u - c * w for u, w in zip(k, line)]) for i, (k, c) in enumerate(zip(basis, values)) if i != p]


def _identity(dim: int) -> list[list[int]]:
    """The standard basis of Z^dim, the kernel of no rows."""
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def _gauss_jordan(rows: Sequence[Sequence[int]]) -> tuple[list[Sequence[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer rows, taken as given.

    Returns the nonzero rows, their pivot columns and a divisor d such that
    the reduced row echelon form is rows / d: each pivoted row holds d at
    its pivot and every other row 0 there.
    """
    mat = list(rows)
    m = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(ncols):
        for k in range(r, m):
            if mat[k][c]:
                break
        else:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        d = _pivot(mat, r, c, d)
        pivots.append(c)
        r += 1
        if r == m:
            break
    return mat[:r], pivots, d


def _pivot(mat: list[list[int]], r: int, c: int, d: int) -> int:
    """Pivot on p = mat[r][c] under the running divisor d and return p, the next divisor.

    Every other row becomes (p*row - f*pivot_row) // d, f its entry in
    column c.  Entries stay minors of the start, so `//` is exact (Bareiss 1968).
    """
    pivot_row = mat[r]
    p = pivot_row[c]
    for i, row in enumerate(mat):
        if i == r:
            continue
        f = row[c]
        if f:
            mat[i] = [(p * v - f * w) // d for v, w in zip(row, pivot_row)]
        elif p != d:
            mat[i] = [p * v // d for v in row]
    return p


def feasible_standard(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> bool:
    """Does A u = b, for `Fraction` or int entries, admit a solution u >= 0?

    Phase-one simplex with Bland's rule: exact pivoting terminates with a certified answer.
    """
    return _phase_one(rows, rhs)[0]


def _phase_one(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> tuple[bool, list[int]]:
    """Fraction-free phase one: (is A u = b, u >= 0 feasible, the final basis).

    The integer tableau ([A | b] over one positive common denominator, the
    artificial columns and, last, the reduced-cost row) is a positive
    multiple of the rational one row by row and column by column, so every
    sign, ratio comparison and Bland choice is the rational kernel's.
    """
    m = len(rows)
    if m == 0:
        return True, []
    n = len(rows[0])
    # Lists, not generators: star-unpacking a generator holds a large transient.
    scale = lcm(*[v.denominator for row in rows for v in row], *[b.denominator for b in rhs])
    tab: list[list[int]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        ints = _over(scale, [*row, b])
        if b < 0:
            ints = [-v for v in ints]
        art = [0] * m
        art[i] = 1
        tab.append(ints[:n] + art + ints[n:])
    total = n + m
    basis = [n + i for i in range(m)]
    # Reduced costs for minimising the sum of artificial variables; an
    # artificial column's cost 1 cancels its single 1.
    z = [-sum(col) for col in zip(*tab)]
    z[n:total] = [0] * m
    tab.append(z)
    d = 1
    while True:
        z = tab[m]
        enter = next((j for j in range(total) if z[j] < 0), None)
        if enter is None:
            return z[-1] == 0, basis
        leave = None
        for i in range(m):
            row = tab[i]
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs_best = row[-1] * den, num * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave is None:
            raise ArithmeticError("unbounded phase-one objective; tableau is inconsistent")
        d = _pivot(tab, leave, enter, d)
        basis[leave] = enter


def _gordan_empty(basis: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> bool:
    """Is {x = K t : (P K) t > 0} empty, for K the integer `basis` and P the integer rows `columns`?

    By Gordan's alternative it is empty exactly when some y >= 0 with
    sum(y) = 1 has y^T (P K) = 0, one `feasible_standard` call.  A row of P
    that vanishes on the kernel gives a zero column, a certificate of emptiness.
    """
    rows = [[sum(map(mul, col, k)) for col in columns] for k in basis]
    rows.append([1] * len(columns))
    return feasible_standard(rows, [0] * len(basis) + [1])


def _extreme_rays(rows: Sequence[Sequence[int]], dim: int) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Integer double description of the closed cone {x : row . x >= 0 for every row}.

    The rows must be nonzero integers.  Returns (rays, zeros, lineality):
    the primitive extreme rays modulo the lineality space, for each ray the
    bit mask of the rows that vanish on it (bit i for row i), and a
    primitive integer basis of the lineality space.

    The rows are added one at a time to R^dim, whose lineality basis is the
    identity (Motzkin et al. 1953; Fukuda & Prodon 1996).
    - A row that does not vanish on the lineality space pivots along one
      basis line l with row . l > 0: l becomes a ray, on which every earlier
      row vanishes, and each other basis vector and each ray is moved along
      l into the row's kernel, which changes no earlier row's sign.
    - Otherwise each ray keeps its place if the row is >= 0 on it, and each
      adjacent pair of a positive and a negative ray gives the ray where
      the row vanishes between them.  Two rays are adjacent exactly when no
      third ray vanishes on every row that both vanish on (the
      combinatorial test), because the smallest face holding both is then
      spanned by the two.  That face has dimension 2 plus the lineality's,
      so the rows both rays vanish on have rank, and so number, at least
      dim minus that; a pair with fewer is ruled out before the test.
    Every combination has positive integer weights, so signs are exact.
    """
    lineality = _identity(dim)
    rays: list[list[int]] = []
    zeros: list[int] = []
    for i, row in enumerate(rows):
        bit = 1 << i
        values = [sum(map(mul, row, v)) for v in lineality]
        j = next((k for k, v in enumerate(values) if v), None)
        if j is not None:
            line, a = lineality.pop(j), values.pop(j)
            if a < 0:
                line, a = [-c for c in line], -a
            lineality = [_divided([a * c - v * w for c, w in zip(u, line)]) for u, v in zip(lineality, values)]
            rays = [_divided([a * c - sum(map(mul, row, r)) * w for c, w in zip(r, line)]) for r in rays]
            zeros = [z | bit for z in zeros]
            rays.append(line)
            zeros.append(bit - 1)
            continue
        values = [sum(map(mul, row, r)) for r in rays]
        kept = [k for k, v in enumerate(values) if v >= 0]
        new_rays = [rays[k] for k in kept]
        new_zeros = [zeros[k] | bit if values[k] == 0 else zeros[k] for k in kept]
        negative = [k for k, v in enumerate(values) if v < 0]
        least = dim - len(lineality) - 2
        for p in (k for k in kept if values[k]):
            for n in negative:
                common = zeros[p] & zeros[n]
                if common.bit_count() < least or any(
                    common & z == common for k, z in enumerate(zeros) if k != p and k != n
                ):
                    continue
                vp, vn = values[p], values[n]
                new_rays.append(_divided([vp * b - vn * c for b, c in zip(rays[n], rays[p])]))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return rays, zeros, lineality


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, scale): the rationals times the lcm `scale` of their denominators, a positive integer multiple."""
    scale = lcm(*[q.denominator for q in values])
    return _over(scale, values), scale


def _over(scale: int, values: Sequence) -> list[int]:
    """The integers scale * q for rationals q whose denominators divide `scale`."""
    return [q.numerator * (scale // q.denominator) for q in values]


def _fractions(ints: Sequence[int], d: int) -> Vector:
    """The rationals ints / d, for a nonzero integer d: the decode of `_scaled`."""
    return tuple(Fraction(v, d) if v else ZERO for v in ints)


def _divided(ints: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries: the primitive vector on its ray.  Zero stays zero."""
    g = gcd(*ints)
    return ints if g <= 1 else [v // g for v in ints]


def _primitive(values: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector."""
    return tuple(_divided(_scaled(values)[0]))


def _unit_lead(ints: Sequence[int]) -> int:
    """The absolute value of the leading nonzero entry: the positive divisor that makes the vector unit-lead."""
    return abs(next(v for v in ints if v))


def _sorted_over(vectors: Sequence[Sequence[int]], divisors: Sequence[int]) -> list:
    """The integer vectors in the order of v / d, d > 0: each v times L / d, L the lcm of the d, is L (v / d)."""
    scale = lcm(*divisors)
    keys = [[c * (scale // d) for c in v] for v, d in zip(vectors, divisors)]
    return [vectors[i] for i in sorted(range(len(vectors)), key=keys.__getitem__)]
