"""Exact rational linear algebra and a small exact LP feasibility kernel.

Everything operates on `fractions.Fraction`; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vector(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    total = ZERO
    for x, y in zip(a, b):
        total += x * y
    return total


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def is_zero_vector(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows: Sequence[Sequence[Fraction]], dim: int) -> list[Vector]:
    """Basis of the joint kernel {x : row . x = 0 for every row}."""
    if not rows:
        return [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]
    reduced, pivots = rref(rows)
    basis: list[Vector] = []
    for free in (c for c in range(dim) if c not in pivots):
        v = [ZERO] * dim
        v[free] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve an n x n linear system exactly; None if there is no unique solution."""
    n = len(rows)
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return tuple(reduced[i][n] for i in range(n))


def feasible_standard(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> bool:
    """Does A u = b admit a solution u >= 0?

    Phase-one simplex with Bland's rule; exact pivoting guarantees
    termination and a certified yes/no answer.
    """
    m = len(rows)
    if m == 0:
        return True
    n = len(rows[0])
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [ZERO] * m
        art[i] = ONE
        tab.append(row + art + [b])
    total = n + m
    basis = [n + i for i in range(m)]
    # Reduced costs for minimising the sum of artificial variables.
    z = []
    for j in range(total + 1):
        col_sum = ZERO
        for i in range(m):
            col_sum += tab[i][j]
        cost = ONE if n <= j < total else ZERO
        z.append(cost - col_sum)
    while True:
        enter = next((j for j in range(total) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise ArithmeticError("unbounded phase-one objective; tableau is inconsistent")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        pivot_row = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], pivot_row)]
        if z[enter] != 0:
            f = z[enter]
            z = [v - f * w for v, w in zip(z, pivot_row)]
        basis[leave] = enter
    return z[-1] == 0


def in_cone(target: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Farkas membership: is `target` a nonnegative combination of `generators`?"""
    if not generators:
        return is_zero_vector(target)
    d = len(target)
    rows = [[Fraction(g[i]) for g in generators] for i in range(d)]
    return feasible_standard(rows, list(target))


def linear_system_feasible(
    equalities: Sequence[tuple[Sequence[Fraction], Fraction]],
    inequalities: Sequence[tuple[Sequence[Fraction], Fraction]],
    nvars: int,
) -> bool:
    """Feasibility of {a.x = b} and {c.x >= d} over free rational variables.

    Free variables are split into positive and negative parts and
    inequalities get slack columns, reducing to standard form.
    """
    nge = len(inequalities)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    all_rows = [(coeffs, b, None) for coeffs, b in equalities]
    all_rows += [(coeffs, b, k) for k, (coeffs, b) in enumerate(inequalities)]
    for coeffs, b, slack_idx in all_rows:
        coeffs = [Fraction(c) for c in coeffs]
        row = coeffs + [-c for c in coeffs] + [ZERO] * nge
        if slack_idx is not None:
            row[2 * nvars + slack_idx] = -ONE
        rows.append(row)
        rhs.append(Fraction(b))
    return feasible_standard(rows, rhs)
