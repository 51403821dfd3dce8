"""The integer elimination and LP kernels against the rational ones they replaced."""

import random
from fractions import Fraction

import pytest

import hilbertgeom.linalg as linalg
from hilbertgeom.linalg import (
    _phase_one,
    feasible_standard,
    kernel_basis,
    rank,
    rref,
)

from helpers import F, in_cone, linear_system_feasible, open_cone_feasible, solve_square


def fraction_phase_one(rows, rhs):
    """Reference kernel: phase-one simplex with Bland's rule on `Fraction`s.

    Returns (feasible, final basis) for A u = b, u >= 0.
    """
    m = len(rows)
    if m == 0:
        return True, []
    n = len(rows[0])
    tab = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab.append(row + art + [b])
    total = n + m
    basis = [n + i for i in range(m)]
    z = []
    for j in range(total + 1):
        col_sum = sum((tab[i][j] for i in range(m)), Fraction(0))
        cost = Fraction(1) if n <= j < total else Fraction(0)
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
            raise ArithmeticError("unbounded phase-one objective")
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
    return z[-1] == 0, basis


MAX_DEN = 325


def rand_rational(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.randint(-9, 9), rng.randint(1, MAX_DEN))


def random_system(rng):
    """A seeded system of up to 8 rows and 24 columns in one of five shapes."""
    m = rng.randint(1, 8)
    n = rng.randint(1, 24)
    rows = [[rand_rational(rng) for _ in range(n)] for _ in range(m)]
    shape = rng.randrange(5)
    if shape == 0:
        # b = A u with a sparse u >= 0: feasible, usually degenerate.
        u = [F(rng.randint(0, 3), rng.randint(1, 7)) if rng.random() < 0.4 else F(0) for _ in range(n)]
        rhs = [sum((a * x for a, x in zip(row, u)), F(0)) for row in rows]
    elif shape == 1:
        # Repeated rows and a zero right-hand side: ties in every ratio test.
        rhs = [F(0)] * m
        for i in range(1, m):
            if rng.random() < 0.5:
                rows[i] = list(rows[rng.randrange(i)])
    elif shape == 2:
        # A zero row, with zero or nonzero right-hand side.
        rhs = [rand_rational(rng) for _ in range(m)]
        k = rng.randrange(m)
        rows[k] = [F(0)] * n
        rhs[k] = rng.choice([F(0), F(0), rand_rational(rng, zero_share=0)])
    elif shape == 3:
        # Negated copy of a row with both right-hand sides positive: infeasible
        # when the copy is kept, and the kernel must flip signs of negative b.
        rhs = [rand_rational(rng, zero_share=0) for _ in range(m)]
        if m > 1:
            rows[-1] = [-v for v in rows[0]]
            rhs[-1] = abs(rhs[0])
            rhs[0] = abs(rhs[0])
    else:
        rhs = [rand_rational(rng) for _ in range(m)]
    return rows, rhs


class TestAgainstFractionKernel:
    def test_random_systems_match_answer_and_final_basis(self):
        rng = random.Random(20261018)
        answers = {True: 0, False: 0}
        negative_rhs = 0
        for _ in range(400):
            rows, rhs = random_system(rng)
            expected = fraction_phase_one(rows, rhs)
            assert _phase_one(rows, rhs) == expected, (rows, rhs)
            assert feasible_standard(rows, rhs) is expected[0]
            answers[expected[0]] += 1
            negative_rhs += any(b < 0 for b in rhs)
        assert min(answers.values()) >= 50
        assert negative_rhs >= 50

    def test_degenerate_ties_take_the_same_leaving_row(self):
        # Identical ratio 0 in every row: Bland's rule picks the smallest
        # basic index, and a wrong tie-break ends in another basis.
        rows = [[F(1, 3), F(2), F(-1)], [F(1, 3), F(2), F(-1)], [F(2, 5), F(1), F(1, 7)]]
        rhs = [F(0), F(0), F(0)]
        assert _phase_one(rows, rhs) == fraction_phase_one(rows, rhs)
        rows = [[F(1), F(1)], [F(2), F(2)], [F(1, 2), F(1, 2)]]
        rhs = [F(1), F(2), F(1, 2)]
        assert _phase_one(rows, rhs) == fraction_phase_one(rows, rhs) == (True, [0, 3, 4])

    def test_integer_entries_are_accepted(self):
        rows = [[1, 2, -1], [0, 3, 1]]
        rhs = [-2, 5]
        assert _phase_one(rows, rhs) == fraction_phase_one(rows, rhs)

    def test_empty_system_is_feasible(self):
        assert _phase_one([], []) == fraction_phase_one([], []) == (True, [])
        assert feasible_standard([], []) is True

    def test_zero_rows(self):
        assert feasible_standard([[F(0), F(0)]], [F(0)]) is True
        assert feasible_standard([[F(0), F(0)]], [F(1, 3)]) is False
        assert feasible_standard([[F(0), F(0)]], [F(-1, 3)]) is False


class TestCallers:
    def test_in_cone(self):
        gens = [(F(1), F(0)), (F(0), F(1))]
        assert in_cone((F(1, 2), F(3)), gens)
        assert in_cone((F(0), F(0)), gens)
        assert not in_cone((F(-1, 5), F(1)), gens)
        assert in_cone((F(0), F(0)), [])
        assert not in_cone((F(1), F(0)), [])
        assert in_cone((F(1), F(-1)), [(F(1, 3), F(-2, 3)), (F(1), F(0))])

    def test_linear_system_feasible(self):
        # x >= 1 and -x >= 0 (x <= 0): infeasible.
        assert not linear_system_feasible([], [((F(1),), F(1)), ((F(-1),), F(0))], 1)
        # x = -2 and x >= -3: feasible with a negative free variable.
        assert linear_system_feasible([((F(1),), F(-2))], [((F(1),), F(-3))], 1)
        # x + y = 1, x >= 2/3, y >= 2/3: infeasible.
        one = ((F(1), F(1)), F(1))
        ineqs = [((F(1), F(0)), F(2, 3)), ((F(0), F(1)), F(2, 3))]
        assert not linear_system_feasible([one], ineqs, 2)
        ineqs = [((F(1), F(0)), F(1, 3)), ((F(0), F(1)), F(1, 3))]
        assert linear_system_feasible([one], ineqs, 2)
        assert linear_system_feasible([], [], 3)

    @pytest.mark.parametrize("seed", range(3))
    def test_strict_cone_systems_match_reference(self, seed):
        # The shape the face lattice asks about: some facets vanish, the rest
        # are at least one, in split free variables with slack columns.
        rng = random.Random(seed)
        for _ in range(30):
            dim = rng.randint(2, 4)
            facets = [[rand_rational(rng, 0.2) for _ in range(dim)] for _ in range(rng.randint(3, 7))]
            k = rng.randint(0, len(facets) - 1)
            eqs = [(f, F(0)) for f in facets[:k]]
            ineqs = [(f, F(1)) for f in facets[k:]]
            rows, rhs = [], []
            for j, (coeffs, b) in enumerate(eqs + ineqs):
                row = list(coeffs) + [-c for c in coeffs] + [F(0)] * len(ineqs)
                if j >= k:
                    row[2 * dim + j - k] = F(-1)
                rows.append(row)
                rhs.append(b)
            assert linear_system_feasible(eqs, ineqs, dim) == fraction_phase_one(rows, rhs)[0]


OPEN_CONE_SHAPES = ("no zero rows", "no positive rows", "repeated rows", "zero row", "rank-deficient", "lineality", "witness")


def random_open_cone_system(rng):
    """Zero rows and positive rows in R^dim, denominators up to 325, in one of seven shapes."""
    dim = rng.randint(1, 5)

    def row():
        return [rand_rational(rng) for _ in range(dim)]

    zero = [row() for _ in range(rng.randint(0, 4))]
    positive = [row() for _ in range(rng.randint(0, 6))]
    shape = rng.randrange(len(OPEN_CONE_SHAPES))
    if shape == 0:
        zero = []
    elif shape == 1:
        positive = []
    elif shape == 2:
        # Copies within and across the two lists, some negated.
        for _ in range(2):
            source = rng.choice(zero + positive or [row()])
            target = rng.choice([zero, positive])
            target.append(list(source) if rng.random() < 0.7 else [-v for v in source])
    elif shape == 3:
        rng.choice([zero, positive]).append([F(0)] * dim)
    elif shape == 4:
        # The last zero row is a combination of the others.
        zero = [row() for _ in range(rng.randint(1, 3))]
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in zero]
        zero.append([sum((c * r[j] for c, r in zip(coeffs, zero)), F(0)) for j in range(dim)])
    elif shape == 5:
        # Every row vanishes on the last axis, a line of lineality.
        for r in zero + positive:
            r[-1] = F(0)
    else:
        # A point of the kernel of the zero rows, and positive rows flipped to be positive on it.
        basis = kernel_basis(zero, dim)
        x = [sum((F(rng.randint(-3, 3)) * k[j] for k in basis), F(0)) for j in range(dim)]
        positive = [r if sum((a * b for a, b in zip(r, x)), F(0)) >= 0 else [-v for v in r] for r in positive]
    return zero, positive, dim, shape


def primal(zero, positive, dim):
    return linear_system_feasible([(z, F(0)) for z in zero], [(p, F(1)) for p in positive], dim)


class TestOpenConeFeasible:
    def test_seeded_systems_match_the_primal_oracle(self):
        rng = random.Random(20261021)
        answers = {True: 0, False: 0}
        shapes = [0] * len(OPEN_CONE_SHAPES)
        for _ in range(2400):
            zero, positive, dim, shape = random_open_cone_system(rng)
            expected = primal(zero, positive, dim)
            assert open_cone_feasible(zero, positive, dim) is expected, (zero, positive, dim)
            answers[expected] += 1
            shapes[shape] += 1
        assert min(answers.values()) >= 600
        assert min(shapes) >= 250

    def test_one_lp_in_the_kernel(self, monkeypatch):
        shapes = []
        original = linalg.feasible_standard

        def counted(rows, rhs):
            shapes.append((len(rows), len(rows[0])))
            return original(rows, rhs)

        monkeypatch.setattr(linalg, "feasible_standard", counted)
        rng = random.Random(20261022)
        for _ in range(200):
            zero, positive, dim, _ = random_open_cone_system(rng)
            shapes.clear()
            open_cone_feasible(zero, positive, dim)
            assert shapes == [(dim - rank(zero) + 1, len(positive))]

    def test_edge_cases(self):
        x, y = (F(1), F(0)), (F(0), F(1))
        assert open_cone_feasible([], [], 2) is True
        assert open_cone_feasible([x, y], [], 2) is True
        assert open_cone_feasible([x, y], [(F(1, 3), F(-2))], 2) is False
        assert open_cone_feasible([], [(F(0), F(0))], 2) is False
        assert open_cone_feasible([], [x, (F(-2, 7), F(0))], 2) is False
        assert open_cone_feasible([], [x, (F(-2, 7), F(1))], 2) is True
        # The zero row repeated with a negated copy leaves x free but forces y = 0.
        assert open_cone_feasible([y, (F(0), F(-3))], [x], 2) is True
        assert open_cone_feasible([y, (F(0), F(-3))], [y], 2) is False
        assert open_cone_feasible([[1, 1]], [[3, 1]], 2) is True


def fraction_rref(rows):
    """Reference elimination: Gauss-Jordan on `Fraction`s, pivot on the first nonzero entry."""
    mat = [[Fraction(v) for v in row] for row in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
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


def fraction_kernel_basis(rows, dim):
    if not rows:
        return [tuple(F(int(j == i)) for j in range(dim)) for i in range(dim)]
    reduced, pivots = fraction_rref(rows)
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        v = [F(0)] * dim
        v[free] = F(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(tuple(v))
    return basis


def fraction_solve_square(rows, rhs):
    n = len(rows)
    reduced, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(reduced[i][n] for i in range(n))


def random_matrix(rng):
    """A seeded matrix of up to 7 x 8 in one of five shapes, denominators up to 325."""
    m = rng.randint(1, 7)
    n = rng.randint(1, 8)
    rows = [[rand_rational(rng) for _ in range(n)] for _ in range(m)]
    shape = rng.randrange(5)
    if shape == 0 and m > 1:
        # Rank-deficient: the last row is a combination of the others.
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(m - 1)]
        rows[-1] = [sum((a * row[j] for a, row in zip(coeffs, rows)), F(0)) for j in range(n)]
    elif shape == 1:
        rows[rng.randrange(m)] = [F(0)] * n
    elif shape == 2:
        c = rng.randrange(n)
        for row in rows:
            row[c] = F(0)
    elif shape == 3 and m > 1:
        rows[rng.randrange(1, m)] = list(rows[0])
    return rows


class TestAgainstFractionElimination:
    def test_random_matrices(self):
        rng = random.Random(20261019)
        deficient = 0
        for _ in range(600):
            rows = random_matrix(rng)
            expected = fraction_rref(rows)
            assert rref(rows) == expected, rows
            assert rank(rows) == len(expected[1])
            assert kernel_basis(rows, len(rows[0])) == fraction_kernel_basis(rows, len(rows[0]))
            deficient += len(expected[1]) < min(len(rows), len(rows[0]))
        assert deficient >= 150

    def test_random_square_systems(self):
        rng = random.Random(20261020)
        solved = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            rows = [[rand_rational(rng) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3 and n > 1:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % (n - 1)])]
            rhs = [rand_rational(rng) for _ in range(n)]
            expected = fraction_solve_square(rows, rhs)
            assert solve_square(rows, rhs) == expected, (rows, rhs)
            solved += expected is not None
        assert 100 <= solved <= 350

    def test_edge_shapes(self):
        for rows in ([], [[]], [[F(0), F(0)]], [[F(0)], [F(0)]], [[F(-3, 7)]], [[1, 2], [2, 4]], [[0, -5, 10]]):
            assert rref(rows) == fraction_rref(rows)
            assert rank(rows) == len(fraction_rref(rows)[1])
        assert kernel_basis([], 2) == fraction_kernel_basis([], 2)
        assert kernel_basis([[0, 0, 0]], 3) == fraction_kernel_basis([[0, 0, 0]], 3)
        assert solve_square([[F(0)]], [F(1)]) is None
        assert solve_square([[F(2, 3)]], [F(1, 3)]) == (F(1, 2),)

    def test_returns_fractions(self):
        reduced, _ = rref([[2, 4, 1], [1, 3, 5]])
        assert all(type(v) is Fraction for row in reduced for v in row)
        assert all(type(v) is Fraction for v in solve_square([[2, 1], [1, 3]], [1, 2]))
