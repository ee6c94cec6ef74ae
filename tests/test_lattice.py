import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from toricglsm.lattice import (
    IntMatrix,
    adjugate,
    pivot_columns,
    rank,
    smith_normal_form,
    solve_rational,
)


def check_decomposition(A):
    snf = smith_normal_form(A)
    assert snf.U @ A @ snf.V == snf.D
    assert abs(adjugate(snf.U)[0]) == 1
    assert abs(adjugate(snf.V)[0]) == 1
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal zero
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D.at(i, j) == 0
    return snf


def test_snf_diag_2_3():
    # elementary row/column reduction of diag(2,3) gives diag(1,6):
    # gcd(2,3)=1 and 2*3=6 must be preserved as the determinant
    snf = check_decomposition(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.diagonal() == (1, 6)


def test_snf_zero_matrix():
    snf = check_decomposition(IntMatrix.zero(2, 2))
    assert snf.D == IntMatrix.zero(2, 2)


def test_snf_identity():
    snf = check_decomposition(IntMatrix.identity(3))
    assert snf.D == IntMatrix.identity(3)


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(120):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        A = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        )
        snf = check_decomposition(A)
        assert snf.rank() == rank(A)


def integer_kernel(A):
    """The columns of V past the rank of A's Smith form: the basis of the
    integer kernel that `cox` takes for its charge matrix."""
    snf = smith_normal_form(A)
    return [snf.V.column(j) for j in range(snf.rank(), A.cols)]


def test_kernel_sum_row():
    A = IntMatrix.from_rows([[1, 1, 1]])
    K = integer_kernel(A)
    assert len(K) == 2
    for v in K:
        assert sum(v) == 0
    assert rank(IntMatrix.from_rows(K)) == 2


def test_kernel_identity_empty():
    assert integer_kernel(IntMatrix.identity(3)) == []


def test_kernel_2_minus2():
    K = integer_kernel(IntMatrix.from_rows([[2, -2]]))
    assert len(K) == 1
    v = K[0]
    assert v in [(1, 1), (-1, -1)]


def test_kernel_rank_relation():
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        )
        K = integer_kernel(A)
        for v in K:
            assert A @ IntMatrix.from_rows([v]).transpose() == IntMatrix.zero(r, 1)
        assert len(K) + rank(A) == c


def test_intmatrix_shape_guard():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))


def test_snf_diagonal_matches_sympy():
    rng = random.Random(17)
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:  # a dependent row lowers the rank
            rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]
        snf = check_decomposition(IntMatrix.from_rows(rows))
        D = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        assert snf.diagonal() == tuple(abs(D[i, i]) for i in range(min(r, c))), rows


def _random_square(rng, n):
    """Entries in [-3, 3]; about a third of the draws have rank n - 1 or
    lower (rows mixed from fewer rows), and some are sparse 0/+-1."""
    draw = rng.random()
    if draw < 0.35 and n > 1:
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n - 1))]
        mix = [[rng.randint(-2, 2) for _ in base] for _ in range(n)]
        return [[sum(c * b[j] for c, b in zip(m, base)) for j in range(n)] for m in mix]
    if draw > 0.85:
        return [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def test_adjugate_matches_sympy():
    rng = random.Random(16)
    singular = regular = 0
    for n in range(7):
        for _ in range(20):
            rows = _random_square(rng, n)
            A = IntMatrix(n, n, tuple(x for row in rows for x in row))
            det, adj = adjugate(A)
            M = sympy.Matrix(n, n, [x for row in rows for x in row])
            assert det == M.det(), rows
            if det == 0:
                assert adj is None, rows
                singular += 1
                continue
            assert adj == IntMatrix(n, n, tuple(int(x) for x in M.adjugate())), rows
            scalar = IntMatrix(n, n, tuple(det * (i == j) for i in range(n) for j in range(n)))
            assert adj @ A == A @ adj == scalar
            regular += 1
    assert min(singular, regular) >= 10, (singular, regular)  # both branches ran


def test_adjugate_edge_cases():
    assert adjugate(IntMatrix.zero(0, 0)) == (1, IntMatrix.zero(0, 0))
    assert adjugate(IntMatrix.from_rows([[0]])) == (0, None)
    assert adjugate(IntMatrix.from_rows([[-7]])) == (-7, IntMatrix.identity(1))
    assert adjugate(IntMatrix.from_rows([[1, 2], [2, 4]])) == (0, None)  # rank n - 1
    assert adjugate(IntMatrix.zero(3, 3)) == (0, None)
    with pytest.raises(ValueError):
        adjugate(IntMatrix.zero(2, 3))


def reference_solve(rows, b):
    """Plain Fraction Gauss-Jordan elimination: (rank, x) with the free
    variables at 0, or x None when rows . x = b is inconsistent."""
    n = len(rows[0]) if rows else 0
    a = [[Fraction(x) for x in row] + [Fraction(c)] for row, c in zip(rows, b)]
    pivots = []
    for j in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][j] != 0:
                f = a[i][j] / a[r][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
    r = len(pivots)
    if any(row[n] != 0 for row in a[r:]):
        return r, None
    x = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        x[j] = a[i][n] / a[i][j]
    return r, tuple(x)


def _random_system(rng, kind):
    """A seeded system (rows, b) with `kind` entries: int, Fraction or
    float.  Some draws are rank-deficient (a row mixed from two others),
    some inconsistent (such a row with b moved off), some have 0 columns."""
    m, n = rng.randint(0, 5), rng.choice((0, 1, 2, 3, 4, 5))
    draw = {
        int: lambda: rng.randint(-4, 4),
        Fraction: lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        float: lambda: rng.choice((0.0, rng.uniform(-3, 3), rng.randint(-3, 3) * 0.5)),
    }[kind]
    rows = [[draw() for _ in range(n)] for _ in range(m)]
    b = [draw() for _ in range(m)]
    if m > 2 and rng.random() < 0.5:
        c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[-1] = [c1 * x + c2 * y for x, y in zip(rows[0], rows[1])]
        b[-1] = c1 * b[0] + c2 * b[1] + (rng.random() < 0.5)  # + 1: inconsistent
    return rows, b


def _sympy_solve(rows, b):
    """(rank, x) by sympy, free parameters at 0, entries read exactly."""
    if not rows or not rows[0]:  # no columns: solved only by b = 0
        return 0, None if any(b) else ()
    exact = [[sympy.Rational(*Fraction(x).as_integer_ratio()) for x in row] for row in rows]
    A = sympy.Matrix(exact)
    B = sympy.Matrix([sympy.Rational(*Fraction(c).as_integer_ratio()) for c in b])
    try:
        sol, params = A.gauss_jordan_solve(B)
    except ValueError:  # inconsistent
        return A.rank(), None
    return A.rank(), tuple(sol.subs({t: 0 for t in params}))


@pytest.mark.parametrize("kind", [int, Fraction, float], ids=["int", "fraction", "float"])
def test_solve_rational_matches_fraction_reference_and_sympy(kind):
    rng = random.Random({int: 21, Fraction: 22, float: 23}[kind])
    seen = set()
    for _ in range(150):
        rows, b = _random_system(rng, kind)
        rk, x = solve_rational(rows, b)
        assert (rk, x) == reference_solve(rows, b), (rows, b)
        assert all(type(c) is Fraction for c in x or ())
        srk, sx = _sympy_solve(rows, b)
        assert rk == srk and (x is None) == (sx is None), (rows, b)
        if x is not None:
            assert [sympy.Rational(c.numerator, c.denominator) for c in x] == list(sx)
        n = len(rows[0]) if rows else 0
        seen.add(("deficient" if rk < min(len(rows), n) else "full",
                  "inconsistent" if x is None else "solved", "0-col" if n == 0 else "cols"))
    assert {("deficient", "inconsistent", "cols"), ("full", "solved", "cols"),
            ("deficient", "solved", "cols"), ("full", "solved", "0-col")} <= seen, seen


def test_rank_matches_reference_and_sympy():
    rng = random.Random(24)
    for _ in range(150):
        rows, _ = _random_system(rng, int)
        if not rows:
            continue
        A = IntMatrix.from_rows(rows)
        assert rank(A) == reference_solve(rows, [0] * len(rows))[0] == sympy.Matrix(
            len(rows), A.cols, [x for row in rows for x in row]).rank(), rows


def _greedy_basis(cols, k):
    """The greedy Kempf-Ness basis: each column kept when it raises the
    rank of those kept, up to k of them."""
    basis = []
    for q in cols:
        if len(basis) < k and reference_solve(basis + [q], [0] * (len(basis) + 1))[0] > len(basis):
            basis.append(q)
    return basis


def test_pivot_columns_match_greedy_basis():
    rng = random.Random(25)
    for _ in range(200):
        k, r = rng.randint(1, 4), rng.randint(0, 7)
        Q = [[rng.randint(-2, 3) for _ in range(r)] for _ in range(k)]
        support = sorted(rng.sample(range(r), rng.randint(0, r)))
        cols = [tuple(row[i] for row in Q) for i in support]
        basis = [cols[j] for j in pivot_columns(IntMatrix.from_rows(zip(*cols)))]
        assert basis == _greedy_basis(cols, k), (Q, support)
