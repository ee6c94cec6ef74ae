import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from toricglsm.lattice import IntMatrix, adjugate, rank, smith_normal_form


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
    corank = {0: 0, 1: 0, 2: 0}
    for n in range(7):
        for _ in range(20):
            rows = _random_square(rng, n)
            A = IntMatrix(n, n, tuple(x for row in rows for x in row))
            det, adj = adjugate(A)
            M = sympy.Matrix(n, n, [x for row in rows for x in row])
            assert det == M.det(), rows
            assert adj == IntMatrix(n, n, tuple(int(x) for x in M.adjugate())), rows
            scalar = IntMatrix(n, n, tuple(det * (i == j) for i in range(n) for j in range(n)))
            assert adj @ A == A @ adj == scalar
            corank[min(n - M.rank(), 2)] += 1
    assert min(corank.values()) >= 10, corank  # the full-rank and both singular branches ran


def test_adjugate_edge_cases():
    assert adjugate(IntMatrix.zero(0, 0)) == (1, IntMatrix.zero(0, 0))
    assert adjugate(IntMatrix.from_rows([[0]])) == (0, IntMatrix.identity(1))
    assert adjugate(IntMatrix.from_rows([[-7]])) == (-7, IntMatrix.identity(1))
    assert adjugate(IntMatrix.zero(3, 3)) == (0, IntMatrix.zero(3, 3))
    with pytest.raises(ValueError):
        adjugate(IntMatrix.zero(2, 3))
