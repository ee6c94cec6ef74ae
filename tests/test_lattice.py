import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from toricglsm.lattice import (
    IntMatrix,
    integer_kernel,
    rank,
    saturate,
    smith_normal_form,
    solve_integer,
)


def check_decomposition(A):
    snf = smith_normal_form(A)
    assert snf.U @ A @ snf.V == snf.D
    assert abs(snf.U.det()) == 1
    assert abs(snf.V.det()) == 1
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
            assert A.mul_vec(v) == (0,) * r
        assert len(K) + rank(A) == c


def test_saturate_examples():
    assert saturate([(2, 0)]) == [(1, 0)]
    assert saturate([]) == []
    sat = saturate([(1, 1), (1, -1)])
    assert len(sat) == 2
    assert abs(IntMatrix.from_rows(sat).det()) == 1  # full Z^2


def test_saturate_idempotent():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(0, 3)
        vecs = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m)]
        once = saturate(vecs)
        twice = saturate(once)
        # same lattice: each basis must solve the other's membership
        assert len(once) == len(twice)
        if once:
            M1 = IntMatrix.from_rows(once).transpose()
            for v in twice:
                assert solve_integer(M1, v) is not None


def test_solve_integer_examples():
    A = IntMatrix.from_rows([[2]])
    assert solve_integer(A, (4,)) == (2,)
    assert solve_integer(A, (3,)) is None
    A = IntMatrix.from_rows([[1, -1, 1, 0], [0, 1, 0, 1]])
    x = solve_integer(A, (1, 1))
    assert x is not None
    assert A.mul_vec(x) == (1, 1)


def test_solve_integer_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_integer(IntMatrix.from_rows([[1, 2]]), (1, 2))


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
