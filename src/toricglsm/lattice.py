"""Exact integer linear algebra: one fraction-free Gauss-Jordan elimination
(adjugates, ranks, pivot columns, rational solves) and Smith normal form.

Matrices are immutable; all operations are pure functions on
arbitrary-precision ints, so concurrent callers need no synchronization.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record, setfield


class IntMatrix(Record):
    """Dense integer matrix, row-major entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(entries) != rows * cols:
            raise ValueError(
                "entry count %d does not match %dx%d" % (len(entries), rows, cols)
            )
        if not all(isinstance(e, int) for e in entries):
            raise TypeError("entries must be ints")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "entries", entries)

    @staticmethod
    def from_rows(rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(len(rows), ncols, tuple(e for r in rows for e in r))

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.at(i, j) for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(
            self.cols, self.rows, tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))


def _eliminate(a, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, 1968) of integer rows
    `a`, in place over their first ncols columns, every entry an integer
    minor: (pivot columns, d, row-swap sign), each pivot ending equal to d."""
    sign, prev, pivots = 1, 1, []
    for k in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][k]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv], sign = a[piv], a[r], -sign
        prev = _step(a, r, k, prev)
        pivots.append(k)
    return pivots, prev, sign


def _step(a, r, k, prev):
    """One Bareiss pivot on a[r][k], prev being the previous pivot (1 at the
    start): every other row i becomes (p * a[i] - a[i][k] * a[r]) / prev,
    exactly.  Rows are replaced, never mutated, so a copy of the list `a`
    keeps its parent's rows.  Returns the new pivot p = a[r][k]."""
    row, p = a[r], a[r][k]
    for i in range(len(a)):
        f = a[i][k]
        if i != r and (f or p != prev):
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
    return p


def _integer_row(row):
    """The row times the lcm of its as_integer_ratio() denominators, as ints
    (entries without one, such as the str "1/2", are read as Fractions)."""
    try:
        ratios = [x.as_integer_ratio() for x in row]
    except AttributeError:
        ratios = [Fraction(x).as_integer_ratio() for x in row]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios]


def adjugate(A: IntMatrix):
    """(det A, adj A), with adj A @ A = det A * I, read off the right block
    of [A | I] after `_eliminate`; (0, None) when A is singular."""
    if A.rows != A.cols:
        raise ValueError("adjugate of non-square matrix")
    n = A.rows
    a = [[*A.row(i), *(0,) * i, 1, *(0,) * (n - 1 - i)] for i in range(n)]
    pivots, d, sign = _eliminate(a, n)
    if len(pivots) < n:
        return 0, None
    return sign * d, IntMatrix(n, n, tuple(sign * x for row in a for x in row[n:]))


class SmithDecomposition(Record):
    """U @ A @ V = D with U, V unimodular and D diagonal, d_1 | d_2 | ..."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U, D, V):
        super().__init__(U, D, V)

    def diagonal(self):
        return tuple(self.D.at(i, i) for i in range(min(self.D.rows, self.D.cols)))

    def rank(self):
        return sum(1 for d in self.diagonal() if d != 0)


def solve_rational(rows, b):
    """(rank, x) for the rational system rows . x = b, read off `_eliminate`
    of [rows | b]: x has its free variables at 0, or is None when the
    system is inconsistent."""
    if len(b) != len(rows):
        raise ValueError("right-hand side has wrong length")
    n = len(rows[0]) if rows else 0
    a = [_integer_row([*row, c]) for row, c in zip(rows, b)]
    pivots, d, _ = _eliminate(a, n)
    r = len(pivots)
    if any(row[n] for row in a[r:]):
        return r, None
    x = [Fraction(0)] * n
    for row, j in zip(a, pivots):
        x[j] = Fraction(row[n], d)
    return r, tuple(x)


def pivot_columns(A: IntMatrix):
    """The columns of A independent of the columns before them."""
    return tuple(_eliminate(A.to_rows(), A.cols)[0])


def rank(A: IntMatrix) -> int:
    """Rank over Q."""
    return len(_eliminate(A.to_rows(), A.cols)[0])


def _pivot(a, t, nr, nc):
    """Smallest-|entry| nonzero pivot in the trailing submatrix, ties by (row, col)."""
    best = None
    for i in range(t, nr):
        for j in range(t, nc):
            if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form U*A*V = D, deterministic pivoting."""
    nr, nc = A.rows, A.cols
    a = A.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def add_row(i, k, q):
        # row_i += q * row_k
        a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        u[i] = [x + q * y for x, y in zip(u[i], u[k])]

    def add_col(j, k, q):
        # col_j += q * col_k
        for r in a:
            r[j] += q * r[k]
        for r in v:
            r[j] += q * r[k]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    nmin = min(nr, nc)
    while t < nmin:
        loc = _pivot(a, t, nr, nc)
        if loc is None:
            break
        if loc[0] != t:
            swap_rows(t, loc[0])
        if loc[1] != t:
            swap_cols(t, loc[1])
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # pivot divides everything in its row/column; enforce divisibility
        # into the remaining block before moving on
        bad = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SmithDecomposition(IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v))
