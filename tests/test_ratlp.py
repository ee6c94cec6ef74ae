"""ratlp.fm_witness on small systems, checked three ways: feasibility
against an exact minimal-face search on sympy matrices, the witness
against every row, and the witness against plain Fraction Fourier-Motzkin
with the same elimination order, which is kept here as the reference.

sympy's simplex (sympy.solvers.simplex.linprog) is not the feasibility
oracle: in sympy 1.14 it returns x = 3/2 for 2x <= 3, -2x <= -3, 3x <= -2,
x >= 0, a point that breaks the last row."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational

from toricglsm.ratlp import fm_witness, in_cone


def _combine(p, m, v):
    ap, bp = p
    am, bm = m
    cp = ap[v]
    cm = -am[v]
    a = tuple(cm * x + cp * y for x, y in zip(ap, am))
    return (a, cm * bp + cp * bm)


def reference_witness(constraints, nvars):
    """Fourier-Motzkin on Fraction tuples, every positive/negative pair."""
    cons = [(tuple(Fraction(c) for c in a), Fraction(b)) for a, b in constraints]
    stack = []
    for v in range(nvars - 1, -1, -1):
        pos = [c for c in cons if c[0][v] > 0]
        neg = [c for c in cons if c[0][v] < 0]
        zero = [c for c in cons if c[0][v] == 0]
        stack.append((v, pos, neg))
        cons = list(dict.fromkeys(zero + [_combine(p, m, v) for p in pos for m in neg]))
    if any(b < 0 for _, b in cons):
        return None
    x = [Fraction(0)] * nvars
    for v, pos, neg in reversed(stack):
        lo, hi = None, None
        for a, b in pos:
            bound = (b - sum(a[j] * x[j] for j in range(v))) / a[v]
            hi = bound if hi is None else min(hi, bound)
        for a, b in neg:
            bound = (b - sum(a[j] * x[j] for j in range(v))) / a[v]
            lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None:
            x[v] = (lo + hi) / 2
        elif lo is not None:
            x[v] = lo
        elif hi is not None:
            x[v] = hi
    return tuple(x)


def _sympy(c):
    c = Fraction(c)
    return Rational(c.numerator, c.denominator)


def face_feasible(constraints, nvars):
    """Exact feasibility by enumerating minimal faces.  A nonempty
    polyhedron {x : A x <= b} has a minimal face {x : A_J x = b_J}, J a set
    of rank(A) independent rows, and every point of that face satisfies all
    rows (Schrijver, Theory of Linear and Integer Programming, 8.5).  So the
    system is feasible iff some such J has a solution of A_J x = b_J, any
    one, with A x <= b."""
    if nvars == 0:
        return all(b >= 0 for _, b in constraints)
    A = Matrix([[_sympy(c) for c in a] for a, _ in constraints])
    b = Matrix([_sympy(b) for _, b in constraints])
    r = A.rank()
    for J in itertools.combinations(range(A.rows), r):
        AJ = A.extract(list(J), list(range(nvars)))
        if AJ.rank() < r:
            continue
        x, params = AJ.gauss_jordan_solve(b.extract(list(J), [0]))
        x = x.subs({p: 0 for p in params})
        if all(v <= 0 for v in A * x - b):
            return True
    return False


def check(constraints, nvars):
    got = fm_witness(constraints, nvars)
    assert (got is not None) == face_feasible(constraints, nvars), constraints
    if got is not None:
        assert all(type(c) is Fraction for c in got)
        for a, b in constraints:
            assert sum(Fraction(c) * x for c, x in zip(a, got)) <= b, (constraints, got)
    assert got == reference_witness(constraints, nvars), constraints
    return got


def _entry(rng):
    c = rng.randint(-3, 3)
    return Fraction(c, rng.randint(1, 3)) if rng.random() < 0.2 else c


def random_system(rng):
    """Up to 8 rows in up to 4 variables, entries in [-3, 3] (a fifth of
    them Fractions), with equality pairs, repeated or scaled rows and zero
    rows mixed in."""
    nvars = rng.randint(0, 4)
    rows, size = [], rng.randint(1, 8)
    while len(rows) < size:
        roll = rng.random()
        if rows and roll < 0.15:  # a repeated or positively scaled row
            a, b = rng.choice(rows)
            s = rng.choice((1, 2, 3, Fraction(1, 2)))
            rows.append((tuple(s * c for c in a), s * b))
        elif roll < 0.3 and len(rows) + 2 <= size:  # an equality, as a row and its negation
            a, b = tuple(_entry(rng) for _ in range(nvars)), _entry(rng)
            rows += [(a, b), (tuple(-c for c in a), -b)]
        elif roll < 0.35:  # a zero row
            rows.append(((0,) * nvars, _entry(rng)))
        else:
            rows.append((tuple(_entry(rng) for _ in range(nvars)), _entry(rng)))
    rng.shuffle(rows)
    return rows, nvars


def test_seeded_systems():
    rng = random.Random(20)
    outcomes = set()
    for _ in range(250):
        rows, nvars = random_system(rng)
        outcomes.add(check(rows, nvars) is None)
    assert outcomes == {True, False}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_systems(rng):
    check(*random_system(rng))


def test_equalities_and_scaled_rows():
    # x0 + x1 = 1 twice (once scaled by 1/2), x0 - x1 <= 0, x1 <= 3/2
    rows = [((1, 1), 1), ((-1, -1), -1), ((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2)),
            ((1, -1), 0), ((0, 1), Fraction(3, 2))]
    assert check(rows, 2) == (0, 1)
    # the equality x0 = x1 against x0 - x1 <= -1
    assert check([((1, -1), 0), ((-1, 1), 0), ((1, -1), -1)], 2) is None


def test_zero_variables():
    assert fm_witness([((), -1)], 0) is None
    assert fm_witness([((), 0), ((), 2)], 0) == ()
    assert fm_witness([], 0) == ()
    assert fm_witness([((0, 0), -1), ((1, 0), 1)], 2) is None


def test_arity_checked_before_infeasibility():
    with pytest.raises(ValueError, match="arity"):
        fm_witness([((), -1), ((1,), 0)], 0)


def test_in_cone_certificate_is_exact():
    where, u = in_cone((Fraction(-7, 3), 5), [(2, 1), (-1, 3), (1, -2)])
    assert where == "outside"
    assert u == (Fraction(3, 2), Fraction(1, 2))
    assert in_cone((1, 1), [(1, 2), (1, 0)]) == ("interior", None)
    assert in_cone((0, 3), [(1, 2), (0, 1)]) == ("boundary", None)
