"""The minimal-transversal kernel, the stable-basis walk, the rational
solver and cone certificates, checked against the exhaustive subset
searches they replaced and against sympy."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricglsm import catalog, glsm, lattice
from toricglsm.cox import cox_presentation, minimal_transversals, primitive_collections
from toricglsm.glsm import UNSTABLE, kahler_cone_contains, semistable, unstable_supports
from toricglsm.lattice import IntMatrix, solve_rational
from toricglsm.ratlp import in_cone


def reference_primitive_collections(f):
    """Size-ordered search for minimal ray sets inside no maximal cone."""
    cone_sets = [set(c) for c in f.max_cones]

    def in_some_cone(s):
        return any(s <= c for c in cone_sets)

    found = []
    for size in range(1, f.n_rays + 1):
        for comb in itertools.combinations(range(f.n_rays), size):
            s = set(comb)
            if in_some_cone(s) or any(set(p) <= s for p in found):
                continue
            if all(in_some_cone(s - {i}) for i in comb):
                found.append(comb)
    return tuple(found)


def reference_unstable_supports(charges, fi):
    """Size-ordered search for minimal zero-sets with an unstable support,
    one exact cone-membership decision per subset."""
    r = charges.cols
    found = []
    for size in range(r + 1):
        for comb in itertools.combinations(range(r), size):
            if any(set(prev) <= set(comb) for prev in found):
                continue
            support = [i for i in range(r) if i not in comb]
            if semistable(charges, support, fi) == UNSTABLE:
                found.append(comb)
    return found


def subset_unstable_supports(charges, fi):
    """The minimal transversals of the stable bases, with one rational solve
    per column subset of size <= rows(Q)."""
    r = charges.cols
    rows = charges.to_rows()
    bases = []
    for size in range(min(charges.rows, r) + 1):
        for basis in itertools.combinations(range(r), size):
            rank, x = solve_rational([[row[i] for i in basis] for row in rows], fi)
            if rank == size and x is not None and all(c >= 0 for c in x):
                bases.append(basis)
    return minimal_transversals(r, bases)


def test_primitive_collections_match_reference():
    fans = [catalog.by_name(n) for n in catalog.GOLDEN_NAMES]
    fans += [catalog.projective_space(5), catalog.hirzebruch(3)]
    for f in fans:
        assert primitive_collections(f) == reference_primitive_collections(f), f.name


def _block_charges(sizes):
    """Charges of a product of projective spaces P^(s-1)."""
    r = sum(sizes)
    rows, start = [], 0
    for s in sizes:
        rows.append([1 if start <= i < start + s else 0 for i in range(r)])
        start += s
    return IntMatrix.from_rows(rows)


HAND_WRITTEN = {
    "P1xP1xP2": _block_charges((2, 2, 3)),
    "P1^4": _block_charges((2, 2, 2, 2)),
    "F3": IntMatrix.from_rows([[1, -3, 1, 0], [0, 1, 0, 1]]),
}


def _combo(Q, fields, rng):
    return tuple(
        sum(Fraction(rng.randint(1, 4), 2) * Q.at(a, i) for i in fields)
        for a in range(Q.rows)
    )


def _fi_vectors(Q, rng):
    """Interior, boundary, zero, outside and random FI vectors; `outside`
    negates the sum of the charges, which lies outside the pointed charge
    cones used here."""
    k, r = Q.rows, Q.cols
    row = rng.choice([a for a in range(k) if min(Q.row(a)) >= 0])
    face = [i for i in range(r) if Q.at(row, i) == 0]
    total = tuple(sum(Q.row(a)) for a in range(k))
    fis = {
        "interior": _combo(Q, range(r), rng),
        "boundary": _combo(Q, rng.sample(face, rng.randint(1, len(face))), rng),
        "zero": (0,) * k,
        "outside": tuple(-x for x in total),
    }
    for j in range(3):
        fis[f"random{j}"] = tuple(rng.randint(-3, 3) for _ in range(k))
    return fis


def test_unstable_supports_match_reference_hand_written():
    rng = random.Random(17)
    for name, Q in HAND_WRITTEN.items():
        for kind, fi in _fi_vectors(Q, rng).items():
            got = unstable_supports(Q, fi)
            assert got == reference_unstable_supports(Q, fi), (name, kind, fi)
            if kind == "zero":
                assert got == []
            if kind == "outside":
                assert got == [()]


def test_unstable_supports_match_reference_golden():
    rng = random.Random(23)
    for name in catalog.GOLDEN_NAMES:
        fan = catalog.by_name(name)
        pres = cox_presentation(fan)
        Q = pres.charge_matrix
        fis = [tuple(rng.randint(-3, 3) for _ in range(Q.rows)) for _ in range(3)]
        kahler = next(
            a
            for a in itertools.product(range(-3, 4), repeat=Q.rows)
            if kahler_cone_contains(fan, pres, a)
        )
        for fi in fis + [kahler]:
            assert unstable_supports(Q, fi) == reference_unstable_supports(Q, fi), (name, fi)
        assert unstable_supports(Q, kahler) == list(primitive_collections(fan))


def _random_charges(rng):
    """k x r charges with entries in [-2, 2], some columns repeated or zero,
    and at times a row that is a multiple of another (rank below k)."""
    k, r = rng.randint(0, 4), rng.randint(0, 7)
    cols = []
    for _ in range(r):
        roll = rng.random()
        if cols and roll < 0.15:
            cols.append(rng.choice(cols))
        elif roll < 0.25:
            cols.append((0,) * k)
        else:
            cols.append(tuple(rng.randint(-2, 2) for _ in range(k)))
    rows = [[c[a] for c in cols] for a in range(k)]
    if k >= 2 and rng.random() < 0.3:
        m = rng.choice((-2, -1, 1, 2))
        rows[-1] = [m * x for x in rows[0]]
    return IntMatrix(k, r, tuple(x for row in rows for x in row))


def _random_fis(Q, rng):
    """Zero, generic Fraction and float FI vectors, and Q . lambda with some
    lambda_i = 0, which lies on a wall when it is not zero."""
    k, r = Q.rows, Q.cols
    lam = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) * rng.randint(0, 1) for _ in range(r)]
    return {
        "zero": (0,) * k,
        "fraction": tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)),
        "float": tuple(rng.randint(-8, 8) / 4 for _ in range(k)),
        "wall": tuple(sum(lam[i] * Q.at(a, i) for i in range(r)) for a in range(k)),
    }


def test_walk_matches_both_oracles_on_random_charges():
    rng = random.Random(28)
    shapes = set()
    for _ in range(300):
        Q = _random_charges(rng)
        shapes.add((Q.rows == 0, Q.cols == 0))
        for kind, fi in _random_fis(Q, rng).items():
            got = unstable_supports(Q, fi)
            assert got == subset_unstable_supports(Q, fi), (Q, kind, fi)
            assert got == reference_unstable_supports(Q, fi), (Q, kind, fi)
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def test_walk_matches_subset_oracle_on_products():
    rng = random.Random(29)
    products = {
        "P1^5": _block_charges((2,) * 5),
        "P1^6": _block_charges((2,) * 6),
        "P2^3": _block_charges((3, 3, 3)),
        "P1xP1xP2": _block_charges((2, 2, 3)),
    }
    for name, Q in products.items():
        fis = [(1,) * Q.rows, (0,) * Q.rows]
        fis += [tuple(rng.randint(-2, 2) for _ in range(Q.rows)) for _ in range(3)]
        for fi in fis:
            assert unstable_supports(Q, fi) == subset_unstable_supports(Q, fi), (name, fi)


def test_walk_pivots_once_per_nonempty_independent_set(monkeypatch):
    """On P1^m the independent sets pick at most one field per factor: 3^m
    of them, and the walk never pivots a dependent subset."""
    calls = []

    def counting(a, r, k, prev):
        calls.append(k)
        return lattice._step(a, r, k, prev)

    monkeypatch.setattr(glsm, "_step", counting)
    for m in range(1, 7):
        calls.clear()
        Q = _block_charges((2,) * m)
        assert unstable_supports(Q, (1,) * m) == [(2 * i, 2 * i + 1) for i in range(m)]
        assert len(calls) == 3**m - 1, m


def _brute_transversals(n, edges):
    found = []
    for size in range(n + 1):
        for comb in itertools.combinations(range(n), size):
            s = set(comb)
            if all(s & set(e) for e in edges) and not any(set(p) <= s for p in found):
                found.append(comb)
    return found


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(0, max(n - 1, 0)), max_size=n), max_size=6),
        )
    )
)
def test_minimal_transversals_brute_force(case):
    n, edges = case
    assert minimal_transversals(n, edges) == _brute_transversals(n, edges)


def test_minimal_transversals_reject_the_vertex_n():
    with pytest.raises(ValueError):
        minimal_transversals(3, [(3,)])


_small = st.integers(-3, 3)


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda mn: st.tuples(
            st.lists(
                st.lists(_small, min_size=mn[1], max_size=mn[1]),
                min_size=mn[0],
                max_size=mn[0],
            ),
            st.lists(_small, min_size=mn[0], max_size=mn[0]),
        )
    )
)
def test_solve_rational_against_sympy(case):
    rows, b = case
    A, B = sympy.Matrix(rows), sympy.Matrix(b)
    rank, x = solve_rational(rows, b)
    assert rank == A.rank()
    consistent = A.row_join(B).rank() == rank
    assert (x is not None) == consistent
    if x is None:
        return
    assert A * sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in x]) == B
    if rank == A.cols:
        sol, params = A.gauss_jordan_solve(B)
        assert params.shape[0] == 0
        assert list(sol) == [sympy.Rational(c.numerator, c.denominator) for c in x]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(_small, min_size=k, max_size=k),
            st.lists(st.lists(_small, min_size=k, max_size=k), max_size=4),
        )
    )
)
def test_outside_certificates_separate(case):
    point, gens = case
    where, u = in_cone(point, gens)
    if where != "outside":
        assert u is None
        return
    assert all(sum(g[j] * u[j] for j in range(len(u))) >= 0 for g in gens)
    assert sum(p * c for p, c in zip(point, u)) < 0
