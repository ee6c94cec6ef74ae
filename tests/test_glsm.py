import itertools
import math
import random
from fractions import Fraction

import pytest

from toricglsm import glsm, ratlp
from toricglsm.cox import cox_presentation, primitive_collections
from toricglsm.fan import FAN_CACHE_SIZE, walls
from toricglsm.glsm import (
    BOUNDARY_MARGINAL,
    INTERIOR_STABLE,
    UNSTABLE,
    GLSMProblem,
    kahler_cone_contains,
    kempf_ness_solve,
    pair_divisor_curve,
    semistable,
    unstable_supports,
)
from toricglsm.lattice import IntMatrix, solve_rational
from toricglsm.ratlp import in_cone


def charges_of(fan):
    return cox_presentation(fan).charge_matrix


def test_problem_validation(p2):
    Q = charges_of(p2)
    with pytest.raises(ValueError):
        GLSMProblem(charges=Q, fi=(1, 2), amplitudes=(1, 1, 1))
    with pytest.raises(ValueError):
        GLSMProblem(charges=Q, fi=(1,), amplitudes=(1, 1))
    with pytest.raises(ValueError):
        GLSMProblem(charges=Q, fi=(1,), amplitudes=(1, -1, 1))


def test_semistable_p2(p2):
    Q = charges_of(p2)
    sign = Q.at(0, 0)  # charge matrix is (1,1,1) up to global sign
    r = (sign,)
    assert semistable(Q, (0, 1, 2), r) == INTERIOR_STABLE
    assert semistable(Q, (0,), r) == INTERIOR_STABLE  # cone of one generator hits r
    assert semistable(Q, (), r) == UNSTABLE
    assert semistable(Q, (0, 1, 2), (0,)) == BOUNDARY_MARGINAL
    assert semistable(Q, (0, 1, 2), (-sign,)) == UNSTABLE


def test_semistable_f1(f1):
    pres = cox_presentation(f1)
    Q = pres.charge_matrix
    r = _kahler_point(f1, pres)
    assert semistable(Q, (0, 1, 2, 3), r) == INTERIOR_STABLE
    # dropping one field of each primitive collection keeps stability
    for pc in pres.primitive_collections:
        support = tuple(i for i in range(4) if i != pc[0])
        assert semistable(Q, support, r) != UNSTABLE
    # zeroing a whole primitive collection is unstable
    for pc in pres.primitive_collections:
        support = tuple(i for i in range(4) if i not in pc)
        assert semistable(Q, support, r) == UNSTABLE


def _kahler_point(fan, pres):
    # small integer search for a class strictly inside the Kaehler cone
    k = pres.pic_rank
    import itertools

    for a in itertools.product(range(-3, 4), repeat=k):
        if kahler_cone_contains(fan, pres, a):
            return tuple(a)
    raise AssertionError("no Kaehler class found in search box")


def test_solver_p2_closed_form(p2):
    # minimize 3 e^{2t} - 2 r t with r = 1 (sign-adjusted): t = -log(3)/2
    Q = charges_of(p2)
    sign = Q.at(0, 0)
    p = GLSMProblem(charges=Q, fi=(sign,), amplitudes=(1, 1, 1))
    rep = kempf_ness_solve(p, tol=1e-10)
    assert rep.status == "Converged"
    assert abs(sign * rep.t[0] - (-math.log(3) / 2)) < 1e-9
    assert rep.gradient_norm < 1e-10


def _residual(p, t):
    """Sup norm of the moment map Q s(t) - r at t."""
    Q = p.charges
    w = [
        float(a) * math.exp(2 * sum(Q.at(k, i) * t[k] for k in range(Q.rows)))
        for i, a in enumerate(p.amplitudes)
    ]
    return max(
        abs(sum(Q.at(k, i) * w[i] for i in range(Q.cols)) - float(p.fi[k]))
        for k in range(Q.rows)
    )


def test_solver_residual_is_moment_map(p1xp1):
    Q = charges_of(p1xp1)
    p = GLSMProblem(charges=Q, fi=(2, 3), amplitudes=(1, 2, 1, 1))
    rep = kempf_ness_solve(p, tol=1e-9)
    assert rep.status == "Converged"
    # residual Q s(t) - r at the minimizer matches half the gradient
    assert _residual(p, rep.t) < 1e-9


def test_solver_unstable_certificate(p2):
    Q = charges_of(p2)
    sign = Q.at(0, 0)
    p = GLSMProblem(charges=Q, fi=(-sign,), amplitudes=(1, 1, 1))
    rep = kempf_ness_solve(p)
    assert rep.status == "Unstable"
    assert rep.t is None
    u = rep.recession_direction
    assert u is not None
    # recession direction: objective decreases without bound along it
    # (<q_i, u> <= 0 bounds the exponentials, <r, u> >= 1 drives the linear term)
    for i in range(Q.cols):
        assert sum(Q.at(k, i) * u[k] for k in range(Q.rows)) <= 1e-12
    assert sum(float(-sign) * u[k] for k in range(Q.rows)) > 0.5


def test_solver_full_step_when_backtracking_stalls():
    cases = [
        # Armijo backtracking cannot resolve the decrease on these two; the
        # solver used to stall at a gradient of ~1.7e-8 and ~1.9e-8
        ([[1, 1, 1, 1, 1, 1]], (7,),
         (Fraction(5, 4), Fraction(3, 2), 1, 0, Fraction(1, 4), Fraction(1, 4))),
        ([[1, 0, 1, 2], [0, 1, 0, 1]], (5, Fraction(3, 2)),
         (Fraction(1, 4), 0, Fraction(1, 4), 2)),
        # badly scaled charges: t0 ~ 6.9 but a basis coordinate ~ 2.8e5, so
        # the iterate must be kept in t
        ([[1, 200], [0, 1]], (10**6, 3), (1, 1)),
    ]
    for rows, fi, amps in cases:
        p = GLSMProblem(charges=IntMatrix.from_rows(rows), fi=fi, amplitudes=amps)
        rep = kempf_ness_solve(p)
        assert rep.status == "Converged", rows
        assert _residual(p, rep.t) <= 1e-8, rows


def test_solver_stays_in_support_span():
    # the support charges (1,1) and (2,2) span a line: the Hessian is
    # singular and the minimizer set is a line, of which t is the point in
    # the span
    p = GLSMProblem(charges=IntMatrix.from_rows([[1, 2], [1, 2]]), fi=(6, 6), amplitudes=(1, 1))
    rep = kempf_ness_solve(p)
    assert rep.status == "Converged"
    assert abs(rep.t[0] - rep.t[1]) <= 1e-12
    assert _residual(p, rep.t) <= 1e-8


def test_solver_survives_overflowing_exponent():
    # the first Newton step puts 2 q t near 1e6, far past exp's range
    p = GLSMProblem(charges=IntMatrix.from_rows([[300]]), fi=(3 * 10**8,), amplitudes=(1,))
    rep = kempf_ness_solve(p)
    assert rep.status in ("Converged", "IterationLimit")
    assert math.isfinite(rep.gradient_norm)


def test_solver_stops_at_float_resolution():
    # |r| ~ 1e8 puts the gradient's rounding noise (~1e-7) above tol = 1e-8:
    # the solve stops at the floor 128 eps max_a (|r_a| + sum_i |q_ia| w_i)
    cases = [
        ([[300]], (3 * 10**8,), (1,)),
        ([[1, 1, 3]], (5 * 10**8,), (Fraction(1, 2), 5 * 10**7, 75 * 10**6)),
    ]
    for rows, fi, amps in cases:
        p = GLSMProblem(charges=IntMatrix.from_rows(rows), fi=fi, amplitudes=amps)
        rep = kempf_ness_solve(p)
        assert rep.status == "Converged", rows
        assert rep.iterations <= 20, rows
        assert _residual(p, rep.t) <= 1e-14 * float(fi[0]), rows


def test_solver_floor_counts_the_weights():
    # r = 3 is small, but the weights 1e12 put the gradient's rounding noise
    # (~2.4e-4) above tol: the floor must read sum_i |q_ia| w_i, not r alone
    p = GLSMProblem(charges=IntMatrix.from_rows([[1, -1]]), fi=(3,),
                    amplitudes=(10**12, 10**12))
    rep = kempf_ness_solve(p)
    assert rep.status == "Converged" and rep.iterations == 1
    assert 1e-4 < rep.gradient_norm < 1e-3


def test_solver_without_charge_rows():
    # no gauge group: the empty FI vector is in every cone, f is constant
    p = GLSMProblem(charges=IntMatrix(0, 2, ()), fi=(), amplitudes=(1, 2))
    assert semistable(p.charges, p.support, p.fi) == INTERIOR_STABLE
    rep = kempf_ness_solve(p)
    assert rep.status == "Converged"
    assert rep.t == ()


def test_solver_tests_the_gradient_after_its_last_step():
    # converges in exactly 6 steps: max_iter=6 must report it, not IterationLimit
    p = GLSMProblem(charges=IntMatrix.from_rows([[1, 0, 1, 1], [0, 1, 1, 0]]),
                    fi=(Fraction(3, 2), Fraction(1, 2)), amplitudes=(1, Fraction(1, 4), 2, 1))
    full = kempf_ness_solve(p)
    assert full.status == "Converged" and full.iterations == 6
    assert kempf_ness_solve(p, max_iter=6) == full
    short = kempf_ness_solve(p, max_iter=5)
    assert short.status == "IterationLimit" and short.iterations == 5
    assert short.gradient_norm >= 1e-8
    zero = kempf_ness_solve(p, max_iter=0)
    assert (zero.status, zero.iterations, zero.gradient_norm) == ("IterationLimit", 0, 5.0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(max_iter=-5), "max_iter must be nonnegative"),
    (dict(tol=math.inf), "tol must be positive and finite"),
    (dict(tol=math.nan), "tol must be positive and finite"),
    (dict(tol=0.0), "tol must be positive and finite"),
], ids=["negative-max-iter", "inf-tol", "nan-tol", "zero-tol"])
def test_solver_rejects_bad_controls(p2, kwargs, message):
    Q = charges_of(p2)
    p = GLSMProblem(charges=Q, fi=(Q.at(0, 0),), amplitudes=(1, 1, 1))
    with pytest.raises(ValueError, match=message):
        kempf_ness_solve(p, **kwargs)


def test_gradient_finite_difference(p1xp1, f1):
    rng = random.Random(91)
    checked = 0
    for fan in (p1xp1, f1):
        Q = charges_of(fan)
        k, r = Q.rows, Q.cols
        while checked < 50 if fan is p1xp1 else checked < 100:
            s = [Fraction(rng.randint(1, 5)) for _ in range(r)]
            fi = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
            t = [rng.uniform(-0.5, 0.5) for _ in range(k)]
            checked += 1

            def f(tv):
                return sum(
                    float(s[i])
                    * math.exp(2 * sum(Q.at(a, i) * tv[a] for a in range(k)))
                    for i in range(r)
                ) - 2 * sum(float(fi[a]) * tv[a] for a in range(k))

            h = 1e-6
            for a in range(k):
                tp = list(t)
                tm = list(t)
                tp[a] += h
                tm[a] -= h
                fd = (f(tp) - f(tm)) / (2 * h)
                grad_a = 2 * (
                    sum(
                        Q.at(a, i)
                        * float(s[i])
                        * math.exp(2 * sum(Q.at(b, i) * t[b] for b in range(k)))
                        for i in range(r)
                    )
                    - float(fi[a])
                )
                assert abs(fd - grad_a) <= 1e-4 * max(1.0, abs(grad_a))


def test_solver_agrees_with_exact_verdict(p2, p1xp1, f1):
    rng = random.Random(101)
    for _ in range(60):
        fan = rng.choice([p2, p1xp1, f1])
        Q = charges_of(fan)
        fi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(Q.rows))
        amps = tuple(
            Fraction(rng.randint(0, 3)) for _ in range(Q.cols)
        )
        p = GLSMProblem(charges=Q, fi=fi, amplitudes=amps)
        verdict = semistable(Q, p.support, fi)
        rep = kempf_ness_solve(p, tol=1e-8, max_iter=300)
        if verdict == INTERIOR_STABLE:
            assert rep.status == "Converged"
            assert rep.gradient_norm < 1e-8
        else:
            assert rep.status == "Unstable"


def test_unstable_supports_match_primitive_collections(golden_fans):
    for fan in golden_fans:
        if fan.n_rays > 8:
            continue
        pres = cox_presentation(fan)
        r = _kahler_point(fan, pres)
        assert set(unstable_supports(pres.charge_matrix, r)) == set(
            primitive_collections(fan)
        )


def test_unstable_supports_p2_reference(p2):
    pres = cox_presentation(p2)
    sign = pres.charge_matrix.at(0, 0)
    assert unstable_supports(pres.charge_matrix, (sign,)) == [(0, 1, 2)]


def test_unstable_supports_field_limit():
    Q = IntMatrix.from_rows([[1] * 17])
    with pytest.raises(ValueError):
        unstable_supports(Q, (1,))


def test_unstable_supports_accepts_sixteen_fields():
    Q = IntMatrix.from_rows([[1] * 16])
    assert unstable_supports(Q, (1,)) == [tuple(range(16))]


@pytest.mark.parametrize("fi", [(), (1, 5)])
def test_fi_length_checked_before_the_support(fi):
    """An empty support has no generator to compare the FI vector with, so
    its length is checked up front."""
    Q = IntMatrix.from_rows([[1, 1, 1]])
    message = "FI vector length must equal charge-matrix rows"
    for support in ((), (0, 2)):
        with pytest.raises(ValueError, match=message):
            semistable(Q, support, fi)
    with pytest.raises(ValueError, match=message):
        unstable_supports(Q, fi)


def test_pair_divisor_curve_p2(p2):
    pres = cox_presentation(p2)
    sign = pres.charge_matrix.at(0, 0)
    # the hyperplane class paired with the line class (1,1,1) gives 1
    assert pair_divisor_curve(pres, (sign,), (1, 1, 1)) == 1
    assert pair_divisor_curve(pres, (3 * sign,), (1, 1, 1)) == 3
    assert pair_divisor_curve(pres, (sign,), (0, 0, 0)) == 0
    with pytest.raises(ValueError, match="not admissible"):
        pair_divisor_curve(pres, (1,), (1, 0, 0))


def test_kahler_cone_p1xp1(p1xp1):
    pres = cox_presentation(p1xp1)
    a = _kahler_point(p1xp1, pres)
    assert kahler_cone_contains(p1xp1, pres, a)
    assert not kahler_cone_contains(p1xp1, pres, tuple(-x for x in a))
    assert not kahler_cone_contains(p1xp1, pres, (0,) * pres.pic_rank)


def test_kahler_cone_f2():
    from toricglsm.catalog import hirzebruch

    f2 = hirzebruch(2)
    pres = cox_presentation(f2)
    a = _kahler_point(f2, pres)
    assert kahler_cone_contains(f2, pres, a)
    # every wall curve pairs positively
    from toricglsm.fan import walls

    for w in walls(f2):
        assert pair_divisor_curve(pres, a, w.relation) > 0


def test_kahler_cone_matches_wall_pairings(golden_fans):
    # the cached wall classes against one pairing per wall curve
    for f in golden_fans:
        pres = cox_presentation(f)
        ws = walls(f)
        for a in itertools.product(range(-3, 4), repeat=pres.pic_rank):
            expected = all(pair_divisor_curve(pres, a, w.relation) > 0 for w in ws)
            assert kahler_cone_contains(f, pres, a) == expected, (f.name, a)


def _newton_coords_by_fractions(eq, w, eg):
    # the Hessian summed term by term over the columns E q_i, as the solver
    # once did, then solve_rational and float() of each Fraction
    m = len(eg)
    proj = list(zip(*eq))
    rows = [[4.0 * sum(x * p[b] * p[c] for x, p in zip(w, proj)) for c in range(m)]
            for b in range(m)]
    if not all(map(math.isfinite, itertools.chain(eg, *rows))):
        return None
    _, z = solve_rational(rows, [-x for x in eg])
    try:
        return None if z is None else [float(x) for x in z]
    except OverflowError:
        return None


def _bits(z):
    return None if z is None else [x.hex() for x in z]


def test_newton_coords_match_the_fraction_route_bit_for_bit():
    rng = random.Random(7)
    cases = [
        # a zero weight leaves the Hessian singular: consistent (free
        # coordinate 0.0) and inconsistent right-hand sides
        ([[1, 0], [0, 1]], [1.5, 0.0], [0.75, 0.0]),
        ([[1, 0], [0, 1]], [1.5, 0.0], [0.75, -0.5]),
        # weights past float range: an infinite Hessian
        ([[1, 2], [3, -1]], [1e308, 1e308], [1.0, 2.0]),
        # a subnormal Hessian entry: the coordinate overflows
        ([[1]], [5e-324], [1e300]),
        # rounding leaves this Hessian indefinite (last pivot < 0) with a
        # coordinate exactly 0, which must read 0.0, not -0.0
        ([[2, -1, -1, 0, -2, 0], [-1, 1, 0, -2, -1, -2], [1, 3, -2, 2, 1, 2]],
         [0.00017428288583099517, 0.9116250227566918, 9.675166616598926e-23,
          4.57972180539535e+28, 10826032.684516657, 1.128427086306473e-23], [2.0, 0.0, 0.0]),
    ]
    for _ in range(400):
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        eq = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        w = [rng.choice((0.0, 1.0)) * 10.0 ** rng.uniform(-6, 6) for _ in range(n)]
        eg = [rng.uniform(-1, 1) * 10.0 ** rng.uniform(-8, 8) for _ in range(m)]
        cases.append((eq, w, eg))
    outcomes = set()
    for eq, w, eg in cases:
        old = _newton_coords_by_fractions(eq, w, eg)
        assert _bits(glsm._newton_coords(eq, w, eg)) == _bits(old), (eq, w, eg)
        outcomes.add(old is None)
    assert outcomes == {True, False}
    assert glsm._newton_coords([[1, 0], [0, 1]], [1.5, 0.0], [0.75, 0.0]) == [-0.125, 0.0]
    for eq, w, eg in cases[1:4]:
        assert glsm._newton_coords(eq, w, eg) is None


def test_semistable_and_solver_share_one_cone_decision(monkeypatch):
    calls = []

    def counted(point, generators):
        calls.append(point)
        return in_cone(point, generators)

    monkeypatch.setattr(ratlp, "in_cone", counted)
    glsm._position.cache_clear()
    Q = IntMatrix.from_rows([[1, 0, 1, 2], [0, 1, 0, 1]])
    assert semistable(Q, (0, 1, 2, 3), (2, 1)) == INTERIOR_STABLE
    p = GLSMProblem(charges=Q, fi=(2, 1), amplitudes=(1, Fraction(1, 2), 1, 2))
    assert kempf_ness_solve(p).status == "Converged"
    assert len(calls) == 1
    assert semistable(Q, (0, 1, 2, 3), (Fraction(-5), Fraction(3, 2))) == UNSTABLE
    p = GLSMProblem(charges=Q, fi=(-5, Fraction(3, 2)), amplitudes=(1, 1, 1, 1))
    assert kempf_ness_solve(p).recession_direction == (-0.2, 0.0)
    assert len(calls) == 2


def test_fi_entries_given_as_strings_are_read_as_fractions():
    Q = IntMatrix.from_rows([[1, 0, 1, 2], [0, 1, 0, 1]])
    assert semistable(Q, (0, 1, 2, 3), ("1/2", "3")) == INTERIOR_STABLE
    assert semistable(Q, (0, 1, 2, 3), ("0", "1")) == BOUNDARY_MARGINAL
    assert unstable_supports(Q, ("1/2", "3")) == unstable_supports(Q, (Fraction(1, 2), 3))


def test_cone_decision_cache_is_bounded():
    glsm._position.cache_clear()
    Q = IntMatrix.from_rows([[1, 1, 1]])
    for c in range(2 * FAN_CACHE_SIZE):
        assert semistable(Q, (0, 1, 2), (c + 1,)) == INTERIOR_STABLE
    info = glsm._position.cache_info()
    assert info.misses == 2 * FAN_CACHE_SIZE
    assert info.currsize <= FAN_CACHE_SIZE
