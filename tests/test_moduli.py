import pytest

from toricglsm import moduli
from toricglsm.delta import is_nonvanishing


def test_summarize_p2(p2):
    s = moduli.summarize(p2, (1, 1, 1))
    assert (s.y_dim, s.g_dim, s.w_dim) == (6, 1, 5)
    s2 = moduli.summarize(p2, (3, 3, 3))
    assert (s2.y_dim, s2.g_dim, s2.w_dim) == (12, 1, 11)


def test_summarize_p1xp1(p1xp1):
    s = moduli.summarize(p1xp1, (2, 2, 1, 1))
    assert (s.y_dim, s.g_dim, s.w_dim) == (10, 2, 8)


def test_summarize_f1(f1):
    # admissible degrees on F1 satisfy d0 = d1 + d2 wrt rays
    # (1,0),(0,1),(-1,1),(0,-1): need d0 - d2 = 0 and d1 + d2 - d3 = 0
    s = moduli.summarize(f1, (1, 0, 1, 1))
    assert (s.y_dim, s.g_dim, s.w_dim) == (7, 2, 5)


def test_summarize_degree_zero(p2):
    s = moduli.summarize(p2, (0, 0, 0))
    assert (s.y_dim, s.g_dim, s.w_dim) == (3, 1, 2)


def test_summarize_rejects_bad_degrees(p2, f1):
    with pytest.raises(ValueError, match="inadmissible"):
        moduli.summarize(p2, (1, 1, 2))
    with pytest.raises(ValueError, match="negative"):
        moduli.summarize(f1, (-1, 0, -1, -1))


def test_projective_space_dimension_table():
    # full section space of (k,...,k) on P^n is (n+1)(k+1) forms of degree k,
    # minus the one-dimensional torus
    from toricglsm.catalog import projective_space

    for n in range(1, 5):
        f = projective_space(n)
        for k in range(0, 6):
            s = moduli.summarize(f, (k,) * (n + 1))
            assert s.w_dim == (n + 1) * (k + 1) - 1


def test_sample_deterministic(p2, p1xp1):
    for fan, d in ((p2, (2, 2, 2)), (p1xp1, (1, 1, 2, 2))):
        a = moduli.sample(fan, d, seed=7, coeff_bound=5)
        b = moduli.sample(fan, d, seed=7, coeff_bound=5)
        assert a == b
        assert is_nonvanishing(a)
        c = moduli.sample(fan, d, seed=8, coeff_bound=5)
        assert is_nonvanishing(c)


def test_sample_many_seeds_nonvanishing(p2):
    for seed in range(30):
        c = moduli.sample(p2, (1, 1, 1), seed=seed, coeff_bound=3)
        assert is_nonvanishing(c)
        assert all(
            abs(x) <= 3 for u in c.sections for x in u.coefficients
        )


def test_sample_budget_exhausted(p2):
    # coefficient bound 0 only produces the zero collection, always vanishing
    with pytest.raises(ValueError, match="budget"):
        moduli.sample(p2, (1, 1, 1), seed=0, coeff_bound=0)


def test_sample_rejects_negative_bound(p2):
    with pytest.raises(ValueError, match="coefficient bound -1 is negative"):
        moduli.sample(p2, (1, 1, 1), seed=0, coeff_bound=-1)


def test_excluded_locus(p2):
    c = moduli.sample(p2, (1, 1, 1), seed=1, coeff_bound=4)
    assert not moduli.in_excluded_locus(c)
