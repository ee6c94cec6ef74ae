import itertools
import json
import random
from fractions import Fraction

import pytest
import sympy

from toricglsm import catalog, delta, forms, jsonio, moduli
from toricglsm.cli import main
from toricglsm.cox import cox_presentation, outside_irrelevant_locus, primitive_collections
from toricglsm.fan import Fan
from toricglsm.delta import (
    WeakDeltaCollection,
    admissible,
    base_divisor,
    gauge_scalars,
    is_nondegenerate,
    is_nonvanishing,
    isomorphic,
    pullback,
    scale_sections,
)
from toricglsm.forms import BinaryForm, parse_form


def _rational_roots(f):
    """Rational projective roots of a nonzero form, by sympy: [r:1] for each
    rational root r of f(z0, 1), and [1:0] when z1 divides f."""
    values = [sympy.Rational(c.numerator, c.denominator) for c in f.coefficients]
    roots = sympy.Poly(values, sympy.Symbol("z0"), domain="QQ").ground_roots()
    return [(r.p, r.q) for r in roots] + [(1, 0)] * (f.coefficients[0] == 0)


def coll(fan, degrees, sections, triv=None):
    return WeakDeltaCollection(
        fan=fan,
        degree=tuple(degrees),
        sections=tuple(parse_form(s, expected_degree=d) for s, d in zip(sections, degrees)),
        trivializations=triv,
    )


def test_admissible(p2, f1):
    assert admissible(p2, (1, 1, 1))
    assert not admissible(p2, (1, 0, 0))
    assert admissible(f1, (1, 0, 1, 1))
    assert not admissible(f1, (1, 1, 1, 1))


def test_inadmissible_collection_rejected(p2):
    with pytest.raises(ValueError, match="inadmissible"):
        coll(p2, (1, 0, 0), ["z0", "1", "1"])


def test_nonvanishing(p2):
    assert is_nonvanishing(coll(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"]))
    c = WeakDeltaCollection(
        p2, (1, 1, 1), (BinaryForm.zero(1), parse_form("z1"), parse_form("z0 + z1"))
    )
    assert is_nonvanishing(c)  # some cone complement avoids the zero section
    allzero = WeakDeltaCollection(p2, (1, 1, 1), (BinaryForm.zero(1),) * 3)
    assert not is_nonvanishing(allzero)


def test_nondegenerate(p2):
    assert is_nondegenerate(coll(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"]))
    assert not is_nondegenerate(coll(p2, (1, 1, 1), ["z0", "z0", "z0"]))
    allzero = WeakDeltaCollection(p2, (1, 1, 1), (BinaryForm.zero(1),) * 3)
    assert not is_nondegenerate(allzero)


def test_base_divisor(p2, p1):
    c = coll(p2, (2, 2, 2), ["z0^2", "z0*z1", "z0^2 + z0*z1"])
    assert base_divisor(c) == parse_form("z0")
    good = coll(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    assert base_divisor(good) == BinaryForm.one()
    c1 = coll(p1, (1, 1), ["z0", "z0"])
    assert base_divisor(c1) == parse_form("z0")
    allzero = WeakDeltaCollection(p2, (1, 1, 1), (BinaryForm.zero(1),) * 3)
    with pytest.raises(ValueError):
        base_divisor(allzero)


def test_nondegenerate_implies_nonvanishing(p2, p1xp1):
    rng = random.Random(4)
    for fan in (p2, p1xp1):
        for _ in range(50):
            d = _random_admissible_degree(rng, fan)
            c = _random_collection(rng, fan, d, allow_zero=True)
            if is_nondegenerate(c):
                assert is_nonvanishing(c)


def _random_admissible_degree(rng, fan):
    if fan.n_rays == 3:  # P2
        k = rng.randint(0, 2)
        return (k, k, k)
    # P1xP1 rays (1,0),(-1,0),(0,1),(0,-1): (a,a,b,b)
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    return (a, a, b, b)


def _random_collection(rng, fan, d, allow_zero=False, bound=3):
    sections = []
    for deg in d:
        if allow_zero and rng.random() < 0.2:
            sections.append(BinaryForm.zero(deg))
        else:
            sections.append(
                BinaryForm(deg, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(deg + 1)))
            )
    return WeakDeltaCollection(fan, tuple(d), tuple(sections))


def test_planted_degeneracy(p2, p1xp1, sympy_divides):
    rng = random.Random(12)
    count = 0
    for fan in (p2, p1xp1):
        while count < 100 if fan is p2 else count < 200:
            d = _random_admissible_degree(rng, fan)
            c = _random_collection(rng, fan, d)
            if not is_nondegenerate(c):
                continue
            count += 1
            ell = forms.linear_form_at((rng.randint(-3, 3), 1))
            planted = WeakDeltaCollection(
                fan,
                tuple(x + 1 for x in c.degree),
                tuple(forms.mul(u, ell) for u in c.sections),
            )
            assert not is_nondegenerate(planted)
            assert sympy_divides(ell, base_divisor(planted))
    assert count == 200


def test_base_divisor_roots_hit_irrelevant_locus(p2, p1xp1):
    rng = random.Random(21)
    for fan in (p2, p1xp1):
        pres = cox_presentation(fan)
        for _ in range(25):
            d = _random_admissible_degree(rng, fan)
            c = _random_collection(rng, fan, d)
            if not is_nonvanishing(c):
                continue
            bd = base_divisor(c)
            if bd.degree > 0:
                for point in _rational_roots(bd):
                    zs = {
                        i for i, u in enumerate(c.sections)
                        if u.is_zero or forms.evaluate(u, point) == 0
                    }
                    assert not outside_irrelevant_locus(fan, zs)
            # rational points off the base divisor stay outside V(I)
            for _ in range(10):
                point = (rng.randint(-5, 5), rng.randint(-5, 5))
                if point == (0, 0) or forms.evaluate(bd, point) == 0:
                    continue
                zs = {
                    i for i, u in enumerate(c.sections)
                    if u.is_zero or forms.evaluate(u, point) == 0
                }
                assert outside_irrelevant_locus(fan, zs)


def test_pullback_examples(p2):
    c = coll(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    ident = pullback(c, (parse_form("z0"), parse_form("z1")))
    assert ident == c
    sq = pullback(c, (parse_form("z0^2"), parse_form("z1^2")))
    assert sq.degree == (2, 2, 2)
    assert sq.sections == (
        parse_form("z0^2"),
        parse_form("z1^2"),
        parse_form("z0^2 + z1^2"),
    )
    with pytest.raises(ValueError, match="root"):
        pullback(c, (parse_form("z0^2"), parse_form("z0*z1")))


def test_pullback_preserves_nondegeneracy(p2, p1xp1):
    rng = random.Random(33)
    checked = 0
    while checked < 100:
        fan = p2 if rng.random() < 0.5 else p1xp1
        d = _random_admissible_degree(rng, fan)
        c = _random_collection(rng, fan, d)
        if not is_nondegenerate(c):
            continue
        k = rng.randint(1, 2)
        a = BinaryForm(k, tuple(Fraction(rng.randint(-3, 3)) for _ in range(k + 1)))
        b = BinaryForm(k, tuple(Fraction(rng.randint(-3, 3)) for _ in range(k + 1)))
        if a.is_zero or b.is_zero or forms.gcd([a, b]).degree != 0:
            continue
        assert is_nondegenerate(pullback(c, (a, b)))
        checked += 1


def test_isomorphic_examples(p2):
    a = coll(p2, (2, 2, 2), ["z0^2", "z1^2", "z0*z1"])
    b = scale_sections(a, (2, 2, 2))
    v = isomorphic(a, b)
    assert v.status == "isomorphic_rational"
    assert v.witness == (2, 2, 2)
    bad = scale_sections(a, (2, 2, 3))
    assert isomorphic(a, bad).status == "not_isomorphic"
    assert isomorphic(a, a).status == "isomorphic_rational"
    assert isomorphic(a, a).witness == (1, 1, 1)


def test_isomorphic_witness_relations(p2, p1xp1, f1):
    rng = random.Random(44)
    for fan in (p2, p1xp1):
        pres = cox_presentation(fan)
        for _ in range(40):
            d = _random_admissible_degree(rng, fan)
            c = _random_collection(rng, fan, d, allow_zero=True)
            g = tuple(
                Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2]))
                for _ in range(pres.pic_rank)
            )
            lam = gauge_scalars(pres.charge_matrix, g)
            c2 = scale_sections(c, lam)
            v = isomorphic(c, c2)
            assert v.status == "isomorphic_rational"
            _check_witness(fan, c, c2, v.witness)
            # symmetry
            assert isomorphic(c2, c).status == "isomorphic_rational"


def _check_witness(fan, c1, c2, lam):
    for l, u, w in zip(lam, c1.sections, c2.sections):
        assert forms.scale(u, l) == w
    for j in range(fan.dim):
        prod = Fraction(1)
        for i in range(fan.n_rays):
            prod *= Fraction(lam[i]) ** fan.rays[i][j]
        assert prod == c2.trivializations[j] / c1.trivializations[j]


def test_free_scalars_solved_rationally(p1):
    # zero sections leave both scalars free; trivialization ratio 2 on P1
    # forces lambda_0/lambda_1 = 2, solvable over Q
    c1 = WeakDeltaCollection(
        p1, (0, 0), (BinaryForm.zero(0), BinaryForm.zero(0)), trivializations=(1,)
    )
    c2 = WeakDeltaCollection(
        p1, (0, 0), (BinaryForm.zero(0), BinaryForm.zero(0)), trivializations=(2,)
    )
    v = isomorphic(c1, c2)
    assert v.status == "isomorphic_rational"
    _check_witness(p1, c1, c2, v.witness)


def test_isomorphic_over_closure():
    # rays (1,1) and (1,-1): the free-scalar system becomes
    # lambda_0*lambda_1 = nu_0, lambda_0/lambda_1 = nu_1, so
    # lambda_0^2 = nu_0*nu_1 -- a square-root obstruction over Q
    from toricglsm.fan import Fan

    fan = Fan(dim=2, rays=((1, 1), (1, -1)), max_cones=((0, 1),))
    zero = (BinaryForm.zero(0), BinaryForm.zero(0))
    c1 = WeakDeltaCollection(fan, (0, 0), zero, trivializations=(1, 1))
    c2 = WeakDeltaCollection(fan, (0, 0), zero, trivializations=(2, 1))
    assert isomorphic(c1, c2).status == "isomorphic_over_closure"
    c3 = WeakDeltaCollection(fan, (0, 0), zero, trivializations=(4, 1))
    v = isomorphic(c1, c3)
    assert v.status == "isomorphic_rational"
    _check_witness(fan, c1, c3, v.witness)


def test_isomorphic_trivialization_mismatch(p1):
    # scaling sections by (2, 1) forces lambda = (2, 1) whose pairing with
    # the ray lattice is 2, but the trivializations say 1
    base = WeakDeltaCollection(p1, (1, 1), (parse_form("z0"), parse_form("z1")))
    scaled = scale_sections(base, (2, 1))
    assert isomorphic(base, scaled).status == "not_isomorphic"
    # with matching trivializations the same scaling is a witness
    fixed = WeakDeltaCollection(
        p1,
        (1, 1),
        (parse_form("2*z0"), parse_form("z1")),
        trivializations=(2,),
    )
    assert isomorphic(base, fixed).status == "isomorphic_rational"


def test_shape_mismatch_rejected(p2, p1xp1):
    a = coll(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    b = coll(p1xp1, (1, 1, 0, 0), ["z0", "z1", "1", "1"])
    with pytest.raises(ValueError):
        isomorphic(a, b)


def test_isomorphic_rejects_a_different_degree_or_fan(p1):
    # each call differs from a valid pair in one input only
    low = coll(p1, (1, 1), ["z0", "z1"])
    high = coll(p1, (2, 2), ["z0^2", "z1^2"])
    with pytest.raises(ValueError):
        isomorphic(low, high)
    sections = ["z0", "z1", "z0", "z1"]
    f0 = coll(catalog.by_name("F0"), (1, 1, 1, 1), sections)
    p1xp1 = coll(catalog.by_name("P1xP1"), (1, 1, 1, 1), sections)
    with pytest.raises(ValueError):
        isomorphic(f0, p1xp1)


def test_free_scalar_roots_of_fractions_and_negatives():
    # F2, d = (1, 0, 1, 2), zero sections at rays 0 and 2: the free scalars
    # need a square root of the trivialization ratio, 1/4 (rational) or
    # -1/4 (only over the closure)
    f2 = catalog.by_name("F2")
    sections = (BinaryForm.zero(1), parse_form("1"), BinaryForm.zero(1),
                parse_form("z0^2 + z1^2"))

    def with_triv(t):
        return WeakDeltaCollection(f2, (1, 0, 1, 2), sections, trivializations=t)

    base = with_triv((1, 1))
    quarter = with_triv((1, Fraction(1, 4)))
    v = isomorphic(base, quarter)
    assert v.status == "isomorphic_rational"
    assert v.witness == (Fraction(1, 2), 1, Fraction(1, 2), 1)
    _check_witness(f2, base, quarter, v.witness)
    assert isomorphic(base, with_triv((1, Fraction(-1, 4)))).status == "isomorphic_over_closure"


def test_excluded_locus_bridge(p2, p1xp1):
    rng = random.Random(55)
    for fan in (p2, p1xp1):
        for _ in range(50):
            d = _random_admissible_degree(rng, fan)
            c = _random_collection(rng, fan, d, allow_zero=True)
            assert moduli.in_excluded_locus(c) == (not is_nonvanishing(c))


def _product(f, g):
    rays = [r + (0,) * g.dim for r in f.rays] + [(0,) * f.dim + r for r in g.rays]
    cones = [a + tuple(f.n_rays + i for i in b) for a in f.max_cones for b in g.max_cones]
    return Fan(dim=f.dim + g.dim, rays=tuple(rays), max_cones=tuple(cones))


# dP7: its five primitive collections {0,2}, {0,3}, {1,3}, {1,4}, {2,4} overlap
_PENTAGON = Fan(2, ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)),
                ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))


def _comparison_fans():
    p1, p2 = catalog.by_name("P1"), catalog.by_name("P2")
    return [catalog.by_name(n) for n in catalog.GOLDEN_NAMES] + [
        _product(p2, p2), _product(_product(p1, p1), p2), _PENTAGON]


def _seeded_collections(rng, fan, count):
    """Collections whose sections are zero, random, or products of linear
    forms at points of a small pool; in half of them every nonzero product
    has the root p0, a planted shared root."""
    degrees = [d for d in itertools.product(range(3), repeat=fan.n_rays)
               if any(d) and admissible(fan, d)]
    pool = [(1, 0), (0, 1), (1, 1), (2, -1)]
    out = []
    for _ in range(count):
        planted = rng.random() < 0.5
        p0 = rng.choice(pool)
        sections = []
        for deg in rng.choice(degrees):
            kind = rng.random()
            if kind < 0.15:
                u = BinaryForm.zero(deg)
            elif planted or kind < 0.6:
                u = BinaryForm(0, (Fraction(rng.choice((1, -2, 3))),))
                for k in range(deg):
                    u = forms.mul(u, forms.linear_form_at(p0 if planted and k == 0 else rng.choice(pool)))
            else:
                u = BinaryForm(deg, tuple(Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)))
            sections.append(u)
        out.append(WeakDeltaCollection(fan, tuple(u.degree for u in sections), tuple(sections)))
    return out


def _p16_collections():
    """P16 has 17 rays, one more than the primitive-collection search takes."""
    p16 = catalog.projective_space(16)
    distinct = tuple(forms.linear_form_at((i, 1)) for i in range(17))
    shared = tuple(forms.scale(forms.linear_form_at((1, 1)), i + 1) for i in range(17))
    return [WeakDeltaCollection(p16, (1,) * 17, u) for u in (distinct, shared)]


def test_nondegenerate_matches_cone_product_route():
    rng = random.Random(25)
    for fan in _comparison_fans():
        answers = []
        for c in _seeded_collections(rng, fan, 60):
            want = is_nonvanishing(c) and base_divisor(c).degree == 0
            assert is_nondegenerate(c) == want
            answers.append(want)
        assert True in answers and False in answers, fan


def test_nondegenerate_above_the_primitive_collection_cap():
    distinct, shared = _p16_collections()
    with pytest.raises(ValueError, match="limited to 16 rays"):
        primitive_collections(distinct.fan)
    assert is_nondegenerate(distinct)
    assert not is_nondegenerate(shared)


def test_cli_delta_check_nondegenerate_matches(capsys, tmp_path):
    rng = random.Random(26)
    path = tmp_path / "collection.json"
    inputs = [c for fan in _comparison_fans() for c in _seeded_collections(rng, fan, 15)]
    for c in inputs + _p16_collections():
        path.write_text(json.dumps(jsonio.collection_to_dict(c)))
        assert main(["delta-check", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert bool(payload["nondegenerate"]) == is_nondegenerate(c)
        assert (payload["nondegenerate"] is None) == (not payload["nonvanishing"])
