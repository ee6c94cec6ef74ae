import random
from fractions import Fraction

import pytest

from toricglsm import forms
from toricglsm.collapse import (
    Attachment,
    CollapseResult,
    GenusZeroStableMapData,
    collapse,
    reparametrize_collection,
    reparametrize_data,
    validate,
)
from toricglsm.delta import WeakDeltaCollection, is_nondegenerate
from toricglsm.forms import BinaryForm, Mobius, parse_form


def mk(fan, degrees, sections):
    return WeakDeltaCollection(
        fan=fan,
        degree=tuple(degrees),
        sections=tuple(parse_form(s, expected_degree=d) for s, d in zip(sections, degrees)),
    )


def test_collapse_p1_example(p1):
    main = mk(p1, (1, 1), ["z0", "z1"])
    data = GenusZeroStableMapData(
        main=main, attachments=(Attachment(point=(1, 0), degree=(2, 2)),)
    )
    res = collapse(data)
    assert res.total_degree == (3, 3)
    # l_{[1:0]} = -z1; squared, the sign cancels
    assert res.collection.sections == (parse_form("z0*z1^2"), parse_form("z1^3"))


def test_collapse_no_attachments_is_identity(p2):
    main = mk(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    res = collapse(GenusZeroStableMapData(main=main))
    assert res.collection == main
    assert res.total_degree == main.degree


def test_collapse_p2_example(p2):
    main = mk(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    data = GenusZeroStableMapData(
        main=main, attachments=(Attachment(point=(0, 1), degree=(1, 1, 1)),)
    )
    res = collapse(data)
    # l_{[0:1]} = z0
    assert res.total_degree == (2, 2, 2)
    assert res.collection.sections == (
        parse_form("z0^2"),
        parse_form("z0*z1"),
        parse_form("z0^2 + z0*z1"),
    )
    # the image of the collapsed map acquires a base point at [0:1]
    assert not is_nondegenerate(res.collection)


def test_validate_reports(p2, f1):
    good = mk(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    assert validate(GenusZeroStableMapData(main=good)).ok

    degen = mk(p2, (1, 1, 1), ["z0", "z0", "z0"])
    rep = validate(GenusZeroStableMapData(main=degen))
    assert any("degenerate" in i for i in rep.issues)

    bad_deg = GenusZeroStableMapData(
        main=good, attachments=(Attachment((1, 1), (1, 0, 0)),)
    )
    assert any("inadmissible" in i for i in validate(bad_deg).issues)

    neg = GenusZeroStableMapData(
        main=good, attachments=(Attachment((1, 1), (-1, -1, -1)),)
    )
    assert any("negative" in i for i in validate(neg).issues)

    zero = GenusZeroStableMapData(
        main=good, attachments=(Attachment((1, 1), (0, 0, 0)),)
    )
    assert any("zero subtree" in i for i in validate(zero).issues)

    shared = GenusZeroStableMapData(
        main=good,
        attachments=(
            Attachment((1, 1), (1, 1, 1)),
            Attachment((2, 2), (1, 1, 1)),  # same projective point
        ),
    )
    assert any("share a point" in i for i in validate(shared).issues)

    # F1 fails the nef proxy, so effectivity of subtree degrees is not certified
    f1_main = mk(f1, (1, 0, 1, 1), ["z0", "1", "z1", "z0 + z1"])
    rep = validate(GenusZeroStableMapData(main=f1_main))
    assert any("nef" in i for i in rep.issues)


def test_collapse_rejects_invalid(p2):
    degen = mk(p2, (1, 1, 1), ["z0", "z0", "z0"])
    with pytest.raises(ValueError, match="invalid stable-map data"):
        collapse(GenusZeroStableMapData(main=degen))


def test_attachment_point_validation():
    with pytest.raises(ValueError):
        Attachment((0, 0), (1, 1, 1))


def test_degree_additivity(p2, p1xp1, sympy_divides):
    rng = random.Random(61)
    for _ in range(60):
        fan = p2 if rng.random() < 0.5 else p1xp1
        main = _random_nondegenerate(rng, fan)
        atts = []
        used = []
        for _ in range(rng.randint(1, 3)):
            while True:
                pt = (rng.randint(-4, 4), rng.randint(-4, 4))
                if pt != (0, 0) and not any(
                    pt[0] * q[1] - pt[1] * q[0] == 0 for q in used
                ):
                    break
            used.append(pt)
            atts.append(Attachment(pt, _random_subtree_degree(rng, fan)))
        res = collapse(GenusZeroStableMapData(main=main, attachments=tuple(atts)))
        for rho in range(fan.n_rays):
            assert res.total_degree[rho] == main.degree[rho] + sum(
                a.degree[rho] for a in atts
            )
            assert res.collection.sections[rho].degree == res.total_degree[rho]
        # each attachment point divides the output with at least its multiplicity
        for a in atts:
            ell = forms.linear_form_at(a.point)
            for rho in range(fan.n_rays):
                power = BinaryForm.one()
                for _ in range(a.degree[rho]):
                    power = forms.mul(power, ell)
                assert sympy_divides(power, res.collection.sections[rho])


def _random_nondegenerate(rng, fan):
    if fan.n_rays == 3:
        degs = [(1, 1, 1), (2, 2, 2)]
    else:
        degs = [(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 1, 1)]
    d = rng.choice(degs)
    while True:
        sections = tuple(
            BinaryForm(k, tuple(Fraction(rng.randint(-4, 4)) for _ in range(k + 1)))
            for k in d
        )
        try:
            c = WeakDeltaCollection(fan, d, sections)
        except ValueError:
            continue
        if is_nondegenerate(c):
            return c


def _random_subtree_degree(rng, fan):
    if fan.n_rays == 3:
        k = rng.randint(1, 2)
        return (k, k, k)
    a, b = rng.randint(0, 2), rng.randint(0, 2)
    if a == b == 0:
        a = 1
    return (a, a, b, b)


def test_equivariance(p2, p1xp1):
    rng = random.Random(77)
    for _ in range(40):
        fan = p2 if rng.random() < 0.5 else p1xp1
        main = _random_nondegenerate(rng, fan)
        pt = (rng.randint(-3, 3), rng.randint(1, 3))
        data = GenusZeroStableMapData(
            main=main,
            attachments=(Attachment(pt, _random_subtree_degree(rng, fan)),),
        )
        while True:
            entries = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        g = Mobius(*entries)
        lhs = reparametrize_collection(collapse(data).collection, g)
        rhs = collapse(reparametrize_data(data, g)).collection
        assert lhs.sections == rhs.sections  # exact, coefficient for coefficient


def test_equivariance_non_unimodular(p1):
    main = mk(p1, (1, 1), ["z0 + z1", "z0 - z1"])
    data = GenusZeroStableMapData(
        main=main, attachments=(Attachment((1, 2), (1, 1)),)
    )
    g = Mobius(1, 2, Fraction(3, 2), 4)
    lhs = reparametrize_collection(collapse(data).collection, g)
    rhs = collapse(reparametrize_data(data, g)).collection
    assert lhs.sections == rhs.sections


def test_reparametrize_identity_and_swap(p2):
    main = mk(p2, (1, 1, 1), ["z0", "z1", "z0 + z1"])
    data = GenusZeroStableMapData(
        main=main, attachments=(Attachment((1, 2), (1, 1, 1)),)
    )
    ident = Mobius(1, 0, 0, 1)
    assert reparametrize_data(data, ident) == data
    swap = Mobius(0, 1, 1, 0)
    swapped = reparametrize_data(data, swap)
    # adjugate of swap is (-d, b; c, -a) applied as adj(g) p = (-2, -1)
    p = swapped.attachments[0].point
    assert p[0] * 2 - p[1] * 1 != 0  # moved off the original point
    assert reparametrize_data(swapped, swap).main.sections == data.main.sections
