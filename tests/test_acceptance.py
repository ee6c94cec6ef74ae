"""End-to-end acceptance gate.

Each test checks one advertised guarantee of the package and prints a
single pass/fail line directly to the terminal (bypassing capture) so the
gate's verdict is readable from any pytest invocation.
"""

import json
import math
import random
from fractions import Fraction

from toricglsm import forms, glsm, jsonio, moduli
from toricglsm.catalog import GOLDEN_NAMES, by_name, projective_space
from toricglsm.collapse import (
    Attachment,
    GenusZeroStableMapData,
    collapse,
    reparametrize_collection,
    reparametrize_data,
)
from toricglsm.cox import cox_presentation, outside_irrelevant_locus, primitive_collections
from toricglsm.delta import (
    WeakDeltaCollection,
    gauge_scalars,
    is_nondegenerate,
    is_nonvanishing,
    isomorphic,
    scale_sections,
)
from toricglsm.forms import BinaryForm, Mobius, parse_form
from toricglsm.lattice import IntMatrix, smith_normal_form

_PC_REFERENCE = {
    "P1": {(0, 1)},
    "P2": {(0, 1, 2)},
    "P3": {(0, 1, 2, 3)},
    "P4": {(0, 1, 2, 3, 4)},
    "P1xP1": {(0, 1), (2, 3)},
    "F0": {(0, 2), (1, 3)},
    "F1": {(0, 2), (1, 3)},
    "F2": {(0, 2), (1, 3)},
}


import pytest


@pytest.fixture(autouse=True)
def _terminal(capfd):
    # pytest captures at the file-descriptor level; stash the fixture so
    # _report can momentarily lift capture and print to the real terminal
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with _CAPFD.disabled():
        print(line, flush=True)
    assert ok, line


def _admissible_degree(rng, fan, lo=0, hi=2):
    # golden 2d fans used below: P2 needs equal entries; the quadrilateral
    # fans need entries constant on opposite-ray pairs (F0/P1xP1 layout)
    if fan.n_rays == 3:
        k = rng.randint(lo, hi)
        return (k, k, k)
    a, b = rng.randint(lo, hi), rng.randint(lo, hi)
    if fan.name in ("P1xP1",):
        return (a, a, b, b)
    return (a, b, a, b)  # F0 ray order (1,0),(0,1),(-1,0),(0,-1)


def _random_sections(rng, degrees, bound=4, allow_zero=False, zero_rate=0.25):
    out = []
    for k in degrees:
        if allow_zero and rng.random() < zero_rate:
            out.append(BinaryForm.zero(k))
            continue
        while True:
            f = BinaryForm(
                k, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(k + 1))
            )
            if not f.is_zero:
                break
        out.append(f)
    return tuple(out)


def test_criterion_1_cox_golden_suite():
    ok = True
    detail = []
    for name in GOLDEN_NAMES:
        f = by_name(name)
        pres = cox_presentation(f)
        if pres.pic_rank != f.n_rays - f.dim:
            ok, _ = False, detail.append(f"{name}: pic_rank")
        Q, B = pres.charge_matrix, pres.ray_matrix
        if (Q @ B) != IntMatrix.zero(Q.rows, B.cols):
            ok, _ = False, detail.append(f"{name}: QB != 0")
        diag = smith_normal_form(Q).diagonal()
        if any(d != 1 for d in diag[: Q.rows]):
            ok, _ = False, detail.append(f"{name}: SNF(Q)")
        if set(pres.primitive_collections) != _PC_REFERENCE[name]:
            ok, _ = False, detail.append(f"{name}: primitive collections")
    _report(1, ok, f"Cox golden suite over {len(GOLDEN_NAMES)} fans"
            + ("" if ok else "; " + ", ".join(detail)))


def test_criterion_2_dimension_formula():
    bad = []
    for n in range(1, 5):
        f = projective_space(n)
        for k in range(0, 6):
            s = moduli.summarize(f, (k,) * (n + 1))
            if s.w_dim != (n + 1) * (k + 1) - 1:
                bad.append((n, k))
    _report(2, not bad, f"w_dim formula on P^n, n<=4, k<=5; mismatches: {bad}")


def test_criterion_3_nondegeneracy_decision():
    rng = random.Random(2026)
    fans = [by_name("P2"), by_name("P1xP1")]
    planted_found = 0
    eval_contradictions = 0
    clean = 0
    while planted_found + 0 < 200:
        fan = fans[planted_found % 2]
        d = _admissible_degree(rng, fan, lo=0, hi=2)
        c = WeakDeltaCollection(fan, d, _random_sections(rng, d))
        if not is_nondegenerate(c):
            continue
        # plant a common linear factor and require detection
        ell = forms.linear_form_at((rng.randint(-3, 3), 1))
        planted = WeakDeltaCollection(
            fan,
            tuple(x + 1 for x in d),
            tuple(forms.mul(u, ell) for u in c.sections),
        )
        if not is_nondegenerate(planted):
            planted_found += 1
        # planted-free sample: 50-point evaluation cross-check
        if clean < 20:
            clean += 1
            pres = cox_presentation(fan)
            pts = 0
            while pts < 50:
                p = (rng.randint(-6, 6), rng.randint(-6, 6))
                if p == (0, 0):
                    continue
                pts += 1
                zs = {
                    i for i, u in enumerate(c.sections)
                    if u.is_zero or forms.evaluate(u, p) == 0
                }
                if not outside_irrelevant_locus(fan, zs):
                    eval_contradictions += 1
    ok = planted_found == 200 and eval_contradictions == 0
    _report(
        3,
        ok,
        f"planted degeneracies detected {planted_found}/200, "
        f"evaluation contradictions {eval_contradictions}/{clean * 50}",
    )


def test_criterion_4_excluded_locus_bridge():
    rng = random.Random(404)
    fans = [by_name("P2"), by_name("P1xP1"), by_name("F0")]
    mismatches = 0
    zero_cases = 0
    for i in range(500):
        fan = fans[i % 3]
        d = _admissible_degree(rng, fan, lo=0, hi=2)
        sections = _random_sections(rng, d, allow_zero=True)
        if any(u.is_zero for u in sections):
            zero_cases += 1
        c = WeakDeltaCollection(fan, d, sections)
        if moduli.in_excluded_locus(c) != (not is_nonvanishing(c)):
            mismatches += 1
    ok = mismatches == 0 and zero_cases > 0
    _report(
        4, ok, f"excluded-locus bridge on 500 inputs ({zero_cases} with zero "
        f"sections), mismatches {mismatches}"
    )


def test_criterion_5_collapse():
    issues = []
    p1, p2 = by_name("P1"), by_name("P2")

    # identity case: output JSON byte-equal to the input collection
    main = WeakDeltaCollection(p2, (1, 1, 1),
                               (parse_form("z0"), parse_form("z1"), parse_form("z0 + z1")))
    res = collapse(GenusZeroStableMapData(main=main))
    before = json.dumps(jsonio.collection_to_dict(main), sort_keys=True)
    after = json.dumps(jsonio.collection_to_dict(res.collection), sort_keys=True)
    if before != after:
        issues.append("identity case not byte-equal")

    # degree additivity, 200 seeded instances
    rng = random.Random(505)
    fans = [p2, by_name("P1xP1")]
    for i in range(200):
        fan = fans[i % 2]
        while True:
            d = _admissible_degree(rng, fan, lo=1, hi=2)
            c = WeakDeltaCollection(fan, d, _random_sections(rng, d))
            if is_nondegenerate(c):
                break
        atts = []
        used = []
        for _ in range(rng.randint(1, 3)):
            while True:
                pt = (rng.randint(-4, 4), rng.randint(-4, 4))
                if pt != (0, 0) and all(pt[0] * q[1] - pt[1] * q[0] != 0 for q in used):
                    break
            used.append(pt)
            atts.append(Attachment(pt, _admissible_degree(rng, fan, lo=1, hi=2)))
        out = collapse(GenusZeroStableMapData(main=c, attachments=tuple(atts)))
        expect = tuple(
            c.degree[r] + sum(a.degree[r] for a in atts) for r in range(fan.n_rays)
        )
        if out.total_degree != expect:
            issues.append(f"additivity instance {i}")
            break

    # Moebius equivariance, 50 seeded pairs, exact
    rng = random.Random(606)
    for i in range(50):
        fan = fans[i % 2]
        while True:
            d = _admissible_degree(rng, fan, lo=1, hi=2)
            c = WeakDeltaCollection(fan, d, _random_sections(rng, d))
            if is_nondegenerate(c):
                break
        data = GenusZeroStableMapData(
            main=c,
            attachments=(Attachment((rng.randint(-3, 3), rng.randint(1, 3)),
                                    _admissible_degree(rng, fan, lo=1, hi=1)),),
        )
        while True:
            e = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            if e[0] * e[3] - e[1] * e[2] != 0:
                break
        g = Mobius(*e)
        lhs = reparametrize_collection(collapse(data).collection, g)
        rhs = collapse(reparametrize_data(data, g)).collection
        if lhs.sections != rhs.sections:
            issues.append(f"equivariance pair {i}")
            break

    # worked cases: attachment points are roots of the output base divisor
    from toricglsm.delta import base_divisor

    cases = [
        (GenusZeroStableMapData(
            main=WeakDeltaCollection(p1, (1, 1), (parse_form("z0"), parse_form("z1"))),
            attachments=(Attachment((1, 0), (2, 2)),)), [(1, 0)]),
        (GenusZeroStableMapData(
            main=main, attachments=(Attachment((0, 1), (1, 1, 1)),)), [(0, 1)]),
    ]
    for data, pts in cases:
        bd = base_divisor(collapse(data).collection)
        for p in pts:
            if forms.evaluate(bd, p) != 0:
                issues.append(f"base divisor misses attachment point {p}")
    _report(5, not issues, "collapse identity/additivity(200)/equivariance(50)/"
            "base-divisor checks" + ("" if not issues else "; " + "; ".join(issues)))


def test_criterion_6_gauge_orbit():
    rng = random.Random(707)
    fans = [by_name(n) for n in ("P2", "P1xP1", "F0")]
    bad = 0
    for i in range(200):
        fan = fans[i % 3]
        pres = cox_presentation(fan)
        d = _admissible_degree(rng, fan, lo=0, hi=2)
        # all-nonzero sections pin every scalar, so an out-of-G perturbation
        # cannot hide in an unconstrained coordinate
        c = WeakDeltaCollection(fan, d, _random_sections(rng, d))
        g = tuple(
            Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
            for _ in range(pres.pic_rank)
        )
        lam = gauge_scalars(pres.charge_matrix, g)
        c2 = scale_sections(c, lam)
        v = isomorphic(c, c2)
        if v.status != "isomorphic_rational":
            bad += 1
            continue
        # verify the witness: sections scale and trivializations match
        w = v.witness
        if any(forms.scale(u, x) != u2 for x, u, u2 in zip(w, c.sections, c2.sections)):
            bad += 1
            continue
        for j in range(fan.dim):
            prod = Fraction(1)
            for r in range(fan.n_rays):
                prod *= Fraction(w[r]) ** fan.rays[r][j]
            if prod != 1:
                bad += 1
                break
        # perturb one section's scalar outside G
        k = rng.randrange(fan.n_rays)
        mu = [Fraction(1)] * fan.n_rays
        mu[k] = Fraction(2)
        c3 = scale_sections(c2, mu)
        if isomorphic(c, c3).status != "not_isomorphic":
            bad += 1
    _report(6, bad == 0, f"gauge-orbit verdicts with verified witnesses on 200 pairs, "
            f"failures {bad}")


def test_criterion_7_kempf_ness():
    issues = []
    p2 = cox_presentation(by_name("P2"))
    sign = p2.charge_matrix.at(0, 0)
    prob = glsm.GLSMProblem(charges=p2.charge_matrix, fi=(sign,), amplitudes=(1, 1, 1))
    rep = glsm.kempf_ness_solve(prob, tol=1e-10)
    if rep.status != "Converged" or abs(sign * rep.t[0] + 0.5 * math.log(3)) >= 1e-9:
        issues.append("closed-form case")

    # gradient vs central finite difference, 100 seeded points
    rng = random.Random(808)
    charge_mats = [cox_presentation(by_name(n)).charge_matrix
                   for n in ("P2", "P1xP1", "F1")]
    fd_bad = 0
    for i in range(100):
        Q = charge_mats[i % 3]
        k, r = Q.rows, Q.cols
        s = [rng.randint(1, 5) for _ in range(r)]
        fi = [rng.randint(-3, 3) for _ in range(k)]
        t = [rng.uniform(-0.5, 0.5) for _ in range(k)]

        def f(tv):
            return sum(
                s[j] * math.exp(2 * sum(Q.at(a, j) * tv[a] for a in range(k)))
                for j in range(r)
            ) - 2 * sum(fi[a] * tv[a] for a in range(k))

        h = 1e-6
        for a in range(k):
            tp, tm = list(t), list(t)
            tp[a] += h
            tm[a] -= h
            fd = (f(tp) - f(tm)) / (2 * h)
            grad = 2 * (sum(
                Q.at(a, j) * s[j]
                * math.exp(2 * sum(Q.at(b, j) * t[b] for b in range(k)))
                for j in range(r)) - fi[a])
            if abs(fd - grad) > 1e-5 * max(1.0, abs(grad)):
                fd_bad += 1
    if fd_bad:
        issues.append(f"finite-difference mismatches: {fd_bad}")

    # solver verdict vs exact LP oracle, 1000 seeded instances
    rng = random.Random(909)
    disagreements = 0
    residual_bad = 0
    tol = 1e-8
    for i in range(1000):
        Q = charge_mats[i % 3]
        fi = tuple(Fraction(rng.randint(-3, 3)) for _ in range(Q.rows))
        amps = tuple(Fraction(rng.randint(0, 3)) for _ in range(Q.cols))
        p = glsm.GLSMProblem(charges=Q, fi=fi, amplitudes=amps)
        verdict = glsm.semistable(Q, p.support, fi)
        rep = glsm.kempf_ness_solve(p, tol=tol, max_iter=300)
        if (verdict == glsm.INTERIOR_STABLE) != (rep.status == "Converged"):
            disagreements += 1
            continue
        if rep.status == "Converged":
            # moment-map residual at the minimizer
            sfloat = [
                float(a) * math.exp(2 * sum(Q.at(b, j) * rep.t[b] for b in range(Q.rows)))
                for j, a in enumerate(p.amplitudes)
            ]
            for b in range(Q.rows):
                resid = sum(Q.at(b, j) * sfloat[j] for j in range(Q.cols)) - float(fi[b])
                if abs(resid) >= tol:
                    residual_bad += 1
                    break
    if disagreements:
        issues.append(f"oracle disagreements: {disagreements}/1000")
    if residual_bad:
        issues.append(f"residual violations: {residual_bad}")
    _report(7, not issues, "Kempf-Ness closed form, 100 FD gradient checks, "
            "1000-instance oracle agreement"
            + ("" if not issues else "; " + "; ".join(issues)))


def test_criterion_8_phase_fan_consistency():
    import itertools

    bad = []
    for name in GOLDEN_NAMES:
        fan = by_name(name)
        pres = cox_presentation(fan)
        kahler = None
        for a in itertools.product(range(-3, 4), repeat=pres.pic_rank):
            if glsm.kahler_cone_contains(fan, pres, a):
                kahler = a
                break
        if kahler is None:
            bad.append(f"{name}: no Kaehler class in search box")
            continue
        got = set(glsm.unstable_supports(pres.charge_matrix, kahler))
        if got != set(primitive_collections(fan)):
            bad.append(f"{name}: {sorted(got)}")
    _report(8, not bad, f"unstable supports equal primitive collections on "
            f"{len(GOLDEN_NAMES)} golden fans"
            + ("" if not bad else "; " + "; ".join(bad)))
