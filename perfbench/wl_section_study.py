"""section_study: many section-collection ops on a few fans.

Every op builds its collections from plain data, so each one re-runs the
package's per-collection fan validation: this is where validating a fan
once would show.  The work is in delta, forms, moduli and collapse; glsm
stays idle.  Expected answers are known by construction: sections are
products of linear forms at known points (base divisors follow from root
multiplicities), isomorphic copies are scaled by known witnesses, and F2
collapse is a deliberate rejection.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import oracle

_KINDS = ("sample", "planted", "iso_rational", "iso_perturbed", "pullback", "collapse")
_PLAN = {
    "P2": _KINDS,
    "P1xP1": _KINDS,
    "F1": _KINDS[:5],  # F1 fails the nef proxy, so collapse would be refused
    "P3": _KINDS,
    "P2xP2": _KINDS,
    "P5": _KINDS,
    # none of the six fans above has a ray subset of lattice index > 1, so
    # an isomorphism needing an irrational root is drawn on F2
    "F2": ("iso_closure", "iso_closure", "collapse_reject"),
}
_CYCLE = []
for _i in range(max(len(k) for k in _PLAN.values())):
    _CYCLE += [(name, kinds[_i]) for name, kinds in _PLAN.items() if _i < len(kinds)]
CYCLES_PER_20S = 2.5

_POOL = sorted(
    {oracle.point_key((a, b)) for a in range(-6, 7) for b in range(0, 7) if (a, b) != (0, 0)}
)


def n_ops(seconds):
    return max(11, round(len(_CYCLE) * CYCLES_PER_20S * seconds / 20))


def _degree(rng, q):
    """Nonnegative admissible degree: a combination of the (nonnegative)
    charge rows with coefficients in {0, 1}, not all zero."""
    while True:
        c = [rng.randint(0, 1) for _ in q]
        if any(c):
            return _combine(q, c)


def _combine(q, c):
    return tuple(sum(ci * row[i] for ci, row in zip(c, q)) for i in range(len(q[0])))


def _rat(rng):
    return Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))


def _random_form(rng, d, bound=3):
    while True:
        f = [Fraction(rng.randint(-bound, bound)) for _ in range(d + 1)]
        if any(f):
            return f


def _factored(rng, points):
    """Sections c_rho * prod of l_p over the given point lists."""
    return [oracle.from_points(_rat(rng), pts) for pts in points]


def _distinct_points(rng, d):
    pts = rng.sample(_POOL, sum(d))
    out, k = [], 0
    for x in d:
        out.append(pts[k:k + x])
        k += x
    return out


def _iso_copy(rng, rays, u, t):
    """Scale sections by random nonzero lambda and move the trivializations
    so that lambda is a witness."""
    lam = [_rat(rng) for _ in rays]
    u2 = [[lam[i] * c for c in f] for i, f in enumerate(u)]
    t2 = list(t)
    for j in range(len(t)):
        for i, r in enumerate(rays):
            t2[j] *= lam[i] ** r[j]
    return u2, t2


def _op(name, kind, rng):
    rays, cones, q = oracle.family(name)
    op = {"fan": name, "kind": kind, "rays": rays, "cones": cones}
    # degrees, cover degrees and attachment degrees depend on the fan only,
    # so that every seed's list costs about the same
    d = _combine(q, [1] * len(q))
    t = [_rat(rng) for _ in rays[0]]
    op.update(d=d, t=t)
    if kind == "sample":
        op.update(seed=rng.randrange(10**6), bound=3)
    elif kind == "planted":
        p0 = rng.choice(_POOL)
        rest = [x for x in _POOL if x != p0]
        pts = [([p0] if x else []) + [rng.choice(rest) for _ in range(x - 1)] for x in d]
        op.update(points=pts, u=_factored(rng, pts))
    elif kind in ("iso_rational", "iso_perturbed"):
        u = [_random_form(rng, x) for x in d]
        u2, t2 = _iso_copy(rng, rays, u, t)
        if kind == "iso_perturbed":
            i = next(i for i, x in enumerate(d) if x >= 1)
            first = next(k for k, c in enumerate(u[i]) if c)
            k = next((k for k, c in enumerate(u[i]) if c == 0), None)
            u2[i][first + 1 if k is None else k] += 1
        op.update(u=u, u2=u2, t2=t2)
    elif kind == "iso_closure":
        # F2 with zero sections on rays 0 and 2: the free scalars satisfy
        # x0 / x2 = nu0 and x2^2 = nu1, rational iff nu1 is a rational square
        u = [_random_form(rng, x) if i in (1, 3) else [Fraction(0)] * (x + 1)
             for i, x in enumerate(d)]
        u2, _ = _iso_copy(rng, rays, u, t)
        for i in (0, 2):
            u2[i] = list(u[i])
        nu1 = rng.choice((Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-1),
                          Fraction(4), Fraction(9, 4), Fraction(1, 25)))
        nu0 = _rat(rng)
        t2 = _free_targets(rays, u, u2, t, (nu0, nu1))
        square = nu1 > 0 and all(
            math.isqrt(x) ** 2 == x for x in (nu1.numerator, nu1.denominator)
        )
        op.update(u=u, u2=u2, t2=t2,
                  expect="isomorphic_rational" if square else "isomorphic_over_closure")
    elif kind in ("pullback", "collapse", "collapse_reject"):
        pts = _distinct_points(rng, d)
        op.update(points=pts, u=_factored(rng, pts))
        if kind == "pullback":
            k = 3 if name in ("P2", "F1") else 2
            cover = rng.sample([p for p in _POOL if p not in sum(pts, [])], 2 * k)
            op.update(cover=(cover[:k], cover[k:]))
        else:
            op["reject"] = kind == "collapse_reject"
            used = set(sum(pts, []))
            att_pts = rng.sample([p for p in _POOL if p not in used], 1)
            op.update(atts=[(p, _combine(q, [1] + [0] * (len(q) - 1))) for p in att_pts],
                      mobius=_mobius(rng))
    return op


def _free_targets(rays, u, u2, t, nu):
    """Trivializations of the copy on F2 such that the residual system on
    the zero sections (rays 0 and 2) has right-hand side nu."""
    lam = []
    for f, g in zip(u, u2):
        k = next((k for k, c in enumerate(f) if c), None)
        lam.append(None if k is None else g[k] / f[k])
    out = []
    for j in range(2):
        x = t[j] * nu[j]
        for i, r in enumerate(rays):
            if lam[i] is not None:
                x *= lam[i] ** r[j]
        out.append(x)
    return out


def _mobius(rng):
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c:
            return (a, b, c, d)


def generate(seed, n):
    rng = random.Random(f"section_study:{seed}")
    return [_op(*_CYCLE[i % len(_CYCLE)], rng) for i in range(n)]


def warmup(seed):
    # seeds of the timed list come from a different stream
    return _op("P2", "planted", random.Random(f"section_study-warmup:{seed}"))


def summary(op):
    return f"{op['kind']} on {op['fan']} d={list(op['d'])}"


def _fan(tg, op):
    return tg.fan.Fan(dim=len(op["rays"][0]), rays=op["rays"], max_cones=op["cones"],
                      name=op["fan"])


def _coll(tg, f, d, u, t):
    forms = tuple(tg.forms.BinaryForm(x, tuple(c)) for x, c in zip(d, u))
    return tg.delta.WeakDeltaCollection(fan=f, degree=d, sections=forms, trivializations=t)


def _coeffs(c):
    return [list(u.coefficients) for u in c.sections]


def run(tg, op):
    f, kind, d = _fan(tg, op), op["kind"], op["d"]
    if kind == "sample":
        c = tg.moduli.sample(f, d, op["seed"], op["bound"])
        return {"degree": c.degree, "u": _coeffs(c), "nondeg": tg.delta.is_nondegenerate(c)}
    c = _coll(tg, f, d, op["u"], op["t"])
    if kind == "planted":
        nd = tg.delta.is_nondegenerate(c)
        return {"nondeg": nd, "base": list(tg.delta.base_divisor(c).coefficients)}
    if kind.startswith("iso"):
        c2 = _coll(tg, f, d, op["u2"], op["t2"])
        v = tg.delta.isomorphic(c, c2)
        return {"status": v.status, "witness": v.witness}
    if kind == "pullback":
        a, b = (tg.forms.BinaryForm(len(p), tuple(oracle.from_points(1, p))) for p in op["cover"])
        pb = tg.delta.pullback(c, (a, b))
        return {"degree": pb.degree, "nondeg": tg.delta.is_nondegenerate(pb)}
    data = tg.collapse.GenusZeroStableMapData(
        main=c, attachments=tuple(tg.collapse.Attachment(point=p, degree=e) for p, e in op["atts"])
    )
    res = tg.collapse.collapse(data)
    return {"total": res.total_degree, "u": _coeffs(res.collection), "data": data,
            "collection": res.collection}


def check(op, ans, tg):
    kind, rays, cones, d = op["kind"], op["rays"], op["cones"], op["d"]
    n = len(rays)
    if kind == "sample":
        if ans["degree"] != d or any(len(u) != x + 1 for u, x in zip(ans["u"], d)):
            return "sampled degrees differ from the request"
        if any(c.denominator != 1 or abs(c) > op["bound"] for u in ans["u"] for c in u):
            return "sampled coefficient outside the bound"
        if not oracle.nonvanishing(cones, n, ans["u"]):
            return "sample lies in the excluded locus"
        nd = oracle.gcd_degree(oracle.cone_products(cones, n, ans["u"])) == 0
        return None if ans["nondeg"] == nd else f"is_nondegenerate says {ans['nondeg']}"
    if kind == "planted":
        roots = oracle.base_points(cones, n, op["points"])
        want = [Fraction(1)]
        for p, m in roots.items():
            want = oracle.pmul(want, oracle.from_points(1, [p] * m))
        if ans["nondeg"] != (not roots):
            return f"is_nondegenerate says {ans['nondeg']} with base points {roots}"
        if not oracle.proportional(want, ans["base"]):
            return f"base divisor {ans['base']} does not vanish exactly at {roots}"
        return None
    if kind.startswith("iso"):
        want = {"iso_rational": "isomorphic_rational", "iso_perturbed": "not_isomorphic"}.get(
            kind, op.get("expect"))
        if ans["status"] != want:
            return f"verdict {ans['status']}, expected {want}"
        if want != "isomorphic_rational":
            return None
        lam = ans["witness"]
        if any([l * c for c in u] != v for l, u, v in zip(lam, op["u"], op["u2"])):
            return "witness does not carry the sections"
        for j in range(len(rays[0])):
            prod = Fraction(1)
            for i in range(n):
                prod *= Fraction(lam[i]) ** rays[i][j]
            if prod != op["t2"][j] / op["t"][j]:
                return "witness does not carry the trivializations"
        return None
    if kind == "pullback":
        k = len(op["cover"][0])
        if ans["degree"] != tuple(k * x for x in d):
            return "pullback degrees do not scale by the covering degree"
        return None if ans["nondeg"] else "pullback of a nondegenerate collection degenerated"
    # collapse
    atts = op["atts"]
    total = tuple(x + sum(e[i] for _, e in atts) for i, x in enumerate(d))
    if ans["total"] != total:
        return "collapsed total degree is wrong"
    for i, u in enumerate(op["u"]):
        want = u
        for p, e in atts:
            want = oracle.pmul(want, oracle.from_points(1, [p] * e[i]))
        if ans["u"][i] != want:
            return f"collapsed section {i} differs from u * prod l_p^e"
    # Mobius equivariance, outside the timed interval
    g = tg.forms.Mobius(*op["mobius"])
    lhs = tg.collapse.collapse(tg.collapse.reparametrize_data(ans["data"], g)).collection
    rhs = tg.collapse.reparametrize_collection(ans["collection"], g)
    return None if lhs.sections == rhs.sections else "collapse is not Mobius-equivariant"


def corrupt(op, ans):
    """Move the base-divisor root (oracle self-test)."""
    roots = oracle.base_points(op["cones"], len(op["rays"]), op["points"])
    q = next(p for p in _POOL if p not in roots)
    return dict(ans, base=oracle.from_points(1, [q] * max(1, sum(roots.values()))))
