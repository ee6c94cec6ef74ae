"""Fan families and the exact arithmetic the benchmark checks answers with.

Nothing here imports toricglsm: every expected answer is computed by this
independent code (or is known by construction), so a defect in the package
cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# -- fan families (rays as rows, maximal cones as sorted index tuples) -------


def projective(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return tuple(rays), tuple(itertools.combinations(range(n + 1), n))


def hirzebruch(a):
    return ((1, 0), (0, 1), (-1, a), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))


def product(f, g):
    (ra, ca), (rb, cb) = f, g
    da, db = len(ra[0]), len(rb[0])
    rays = tuple(r + (0,) * db for r in ra) + tuple((0,) * da + r for r in rb)
    cones = tuple(c + tuple(len(ra) + j for j in d) for c in ca for d in cb)
    return rays, cones


def _charges_projective(n):
    return ((1,) * (n + 1),)


def _charges_hirzebruch(a):
    return ((1, 0, 1, a), (0, 1, 0, 1))


def _charges_product(qa, qb):
    na, nb = len(qa[0]), len(qb[0])
    return tuple(r + (0,) * nb for r in qa) + tuple((0,) * na + r for r in qb)


def family(name):
    """(rays, cones, charge matrix) of a named fan; charges in closed form
    with nonnegative entries, so every coordinate functional is >= 0 on the
    charge cone."""
    P1 = (projective(1), _charges_projective(1))
    if name.startswith("P") and name[1:].isdigit():
        n = int(name[1:])
        return projective(n) + (_charges_projective(n),)
    if name.startswith("F"):
        a = int(name[1:])
        return hirzebruch(a) + (_charges_hirzebruch(a),)
    parts = {"P1xP1": [P1, P1],
             "P2xP2": [(projective(2), _charges_projective(2))] * 2,
             "P1xP1xP2": [P1, P1, (projective(2), _charges_projective(2))],
             "P1^4": [P1] * 4}[name]
    (fan, q) = parts[0]
    for g, qg in parts[1:]:
        fan, q = product(fan, g), _charges_product(q, qg)
    return fan + (q,)


def check_charges(rays, q):
    """Q . B = 0 and rank Q = |rays| - dim, in this module's arithmetic."""
    dim = len(rays[0])
    for row in q:
        for j in range(dim):
            if sum(row[i] * rays[i][j] for i in range(len(rays))) != 0:
                return False
    return rank(q) == len(rays) - dim


# -- exact linear algebra over Q ----------------------------------------------


def rank(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def solve(cols, target):
    """x with sum_i x_i cols[i] = target for independent cols, or None."""
    m, n = len(target), len(cols)
    aug = [[Fraction(cols[i][j]) for i in range(n)] + [Fraction(target[j])] for j in range(m)]
    row = 0
    pivots = []
    for c in range(n):
        p = next((i for i in range(row, m) if aug[i][c] != 0), None)
        if p is None:
            return None
        aug[row], aug[p] = aug[p], aug[row]
        for i in range(m):
            if i != row and aug[i][c] != 0:
                f = aug[i][c] / aug[row][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append(row)
        row += 1
    if any(aug[i][n] != 0 for i in range(row, m)):
        return None
    return [aug[pivots[c]][n] / aug[pivots[c]][c] for c in range(n)]


def in_cone(point, gens):
    """Exact membership of point in cone(gens), by Caratheodory: some
    linearly independent set of rank(gens) generators holds it with
    nonnegative coefficients."""
    if all(x == 0 for x in point):
        return True
    if not gens:
        return False
    k = rank(gens)
    for basis in itertools.combinations(gens, k):
        x = solve(basis, point)
        if x is not None and all(c >= 0 for c in x):
            return True
    return False


# -- fan combinatorics ----------------------------------------------------------


def primitive_collections(n_rays, cones):
    """Minimal index sets lying in no maximal cone, as a set of frozensets."""
    cone_sets = [frozenset(c) for c in cones]
    faces = lambda s: any(s <= c for c in cone_sets)  # noqa: E731
    out = set()
    for size in range(1, n_rays + 1):
        for s in map(frozenset, itertools.combinations(range(n_rays), size)):
            if not faces(s) and all(faces(s - {i}) for i in s):
                out.add(s)
    return out


def facets(cones):
    """{facet: [cone indices]} over all maximal cones."""
    out = {}
    for ci, c in enumerate(cones):
        for f in itertools.combinations(c, len(c) - 1):
            out.setdefault(f, []).append(ci)
    return out


def wall_relations(rays, cones):
    """Curve relation of every wall: +1 on the two rays completing it."""
    out = []
    for facet, pair in sorted(facets(cones).items()):
        if len(pair) != 2:
            continue
        (left,) = set(cones[pair[0]]) - set(facet)
        (right,) = set(cones[pair[1]]) - set(facet)
        target = [-(rays[left][j] + rays[right][j]) for j in range(len(rays[0]))]
        coeffs = solve([rays[i] for i in facet], target)
        rel = [0] * len(rays)
        rel[left] += 1
        rel[right] += 1
        for i, c in zip(facet, coeffs):
            rel[i] += int(c)
        out.append(tuple(rel))
    return out


def is_ample(a, relations):
    return all(sum(x * r for x, r in zip(a, rel)) > 0 for rel in relations)


# -- binary forms (coefficient c_k multiplies z0^(d-k) z1^k) ------------------


def point_key(p):
    """Primitive integer representative of a projective point [a:b]."""
    a, b = Fraction(p[0]), Fraction(p[1])
    den = math.lcm(a.denominator, b.denominator)
    a, b = int(a * den), int(b * den)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b < 0 or (b == 0 and a < 0):
        a, b = -a, -b
    return a, b


def linear(p):
    """b*z0 - a*z1, vanishing at [a:b]."""
    return [Fraction(p[1]), -Fraction(p[0])]


def pmul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def from_points(const, points):
    f = [Fraction(const)]
    for p in points:
        f = pmul(f, linear(p))
    return f


def proportional(f, g):
    """Nonzero f, g equal up to a nonzero scalar."""
    if len(f) != len(g):
        return False
    k = next(i for i, c in enumerate(f) if c != 0)
    if g[k] == 0:
        return False
    r = g[k] / f[k]
    return all(b == r * a for a, b in zip(f, g))


def _pgcd(p, q):
    """Monic univariate gcd, coefficient lists low power first."""
    def trim(x):
        x = list(x)
        while x and x[-1] == 0:
            x.pop()
        return x
    p, q = trim(p), trim(q)
    while q:
        r = list(p)
        while len(r) >= len(q) and r:
            f = r[-1] / q[-1]
            s = len(r) - len(q)
            for i, c in enumerate(q):
                r[s + i] -= f * c
            r = trim(r)
        p, q = q, r
    return [c / p[-1] for c in p] if p else p


def gcd_degree(forms):
    """Degree of the gcd of the nonzero forms (z1 power split off first)."""
    nonzero = [f for f in forms if any(f)]
    s = min(next(k for k, c in enumerate(f) if c) for f in nonzero)
    g = None
    for f in nonzero:
        v = next(k for k, c in enumerate(f) if c)
        uni = [f[k] for k in range(len(f) - 1, v - 1, -1)]  # z0 powers, low first
        g = uni if g is None else _pgcd(g, uni)
    g = _pgcd(g, [])
    return s + len(g) - 1


def cone_products(cones, n_rays, sections):
    """g_sigma = product of the sections of the rays outside each cone."""
    out = []
    for c in cones:
        g = [Fraction(1)]
        for i in range(n_rays):
            if i not in c:
                g = pmul(g, sections[i])
        out.append(g)
    return out


def nonvanishing(cones, n_rays, sections):
    return any(
        all(any(sections[i]) for i in range(n_rays) if i not in c) for c in cones
    )


def base_points(cones, n_rays, factor_points):
    """Base divisor of a collection whose section rho is a nonzero constant
    times prod of l_p over factor_points[rho]: point -> min over cones of
    its multiplicity in g_sigma (points must be projectively distinct keys)."""
    counts = []
    for c in cones:
        count = {}
        for i in range(n_rays):
            if i not in c:
                for p in factor_points[i]:
                    k = point_key(p)
                    count[k] = count.get(k, 0) + 1
        counts.append(count)
    mins = {k: min(cnt.get(k, 0) for cnt in counts) for k in set().union(*counts)}
    return {k: m for k, m in mins.items() if m}


def format_form(coeffs):
    """Text in the CLI's form grammar, e.g. `3*z0^2*z1^0 + -1/2*z0^1*z1^1`."""
    d = len(coeffs) - 1
    terms = [f"{c}*z0^{d - k}*z1^{k}" for k, c in enumerate(coeffs) if c]
    return " + ".join(terms) or "0"


def parse_form(text, degree):
    """Coefficients of a form printed by the CLI (`3*z0^2 - 1/2*z0*z1`)."""
    out = [Fraction(0)] * (degree + 1)
    if text.strip() == "0":
        return out
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        factors = term.lstrip("-").split("*")
        coeff = Fraction(1) if factors[0].startswith("z") else Fraction(factors.pop(0))
        p1 = 0
        for f in factors:
            var, _, exp = f.partition("^")
            if var == "z1":
                p1 = int(exp or 1)
        out[p1] += sign * coeff
    return out
