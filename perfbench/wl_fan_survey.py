"""fan_survey: every op analyses a different fan, end to end.

The fans are small GL(n,Z) images of the scale set, and about a fifth are
broken in a way whose verdict is known by construction.  Because no two ops
share a fan, no lru_cache hit crosses ops: this workload loads fan, ratlp,
lattice and cox and leaves forms, delta and glsm idle.
"""

from __future__ import annotations

import random

import oracle

# One cycle of bases, interleaved so that every prefix has a similar mix.
# Ten P3 ops sit just below the five large fans, so the tail percentile
# (the 11th slowest op) falls in the middle of the P3 cluster rather than
# on the edge between two clusters, where it would jump from run to run.
# P6 and P7 are left out: with the current validate_fan one P7 op takes
# about 10 s and one P6 op about 5 s, too much of a 20 s run for one op.
_CYCLE = (
    "P1^4", "P2", "F0", "P3", "F1", "P1xP1", "!overlap:F1", "P3",
    "P5", "F3", "P3", "!nonprimitive:P3", "F4", "P1xP1", "P3",
    "P2xP2", "F6", "!missing:P1xP1", "P2", "P3", "F0", "!nonsmooth:P2",
    "P1xP1xP2", "F1", "P3", "!overlap:P3", "P1xP1", "F2", "!missing:P3",
    "P4", "P3", "P2", "!nonsmooth:P3", "F5", "P3", "P3", "!nonprimitive:F2",
    "P3",
)
CYCLE_SECONDS = 20  # the cycle is one run at --seconds 20


def n_ops(seconds):
    return max(11, round(len(_CYCLE) * seconds / CYCLE_SECONDS))


def _transform(rays, cones, rng):
    """A small GL(n,Z) image: a signed permutation of the coordinates, with
    the rays relabelled and the cone list kept in the base's order.

    Shears would also be small GL(n,Z) elements, but they grow the entries
    and with them the Fourier-Motzkin and Monte Carlo work by up to orders
    of magnitude, so the cost of an op would depend on the seed.  Returns
    (rays, cones, new index of each old ray)."""
    n = len(rays[0])
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    order = list(range(len(rays)))
    rng.shuffle(order)  # new ray i is old ray order[i]
    new = tuple(tuple(sign[b] * rays[old][perm[b]] for b in range(n)) for old in order)
    relabel = {old: i for i, old in enumerate(order)}
    return new, tuple(tuple(sorted(relabel[i] for i in c)) for c in cones), relabel


def _break(kind, rays, cones):
    """Apply a defect whose verdict is known: (rays, cones, expected)."""
    rays, cones = list(rays), list(cones)
    if kind == "overlap":
        a, b = cones[0][0], cones[0][1]
        rays.append(tuple(x + y for x, y in zip(rays[a], rays[b])))
        cones.append(tuple(sorted((len(rays) - 1,) + tuple(i for i in cones[0] if i != a))))
        expected = {"valid": False, "issue": "intersect outside their common face"}
    elif kind == "nonprimitive":
        rays[0] = tuple(2 * x for x in rays[0])
        expected = {"valid": False, "issue": "is not primitive"}
    elif kind == "missing":
        cones.pop()
        expected = {"valid": True, "smooth": True, "complete": False}
    elif kind == "nonsmooth":
        # weighted projective space P(1,...,1,2,1): complete, not smooth
        n = len(rays[0])
        rays[-1] = tuple(-1 for _ in range(n - 1)) + (-2,)
        expected = {"valid": True, "smooth": False}
    return tuple(rays), tuple(cones), expected


def _op(entry, rng, seen):
    kind, _, base = entry.rpartition(":")
    rays, cones, _ = oracle.family(base)
    prim = oracle.primitive_collections(len(rays), cones)
    expected = {"valid": True, "smooth": True, "complete": True, "prim": prim}
    if kind:
        rays, cones, expected = _break(kind[1:], rays, cones)
    for _ in range(100):
        new_rays, new_cones, relabel = _transform(rays, cones, rng)
        if (new_rays, new_cones) not in seen:
            break
    seen.add((new_rays, new_cones))
    if "prim" in expected:
        expected["prim"] = {frozenset(relabel[i] for i in p) for p in expected["prim"]}
    return {"base": entry, "rays": new_rays, "cones": new_cones, "expected": expected}


def generate(seed, n):
    rng = random.Random(f"fan_survey:{seed}")
    w = warmup(seed)
    seen = {(w["rays"], w["cones"])}
    return [_op(_CYCLE[i % len(_CYCLE)], rng, seen) for i in range(n)]


def warmup(seed):
    # an image of P2 under a shear, which the timed list never draws
    rays, cones, _ = oracle.family("P2")
    rays = tuple((r[0] + r[1], r[1]) for r in rays)
    prim = oracle.primitive_collections(3, cones)
    return {"base": "warmup:P2", "rays": rays, "cones": cones,
            "expected": {"valid": True, "smooth": True, "complete": True, "prim": prim}}


def summary(op):
    return f"{op['base']} rays={list(op['rays'])} cones={len(op['cones'])}"


def run(tg, op):
    """The library path behind `fan-check` + `cox`."""
    f = tg.fan.Fan(dim=len(op["rays"][0]), rays=op["rays"], max_cones=op["cones"])
    rep = tg.fan.validate_fan(f)
    if not rep.ok:
        return {"valid": False, "issues": rep.issues}
    if not tg.fan.is_smooth(f):
        return {"valid": True, "smooth": False}
    if not tg.fan.is_complete(f):
        return {"valid": True, "smooth": True, "complete": False}
    walls = tg.fan.walls(f)
    nef, per = tg.fan.prime_divisors_nef(f)
    pres = tg.cox.cox_presentation(f)
    return {
        "valid": True, "smooth": True, "complete": True,
        "walls": [(w.wall_rays, w.relation) for w in walls],
        "nef": (nef, per),
        "Q": pres.charge_matrix.to_rows(),
        "pic_rank": pres.pic_rank,
        "irrelevant": pres.irrelevant_generators,
        "prim": pres.primitive_collections,
    }


def check(op, ans, tg=None):
    exp, rays, cones = op["expected"], op["rays"], op["cones"]
    for key in ("valid", "smooth", "complete"):
        if key in exp and ans.get(key) != exp[key]:
            return f"{key} is {ans.get(key)}, expected {exp[key]}"
    if "issue" in exp:
        if not any(exp["issue"] in i for i in ans["issues"]):
            return f"issues {ans['issues']} lack {exp['issue']!r}"
        return None
    if "prim" not in exp:
        return None
    reason = cox_check(rays, cones, exp["prim"], ans)
    if reason:
        return reason
    n, dim = len(rays), len(rays[0])
    walls = {tuple(f): pair for f, pair in oracle.facets(cones).items() if len(pair) == 2}
    if sorted(w for w, _ in ans["walls"]) != sorted(walls):
        return "walls are not the facets shared by two cones"
    for w, rel in ans["walls"]:
        if any(sum(rel[i] * rays[i][j] for i in range(n)) != 0 for j in range(dim)):
            return f"wall {w}: sum r_rho n_rho != 0"
        extra = set(cones[walls[w][0]]) ^ set(cones[walls[w][1]])
        if any(rel[i] != 1 for i in extra) or any(
            rel[i] for i in range(n) if i not in extra and i not in w
        ):
            return f"wall {w}: relation {rel} is not normalised on its cones"
    per = tuple(all(rel[i] >= 0 for _, rel in ans["walls"]) for i in range(n))
    if ans["nef"] != (all(per), per):
        return "nef proxy disagrees with the wall relations"
    return None


def cox_check(rays, cones, prim, ans):
    """The Cox presentation's oracle: Q.B = 0, rank Q = rays - dim, the
    irrelevant generators and the primitive collections."""
    n, dim = len(rays), len(rays[0])
    Q = ans["Q"]
    if any(sum(row[i] * rays[i][j] for i in range(n)) != 0 for row in Q for j in range(dim)):
        return "Q . B != 0"
    if len(Q) != n - dim or oracle.rank(Q) != n - dim or ans["pic_rank"] != n - dim:
        return f"charge matrix rank is not rays - dim = {n - dim}"
    if {frozenset(p) for p in ans["prim"]} != prim:
        return f"primitive collections {ans['prim']} differ from the untransformed fan's"
    want_irr = {tuple(i for i in range(n) if i not in c) for c in cones}
    if set(map(tuple, ans["irrelevant"])) != want_irr:
        return "irrelevant generators are not the cone complements"
    return None


def corrupt(op, ans):
    """Flip one sign of the charge matrix (oracle self-test)."""
    ans = dict(ans)
    Q = [list(r) for r in ans["Q"]]
    j = next(j for j, x in enumerate(Q[0]) if x)
    Q[0][j] = -Q[0][j]
    ans["Q"] = Q
    return ans
