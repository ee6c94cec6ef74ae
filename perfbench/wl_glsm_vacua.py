"""glsm_vacua: semistability, a Kempf-Ness solve and the phase of an FI
vector, on the charge matrices of the scale-set families.

The charge matrices are written down in closed form (and checked against
the rays here), so the fan and cox layers are never called: only ratlp
(Fourier-Motzkin in at most 4 variables) and the numpy Newton loop work.
FI vectors are built so that each verdict is known:

- kahler: r = Q a for an ample class a; the support is stable iff its zero
  set contains no primitive collection, and the unstable sets are exactly
  the primitive collections;
- interior: r is a positive combination of the support's charges;
- boundary: r lies in the face of the support cone cut out by a coordinate
  functional, which is >= 0 on every charge;
- outside: some coordinate of r is negative.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import common
import oracle

_FAMILIES = ("P2", "P3", "P4", "P5", "P6", "P7", "F0", "F1", "F2", "F3", "F4", "F5",
             "F6", "P1xP1", "P2xP2", "P1xP1xP2", "P1^4")
_KINDS = ("kahler", "interior", "boundary", "outside")
_CYCLE = [(f, k) for k in _KINDS for f in _FAMILIES]
CYCLES_PER_20S = 20
TOL = 1e-8

def n_ops(seconds):
    return max(11, round(len(_CYCLE) * CYCLES_PER_20S * seconds / 20))


@functools.lru_cache(maxsize=None)
def _family(name):
    """Charges, primitive collections and wall relations of a family."""
    rays, cones, q = oracle.family(name)
    if not oracle.check_charges(rays, q):
        raise RuntimeError(f"closed-form charge matrix of {name} fails Q.B = 0")
    return q, oracle.primitive_collections(len(rays), cones), oracle.wall_relations(rays, cones)


def _combo(q, idx, rng):
    k = len(q)
    r = [Fraction(0)] * k
    for i in idx:
        c = Fraction(rng.randint(1, 4), 2)
        for a in range(k):
            r[a] += c * q[a][i]
    return r


def _op(name, kind, rng):
    q, prim, walls = _family(name)
    k, n = len(q), len(q[0])
    zeros = set(rng.sample(range(n), rng.choice((0, 0, 1, 1, 2))))
    support = [i for i in range(n) if i not in zeros]
    op = {"fam": name, "kind": kind, "q": q}
    if kind == "kahler":
        while True:
            a = [rng.randint(0, 2) for _ in range(n)]
            if oracle.is_ample(a, walls):
                break
        fi = [Fraction(sum(q[b][i] * a[i] for i in range(n))) for b in range(k)]
        unstable = any(p <= zeros for p in prim)
        op.update(expect="Unstable" if unstable else "InteriorStable", sets=prim)
    elif kind == "interior":
        fi = _combo(q, support, rng)
        op["expect"] = "InteriorStable"
    elif kind == "boundary":
        row = rng.randrange(k)
        if not any(q[row][i] for i in support):
            support.append(next(i for i in range(n) if q[row][i]))
            support.sort()
        face = [i for i in support if q[row][i] == 0]
        fi = _combo(q, rng.sample(face, rng.randint(0, len(face))), rng)
        op["expect"] = "BoundaryMarginal"
    else:
        fi = [Fraction(rng.randint(-2, 3)) for _ in range(k)]
        fi[rng.randrange(k)] = Fraction(-rng.randint(1, 3))
        op["expect"] = "Unstable"
    amps = [Fraction(rng.randint(1, 8), 4) if i in support else Fraction(0) for i in range(n)]
    op.update(fi=tuple(fi), amps=tuple(amps), support=tuple(support))
    return op


def generate(seed, n):
    rng = random.Random(f"glsm_vacua:{seed}")
    return [_op(*_CYCLE[i % len(_CYCLE)], rng) for i in range(n)]


def warmup(seed):
    return _op("P2", "kahler", random.Random(f"glsm_vacua-warmup:{seed}"))


def summary(op):
    fi = ",".join(str(x) for x in op["fi"])
    return f"{op['kind']} on {op['fam']} fi=({fi}) support={list(op['support'])}"


def run(tg, op):
    Q = tg.lattice.IntMatrix.from_rows(op["q"])
    verdict = tg.glsm.semistable(Q, op["support"], op["fi"])
    rep = tg.glsm.kempf_ness_solve(
        tg.glsm.GLSMProblem(charges=Q, fi=op["fi"], amplitudes=op["amps"]), tol=TOL
    )
    sets = tg.glsm.unstable_supports(Q, op["fi"])
    return {"verdict": verdict, "status": rep.status, "t": rep.t,
            "iterations": rep.iterations, "recession": rep.recession_direction,
            "sets": sets}


def _outside(q, support, fi):
    return not oracle.in_cone(fi, [tuple(row[i] for row in q) for i in support])


def check(op, ans, tg=None):
    q, fi, exp = op["q"], op["fi"], op["expect"]
    k, n = len(q), len(q[0])
    if ans["verdict"] != exp:
        return f"verdict {ans['verdict']}, expected {exp}"
    if exp == "InteriorStable":
        if ans["status"] == "IterationLimit":
            return f"{common.NO_ANSWER}Kempf-Ness ended IterationLimit after {ans['iterations']} iterations"
        if ans["status"] != "Converged":
            return f"Kempf-Ness ended {ans['status']} after {ans['iterations']} iterations"
        t = ans["t"]
        w = [float(s) * math.exp(2 * sum(q[a][i] * t[a] for a in range(k)))
             for i, s in enumerate(op["amps"])]
        resid = max(abs(sum(q[a][i] * w[i] for i in range(n)) - float(fi[a])) for a in range(k))
        if resid > TOL:
            return f"moment-map residual {resid:.3g} above tol {TOL}"
    elif ans["status"] != "Unstable":
        return f"Kempf-Ness status {ans['status']} on an {exp} support"
    elif exp == "BoundaryMarginal":
        if ans["recession"] is not None:
            return "recession direction on a boundary FI vector"
    else:
        u = [-x for x in ans["recession"] or ()]
        if not u:
            return "Unstable solve without a recession direction"
        scale = max(abs(x) for x in u)
        if any(sum(q[a][i] * u[a] for a in range(k)) < -1e-9 * scale for i in op["support"]):
            return "recession direction violates a charge inequality"
        if sum(float(fi[a]) * u[a] for a in range(k)) >= 0:
            return "recession direction does not separate the FI vector"
    sets = [frozenset(s) for s in ans["sets"]]
    if "sets" in op:
        return None if set(sets) == op["sets"] else f"unstable sets {ans['sets']} != primitive collections"
    for z in sets:
        if any(other < z for other in sets):
            return f"unstable set {sorted(z)} is not minimal"
        if not _outside(q, [i for i in range(n) if i not in z], fi):
            return f"zero set {sorted(z)} is not unstable"
        if any(_outside(q, [i for i in range(n) if i not in z or i == x], fi) for x in z):
            return f"zero set {sorted(z)} has an unstable proper subset"
    return None


def corrupt(op, ans):
    """Swap the stability verdict (oracle self-test)."""
    swap = {"InteriorStable": "Unstable", "Unstable": "BoundaryMarginal",
            "BoundaryMarginal": "InteriorStable"}
    return dict(ans, verdict=swap[ans["verdict"]])
