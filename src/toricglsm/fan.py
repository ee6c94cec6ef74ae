"""Smooth simplicial fans and their combinatorial geometry.

A fan is stored as primitive ray generators plus maximal cones given by
ray-index sets.  Only simplicial fans are supported; smooth fans are
automatically simplicial.  Validation is exact and runs once per distinct
fan.  A fan whose maximal cones are full-dimensional, with every facet in
exactly two of them (a closed pseudomanifold), is proved valid and complete
from local data: one integer adjugate per cone (kept per fan for smoothness
and walls), one sign test per facet and one generic point (see
`_covers_once`).  Every other fan, and one that fails those tests, is
checked by one n-variable separating LP per pair of maximal cones, which
names each bad pair.  Completeness is decided exactly, by the
pseudomanifold criterion on a valid fan.

"Convexity" of the associated variety has no checkable criterion here;
what is computed is the proxy "every toric prime divisor is nef", i.e.
all wall-relation coefficients nonnegative, and it is reported as a proxy.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from ._record import Record, setfield
from .lattice import IntMatrix, adjugate, rank, smith_normal_form
from . import ratlp

FAN_CACHE_SIZE = 256  # bounds every per-fan cache (fan, cox, glsm) and glsm._position: memory stays flat


class Fan(Record, compare=("dim", "rays", "max_cones")):
    """Fan in Z^dim: primitive rays and maximal cones as ray-index tuples."""

    # rays: tuple of integer tuples; max_cones: tuple of sorted index tuples
    __slots__ = ("dim", "rays", "max_cones", "name")

    def __init__(self, dim, rays, max_cones, name=""):
        setfield(self, "dim", dim)
        setfield(self, "rays", tuple(tuple(int(c) for c in r) for r in rays))
        setfield(self, "max_cones", tuple(tuple(sorted(int(i) for i in c)) for c in max_cones))
        setfield(self, "name", name)

    @property
    def n_rays(self):
        return len(self.rays)


class ValidationReport(Record):
    __slots__ = ("issues",)

    def __init__(self, issues):
        super().__init__(issues)

    @property
    def ok(self):
        return not self.issues


class Wall(Record):
    """Codimension-1 cone shared by two maximal cones, with its curve relation.

    `relation` is the unique integer vector r over all rays with
    sum_rho r_rho * n_rho = 0, r = +1 on the two rays completing the wall
    to the left/right cones, and 0 on rays in neither the wall nor that
    pair.  Entry rho equals deg O(D_rho) restricted to the wall curve.
    """

    __slots__ = ("wall_rays", "left_cone", "right_cone", "relation")

    def __init__(self, wall_rays, left_cone, right_cone, relation):
        setfield(self, "wall_rays", wall_rays)
        setfield(self, "left_cone", left_cone)
        setfield(self, "right_cone", right_cone)
        setfield(self, "relation", relation)


def validate_fan(f: Fan) -> ValidationReport:
    """Check the Fan invariants; returns a report rather than raising.

    The report is cached per fan, for the `FAN_CACHE_SIZE` most recent fans.
    """
    return _validate(f)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _validate(f: Fan) -> ValidationReport:
    """Issues per ray, then per cone, then per pair of maximal cones.

    The pair stage is skipped when `_covers_once` proves the fan valid and
    complete from one adjugate per cone (whose determinant also replaces the
    rank test of a full-dimensional cone), since it proves every pair good.
    Otherwise each pair is checked by its separating LP, so the issues
    never depend on whether the local test ran.
    """
    issues = []
    for i, r in enumerate(f.rays):
        if len(r) != f.dim:
            issues.append(f"ray {i} has length {len(r)}, expected {f.dim}")
        elif all(c == 0 for c in r):
            issues.append(f"ray {i} is zero")
        elif math.gcd(*r) != 1:
            issues.append(f"ray {i} = {r} is not primitive")
    seen = {}
    for i, r in enumerate(f.rays):
        if r in seen:
            issues.append(f"duplicate ray: index {seen[r]} and {i}")
        else:
            seen[r] = i
    if issues:
        return ValidationReport(tuple(issues))

    covered = set()
    inverses = _inverses(f)
    for ci, cone in enumerate(f.max_cones):
        if len(set(cone)) != len(cone):
            issues.append(f"cone {ci} repeats a ray index")
            continue
        if any(i < 0 or i >= f.n_rays for i in cone):
            issues.append(f"cone {ci} has a ray index out of range")
            continue
        covered.update(cone)
        inverse = inverses[ci]
        if (inverse[0] == 0 if inverse else rank(IntMatrix.from_rows([f.rays[i] for i in cone])) < len(cone)):
            issues.append(f"cone {ci} is not simplicial (generators dependent)")
    for i in range(f.n_rays):
        if i not in covered:
            issues.append(f"ray {i} appears in no maximal cone")
    if rank(IntMatrix.from_rows(list(f.rays))) != f.dim:
        issues.append("rays do not span the ambient space")
    if issues:
        return ValidationReport(tuple(issues))
    if None not in inverses and _covers_once(f, inverses):
        return ValidationReport(())

    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        msg = _nested(f, a, b) or _bad_intersection(f, a, b)
        if msg:
            issues.append(msg)
    return ValidationReport(tuple(issues))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _inverses(f: Fan):
    """`adjugate` of the matrix whose columns are the (sorted) rays of each
    full-dimensional maximal cone with distinct indices in range, so that
    adj . p / det are the Cramer coordinates of p; None for other cones."""
    return tuple(
        adjugate(IntMatrix.from_rows(zip(*(f.rays[i] for i in cone))))
        if len(set(cone)) == len(cone) == f.dim and all(0 <= i < f.n_rays for i in cone)
        else None
        for cone in f.max_cones
    )


def _covers_once(f: Fan, inverses) -> bool:
    """True when the fan, whose maximal cones are all full-dimensional with
    `_inverses` (det, adj), is proved valid and complete by two local tests:

    (i)  every facet F lies in exactly two maximal cones A = F + a and
         B = F + b, and det(F, a), det(F, b) have opposite signs;
    (ii) the point p = sum_t k^t n_{base[t]} over cone 0's rays, for the
         first k = 2, 3, ... that puts p on no facet, lies in the interior
         of cone 0 and of no other maximal cone.

    Proof.  Orient each cone so that its determinant is positive.  By (i)
    the two cones on a facet induce opposite orientations on it, so the
    cones form an (n-1)-cycle z, and the radial map phi to S^(n-1) carries
    z to d times the fundamental class.  Each cone is mapped preserving
    orientation, so a point off the images of the facets lies in the
    interior of exactly d cones, the same d everywhere, and (ii) shows
    d = 1.  So no cone is listed twice, and phi is injective: if phi(x) =
    phi(y) = q, the boundary of the chain of cones through x is made of
    faces missing x, whose images miss q (phi is injective on a cone), so
    these cones alone cover every generic point near q, and so do the cones
    through y; no generic point is covered twice, so some cone holds both x
    and y, and x = y.  Hence cone(A) and cone(B) meet exactly in
    cone(A & B), and the image of phi, compact and dense, is the whole
    sphere: the fan is valid and complete.

    Each Cramer coordinate of p in another cone is a nonzero polynomial of
    degree < n in k (cone 0's rays are a basis), so at most n (n-1)
    (|cones| - 1) values of k put p on a facet, and the loop is long enough
    to reach a generic p.  A False answer proves nothing; the
    pairwise LPs then decide.
    """
    if not f.max_cones:
        return False
    n = f.dim
    for sides in _facet_map(f).values():
        if len(sides) != 2:
            return False
        (a, pa), (b, pb) = sides
        # sign det(F, a) = sign det(A) (-1)^(n-1-pa): one ray moved to the end
        if (inverses[a][0] > 0) ^ (pa % 2) == (inverses[b][0] > 0) ^ (pb % 2):
            return False
    base = f.max_cones[0]
    for k in range(2, n * (n - 1) * len(f.max_cones) + 3):
        p = [sum(k**t * f.rays[i][j] for t, i in enumerate(base)) for j in range(n)]
        where = [_locate(inverse, p) for inverse in inverses[1:]]
        if 0 not in where:
            return 1 not in where
    return False


def _locate(inverse, p):
    """-1, 0 or 1 as p lies outside, on the boundary of, or inside the
    full-dimensional cone with this (det, adj): the least sign of the
    Cramer coordinates adj . p / det."""
    det, adj = inverse
    least = min((det * sum(map(operator.mul, adj.row(t), p)) for t in range(adj.rows)), default=1)
    return (least > 0) - (least < 0)


def _nested(f: Fan, a: int, b: int):
    """A message if one of two maximal cones repeats or lies in the other."""
    S = set(f.max_cones[a])
    T = set(f.max_cones[b])
    if S == T:
        return f"cone {b} repeats cone {a}"
    if S < T:
        return f"cone {a} lies in cone {b}"
    if T < S:
        return f"cone {b} lies in cone {a}"
    return None


def _bad_intersection(f: Fan, a: int, b: int):
    """None if cone(a) meets cone(b) in their common face, else a message.

    Simplicial cones S and T meet in cone(S∩T) exactly when some m has
    m.n = 0 on the common rays, m.n >= 1 on S's other rays and m.n <= -1
    on T's other rays (Cox-Little-Schenck, Toric Varieties, Lemma 1.2.13).
    """
    S = f.max_cones[a]
    T = f.max_cones[b]
    cons = []
    for i in sorted(set(S) | set(T)):
        n = f.rays[i]
        neg = tuple(-c for c in n)
        if i in S and i in T:
            cons += [(n, 0), (neg, 0)]
        else:
            cons.append((neg, -1) if i in S else (n, -1))
    if ratlp.feasible(cons, f.dim):
        return None
    return f"cones {a} and {b} intersect outside their common face"


def require_valid(f: Fan):
    """Raise ValueError listing the issues unless the fan is valid."""
    rep = validate_fan(f)
    if not rep.ok:
        raise ValueError("invalid fan: " + "; ".join(rep.issues))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def is_smooth(f: Fan) -> bool:
    """True iff every maximal cone's generators extend to a Z-basis."""
    require_valid(f)
    for cone, inverse in zip(f.max_cones, _inverses(f)):
        if inverse is None:  # lower-dimensional: every invariant factor 1
            snf = smith_normal_form(IntMatrix.from_rows([f.rays[i] for i in cone]))
            if any(d != 1 for d in snf.diagonal()[: len(cone)]):
                return False
        elif abs(inverse[0]) != 1:
            return False
    return True


def _facet_map(f: Fan):
    """Each facet of a maximal cone -> [(cone index, position in the cone of
    the ray it adds)], cones in increasing order."""
    facets = {}
    for ci, cone in enumerate(f.max_cones):
        for pos in range(len(cone)):
            facets.setdefault(cone[:pos] + cone[pos + 1:], []).append((ci, pos))
    return facets


@lru_cache(maxsize=FAN_CACHE_SIZE)
def is_complete(f: Fan) -> bool:
    """Exact completeness: the fan is valid, every maximal cone is
    full-dimensional and every facet lies in exactly two maximal cones.

    A fan with no cone covers nothing; the one cone {0} of a 0-dimensional
    fan covers R^0.

    Proof sketch: a generic segment from an interior point of a maximal
    cone to a point outside the support would leave the support through the
    relative interior of a facet.  That facet lies in exactly two cones, and
    validity puts them on opposite sides of it, so the segment cannot leave
    there.
    """
    require_valid(f)
    if not f.max_cones or any(len(c) != f.dim for c in f.max_cones):
        return False
    return all(len(cs) == 2 for cs in _facet_map(f).values())


def require_smooth_complete(f: Fan):
    """Raise ValueError unless the fan is valid, smooth and complete."""
    if not is_smooth(f):
        raise ValueError("fan is not smooth")
    if not is_complete(f):
        raise ValueError("fan is not complete")


@lru_cache(maxsize=FAN_CACHE_SIZE)
def walls(f: Fan):
    """All walls of a smooth complete fan, with their curve relations."""
    require_smooth_complete(f)
    inverses = _inverses(f)
    out = []
    facets = _facet_map(f)
    for facet in sorted(facets):
        (ca, _), (cb, pb) = facets[facet]
        right_extra = f.max_cones[cb][pb]
        # n_right = sum_t x_t n_t over the left cone, x = adj . n_right * det as
        # det = +-1; x is -1 at n_left, so 1 on n_right and -x is the relation
        det, adj = inverses[ca]
        relation = [0] * f.n_rays
        relation[right_extra] = 1
        for t, i in enumerate(f.max_cones[ca]):
            relation[i] = -det * sum(map(operator.mul, adj.row(t), f.rays[right_extra]))
        out.append(Wall(tuple(facet), ca, cb, tuple(relation)))
    return tuple(out)


def prime_divisors_nef(f: Fan):
    """Nef check for every toric prime divisor (the convexity proxy).

    Returns (all_nef, per_divisor) where per_divisor[rho] is True iff
    every wall relation is nonnegative at rho.
    """
    ws = walls(f)
    per = [all(w.relation[i] >= 0 for w in ws) for i in range(f.n_rays)]
    return all(per), tuple(per)
