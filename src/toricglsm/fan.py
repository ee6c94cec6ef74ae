"""Smooth simplicial fans and their combinatorial geometry.

A fan is stored as primitive ray generators plus maximal cones given by
ray-index sets.  Only simplicial fans are supported; smooth fans are
automatically simplicial.  Validation is exact and runs once per distinct
fan: one n-variable separating LP per pair of maximal cones.  Completeness
is decided exactly, by the pseudomanifold criterion on a valid fan (every
maximal cone full-dimensional, every facet shared by exactly two).

"Convexity" of the associated variety has no checkable criterion here;
what is computed is the proxy "every toric prime divisor is nef", i.e.
all wall-relation coefficients nonnegative, and it is reported as a proxy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .lattice import IntMatrix, rank, smith_normal_form, solve_rational
from . import ratlp


@dataclass(frozen=True)
class Fan:
    """Fan in Z^dim: primitive rays and maximal cones as ray-index tuples."""

    dim: int
    rays: tuple  # tuple of integer tuples
    max_cones: tuple  # tuple of sorted index tuples
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(tuple(int(c) for c in r) for r in self.rays))
        object.__setattr__(
            self, "max_cones", tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        )

    @property
    def n_rays(self):
        return len(self.rays)


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self):
        return not self.issues


@dataclass(frozen=True)
class Wall:
    """Codimension-1 cone shared by two maximal cones, with its curve relation.

    `relation` is the unique integer vector r over all rays with
    sum_rho r_rho * n_rho = 0, r = +1 on the two rays completing the wall
    to the left/right cones, and 0 on rays in neither the wall nor that
    pair.  Entry rho equals deg O(D_rho) restricted to the wall curve.
    """

    wall_rays: tuple
    left_cone: int
    right_cone: int
    relation: tuple


def validate_fan(f: Fan) -> ValidationReport:
    """Check the Fan invariants; returns a report rather than raising.

    The report is computed once per distinct fan and then cached.
    """
    return _validate(f)


@lru_cache(maxsize=None)
def _validate(f: Fan) -> ValidationReport:
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
    for ci, cone in enumerate(f.max_cones):
        if len(set(cone)) != len(cone):
            issues.append(f"cone {ci} repeats a ray index")
            continue
        if any(i < 0 or i >= f.n_rays for i in cone):
            issues.append(f"cone {ci} has a ray index out of range")
            continue
        covered.update(cone)
        gens = IntMatrix.from_rows([f.rays[i] for i in cone])
        if rank(gens) != len(cone):
            issues.append(f"cone {ci} is not simplicial (generators dependent)")
    for i in range(f.n_rays):
        if i not in covered:
            issues.append(f"ray {i} appears in no maximal cone")
    if rank(IntMatrix.from_rows(list(f.rays))) != f.dim:
        issues.append("rays do not span the ambient space")
    if issues:
        return ValidationReport(tuple(issues))

    for a, b in itertools.combinations(range(len(f.max_cones)), 2):
        msg = _nested(f, a, b) or _bad_intersection(f, a, b)
        if msg:
            issues.append(msg)
    return ValidationReport(tuple(issues))


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


@lru_cache(maxsize=None)
def is_smooth(f: Fan) -> bool:
    """True iff every maximal cone's generators extend to a Z-basis."""
    require_valid(f)
    for cone in f.max_cones:
        gens = IntMatrix.from_rows([f.rays[i] for i in cone])
        if len(cone) == f.dim:
            if abs(gens.det()) != 1:
                return False
        else:
            snf = smith_normal_form(gens)
            if any(d != 1 for d in snf.diagonal()[: len(cone)]):
                return False
    return True


def _facet_map(f: Fan):
    facets = {}
    for ci, cone in enumerate(f.max_cones):
        for facet in itertools.combinations(cone, len(cone) - 1):
            facets.setdefault(facet, []).append(ci)
    return facets


@lru_cache(maxsize=None)
def is_complete(f: Fan) -> bool:
    """Exact completeness: the fan is valid, every maximal cone is
    full-dimensional and every facet lies in exactly two maximal cones.

    Proof sketch: a generic segment from an interior point of a maximal
    cone to a point outside the support would leave the support through the
    relative interior of a facet.  That facet lies in exactly two cones, and
    validity puts them on opposite sides of it, so the segment cannot leave
    there.
    """
    require_valid(f)
    if any(len(c) != f.dim for c in f.max_cones):
        return False
    return all(len(cs) == 2 for cs in _facet_map(f).values())


def require_smooth_complete(f: Fan):
    """Raise ValueError unless the fan is valid, smooth and complete."""
    if not is_smooth(f):
        raise ValueError("fan is not smooth")
    if not is_complete(f):
        raise ValueError("fan is not complete")


@lru_cache(maxsize=None)
def walls(f: Fan):
    """All walls of a smooth complete fan, with their curve relations."""
    require_smooth_complete(f)
    out = []
    facets = _facet_map(f)
    for facet in sorted(facets):
        ca, cb = sorted(facets[facet])
        (left_extra,) = set(f.max_cones[ca]) - set(facet)
        (right_extra,) = set(f.max_cones[cb]) - set(facet)
        # n_left + n_right + sum_i a_i n_{w_i} = 0; wall rays independent,
        # so the a_i are unique, and smoothness makes them integers
        A = [[f.rays[i][j] for i in facet] for j in range(f.dim)]
        _, coeffs = solve_rational(A, [-a - b for a, b in zip(f.rays[left_extra], f.rays[right_extra])])
        if coeffs is None or any(c.denominator != 1 for c in coeffs):
            raise ValueError("non-integral wall relation on a smooth fan")
        relation = [0] * f.n_rays
        relation[left_extra] += 1
        relation[right_extra] += 1
        for i, c in zip(facet, coeffs):
            relation[i] += int(c)
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
