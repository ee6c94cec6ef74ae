"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Constraints are pairs (a, b) meaning a . x <= b with Fraction entries.
Variable counts stay small here (cone-membership duals in the charge
space, one n-variable separating functional per cone pair in fan
validation), so the doubly-exponential worst case of the method never
bites at this scale.
"""

from __future__ import annotations

from fractions import Fraction


def _combine(p, m, v):
    """Positive/negative pair -> constraint with variable v eliminated."""
    ap, bp = p
    am, bm = m
    cp = ap[v]
    cm = -am[v]
    a = tuple(cm * x + cp * y for x, y in zip(ap, am))
    return (a, cm * bp + cp * bm)


def fm_witness(constraints, nvars):
    """A rational point satisfying all a.x <= b, or None if infeasible."""
    cons = [(tuple(Fraction(c) for c in a), Fraction(b)) for a, b in constraints]
    if any(len(a) != nvars for a, _ in cons):
        raise ValueError("constraint arity mismatch")
    stack = []
    for v in range(nvars - 1, -1, -1):
        pos = [c for c in cons if c[0][v] > 0]
        neg = [c for c in cons if c[0][v] < 0]
        zero = [c for c in cons if c[0][v] == 0]
        stack.append((v, pos, neg))
        new = [_combine(p, m, v) for p in pos for m in neg]
        cons = zero + new
        # drop duplicates; keeps the constraint count from snowballing
        cons = list(dict.fromkeys(cons))
    if any(b < 0 for _, b in cons):
        return None
    x = [Fraction(0)] * nvars
    for v, pos, neg in reversed(stack):
        lo, hi = None, None
        for a, b in pos:  # a[v] > 0: upper bounds
            bound = (b - sum(a[j] * x[j] for j in range(v))) / a[v]
            hi = bound if hi is None else min(hi, bound)
        for a, b in neg:  # a[v] < 0: lower bounds
            bound = (b - sum(a[j] * x[j] for j in range(v))) / a[v]
            lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None:
            x[v] = (lo + hi) / 2
        elif lo is not None:
            x[v] = lo
        elif hi is not None:
            x[v] = hi
    return tuple(x)


def feasible(constraints, nvars) -> bool:
    return fm_witness(constraints, nvars) is not None


def in_cone(point, generators):
    """(position, u): the position of `point` relative to cone(generators),
    one of "interior" (relative interior), "boundary", "outside", and on
    "outside" its certificate u, with generator.u >= 0 for all generators
    and point.u <= -1 (else u is None).

    Decided in the dual: point is outside iff such a u exists; it is on the
    boundary iff some u nonnegative on the cone has u.point = 0 while not
    vanishing on the whole cone.
    """
    k = len(point)
    point = tuple(Fraction(c) for c in point)
    gens = [tuple(Fraction(c) for c in g) for g in generators]
    if any(len(g) != k for g in gens):
        raise ValueError("generator dimension mismatch")
    sep = [(tuple(-c for c in g), Fraction(0)) for g in gens]
    u = fm_witness(sep + [(point, Fraction(-1))], k)
    if u is not None:
        return "outside", u
    # u nonnegative on the cone, point.u <= 0, and sum_i q_i.u >= 1
    total = tuple(-sum(g[j] for g in gens) for j in range(k)) if gens else (Fraction(0),) * k
    if feasible(sep + [(point, Fraction(0)), (total, Fraction(-1))], k):
        return "boundary", None
    return "interior", None
