"""Exact rational linear feasibility via Fourier-Motzkin elimination.

Constraints are pairs (a, b) meaning a . x <= b, with int or Fraction
entries.  Each is kept once, in a set, as a primitive integer row (a..., b):
denominators cleared by their lcm, then divided by the gcd.  Variables are
eliminated in the fixed order nvars-1, ..., 0; an equality (a row and its
negation) involving x_v substitutes x_v out of the other rows instead of
pairing every upper with every lower bound, and a row 0 <= b < 0 ends the
search at once.  Every stage is still the exact projection of the same
polyhedron onto x_0..x_v, and back substitution picks x_v from the interval
that projection leaves over the x_0..x_{v-1} already chosen, so with the
order fixed the witness is that of plain Fraction elimination.  Variable
counts stay small here (cone-membership duals in the charge space, one
n-variable separating functional per cone pair in fan validation), so the
doubly-exponential worst case never bites at this scale.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .lattice import _integer_row


def _primitive(row):
    """The row as a primitive integer tuple: any denominators cleared by
    their lcm, then divided by the gcd of the entries."""
    try:
        g = math.gcd(*row)
    except TypeError:  # not all int
        row = _integer_row(row)
        g = math.gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def _combine(p, m, v):
    """Rows with p[v] > 0 > m[v] -> primitive row with x_v eliminated."""
    cp, cm = p[v], -m[v]
    row = [cm * x + cp * y for x, y in zip(p[:v], m[:v])]
    row.append(cm * p[-1] + cp * m[-1])
    return _primitive(row)


def fm_witness(constraints, nvars):
    """A rational point satisfying all a.x <= b, or None if infeasible."""
    rows = [(*a, b) for a, b in constraints]
    if any(len(r) != nvars + 1 for r in rows):
        raise ValueError("constraint arity mismatch")
    cons = set()
    for r in map(_primitive, rows):
        if any(r[:-1]):
            cons.add(r)
        elif r[-1] < 0:
            return None
    stack = []
    for v in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], set()
        for r in cons:
            if r[v] > 0:
                pos.append(r)
            elif r[v] < 0:
                neg.append(r)
            else:
                rest.add(r[:v] + r[-1:])
        stack.append((v, pos, neg))
        eq = next((r for r in pos if tuple(-c for c in r) in cons), None) if neg else None
        if eq is None:
            new = (_combine(p, m, v) for p in pos for m in neg)
        else:  # substitute x_v from the equality eq . x = b
            opp = tuple(-c for c in eq)
            new = itertools.chain((_combine(p, opp, v) for p in pos if p != eq),
                                  (_combine(eq, m, v) for m in neg if m != opp))
        for r in new:
            if any(r[:-1]):
                rest.add(r)
            elif r[-1] < 0:
                return None
        cons = rest
    x = [Fraction(0)] * nvars
    for v, pos, neg in reversed(stack):
        lo, hi = None, None
        for r in pos:  # r[v] > 0: upper bounds
            bound = Fraction(r[-1] - sum(r[j] * x[j] for j in range(v)), r[v])
            hi = bound if hi is None else min(hi, bound)
        for r in neg:  # r[v] < 0: lower bounds
            bound = Fraction(r[-1] - sum(r[j] * x[j] for j in range(v)), r[v])
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
    gens = [tuple(g) for g in generators]
    if any(len(g) != k for g in gens):
        raise ValueError("generator dimension mismatch")
    sep = [(tuple(-c for c in g), 0) for g in gens]
    u = fm_witness(sep + [(point, -1)], k)
    if u is not None:
        return "outside", u
    # u nonnegative on the cone, point.u <= 0, and sum_i q_i.u >= 1
    total = tuple(-sum(g[j] for g in gens) for j in range(k))
    if feasible(sep + [(point, 0), (total, -1)], k):
        return "boundary", None
    return "interior", None
