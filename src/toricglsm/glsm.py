"""Bosonic vacuum layer of the abelian gauged linear sigma model.

The scalar potential's stationarity reduces to the moment-map equation
mu(phi) = Q |phi|^2 - r = 0 modulo the unitary gauge group; existence of a
solution in a complexified orbit is an exact combinatorial question
(Fayet-Iliopoulos vector inside the charge cone of the nonzero fields),
while the solution itself is found numerically by minimizing the convex
Kempf-Ness function

    f(t) = sum_i s_i exp(2 <q_i, t>) - 2 <r, t>,   grad f = 2 (Q s(t) - r),

with damped Newton steps.  Stability verdicts are exact (Fourier-Motzkin
over the rationals, decided once per FI vector and support and cached for
semistable and the solver's pre-check) and serve as the solver's oracle;
floating point is confined to the Newton iteration, which runs on Python
floats.  Its step is E^T z, where the rows of E are a basis of the support
charges' span and z solves (E H E^T) z = -E grad f exactly
(lattice.solve_rational on the float entries' integer ratios), so t
stays in that span.  Armijo backtracking is skipped, and the full step
taken, once the decrease -grad f . step falls below f's float resolution
(_RESOLUTION |f|): below it a line search accepts rounding noise
(Boyd-Vandenberghe, Convex Optimization, 9.5).  For the same reason the
solve stops once |grad f|_inf < max(tol, 128 eps max_a (|r_a| + sum_i |q_ia|
w_i)), w_i = s_i exp(2 <q_i, t>): below that floor the gradient's entries
are rounding noise of their largest terms.  Gauge couplings are set to 1
(they rescale the equation without moving its zero set), the superpotential
is zero, and the extra scalar multiplet is frozen at zero as in the
geometric phase.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import ratlp
from ._record import Record
from .cox import CoxPresentation, minimal_transversals
from .fan import FAN_CACHE_SIZE, Fan, walls
from .lattice import IntMatrix, _integer_row, _step, pivot_columns, solve_rational

INTERIOR_STABLE = "InteriorStable"
BOUNDARY_MARGINAL = "BoundaryMarginal"
UNSTABLE = "Unstable"

_MAX_FIELDS = 16
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_RESOLUTION = 1e-12  # a decrease below this share of |f| is rounding noise
_FLOOR = 128 * sys.float_info.epsilon  # gradient noise per unit of its largest term


class GLSMProblem(Record):
    """Charges (k x r, column i = charge vector of field i), FI parameters,
    and squared field amplitudes s_i = |phi_i|^2 >= 0."""

    __slots__ = (
        "charges",
        "fi",  # rationals, length k
        "amplitudes",  # nonnegative rationals, length r
    )

    def __init__(self, charges, fi, amplitudes):
        fi = tuple(Fraction(x) for x in fi)
        amplitudes = tuple(Fraction(x) for x in amplitudes)
        _check_fi(charges, fi)
        if len(amplitudes) != charges.cols:
            raise ValueError("amplitude vector length must equal charge-matrix cols")
        if any(s < 0 for s in amplitudes):
            raise ValueError("squared amplitudes must be nonnegative")
        super().__init__(charges, fi, amplitudes)

    @property
    def support(self):
        return tuple(i for i, s in enumerate(self.amplitudes) if s > 0)


class SolveReport(Record):
    __slots__ = (
        "status",  # "Converged" | "Unstable" | "IterationLimit"
        "t",  # minimizer, on Converged
        "gradient_norm",
        "iterations",
        "recession_direction",  # exact certificate, on Unstable
    )

    def __init__(self, status, t=None, gradient_norm=float("nan"), iterations=0,
                 recession_direction=None):
        super().__init__(status, t, gradient_norm, iterations, recession_direction)


def semistable(charges: IntMatrix, support, fi) -> str:
    """Exact position of the FI vector relative to cone{q_i : i in support}."""
    _check_fi(charges, fi)
    support = sorted(set(support))
    if any(i < 0 or i >= charges.cols for i in support):
        raise ValueError("support index out of range")
    where, _ = _position(tuple(fi), tuple(charges.column(i) for i in support))
    return {
        "interior": INTERIOR_STABLE,
        "boundary": BOUNDARY_MARGINAL,
        "outside": UNSTABLE,
    }[where]


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _position(fi, gens):
    """ratlp.in_cone, shared by semistable and the Kempf-Ness pre-check."""
    return ratlp.in_cone(fi, gens)


def kempf_ness_solve(p: GLSMProblem, tol=1e-8, max_iter=200) -> SolveReport:
    """Damped Newton minimization of the Kempf-Ness function.

    Returns Converged with the minimizer once, within max_iter steps, the
    gradient's sup norm is below tol or the float resolution of its terms;
    Unstable (with an exact recession certificate when one exists) when
    the exact pre-check says the infimum is not attained; else IterationLimit.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    support = p.support
    cols = tuple(p.charges.column(i) for i in support)
    where, u = _position(p.fi, cols)
    if where != "interior":
        direction = _floats(-x for x in u) if u is not None else None
        return SolveReport(status="Unstable", recession_direction=direction)

    k = p.charges.rows
    # rows of E: the support charges independent of those before them
    basis = [cols[j] for j in pivot_columns(IntMatrix.from_rows(zip(*cols)))]
    eq = [[_dot(e, q) for q in cols] for e in basis]  # rows of E Q
    qs = [_floats(q) for q in cols]
    rows = [[q[a] for q in qs] for a in range(k)]
    abs_rows = [list(map(abs, row)) for row in rows]
    s = _floats(p.amplitudes[i] for i in support)
    r = _floats(p.fi)

    def at(t):
        """Weights s_i exp(2 <q_i, t>) and f(t), which is inf on overflow."""
        try:
            w = [a * math.exp(2.0 * _dot(q, t)) for a, q in zip(s, qs)]
        except OverflowError:
            w = [math.inf] * len(s)
        return w, sum(w) - 2.0 * _dot(r, t)

    def gradient(w):
        return [2.0 * (_dot(row, w) - x) for row, x in zip(rows, r)]

    t = [0.0] * k
    w, f = at(t)
    g = gradient(w)
    for it in range(max_iter + 1):
        gnorm = max(map(abs, g), default=0.0)
        floor = _FLOOR * max((abs(x) + _dot(row, w) for row, x in zip(abs_rows, r)), default=0.0)
        if gnorm < tol or gnorm < floor < math.inf:  # no floor once a weight overflows
            return SolveReport(status="Converged", t=tuple(t), gradient_norm=gnorm, iterations=it)
        if it == max_iter:
            break
        eg = [_dot(e, g) for e in basis]
        z = _newton_coords(eq, w, eg)
        if z is None or not _dot(eg, z) < 0:
            z = [-x for x in eg]  # fall back to steepest descent
        step = [sum(e[a] * x for e, x in zip(basis, z)) for a in range(k)]  # E^T z
        slope = _dot(eg, z)  # = g . step
        full = -slope <= _RESOLUTION * abs(f)  # no decrease f can resolve
        for h in range(_MAX_HALVINGS + 1):
            alpha = 0.5**h
            t_next = [x + alpha * d for x, d in zip(t, step)]
            w_next, f_next = at(t_next)
            if full or h == _MAX_HALVINGS or f_next <= f + _ARMIJO * alpha * slope:
                break
        t, w, f = t_next, w_next, f_next
        g = gradient(w)
    return SolveReport(status="IterationLimit", gradient_norm=gnorm, iterations=max_iter)


def _newton_coords(eq, w, eg):
    """z with (E H E^T) z = -E g, where E H E^T = 4 sum_i w_i (E q_i)(E q_i)^T
    and eq holds the rows of E Q, solved exactly on the float entries; None
    where that fails."""
    hess = [[4.0 * sum(map(mul, map(mul, w, b), c)) for c in eq] for b in eq]
    if not all(map(math.isfinite, itertools.chain(eg, *hess))):
        return None
    _, z = solve_rational(hess, [-x for x in eg])
    try:
        return None if z is None else [float(x) for x in z]
    except OverflowError:  # a coordinate beyond float range
        return None


def _dot(a, b):
    return sum(map(mul, a, b))


def unstable_supports(charges: IntMatrix, fi):
    """Minimal zero-sets whose complement-support is unstable for this FI
    vector; for FI in the Kaehler cone these are the primitive collections.

    By conic Caratheodory a support is semistable iff it contains a stable
    basis B: linearly independent charges, at most rows(Q), with FI in
    their cone.  So these are the minimal transversals of the stable bases.

    The bases are found by a depth-first walk over the independent charge
    sets in increasing column order, on the integer rows of [Q | b], where b
    is FI times the lcm of its denominators (same rank, consistency and
    signs).  A child B + (j,) costs one Bareiss pivot (`_step`) on the first
    nonzero of column j in the rows below |B|.  When there is none, q_j
    depends on B and on every superset of it, so the branch is pruned.  A
    node B of size s is a stable basis when the b entries of rows s.. are
    zero (Q_B x = b is consistent) and b_i * d >= 0 on rows ..s, d being
    the last pivot: every pivot ends equal to d, so x = b_i / d.
    """
    k, r = charges.rows, charges.cols
    if r > _MAX_FIELDS:
        raise ValueError(f"field count {r} exceeds limit {_MAX_FIELDS}")
    _check_fi(charges, fi)
    bases = []

    def walk(a, basis, d):
        s = len(basis)
        if not any(row[r] for row in a[s:]) and all(row[r] * d >= 0 for row in a[:s]):
            bases.append(basis)
        if s == k:
            return
        for j in range(basis[-1] + 1 if basis else 0, r):
            piv = next((i for i in range(s, k) if a[i][j]), None)
            if piv is None:
                continue
            c = a[:]
            c[s], c[piv] = c[piv], c[s]
            walk(c, basis + (j,), _step(c, s, j, d))

    walk([[*row, c] for row, c in zip(charges.to_rows(), _integer_row(fi))], (), 1)
    return minimal_transversals(r, bases)


def _check_fi(charges: IntMatrix, fi):
    if len(fi) != charges.rows:
        raise ValueError("FI vector length must equal charge-matrix rows")


def _floats(values):
    """Exact numbers as a tuple of floats; ValueError where one overflows."""
    try:
        return tuple(float(x) for x in values)
    except OverflowError:
        raise ValueError("number too large for the floating-point solver") from None


def pair_divisor_curve(pres: CoxPresentation, divisor_class, d) -> int:
    """Intersection number of a divisor class with an admissible curve class.

    An admissible d lies in the row space of the charge matrix Q, so
    Q^T c = d has a unique solution, and the pairing is class . c (= e . d
    for any lift e of the class through Q).  c is integral because the rows
    of Q are a basis of the saturated lattice of admissible degrees.
    """
    d = tuple(int(x) for x in d)
    if len(d) != pres.charge_matrix.cols:
        raise ValueError("curve degree length must equal number of rays")
    return _dot(_class_vector(pres, divisor_class), _curve_class(pres, d))


def kahler_cone_contains(f: Fan, pres: CoxPresentation, divisor_class) -> bool:
    """True iff the class pairs strictly positively with every wall curve."""
    a = _class_vector(pres, divisor_class)
    return all(_dot(a, c) > 0 for c in _wall_classes(f, pres))


def _class_vector(pres: CoxPresentation, divisor_class):
    a = tuple(int(x) for x in divisor_class)
    if len(a) != pres.charge_matrix.rows:
        raise ValueError("divisor class length must equal the Picard rank")
    return a


def _curve_class(pres: CoxPresentation, d):
    """The integral c with Q^T c = d (see pair_divisor_curve)."""
    _, c = solve_rational(pres.charge_matrix.transpose().to_rows(), d)
    if c is None:
        raise ValueError("curve degree is not admissible")
    return tuple(int(x) for x in c)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _wall_classes(f: Fan, pres: CoxPresentation):
    """The distinct classes c_w of the wall curves, Q^T c_w = relation."""
    return frozenset(_curve_class(pres, w.relation) for w in walls(f))
