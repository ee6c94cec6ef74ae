"""Bosonic vacuum layer of the abelian gauged linear sigma model.

The scalar potential's stationarity reduces to the moment-map equation
mu(phi) = Q |phi|^2 - r = 0 modulo the unitary gauge group; existence of a
solution in a complexified orbit is an exact combinatorial question
(Fayet-Iliopoulos vector inside the charge cone of the nonzero fields),
while the solution itself is found numerically by minimizing the convex
Kempf-Ness function

    f(t) = sum_i s_i exp(2 <q_i, t>) - 2 <r, t>,   grad f = 2 (Q s(t) - r),

with damped Newton steps.  Stability verdicts are exact (Fourier-Motzkin
over the rationals) and serve as the solver's oracle; floating point is
confined to the Newton iteration.  Gauge couplings are set to 1 (they
rescale the equation without moving its zero set), the superpotential is
zero, and the extra scalar multiplet is frozen at zero as in the geometric
phase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratlp
from .cox import CoxPresentation, minimal_transversals
from .fan import Fan, walls
from .lattice import IntMatrix, solve_integer, solve_rational

INTERIOR_STABLE = "InteriorStable"
BOUNDARY_MARGINAL = "BoundaryMarginal"
UNSTABLE = "Unstable"

_MAX_FIELDS = 16
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class GLSMProblem:
    """Charges (k x r, column i = charge vector of field i), FI parameters,
    and squared field amplitudes s_i = |phi_i|^2 >= 0."""

    charges: IntMatrix
    fi: tuple  # rationals, length k
    amplitudes: tuple  # nonnegative rationals, length r

    def __post_init__(self):
        object.__setattr__(self, "fi", tuple(Fraction(x) for x in self.fi))
        object.__setattr__(
            self, "amplitudes", tuple(Fraction(x) for x in self.amplitudes)
        )
        if len(self.fi) != self.charges.rows:
            raise ValueError("FI vector length must equal charge-matrix rows")
        if len(self.amplitudes) != self.charges.cols:
            raise ValueError("amplitude vector length must equal charge-matrix cols")
        if any(s < 0 for s in self.amplitudes):
            raise ValueError("squared amplitudes must be nonnegative")

    @property
    def support(self):
        return tuple(i for i, s in enumerate(self.amplitudes) if s > 0)


@dataclass(frozen=True)
class SolveReport:
    status: str  # "Converged" | "Unstable" | "IterationLimit"
    t: tuple = None  # minimizer, on Converged
    gradient_norm: float = float("nan")
    iterations: int = 0
    recession_direction: tuple = None  # exact certificate, on Unstable


def moment_map(p: GLSMProblem):
    """Q s - r, exactly."""
    return tuple(
        sum(p.charges.at(a, i) * p.amplitudes[i] for i in range(p.charges.cols))
        - p.fi[a]
        for a in range(p.charges.rows)
    )


def semistable(charges: IntMatrix, support, fi) -> str:
    """Exact position of the FI vector relative to cone{q_i : i in support}."""
    support = sorted(set(support))
    if any(i < 0 or i >= charges.cols for i in support):
        raise ValueError("support index out of range")
    gens = [charges.column(i) for i in support]
    where, _ = ratlp.in_cone(fi, gens)
    return {
        "interior": INTERIOR_STABLE,
        "boundary": BOUNDARY_MARGINAL,
        "outside": UNSTABLE,
    }[where]


def kempf_ness_solve(p: GLSMProblem, tol=1e-8, max_iter=200) -> SolveReport:
    """Damped Newton minimization of the Kempf-Ness function.

    Returns Converged with the minimizer when the gradient's sup norm
    drops below tol; Unstable (with an exact recession certificate when
    one exists) when the exact pre-check says the infimum is not attained;
    IterationLimit otherwise.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    where, u = ratlp.in_cone(p.fi, [p.charges.column(i) for i in p.support])
    if where != "interior":
        direction = _floats(-x for x in u) if u is not None else None
        return SolveReport(status="Unstable", recession_direction=direction)

    k = p.charges.rows
    Q = np.array([_floats(row) for row in p.charges.to_rows()])  # k x r
    s = np.array(_floats(p.amplitudes))
    r_vec = np.array(_floats(p.fi))
    t = np.zeros(k)

    def grad_and_weights(tv):
        w = s * np.exp(2.0 * (Q.T @ tv))
        return 2.0 * (Q @ w - r_vec), w

    def objective(tv):
        return float(np.sum(s * np.exp(2.0 * (Q.T @ tv))) - 2.0 * r_vec @ tv)

    g, w = grad_and_weights(t)
    for it in range(1, max_iter + 1):
        if np.max(np.abs(g)) < tol:
            return SolveReport(
                status="Converged",
                t=tuple(t),
                gradient_norm=float(np.max(np.abs(g))),
                iterations=it - 1,
            )
        hess = 4.0 * (Q * w) @ Q.T
        step, *_ = np.linalg.lstsq(hess, -g, rcond=None)
        if not np.all(np.isfinite(step)) or g @ step >= 0:
            step = -g  # fall back to steepest descent
        f0 = objective(t)
        slope = float(g @ step)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            if objective(t + alpha * step) <= f0 + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        t_next = t + alpha * step
        if np.array_equal(t_next, t):
            # the decrease is below f's float resolution: take the full step
            t_next = t + step
        t = t_next
        g, w = grad_and_weights(t)
    return SolveReport(
        status="IterationLimit",
        gradient_norm=float(np.max(np.abs(g))),
        iterations=max_iter,
    )


def unstable_supports(charges: IntMatrix, fi):
    """Minimal zero-sets whose complement-support is unstable for this FI
    vector; for FI in the Kaehler cone these are the primitive collections.

    By conic Caratheodory a support is semistable iff it contains a stable
    basis B: linearly independent charges, at most rows(Q), with FI in
    their cone.  So these are the minimal transversals of the stable bases.
    """
    r = charges.cols
    if r > _MAX_FIELDS:
        raise ValueError(f"field count {r} exceeds limit {_MAX_FIELDS}")
    rows = charges.to_rows()
    bases = []
    for size in range(min(charges.rows, r) + 1):
        for basis in itertools.combinations(range(r), size):
            rank, x = solve_rational([[row[i] for i in basis] for row in rows], fi)
            if rank == size and x is not None and all(c >= 0 for c in x):
                bases.append(basis)
    return minimal_transversals(r, bases)


def _floats(values):
    """Exact numbers as a tuple of floats; ValueError where one overflows."""
    try:
        return tuple(float(x) for x in values)
    except OverflowError:
        raise ValueError("number too large for the floating-point solver") from None


def pair_divisor_curve(pres: CoxPresentation, divisor_class, d) -> int:
    """Intersection number of a divisor class with an admissible curve class.

    Computed as e . d for any integer lift e of the class through the
    charge matrix; admissibility of d makes the lift ambiguity pair to 0.
    """
    d = tuple(int(x) for x in d)
    B = pres.ray_matrix
    if len(d) != B.rows:
        raise ValueError("curve degree length must equal number of rays")
    for j in range(B.cols):
        if sum(d[i] * B.at(i, j) for i in range(B.rows)) != 0:
            raise ValueError("curve degree is not admissible")
    lift = solve_integer(pres.charge_matrix, tuple(int(x) for x in divisor_class))
    if lift is None:
        raise ValueError("divisor class has no integer lift")
    return sum(e * x for e, x in zip(lift, d))


def kahler_cone_contains(f: Fan, pres: CoxPresentation, divisor_class) -> bool:
    """True iff the class pairs strictly positively with every wall curve."""
    return all(
        pair_divisor_curve(pres, divisor_class, w.relation) > 0 for w in walls(f)
    )
