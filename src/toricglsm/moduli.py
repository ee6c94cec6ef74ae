"""Dimension counts and sampling for the genus-0 section-space quotient.

For a multidegree d the section space has dimension sum(d_rho + 1); the
gauge torus has dimension equal to the Picard rank; the quotient dimension
reported here is the naive difference, valid where orbits have trivial
stabilizer (stacky special points are out of scope and flagged in the
summary docstring of the CLI output).
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._record import Record
from .delta import WeakDeltaCollection, admissible, is_nonvanishing
from .fan import Fan
from .forms import BinaryForm

_REJECTION_BUDGET = 1000


class ModuliSummary(Record):
    __slots__ = (
        "degree",
        "y_dim",  # dim of the section space, sum(d_rho + 1)
        "g_dim",  # dim of the gauge torus = Picard rank
        "w_dim",  # naive orbit-space dimension y_dim - g_dim
    )

    def __init__(self, degree, y_dim, g_dim, w_dim):
        super().__init__(degree, y_dim, g_dim, w_dim)


def _checked_degree(f: Fan, d):
    d = tuple(int(x) for x in d)
    if not admissible(f, d):
        raise ValueError("inadmissible multidegree")
    if any(x < 0 for x in d):
        raise ValueError("negative multidegree entry")
    return d


def summarize(f: Fan, d) -> ModuliSummary:
    d = _checked_degree(f, d)
    y_dim = sum(x + 1 for x in d)
    g_dim = f.n_rays - f.dim
    return ModuliSummary(degree=d, y_dim=y_dim, g_dim=g_dim, w_dim=y_dim - g_dim)


def in_excluded_locus(c: WeakDeltaCollection) -> bool:
    """Membership in F_d: the induced map lands generically in V(I),
    which happens exactly when the collection is not nonvanishing."""
    return not is_nonvanishing(c)


def sample(f: Fan, d, seed, coeff_bound) -> WeakDeltaCollection:
    """Seeded random point of Y_d - F_d with integer coefficients in
    [-coeff_bound, coeff_bound], rejection-resampled until nonvanishing."""
    d = _checked_degree(f, d)
    if coeff_bound < 0:
        raise ValueError(f"coefficient bound {coeff_bound} is negative")
    rng = random.Random(seed)
    for _ in range(_REJECTION_BUDGET):
        sections = tuple(
            BinaryForm(
                deg,
                tuple(Fraction(rng.randint(-coeff_bound, coeff_bound)) for _ in range(deg + 1)),
            )
            for deg in d
        )
        c = WeakDeltaCollection(fan=f, degree=d, sections=sections)
        if is_nonvanishing(c):
            return c
    raise ValueError(
        f"rejection budget ({_REJECTION_BUDGET}) exhausted: the excluded locus "
        "has full measure at this coefficient bound"
    )
