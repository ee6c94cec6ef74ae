"""Genus-0 weak section collections on a toric target.

A collection fixes, for every ray rho of the fan, a binary form of degree
d_rho (the section of O(d_rho) on the source line), plus a tuple of nonzero
rational trivialization scalars indexed by the standard basis of the dual
lattice.  All scalars are rational: when only root extraction over Q
obstructs an isomorphism witness, the verdict says so explicitly instead
of pretending the collections differ.

A point of the source lands in the excluded locus V(I) exactly when the
sections vanishing there contain a primitive collection.  So a collection
is nondegenerate when, on every primitive collection, the sections are not
all zero and have a constant gcd: gcds of the input forms, no products.
The base divisor, which needs multiplicities, is the gcd of the nonzero
per-cone products g_sigma = prod_{rho outside sigma} u_rho.
"""

from __future__ import annotations

from fractions import Fraction

from . import forms
from ._record import Record, setfield
from .cox import _MAX_RAYS_FOR_COLLECTIONS, outside_irrelevant_locus, primitive_collections
from .fan import Fan, require_valid
from .forms import BinaryForm
from .lattice import IntMatrix, smith_normal_form


def admissible(f: Fan, d) -> bool:
    """True iff sum_rho d_rho * n_rho = 0, the degree-0 constraint that
    makes the canonical trivializations exist."""
    d = tuple(int(x) for x in d)
    if len(d) != f.n_rays:
        raise ValueError(f"degree vector length {len(d)} != number of rays {f.n_rays}")
    return all(
        sum(d[i] * f.rays[i][j] for i in range(f.n_rays)) == 0 for j in range(f.dim)
    )


class WeakDeltaCollection(Record):
    __slots__ = (
        "fan",
        "degree",  # d_rho per ray
        "sections",  # BinaryForm per ray, deg u_rho = d_rho (zero form allowed)
        "trivializations",  # nonzero rationals, one per lattice basis vector
    )

    def __init__(self, fan, degree, sections, trivializations=None):
        super().__init__(fan, degree, sections, trivializations)
        self.__post_init__()

    def __post_init__(self):
        require_valid(self.fan)
        degree = tuple(int(x) for x in self.degree)
        setfield(self, "degree", degree)
        if len(degree) != self.fan.n_rays:
            raise ValueError("degree vector length mismatch")
        if not admissible(self.fan, degree):
            raise ValueError("inadmissible multidegree: sum d_rho n_rho != 0")
        sections = tuple(self.sections)
        setfield(self, "sections", sections)
        if len(sections) != self.fan.n_rays:
            raise ValueError("section count mismatch")
        for i, (u, d) in enumerate(zip(sections, degree)):
            if u.degree != d:
                raise ValueError(
                    f"section {i} has degree {u.degree}, multidegree says {d}"
                )
        triv = self.trivializations
        if triv is None:
            triv = (Fraction(1),) * self.fan.dim
        triv = tuple(Fraction(t) for t in triv)
        setfield(self, "trivializations", triv)
        if len(triv) != self.fan.dim:
            raise ValueError("one trivialization scalar per lattice basis vector")
        if any(t == 0 for t in triv):
            raise ValueError("trivialization scalars must be nonzero")


class IsomorphismVerdict(Record):
    __slots__ = (
        "status",  # "isomorphic_rational" | "isomorphic_over_closure" | "not_isomorphic"
        "witness",  # scalar per ray, only for isomorphic_rational
    )

    def __init__(self, status, witness=None):
        super().__init__(status, witness)

    @property
    def isomorphic(self):
        return self.status != "not_isomorphic"


def is_nonvanishing(c: WeakDeltaCollection) -> bool:
    """The zero sections span a cone, so generic points avoid V(I)."""
    return outside_irrelevant_locus(c.fan, {i for i, u in enumerate(c.sections) if u.is_zero})


def base_divisor(c: WeakDeltaCollection) -> BinaryForm:
    """Monic gcd of the nonzero g_sigma over the maximal cones: its
    projective roots, with multiplicity, are the points mapped into the
    excluded locus."""
    if not is_nonvanishing(c):
        raise ValueError("collection vanishes: no well-defined base divisor")
    products = []
    for cone in c.fan.max_cones:
        g = BinaryForm.one()
        for i, u in enumerate(c.sections):
            if i not in cone:
                g = forms.mul(g, u)
        products.append(g)
    return forms.gcd(products)


def is_nondegenerate(c: WeakDeltaCollection) -> bool:
    """No point maps into V(I): on each primitive collection the sections are
    not all zero and share no root (above its ray cap, the base divisor decides)."""
    if c.fan.n_rays > _MAX_RAYS_FOR_COLLECTIONS:
        return is_nonvanishing(c) and base_divisor(c).degree == 0
    for p in primitive_collections(c.fan):
        nonzero = [c.sections[i] for i in p if not c.sections[i].is_zero]
        if not nonzero or forms.gcd(nonzero).degree > 0:
            return False
    return True


def pullback(c: WeakDeltaCollection, cover) -> WeakDeltaCollection:
    """Pull back along the self-map of the line given by a coprime pair of
    equal-degree forms; multidegree scales by the covering degree."""
    a, b = cover
    if a.degree != b.degree:
        raise ValueError("cover pair must have equal degrees")
    k = a.degree
    if k < 1:
        raise ValueError("cover degree must be at least 1")
    if a.is_zero or b.is_zero or forms.gcd([a, b]).degree != 0:
        raise ValueError("cover pair shares a root: not a morphism")
    return WeakDeltaCollection(
        fan=c.fan,
        degree=tuple(k * d for d in c.degree),
        sections=tuple(forms.compose(u, a, b) for u in c.sections),
        trivializations=c.trivializations,
    )


def scale_sections(c: WeakDeltaCollection, lam) -> WeakDeltaCollection:
    """Rescale each section by a nonzero rational; trivializations kept."""
    lam = tuple(Fraction(x) for x in lam)
    if len(lam) != c.fan.n_rays or any(x == 0 for x in lam):
        raise ValueError("need one nonzero scalar per ray")
    sections = tuple(forms.scale(u, x) for u, x in zip(c.sections, lam))
    return WeakDeltaCollection(c.fan, c.degree, sections, c.trivializations)


def gauge_scalars(charge_matrix: IntMatrix, g):
    """Scalars lambda_rho = prod_a g_a^(Q[a][rho]) for g in the gauge torus.

    Such lambda automatically satisfy prod_rho lambda_rho^(B[rho][j]) = 1
    because the charge matrix annihilates the ray matrix.
    """
    g = tuple(Fraction(x) for x in g)
    if len(g) != charge_matrix.rows or any(x == 0 for x in g):
        raise ValueError("need one nonzero scalar per charge-matrix row")
    return tuple(
        _prodpow(g, charge_matrix.column(i)) for i in range(charge_matrix.cols)
    )


def _prodpow(values, exps):
    out = Fraction(1)
    for v, e in zip(values, exps):
        out *= Fraction(v) ** int(e)
    return out


def _int_root(n: int, d: int):
    """Exact d-th root of a nonnegative integer, or None."""
    if n in (0, 1) or d == 1:
        return n
    lo, hi = 0, 1
    while hi**d < n:
        lo, hi = hi, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**d == n else None


def _rational_root(q: Fraction, d: int):
    """Rational d-th root of q, or None (sign-aware)."""
    if d == 1:
        return q
    neg = q < 0
    if neg and d % 2 == 0:
        return None
    num = _int_root(abs(q.numerator), d)
    den = _int_root(q.denominator, d)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if neg else root


def isomorphic(c1: WeakDeltaCollection, c2: WeakDeltaCollection) -> IsomorphismVerdict:
    """Decide whether c2 is in the gauge orbit of c1.

    A witness is a scalar lambda_rho per ray with lambda_rho u_rho = u'_rho
    and prod_rho lambda_rho^(B[rho][j]) = t'_j / t_j for every lattice
    basis vector j.  Nonzero sections pin their scalar to a ratio; scalars
    on zero sections are solved for through the Smith form of the exponent
    system, distinguishing rational solvability from solvability that needs
    algebraically closed roots.
    """
    if c1.fan != c2.fan or c1.degree != c2.degree:
        raise ValueError("collections live on different data (fan or multidegree)")
    n_rays = c1.fan.n_rays
    n = c1.fan.dim
    lam = [None] * n_rays
    free = []
    for i, (u, v) in enumerate(zip(c1.sections, c2.sections)):
        if u.is_zero != v.is_zero:
            return IsomorphismVerdict("not_isomorphic")
        if u.is_zero:
            free.append(i)
            continue
        k = next(j for j, cc in enumerate(u.coefficients) if cc != 0)
        ratio = v.coefficients[k] / u.coefficients[k]
        if ratio == 0 or any(
            b != ratio * a for a, b in zip(u.coefficients, v.coefficients)
        ):
            return IsomorphismVerdict("not_isomorphic")
        lam[i] = ratio

    # residual multiplicative system over the free scalars:
    # prod_{rho free} x_rho^(B[rho][j]) = nu_j
    nu = []
    for j in range(n):
        target = c2.trivializations[j] / c1.trivializations[j]
        for i in range(n_rays):
            if lam[i] is not None:
                target /= lam[i] ** c1.fan.rays[i][j]
        nu.append(target)

    if not free:
        if all(x == 1 for x in nu):
            return IsomorphismVerdict("isomorphic_rational", tuple(lam))
        return IsomorphismVerdict("not_isomorphic")

    C = IntMatrix.from_rows(
        [[c1.fan.rays[i][j] for i in free] for j in range(n)]
    )
    snf = smith_normal_form(C)
    r = snf.rank()
    nu_t = [
        _prodpow(nu, snf.U.row(i)) for i in range(n)
    ]
    # zero rows of D: constraints that no choice of free scalars can absorb
    if any(nu_t[i] != 1 for i in range(r, n)):
        return IsomorphismVerdict("not_isomorphic")
    y = []
    rational = True
    diag = snf.diagonal()
    for i in range(r):
        root = _rational_root(nu_t[i], diag[i])
        if root is None:
            rational = False
            break
        y.append(root)
    if not rational:
        return IsomorphismVerdict("isomorphic_over_closure")
    y += [Fraction(1)] * (len(free) - r)
    for idx, i in enumerate(free):
        lam[i] = _prodpow(y, snf.V.row(idx))
    return IsomorphismVerdict("isomorphic_rational", tuple(lam))
