"""Collapsing genus-0 stable-map data of bidegree (1, d) to a section collection.

The domain tree is summarized by its distinguished degree-1 component
(identified with the target line, so its data is just a nondegenerate
collection) plus, per attached subtree, the attachment point and the
subtree's total multidegree -- the push-forward formula depends on nothing
finer.  Collapsing multiplies each main section by the attachment points'
linear forms raised to the subtree degrees:

    u'_rho = u_rho * prod_i l_{p_i}^(d_{i,rho})

Attachment-point representatives matter for the exact coefficients of the
output (projectively nothing changes); reparametrization transports points
by the adjugate matrix so that collapsing commutes with reparametrizing on
the nose, coefficient for coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from . import forms
from ._record import Record
from .delta import WeakDeltaCollection, admissible, is_nondegenerate
from .fan import ValidationReport, is_complete, is_smooth, prime_divisors_nef
from .forms import Mobius


class Attachment(Record):
    __slots__ = (
        "point",  # rational pair, not both zero
        "degree",  # subtree total multidegree, admissible, nonnegative, nonzero
    )

    def __init__(self, point, degree):
        p = tuple(Fraction(x) for x in point)
        if len(p) != 2 or p == (0, 0):
            raise ValueError("attachment point must be a nonzero rational pair")
        super().__init__(p, tuple(int(x) for x in degree))


class GenusZeroStableMapData(Record):
    __slots__ = ("main", "attachments")

    def __init__(self, main, attachments=()):
        super().__init__(main, tuple(attachments))


class CollapseResult(Record):
    __slots__ = ("collection", "total_degree")

    def __init__(self, collection, total_degree):
        super().__init__(collection, total_degree)


def _same_point(p, q):
    return p[0] * q[1] - p[1] * q[0] == 0


def validate(data: GenusZeroStableMapData) -> ValidationReport:
    issues = []
    f = data.main.fan  # valid: the main collection required it
    if not is_smooth(f) or not is_complete(f):
        issues.append("fan must be smooth and complete")
        return ValidationReport(tuple(issues))
    nef, _ = prime_divisors_nef(f)
    if not nef:
        issues.append(
            "fan fails the nef-prime-divisor convexity proxy; "
            "subtree degrees are not guaranteed effective"
        )
    if not is_nondegenerate(data.main):
        issues.append("main component is degenerate (has base points)")
    for i, att in enumerate(data.attachments):
        if len(att.degree) != f.n_rays:
            issues.append(f"attachment {i}: degree vector length mismatch")
            continue
        if not admissible(f, att.degree):
            issues.append(f"attachment {i}: subtree degree inadmissible")
        if any(x < 0 for x in att.degree):
            issues.append(f"attachment {i}: negative subtree degree entry")
        if all(x == 0 for x in att.degree):
            issues.append(f"attachment {i}: zero subtree degree")
    for i in range(len(data.attachments)):
        for j in range(i + 1, len(data.attachments)):
            if _same_point(data.attachments[i].point, data.attachments[j].point):
                issues.append(f"attachments {i} and {j} share a point")
    return ValidationReport(tuple(issues))


def collapse(data: GenusZeroStableMapData) -> CollapseResult:
    rep = validate(data)
    if not rep.ok:
        raise ValueError("invalid stable-map data: " + "; ".join(rep.issues))
    f = data.main.fan
    sections = list(data.main.sections)
    total = list(data.main.degree)
    for att in data.attachments:
        ell = forms.linear_form_at(att.point)
        for rho in range(f.n_rays):
            for _ in range(att.degree[rho]):
                sections[rho] = forms.mul(sections[rho], ell)
            total[rho] += att.degree[rho]
    out = WeakDeltaCollection(
        fan=f,
        degree=tuple(total),
        sections=tuple(sections),
        trivializations=data.main.trivializations,
    )
    return CollapseResult(collection=out, total_degree=tuple(total))


def reparametrize_collection(c: WeakDeltaCollection, g: Mobius) -> WeakDeltaCollection:
    sections = tuple(forms.substitute(u, g) for u in c.sections)
    return WeakDeltaCollection(c.fan, c.degree, sections, c.trivializations)


def reparametrize_data(data: GenusZeroStableMapData, g: Mobius) -> GenusZeroStableMapData:
    """Substitute the main sections by g and move attachment points by the
    adjugate of g (same projective point as g^{-1}, representative chosen
    so collapse is exactly equivariant)."""
    return GenusZeroStableMapData(
        main=reparametrize_collection(data.main, g),
        attachments=tuple(
            Attachment(point=g.adjugate_apply(att.point), degree=att.degree)
            for att in data.attachments
        ),
    )
