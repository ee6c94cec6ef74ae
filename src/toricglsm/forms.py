"""Homogeneous binary forms over Q, with exact arithmetic throughout.

A form of degree d is sum_k c_k z0^(d-k) z1^k; the zero form carries a
degree of its own (the zero section of O(d) is a different object for each
d).  GCDs reduce to univariate Euclid after splitting off the power of z1
visible at the point at infinity.  No floating point enters this module:
degeneracy decisions downstream hinge on exact gcd degrees.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ._record import Record, setfield


class FormSyntaxError(ValueError):
    """Parse failure, annotated with the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BinaryForm(Record):
    # coefficients: Fractions c_0..c_d, c_k multiplying z0^(d-k) z1^k
    __slots__ = ("degree", "coefficients")

    def __init__(self, degree, coefficients):
        if degree < 0:
            raise ValueError("negative degree")
        coefficients = tuple(Fraction(c) for c in coefficients)
        if len(coefficients) != degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        setfield(self, "degree", degree)
        setfield(self, "coefficients", coefficients)

    @staticmethod
    def zero(degree=0):
        return BinaryForm(degree, (Fraction(0),) * (degree + 1))

    @staticmethod
    def one():
        return BinaryForm(0, (Fraction(1),))

    @property
    def is_zero(self):
        return not any(self.coefficients)

    def __str__(self):
        return format_form(self)


class Mobius(Record):
    """Invertible 2x2 rational matrix acting on (z0, z1)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        super().__init__(Fraction(a), Fraction(b), Fraction(c), Fraction(d))
        if self.det == 0:
            raise ValueError("singular Mobius matrix")

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def adjugate_apply(self, p):
        """adj(g) applied to a point representative (a, b).

        Same projective point as g^{-1} p but with a determinant-scaled
        representative; with this transport, substituting a point's linear
        form equals the linear form of the transported point exactly.
        """
        x, y = Fraction(p[0]), Fraction(p[1])
        return (self.d * x - self.b * y, -self.c * x + self.a * y)


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>z[01])|(?P<op>[+\-*^]))")


def parse_form(text: str, expected_degree=None) -> BinaryForm:
    """Parse a signed sum of terms like `3/2*z0^2*z1` into a BinaryForm.

    `*` and `^1` are optional; whitespace is free-form.  Raises
    FormSyntaxError on bad syntax and ValueError on inhomogeneous input or
    an expected-degree mismatch.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise FormSyntaxError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()

    terms = []  # (coeff, z0 power, z1 power)
    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        took_sign = False
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            took_sign = True
            i += 1
        if not first and not took_sign:
            raise FormSyntaxError("expected '+' or '-' between terms", tokens[i][2])
        first = False
        coeff = sign
        p0 = p1 = 0
        saw_factor = False
        pending_star = False
        while i < len(tokens):
            kind, val, tpos = tokens[i]
            if kind == "op" and val == "*":
                if not saw_factor or pending_star:
                    raise FormSyntaxError("unexpected '*'", tpos)
                pending_star = True
                i += 1
                continue
            if kind == "op" and val == "^":
                raise FormSyntaxError("stray '^'", tpos)
            if kind == "op":
                break  # +/- starts the next term
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise FormSyntaxError("zero denominator", tpos) from None
                i += 1
            else:  # variable, possibly with exponent
                exp = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        raise FormSyntaxError("expected integer exponent after '^'", tpos)
                    exp = int(tokens[i][1])
                    i += 1
                if val == "z0":
                    p0 += exp
                else:
                    p1 += exp
            saw_factor = True
            pending_star = False
        where = tokens[i][2] if i < len(tokens) else len(text)
        if pending_star:
            raise FormSyntaxError("dangling '*'", where)
        if not saw_factor:
            raise FormSyntaxError("empty term", where)
        terms.append((coeff, p0, p1))

    if not terms:
        raise FormSyntaxError("empty input", 0)

    nonzero = [t for t in terms if t[0] != 0]
    if not nonzero:
        degree = expected_degree if expected_degree is not None else max(
            p0 + p1 for _, p0, p1 in terms
        )
        return BinaryForm.zero(degree)
    degrees = {p0 + p1 for _, p0, p1 in nonzero}
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous input: term degrees {sorted(degrees)}")
    degree = degrees.pop()
    if expected_degree is not None and degree != expected_degree:
        raise ValueError(f"degree mismatch: got {degree}, expected {expected_degree}")
    coeffs = [Fraction(0)] * (degree + 1)
    for c, p0, p1 in nonzero:
        coeffs[p1] += c
    return BinaryForm(degree, tuple(coeffs))


def format_form(f: BinaryForm) -> str:
    """Serialize in the parse grammar: decreasing z0 power, lowest terms."""
    if f.is_zero:
        return "0"
    parts = []
    for k, c in enumerate(f.coefficients):
        if c == 0:
            continue
        p0, p1 = f.degree - k, k
        factors = []
        if p0:
            factors.append("z0" if p0 == 1 else f"z0^{p0}")
        if p1:
            factors.append("z1" if p1 == 1 else f"z1^{p1}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def mul(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    coeffs = [Fraction(0)] * (f.degree + g.degree + 1)
    if not (f.is_zero or g.is_zero):
        for i, a in enumerate(f.coefficients):
            for j, b in enumerate(g.coefficients):
                coeffs[i + j] += a * b
    return BinaryForm(f.degree + g.degree, tuple(coeffs))


def scale(f: BinaryForm, q) -> BinaryForm:
    q = Fraction(q)
    return BinaryForm(f.degree, tuple(q * c for c in f.coefficients))


def evaluate(f: BinaryForm, point):
    """Value at a representative (a, b) != (0, 0); vanishing is projective."""
    a, b = Fraction(point[0]), Fraction(point[1])
    if a == 0 and b == 0:
        raise ValueError("(0, 0) does not represent a projective point")
    return sum(
        c * a ** (f.degree - k) * b**k for k, c in enumerate(f.coefficients)
    )


def linear_form_at(point) -> BinaryForm:
    """The degree-1 form b*z0 - a*z1 vanishing exactly at [a:b]."""
    a, b = Fraction(point[0]), Fraction(point[1])
    if a == 0 and b == 0:
        raise ValueError("(0, 0) does not represent a projective point")
    return BinaryForm(1, (b, -a))


def substitute(f: BinaryForm, g: Mobius) -> BinaryForm:
    """f(a*z0 + b*z1, c*z0 + d*z1): degree-preserving reparametrization."""
    first = BinaryForm(1, (g.a, g.b))
    second = BinaryForm(1, (g.c, g.d))
    return compose(f, first, second)


def compose(f: BinaryForm, a: BinaryForm, b: BinaryForm) -> BinaryForm:
    """f(a, b) for equal-degree forms a, b; result degree = deg f * deg a."""
    if a.degree != b.degree:
        raise ValueError("substituted pair must have equal degrees")
    k = a.degree
    result = BinaryForm.zero(f.degree * k)
    if f.is_zero:
        return result
    # powers built incrementally: a^(d-k) * b^k
    apows = [BinaryForm.one()]
    bpows = [BinaryForm.one()]
    for _ in range(f.degree):
        apows.append(mul(apows[-1], a))
        bpows.append(mul(bpows[-1], b))
    coeffs = list(result.coefficients)
    for j, c in enumerate(f.coefficients):
        if c == 0:
            continue
        term = mul(apows[f.degree - j], bpows[j])
        for idx, t in enumerate(term.coefficients):
            coeffs[idx] += c * t
    return BinaryForm(f.degree * k, tuple(coeffs))


# -- univariate helpers (dense coefficient lists, low power first) ----------


def _dehomogenize(f: BinaryForm):
    """f = z1^s * homog(p) with p(z0) = f(z0, 1) stripped of z1 powers.

    Returns (s, p) where p is a univariate coefficient list in z0,
    low power first, with nonzero leading coefficient.
    """
    # c_k multiplies z0^(d-k) z1^k: z1-adic valuation s = min k with c_k != 0
    s = next(k for k, c in enumerate(f.coefficients) if c != 0)
    # after dividing by z1^s the form has z0-degree d - s; low power first
    p = [f.coefficients[k] for k in range(f.degree, s - 1, -1)]
    return s, p


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(p, q):
    """Remainder of trimmed p by trimmed nonzero q."""
    p = list(p)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        _poly_trim(p)
    return p


def _poly_gcd(p, q):
    p = _poly_trim(list(p))
    q = _poly_trim(list(q))
    while q:
        p, q = q, _poly_rem(p, q)
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def _homogenize(s, p):
    """z1^s * (univariate p in z0 homogenized)."""
    d = s + len(p) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for i, c in enumerate(p):
        coeffs[d - i] = c  # c z0^i z1^(d - i)
    return BinaryForm(d, tuple(coeffs))


def gcd(forms) -> BinaryForm:
    """Monic GCD of binary forms; degree 0 yields the constant 1 form.

    The common z1 power (invisible after dehomogenizing at z1 = 1) is
    tracked separately as the minimum z1-adic valuation.
    """
    nonzero = [f for f in forms if not f.is_zero]
    if not nonzero:
        raise ValueError("gcd of all-zero forms is undefined")
    parts = [_dehomogenize(f) for f in nonzero]
    s = min(fs for fs, _ in parts)
    g = []
    for _, p in parts:
        g = _poly_gcd(g, p) if g else _poly_gcd(p, [])
        if len(g) == 1:
            break
    if not g:
        g = [Fraction(1)]
    return _homogenize(s, g)
